//! The error-estimation procedures ξ, and the θ they are asked about.
//!
//! §4.1: the diagnostic "can be applied in principle to any error
//! estimation procedure, including closed-form CLT-based error estimation,
//! simply by plugging in such procedures for ξ". [`EstimationMethod`] is
//! that plug: a procedure that, given a sample, a query θ, and a coverage
//! level α, produces a confidence-interval estimate — or reports that it is
//! not applicable to this θ. A new procedure is a new variant.

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::bootstrap::bootstrap_ci;
use crate::ci::Ci;
use crate::closed_form::closed_form_ci;
use crate::estimator::{Accumulator, Aggregate, QueryEstimator, SampleContext, Udf};
use crate::large_deviation::{large_deviation_ci, Inequality, RangeHint};
use crate::rng::Rng as StdRng;

/// A single-level θ: a built-in aggregate (closed forms may apply) or a
/// UDF (bootstrap only). The engine's prepared queries and the paper's
/// stats-level experiments hold the same type.
#[derive(Debug, Clone)]
pub enum Theta {
    /// A built-in SQL aggregate.
    Builtin(Aggregate),
    /// An aggregate UDF.
    Udf(Arc<Udf>),
}

impl Theta {
    /// View as a `QueryEstimator`.
    pub fn as_estimator(&self) -> &dyn QueryEstimator {
        match self {
            Theta::Builtin(a) => a,
            Theta::Udf(u) => &**u,
        }
    }

    /// Evaluate on plain values.
    pub fn estimate(&self, values: &[f64], ctx: &SampleContext) -> f64 {
        self.as_estimator().estimate(values, ctx)
    }

    /// θ's state before its first value: a built-in's own, a UDF's the
    /// values.
    pub fn accumulator(&self) -> Accumulator {
        self.builtin().map_or(Accumulator::Values(Vec::new()), |a| a.accumulator())
    }

    /// θ of the values `acc`, this θ's [`Theta::accumulator`], took.
    pub fn finish(&self, acc: Accumulator, ctx: &SampleContext) -> f64 {
        match (self, acc) {
            (Theta::Udf(_), Accumulator::Values(xs)) => self.estimate(&xs, ctx),
            (theta, acc) => theta.builtin().map_or(f64::NAN, |a| a.finish(acc, ctx)),
        }
    }

    /// The built-in aggregate, when this θ is one.
    pub fn builtin(&self) -> Option<Aggregate> {
        match self {
            Theta::Builtin(a) => Some(*a),
            Theta::Udf(_) => None,
        }
    }

    /// Name for reports.
    pub fn name(&self) -> String {
        self.as_estimator().name()
    }
}

/// The three estimation techniques the paper evaluates, as one enum for
/// easy configuration/serialization.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum EstimationMethod {
    /// Nonparametric bootstrap with `k` Poissonized resamples.
    Bootstrap {
        /// Number of resamples K (the paper's default is 100).
        k: usize,
    },
    /// Closed-form CLT estimate (COUNT/SUM/AVG/VARIANCE/STDEV only).
    ClosedForm,
    /// Large-deviation bound with a precomputed range hint.
    LargeDeviation {
        /// Which inequality.
        inequality: Inequality,
        /// Precomputed population value range.
        range: RangeHint,
    },
}

impl EstimationMethod {
    /// Short name for reports.
    pub fn name(&self) -> String {
        match self {
            EstimationMethod::Bootstrap { k } => format!("bootstrap(k={k})"),
            EstimationMethod::ClosedForm => "closed-form".into(),
            EstimationMethod::LargeDeviation { inequality, .. } => {
                format!("large-deviation({inequality:?})")
            }
        }
    }

    /// Whether this procedure can produce intervals for `theta` at all.
    pub fn applicable(&self, theta: &Theta) -> bool {
        match self {
            // "All aggregates are amenable to the bootstrap" (§3).
            EstimationMethod::Bootstrap { .. } => true,
            EstimationMethod::ClosedForm => theta
                .builtin()
                .map(|a| a.closed_form_applicable())
                .unwrap_or(false),
            EstimationMethod::LargeDeviation { .. } => matches!(
                theta.builtin(),
                Some(Aggregate::Avg | Aggregate::Sum | Aggregate::Count)
            ),
        }
    }

    /// Estimate a symmetric centered CI at coverage `alpha`, or `None`
    /// when the procedure is not applicable or degenerate on this input.
    pub fn confidence_interval(
        &self,
        rng: &mut StdRng,
        values: &[f64],
        ctx: &SampleContext,
        theta: &Theta,
        alpha: f64,
    ) -> Option<Ci> {
        if !self.applicable(theta) {
            return None;
        }
        match self {
            EstimationMethod::Bootstrap { k } => {
                bootstrap_ci(rng, values, ctx, theta.as_estimator(), *k, alpha)
            }
            EstimationMethod::ClosedForm => {
                let agg = theta.builtin()?;
                closed_form_ci(&agg, values, ctx, alpha)
            }
            EstimationMethod::LargeDeviation { inequality, range } => {
                let agg = theta.builtin()?;
                large_deviation_ci(&agg, values, ctx, *range, *inequality, alpha)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::udfs;
    use crate::rng::rng_from_seed;

    #[test]
    fn applicability_matrix() {
        let boot = EstimationMethod::Bootstrap { k: 100 };
        let cf = EstimationMethod::ClosedForm;
        let ld = EstimationMethod::LargeDeviation {
            inequality: Inequality::Hoeffding,
            range: RangeHint::new(0.0, 1.0),
        };
        let cases: Vec<(Theta, bool, bool, bool)> = vec![
            (Theta::Builtin(Aggregate::Avg), true, true, true),
            (Theta::Builtin(Aggregate::Sum), true, true, true),
            (Theta::Builtin(Aggregate::Count), true, true, true),
            (Theta::Builtin(Aggregate::Variance), true, true, false),
            (Theta::Builtin(Aggregate::Min), true, false, false),
            (Theta::Builtin(Aggregate::Max), true, false, false),
            (Theta::Builtin(Aggregate::Percentile(0.9)), true, false, false),
            (Theta::Udf(Arc::new(udfs::geometric_mean())), true, false, false),
        ];
        for (theta, b, c, l) in &cases {
            assert_eq!(boot.applicable(theta), *b, "{} bootstrap", theta.name());
            assert_eq!(cf.applicable(theta), *c, "{} closed-form", theta.name());
            assert_eq!(ld.applicable(theta), *l, "{} large-dev", theta.name());
        }
    }

    #[test]
    fn bootstrap_and_closed_form_agree_on_avg() {
        // On well-behaved data the two estimates should be close (both
        // approximate the same sampling distribution).
        let mut rng = rng_from_seed(1);
        let values: Vec<f64> = (0..2000).map(|i| ((i * 37) % 100) as f64).collect();
        let ctx = SampleContext::new(2000, 1_000_000);
        let theta = Theta::Builtin(Aggregate::Avg);
        let boot = EstimationMethod::Bootstrap { k: 300 }
            .confidence_interval(&mut rng, &values, &ctx, &theta, 0.95)
            .unwrap();
        let cf = EstimationMethod::ClosedForm
            .confidence_interval(&mut rng, &values, &ctx, &theta, 0.95)
            .unwrap();
        let rel = (boot.half_width - cf.half_width).abs() / cf.half_width;
        assert!(rel < 0.25, "bootstrap {} vs closed-form {}", boot.half_width, cf.half_width);
    }

    #[test]
    fn inapplicable_returns_none() {
        let mut rng = rng_from_seed(2);
        let values = vec![1.0, 2.0, 3.0];
        let ctx = SampleContext::new(3, 3);
        let theta = Theta::Builtin(Aggregate::Max);
        assert!(EstimationMethod::ClosedForm
            .confidence_interval(&mut rng, &values, &ctx, &theta, 0.95)
            .is_none());
    }

    #[test]
    fn names_are_distinct() {
        let names = [
            EstimationMethod::Bootstrap { k: 100 }.name(),
            EstimationMethod::ClosedForm.name(),
            EstimationMethod::LargeDeviation {
                inequality: Inequality::Hoeffding,
                range: RangeHint::new(0.0, 1.0),
            }
            .name(),
        ];
        assert_eq!(names.iter().collect::<std::collections::HashSet<_>>().len(), 3);
    }
}
