//! Large-deviation-bound error estimation (§2.3.3).
//!
//! Hoeffding- and Bernstein-style bounds on the tails of the sampling
//! distribution. These require a precomputed "sensitivity" quantity — the
//! population value range `[a, b]` — and make a worst-case assumption
//! about outliers, so coverage never falls below α but intervals are
//! typically 1–2 orders of magnitude wider than the truth (Fig. 1).
//! Like closed forms, they only exist for mean-like aggregates.

use serde::{Deserialize, Serialize};

use crate::ci::Ci;
use crate::closed_form::closed_form;
use crate::estimator::{Aggregate, SampleContext};

/// The precomputed population value range the bounds need ("must be
/// precomputed for every θ and … requires difficult manual analysis").
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RangeHint {
    /// Smallest possible value of the aggregated expression over D.
    pub min: f64,
    /// Largest possible value.
    pub max: f64,
}

impl RangeHint {
    /// Construct a range hint; bounds given in the other order are swapped.
    pub fn new(min: f64, max: f64) -> Self {
        RangeHint { min: min.min(max), max: max.max(min) }
    }

    /// The width b − a.
    pub fn width(&self) -> f64 {
        self.max - self.min
    }

    /// The range of the per-sample-row contribution yᵢ = xᵢ·1(filter),
    /// which includes 0 whenever any row can be filtered out.
    pub fn including_zero(&self) -> RangeHint {
        RangeHint { min: self.min.min(0.0), max: self.max.max(0.0) }
    }
}

/// Hoeffding half-width for the mean of `m` iid observations bounded in
/// `range`, at confidence `alpha`:
/// `t = (b − a) · sqrt(ln(2/(1−α)) / (2m))` — not finite for `m = 0` or
/// an `alpha` outside \[0, 1), which [`large_deviation_ci`] refuses.
pub fn hoeffding_mean_half_width(range: RangeHint, m: usize, alpha: f64) -> f64 {
    let delta = 1.0 - alpha;
    range.width() * ((2.0 / delta).ln() / (2.0 * m as f64)).sqrt()
}

/// Bernstein half-width for the mean: uses an (empirical) variance proxy
/// so it tightens on low-variance data while retaining the worst-case
/// range term: `t = sqrt(2σ²ln(2/δ)/m) + (b−a)·ln(2/δ)/(3m)` (empirical
/// Bernstein form, Maurer & Pontil); not finite where Hoeffding's is not.
pub fn bernstein_mean_half_width(range: RangeHint, variance: f64, m: usize, alpha: f64) -> f64 {
    let delta = 1.0 - alpha;
    let l = (2.0 / delta).ln();
    (2.0 * variance.max(0.0) * l / m as f64).sqrt() + range.width() * l / (3.0 * m as f64)
}

/// Which large-deviation inequality to apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Inequality {
    /// Hoeffding's inequality (range only).
    Hoeffding,
    /// Empirical Bernstein (range + sample variance).
    Bernstein,
}

/// Large-deviation confidence interval for `agg` on `values` under `ctx`.
///
/// Applicable to AVG, SUM, COUNT (mean-type); returns `None` otherwise —
/// MIN/MAX/percentiles/UDFs have no bounded-differences formulation in
/// the systems the paper surveys (Aqua, OLA) — and for an `alpha` outside
/// \[0, 1).
pub fn large_deviation_ci(
    agg: &Aggregate,
    values: &[f64],
    ctx: &SampleContext,
    range: RangeHint,
    ineq: Inequality,
    alpha: f64,
) -> Option<Ci> {
    let n = ctx.sample_rows;
    if n == 0 || !(0.0..1.0).contains(&alpha) {
        return None;
    }
    // θ and the variance a Bernstein bound needs, from the closed form's
    // one pass.
    let pass = closed_form(agg, values, ctx)?;
    let hw_mean = |range: RangeHint, m: usize| match ineq {
        Inequality::Hoeffding => hoeffding_mean_half_width(range, m, alpha),
        Inequality::Bernstein => bernstein_mean_half_width(range, pass.variance, m, alpha),
    };
    let hw = match agg {
        Aggregate::Avg => {
            if values.is_empty() {
                return None;
            }
            hw_mean(range, values.len())
        }
        // Estimator is N · mean(y); y ranges over range ∪ {0}.
        Aggregate::Sum => ctx.population_rows as f64 * hw_mean(range.including_zero(), n),
        // Estimator is N · mean(1(pass)); indicator ranges over [0,1].
        Aggregate::Count => ctx.population_rows as f64 * hw_mean(RangeHint::new(0.0, 1.0), n),
        _ => return None,
    };
    if pass.estimate.is_nan() {
        return None;
    }
    Some(Ci::new(pass.estimate, hw, alpha))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::closed_form::closed_form_ci;
    use crate::dist::sample_normal;
    use crate::rng::rng_from_seed;

    #[test]
    fn hoeffding_shrinks_with_m_like_inverse_sqrt() {
        let r = RangeHint::new(0.0, 1.0);
        let h100 = hoeffding_mean_half_width(r, 100, 0.95);
        let h10000 = hoeffding_mean_half_width(r, 10_000, 0.95);
        assert!((h100 / h10000 - 10.0).abs() < 1e-9);
    }

    #[test]
    fn hoeffding_much_wider_than_clt_on_well_behaved_data() {
        // Fig. 1's headline: Hoeffding needs samples 1–2 orders of magnitude
        // larger, i.e. its intervals are ~an order of magnitude wider at
        // fixed n when the data's spread is far from the worst case.
        let mut rng = rng_from_seed(1);
        let n = 10_000;
        let values: Vec<f64> = (0..n)
            .map(|_| sample_normal(&mut rng, 500.0, 10.0).clamp(0.0, 1000.0))
            .collect();
        let ctx = SampleContext::new(n, 1_000_000);
        let range = RangeHint::new(0.0, 1000.0);
        let hoeff =
            large_deviation_ci(&Aggregate::Avg, &values, &ctx, range, Inequality::Hoeffding, 0.95)
                .unwrap();
        let clt = closed_form_ci(&Aggregate::Avg, &values, &ctx, 0.95).unwrap();
        assert!(
            hoeff.half_width > 5.0 * clt.half_width,
            "hoeffding {} vs clt {}",
            hoeff.half_width,
            clt.half_width
        );
    }

    #[test]
    fn bernstein_tighter_than_hoeffding_on_low_variance() {
        let r = RangeHint::new(0.0, 1000.0);
        let bern = bernstein_mean_half_width(r, 100.0, 10_000, 0.95); // σ=10
        let hoeff = hoeffding_mean_half_width(r, 10_000, 0.95);
        assert!(bern < hoeff, "bernstein {bern} vs hoeffding {hoeff}");
    }

    #[test]
    fn coverage_is_conservative() {
        // Hoeffding 95% intervals should cover the true mean essentially
        // always (coverage ≫ 95%), demonstrating §2.3.3's conservatism.
        let mut covered = 0;
        let runs = 200;
        for run in 0..runs {
            let mut rng = rng_from_seed(2000 + run);
            let n = 200;
            let values: Vec<f64> = (0..n)
                .map(|_| sample_normal(&mut rng, 0.5, 0.1).clamp(0.0, 1.0))
                .collect();
            let ctx = SampleContext::new(n, 100_000);
            let ci = large_deviation_ci(
                &Aggregate::Avg,
                &values,
                &ctx,
                RangeHint::new(0.0, 1.0),
                Inequality::Hoeffding,
                0.95,
            )
            .unwrap();
            if ci.contains(0.5) {
                covered += 1;
            }
        }
        assert_eq!(covered, runs, "Hoeffding missed the mean {}/{runs}", runs - covered);
    }

    #[test]
    fn sum_and_count_scale_with_population() {
        let values = vec![1.0; 500];
        let ctx = SampleContext::new(1000, 1_000_000);
        let r = RangeHint::new(0.0, 2.0);
        let sum_ci =
            large_deviation_ci(&Aggregate::Sum, &values, &ctx, r, Inequality::Hoeffding, 0.95)
                .unwrap();
        let count_ci =
            large_deviation_ci(&Aggregate::Count, &values, &ctx, r, Inequality::Hoeffding, 0.95)
                .unwrap();
        assert!(sum_ci.half_width > 0.0 && count_ci.half_width > 0.0);
        // Doubling the population doubles both half-widths.
        let ctx2 = SampleContext::new(1000, 2_000_000);
        let sum_ci2 =
            large_deviation_ci(&Aggregate::Sum, &values, &ctx2, r, Inequality::Hoeffding, 0.95)
                .unwrap();
        assert!((sum_ci2.half_width / sum_ci.half_width - 2.0).abs() < 1e-9);
    }

    #[test]
    fn inapplicable_aggregates_return_none() {
        let values = vec![1.0, 2.0];
        let ctx = SampleContext::new(2, 10);
        let r = RangeHint::new(0.0, 10.0);
        for agg in [Aggregate::Min, Aggregate::Max, Aggregate::Percentile(0.9), Aggregate::Variance]
        {
            assert!(
                large_deviation_ci(&agg, &values, &ctx, r, Inequality::Hoeffding, 0.95).is_none(),
                "{agg} should have no large-deviation bound"
            );
        }
    }

    #[test]
    fn inverted_hints_are_swapped_and_hostile_alpha_is_refused() {
        let r = RangeHint::new(1.0, 0.0);
        assert_eq!((r.min, r.max), (0.0, 1.0));
        let ctx = SampleContext::new(4, 100);
        for alpha in [1.0, 1.5, -0.1, f64::NAN] {
            let ci = large_deviation_ci(&Aggregate::Avg, &[1.0, 2.0], &ctx, r, Inequality::Hoeffding, alpha);
            assert_eq!(ci, None, "{alpha}");
        }
    }
}
