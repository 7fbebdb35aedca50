//! Prepared query estimators θ at the execution level.
//!
//! Extends the stats-level estimators with the query shapes of QSet-2:
//! aggregate UDFs (resolved through the [`crate::udf::UdfRegistry`]) and
//! nested two-level aggregates (`AVG(s)` over `SUM(x) GROUP BY k`), both
//! evaluated either plainly or on a Poissonized resample encoded as
//! per-row weights.
//!
//! For nested aggregates, the resample happens at the level of *base
//! rows* (they are the sampling units): a resample re-weights each base
//! row, inner groups with zero total weight vanish from the resample, and
//! the outer aggregate runs over the surviving groups' inner values. The
//! outer aggregate is unscaled (AVG/MIN/MAX-like semantics); scaling an
//! outer SUM would require distinct-group-count estimation, which is out
//! of scope and rejected at preparation time.

use std::ops::Range;
use std::sync::Arc;

use aqp_sql::ast::{AggExpr, AggFunc};
use aqp_stats::bootstrap::bootstrap_ci_around;
use aqp_stats::ci::Ci;
use aqp_stats::closed_form::closed_form_ci;
use aqp_stats::estimator::{Aggregate, QueryEstimator, SampleContext, Udf};
use aqp_stats::rng::Rng;

use crate::collect::AggData;
use crate::udf::UdfRegistry;
use crate::{ExecError, Result};

/// A single-level aggregate: built-in or UDF.
#[derive(Debug, Clone)]
pub enum PlainTheta {
    /// A built-in SQL aggregate.
    Builtin(Aggregate),
    /// A registry-resolved aggregate UDF.
    Udf(Arc<Udf>),
}

impl PlainTheta {
    /// The stats-level estimator behind either variant.
    pub fn as_estimator(&self) -> &dyn QueryEstimator {
        match self {
            PlainTheta::Builtin(a) => a,
            PlainTheta::Udf(u) => &**u,
        }
    }

    /// Evaluate on plain values.
    pub fn estimate(&self, values: &[f64], ctx: &SampleContext) -> f64 {
        self.as_estimator().estimate(values, ctx)
    }

    /// The built-in aggregate, if this is one (for closed forms).
    pub fn builtin(&self) -> Option<Aggregate> {
        match self {
            PlainTheta::Builtin(a) => Some(*a),
            PlainTheta::Udf(_) => None,
        }
    }

    /// Name for reports.
    pub fn name(&self) -> String {
        self.as_estimator().name()
    }
}

/// Map a SQL aggregate function to the stats-level estimator.
pub fn builtin_of(func: &AggFunc) -> Option<Aggregate> {
    Some(match func {
        AggFunc::Avg => Aggregate::Avg,
        AggFunc::Sum => Aggregate::Sum,
        AggFunc::Count => Aggregate::Count,
        AggFunc::Min => Aggregate::Min,
        AggFunc::Max => Aggregate::Max,
        AggFunc::Variance => Aggregate::Variance,
        AggFunc::StdDev => Aggregate::StdDev,
        AggFunc::Percentile(q) => Aggregate::Percentile(*q),
        AggFunc::Udf(_) => return None,
    })
}

/// The inner aggregates supported in nested queries — the subset of
/// [`Aggregate`] with a per-group evaluation that is stable under
/// row-level resampling. The only constructor is fallible and private to
/// [`PreparedTheta::prepare`], so unsupported inner aggregates are
/// unrepresentable downstream (no `unreachable!` arms needed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InnerAggregate {
    /// Per-group scaled sum.
    Sum,
    /// Per-group scaled row count.
    Count,
    /// Per-group mean (scale-free).
    Avg,
    /// Per-group minimum.
    Min,
    /// Per-group maximum.
    Max,
}

impl InnerAggregate {
    /// The supported subset; `None` for Variance/StdDev/Percentile, whose
    /// per-group values are not resample-stable.
    fn from_builtin(a: Aggregate) -> Option<Self> {
        match a {
            Aggregate::Sum => Some(InnerAggregate::Sum),
            Aggregate::Count => Some(InnerAggregate::Count),
            Aggregate::Avg => Some(InnerAggregate::Avg),
            Aggregate::Min => Some(InnerAggregate::Min),
            Aggregate::Max => Some(InnerAggregate::Max),
            Aggregate::Variance | Aggregate::StdDev | Aggregate::Percentile(_) => None,
        }
    }
}

/// A fully-prepared θ for one SELECT aggregate.
#[derive(Debug, Clone)]
pub struct PreparedTheta {
    /// The top-level (or only) aggregate.
    pub outer: PlainTheta,
    /// For nested plans, the inner aggregate.
    pub inner: Option<InnerAggregate>,
}

impl PreparedTheta {
    /// Prepare from SQL aggregate expressions.
    pub fn prepare(
        outer: &AggExpr,
        inner: Option<&AggExpr>,
        registry: &UdfRegistry,
    ) -> Result<Self> {
        let outer_theta = match &outer.func {
            AggFunc::Udf(name) => PlainTheta::Udf(registry.resolve(name)?),
            f => PlainTheta::Builtin(builtin_of(f).expect("non-UDF maps to builtin")),
        };
        let inner_theta = match inner {
            None => None,
            Some(a) => {
                let b = builtin_of(&a.func).ok_or_else(|| {
                    ExecError::Unsupported("UDF as the inner aggregate of a nested query".into())
                })?;
                let b = InnerAggregate::from_builtin(b).ok_or_else(|| {
                    ExecError::Unsupported(format!(
                        "inner aggregate {} not supported in nested queries",
                        b.name()
                    ))
                })?;
                if matches!(outer_theta, PlainTheta::Builtin(Aggregate::Sum | Aggregate::Count)) {
                    return Err(ExecError::Unsupported(
                        "outer SUM/COUNT over a nested block needs group-count scaling, \
                         which is unsupported; use AVG/MIN/MAX/percentile"
                            .into(),
                    ));
                }
                Some(b)
            }
        };
        Ok(PreparedTheta { outer: outer_theta, inner: inner_theta })
    }

    /// Whether closed-form error estimation applies (single-level builtin
    /// with a known closed form, §2.3.2).
    pub fn closed_form_applicable(&self) -> bool {
        self.inner.is_none()
            && self.outer.builtin().map(|a| a.closed_form_applicable()).unwrap_or(false)
    }

    /// Point estimate over collected data (full range).
    pub fn estimate(&self, data: &AggData, ctx: &SampleContext) -> f64 {
        self.bind(data, 0..data.values.len(), ctx).estimate()
    }

    /// Bind θ to `range` of the collected data — the whole range for the
    /// answer, a borrowed sub-range for each diagnostic subsample. When
    /// both the plan and the data are nested, this is where the inner
    /// codes are renumbered for the range: once, for the point estimate
    /// and every replicate on it.
    pub fn bind<'a>(
        &'a self,
        data: &'a AggData,
        range: Range<usize>,
        ctx: &SampleContext,
    ) -> BoundTheta<'a> {
        let values = &data.values[range.clone()];
        let nested = self.inner.zip(data.nested.as_ref()).map(|(inner, nd)| {
            // Inner codes renumbered densely over the range, in code
            // order: surviving groups come out in the order a scan over
            // all the plan's codes would give, from accumulators the size
            // of the range.
            let codes = &nd.codes[range];
            // A range at least as long as the code space (the answer's whole
            // range) ranks its codes through a presence table, a shorter one
            // (a diagnostic subsample) sorts its own: O(len + n_codes)
            // against O(len log len), the same numbering.
            let long = codes.len() >= nd.n_codes && codes.iter().all(|&c| (c as usize) < nd.n_codes);
            let (groups, present): (Vec<usize>, usize) = if long {
                let mut rank = vec![0; nd.n_codes];
                codes.iter().for_each(|&c| rank[c as usize] = 1);
                let mut present = 0;
                rank.iter_mut().for_each(|r| present += std::mem::replace(r, present));
                (codes.iter().map(|&c| rank[c as usize]).collect(), present)
            } else {
                let mut distinct = codes.to_vec();
                distinct.sort_unstable();
                distinct.dedup();
                (codes.iter().map(|c| distinct.partition_point(|d| d < c)).collect(), distinct.len())
            };
            NestedTheta {
                values,
                groups,
                inner,
                outer: &self.outer,
                scale: ctx.scale(),
                acc: vec![0.0; present],
                weight: vec![0; present],
                group_values: Vec::with_capacity(present),
            }
        });
        BoundTheta { theta: self, values, ctx: *ctx, nested }
    }
}

/// A [`PreparedTheta`] bound to one row range ([`PreparedTheta::bind`]):
/// the point estimate, the closed form and the K replicates of one job
/// all run on it.
pub struct BoundTheta<'a> {
    theta: &'a PreparedTheta,
    values: &'a [f64],
    ctx: SampleContext,
    nested: Option<NestedTheta<'a>>,
}

impl BoundTheta<'_> {
    /// θ on the bound range.
    pub fn estimate(&mut self) -> f64 {
        match &mut self.nested {
            Some(nested) => nested.eval(None),
            None => self.theta.outer.estimate(self.values, &self.ctx),
        }
    }

    /// θ on a resample of the bound range, one weight per row.
    pub fn estimate_weighted(&mut self, weights: &[u32]) -> f64 {
        debug_assert_eq!(self.values.len(), weights.len());
        match &mut self.nested {
            Some(nested) => nested.eval(Some(weights)),
            None => self.theta.outer.as_estimator().estimate_weighted(self.values, weights, &self.ctx),
        }
    }
}

/// A nested θ prepared for one row range: built once per bootstrap job (or
/// point estimate), evaluated once per resample on buffers it keeps.
struct NestedTheta<'a> {
    values: &'a [f64],
    /// Dense inner group of each row.
    groups: Vec<usize>,
    inner: InnerAggregate,
    outer: &'a PlainTheta,
    scale: f64,
    acc: Vec<f64>,
    weight: Vec<u64>,
    group_values: Vec<f64>,
}

impl NestedTheta<'_> {
    /// The outer aggregate over the inner aggregate of every group present
    /// in the (optionally weighted) rows.
    fn eval(&mut self, weights: Option<&[u32]>) -> f64 {
        let inner = self.inner;
        self.acc.fill(match inner {
            InnerAggregate::Min => f64::INFINITY,
            InnerAggregate::Max => f64::NEG_INFINITY,
            _ => 0.0,
        });
        self.weight.fill(0);
        for (i, (&x, &g)) in self.values.iter().zip(&self.groups).enumerate() {
            let w = weights.map_or(1, |ws| ws[i]);
            if w == 0 {
                continue;
            }
            let acc = &mut self.acc[g];
            match inner {
                InnerAggregate::Sum | InnerAggregate::Avg => *acc += x * w as f64,
                InnerAggregate::Count => *acc += w as f64,
                InnerAggregate::Min => *acc = acc.min(x),
                InnerAggregate::Max => *acc = acc.max(x),
            }
            self.weight[g] += w as u64;
        }
        self.group_values.clear();
        let present = self.acc.iter().zip(&self.weight).filter(|&(_, &w)| w > 0);
        self.group_values.extend(present.map(|(&acc, &w)| match inner {
            InnerAggregate::Sum | InnerAggregate::Count => acc * self.scale,
            InnerAggregate::Avg => acc / w as f64,
            InnerAggregate::Min | InnerAggregate::Max => acc,
        }));
        let groups = SampleContext::population(self.group_values.len());
        self.outer.estimate(&self.group_values, &groups)
    }
}

/// Bootstrap CI of the bound θ around `center` — its own estimate on the
/// range, which every caller has already computed — from the stats-level
/// replicate loop.
pub fn bootstrap_ci_prepared(
    rng: &mut Rng,
    bound: &mut BoundTheta<'_>,
    center: f64,
    k: usize,
    alpha: f64,
) -> Option<Ci> {
    let rows = bound.values.len();
    match &mut bound.nested {
        Some(nested) => {
            let replicate = &mut |weights: &[u32]| nested.eval(Some(weights));
            bootstrap_ci_around(rng, center, rows, replicate, k, alpha)
        }
        None => {
            let mut replicate = bound.theta.outer.as_estimator().replicator(bound.values, &bound.ctx);
            bootstrap_ci_around(rng, center, rows, &mut *replicate, k, alpha)
        }
    }
}

/// Closed-form CI of the bound θ, or `None` when not applicable.
pub fn closed_form_ci_prepared(bound: &BoundTheta<'_>, alpha: f64) -> Option<Ci> {
    if !bound.theta.closed_form_applicable() {
        return None;
    }
    let agg = bound.theta.outer.builtin()?;
    closed_form_ci(&agg, bound.values, &bound.ctx, alpha)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collect::NestedData;
    use aqp_sql::ast::Expr as E;
    use aqp_stats::rng::rng_from_seed;

    fn agg(func: AggFunc) -> AggExpr {
        AggExpr { func, arg: Some(E::col("x")) }
    }

    fn reg() -> UdfRegistry {
        UdfRegistry::default()
    }

    #[test]
    fn prepare_builtin_and_udf() {
        let t = PreparedTheta::prepare(&agg(AggFunc::Avg), None, &reg()).unwrap();
        assert!(t.closed_form_applicable());
        let t = PreparedTheta::prepare(&agg(AggFunc::Udf("geo_mean".into())), None, &reg())
            .unwrap();
        assert!(!t.closed_form_applicable());
        assert!(PreparedTheta::prepare(&agg(AggFunc::Udf("nope".into())), None, &reg()).is_err());
    }

    #[test]
    fn nested_preparation_rules() {
        // AVG over SUM: fine.
        assert!(PreparedTheta::prepare(&agg(AggFunc::Avg), Some(&agg(AggFunc::Sum)), &reg())
            .is_ok());
        // SUM over SUM: needs group-count scaling, rejected.
        assert!(PreparedTheta::prepare(&agg(AggFunc::Sum), Some(&agg(AggFunc::Sum)), &reg())
            .is_err());
        // Inner percentile: rejected.
        assert!(PreparedTheta::prepare(
            &agg(AggFunc::Avg),
            Some(&agg(AggFunc::Percentile(0.5))),
            &reg()
        )
        .is_err());
        // Inner UDF: rejected.
        assert!(PreparedTheta::prepare(
            &agg(AggFunc::Avg),
            Some(&agg(AggFunc::Udf("geo_mean".into()))),
            &reg()
        )
        .is_err());
    }

    #[test]
    fn nested_estimate_matches_manual_computation() {
        // Rows: (code 0: 1, 2), (code 1: 3), (code 2: 4, 5).
        let data = AggData {
            values: vec![1.0, 2.0, 3.0, 4.0, 5.0],
            positions: Vec::new(),
            nested: Some(NestedData { codes: vec![0, 0, 1, 2, 2], n_codes: 3 }),
        };
        let ctx = SampleContext::population(5);
        let theta =
            PreparedTheta::prepare(&agg(AggFunc::Avg), Some(&agg(AggFunc::Sum)), &reg()).unwrap();
        // Inner sums: [3, 3, 9]; outer AVG = 5.
        assert!((theta.estimate(&data, &ctx) - 5.0).abs() < 1e-12);

        let theta =
            PreparedTheta::prepare(&agg(AggFunc::Max), Some(&agg(AggFunc::Avg)), &reg()).unwrap();
        // Inner avgs: [1.5, 3, 4.5]; outer MAX = 4.5.
        assert!((theta.estimate(&data, &ctx) - 4.5).abs() < 1e-12);
    }

    #[test]
    fn dense_numbering_is_the_sorts_on_whole_and_partial_ranges() {
        // 40 codes of which multiples of 3 never occur, 200 rows: ranges of
        // 40 rows or more take the presence table, shorter ones the sort.
        // Both number the codes present in the range densely, in code order.
        let codes: Vec<u32> = (0..200u32).map(|i| (i * 7 + i / 9) % 40).filter(|c| c % 3 != 0).collect();
        let rows = codes.len();
        let data = AggData {
            values: (0..rows).map(|i| i as f64).collect(),
            positions: Vec::new(),
            nested: Some(NestedData { codes: codes.clone(), n_codes: 40 }),
        };
        let theta =
            PreparedTheta::prepare(&agg(AggFunc::Avg), Some(&agg(AggFunc::Sum)), &reg()).unwrap();
        let ctx = SampleContext::population(rows);
        for range in [0..rows, 0..40, 13..53, 90..rows, 0..39, 5..6, 100..117, 7..7] {
            let mut distinct = codes[range.clone()].to_vec();
            distinct.sort_unstable();
            distinct.dedup();
            let want: Vec<usize> =
                codes[range.clone()].iter().map(|c| distinct.binary_search(c).unwrap()).collect();
            let nested = theta.bind(&data, range.clone(), &ctx).nested.unwrap();
            assert_eq!(nested.groups, want, "{range:?}");
            assert_eq!(nested.acc.len(), distinct.len(), "{range:?}");
        }
        // A code outside `0..n_codes` (hand-built data) keeps the sort.
        let wild = AggData { nested: Some(NestedData { codes: vec![9, 2, 9, 5], n_codes: 3 }), ..data.clone() };
        assert_eq!(theta.bind(&wild, 0..4, &ctx).nested.unwrap().groups, [2, 0, 2, 1]);
    }

    #[test]
    fn nested_weighted_drops_empty_groups() {
        let data = AggData {
            values: vec![1.0, 2.0, 3.0, 4.0, 5.0],
            positions: Vec::new(),
            nested: Some(NestedData { codes: vec![0, 0, 1, 2, 2], n_codes: 3 }),
        };
        let ctx = SampleContext::population(5);
        let theta =
            PreparedTheta::prepare(&agg(AggFunc::Avg), Some(&agg(AggFunc::Sum)), &reg()).unwrap();
        // Weights kill group 1 entirely: inner sums [1+2·2, —, 4] = [5, 4].
        let weights = [1u32, 2, 0, 1, 0];
        let v = theta.bind(&data, 0..5, &ctx).estimate_weighted(&weights);
        assert!((v - 4.5).abs() < 1e-12, "{v}");
    }

    #[test]
    fn nested_inner_sum_scales_with_sample_context() {
        let data = AggData {
            values: vec![10.0, 20.0],
            positions: Vec::new(),
            nested: Some(NestedData { codes: vec![0, 1], n_codes: 2 }),
        };
        // Sample of 2 rows from a population of 20: inner sums scale ×10.
        let ctx = SampleContext::new(2, 20);
        let theta =
            PreparedTheta::prepare(&agg(AggFunc::Avg), Some(&agg(AggFunc::Sum)), &reg()).unwrap();
        assert!((theta.estimate(&data, &ctx) - 150.0).abs() < 1e-12);
    }

    #[test]
    fn bootstrap_ci_on_nested_theta() {
        // 200 groups of 5 rows each.
        let mut values = Vec::new();
        let mut codes = Vec::new();
        for g in 0..200u32 {
            for j in 0..5 {
                values.push((g % 17) as f64 + j as f64 * 0.1);
                codes.push(g);
            }
        }
        let data = AggData { values, positions: Vec::new(), nested: Some(NestedData { codes, n_codes: 200 }) };
        let ctx = SampleContext::new(1000, 100_000);
        let theta =
            PreparedTheta::prepare(&agg(AggFunc::Avg), Some(&agg(AggFunc::Sum)), &reg()).unwrap();
        let mut rng = rng_from_seed(1);
        let mut bound = theta.bind(&data, 0..1000, &ctx);
        let direct = bound.estimate();
        assert_eq!(direct, theta.estimate(&data, &ctx));
        let ci = bootstrap_ci_prepared(&mut rng, &mut bound, direct, 100, 0.95).unwrap();
        assert!(ci.half_width > 0.0);
        assert_eq!(ci.center, direct);
    }

    #[test]
    fn closed_form_only_for_applicable() {
        let data = AggData { values: (0..100).map(|i| i as f64).collect(), positions: Vec::new(), nested: None };
        let ctx = SampleContext::new(100, 1000);
        let avg = PreparedTheta::prepare(&agg(AggFunc::Avg), None, &reg()).unwrap();
        assert!(closed_form_ci_prepared(&avg.bind(&data, 0..100, &ctx), 0.95).is_some());
        let max = PreparedTheta::prepare(&agg(AggFunc::Max), None, &reg()).unwrap();
        assert!(closed_form_ci_prepared(&max.bind(&data, 0..100, &ctx), 0.95).is_none());
    }
}
