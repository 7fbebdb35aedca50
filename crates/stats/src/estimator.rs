//! Query aggregates θ as pluggable estimators.
//!
//! §2.1: "Let θ be the query we would like to compute on a dataset D".
//! Every estimator evaluates in two modes:
//!
//! * [`QueryEstimator::estimate`] — plain evaluation on a values vector
//!   (the sample estimate θ(S), or the ground truth θ(D) when handed the
//!   full data), and
//! * [`QueryEstimator::estimate_weighted`] — evaluation on a Poissonized
//!   resample encoded as per-row integer weights (§5.1/§5.3.1), which the
//!   bootstrap and diagnostic operators call once per resample.
//!
//! The values vector holds the aggregation input *after* filters (operator
//! pushdown, §5.3.2, makes this statistically sound: independent
//! Poisson(1) weights commute with filtering). [`SampleContext`] carries
//! the pre-filter sample size and the population size so that SUM/COUNT
//! estimates can be scaled to the full data (footnote 3 of the paper).

use std::fmt;
use std::sync::Arc;

use crate::moments::WeightedMoments;
use crate::quantile::{argsort, quantile_mut, weighted_quantile, weighted_quantile_ordered};

/// Sizing context for scaling sample estimates up to the population.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampleContext {
    /// Rows of the sample S *before* any filtering.
    pub sample_rows: usize,
    /// Rows of the full dataset D.
    pub population_rows: usize,
}

impl SampleContext {
    /// Context for evaluating directly on the population (scale 1).
    pub fn population(rows: usize) -> Self {
        SampleContext { sample_rows: rows, population_rows: rows }
    }

    /// Context for a sample of `sample_rows` from `population_rows`.
    pub fn new(sample_rows: usize, population_rows: usize) -> Self {
        SampleContext { sample_rows, population_rows }
    }

    /// `|D| / |S|` — the factor unbiasing SUM/COUNT estimates.
    pub fn scale(&self) -> f64 {
        if self.sample_rows == 0 {
            0.0
        } else {
            self.population_rows as f64 / self.sample_rows as f64
        }
    }
}

/// A θ's running state over one group's values, taken one at a time in
/// order ([`Accumulator::fold`]). [`Aggregate::estimate`](QueryEstimator::estimate)
/// runs a slice through it, and the exact path every group's values as the
/// scan reaches them through [`Accumulators`], so the two agree bit for bit.
/// VARIANCE and STDDEV fold the values twice, the second time centred on
/// the first's mean ([`Accumulator::centred`]).
#[derive(Debug, Clone)]
pub enum Accumulator {
    /// AVG, SUM, COUNT: Σx from −0.0 (`Sum for f64`'s identity, so an empty
    /// or all-NULL group keeps its −0) and the count.
    Sum((f64, u64)),
    /// VARIANCE, STDDEV, their first fold: the run's first value k, Σ(x − k)
    /// from 0.0 and the count. No divide per value; [`Accumulator::centred`]
    /// turns it into the second fold, which takes the same values again.
    Shifted((f64, f64, f64)),
    /// VARIANCE, STDDEV, their second fold: the mean k + Σ(x − k)/m, m2 =
    /// Σ(x − mean)² from 0.0 and the count. A constant run is exactly 0,
    /// however large its values.
    Centred((f64, f64, f64)),
    /// MIN, from +∞.
    Min(f64),
    /// MAX, from −∞.
    Max(f64),
    /// PERCENTILE and UDFs: the values themselves.
    Values(Vec<f64>),
}

impl Accumulator {
    /// Take every value of `values`, in order. θ is matched once for the
    /// run, whose state so stays in registers.
    #[inline]
    pub fn fold(&mut self, values: impl Iterator<Item = f64>) {
        match self {
            Accumulator::Sum(acc) => *acc = values.fold(*acc, add),
            Accumulator::Shifted(acc) => *acc = shift_run(*acc, values),
            Accumulator::Centred(acc) => *acc = values.fold(*acc, square),
            Accumulator::Min(m) => *m = values.fold(*m, f64::min),
            Accumulator::Max(m) => *m = values.fold(*m, f64::max),
            Accumulator::Values(xs) => xs.extend(values),
        }
    }

    /// The state θ's second fold over the same values starts from, where θ
    /// folds them twice (VARIANCE, STDDEV): centred on the first's mean.
    pub fn centred(&self) -> Option<Accumulator> {
        match *self {
            Accumulator::Shifted(acc) => Some(Accumulator::Centred(centre(acc))),
            _ => None,
        }
    }
}

/// One θ's [`Accumulator`] for every group of a scan, as one typed array
/// with group `g`'s state at `g`: a run of `(g, x)` takes each value into
/// its group's state in order ([`Accumulators::fold`]), θ matched once per
/// run and never per value.
#[derive(Debug, Clone)]
pub enum Accumulators {
    /// [`Accumulator::Sum`] per group.
    Sum(Vec<(f64, u64)>),
    /// [`Accumulator::Shifted`] per group.
    Shifted(Vec<(f64, f64, f64)>),
    /// [`Accumulator::Centred`] per group.
    Centred(Vec<(f64, f64, f64)>),
    /// [`Accumulator::Min`] per group.
    Min(Vec<f64>),
    /// [`Accumulator::Max`] per group.
    Max(Vec<f64>),
    /// [`Accumulator::Values`] per group.
    Values(Vec<Vec<f64>>),
}

impl Accumulators {
    /// `groups` groups, each in the state `start` (θ's before its first
    /// value).
    pub fn new(start: Accumulator, groups: usize) -> Self {
        match start {
            Accumulator::Sum(acc) => Accumulators::Sum(vec![acc; groups]),
            Accumulator::Shifted(acc) => Accumulators::Shifted(vec![acc; groups]),
            Accumulator::Centred(acc) => Accumulators::Centred(vec![acc; groups]),
            Accumulator::Min(m) => Accumulators::Min(vec![m; groups]),
            Accumulator::Max(m) => Accumulators::Max(vec![m; groups]),
            Accumulator::Values(xs) => Accumulators::Values(vec![xs; groups]),
        }
    }

    /// Take the value of every `(g, x)` of `entries` into group `g`'s
    /// state, in order. A lone group's state is held in locals meanwhile.
    #[inline]
    pub fn fold(&mut self, entries: impl Iterator<Item = (usize, f64)>) {
        match self {
            Accumulators::Sum(accs) if accs.len() == 1 => accs[0] = entries.fold(accs[0], |acc, (_, x)| add(acc, x)),
            Accumulators::Shifted(accs) if accs.len() == 1 => accs[0] = shift_run(accs[0], entries.map(|(_, x)| x)),
            Accumulators::Centred(accs) if accs.len() == 1 => {
                accs[0] = entries.fold(accs[0], |acc, (_, x)| square(acc, x));
            }
            Accumulators::Min(ms) if ms.len() == 1 => ms[0] = entries.fold(ms[0], |m, (_, x)| m.min(x)),
            Accumulators::Max(ms) if ms.len() == 1 => ms[0] = entries.fold(ms[0], |m, (_, x)| m.max(x)),
            Accumulators::Sum(accs) => entries.for_each(|(g, x)| accs[g] = add(accs[g], x)),
            Accumulators::Shifted(accs) => entries.for_each(|(g, x)| accs[g] = shift(accs[g], x)),
            Accumulators::Centred(accs) => entries.for_each(|(g, x)| accs[g] = square(accs[g], x)),
            Accumulators::Min(ms) => entries.for_each(|(g, x)| ms[g] = ms[g].min(x)),
            Accumulators::Max(ms) => entries.for_each(|(g, x)| ms[g] = ms[g].max(x)),
            Accumulators::Values(xs) => entries.for_each(|(g, x)| xs[g].push(x)),
        }
    }

    /// `COUNT(*)`'s rows: one row with no value into each group of
    /// `groups`. COUNT reads the count of its `Sum` alone, so Σx is left
    /// as it is; any other θ takes the value 1.0.
    #[inline]
    pub fn count(&mut self, groups: impl Iterator<Item = usize>) {
        match self {
            Accumulators::Sum(accs) if accs.len() == 1 => accs[0].1 += groups.count() as u64,
            Accumulators::Sum(accs) => groups.for_each(|g| accs[g].1 += 1),
            accs => accs.fold(groups.map(|g| (g, 1.0))),
        }
    }

    /// Every group's state centred for θ's second fold over the same
    /// values, where θ folds them twice ([`Accumulator::centred`]), and
    /// whether it does.
    pub fn centre(&mut self) -> bool {
        let Accumulators::Shifted(accs) = self else { return false };
        let accs = std::mem::take(accs).into_iter().map(centre).collect();
        *self = Accumulators::Centred(accs);
        true
    }

    /// Every group's state, in group order.
    pub fn into_states(self) -> Vec<Accumulator> {
        match self {
            Accumulators::Sum(accs) => accs.into_iter().map(Accumulator::Sum).collect(),
            Accumulators::Shifted(accs) => accs.into_iter().map(Accumulator::Shifted).collect(),
            Accumulators::Centred(accs) => accs.into_iter().map(Accumulator::Centred).collect(),
            Accumulators::Min(ms) => ms.into_iter().map(Accumulator::Min).collect(),
            Accumulators::Max(ms) => ms.into_iter().map(Accumulator::Max).collect(),
            Accumulators::Values(xs) => xs.into_iter().map(Accumulator::Values).collect(),
        }
    }
}

/// Σx and the count, one value on.
fn add((sum, n): (f64, u64), x: f64) -> (f64, u64) {
    (sum + x, n + 1)
}

/// The first fold, one value on: the first value is k (the count is 0
/// until it comes), and x − k of every value is added up.
fn shift((k, sum, n): (f64, f64, f64), x: f64) -> (f64, f64, f64) {
    let k = if n == 0.0 { x } else { k };
    (k, sum + (x - k), n + 1.0)
}

/// [`shift`] over a run of one group's values: k is fixed before the
/// loop, which so has no select in it.
fn shift_run(acc: (f64, f64, f64), mut values: impl Iterator<Item = f64>) -> (f64, f64, f64) {
    let (mut k, mut sum, mut n) = acc;
    if n == 0.0 {
        let Some(x) = values.next() else { return acc };
        (k, sum, n) = shift(acc, x);
    }
    let (sum, n) = values.fold((sum, n), |(sum, n), x| (sum + (x - k), n + 1.0));
    (k, sum, n)
}

/// VARIANCE's and STDDEV's first fold over `values`: the mean their
/// second fold is centred on, and the count.
pub(crate) fn first_fold_mean(values: &[f64]) -> (f64, f64) {
    let (mean, _, m) = centre(shift_run((0.0, 0.0, 0.0), values.iter().copied()));
    (mean, m)
}

/// The first fold's mean, k + Σ(x − k)/m, with m2 0 and the count.
fn centre((k, sum, n): (f64, f64, f64)) -> (f64, f64, f64) {
    (k + sum / n, 0.0, n)
}

/// The second fold, one value on: (x − mean)² is added to m2.
fn square((mean, m2, n): (f64, f64, f64), x: f64) -> (f64, f64, f64) {
    let d = x - mean;
    (mean, m2 + d * d, n)
}

/// `x`, or `f64::NAN` for any NaN. Which NaN an operation on two NaNs
/// returns is the compiler's choice (an addition may keep either
/// operand's), so θ answers one NaN whichever code computed it.
pub fn one_nan(x: f64) -> f64 {
    // The test reads `x` through `black_box`: a compiler that sees it test
    // the value it returns drops the test, any NaN being as good as another.
    if std::hint::black_box(x).is_nan() { f64::NAN } else { x }
}

/// θ prepared for one bootstrap job (see [`QueryEstimator::replicator`]):
/// called once per resample with that resample's weights.
pub type Replicator<'a> = Box<dyn FnMut(&[u32]) -> f64 + 'a>;

/// A query aggregate θ.
pub trait QueryEstimator: Send + Sync {
    /// Human-readable name (plan printing, reports).
    fn name(&self) -> String;

    /// Point estimate on a plain values vector.
    fn estimate(&self, values: &[f64], ctx: &SampleContext) -> f64;

    /// Point estimate on the Poissonized resample where row `i` appears
    /// `weights[i]` times. Must be semantically identical to expanding the
    /// multiset and calling [`Self::estimate`] (with `ctx.sample_rows`
    /// reinterpreted as the resample's nominal size, which stays the
    /// original sample size under Poissonization).
    fn estimate_weighted(&self, values: &[f64], weights: &[u32], ctx: &SampleContext) -> f64;

    /// [`Self::estimate_weighted`] prepared for the K resamples of one
    /// bootstrap job over `values`: whatever depends on the values alone
    /// (an argsort, a scratch buffer) is built here, once, and every call
    /// of the result returns exactly what `estimate_weighted` would.
    fn replicator<'a>(&'a self, values: &'a [f64], ctx: &'a SampleContext) -> Replicator<'a> {
        Box::new(move |weights| self.estimate_weighted(values, weights, ctx))
    }
}

/// The built-in SQL aggregates.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum Aggregate {
    /// Arithmetic mean of the aggregated expression.
    Avg,
    /// Sum, scaled by `|D|/|S|` to estimate the population sum.
    Sum,
    /// Count of rows passing the filters, scaled by `|D|/|S|`.
    Count,
    /// Sample variance of the aggregated expression.
    Variance,
    /// Sample standard deviation.
    StdDev,
    /// Minimum (no closed form; extreme outlier sensitivity).
    Min,
    /// Maximum (no closed form; extreme outlier sensitivity).
    Max,
    /// The `q`-percentile, `q` in (0,1) (bootstrap-only).
    Percentile(
        /// Quantile level in (0, 1).
        f64,
    ),
}

impl Aggregate {
    /// θ's state before its first value.
    pub fn accumulator(&self) -> Accumulator {
        match self {
            Aggregate::Avg | Aggregate::Sum | Aggregate::Count => Accumulator::Sum((-0.0, 0)),
            Aggregate::Variance | Aggregate::StdDev => Accumulator::Shifted((0.0, 0.0, 0.0)),
            Aggregate::Min => Accumulator::Min(f64::INFINITY),
            Aggregate::Max => Accumulator::Max(f64::NEG_INFINITY),
            Aggregate::Percentile(_) => Accumulator::Values(Vec::new()),
        }
    }

    /// θ of the values `acc`, this θ's [`Aggregate::accumulator`], took.
    pub fn finish(&self, acc: Accumulator, ctx: &SampleContext) -> f64 {
        one_nan(match (self, acc) {
            (Aggregate::Avg, Accumulator::Sum((sum, n))) => if n == 0 { f64::NAN } else { sum / n as f64 },
            (Aggregate::Sum, Accumulator::Sum((sum, _))) => sum * ctx.scale(),
            (Aggregate::Count, Accumulator::Sum((_, n))) => n as f64 * ctx.scale(),
            (_, Accumulator::Centred((_, _, n))) if n < 2.0 => f64::NAN,
            (Aggregate::StdDev, Accumulator::Centred((_, m2, n))) => (m2 / (n - 1.0)).sqrt(),
            (_, Accumulator::Centred((_, m2, n))) => m2 / (n - 1.0),
            (_, Accumulator::Min(m) | Accumulator::Max(m)) => m,
            (Aggregate::Percentile(q), Accumulator::Values(mut xs)) => quantile_mut(&mut xs, *q).unwrap_or(f64::NAN),
            // Another θ's accumulator.
            _ => f64::NAN,
        })
    }

    /// Whether a closed-form CLT variance estimate exists for this θ
    /// (§2.3.2: COUNT, SUM, AVG, VARIANCE, STDEV — not MIN/MAX/UDFs).
    pub fn closed_form_applicable(&self) -> bool {
        matches!(self, Aggregate::Avg | Aggregate::Sum | Aggregate::Count | Aggregate::Variance | Aggregate::StdDev)
    }
}

impl fmt::Display for Aggregate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Aggregate::Avg => write!(f, "AVG"),
            Aggregate::Sum => write!(f, "SUM"),
            Aggregate::Count => write!(f, "COUNT"),
            Aggregate::Variance => write!(f, "VARIANCE"),
            Aggregate::StdDev => write!(f, "STDDEV"),
            Aggregate::Min => write!(f, "MIN"),
            Aggregate::Max => write!(f, "MAX"),
            Aggregate::Percentile(q) => write!(f, "PERCENTILE({q})"),
        }
    }
}

impl QueryEstimator for Aggregate {
    fn name(&self) -> String {
        self.to_string()
    }

    fn estimate(&self, values: &[f64], ctx: &SampleContext) -> f64 {
        let mut acc = self.accumulator();
        acc.fold(values.iter().copied());
        if let Some(centred) = acc.centred() {
            acc = centred;
            acc.fold(values.iter().copied());
        }
        self.finish(acc, ctx)
    }

    fn estimate_weighted(&self, values: &[f64], weights: &[u32], ctx: &SampleContext) -> f64 {
        debug_assert_eq!(values.len(), weights.len());
        match self {
            Aggregate::Avg => {
                let mut m = WeightedMoments::new();
                for (&x, &w) in values.iter().zip(weights) {
                    m.push(x, w);
                }
                m.mean()
            }
            // SUM and COUNT use the *size-centered* Poissonized statistic:
            //
            //   S* = (Σ wᵢyᵢ − c·(Σ wᵢ − m)) · N/n,   c = Σyᵢ / n
            //
            // A raw Poissonized Σwy carries the resample-size variance
            // (Var Σw = m), overdispersing SUM/COUNT intervals by
            // E[y²]/Var(y) — negligible for selective filters but severe
            // as selectivity → 1. Subtracting the centered size term
            // reproduces the true sampling variance n·Var(y) to first
            // order (the exact-n bootstrap's behavior) while keeping the
            // statistic streamable and embarrassingly parallel (§5.1).
            Aggregate::Sum => {
                let m = values.len() as f64;
                let n = ctx.sample_rows as f64;
                let mut swy = 0.0f64;
                let mut sw = 0.0f64;
                let mut sum_y = 0.0f64;
                for (&x, &w) in values.iter().zip(weights) {
                    swy += x * w as f64;
                    sw += w as f64;
                    sum_y += x;
                }
                let c = if n > 0.0 { sum_y / n } else { 0.0 };
                (swy - c * (sw - m)) * ctx.scale()
            }
            Aggregate::Count => {
                let m = values.len() as f64;
                let n = ctx.sample_rows as f64;
                let sw: f64 = weights.iter().map(|&w| w as f64).sum();
                let c = if n > 0.0 { m / n } else { 0.0 };
                (sw - c * (sw - m)) * ctx.scale()
            }
            Aggregate::Variance => {
                let mut m = WeightedMoments::new();
                for (&x, &w) in values.iter().zip(weights) {
                    m.push(x, w);
                }
                m.variance_sample()
            }
            Aggregate::StdDev => {
                let mut m = WeightedMoments::new();
                for (&x, &w) in values.iter().zip(weights) {
                    m.push(x, w);
                }
                m.variance_sample().sqrt()
            }
            Aggregate::Min => values
                .iter()
                .zip(weights)
                .filter(|&(_, &w)| w > 0)
                .map(|(&x, _)| x)
                .fold(f64::INFINITY, f64::min),
            Aggregate::Max => values
                .iter()
                .zip(weights)
                .filter(|&(_, &w)| w > 0)
                .map(|(&x, _)| x)
                .fold(f64::NEG_INFINITY, f64::max),
            Aggregate::Percentile(q) => {
                weighted_quantile(values, weights, *q).unwrap_or(f64::NAN)
            }
        }
    }

    fn replicator<'a>(&'a self, values: &'a [f64], ctx: &'a SampleContext) -> Replicator<'a> {
        match *self {
            // One sort per job; each resample walks the order.
            Aggregate::Percentile(q) => {
                let order = argsort(values);
                Box::new(move |weights| {
                    weighted_quantile_ordered(values, weights, &order, q).unwrap_or(f64::NAN)
                })
            }
            // The moment and extreme aggregates stream and keep no state.
            _ => Box::new(move |weights| self.estimate_weighted(values, weights, ctx)),
        }
    }
}

/// The boxed function type a [`Udf`] wraps.
pub type UdfFn = Arc<dyn Fn(&[f64]) -> f64 + Send + Sync>;

/// The weighted form of a [`Udf`] ([`Udf::with_weighted`]).
pub type WeightedUdfFn = Arc<dyn for<'a> Fn(&'a [f64]) -> Replicator<'a> + Send + Sync>;

/// A user-defined aggregate over the values vector (§2.3.2: "black-box
/// user defined functions (UDFs)" have no closed form; only the bootstrap
/// applies).
///
/// The function is the definition: θ(S), every subsample's θ̂ and the
/// exact path call it. A resample is evaluated in one of two ways, chosen
/// by what the UDF supplies. A bare closure is opaque, so each resample is
/// expanded ([`Udf::expand`]) into a buffer and the function called on
/// it. A UDF that also has a *weighted form* accepts the weight column the
/// way the built-in aggregates do (§5.3.1) and never sees a duplicated
/// tuple; every stock UDF ([`udfs`]) has one.
#[derive(Clone)]
pub struct Udf {
    name: String,
    f: UdfFn,
    weighted: Option<WeightedUdfFn>,
}

impl Udf {
    /// Wrap a function of the (filtered) values vector as a UDF aggregate.
    pub fn new(name: impl Into<String>, f: impl Fn(&[f64]) -> f64 + Send + Sync + 'static) -> Self {
        Udf { name: name.into(), f: Arc::new(f), weighted: None }
    }

    /// Supply the weighted form. `prepare` is called once per bootstrap
    /// job with the job's values (the answer's, or one diagnostic
    /// subsample's) and does there whatever depends on the values alone;
    /// the [`Replicator`] it returns is called once per resample with
    /// that resample's weights and must return what the function returns
    /// on [`Udf::expand`] of them, up to floating-point rounding — weights
    /// beyond the values, or values beyond the weights, count as absent.
    pub fn with_weighted(
        mut self,
        prepare: impl for<'a> Fn(&'a [f64]) -> Replicator<'a> + Send + Sync + 'static,
    ) -> Self {
        self.weighted = Some(Arc::new(prepare));
        self
    }

    /// Whether resamples are evaluated on weights ([`Udf::with_weighted`])
    /// and not on an expansion.
    pub fn has_weighted_form(&self) -> bool {
        self.weighted.is_some()
    }

    /// The multiset expansion a weighted evaluation stands for: `values[i]`
    /// repeated `weights[i]` times, in row order. The engine does not call
    /// this (an opaque UDF's bootstrap job expands into one reused buffer,
    /// see [`QueryEstimator::replicator`]; a weighted one expands
    /// nothing); it is the definition that the contract tests (the
    /// `weighted_forms` tests here, `tests/properties.rs`'s reference
    /// bootstrap) compare against.
    pub fn expand(values: &[f64], weights: &[u32]) -> Vec<f64> {
        let total: usize = weights.iter().map(|&w| w as usize).sum();
        let mut out = Vec::with_capacity(total);
        for (&x, &w) in values.iter().zip(weights) {
            for _ in 0..w {
                out.push(x);
            }
        }
        out
    }
}

impl fmt::Debug for Udf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Udf({})", self.name)
    }
}

impl QueryEstimator for Udf {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn estimate(&self, values: &[f64], _ctx: &SampleContext) -> f64 {
        (self.f)(values)
    }

    fn estimate_weighted(&self, values: &[f64], weights: &[u32], ctx: &SampleContext) -> f64 {
        self.replicator(values, ctx)(weights)
    }

    /// The weighted form prepared for `values` where the UDF has one.
    /// Otherwise every resample is expanded into one buffer that lives as
    /// long as the job, in [`Udf::expand`]'s order, and the function
    /// called on it.
    fn replicator<'a>(&'a self, values: &'a [f64], _ctx: &'a SampleContext) -> Replicator<'a> {
        if let Some(prepare) = &self.weighted {
            return prepare(values);
        }
        let mut expanded = Vec::new();
        Box::new(move |weights| {
            let weights = &weights[..weights.len().min(values.len())];
            let total: usize = weights.iter().map(|&w| w as usize).sum();
            if expanded.len() < total + 2 {
                expanded.resize(total + 2, 0.0);
            }
            let mut at = 0;
            for (&x, &w) in values.iter().zip(weights) {
                // A loop of w stores mispredicts on almost every row. Two
                // stores that the next row overwrites where w < 2 cover
                // 92 % of Poisson(1) draws with no branch on w at all.
                expanded[at] = x;
                expanded[at + 1] = x;
                if w > 2 {
                    expanded[at + 2..at + w as usize].fill(x);
                }
                at += w as usize;
            }
            (self.f)(&expanded[..total])
        })
    }
}

/// Library of UDFs characteristic of the Conviva workload (§3: 42.07% of
/// Conviva queries contain at least one UDF). These exercise different
/// smoothness regimes. Each carries a weighted form ([`Udf::with_weighted`])
/// that computes the same estimator on (value, weight) pairs.
pub mod udfs {
    use super::{Replicator, Udf};
    use crate::quantile::{quantile, quantile_mut, weighted_sum, SortedJob};

    /// Trimmed mean over the central `(lo, hi)` quantile band — smooth,
    /// bootstrap-friendly.
    pub fn trimmed_mean(lo: f64, hi: f64) -> Udf {
        Udf::new(format!("trimmed_mean({lo},{hi})"), move |xs| {
            if xs.is_empty() {
                return f64::NAN;
            }
            // Both band edges from one copy of the values.
            let mut copy = xs.to_vec();
            let (Some(a), Some(b)) = (quantile_mut(&mut copy, lo), quantile_mut(&mut copy, hi))
            else {
                return f64::NAN;
            };
            let mut sum = 0.0;
            let mut n = 0usize;
            for &x in xs {
                if x >= a && x <= b {
                    sum += x;
                    n += 1;
                }
            }
            if n == 0 {
                f64::NAN
            } else {
                sum / n as f64
            }
        })
        .with_weighted(move |xs| band_mean_job(xs, lo, Some(hi)))
    }

    /// The weighted form of a mean over the band from the resample's
    /// `lo`-quantile up to its `hi`-quantile, or up to everything: one
    /// sort per job, the edges found on each resample's weights.
    fn band_mean_job(xs: &[f64], lo: f64, hi: Option<f64>) -> Replicator<'_> {
        let mut job = SortedJob::new(xs);
        Box::new(move |ws| {
            job.load(ws);
            let top = hi.map_or(Some(f64::INFINITY), |hi| job.quantile(hi));
            job.quantile(lo).zip(top).map_or(f64::NAN, |(a, b)| job.band_mean(a, b))
        })
    }

    /// Mean of the top `frac` fraction — MAX-like outlier sensitivity,
    /// the bootstrap's worst case.
    pub fn top_fraction_mean(frac: f64) -> Udf {
        Udf::new(format!("top_frac_mean({frac})"), move |xs| {
            if xs.is_empty() {
                return f64::NAN;
            }
            let Some(cut) = quantile(xs, 1.0 - frac) else {
                return f64::NAN;
            };
            let mut sum = 0.0;
            let mut n = 0usize;
            for &x in xs {
                if x >= cut {
                    sum += x;
                    n += 1;
                }
            }
            sum / n as f64
        })
        .with_weighted(move |xs| band_mean_job(xs, 1.0 - frac, None))
    }

    /// Geometric mean of positive values — moderately smooth nonlinearity.
    pub fn geometric_mean() -> Udf {
        Udf::new("geometric_mean", |xs| {
            let mut s = 0.0;
            let mut n = 0usize;
            for &x in xs {
                if x > 0.0 {
                    s += x.ln();
                    n += 1;
                }
            }
            if n == 0 {
                f64::NAN
            } else {
                (s / n as f64).exp()
            }
        })
        // One `ln` per value per job; a row the filter drops weighs 0.
        .with_weighted(|xs| {
            let logs: Vec<(f64, u32)> =
                xs.iter().map(|&x| if x > 0.0 { (x.ln(), u32::MAX) } else { (0.0, 0) }).collect();
            Box::new(move |ws| {
                let (s, n) = weighted_sum(logs.iter().zip(ws).map(|(&(l, keep), &w)| (l, w & keep)));
                if n == 0 {
                    f64::NAN
                } else {
                    (s / n as f64).exp()
                }
            })
        })
    }

    /// Coefficient of variation (stddev/mean) — a smooth ratio statistic.
    pub fn coeff_of_variation() -> Udf {
        Udf::new("coeff_of_variation", |xs| {
            let m = crate::moments::Moments::from_slice(xs);
            m.std_dev_sample() / m.mean()
        })
        // Two passes per resample: its mean, then the squares centred on
        // it, so a resample of tied rows has variance 0 to rounding.
        .with_weighted(|xs| {
            Box::new(move |ws| {
                let rows = || xs.iter().copied().zip(ws.iter().copied());
                let (sum, n) = weighted_sum(rows());
                if n < 2 {
                    return f64::NAN;
                }
                let mean = sum / n as f64;
                let (m2, _) = weighted_sum(rows().map(|(x, w)| ((x - mean) * (x - mean), w)));
                (m2 / (n - 1) as f64).sqrt() / mean
            })
        })
    }

    /// Fraction of values exceeding a threshold — a Bernoulli-mean UDF
    /// (smooth; bootstrap behaves like COUNT).
    pub fn frac_above(threshold: f64) -> Udf {
        Udf::new(format!("frac_above({threshold})"), move |xs| {
            if xs.is_empty() {
                return f64::NAN;
            }
            xs.iter().filter(|&&x| x > threshold).count() as f64 / xs.len() as f64
        })
        // Sums of 0s and 1s are exact, so bit for bit the expansion's.
        .with_weighted(move |xs| {
            Box::new(move |ws| {
                let rows = xs.iter().zip(ws).map(|(&x, &w)| (f64::from(u8::from(x > threshold)), w));
                let (above, n) = weighted_sum(rows);
                if n == 0 {
                    f64::NAN
                } else {
                    above / n as f64
                }
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CTX: SampleContext = SampleContext { sample_rows: 10, population_rows: 100 };

    #[test]
    fn avg_ignores_scale() {
        let v = [1.0, 2.0, 3.0];
        assert_eq!(Aggregate::Avg.estimate(&v, &CTX), 2.0);
    }

    #[test]
    fn sum_and_count_scale_to_population() {
        // 3 surviving rows out of a 10-row sample of a 100-row population.
        let v = [1.0, 2.0, 3.0];
        assert_eq!(Aggregate::Sum.estimate(&v, &CTX), 60.0);
        assert_eq!(Aggregate::Count.estimate(&v, &CTX), 30.0);
    }

    #[test]
    fn population_context_is_identity_scale() {
        let ctx = SampleContext::population(3);
        assert_eq!(Aggregate::Sum.estimate(&[1.0, 2.0, 3.0], &ctx), 6.0);
        assert_eq!(ctx.scale(), 1.0);
    }

    #[test]
    fn min_max_percentile() {
        let v = [5.0, 1.0, 9.0, 3.0];
        assert_eq!(Aggregate::Min.estimate(&v, &CTX), 1.0);
        assert_eq!(Aggregate::Max.estimate(&v, &CTX), 9.0);
        assert_eq!(Aggregate::Percentile(0.5).estimate(&v, &CTX), 4.0);
    }

    /// VARIANCE and STDDEV by their definition: mean = k + Σ(x − k)/m with
    /// k the first value, then m2 = Σ(x − mean)², each folded in order from
    /// 0.0, and s² = m2/(m − 1).
    #[test]
    fn variance_and_std_dev_are_the_centred_folds_bit_for_bit() {
        let mut rng = crate::rng::rng_from_seed(31);
        let random: Vec<f64> = (0..1_000).map(|_| rand::RngExt::random::<f64>(&mut rng) * 1e3 - 300.0).collect();
        let inputs: [&[f64]; 11] = [
            &random,
            &[2.5; 17],
            &[1e300; 4],
            &[1.0, f64::INFINITY, 3.0],
            &[f64::NEG_INFINITY, f64::INFINITY],
            &[4.0, f64::NAN, -1.0],
            &[],
            &[7.0],
            &[7.0, -0.5],
            &[1e300, -1e300, 1e-300],
            &[-0.0, -0.0, 0.0],
        ];
        for xs in inputs {
            let m = xs.len() as f64;
            let k = xs.first().copied().unwrap_or(0.0);
            let mean = k + xs.iter().fold(0.0, |sum, x| sum + (x - k)) / m;
            let m2 = xs.iter().fold(0.0, |m2, x| m2 + (x - mean) * (x - mean));
            let want = if xs.len() < 2 { f64::NAN } else { m2 / (m - 1.0) };
            let variance = Aggregate::Variance.estimate(xs, &CTX);
            assert_eq!(variance.to_bits(), one_nan(want).to_bits(), "{xs:?}: variance");
            let std_dev = Aggregate::StdDev.estimate(xs, &CTX);
            assert_eq!(std_dev.to_bits(), one_nan(want.sqrt()).to_bits(), "{xs:?}: std dev");
        }
        assert_eq!(Aggregate::Variance.estimate(&[1e300; 4], &CTX), 0.0);
    }

    #[test]
    fn a_nan_answer_is_the_one_nan() {
        // Two NaNs that differ in sign and payload.
        let (a, b) = (f64::from_bits(0x7ff8_0000_0000_0001), f64::from_bits(0xfff8_0000_0000_0002));
        for agg in [Aggregate::Avg, Aggregate::Sum, Aggregate::Variance, Aggregate::StdDev] {
            assert_eq!(agg.estimate(&[a, 1.0, b], &CTX).to_bits(), f64::NAN.to_bits(), "{agg}");
        }
    }

    #[test]
    fn empty_values() {
        assert!(Aggregate::Avg.estimate(&[], &CTX).is_nan());
        assert_eq!(Aggregate::Sum.estimate(&[], &CTX), 0.0);
        // `Sum for f64`'s identity: an empty SUM is −0.
        assert_eq!(Aggregate::Sum.estimate(&[], &CTX).to_bits(), [0.0f64; 0].iter().sum::<f64>().to_bits());
        assert_eq!(Aggregate::Count.estimate(&[], &CTX), 0.0);
        assert!(Aggregate::Percentile(0.5).estimate(&[], &CTX).is_nan());
    }

    #[test]
    fn weighted_matches_expansion_for_location_aggregates() {
        let values = [3.0, -1.0, 4.0, 1.0, 5.0, 9.0];
        let weights = [2u32, 0, 1, 3, 0, 1];
        let expanded = Udf::expand(&values, &weights);
        for agg in [
            Aggregate::Avg,
            Aggregate::Variance,
            Aggregate::StdDev,
            Aggregate::Min,
            Aggregate::Max,
        ] {
            let w = agg.estimate_weighted(&values, &weights, &CTX);
            let e = agg.estimate(&expanded, &CTX);
            assert!(
                (w - e).abs() < 1e-9 || (w.is_nan() && e.is_nan()),
                "{agg}: weighted {w} vs expanded {e}"
            );
        }
        // Percentile uses nearest-rank on weights; check the median agrees.
        let wq = Aggregate::Percentile(0.5).estimate_weighted(&values, &weights, &CTX);
        assert_eq!(wq, 3.0); // expanded sorted: [1,1,1,3,3,4,9] → median 3
    }

    #[test]
    fn size_centered_sum_and_count_are_unbiased_and_tighter() {
        // The centered statistic preserves the mean over resamples and
        // removes the resample-size variance: with all-unit weights it
        // reproduces the point estimate exactly.
        let values = [3.0, -1.0, 4.0, 1.0, 5.0, 9.0];
        let unit = [1u32; 6];
        let s = Aggregate::Sum.estimate_weighted(&values, &unit, &CTX);
        assert!((s - Aggregate::Sum.estimate(&values, &CTX)).abs() < 1e-9);
        let c = Aggregate::Count.estimate_weighted(&values, &unit, &CTX);
        assert!((c - Aggregate::Count.estimate(&values, &CTX)).abs() < 1e-9);

        // Unfiltered COUNT (m == n): every resample yields exactly N —
        // matching the fact that sampling n rows always yields n rows.
        let ctx_full = SampleContext::new(6, 600);
        let heavy = [3u32, 0, 2, 2, 0, 0];
        let c = Aggregate::Count.estimate_weighted(&values, &heavy, &ctx_full);
        assert!((c - 600.0).abs() < 1e-9, "unfiltered COUNT must be deterministic, got {c}");

        // Filtered COUNT varies with the resample.
        let ctx_filtered = SampleContext::new(60, 600); // 6 of 60 rows pass
        let c1 = Aggregate::Count.estimate_weighted(&values, &heavy, &ctx_filtered);
        let c2 = Aggregate::Count.estimate_weighted(&values, &unit, &ctx_filtered);
        assert_ne!(c1, c2);
    }

    /// The replicate SD of the size-centred SUM tracks the CLT sampling
    /// SD N·sd(y)/√n where the raw Poissonized Σwy·N/n overdisperses by
    /// √(E[y²]/Var(y)) — 2.13 for lognormal(1, 0.5) with every row kept.
    /// The deleted `ablation` bench printed, for this seed, raw / truth
    /// 1.11 and centred / truth 1.00 at 20 % selectivity, 2.15 and 0.97
    /// at 100 %; 300 replicates put ±4 % on an SD, hence the bands.
    #[test]
    fn size_centered_sum_replicates_have_the_sampling_sd() {
        use crate::dist::sample_lognormal;
        use crate::resample::poisson_weights;
        use crate::rng::rng_from_seed;

        let n = 100_000;
        let ctx = SampleContext::new(n, n * 50);
        let reps = 300;
        // Filtered-out rows stay in the sample as zeros.
        for keep in [5usize, 1] {
            let mut rng = rng_from_seed(2);
            let values: Vec<f64> = (0..n)
                .map(|i| if i % keep == 0 { sample_lognormal(&mut rng, 1.0, 0.5) } else { 0.0 })
                .collect();
            let point = Aggregate::Sum.estimate(&values, &ctx);
            let (mut raw_ss, mut centered_ss) = (0.0, 0.0);
            for _ in 0..reps {
                let w = poisson_weights(&mut rng, n);
                let raw: f64 = values.iter().zip(&w).map(|(&x, &w)| x * w as f64).sum();
                raw_ss += (raw * ctx.scale() - point).powi(2);
                centered_ss += (Aggregate::Sum.estimate_weighted(&values, &w, &ctx) - point).powi(2);
            }
            let mean_y = values.iter().sum::<f64>() / n as f64;
            let var_y = values.iter().map(|y| (y - mean_y).powi(2)).sum::<f64>() / n as f64;
            let truth = ctx.population_rows as f64 * (var_y / n as f64).sqrt();
            let raw = (raw_ss / reps as f64).sqrt() / truth;
            let centered = (centered_ss / reps as f64).sqrt() / truth;
            assert!((0.88..=1.12).contains(&centered), "keep 1/{keep}: centred / truth {centered}");
            assert!(raw > centered + 0.05, "keep 1/{keep}: raw {raw} vs centred {centered}");
            if keep == 1 {
                assert!(raw > 1.9, "raw / truth {raw} at 100 % selectivity");
            }
        }
    }

    #[test]
    fn closed_form_applicability_matches_paper() {
        assert!(Aggregate::Avg.closed_form_applicable());
        assert!(Aggregate::Sum.closed_form_applicable());
        assert!(Aggregate::Count.closed_form_applicable());
        assert!(Aggregate::Variance.closed_form_applicable());
        assert!(Aggregate::StdDev.closed_form_applicable());
        assert!(!Aggregate::Min.closed_form_applicable());
        assert!(!Aggregate::Max.closed_form_applicable());
        assert!(!Aggregate::Percentile(0.5).closed_form_applicable());
    }

    #[test]
    fn udf_weighted_expands_multiset() {
        let udf = Udf::new("count", |xs| xs.len() as f64);
        let v = [1.0, 2.0];
        let w = [3u32, 2];
        assert_eq!(udf.estimate_weighted(&v, &w, &CTX), 5.0);
    }

    #[test]
    fn replicators_reuse_their_state_across_resamples() {
        // Order-sensitive, so a stale or misplaced slot in the reused
        // expansion buffer shows: Σ i·xᵢ over the expanded multiset.
        let ramp = Udf::new("ramp", |xs| xs.iter().enumerate().map(|(i, x)| i as f64 * x).sum());
        assert!(!ramp.has_weighted_form());
        let median = Aggregate::Percentile(0.5);
        let values = [3.0, -1.0, 4.0, 1.0, 5.0, 9.0];
        let mut ramp_job = ramp.replicator(&values, &CTX);
        let mut median_job = median.replicator(&values, &CTX);
        for weights in [[2u32, 0, 1, 3, 0, 1], [0; 6], [1, 5, 0, 2, 4, 3], [0, 1, 0, 0, 0, 0]] {
            let expanded = Udf::expand(&values, &weights);
            assert_eq!(ramp_job(&weights), ramp.estimate(&expanded, &CTX), "{weights:?}");
            assert_eq!(
                median_job(&weights).to_bits(),
                median.estimate_weighted(&values, &weights, &CTX).to_bits(),
                "{weights:?}"
            );
        }
    }

    /// The five stock UDFs, by the name each is registered under.
    fn stock() -> [(&'static str, Udf); 5] {
        [
            ("trimmed_mean", udfs::trimmed_mean(0.1, 0.9)),
            ("top_decile_mean", udfs::top_fraction_mean(0.1)),
            ("geo_mean", udfs::geometric_mean()),
            ("cov", udfs::coeff_of_variation()),
            ("frac_above", udfs::frac_above(2.5)),
        ]
    }

    /// The contract of [`Udf::with_weighted`], over every stock UDF: on the
    /// resample a weight vector encodes, the weighted form returns what the
    /// function returns on the expansion — both non-finite, or equal to
    /// 1e-12 of the larger, where "larger" is floored by the size of what
    /// the estimate sums (the mean |x| of the weighted rows: a mean that
    /// cancels to 0 is only that accurate on either side; for the ratio
    /// `cov`, 1) and stretched by the conditioning of the mean that `cov`
    /// divides by (1 on a positive column). One replicator serves every
    /// weight vector of a case, in turn, and must give bit for bit what a
    /// fresh one gives; `frac_above` counts, so it must give the
    /// expansion's bits.
    #[test]
    fn weighted_forms_match_the_expansion() {
        use crate::resample::poisson_weights;
        use rand::RngExt;
        let specials = [f64::NAN, -f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
        let mut compared = 0;
        for seed in 0..48u64 {
            let mut rng = crate::rng::rng_from_seed(seed);
            for n in [0usize, 1, 2, 3, 40, 1_000] {
                // Ties throughout (one decimal); then per seed: a skewed
                // positive column, one with zeros and negatives (what
                // `geo_mean` filters), a constant one, and either of the
                // first two with NaN / ±Inf cells.
                let shape = seed % 5;
                let values: Vec<f64> = (0..n)
                    .map(|_| {
                        let x = (-40.0 * rng.random::<f64>().ln()).round() / 10.0 + 0.1;
                        match shape {
                            2 => 417.3,
                            _ if shape >= 3 && rng.random_bool(0.05) => specials[rng.random_range(0..4)],
                            1 | 4 => x - 3.0,
                            _ => x,
                        }
                    })
                    .collect();
                let heavy = |others: u32| {
                    let mut ws = vec![others; n];
                    ws.iter_mut().skip(n / 3).take(1).for_each(|w| *w = 50);
                    ws
                };
                let mut heavy_among_draws = poisson_weights(&mut rng, n);
                heavy_among_draws.iter_mut().take(1).for_each(|w| *w = 17);
                let weight_vectors = [
                    poisson_weights(&mut rng, n),
                    vec![0; n],
                    heavy(0),
                    poisson_weights(&mut rng, n),
                    heavy(1),
                    heavy_among_draws,
                    poisson_weights(&mut rng, n / 2),
                    poisson_weights(&mut rng, n + 7),
                ];
                for (name, udf) in stock() {
                    assert!(udf.has_weighted_form(), "{name}");
                    let mut job = udf.replicator(&values, &CTX);
                    for ws in &weight_vectors {
                        let got = job(ws);
                        let fresh = udf.replicator(&values, &CTX)(ws);
                        assert_eq!(got.to_bits(), fresh.to_bits(), "{name} reused, seed {seed} n {n}");
                        let want = udf.estimate(&Udf::expand(&values, ws), &CTX);
                        if name == "frac_above" {
                            let same = got.to_bits() == want.to_bits() || got.is_nan() && want.is_nan();
                            assert!(same, "{name}: {got} vs {want}, seed {seed} n {n}");
                            continue;
                        }
                        let rows = || values.iter().zip(ws).filter(|(x, &w)| w > 0 && x.is_finite());
                        let weight: f64 = rows().map(|(_, &w)| w as f64).sum();
                        let mean_abs = rows().map(|(x, &w)| x.abs() * w as f64).sum::<f64>() / weight;
                        let mean = rows().map(|(x, &w)| x * w as f64).sum::<f64>() / weight;
                        let (floor, conditioning) =
                            if name == "cov" { (1.0, mean_abs / mean.abs()) } else { (mean_abs, 1.0) };
                        let size = got.abs().max(want.abs()).max(floor);
                        assert!(
                            !got.is_finite() && !want.is_finite()
                                || (got - want).abs() <= 1e-12 * conditioning * size,
                            "{name}: weighted {got:e} vs expansion {want:e}, seed {seed} n {n} ws {:?}",
                            &ws[..ws.len().min(8)]
                        );
                        compared += usize::from(got.is_finite());
                    }
                }
            }
        }
        assert!(compared > 3_000, "{compared} finite comparisons");
    }

    #[test]
    fn a_udf_without_a_weighted_form_expands() {
        // The same function, opaque: the expansion path is the reference.
        let (values, ws) = ([3.0, 1.0, 4.0, 1.5, 9.0], [2u32, 0, 1, 3, 1]);
        for (name, udf) in stock() {
            let f = udf.clone();
            let opaque = Udf::new(name, move |xs| f.estimate(xs, &CTX));
            assert!(!opaque.has_weighted_form());
            let want = udf.estimate(&Udf::expand(&values, &ws), &CTX);
            assert_eq!(opaque.estimate_weighted(&values, &ws, &CTX).to_bits(), want.to_bits(), "{name}");
        }
    }

    #[test]
    fn udf_library_sanity() {
        let xs: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let ctx = SampleContext::population(xs.len());
        let tm = udfs::trimmed_mean(0.1, 0.9).estimate(&xs, &ctx);
        assert!((tm - 50.5).abs() < 2.0, "trimmed mean {tm}");
        let gm = udfs::geometric_mean().estimate(&xs, &ctx);
        assert!(gm > 30.0 && gm < 50.0, "geometric mean {gm}");
        let fa = udfs::frac_above(50.0).estimate(&xs, &ctx);
        assert!((fa - 0.5).abs() < 0.01, "frac above {fa}");
        let tf = udfs::top_fraction_mean(0.1).estimate(&xs, &ctx);
        assert!(tf > 90.0, "top fraction mean {tf}");
        let cv = udfs::coeff_of_variation().estimate(&xs, &ctx);
        assert!(cv > 0.0 && cv < 1.0, "cv {cv}");
    }
}
