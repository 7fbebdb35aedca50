//! Closed-form CLT-based error estimation (§2.3.2).
//!
//! Approximates Dist(θ(S)) by N(θ(S), σ²) with σ² estimated from the
//! sample by an aggregate-specific formula derived by "careful manual
//! study of θ" — exactly why this method only covers COUNT, SUM, AVG,
//! VARIANCE, and STDEV, while MIN, MAX, percentiles, and UDFs have no
//! known closed form and must fall back to the bootstrap.
//!
//! Variance derivations (values = filtered aggregation inputs, m =
//! surviving rows, n = pre-filter sample rows, N = population rows,
//! q = m/n the selectivity):
//!
//! * `AVG`  — the classic s²/m.
//! * `SUM`  — the estimator is N·(Σx)/n, i.e. N·mean(y) where yᵢ is the
//!   per-sample-row contribution (0 for filtered-out rows);
//!   Var = N²·Var(y)/n with Var(y) = E\[y²\] − E\[y\]² computed from Σx, Σx².
//! * `COUNT` — Bernoulli mean: Var = N²·q(1−q)/n.
//! * `VARIANCE` — asymptotic Var(s²) = (μ₄ − σ⁴)/m.
//! * `STDDEV` — delta method: Var(s) = Var(s²)/(4s²).
//!
//! θ and σ̂ come from one pass over the range ([`closed_form`]), which runs
//! the folds [`Aggregate::estimate`] runs, each operation in the order it
//! runs them, so θ has its bits. [`closed_form_lanes`] makes that pass
//! over up to [`LANES`] ranges at once: their recurrences — a Welford
//! divide chain per range for AVG, VARIANCE and STDDEV — run side by side
//! in one loop and overlap in the pipeline instead of queueing, while each
//! range's own operations keep their order and so their bits.

use crate::ci::Ci;
use crate::dist::normal_quantile;
use crate::estimator::{Aggregate, SampleContext};
use crate::moments::Moments;

/// θ on one range and what its closed-form error is built from, made in
/// one pass over the range.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ClosedForm {
    /// θ on the range, bit for bit what [`Aggregate::estimate`] returns.
    pub estimate: f64,
    /// σ̂, or `None` where the range is too small to estimate it.
    pub std_error: Option<f64>,
    /// The population variance of what θ averages — the values for AVG,
    /// the per-sample-row contribution y (zeros included) for SUM, the
    /// pass indicator q(1 − q) for COUNT; NaN for VARIANCE and STDDEV. A
    /// Bernstein bound reads it ([`crate::large_deviation`]).
    pub variance: f64,
}

impl ClosedForm {
    /// The normal-approximation interval `θ ± z_{(1+α)/2} · σ̂`; `None`
    /// when there is no σ̂, θ or σ̂ is NaN, or α is outside \[0, 1).
    pub fn ci(&self, coverage: Coverage) -> Option<Ci> {
        let se = self.std_error?;
        let Coverage { alpha, z } = coverage;
        if self.estimate.is_nan() || se.is_nan() || z.is_nan() || z < 0.0 {
            return None;
        }
        Some(Ci::new(self.estimate, z * se, alpha))
    }
}

/// A coverage α and the normal quantile z_{(1+α)/2} its closed-form
/// intervals are `z · σ̂` wide by, worked out once for all the intervals
/// of one coverage: the quantile costs what a short range's pass does.
#[derive(Debug, Clone, Copy)]
pub struct Coverage {
    alpha: f64,
    z: f64,
}

impl Coverage {
    /// Coverage `alpha` (a NaN z, and so no interval, outside \[0, 1)).
    pub fn new(alpha: f64) -> Self {
        Coverage { alpha, z: normal_quantile(0.5 + alpha / 2.0) }
    }
}

/// The most ranges one [`closed_form_lanes`] call interleaves.
pub const LANES: usize = 8;

/// One range's accumulator in [`closed_form_lanes`].
trait Fold: Copy {
    /// Whether a push waits on the latency of its own last one — a
    /// divide chain — so that ranges folded side by side overlap. SUM's
    /// two adds a value keep the pipeline busy alone, and side by side
    /// only add the loads and stores of each range's state.
    const INTERLEAVE: bool;

    fn push(&mut self, x: f64);
}

/// SUM's Σx and Σx², both from −0.0, where `iter().sum()` starts.
#[derive(Clone, Copy)]
struct PowerSums {
    sum: f64,
    sum_sq: f64,
}

impl Fold for PowerSums {
    const INTERLEAVE: bool = false;

    #[inline(always)]
    fn push(&mut self, x: f64) {
        self.sum += x;
        self.sum_sq += x * x;
    }
}

/// AVG's Σx (from −0.0) beside Welford's mean and m2, updated by
/// [`Moments::push`]'s own expressions; laid out as [`Moments`] is, for
/// the reason it gives, with Σx as the mean's neighbour.
#[derive(Clone, Copy)]
struct SumWelford {
    mean: f64,
    sum: f64,
    m2: f64,
    n: f64,
}

impl Fold for SumWelford {
    const INTERLEAVE: bool = true;

    #[inline(always)]
    fn push(&mut self, x: f64) {
        self.sum += x;
        let n1 = self.n;
        self.n += 1.0;
        let n = self.n;
        let delta = x - self.mean;
        let delta_n = delta / n;
        self.mean += delta_n;
        self.m2 += delta * delta_n * n1;
    }
}

impl Fold for Moments {
    const INTERLEAVE: bool = true;

    #[inline(always)]
    fn push(&mut self, x: f64) {
        Moments::push(self, x);
    }
}

/// `init` folded over each of the first `out.len()` of `ranges` (at most
/// [`LANES`]), `finish` writing each into `out`. Where the fold
/// interleaves, over the prefix every range has the ranges advance
/// together, one value each per step, and then each finishes its own
/// tail; otherwise, and for a single range, a range is all tail.
fn fold_lanes<F: Fold>(
    init: F,
    ranges: &[&[f64]],
    out: &mut [ClosedForm],
    finish: impl Fn(F) -> ClosedForm,
) {
    let lanes = ranges.len().min(out.len()).min(LANES);
    if lanes == 1 || !F::INTERLEAVE {
        for (r, out) in ranges.iter().zip(out).take(lanes) {
            let mut acc = init;
            for &x in *r {
                acc.push(x);
            }
            *out = finish(acc);
        }
        return;
    }
    let mut acc = [init; LANES];
    let (acc, ranges) = (&mut acc[..lanes], &ranges[..lanes]);
    let common = ranges.iter().map(|r| r.len()).min().unwrap_or(0);
    for i in 0..common {
        for (a, r) in acc.iter_mut().zip(ranges) {
            a.push(r[i]);
        }
    }
    for ((a, r), out) in acc.iter_mut().zip(ranges).zip(out) {
        let mut lane = *a;
        for &x in &r[common..] {
            lane.push(x);
        }
        *out = finish(lane);
    }
}

/// θ and σ̂ of `agg` on `values` under `ctx` from one pass, or `None`
/// when no closed form exists for the aggregate (§2.3.2: MIN, MAX,
/// percentiles).
pub fn closed_form(agg: &Aggregate, values: &[f64], ctx: &SampleContext) -> Option<ClosedForm> {
    let mut pass = [ClosedForm::default()];
    closed_form_lanes(agg, &[values], ctx, &mut pass)?;
    Some(pass[0])
}

/// [`closed_form`] on each of the first `out.len()` of `ranges` (at most
/// [`LANES`]), all under `ctx`, in one call — the passes interleaved in
/// one loop where the fold is a divide chain (AVG, VARIANCE, STDDEV):
/// `out[i]` gets bit for bit `closed_form(agg, ranges[i], ctx)`. `None`,
/// and `out` untouched, when no closed form exists for the aggregate.
pub fn closed_form_lanes(
    agg: &Aggregate,
    ranges: &[&[f64]],
    ctx: &SampleContext,
    out: &mut [ClosedForm],
) -> Option<()> {
    let n = ctx.sample_rows as f64;
    let big_n = ctx.population_rows as f64;
    match agg {
        Aggregate::Count => {
            for (r, out) in ranges.iter().zip(out).take(LANES) {
                let m = r.len() as f64;
                let std_error = (n >= 2.0).then(|| {
                    let q = (m / n).clamp(0.0, 1.0);
                    big_n * (q * (1.0 - q) / n).sqrt()
                });
                let q = m / n;
                *out = ClosedForm { estimate: m * ctx.scale(), std_error, variance: q * (1.0 - q) };
            }
        }
        Aggregate::Sum => {
            let init = PowerSums { sum: -0.0, sum_sq: -0.0 };
            fold_lanes(init, ranges, out, |PowerSums { sum, sum_sq }| {
                let mean_y = sum / n;
                let var_y = (sum_sq / n - mean_y * mean_y).max(0.0);
                // Small-sample (n-1) correction on the y-variance.
                let std_error = (n >= 2.0).then(|| big_n * (var_y * n / (n - 1.0) / n).sqrt());
                ClosedForm { estimate: sum * ctx.scale(), std_error, variance: var_y }
            })
        }
        Aggregate::Avg => {
            let init = SumWelford { mean: 0.0, sum: -0.0, m2: 0.0, n: 0.0 };
            fold_lanes(init, ranges, out, |SumWelford { sum, m2, n: m, .. }| ClosedForm {
                estimate: if m == 0.0 { f64::NAN } else { sum / m },
                std_error: (m >= 2.0).then(|| (m2 / (m - 1.0) / m).sqrt()),
                variance: if m == 0.0 { f64::NAN } else { m2 / m },
            })
        }
        Aggregate::Variance | Aggregate::StdDev => fold_lanes(Moments::new(), ranges, out, |mom| {
            let s = mom.std_dev_sample();
            let std_error = (mom.count() >= 4).then(|| {
                let sigma2 = mom.variance_population();
                let mu4 = mom.fourth_central_moment();
                let var_s2 = ((mu4 - sigma2 * sigma2) / mom.count() as f64).max(0.0);
                if *agg == Aggregate::Variance {
                    var_s2.sqrt()
                } else if s <= 0.0 {
                    0.0
                } else {
                    var_s2.sqrt() / (2.0 * s)
                }
            });
            let estimate = if *agg == Aggregate::Variance { mom.variance_sample() } else { s };
            ClosedForm { estimate, std_error, variance: f64::NAN }
        }),
        // §2.3.2: "in some cases, like MIN, MAX, and black-box UDFs,
        // closed-form estimates are unknown."
        Aggregate::Min | Aggregate::Max | Aggregate::Percentile(_) => return None,
    }
    Some(())
}

/// Closed-form confidence interval: normal approximation
/// `θ(S) ± z_{(1+α)/2} · σ̂`. `None` when the aggregate has no closed form,
/// the sample is too small to estimate σ̂, or `alpha` is outside \[0, 1).
pub fn closed_form_ci(
    agg: &Aggregate,
    values: &[f64],
    ctx: &SampleContext,
    alpha: f64,
) -> Option<Ci> {
    closed_form(agg, values, ctx)?.ci(Coverage::new(alpha))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{sample_lognormal, sample_normal};
    use crate::estimator::QueryEstimator;
    use crate::rng::rng_from_seed;
    use rand::RngExt;

    /// The library's σ̂: the one pass's.
    fn std_error(agg: &Aggregate, values: &[f64], ctx: &SampleContext) -> Option<f64> {
        closed_form(agg, values, ctx)?.std_error
    }

    /// σ̂ as separate folds over the values, each as `iter().sum()` or a
    /// fresh [`Moments`] makes it: what the one pass replaced, and the
    /// oracle it is held to.
    fn closed_form_std_error(agg: &Aggregate, values: &[f64], ctx: &SampleContext) -> Option<f64> {
        let n = ctx.sample_rows as f64;
        let big_n = ctx.population_rows as f64;
        let m = values.len() as f64;
        match agg {
            Aggregate::Avg => {
                if values.len() < 2 {
                    return None;
                }
                let s2 = Moments::from_slice(values).variance_sample();
                Some((s2 / m).sqrt())
            }
            Aggregate::Sum => {
                if n < 2.0 {
                    return None;
                }
                let sum: f64 = values.iter().sum();
                let sum_sq: f64 = values.iter().map(|x| x * x).sum();
                let mean_y = sum / n;
                let var_y = (sum_sq / n - mean_y * mean_y).max(0.0);
                let var_y = var_y * n / (n - 1.0);
                Some(big_n * (var_y / n).sqrt())
            }
            Aggregate::Count => {
                if n < 2.0 {
                    return None;
                }
                let q = (m / n).clamp(0.0, 1.0);
                Some(big_n * (q * (1.0 - q) / n).sqrt())
            }
            Aggregate::Variance | Aggregate::StdDev => {
                if values.len() < 4 {
                    return None;
                }
                let mom = Moments::from_slice(values);
                let s = mom.std_dev_sample();
                if *agg == Aggregate::StdDev && s <= 0.0 {
                    return Some(0.0);
                }
                let sigma2 = mom.variance_population();
                let mu4 = mom.fourth_central_moment();
                let var_s2 = ((mu4 - sigma2 * sigma2) / m).max(0.0);
                Some(if *agg == Aggregate::StdDev { var_s2.sqrt() / (2.0 * s) } else { var_s2.sqrt() })
            }
            Aggregate::Min | Aggregate::Max | Aggregate::Percentile(_) => None,
        }
    }

    /// What a Bernstein bound folded for itself before it read the pass.
    fn bernstein_variance(agg: &Aggregate, values: &[f64], ctx: &SampleContext) -> f64 {
        let n = ctx.sample_rows as f64;
        match agg {
            Aggregate::Avg => Moments::from_slice(values).variance_population(),
            Aggregate::Sum => {
                let sum: f64 = values.iter().sum();
                let sum_sq: f64 = values.iter().map(|x| x * x).sum();
                let mean_y = sum / n;
                (sum_sq / n - mean_y * mean_y).max(0.0)
            }
            Aggregate::Count => {
                let q = values.len() as f64 / n;
                q * (1.0 - q)
            }
            _ => f64::NAN,
        }
    }

    const CLOSED: [Aggregate; 5] =
        [Aggregate::Avg, Aggregate::Sum, Aggregate::Count, Aggregate::Variance, Aggregate::StdDev];

    /// A float's bits, every NaN alike: Rust fixes neither the sign nor
    /// the payload of a NaN an operation makes.
    fn key(x: f64) -> u64 {
        if x.is_nan() {
            f64::NAN.to_bits()
        } else {
            x.to_bits()
        }
    }

    fn bits(cf: &ClosedForm) -> (u64, Option<u64>, u64) {
        (key(cf.estimate), cf.std_error.map(key), key(cf.variance))
    }

    /// Ranges of every shape the contract covers, `len` values each.
    fn shaped(rng: &mut crate::rng::Rng, shape: usize, len: usize) -> Vec<f64> {
        let specials = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
        (0..len)
            .map(|_| {
                let x = sample_lognormal(rng, 1.0, 0.8) - 2.0;
                match shape {
                    0 => x,
                    1 => 417.3,
                    2 => -0.0,
                    3 if rng.random_bool(0.1) => specials[rng.random_range(0..3)],
                    3 => x,
                    4 => x * 1e300,
                    _ => x * 1e-300,
                }
            })
            .collect()
    }

    /// The one pass against the folds it replaced: θ is
    /// [`Aggregate::estimate`]'s, σ̂ [`closed_form_std_error`]'s, the
    /// interval the one they made and the variance the one a Bernstein
    /// bound made, bit for bit — NaN for NaN — over lengths around the
    /// engine's lockstep cut, constant and all-−0.0 ranges (`Moments`'
    /// fields start at +0.0, `iter().sum()` at −0.0), NaN / ±Inf cells,
    /// magnitudes near 1e±300 and contexts of fewer than two rows.
    #[test]
    fn one_pass_is_the_separate_folds_bit_for_bit() {
        let mut rng = rng_from_seed(11);
        let mut compared = 0;
        for len in [0usize, 1, 2, 3, 4, 5, 63, 64, 65, 1_000] {
            for shape in 0..6 {
                let values = shaped(&mut rng, shape, len);
                for rows in [0, 1, 2, len, 2 * len + 3] {
                    let ctx = SampleContext::new(rows, rows * 50 + 7);
                    for agg in &CLOSED {
                        let cf = closed_form(agg, &values, &ctx).unwrap();
                        let want_se = closed_form_std_error(agg, &values, &ctx);
                        let want = (agg.estimate(&values, &ctx), want_se, bernstein_variance(agg, &values, &ctx));
                        let want = ClosedForm { estimate: want.0, std_error: want.1, variance: want.2 };
                        assert_eq!(bits(&cf), bits(&want), "{agg} len {len} shape {shape} rows {rows}");
                        let center = agg.estimate(&values, &ctx);
                        let z = normal_quantile(0.975);
                        let want_ci = want_se
                            .filter(|se| !center.is_nan() && !se.is_nan())
                            .map(|se| Ci::new(center, z * se, 0.95));
                        let ci = closed_form_ci(agg, &values, &ctx, 0.95);
                        let ci_bits = |ci: Option<Ci>| ci.map(|c| (key(c.center), key(c.half_width)));
                        assert_eq!(ci_bits(ci), ci_bits(want_ci), "{agg} len {len} shape {shape} rows {rows}");
                        compared += 1;
                    }
                }
            }
        }
        assert_eq!(compared, 10 * 6 * 5 * 5);
        for agg in [Aggregate::Min, Aggregate::Max, Aggregate::Percentile(0.5)] {
            assert_eq!(closed_form(&agg, &[1.0, 2.0], &SampleContext::new(2, 2)), None);
        }
    }

    /// The lockstep kernel gives every range, at every lane count, what a
    /// one-range call gives: ranges of unequal lengths on both sides of
    /// the common prefix, empty ones among them; and it writes nothing
    /// past the ranges, past `out` or past [`LANES`].
    #[test]
    fn every_lane_count_gives_each_range_its_own_pass() {
        let mut rng = rng_from_seed(12);
        let untouched = ClosedForm { estimate: 1.5, std_error: Some(2.5), variance: 3.5 };
        for lanes in 1..=LANES + 1 {
            for round in 0..6 {
                let lengths: Vec<usize> = (0..lanes)
                    .map(|l| match (round + l) % 5 {
                        0 if round > 2 => 0,
                        0 => 3,
                        1 => 70 + rng.random_range(0..40),
                        2 => 64,
                        3 => 200 + rng.random_range(0..9),
                        _ => 65 + l,
                    })
                    .collect();
                let columns: Vec<Vec<f64>> = lengths.iter().map(|&len| shaped(&mut rng, round % 4, len)).collect();
                let ranges: Vec<&[f64]> = columns.iter().map(Vec::as_slice).collect();
                let ctx = SampleContext::new(400, 40_000);
                for agg in &CLOSED {
                    // One slot past the ranges, and `out` one short of
                    // them every other round.
                    let mut out = vec![untouched; LANES + 2];
                    let written = (lanes - round % 2).min(LANES);
                    closed_form_lanes(agg, &ranges, &ctx, &mut out[..lanes - round % 2]).unwrap();
                    for (lane, cf) in out.iter().enumerate() {
                        let want = match ranges.get(lane) {
                            Some(range) if lane < written => closed_form(agg, range, &ctx).unwrap(),
                            _ => untouched,
                        };
                        assert_eq!(bits(cf), bits(&want), "{agg}: lane {lane} of {lanes}, lengths {lengths:?}");
                    }
                }
            }
        }
        let mut out = [untouched];
        assert_eq!(closed_form_lanes(&Aggregate::Max, &[&[1.0]], &SampleContext::new(1, 1), &mut out), None);
        assert_eq!(out, [untouched]);
    }

    #[test]
    fn avg_se_is_s_over_sqrt_m() {
        let values: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let ctx = SampleContext::new(100, 10_000);
        let se = std_error(&Aggregate::Avg, &values, &ctx).unwrap();
        let s2 = Moments::from_slice(&values).variance_sample();
        assert!((se - (s2 / 100.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn count_se_binomial() {
        // 300 of 1000 sample rows survive, population 1e6.
        let values = vec![1.0; 300];
        let ctx = SampleContext::new(1000, 1_000_000);
        let se = std_error(&Aggregate::Count, &values, &ctx).unwrap();
        let expect = 1_000_000.0 * (0.3f64 * 0.7 / 1000.0).sqrt();
        assert!((se - expect).abs() < 1e-6);
    }

    #[test]
    fn sum_se_accounts_for_selectivity() {
        // All rows pass, constant value: Var(y) from the correction term only.
        let values = vec![5.0; 1000];
        let ctx = SampleContext::new(1000, 10_000);
        let se = std_error(&Aggregate::Sum, &values, &ctx).unwrap();
        // Constant data w/ full selectivity → y constant → SE ≈ 0.
        assert!(se < 1e-9, "se {se}");
        // Half the rows pass with value 5: Var(y) = 25·q(1−q).
        let values = vec![5.0; 500];
        let se = std_error(&Aggregate::Sum, &values, &ctx).unwrap();
        let var_y: f64 = 25.0 * 0.5 * 0.5 * (1000.0 / 999.0);
        let expect = 10_000.0 * (var_y / 1000.0f64).sqrt();
        assert!((se - expect).abs() / expect < 1e-9, "se {se} vs {expect}");
    }

    #[test]
    fn no_closed_form_for_min_max_percentile() {
        let values = vec![1.0, 2.0, 3.0];
        let ctx = SampleContext::new(3, 3);
        assert!(std_error(&Aggregate::Min, &values, &ctx).is_none());
        assert!(std_error(&Aggregate::Max, &values, &ctx).is_none());
        assert!(std_error(&Aggregate::Percentile(0.5), &values, &ctx).is_none());
    }

    #[test]
    fn ci_coverage_for_avg_on_normal_data() {
        // Empirical coverage check: the 95% closed-form AVG interval should
        // contain the true mean in roughly 95% of repetitions.
        let mut covered = 0;
        let runs = 400;
        let n = 500;
        for run in 0..runs {
            let mut rng = rng_from_seed(1000 + run);
            let values: Vec<f64> =
                (0..n).map(|_| sample_normal(&mut rng, 7.0, 2.0)).collect();
            let ctx = SampleContext::new(n, 1_000_000);
            let ci = closed_form_ci(&Aggregate::Avg, &values, &ctx, 0.95).unwrap();
            if ci.contains(7.0) {
                covered += 1;
            }
        }
        let rate = covered as f64 / runs as f64;
        assert!(rate > 0.91 && rate < 0.99, "coverage {rate}");
    }

    #[test]
    fn variance_se_shrinks_with_m() {
        let mut rng = rng_from_seed(5);
        let small: Vec<f64> = (0..200).map(|_| sample_lognormal(&mut rng, 0.0, 1.0)).collect();
        let large: Vec<f64> = (0..20_000).map(|_| sample_lognormal(&mut rng, 0.0, 1.0)).collect();
        let ctx_s = SampleContext::new(200, 1_000_000);
        let ctx_l = SampleContext::new(20_000, 1_000_000);
        let se_s = std_error(&Aggregate::Variance, &small, &ctx_s).unwrap();
        let se_l = std_error(&Aggregate::Variance, &large, &ctx_l).unwrap();
        assert!(se_l < se_s, "se_l {se_l} vs se_s {se_s}");
    }

    #[test]
    fn stddev_delta_method_relationship() {
        let values: Vec<f64> = (0..1000).map(|i| ((i * 31) % 100) as f64).collect();
        let ctx = SampleContext::new(1000, 1000);
        let se_var = std_error(&Aggregate::Variance, &values, &ctx).unwrap();
        let se_sd = std_error(&Aggregate::StdDev, &values, &ctx).unwrap();
        let s = Aggregate::StdDev.estimate(&values, &ctx);
        assert!((se_sd - se_var / (2.0 * s)).abs() < 1e-12);
    }

    #[test]
    fn too_small_samples_yield_none() {
        let ctx = SampleContext::new(1, 10);
        assert!(std_error(&Aggregate::Avg, &[1.0], &ctx).is_none());
        assert!(std_error(&Aggregate::Variance, &[1.0, 2.0, 3.0], &ctx).is_none());
    }

    #[test]
    fn ci_uses_normal_quantile() {
        let values: Vec<f64> = (0..400).map(|i| (i % 20) as f64).collect();
        let ctx = SampleContext::new(400, 40_000);
        let ci95 = closed_form_ci(&Aggregate::Avg, &values, &ctx, 0.95).unwrap();
        let ci99 = closed_form_ci(&Aggregate::Avg, &values, &ctx, 0.99).unwrap();
        assert!((ci99.half_width / ci95.half_width - 2.5758 / 1.9600).abs() < 1e-3);
    }
}
