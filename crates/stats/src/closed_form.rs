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
//! runs them, so θ has its bits. None divides per value. AVG's s² is
//! m2/(m − 1) with m2 = Σ(x − θ̂)² folded around θ̂ itself: [`closed_form`]
//! folds Σx for θ̂ first, and a caller that holds θ̂ already hands it to
//! [`closed_form_around`], which folds m2 alone. VARIANCE's and STDDEV's θ
//! is two folds, Σ(x − k) from the range's first value k for the mean and
//! then m2 = Σ(x − mean)²; the pass's second fold takes Σ(x − mean)⁴ for
//! μ₄ beside it.

use crate::ci::Ci;
use crate::dist::normal_quantile;
use crate::estimator::{first_fold_mean, Accumulator, Aggregate, QueryEstimator, SampleContext};

/// θ on one range and what its closed-form error is built from, made in
/// one pass over the range.
#[derive(Debug, Clone, Copy, PartialEq)]
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
    /// when there is no σ̂, θ or σ̂ is not finite (a NaN, or an overflow
    /// the normal approximation cannot bound), or α is outside \[0, 1).
    pub fn ci(&self, coverage: Coverage) -> Option<Ci> {
        let se = self.std_error?;
        let Coverage { alpha, z } = coverage;
        if !self.estimate.is_finite() || !se.is_finite() || z.is_nan() || z < 0.0 {
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

/// AVG's closed form on `values` around `theta`, θ on them: m2 = Σ(x − θ)²
/// folded in order from 0.0, s² = m2/(m − 1).
fn avg_around(values: &[f64], theta: f64) -> ClosedForm {
    let m = values.len() as f64;
    let m2 = values.iter().fold(0.0, |m2, &x| {
        let d = x - theta;
        m2 + d * d
    });
    ClosedForm {
        estimate: theta,
        std_error: (m >= 2.0).then(|| (m2 / (m - 1.0) / m).sqrt()),
        variance: if m == 0.0 { f64::NAN } else { m2 / m },
    }
}

/// VARIANCE's or STDDEV's closed form on `values`: θ's two folds, the
/// second taking Σd⁴ beside m2 = Σd², d = x − mean. σ² = m2/m, μ₄ = Σd⁴/m.
fn variance_pass(agg: &Aggregate, values: &[f64], ctx: &SampleContext) -> ClosedForm {
    let (mean, m) = first_fold_mean(values);
    let (m2, m4) = values.iter().fold((0.0, 0.0), |(m2, m4), &x| {
        let d = x - mean;
        let d2 = d * d;
        (m2 + d2, m4 + d2 * d2)
    });
    let estimate = agg.finish(Accumulator::Centred((mean, m2, m)), ctx);
    let std_error = (m >= 4.0).then(|| {
        let sigma2 = m2 / m;
        let var_s2 = ((m4 / m - sigma2 * sigma2) / m).max(0.0);
        match agg {
            Aggregate::StdDev if estimate <= 0.0 => 0.0,
            Aggregate::StdDev => var_s2.sqrt() / (2.0 * estimate),
            _ => var_s2.sqrt(),
        }
    });
    ClosedForm { estimate, std_error, variance: f64::NAN }
}

/// θ and σ̂ of `agg` on `values` under `ctx` from one pass, or `None`
/// when no closed form exists for the aggregate (§2.3.2: MIN, MAX,
/// percentiles).
pub fn closed_form(agg: &Aggregate, values: &[f64], ctx: &SampleContext) -> Option<ClosedForm> {
    let n = ctx.sample_rows as f64;
    let big_n = ctx.population_rows as f64;
    Some(match agg {
        Aggregate::Count => {
            let m = values.len() as f64;
            let std_error = (n >= 2.0).then(|| {
                let q = (m / n).clamp(0.0, 1.0);
                big_n * (q * (1.0 - q) / n).sqrt()
            });
            let q = m / n;
            ClosedForm { estimate: m * ctx.scale(), std_error, variance: q * (1.0 - q) }
        }
        Aggregate::Sum => {
            // Σx and Σx², both from −0.0, where `iter().sum()` starts.
            let (sum, sum_sq) = values.iter().fold((-0.0, -0.0), |(sum, sum_sq), &x| (sum + x, sum_sq + x * x));
            let mean_y = sum / n;
            let var_y = (sum_sq / n - mean_y * mean_y).max(0.0);
            // Small-sample (n-1) correction on the y-variance.
            let std_error = (n >= 2.0).then(|| big_n * (var_y * n / (n - 1.0) / n).sqrt());
            ClosedForm { estimate: sum * ctx.scale(), std_error, variance: var_y }
        }
        Aggregate::Avg => avg_around(values, agg.estimate(values, ctx)),
        Aggregate::Variance | Aggregate::StdDev => variance_pass(agg, values, ctx),
        // §2.3.2: "in some cases, like MIN, MAX, and black-box UDFs,
        // closed-form estimates are unknown."
        Aggregate::Min | Aggregate::Max | Aggregate::Percentile(_) => return None,
    })
}

/// [`closed_form`] for a caller that holds `theta` = θ on `values` already,
/// bit for bit what [`Aggregate::estimate`] returns there: AVG's σ̂ is
/// centred on it and Σx is not folded again, which gives
/// [`closed_form`]'s bits; the other aggregates read θ from their own pass.
pub fn closed_form_around(agg: &Aggregate, values: &[f64], theta: f64, ctx: &SampleContext) -> Option<ClosedForm> {
    match agg {
        Aggregate::Avg => Some(avg_around(values, theta)),
        _ => closed_form(agg, values, ctx),
    }
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
    use crate::dist::{sample_lognormal, sample_normal, sample_pareto};
    use crate::moments::Moments;
    use crate::rng::rng_from_seed;
    use rand::RngExt;

    /// The library's σ̂: the one pass's.
    fn std_error(agg: &Aggregate, values: &[f64], ctx: &SampleContext) -> Option<f64> {
        closed_form(agg, values, ctx)?.std_error
    }

    /// AVG's m2 by its definition: θ̂ = Σx/m with Σx as `iter().sum()`
    /// makes it, then Σ(x − θ̂)² in a second fold, in order from 0.0.
    fn centred_m2(values: &[f64]) -> f64 {
        let theta = values.iter().sum::<f64>() / values.len() as f64;
        values.iter().fold(0.0, |m2, x| m2 + (x - theta) * (x - theta))
    }

    /// VARIANCE's and STDDEV's folds by their definition, each a fold of
    /// its own in order from 0.0: mean = k + Σ(x − k)/m with k the first
    /// value, then m2 = Σd² and Σd⁴, d = x − mean.
    fn centred_moments(values: &[f64]) -> (f64, f64) {
        let (k, m) = (values[0], values.len() as f64);
        let mean = k + values.iter().fold(0.0, |sum, x| sum + (x - k)) / m;
        let m2 = values.iter().fold(0.0, |m2, x| m2 + (x - mean) * (x - mean));
        let m4 = values.iter().fold(0.0, |m4, x| m4 + (x - mean) * (x - mean) * ((x - mean) * (x - mean)));
        (m2, m4)
    }

    /// σ̂ as separate folds over the values, each as `iter().sum()`,
    /// [`centred_m2`] or [`centred_moments`] makes it: what the one pass
    /// replaced, and the oracle it is held to.
    fn closed_form_std_error(agg: &Aggregate, values: &[f64], ctx: &SampleContext) -> Option<f64> {
        let n = ctx.sample_rows as f64;
        let big_n = ctx.population_rows as f64;
        let m = values.len() as f64;
        match agg {
            Aggregate::Avg => {
                if values.len() < 2 {
                    return None;
                }
                Some((centred_m2(values) / (m - 1.0) / m).sqrt())
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
                let (m2, m4) = centred_moments(values);
                let s = (m2 / (m - 1.0)).sqrt();
                if *agg == Aggregate::StdDev && s <= 0.0 {
                    return Some(0.0);
                }
                let sigma2 = m2 / m;
                let mu4 = m4 / m;
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
            Aggregate::Avg if values.is_empty() => f64::NAN,
            Aggregate::Avg => centred_m2(values) / values.len() as f64,
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
    /// bound made, bit for bit — NaN for NaN — over short and long ranges,
    /// constant and all-−0.0 ranges (the centred folds start at +0.0,
    /// `iter().sum()` at −0.0), NaN / ±Inf cells, magnitudes near 1e±300
    /// and contexts of fewer than two rows.
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
                            .filter(|se| center.is_finite() && se.is_finite())
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

    /// AVG's pass before σ̂ was centred on θ̂: θ from Σx beside a Welford
    /// chain for m2 — the reference σ̂ is held to within rounding.
    fn welford_avg(values: &[f64]) -> ClosedForm {
        let (mom, m) = (Moments::from_slice(values), values.len() as f64);
        ClosedForm {
            estimate: Aggregate::Avg.estimate(values, &SampleContext::population(values.len())),
            std_error: (m >= 2.0).then(|| (mom.variance_sample() / m).sqrt()),
            variance: mom.variance_population(),
        }
    }

    /// The centred σ̂ is the Welford chain's to within 1e-12 relative on
    /// every shape the engine meets, from 2 to 90 000 values. Where every
    /// value is the same the chain's σ̂ is exactly 0 and the centred one is
    /// the rounding of Σx/m: there it is held to 1e-12 of |θ̂|/√m, the σ̂
    /// of values as spread as they are large.
    #[test]
    fn avg_std_error_stays_within_rounding_of_welford() {
        let mut rng = rng_from_seed(13);
        let ctx = SampleContext::new(100, 10_000);
        for len in [2usize, 3, 5, 17, 64, 65, 900, 10_000, 90_000] {
            for shape in 0..5 {
                let values: Vec<f64> = (0..len)
                    .map(|_| match shape {
                        0 => sample_normal(&mut rng, 2_500.0, 600.0),
                        1 => sample_lognormal(&mut rng, 1.0, 1.0),
                        2 => sample_pareto(&mut rng, 1.0, 1.3),
                        3 => [0.1, 7.0, 7.0, 1e4][rng.random_range(0..4)],
                        _ => 417.3,
                    })
                    .collect();
                let (got, want) = (closed_form(&Aggregate::Avg, &values, &ctx).unwrap(), welford_avg(&values));
                assert_eq!(key(got.estimate), key(want.estimate), "len {len} shape {shape}");
                let at_zero = got.estimate.abs() / (len as f64).sqrt();
                let (got, want) = (got.std_error.unwrap(), want.std_error.unwrap());
                let scale = if want == 0.0 { at_zero } else { want };
                assert!((got - want).abs() <= 1e-12 * scale, "len {len} shape {shape}: {got} vs {want}");
            }
        }
    }

    /// On ranges the normal approximation cannot bound — NaN, ±Inf,
    /// values near ±1e300 whose squares overflow — the centred pass has an
    /// interval exactly where the Welford chain had one, and so on one
    /// value and on none.
    #[test]
    fn avg_hostile_ranges_have_an_interval_where_welford_had_one() {
        let coverage = Coverage::new(0.95);
        let ctx = SampleContext::new(10, 1_000);
        let mut rng = rng_from_seed(14);
        let mut hostile: Vec<Vec<f64>> = vec![vec![], vec![3.5], vec![-0.0]];
        for special in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1e300, -1e300] {
            for len in [1usize, 2, 3, 8, 70] {
                for at in [0, len / 2, len - 1] {
                    let mut values: Vec<f64> = (0..len).map(|_| sample_lognormal(&mut rng, 1.0, 0.8)).collect();
                    values[at] = special;
                    hostile.push(values.clone());
                    values.iter_mut().for_each(|x| *x *= special.abs().min(1e300));
                    hostile.push(values);
                }
            }
        }
        hostile.push(vec![f64::INFINITY, f64::NEG_INFINITY, 1.0]);
        hostile.push(vec![1e300, -1e300, 1e300, -1e300]);
        // Equal values past 1.34e154 are no spread: a first push that
        // squared one would make the chain's m2 x² · 0 = NaN.
        hostile.push(vec![1e300; 5]);
        for values in &hostile {
            let (got, want) = (closed_form(&Aggregate::Avg, values, &ctx).unwrap(), welford_avg(values));
            assert_eq!(key(got.estimate), key(want.estimate), "{values:?}");
            assert_eq!(got.ci(coverage).is_some(), want.ci(coverage).is_some(), "{values:?}: {got:?} vs {want:?}");
        }
    }

    /// Welford's chain with m3 and m4 (Pébay's update), as `Moments` pushed
    /// them before VARIANCE and STDDEV were centred: its count, mean, m2
    /// and m4, the reference the centred folds are held to within rounding.
    fn welford_moments(values: &[f64]) -> (f64, f64, f64) {
        let (mut mean, mut n, mut m2, mut m3, mut m4) = (0.0f64, 0.0f64, 0.0f64, 0.0f64, 0.0f64);
        for &x in values {
            if n == 0.0 && x.is_finite() {
                (n, mean) = (1.0, mean + x);
                continue;
            }
            let n1 = n;
            n += 1.0;
            let delta = x - mean;
            let delta_n = delta / n;
            let delta_n2 = delta_n * delta_n;
            let term1 = delta * delta_n * n1;
            mean += delta_n;
            m4 += term1 * delta_n2 * (n * n - 3.0 * n + 3.0) + 6.0 * delta_n2 * m2 - 4.0 * delta_n * m3;
            m3 += term1 * delta_n * (n - 2.0) - 3.0 * delta_n * m2;
            m2 += term1;
        }
        (n, m2, m4)
    }

    /// VARIANCE's or STDDEV's pass as the Welford chain made it.
    fn welford_variance(agg: &Aggregate, values: &[f64]) -> ClosedForm {
        let (n, m2, m4) = welford_moments(values);
        let s2 = if n < 2.0 { f64::NAN } else { m2 / (n - 1.0) };
        let estimate = if *agg == Aggregate::StdDev { s2.sqrt() } else { s2 };
        let std_error = (n >= 4.0).then(|| {
            let sigma2 = m2 / n;
            let var_s2 = ((m4 / n - sigma2 * sigma2) / n).max(0.0);
            match agg {
                Aggregate::StdDev if estimate <= 0.0 => 0.0,
                Aggregate::StdDev => var_s2.sqrt() / (2.0 * estimate),
                _ => var_s2.sqrt(),
            }
        });
        ClosedForm { estimate, std_error, variance: f64::NAN }
    }

    /// θ and σ̂ of VARIANCE and STDDEV from the centred folds are the
    /// Welford chain's to within 1e-12 relative on every shape the engine
    /// meets, from 4 to 90 000 values; on a constant range both are
    /// exactly 0. The chain's θ is `Moments`' to the bit.
    #[test]
    fn variance_stays_within_rounding_of_welford() {
        let mut rng = rng_from_seed(15);
        let ctx = SampleContext::new(100, 10_000);
        let close = |got: f64, want: f64| (got - want).abs() <= 1e-12 * want.abs();
        for len in [4usize, 5, 17, 64, 65, 900, 10_000, 90_000] {
            for shape in 0..5 {
                let values: Vec<f64> = (0..len)
                    .map(|_| match shape {
                        0 => sample_normal(&mut rng, 2_500.0, 600.0),
                        1 => sample_lognormal(&mut rng, 1.0, 1.0),
                        2 => sample_pareto(&mut rng, 1.0, 1.3),
                        3 => [0.1, 7.0, 7.0, 1e4][rng.random_range(0..4)],
                        _ => 417.3,
                    })
                    .collect();
                assert_eq!(
                    welford_variance(&Aggregate::Variance, &values).estimate.to_bits(),
                    Moments::from_slice(&values).variance_sample().to_bits()
                );
                for agg in [Aggregate::Variance, Aggregate::StdDev] {
                    let (got, want) = (closed_form(&agg, &values, &ctx).unwrap(), welford_variance(&agg, &values));
                    let what = format!("{agg} len {len} shape {shape}: {got:?} vs {want:?}");
                    assert!(close(got.estimate, want.estimate), "{what}");
                    assert!(close(got.std_error.unwrap(), want.std_error.unwrap()), "{what}");
                    if shape == 4 {
                        assert_eq!((got.estimate, got.std_error), (0.0, Some(0.0)), "{what}");
                    }
                }
            }
        }
    }

    /// On ranges the normal approximation cannot bound — NaN, ±Inf,
    /// values near ±1e300 whose squares overflow — the centred folds have
    /// a finite θ and an interval exactly where the Welford chain had
    /// them, and so on ranges of fewer than four values and on none.
    /// Equal values past 1.34e154 are the constant ranges of this kind:
    /// both give θ = 0 and σ̂ = 0 there.
    #[test]
    fn variance_hostile_ranges_have_an_interval_where_welford_had_one() {
        let coverage = Coverage::new(0.95);
        let ctx = SampleContext::new(10, 1_000);
        let mut rng = rng_from_seed(16);
        let mut hostile: Vec<Vec<f64>> = vec![vec![], vec![3.5], vec![-0.0; 4]];
        for special in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1e300, -1e300] {
            for len in [1usize, 2, 3, 4, 8, 70] {
                for at in [0, len / 2, len - 1] {
                    let mut values: Vec<f64> = (0..len).map(|_| sample_lognormal(&mut rng, 1.0, 0.8)).collect();
                    values[at] = special;
                    hostile.push(values.clone());
                    values.iter_mut().for_each(|x| *x *= special.abs().min(1e300));
                    hostile.push(values);
                }
            }
        }
        hostile.push(vec![f64::INFINITY, f64::NEG_INFINITY, 1.0, 2.0]);
        hostile.push(vec![1e300, -1e300, 1e300, -1e300]);
        for big in [1.35e154, 1e200, 1e300, -1e300, f64::MAX] {
            hostile.push(vec![big; 5]);
        }
        for values in &hostile {
            for agg in [Aggregate::Variance, Aggregate::StdDev] {
                let (got, want) = (closed_form(&agg, values, &ctx).unwrap(), welford_variance(&agg, values));
                let what = format!("{agg} {values:?}: {got:?} vs {want:?}");
                assert_eq!(got.estimate.is_finite(), want.estimate.is_finite(), "{what}");
                assert_eq!(got.ci(coverage).is_some(), want.ci(coverage).is_some(), "{what}");
            }
        }
    }

    /// Equal values past 1.34e154 have no spread: VARIANCE and STDDEV are
    /// 0 and their closed form's σ̂ is finite, though the first value's
    /// square overflows.
    #[test]
    fn equal_huge_values_have_zero_variance() {
        let ctx = SampleContext::new(5, 50);
        for agg in [Aggregate::Variance, Aggregate::StdDev] {
            assert_eq!(agg.estimate(&[1e300; 5], &ctx), 0.0, "{agg}");
            let pass = closed_form(&agg, &[1e300; 5], &ctx).unwrap();
            assert_eq!(pass.estimate, 0.0, "{agg}");
            assert!(pass.std_error.is_some_and(f64::is_finite), "{agg}: {pass:?}");
        }
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
