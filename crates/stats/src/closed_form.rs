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

use crate::ci::Ci;
use crate::dist::normal_quantile;
use crate::estimator::{Aggregate, SampleContext};
use crate::moments::Moments;

/// The closed-form standard error of `agg` evaluated on `values` under
/// `ctx`, or `None` when no closed form exists for the aggregate.
pub fn closed_form_std_error(
    agg: &Aggregate,
    values: &[f64],
    ctx: &SampleContext,
) -> Option<f64> {
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
            // Small-sample (n-1) correction on the y-variance.
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
        Aggregate::Variance => {
            if values.len() < 4 {
                return None;
            }
            let mom = Moments::from_slice(values);
            let sigma2 = mom.variance_population();
            let mu4 = mom.fourth_central_moment();
            let var_s2 = ((mu4 - sigma2 * sigma2) / m).max(0.0);
            Some(var_s2.sqrt())
        }
        Aggregate::StdDev => {
            if values.len() < 4 {
                return None;
            }
            let mom = Moments::from_slice(values);
            let s = mom.std_dev_sample();
            if s <= 0.0 {
                return Some(0.0);
            }
            let sigma2 = mom.variance_population();
            let mu4 = mom.fourth_central_moment();
            let var_s2 = ((mu4 - sigma2 * sigma2) / m).max(0.0);
            Some(var_s2.sqrt() / (2.0 * s))
        }
        // §2.3.2: "in some cases, like MIN, MAX, and black-box UDFs,
        // closed-form estimates are unknown."
        Aggregate::Min | Aggregate::Max | Aggregate::Percentile(_) => None,
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
    let se = closed_form_std_error(agg, values, ctx)?;
    let center = crate::estimator::QueryEstimator::estimate(agg, values, ctx);
    let z = normal_quantile(0.5 + alpha / 2.0);
    if center.is_nan() || se.is_nan() || z.is_nan() || z < 0.0 {
        return None;
    }
    Some(Ci::new(center, z * se, alpha))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{sample_lognormal, sample_normal};
    use crate::estimator::QueryEstimator;
    use crate::rng::rng_from_seed;

    #[test]
    fn avg_se_is_s_over_sqrt_m() {
        let values: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let ctx = SampleContext::new(100, 10_000);
        let se = closed_form_std_error(&Aggregate::Avg, &values, &ctx).unwrap();
        let s2 = Moments::from_slice(&values).variance_sample();
        assert!((se - (s2 / 100.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn count_se_binomial() {
        // 300 of 1000 sample rows survive, population 1e6.
        let values = vec![1.0; 300];
        let ctx = SampleContext::new(1000, 1_000_000);
        let se = closed_form_std_error(&Aggregate::Count, &values, &ctx).unwrap();
        let expect = 1_000_000.0 * (0.3f64 * 0.7 / 1000.0).sqrt();
        assert!((se - expect).abs() < 1e-6);
    }

    #[test]
    fn sum_se_accounts_for_selectivity() {
        // All rows pass, constant value: Var(y) from the correction term only.
        let values = vec![5.0; 1000];
        let ctx = SampleContext::new(1000, 10_000);
        let se = closed_form_std_error(&Aggregate::Sum, &values, &ctx).unwrap();
        // Constant data w/ full selectivity → y constant → SE ≈ 0.
        assert!(se < 1e-9, "se {se}");
        // Half the rows pass with value 5: Var(y) = 25·q(1−q).
        let values = vec![5.0; 500];
        let se = closed_form_std_error(&Aggregate::Sum, &values, &ctx).unwrap();
        let var_y: f64 = 25.0 * 0.5 * 0.5 * (1000.0 / 999.0);
        let expect = 10_000.0 * (var_y / 1000.0f64).sqrt();
        assert!((se - expect).abs() / expect < 1e-9, "se {se} vs {expect}");
    }

    #[test]
    fn no_closed_form_for_min_max_percentile() {
        let values = vec![1.0, 2.0, 3.0];
        let ctx = SampleContext::new(3, 3);
        assert!(closed_form_std_error(&Aggregate::Min, &values, &ctx).is_none());
        assert!(closed_form_std_error(&Aggregate::Max, &values, &ctx).is_none());
        assert!(closed_form_std_error(&Aggregate::Percentile(0.5), &values, &ctx).is_none());
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
        let se_s = closed_form_std_error(&Aggregate::Variance, &small, &ctx_s).unwrap();
        let se_l = closed_form_std_error(&Aggregate::Variance, &large, &ctx_l).unwrap();
        assert!(se_l < se_s, "se_l {se_l} vs se_s {se_s}");
    }

    #[test]
    fn stddev_delta_method_relationship() {
        let values: Vec<f64> = (0..1000).map(|i| ((i * 31) % 100) as f64).collect();
        let ctx = SampleContext::new(1000, 1000);
        let se_var = closed_form_std_error(&Aggregate::Variance, &values, &ctx).unwrap();
        let se_sd = closed_form_std_error(&Aggregate::StdDev, &values, &ctx).unwrap();
        let s = Aggregate::StdDev.estimate(&values, &ctx);
        assert!((se_sd - se_var / (2.0 * s)).abs() < 1e-12);
    }

    #[test]
    fn too_small_samples_yield_none() {
        let ctx = SampleContext::new(1, 10);
        assert!(closed_form_std_error(&Aggregate::Avg, &[1.0], &ctx).is_none());
        assert!(closed_form_std_error(&Aggregate::Variance, &[1.0, 2.0, 3.0], &ctx).is_none());
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
