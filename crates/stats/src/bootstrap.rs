//! Efron's nonparametric bootstrap over Poissonized resamples (§2.3.1).
//!
//! Given a sample S and a query θ, the bootstrap estimates the sampling
//! distribution Dist(θ(S)) by computing θ on K resamples of S and returns
//! the symmetric centered confidence interval around θ(S) covering α of
//! the replicate distribution.

use std::sync::OnceLock;

use rand::Rng;

use crate::ci::{ci_from_draws, Ci};
use crate::dist::Poisson1;
use crate::estimator::{QueryEstimator, SampleContext};

/// Default number of bootstrap resamples (the paper uses K = 100 and notes
/// it "can be tuned automatically").
pub const DEFAULT_REPLICATES: usize = 100;

/// Count resamples drawn on the global metrics registry
/// (`aqp.stats.bootstrap_resamples`). The handle is cached so the hot
/// path pays one atomic add, no registry lock.
pub fn count_resamples(k: usize) {
    static C: OnceLock<aqp_obs::Counter> = OnceLock::new();
    C.get_or_init(|| {
        aqp_obs::MetricsRegistry::global().counter(aqp_obs::name::STATS_BOOTSTRAP_RESAMPLES)
    })
    .add(k as u64);
}

/// The replicate loop — the only one: `k` Poissonized resamples of `rows`
/// rows, each drawn into one reused weight buffer (one `next_u64` per row,
/// replicate-major) and handed to `replicate`, θ prepared for this job
/// ([`QueryEstimator::replicator`], or the nested-plan one in `aqp-exec`).
///
/// O(n) scratch regardless of k, matching §5.1's "no extra memory if each
/// tuple is immediately pipelined".
pub fn bootstrap_replicates<R: Rng>(
    rng: &mut R,
    rows: usize,
    k: usize,
    replicate: &mut dyn FnMut(&[u32]) -> f64,
) -> Vec<f64> {
    count_resamples(k);
    let mut weights = vec![0u32; rows];
    (0..k)
        .map(|_| {
            Poisson1.fill(rng, &mut weights);
            replicate(&weights)
        })
        .collect()
}

/// The bootstrap confidence interval around `center` = θ(S): half-width
/// covering `alpha` of the distribution of `k` replicates of `replicate`.
///
/// Replicates that evaluate to NaN (e.g. an empty resample hitting AVG)
/// are dropped; if all replicates are NaN, or `center` is, the result is
/// `None`.
pub fn bootstrap_ci_around<R: Rng>(
    rng: &mut R,
    center: f64,
    rows: usize,
    replicate: &mut dyn FnMut(&[u32]) -> f64,
    k: usize,
    alpha: f64,
) -> Option<Ci> {
    if center.is_nan() {
        return None;
    }
    let mut replicates = bootstrap_replicates(rng, rows, k, replicate);
    replicates.retain(|r| !r.is_nan());
    if replicates.is_empty() {
        return None;
    }
    Some(ci_from_draws(center, &replicates, alpha))
}

/// [`bootstrap_ci_around`] θ(S) for a single-level θ over `values`.
pub fn bootstrap_ci<R: Rng>(
    rng: &mut R,
    values: &[f64],
    ctx: &SampleContext,
    theta: &dyn QueryEstimator,
    k: usize,
    alpha: f64,
) -> Option<Ci> {
    let center = theta.estimate(values, ctx);
    bootstrap_ci_around(rng, center, values.len(), &mut *theta.replicator(values, ctx), k, alpha)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::sample_normal;
    use crate::estimator::Aggregate;
    use crate::rng::rng_from_seed;

    #[test]
    fn bootstrap_se_matches_clt_for_avg() {
        // For AVG of iid data, bootstrap SE should approximate s/√n, so the
        // 95% half-width should be near 1.96·s/√n.
        let mut rng = rng_from_seed(1);
        let n = 2_000;
        let values: Vec<f64> = (0..n).map(|_| sample_normal(&mut rng, 10.0, 3.0)).collect();
        let ctx = SampleContext::new(n, 1_000_000);
        let ci = bootstrap_ci(&mut rng, &values, &ctx, &Aggregate::Avg, 200, 0.95).unwrap();
        let clt_hw = 1.96 * 3.0 / (n as f64).sqrt();
        assert!(
            (ci.half_width - clt_hw).abs() / clt_hw < 0.25,
            "bootstrap hw {} vs CLT {}",
            ci.half_width,
            clt_hw
        );
        assert!((ci.center - 10.0).abs() < 0.3);
    }

    #[test]
    fn replicate_count_respected() {
        let mut rng = rng_from_seed(2);
        let values = vec![1.0; 100];
        let ctx = SampleContext::new(100, 1000);
        let mut avg = Aggregate::Avg.replicator(&values, &ctx);
        let reps = bootstrap_replicates(&mut rng, 100, 37, &mut *avg);
        assert_eq!(reps.len(), 37);
        // AVG of constant data is constant in every non-empty resample.
        assert!(reps.iter().all(|&r| r == 1.0 || r.is_nan()));
    }

    #[test]
    fn filtered_count_replicates_vary_and_match_binomial_sd() {
        let mut rng = rng_from_seed(3);
        // 1000 of 10,000 sample rows pass the filter (q = 0.1).
        let values = vec![1.0; 1000];
        let ctx = SampleContext::new(10_000, 100_000);
        let mut count = Aggregate::Count.replicator(&values, &ctx);
        let reps = bootstrap_replicates(&mut rng, 1000, 400, &mut *count);
        let mean = reps.iter().sum::<f64>() / reps.len() as f64;
        assert!((mean - 10_000.0).abs() < 150.0, "mean {mean}");
        let var = reps.iter().map(|r| (r - mean).powi(2)).sum::<f64>() / reps.len() as f64;
        // Binomial truth: sd = scale·sqrt(n·q(1−q)) = 10·30 = 300.
        let sd = var.sqrt();
        assert!((sd - 300.0).abs() < 60.0, "sd {sd} (binomial target 300)");
    }

    #[test]
    fn unfiltered_count_replicates_are_constant() {
        // Sampling n rows always yields n rows: COUNT(*) with no filter
        // has zero sampling error, and the size-centered statistic agrees.
        let mut rng = rng_from_seed(4);
        let values = vec![1.0; 1000];
        let ctx = SampleContext::new(1000, 10_000);
        let mut count = Aggregate::Count.replicator(&values, &ctx);
        let reps = bootstrap_replicates(&mut rng, 1000, 50, &mut *count);
        assert!(reps.iter().all(|&r| (r - 10_000.0).abs() < 1e-9), "{reps:?}");
    }

    #[test]
    fn empty_values_give_none_for_avg() {
        let mut rng = rng_from_seed(5);
        let ctx = SampleContext::new(0, 100);
        assert!(bootstrap_ci(&mut rng, &[], &ctx, &Aggregate::Avg, 10, 0.95).is_none());
    }

    #[test]
    fn deterministic_given_seed() {
        let values: Vec<f64> = (0..500).map(|i| (i % 13) as f64).collect();
        let ctx = SampleContext::new(500, 5000);
        let a = bootstrap_ci(&mut rng_from_seed(7), &values, &ctx, &Aggregate::Sum, 100, 0.95);
        let b = bootstrap_ci(&mut rng_from_seed(7), &values, &ctx, &Aggregate::Sum, 100, 0.95);
        assert_eq!(a, b);
    }

    #[test]
    fn wider_alpha_wider_interval() {
        let mut rng = rng_from_seed(8);
        let values: Vec<f64> = (0..1000).map(|i| (i % 97) as f64).collect();
        let ctx = SampleContext::new(1000, 100_000);
        let ci90 =
            bootstrap_ci(&mut rng_from_seed(9), &values, &ctx, &Aggregate::Avg, 200, 0.90).unwrap();
        let ci99 =
            bootstrap_ci(&mut rng_from_seed(9), &values, &ctx, &Aggregate::Avg, 200, 0.99).unwrap();
        assert!(ci99.half_width >= ci90.half_width);
        let _ = &mut rng;
    }
}
