//! Resampling: Poissonized (§5.1) and exact multinomial (the TA/ODM-style
//! baseline it replaces).
//!
//! A bootstrap resample of a sample S of size n is classically n draws
//! with replacement from S. The paper's key systems insight is that the
//! exact-size constraint can be dropped: assigning each row an independent
//! Poisson(1) count produces a resample whose size is `Σ Poisson(1) ≈
//! Normal(n, √n)` — "very close to |S| with high probability" — while
//! being embarrassingly parallel, streaming, and memory-free. The exact
//! multinomial resampler is kept as the measured baseline (the paper cites
//! Pol & Jermaine's finding that exact with-replacement resampling was
//! 8–9× slower than the non-bootstrapped query).

use rand::{Rng, RngExt};

use crate::dist::Poisson1;

/// Generate one Poissonized weight vector: `out[i] ~ iid Poisson(1)`.
pub fn poisson_weights<R: Rng>(rng: &mut R, n: usize) -> Vec<u32> {
    let mut out = vec![0u32; n];
    Poisson1.fill(rng, &mut out);
    out
}

/// Exact multinomial resample: draw exactly `n` row indices with
/// replacement and return per-row counts. O(n) time but requires
/// materializing the full count vector under a global sum constraint —
/// the coupling §5.1 identifies as the obstacle to distributed execution.
pub fn exact_resample_counts<R: Rng>(rng: &mut R, n: usize) -> Vec<u32> {
    let mut counts = vec![0u32; n];
    for _ in 0..n {
        counts[rng.random_range(0..n)] += 1;
    }
    counts
}

/// The total size of a weight-encoded resample.
pub fn resample_size(weights: &[u32]) -> u64 {
    weights.iter().map(|&w| w as u64).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::rng_from_seed;

    #[test]
    fn poisson_weights_have_unit_mean() {
        let mut rng = rng_from_seed(1);
        let w = poisson_weights(&mut rng, 100_000);
        let mean = resample_size(&w) as f64 / w.len() as f64;
        assert!((mean - 1.0).abs() < 0.02, "mean weight {mean}");
    }

    #[test]
    fn poissonized_size_concentrates() {
        // §5.1: for |S| = 10,000, P(size ∈ [9500, 10500]) ≈ 0.9999994, so
        // sizes stay within ±5% across many resamples.
        let mut rng = rng_from_seed(2);
        for _ in 0..200 {
            let w = poisson_weights(&mut rng, 10_000);
            let s = resample_size(&w);
            assert!((9_500..=10_500).contains(&s), "resample size {s}");
        }
    }

    #[test]
    fn exact_resample_sums_to_n() {
        let mut rng = rng_from_seed(3);
        for n in [1usize, 10, 1000] {
            let counts = exact_resample_counts(&mut rng, n);
            assert_eq!(resample_size(&counts), n as u64);
            assert_eq!(counts.len(), n);
        }
    }

    #[test]
    fn determinism_under_fixed_seed() {
        let a = poisson_weights(&mut rng_from_seed(9), 100);
        let b = poisson_weights(&mut rng_from_seed(9), 100);
        assert_eq!(a, b);
    }
}
