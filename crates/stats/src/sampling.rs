//! Random index generation for drawing samples.
//!
//! The storage layer stores samples given index vectors; this module
//! produces those vectors. Simple random sampling with replacement is the
//! paper's baseline model (§2.1); without-replacement and full
//! permutations are provided for sample construction (samples are stored
//! shuffled so that any contiguous range is itself a uniform sample).

use rand::{Rng, RngExt};

/// `n` indices drawn uniformly with replacement from `0..len`; none when
/// `len` is 0, an empty population having no row to draw.
pub fn with_replacement_indices<R: Rng>(rng: &mut R, n: usize, len: usize) -> Vec<usize> {
    if len == 0 {
        return Vec::new();
    }
    (0..n).map(|_| rng.random_range(0..len)).collect()
}

/// `n` distinct indices drawn uniformly without replacement from `0..len`,
/// in random order (partial Fisher–Yates, O(len) memory, O(n) swaps); all
/// `len` of them when `n` asks for more than exist.
pub fn without_replacement_indices<R: Rng>(
    rng: &mut R,
    n: usize,
    len: usize,
) -> Vec<usize> {
    let n = n.min(len);
    let mut pool: Vec<usize> = (0..len).collect();
    for i in 0..n {
        let j = rng.random_range(i..len);
        pool.swap(i, j);
    }
    pool.truncate(n);
    pool
}

/// A uniformly random permutation of `0..len` (Fisher–Yates).
pub fn permutation<R: Rng>(rng: &mut R, len: usize) -> Vec<usize> {
    without_replacement_indices(rng, len, len)
}

/// Gather `values[i]` for each sampled index — the one-column case used
/// throughout the stats-level experiment harnesses.
pub fn gather(values: &[f64], indices: &[usize]) -> Vec<f64> {
    indices.iter().map(|&i| values[i]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::rng_from_seed;

    #[test]
    fn with_replacement_in_range() {
        let mut rng = rng_from_seed(1);
        let idx = with_replacement_indices(&mut rng, 1000, 10);
        assert_eq!(idx.len(), 1000);
        assert!(idx.iter().all(|&i| i < 10));
        // With 1000 draws over 10 buckets, every bucket is hit w.h.p.
        for b in 0..10 {
            assert!(idx.contains(&b), "bucket {b} never drawn");
        }
    }

    #[test]
    fn without_replacement_distinct() {
        let mut rng = rng_from_seed(2);
        let idx = without_replacement_indices(&mut rng, 50, 100);
        let mut sorted = idx.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 50);
        assert!(idx.iter().all(|&i| i < 100));
    }

    #[test]
    fn overdraws_and_empty_populations_saturate() {
        let mut rng = rng_from_seed(3);
        let mut all = without_replacement_indices(&mut rng, 11, 10);
        all.sort_unstable();
        assert_eq!(all, (0..10).collect::<Vec<_>>());
        assert!(with_replacement_indices(&mut rng, 5, 0).is_empty());
        assert!(without_replacement_indices(&mut rng, 5, 0).is_empty());
    }

    #[test]
    fn permutation_is_bijective() {
        let mut rng = rng_from_seed(4);
        let p = permutation(&mut rng, 100);
        let mut sorted = p.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn permutation_actually_shuffles() {
        let mut rng = rng_from_seed(5);
        let p = permutation(&mut rng, 100);
        assert_ne!(p, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn gather_picks_values() {
        assert_eq!(gather(&[10.0, 20.0, 30.0], &[2, 0, 2]), vec![30.0, 10.0, 30.0]);
    }

    #[test]
    fn uniformity_rough_check() {
        let mut rng = rng_from_seed(6);
        let idx = with_replacement_indices(&mut rng, 100_000, 4);
        let mut counts = [0usize; 4];
        for i in idx {
            counts[i] += 1;
        }
        for c in counts {
            let frac = c as f64 / 100_000.0;
            assert!((frac - 0.25).abs() < 0.01, "frac {frac}");
        }
    }
}
