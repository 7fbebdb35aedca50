//! Streaming moments (Welford) and weighted variants.
//!
//! These accumulators power both the closed-form variance estimates (§2.3.2)
//! and the weighted aggregate operators the engine uses after scan
//! consolidation (§5.3.1), where each tuple carries a Poisson resample
//! weight instead of being physically duplicated.

use serde::{Deserialize, Serialize};

/// Single-pass accumulator for count, mean, variance and the fourth
/// central moment (needed for the closed-form variance-of-variance).
///
/// The count is an `f64`, exact below 2⁵³ and so the value the integer
/// would convert to, without a conversion per push. The mean comes first
/// and the count next to it: the compiler may pair a field's update with
/// its neighbour's in one vector add, and paired with m2's the mean's
/// update would wait for the two products m2 adds — 11 ns a value
/// against 7 on a 2-vCPU x86-64 VM (DESIGN §4 item 12).
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct Moments {
    mean: f64,
    n: f64,
    m2: f64,
    m3: f64,
    m4: f64,
}

impl Moments {
    /// An empty accumulator.
    pub fn new() -> Self {
        Moments { mean: 0.0, n: 0.0, m2: 0.0, m3: 0.0, m4: 0.0 }
    }

    /// Accumulate one observation.
    ///
    /// A finite first value starts the chain at mean = x, m2 = m3 = m4 = 0
    /// — what the update below makes of it, except that the update squares
    /// x, and past ~1.34e154 that is ∞, and ∞ · 0 a NaN for good.
    #[inline]
    pub fn push(&mut self, x: f64) {
        if self.n == 0.0 && x.is_finite() {
            (self.n, self.mean) = (1.0, self.mean + x);
            return;
        }
        let n1 = self.n;
        self.n += 1.0;
        let n = self.n;
        let delta = x - self.mean;
        let delta_n = delta / n;
        let delta_n2 = delta_n * delta_n;
        let term1 = delta * delta_n * n1;
        self.mean += delta_n;
        self.m4 += term1 * delta_n2 * (n * n - 3.0 * n + 3.0)
            + 6.0 * delta_n2 * self.m2
            - 4.0 * delta_n * self.m3;
        self.m3 += term1 * delta_n * (n - 2.0) - 3.0 * delta_n * self.m2;
        self.m2 += term1;
    }

    /// Accumulate a slice.
    pub fn extend(&mut self, xs: &[f64]) {
        for &x in xs {
            self.push(x);
        }
    }

    /// Build from a slice.
    pub fn from_slice(xs: &[f64]) -> Self {
        let mut m = Moments::new();
        m.extend(xs);
        m
    }

    /// Merge another accumulator into this one (parallel reduction; the
    /// standard pairwise update of Chan et al., extended to m3/m4).
    pub fn merge(&mut self, other: &Moments) {
        if other.n == 0.0 {
            return;
        }
        if self.n == 0.0 {
            *self = *other;
            return;
        }
        let (na, nb) = (self.n, other.n);
        let n = na + nb;
        let delta = other.mean - self.mean;
        let delta2 = delta * delta;
        let delta3 = delta2 * delta;
        let delta4 = delta2 * delta2;

        let m4 = self.m4
            + other.m4
            + delta4 * na * nb * (na * na - na * nb + nb * nb) / (n * n * n)
            + 6.0 * delta2 * (na * na * other.m2 + nb * nb * self.m2) / (n * n)
            + 4.0 * delta * (na * other.m3 - nb * self.m3) / n;
        let m3 = self.m3
            + other.m3
            + delta3 * na * nb * (na - nb) / (n * n)
            + 3.0 * delta * (na * other.m2 - nb * self.m2) / n;
        let m2 = self.m2 + other.m2 + delta2 * na * nb / n;

        self.mean = (na * self.mean + nb * other.mean) / n;
        self.m2 = m2;
        self.m3 = m3;
        self.m4 = m4;
        self.n += other.n;
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n as u64
    }

    /// Mean (NaN when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0.0 {
            f64::NAN
        } else {
            self.mean
        }
    }

    /// Population variance (divides by n; NaN when empty).
    pub fn variance_population(&self) -> f64 {
        if self.n == 0.0 {
            f64::NAN
        } else {
            self.m2 / self.n
        }
    }

    /// Sample variance (divides by n-1; NaN when n < 2).
    pub fn variance_sample(&self) -> f64 {
        if self.n < 2.0 {
            f64::NAN
        } else {
            self.m2 / (self.n - 1.0)
        }
    }

    /// Sample standard deviation.
    pub fn std_dev_sample(&self) -> f64 {
        self.variance_sample().sqrt()
    }

    /// Fourth central moment (population normalization).
    pub fn fourth_central_moment(&self) -> f64 {
        if self.n == 0.0 {
            f64::NAN
        } else {
            self.m4 / self.n
        }
    }
}

/// Weighted accumulator where each observation carries an integer
/// resample weight (the Poissonized multiplicity of §5.1). Equivalent to
/// pushing the observation `w` times into [`Moments`], but O(1).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct WeightedMoments {
    w_sum: u64,
    mean: f64,
    m2: f64,
}

impl WeightedMoments {
    /// An empty accumulator.
    pub fn new() -> Self {
        WeightedMoments { w_sum: 0, mean: 0.0, m2: 0.0 }
    }

    /// Accumulate `x` with integer weight `w` (weight 0 is a no-op —
    /// "the row does not appear in this resample").
    #[inline]
    pub fn push(&mut self, x: f64, w: u32) {
        if w == 0 {
            return;
        }
        let w = w as u64;
        let new_w = self.w_sum + w;
        let delta = x - self.mean;
        let r = delta * (w as f64) / new_w as f64;
        self.mean += r;
        self.m2 += self.w_sum as f64 * delta * r;
        self.w_sum = new_w;
    }

    /// Total weight (the resample's effective row count).
    pub fn weight(&self) -> u64 {
        self.w_sum
    }

    /// Weighted mean (NaN when total weight is 0).
    pub fn mean(&self) -> f64 {
        if self.w_sum == 0 {
            f64::NAN
        } else {
            self.mean
        }
    }

    /// Weighted population variance.
    pub fn variance_population(&self) -> f64 {
        if self.w_sum == 0 {
            f64::NAN
        } else {
            self.m2 / self.w_sum as f64
        }
    }

    /// Weighted "sample" variance with the frequency-weights correction
    /// (divides by total weight − 1).
    pub fn variance_sample(&self) -> f64 {
        if self.w_sum < 2 {
            f64::NAN
        } else {
            self.m2 / (self.w_sum - 1) as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() <= tol, "{a} vs {b}");
    }

    #[test]
    fn basic_moments() {
        let m = Moments::from_slice(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(m.count(), 8);
        assert_close(m.mean(), 5.0, 1e-12);
        assert_close(m.variance_population(), 4.0, 1e-12);
        assert_close(m.variance_sample(), 32.0 / 7.0, 1e-12);
    }

    #[test]
    fn empty_moments_are_nan() {
        let m = Moments::new();
        assert!(m.mean().is_nan());
        assert!(m.variance_population().is_nan());
        assert_eq!(m.count(), 0);
    }

    #[test]
    fn fourth_moment_matches_direct_computation() {
        let xs = [1.0, 2.0, 2.5, 3.0, 10.0, -4.0, 0.5];
        let m = Moments::from_slice(&xs);
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let mu4 = xs.iter().map(|x| (x - mean).powi(4)).sum::<f64>() / xs.len() as f64;
        assert_close(m.fourth_central_moment(), mu4, 1e-9);
    }

    #[test]
    fn merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| ((i * 37) % 17) as f64 - 5.0).collect();
        let full = Moments::from_slice(&xs);
        let mut a = Moments::from_slice(&xs[..33]);
        let b = Moments::from_slice(&xs[33..]);
        a.merge(&b);
        assert_eq!(a.count(), full.count());
        assert_close(a.mean(), full.mean(), 1e-12);
        assert_close(a.variance_population(), full.variance_population(), 1e-9);
        assert_close(a.fourth_central_moment(), full.fourth_central_moment(), 1e-7);
    }

    #[test]
    fn merge_with_empty() {
        let mut a = Moments::new();
        let b = Moments::from_slice(&[1.0, 2.0]);
        a.merge(&b);
        assert_close(a.mean(), 1.5, 1e-12);
        let mut c = Moments::from_slice(&[1.0, 2.0]);
        c.merge(&Moments::new());
        assert_close(c.mean(), 1.5, 1e-12);
    }

    #[test]
    fn weighted_equals_duplicated() {
        let xs = [3.0, -1.0, 4.0, 1.0, 5.0];
        let ws = [2u32, 0, 1, 3, 1];
        let mut w = WeightedMoments::new();
        let mut dup = Moments::new();
        for (&x, &wt) in xs.iter().zip(&ws) {
            w.push(x, wt);
            for _ in 0..wt {
                dup.push(x);
            }
        }
        assert_eq!(w.weight(), dup.count());
        assert_close(w.mean(), dup.mean(), 1e-12);
        assert_close(w.variance_population(), dup.variance_population(), 1e-9);
        assert_close(w.variance_sample(), dup.variance_sample(), 1e-9);
    }

    #[test]
    fn weighted_zero_weight_rows_invisible() {
        let mut w = WeightedMoments::new();
        w.push(100.0, 0); // not in the resample
        w.push(1.0, 1);
        assert_eq!(w.weight(), 1);
        assert_close(w.mean(), 1.0, 1e-12);
        assert_close(w.variance_population(), 0.0, 0.0);
    }
}

