//! Streaming moments (Welford) and weighted variants.
//!
//! [`WeightedMoments`] is the weighted aggregate operator the engine uses
//! after scan consolidation (§5.3.1), where each tuple carries a Poisson
//! resample weight instead of being physically duplicated.

use serde::{Deserialize, Serialize};

/// Single-pass accumulator for the count, mean and variance: Welford's
/// recurrence, a divide per value. The plain `cov` UDF folds with it; the
/// built-in VARIANCE and STDDEV fold twice with no divide instead
/// ([`crate::estimator::Accumulator`]).
///
/// The count is an `f64`, exact below 2⁵³ and so the value the integer
/// would convert to, without a conversion per push. The mean comes first
/// and the count next to it: the compiler may pair a field's update with
/// its neighbour's in one vector add, and paired with m2's the mean's
/// update would wait for the product m2 adds.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct Moments {
    mean: f64,
    n: f64,
    m2: f64,
}

impl Moments {
    /// An empty accumulator.
    pub fn new() -> Self {
        Moments { mean: 0.0, n: 0.0, m2: 0.0 }
    }

    /// Accumulate one observation.
    ///
    /// A finite first value starts the chain at mean = x, m2 = 0 — what
    /// the update below makes of it, except that the update squares x, and
    /// past ~1.34e154 that is ∞, and ∞ · 0 a NaN for good.
    #[inline]
    pub fn push(&mut self, x: f64) {
        if self.n == 0.0 && x.is_finite() {
            (self.n, self.mean) = (1.0, self.mean + x);
            return;
        }
        let n1 = self.n;
        self.n += 1.0;
        let delta = x - self.mean;
        let delta_n = delta / self.n;
        self.mean += delta_n;
        self.m2 += delta * delta_n * n1;
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

