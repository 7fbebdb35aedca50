//! Symmetric centered confidence intervals, the ground-truth "true
//! confidence interval", and the δ accuracy metric (§2.2).
//!
//! The paper evaluates error-estimation procedures with symmetric centered
//! intervals: an interval `[c - a, c + a]` centered on the point estimate
//! whose half-width `a` is the smallest covering a proportion α of the
//! (estimated or true) sampling distribution. The relative deviation of an
//! estimated width from the true width,
//!
//! ```text
//! δ = (estimated width − true width) / true width
//! ```
//!
//! classifies a run: δ > 0.2 ⇒ the interval is much too wide
//! (*pessimistic*), δ < −0.2 ⇒ much too narrow (*optimistic*).
//!
//! > Note on the sign convention: the paper's §2.2 typesets the ratio with
//! > the operands in the other order, but its §3 prose ("if \[δ\] is often
//! > positive and large, this means our procedure produced confidence
//! > intervals that are too large … we say that the procedure is
//! > pessimistic") fixes the semantics we implement here: positive δ =
//! > too wide = pessimistic, negative δ = too narrow = optimistic.

use serde::{Deserialize, Serialize};

/// A symmetric centered confidence interval.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Ci {
    /// Interval center (the point estimate θ(S)).
    pub center: f64,
    /// Half-width `a ≥ 0`; the interval is `[center − a, center + a]`.
    pub half_width: f64,
    /// Target coverage α in (0, 1).
    pub confidence: f64,
}

impl Ci {
    /// Construct an interval; half-width must be non-negative and finite
    /// unless explicitly infinite (large-deviation bounds can be huge but
    /// are still finite).
    pub fn new(center: f64, half_width: f64, confidence: f64) -> Self {
        debug_assert!(half_width >= 0.0 || half_width.is_nan());
        Ci { center, half_width, confidence }
    }

    /// Lower endpoint.
    pub fn lo(&self) -> f64 {
        self.center - self.half_width
    }

    /// Upper endpoint.
    pub fn hi(&self) -> f64 {
        self.center + self.half_width
    }

    /// Full width (2a).
    pub fn width(&self) -> f64 {
        2.0 * self.half_width
    }

    /// Whether `x` lies inside the interval.
    pub fn contains(&self, x: f64) -> bool {
        x >= self.lo() && x <= self.hi()
    }

    /// Relative error bound `a / |center|` (the "10% error" of BlinkDB's
    /// error-bounded queries); infinite when the center is 0.
    pub fn relative_half_width(&self) -> f64 {
        if self.center == 0.0 {
            f64::INFINITY
        } else {
            self.half_width / self.center.abs()
        }
    }

    /// Multiply the half-width by `factor`, or by 1 where `factor` is
    /// below 1 or NaN: the one place outside this module's constructors
    /// that changes a half-width, and it cannot narrow one.
    pub fn widen(&mut self, factor: f64) {
        self.half_width *= factor.max(1.0);
    }
}

/// The smallest half-width `a` such that at least a proportion `alpha` of
/// `draws` fall inside `[center − a, center + a]`.
///
/// With `draws` sampled from Dist(θ(S)) and `center = θ(D)` this is the
/// paper's *true confidence interval*; with `draws` the bootstrap replicate
/// distribution and `center = θ(S)` it is the bootstrap's estimate.
///
/// NaN when `draws` is empty; an `alpha` outside \[0, 1\] covers as the
/// nearer bound does (one draw, or all of them).
pub fn symmetric_half_width(center: f64, draws: &[f64], alpha: f64) -> f64 {
    if draws.is_empty() {
        return f64::NAN;
    }
    let mut dev: Vec<f64> = draws.iter().map(|&d| (d - center).abs()).collect();
    dev.sort_by(f64::total_cmp);
    // ceil(alpha * K) draws must be covered; index is that count - 1.
    let k = ((alpha * dev.len() as f64).ceil() as usize).clamp(1, dev.len());
    dev[k - 1]
}

/// Construct the symmetric centered CI around `center` from distribution
/// draws.
pub fn ci_from_draws(center: f64, draws: &[f64], alpha: f64) -> Ci {
    Ci::new(center, symmetric_half_width(center, draws, alpha), alpha)
}

/// The per-run accuracy statistic δ and its classification.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Delta(pub f64);

/// The classification band of the paper's §3 evaluation: |δ| ≤ 0.2 is
/// acceptable.
pub const DELTA_BAND: f64 = 0.2;

impl Delta {
    /// δ = (estimated − true)/true; `None`-like NaN when the true width is
    /// zero and the estimate isn't.
    pub fn compute(estimated_width: f64, true_width: f64) -> Delta {
        if true_width == 0.0 {
            if estimated_width == 0.0 {
                Delta(0.0)
            } else {
                Delta(f64::INFINITY)
            }
        } else {
            Delta((estimated_width - true_width) / true_width)
        }
    }

    /// δ > 0.2: interval much too wide.
    pub fn is_pessimistic(&self) -> bool {
        self.0 > DELTA_BAND
    }

    /// δ < −0.2: interval much too narrow.
    pub fn is_optimistic(&self) -> bool {
        self.0 < -DELTA_BAND
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_geometry() {
        let ci = Ci::new(10.0, 2.0, 0.95);
        assert_eq!(ci.lo(), 8.0);
        assert_eq!(ci.hi(), 12.0);
        assert_eq!(ci.width(), 4.0);
        assert!(ci.contains(8.0) && ci.contains(12.0) && ci.contains(10.0));
        assert!(!ci.contains(7.999) && !ci.contains(12.001));
        assert!((ci.relative_half_width() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn zero_center_relative_width_is_infinite() {
        assert!(Ci::new(0.0, 1.0, 0.95).relative_half_width().is_infinite());
    }

    #[test]
    fn half_width_covers_exactly_alpha() {
        // Draws at distance 1..=100 from center 0.
        let draws: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        // 95% coverage needs the 95th smallest deviation = 95.
        assert_eq!(symmetric_half_width(0.0, &draws, 0.95), 95.0);
        // 100% needs all.
        assert_eq!(symmetric_half_width(0.0, &draws, 1.0), 100.0);
        // Tiny alpha still covers at least one draw.
        assert_eq!(symmetric_half_width(0.0, &draws, 0.0), 1.0);
    }

    #[test]
    fn half_width_uses_absolute_deviation() {
        let draws = vec![-5.0, -1.0, 1.0, 5.0];
        assert_eq!(symmetric_half_width(0.0, &draws, 0.5), 1.0);
        assert_eq!(symmetric_half_width(0.0, &draws, 1.0), 5.0);
    }

    #[test]
    fn half_width_of_no_draws_is_nan_and_alpha_saturates() {
        assert!(symmetric_half_width(0.0, &[], 0.95).is_nan());
        let draws = vec![-5.0, -1.0, 1.0, 5.0];
        assert_eq!(symmetric_half_width(0.0, &draws, 1.5), 5.0);
        assert_eq!(symmetric_half_width(0.0, &draws, -0.5), 1.0);
        assert_eq!(symmetric_half_width(0.0, &draws, f64::NAN), 1.0);
    }

    /// `Ci::widen` against the guarded multiply it replaced in
    /// `exec::engine` (`if widen > 1.0 { half_width *= widen }`), bit for bit.
    #[test]
    fn widen_never_narrows() {
        for factor in [0.5, 1.0, 4.0, f64::NAN] {
            for half_width in [0.0, 2.5, 1e300, f64::NAN, f64::INFINITY] {
                let mut guarded = half_width;
                if factor > 1.0 {
                    guarded *= factor;
                }
                let mut ci = Ci { center: 10.0, half_width, confidence: 0.95 };
                ci.widen(factor);
                assert_eq!(ci.half_width.to_bits(), guarded.to_bits(), "{half_width} widened by {factor}");
                assert!(half_width.is_nan() || ci.half_width >= half_width);
            }
        }
    }

    #[test]
    fn ci_from_draws_centers_properly() {
        let draws = vec![9.0, 10.0, 11.0, 12.0];
        let ci = ci_from_draws(10.0, &draws, 0.75);
        assert_eq!(ci.center, 10.0);
        assert_eq!(ci.half_width, 1.0);
    }

    #[test]
    fn delta_classification() {
        assert!(Delta::compute(1.3, 1.0).is_pessimistic());
        assert!(Delta::compute(0.7, 1.0).is_optimistic());
        // Inside the band, its edges included, is neither.
        for estimated in [1.1, 0.9, 1.2, 0.8] {
            let d = Delta::compute(estimated, 1.0);
            assert!(!d.is_pessimistic() && !d.is_optimistic(), "{estimated}");
        }
    }

    #[test]
    fn delta_zero_true_width() {
        assert_eq!(Delta::compute(0.0, 0.0).0, 0.0);
        assert!(Delta::compute(0.1, 0.0).is_pessimistic());
    }

    #[test]
    fn delta_sign_convention_matches_paper_prose() {
        // Estimate twice as wide as truth → pessimistic (δ = +1).
        let d = Delta::compute(2.0, 1.0);
        assert_eq!(d.0, 1.0);
        assert!(d.is_pessimistic());
        // Estimate half as wide → optimistic (δ = −0.5).
        let d = Delta::compute(0.5, 1.0);
        assert_eq!(d.0, -0.5);
        assert!(d.is_optimistic());
    }
}
