//! Error-bound-driven sample sizing.
//!
//! "By varying the sample size while estimating the magnitude of the
//! resulting error bars, the system can make a smooth and controlled
//! trade-off between accuracy and query time" (§1). Given a pilot run on
//! a small sample, the √n error-scaling law extrapolates the sample size
//! needed to reach a target relative error:
//!
//! ```text
//! hw(n) ≈ hw(n₀) · sqrt(n₀ / n)   ⇒   n_req = n₀ · (hw₀ / (ε·|θ̂|))²
//! ```
//!
//! This is the same arithmetic Fig. 1 uses to chart required sample sizes
//! per error-estimation technique (where Hoeffding's inflated `hw₀` is
//! what forces its 1–2 orders-of-magnitude larger samples).

use aqp_stats::ci::Ci;

/// Extrapolate the pre-filter sample rows needed so the half-width
/// shrinks to `rel_err × |estimate|`, from a pilot interval computed on
/// `pilot_rows`.
///
/// Returns `None` when the pilot is degenerate (zero/NaN estimate or a
/// NaN/infinite half-width), in which case the caller should use its
/// largest sample. A half-width of exactly 0 needs one row.
pub fn required_sample_rows(pilot: &Ci, pilot_rows: usize, rel_err: f64) -> Option<usize> {
    if rel_err <= 0.0 || pilot_rows == 0 {
        return None;
    }
    let estimate = pilot.center.abs();
    if !estimate.is_finite() || estimate == 0.0 {
        return None;
    }
    let hw = pilot.half_width;
    if hw == 0.0 {
        // Zero observed error: any sample satisfies the bound.
        return Some(1);
    }
    if !hw.is_finite() {
        return None;
    }
    let target_hw = rel_err * estimate;
    let ratio = hw / target_hw;
    let n = (pilot_rows as f64 * ratio * ratio).ceil();
    if !n.is_finite() {
        return None;
    }
    Some((n as usize).max(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn already_satisfied_bound_needs_fewer_rows() {
        // Pilot: hw 1 on center 100 with 10k rows; target 5% = hw 5.
        let pilot = Ci::new(100.0, 1.0, 0.95);
        let n = required_sample_rows(&pilot, 10_000, 0.05).unwrap();
        assert!(n < 10_000, "n = {n}");
        assert_eq!(n, 400); // (1/5)² × 10_000
    }

    #[test]
    fn tight_bound_needs_quadratically_more() {
        let pilot = Ci::new(100.0, 10.0, 0.95);
        // Target 1% → hw 1: need (10/1)² × pilot = 100×.
        let n = required_sample_rows(&pilot, 1_000, 0.01).unwrap();
        assert_eq!(n, 100_000);
    }

    #[test]
    fn degenerate_pilots() {
        assert!(required_sample_rows(&Ci::new(0.0, 1.0, 0.95), 100, 0.1).is_none());
        assert!(required_sample_rows(&Ci::new(f64::NAN, 1.0, 0.95), 100, 0.1).is_none());
        assert!(required_sample_rows(&Ci::new(5.0, 1.0, 0.95), 100, 0.0).is_none());
        // Zero half-width: any sample works.
        assert_eq!(required_sample_rows(&Ci::new(5.0, 0.0, 0.95), 100, 0.1), Some(1));
        // A pilot whose replicates overflowed knows nothing: largest sample.
        assert!(required_sample_rows(&Ci::new(5.0, f64::INFINITY, 0.95), 100, 0.1).is_none());
        assert!(required_sample_rows(&Ci::new(5.0, f64::NAN, 0.95), 100, 0.1).is_none());
    }

    #[test]
    fn scaling_is_monotone_in_target() {
        let pilot = Ci::new(50.0, 5.0, 0.95);
        let n_loose = required_sample_rows(&pilot, 1_000, 0.2).unwrap();
        let n_tight = required_sample_rows(&pilot, 1_000, 0.02).unwrap();
        assert!(n_tight > n_loose);
        assert_eq!(n_tight, n_loose * 100);
    }
}
