//! Diagnostic parameters.

use serde::{Deserialize, Serialize};

/// Parameters of Algorithm 1.
///
/// Paper defaults (Appendix A): p = 100, k = 3, c₁ = 0.2, c₂ = 0.2,
/// c₃ = 0.5, ρ = 0.95 (the paper's β), on subsamples of 50 MB / 100 MB /
/// 200 MB. We parameterize subsamples by *row count*, scaled to the sample
/// at hand ([`DiagnosticConfig::scaled_to`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DiagnosticConfig {
    /// Number of simulated subsamples p at each size.
    pub p: usize,
    /// Increasing subsample sizes b₁ < … < b_k, in pre-filter rows.
    pub subsample_rows: Vec<usize>,
    /// Acceptable relative deviation of the mean error estimate (c₁).
    pub c1: f64,
    /// Acceptable relative spread of the error estimates (c₂).
    pub c2: f64,
    /// Per-subsample closeness threshold for π (c₃).
    pub c3: f64,
    /// Minimum proportion of size-b_k subsamples whose estimate is within
    /// c₃ of the truth (ρ).
    pub rho: f64,
    /// Interval coverage α for [`run_diagnostic`](crate::run_diagnostic),
    /// which has no other statement of it. The query engine never reads
    /// this: it judges at the α its bars are computed at
    /// (`ApproxOptions::alpha`).
    pub alpha: f64,
}

impl DiagnosticConfig {
    /// Sizes scaled to a sample of `sample_rows` rows: three geometric
    /// levels ending at `sample_rows / p`, the largest size for which p
    /// disjoint subsamples exist (`p = 0`, which [`validate`](Self::validate)
    /// rejects, is sized as `p = 1`).
    pub fn scaled_to(sample_rows: usize, p: usize) -> Self {
        let bk = (sample_rows / p.max(1)).max(4);
        DiagnosticConfig {
            p,
            subsample_rows: vec![(bk / 4).max(1), (bk / 2).max(2), bk],
            c1: 0.2,
            c2: 0.2,
            c3: 0.5,
            rho: 0.95,
            alpha: 0.95,
        }
    }

    /// A small, fast configuration for tests.
    pub fn fast() -> Self {
        DiagnosticConfig::scaled_to(20_000, 30)
    }

    /// k — the number of subsample sizes.
    pub fn k(&self) -> usize {
        self.subsample_rows.len()
    }

    /// Validate internal consistency against a sample of `sample_rows`
    /// pre-filter rows.
    pub fn validate(&self, sample_rows: usize) -> Result<(), String> {
        if self.p < 2 {
            return Err("p must be at least 2".into());
        }
        let Some(&bk) = self.subsample_rows.last() else {
            return Err("need at least one subsample size".into());
        };
        if !self.subsample_rows.windows(2).all(|w| w[0] < w[1]) {
            return Err("subsample sizes must be strictly increasing".into());
        }
        if bk * self.p > sample_rows {
            return Err(format!(
                "p·b_k = {} exceeds the sample size {sample_rows}; cannot form disjoint subsamples",
                bk * self.p
            ));
        }
        if !(0.0 < self.alpha && self.alpha < 1.0) {
            return Err("alpha must be in (0,1)".into());
        }
        if !(0.0 < self.rho && self.rho <= 1.0) {
            return Err("rho must be in (0,1]".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_sizes_fit_disjointly() {
        let cfg = DiagnosticConfig::scaled_to(100_000, 50);
        cfg.validate(100_000).unwrap();
        assert_eq!(*cfg.subsample_rows.last().unwrap() * cfg.p, 100_000);
        // Appendix A's thresholds.
        assert_eq!((cfg.c1, cfg.c2, cfg.c3, cfg.rho, cfg.k()), (0.2, 0.2, 0.5, 0.95, 3));
    }

    #[test]
    fn validation_catches_oversized_subsamples() {
        let mut cfg = DiagnosticConfig::fast();
        cfg.subsample_rows = vec![10, 20, 10_000];
        assert!(cfg.validate(20_000).is_err());
    }

    #[test]
    fn validation_catches_non_increasing() {
        let mut cfg = DiagnosticConfig::fast();
        cfg.subsample_rows = vec![100, 100, 200];
        assert!(cfg.validate(1_000_000).is_err());
    }

    #[test]
    fn validation_catches_bad_scalars() {
        let mut cfg = DiagnosticConfig::fast();
        cfg.p = 1;
        assert!(cfg.validate(1_000_000).is_err());
        let mut cfg = DiagnosticConfig::fast();
        cfg.alpha = 1.0;
        assert!(cfg.validate(1_000_000).is_err());
    }
}
