//! The §3 evaluation harness: does an error-estimation technique produce
//! accurate error bars for a given (θ, data) pair?
//!
//! Mirrors the paper's protocol: compute the ground truth θ(D) and the
//! *true confidence interval* from many fresh samples of D; then, for each
//! of `runs` samples, produce ξ's interval and its δ; declare the
//! technique *optimistic* (resp. *pessimistic*) for the query if δ < −0.2
//! (resp. > 0.2) on at least 5% of runs.
//!
//! The same runs measure coverage (§2.2: "on a proportion exactly α of the
//! possible samples S, the procedure generates an interval that includes
//! θ(D)"). Coverage alone cannot rank procedures — the paper's
//! (−∞, ∞)-vs-∅ example is why the verdict uses δ — but it is the
//! user-facing guarantee, and under-coverage is how optimistic intervals
//! hurt users.

use serde::{Deserialize, Serialize};

use crate::ci::{symmetric_half_width, Delta};
use crate::error_estimator::{EstimationMethod, Theta};
use crate::estimator::SampleContext;
use crate::rng::SeedStream;
use crate::sampling::{gather, with_replacement_indices};

/// The per-query verdict of the §3 evaluation (the four bands of Fig. 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AccuracyVerdict {
    /// ξ cannot produce intervals for this θ at all.
    NotApplicable,
    /// δ < −0.2 on ≥ `failure_quantile` of runs: intervals misleadingly
    /// narrow.
    Optimistic,
    /// Error estimation worked: |δ| ≤ 0.2 on > 95% of runs.
    Correct,
    /// δ > +0.2 on ≥ `failure_quantile` of runs: intervals wastefully wide.
    Pessimistic,
}

/// Full per-query evaluation output.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AccuracyReport {
    /// Final classification.
    pub verdict: AccuracyVerdict,
    /// Ground-truth θ(D).
    pub theta_d: f64,
    /// True confidence-interval half-width.
    pub true_half_width: f64,
    /// Fraction of runs with δ < −0.2.
    pub optimistic_frac: f64,
    /// Fraction of runs with δ > +0.2.
    pub pessimistic_frac: f64,
    /// Fraction of runs where ξ failed to produce an interval.
    pub degenerate_frac: f64,
    /// All observed δ values (NaN-free; degenerate runs excluded).
    pub deltas: Vec<f64>,
    /// Runs whose interval contained θ(D).
    pub covered: usize,
    /// Mean interval half-width over the runs with an interval.
    pub mean_half_width: f64,
    /// Number of evaluation runs.
    pub runs: usize,
}

impl AccuracyReport {
    /// Fraction of the runs with an interval whose interval contained θ(D).
    pub fn coverage(&self) -> f64 {
        self.covered as f64 / self.deltas.len().max(1) as f64
    }

    /// Standard error of [`coverage`](Self::coverage) (binomial).
    pub fn coverage_std_error(&self) -> f64 {
        let c = self.coverage();
        (c * (1.0 - c) / self.deltas.len().max(1) as f64).sqrt()
    }

    /// Whether the coverage is consistent with `target` within `z`
    /// standard errors of a binomial *at the target*, `√(α(1−α)/n)`. The
    /// observed coverage's own error would be 0 when every run covers (or
    /// none does), and 200 of 200 runs covered is what exact 0.99
    /// coverage gives one time in seven.
    pub fn covers_at(&self, target: f64, z: f64) -> bool {
        let se = (target * (1.0 - target) / self.deltas.len().max(1) as f64).sqrt();
        (self.coverage() - target).abs() <= z * se
    }
}

/// Protocol parameters (paper defaults: 100 samples, n = 10⁶, α = 0.95,
/// failure threshold 5%).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct AccuracyConfig {
    /// Sample size n.
    pub sample_rows: usize,
    /// Number of independent samples ("100 different samples", §3).
    pub runs: usize,
    /// Interval coverage α.
    pub alpha: f64,
    /// Fraction of runs allowed outside the δ band before declaring
    /// failure (5% in the paper).
    pub failure_quantile: f64,
    /// Samples used to estimate the *true* interval: `max(truth_runs,
    /// runs)` fresh draws from their own stream, never the evaluation
    /// samples (so 0 means as many as `runs`).
    pub truth_runs: usize,
}

impl Default for AccuracyConfig {
    fn default() -> Self {
        AccuracyConfig {
            sample_rows: 1_000_000,
            runs: 100,
            alpha: 0.95,
            failure_quantile: 0.05,
            truth_runs: 200,
        }
    }
}

impl AccuracyConfig {
    /// A scaled-down config for fast tests/experiments.
    pub fn fast() -> Self {
        AccuracyConfig {
            sample_rows: 2_000,
            runs: 40,
            alpha: 0.95,
            failure_quantile: 0.05,
            truth_runs: 120,
        }
    }
}

/// Evaluate `xi` for query θ over `population` (the values column of D,
/// post-filter semantics as in [`crate::estimator`]).
///
/// An empty `population` is [`AccuracyVerdict::NotApplicable`];
/// `cfg.sample_rows` ≤ reasonable memory. Deterministic given `seeds`.
pub fn evaluate_error_estimator(
    population: &[f64],
    theta: &Theta,
    xi: &EstimationMethod,
    cfg: &AccuracyConfig,
    seeds: SeedStream,
) -> AccuracyReport {
    let pop_ctx = SampleContext::population(population.len());
    let theta_d = theta.estimate(population, &pop_ctx);
    let ctx = SampleContext::new(cfg.sample_rows, population.len());

    if population.is_empty() || !xi.applicable(theta) {
        return AccuracyReport {
            verdict: AccuracyVerdict::NotApplicable,
            theta_d,
            true_half_width: f64::NAN,
            optimistic_frac: 0.0,
            pessimistic_frac: 0.0,
            degenerate_frac: 1.0,
            deltas: Vec::new(),
            covered: 0,
            mean_half_width: f64::NAN,
            runs: 0,
        };
    }

    // 1. The true confidence interval: θ over `truth_runs` fresh samples,
    //    smallest symmetric interval around θ(D) covering α of them.
    let truth_stream = seeds.derive(0x7275_7468); // "ruth"
    let mut truth_draws = Vec::with_capacity(cfg.truth_runs.max(cfg.runs));
    for r in 0..cfg.truth_runs.max(cfg.runs) {
        let mut rng = truth_stream.rng(r as u64);
        let idx = with_replacement_indices(&mut rng, cfg.sample_rows, population.len());
        let sample = gather(population, &idx);
        let t = theta.estimate(&sample, &ctx);
        if !t.is_nan() {
            truth_draws.push(t);
        }
    }
    let true_half_width = symmetric_half_width(theta_d, &truth_draws, cfg.alpha);

    // 2. ξ's interval on each evaluation sample: its δ, whether it covers
    //    θ(D), its half-width.
    let eval_stream = seeds.derive(0x6576_616c); // "eval"
    let mut deltas = Vec::with_capacity(cfg.runs);
    let (mut covered, mut hw_sum) = (0usize, 0.0);
    let mut degenerate = 0usize;
    for r in 0..cfg.runs {
        let mut sample_rng = eval_stream.rng(r as u64 * 2);
        let mut xi_rng = eval_stream.rng(r as u64 * 2 + 1);
        let idx = with_replacement_indices(&mut sample_rng, cfg.sample_rows, population.len());
        let sample = gather(population, &idx);
        match xi.confidence_interval(&mut xi_rng, &sample, &ctx, theta, cfg.alpha) {
            Some(ci) if ci.half_width.is_finite() => {
                deltas.push(Delta::compute(ci.width(), 2.0 * true_half_width).0);
                covered += usize::from(ci.contains(theta_d));
                hw_sum += ci.half_width;
            }
            _ => degenerate += 1,
        }
    }

    let n_ok = deltas.len().max(1) as f64;
    let optimistic_frac = deltas.iter().filter(|&&d| Delta(d).is_optimistic()).count() as f64 / n_ok;
    let pessimistic_frac =
        deltas.iter().filter(|&&d| Delta(d).is_pessimistic()).count() as f64 / n_ok;
    let degenerate_frac = degenerate as f64 / cfg.runs as f64;

    // Optimism is the worse failure (§3: "an optimistic error estimation
    // procedure is even worse"), so it takes precedence when both exceed
    // the threshold.
    let verdict = if deltas.is_empty() {
        AccuracyVerdict::NotApplicable
    } else if optimistic_frac >= cfg.failure_quantile {
        AccuracyVerdict::Optimistic
    } else if pessimistic_frac >= cfg.failure_quantile {
        AccuracyVerdict::Pessimistic
    } else {
        AccuracyVerdict::Correct
    };

    AccuracyReport {
        verdict,
        theta_d,
        true_half_width,
        optimistic_frac,
        pessimistic_frac,
        degenerate_frac,
        covered,
        mean_half_width: hw_sum / n_ok,
        deltas,
        runs: cfg.runs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{sample_lognormal, sample_pareto};
    use crate::bootstrap::DEFAULT_REPLICATES;
    use crate::error_estimator::EstimationMethod;
    use crate::estimator::Aggregate;
    use crate::large_deviation::{Inequality, RangeHint};
    use crate::rng::rng_from_seed;

    fn lognormal_population(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = rng_from_seed(seed);
        (0..n).map(|_| sample_lognormal(&mut rng, 1.0, 0.5)).collect()
    }

    #[test]
    fn bootstrap_correct_for_avg_on_moderate_tails() {
        let pop = lognormal_population(200_000, 1);
        let cfg = AccuracyConfig::fast();
        // K = 100 (the paper's default) leaves ~10% noise in the interval
        // width, which the strict ±0.2/5% rule can trip on by luck; use a
        // larger K for a stable unit test. Fig. 3's bench uses the paper's K.
        let report = evaluate_error_estimator(
            &pop,
            &Theta::Builtin(Aggregate::Avg),
            &EstimationMethod::Bootstrap { k: 400 },
            &cfg,
            SeedStream::new(11),
        );
        assert_eq!(report.verdict, AccuracyVerdict::Correct, "{report:?}");
        assert!(report.true_half_width > 0.0);
    }

    #[test]
    fn closed_form_correct_for_avg() {
        let pop = lognormal_population(200_000, 2);
        let cfg = AccuracyConfig::fast();
        let report = evaluate_error_estimator(
            &pop,
            &Theta::Builtin(Aggregate::Avg),
            &EstimationMethod::ClosedForm,
            &cfg,
            SeedStream::new(12),
        );
        assert_eq!(report.verdict, AccuracyVerdict::Correct, "{report:?}");
    }

    #[test]
    fn bootstrap_fails_for_max_on_heavy_tails() {
        // MAX on Pareto data: the classic bootstrap failure (§2.3.1, §3:
        // "bootstrap error estimation fails for 86.17% of [MIN/MAX]
        // queries").
        let mut rng = rng_from_seed(3);
        let pop: Vec<f64> = (0..200_000).map(|_| sample_pareto(&mut rng, 1.0, 1.1)).collect();
        let cfg = AccuracyConfig::fast();
        let report = evaluate_error_estimator(
            &pop,
            &Theta::Builtin(Aggregate::Max),
            &EstimationMethod::Bootstrap { k: DEFAULT_REPLICATES },
            &cfg,
            SeedStream::new(13),
        );
        assert_ne!(report.verdict, AccuracyVerdict::Correct, "{report:?}");
    }

    #[test]
    fn closed_form_not_applicable_to_max() {
        let pop = lognormal_population(10_000, 4);
        let cfg = AccuracyConfig::fast();
        let report = evaluate_error_estimator(
            &pop,
            &Theta::Builtin(Aggregate::Max),
            &EstimationMethod::ClosedForm,
            &cfg,
            SeedStream::new(14),
        );
        assert_eq!(report.verdict, AccuracyVerdict::NotApplicable);
        // Nor is anything to an empty population.
        let avg = Theta::Builtin(Aggregate::Avg);
        let report =
            evaluate_error_estimator(&[], &avg, &EstimationMethod::ClosedForm, &cfg, SeedStream::new(14));
        assert_eq!((report.verdict, report.runs), (AccuracyVerdict::NotApplicable, 0));
    }

    #[test]
    fn hoeffding_is_pessimistic() {
        let pop = lognormal_population(100_000, 5);
        let max = pop.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let cfg = AccuracyConfig::fast();
        let report = evaluate_error_estimator(
            &pop,
            &Theta::Builtin(Aggregate::Avg),
            &EstimationMethod::LargeDeviation {
                inequality: Inequality::Hoeffding,
                range: RangeHint::new(0.0, max),
            },
            &cfg,
            SeedStream::new(15),
        );
        assert_eq!(report.verdict, AccuracyVerdict::Pessimistic, "{report:?}");
        assert!(report.pessimistic_frac > 0.9);
    }

    /// The coverage checks: `runs` samples of 5 000 rows, and as many more
    /// for the true interval.
    fn coverage_cfg(runs: usize) -> AccuracyConfig {
        AccuracyConfig { sample_rows: 5_000, runs, truth_runs: 0, ..AccuracyConfig::fast() }
    }

    #[test]
    fn closed_form_avg_covers_at_target() {
        let r = evaluate_error_estimator(
            &lognormal_population(200_000, 1),
            &Theta::Builtin(Aggregate::Avg),
            &EstimationMethod::ClosedForm,
            &coverage_cfg(300),
            SeedStream::new(2),
        );
        assert!(r.covers_at(0.95, 3.5), "coverage {:.3} ± {:.3}", r.coverage(), r.coverage_std_error());
        assert_eq!(r.degenerate_frac, 0.0);
    }

    #[test]
    fn bootstrap_avg_covers_near_target() {
        let r = evaluate_error_estimator(
            &lognormal_population(200_000, 3),
            &Theta::Builtin(Aggregate::Avg),
            &EstimationMethod::Bootstrap { k: 150 },
            &coverage_cfg(200),
            SeedStream::new(4),
        );
        assert!(r.coverage() > 0.88 && r.coverage() <= 1.0, "coverage {:.3}", r.coverage());
    }

    #[test]
    fn hoeffding_never_misses_and_is_far_wider() {
        // §2.3.3: "error bars based on large deviation bounds ... never
        // [have] coverage less than α" — and in practice far more.
        let pop = lognormal_population(200_000, 5);
        let max = pop.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let avg = Theta::Builtin(Aggregate::Avg);
        let hoeffding = EstimationMethod::LargeDeviation {
            inequality: Inequality::Hoeffding,
            range: RangeHint::new(0.0, max),
        };
        let r = evaluate_error_estimator(&pop, &avg, &hoeffding, &coverage_cfg(150), SeedStream::new(6));
        assert_eq!(r.coverage(), 1.0, "Hoeffding must never miss");
        // And its intervals are far wider than the CLT's.
        let cf = evaluate_error_estimator(
            &pop,
            &avg,
            &EstimationMethod::ClosedForm,
            &coverage_cfg(150),
            SeedStream::new(6),
        );
        assert!(r.mean_half_width > 5.0 * cf.mean_half_width);
    }

    #[test]
    fn bootstrap_max_undercovers_on_heavy_tails() {
        // The §3 failure as users experience it: intervals that miss the
        // truth far more often than 1 − α.
        let mut rng = rng_from_seed(7);
        let pop: Vec<f64> = (0..200_000).map(|_| sample_pareto(&mut rng, 1.0, 1.2)).collect();
        let r = evaluate_error_estimator(
            &pop,
            &Theta::Builtin(Aggregate::Max),
            &EstimationMethod::Bootstrap { k: 100 },
            &coverage_cfg(120),
            SeedStream::new(8),
        );
        assert!(r.coverage() < 0.7, "MAX bootstrap coverage {:.3} should collapse", r.coverage());
    }

    #[test]
    fn coverage_band_arithmetic() {
        let r = AccuracyReport {
            verdict: AccuracyVerdict::Correct,
            theta_d: 0.0,
            true_half_width: 1.0,
            optimistic_frac: 0.0,
            pessimistic_frac: 0.0,
            degenerate_frac: 0.0,
            deltas: vec![0.0; 100],
            covered: 93,
            mean_half_width: 1.0,
            runs: 100,
        };
        assert!(r.coverage_std_error() > 0.0);
        assert!(r.covers_at(0.95, 1.0));
        let far = AccuracyReport { covered: 50, ..r.clone() };
        assert!(!far.covers_at(0.95, 3.0));
        // Every run covered: the observed coverage has no spread, but 200
        // of 200 is likely under exact 0.99 coverage (0.99²⁰⁰ ≈ 0.134).
        let all = AccuracyReport { deltas: vec![0.0; 200], covered: 200, runs: 200, ..r.clone() };
        assert_eq!(all.coverage_std_error(), 0.0);
        assert!(all.covers_at(0.99, 3.0));
        assert!(!all.covers_at(0.80, 3.0));
        let none = AccuracyReport { covered: 0, ..r };
        assert!(!none.covers_at(0.95, 3.0) && none.covers_at(0.0, 3.0));
    }

    #[test]
    fn deterministic_given_seeds() {
        let pop = lognormal_population(20_000, 6);
        let cfg = AccuracyConfig { sample_rows: 500, runs: 10, truth_runs: 30, ..AccuracyConfig::fast() };
        let a = evaluate_error_estimator(
            &pop,
            &Theta::Builtin(Aggregate::Sum),
            &EstimationMethod::Bootstrap { k: DEFAULT_REPLICATES },
            &cfg,
            SeedStream::new(16),
        );
        let b = evaluate_error_estimator(
            &pop,
            &Theta::Builtin(Aggregate::Sum),
            &EstimationMethod::Bootstrap { k: DEFAULT_REPLICATES },
            &cfg,
            SeedStream::new(16),
        );
        assert_eq!(a.deltas, b.deltas);
        assert_eq!(a.verdict, b.verdict);
    }
}
