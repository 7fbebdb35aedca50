//! The deterministic fault plan.
//!
//! A [`FaultPlan`] is a pure function from `(task, attempt)` to the
//! faults that attempt experiences, keyed off the config's seed via the
//! workspace [`SeedStream`] discipline. No state is kept: the same
//! `(seed, task, attempt)` triple always yields the same draw, which is
//! what makes retries, speculative clones, and whole reruns replayable
//! bit-for-bit.

use std::time::Duration;

use rand::RngExt;

use aqp_stats::dist::sample_lognormal;
use aqp_stats::rng::SeedStream;

use crate::config::{FaultConfig, StragglerDelay};

/// The kinds of fault the injector can fire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The worker executing the task dies; the attempt is lost.
    WorkerDeath,
    /// A transient scan error; a retry usually succeeds.
    TransientError,
    /// The partition read returned corrupt data; the attempt fails.
    Corruption,
    /// The partition is truncated: the attempt succeeds but only a
    /// prefix of its rows survives.
    Truncation,
    /// The attempt is delayed by a straggling worker.
    Straggler,
}

impl FaultKind {
    /// Stable lower-case label used in trace span names and logs.
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::WorkerDeath => "worker_death",
            FaultKind::TransientError => "transient_error",
            FaultKind::Corruption => "corruption",
            FaultKind::Truncation => "truncation",
            FaultKind::Straggler => "straggler",
        }
    }
}

/// The faults one `(task, attempt)` pair experiences.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AttemptPlan {
    /// A failure that aborts the attempt, if one fired (first of
    /// worker death, transient error, corruption in draw order).
    pub failure: Option<FaultKind>,
    /// `Some(keep_fraction)` when a truncation fired: on success only
    /// this fraction of the partition's rows survives.
    pub truncate_keep: Option<f64>,
    /// Straggler delay for the primary attempt (zero when none fired).
    pub delay: Duration,
    /// Delay the speculative clone would experience, drawn whenever a
    /// straggler fires so plans are independent of the recovery policy.
    pub speculative_delay: Option<Duration>,
}

impl AttemptPlan {
    /// An attempt with no faults at all.
    pub fn clean() -> Self {
        AttemptPlan { failure: None, truncate_keep: None, delay: Duration::ZERO, speculative_delay: None }
    }
}

/// Seed-deterministic fault plan: a pure map from `(task, attempt)` to
/// an [`AttemptPlan`].
#[derive(Debug, Clone)]
pub struct FaultPlan {
    cfg: FaultConfig,
    seeds: SeedStream,
}

/// Convert a (possibly unreasonable) delay in milliseconds to a
/// `Duration`, clamping non-finite and negative values to zero and
/// capping at one hour so arithmetic downstream can never overflow.
fn delay_from_ms(ms: f64) -> Duration {
    const MAX_MS: f64 = 3_600_000.0;
    if ms.is_finite() && ms > 0.0 {
        Duration::from_nanos((ms.min(MAX_MS) * 1e6) as u64)
    } else {
        Duration::ZERO
    }
}

fn prob(p: f64) -> f64 {
    if p.is_finite() {
        p.clamp(0.0, 1.0)
    } else {
        0.0
    }
}

impl FaultPlan {
    /// Build a plan for `cfg`. The plan is stateless; tasks and
    /// attempts are drawn on demand.
    pub fn new(cfg: FaultConfig) -> Self {
        let seeds = SeedStream::new(cfg.seed);
        FaultPlan { cfg, seeds }
    }

    /// Draw the faults for attempt `attempt` of task `task`.
    ///
    /// Draws happen in a fixed order (death, transient, corruption,
    /// truncation, straggler, straggler delay, speculative delay) so a
    /// config change to one probability never perturbs the others'
    /// stream positions within an attempt.
    pub fn attempt(&self, task: usize, attempt: usize) -> AttemptPlan {
        let mut rng = self.seeds.derive(task as u64).rng(attempt as u64);
        let death = rng.random::<f64>() < prob(self.cfg.worker_death_prob);
        let transient = rng.random::<f64>() < prob(self.cfg.transient_error_prob);
        let corrupt = rng.random::<f64>() < prob(self.cfg.corruption_prob);
        let truncate = rng.random::<f64>() < prob(self.cfg.truncation_prob);
        let straggle = rng.random::<f64>() < prob(self.cfg.straggler_prob);

        let draw_delay = |rng: &mut aqp_stats::rng::Rng| match self.cfg.straggler_delay {
            StragglerDelay::Fixed(d) => d,
            StragglerDelay::HeavyTail { mean_ms, sigma } => {
                let mean = if mean_ms.is_finite() { mean_ms.clamp(0.1, 3.6e6) } else { 50.0 };
                let sigma = if sigma.is_finite() { sigma.clamp(0.0, 4.0) } else { 0.6 };
                let mu = mean.ln() - 0.5 * sigma * sigma;
                delay_from_ms(sample_lognormal(rng, mu, sigma))
            }
        };
        let (delay, speculative_delay) = if straggle {
            let primary = draw_delay(&mut rng);
            let clone = draw_delay(&mut rng);
            (primary, Some(clone))
        } else {
            (Duration::ZERO, None)
        };

        let failure = if death {
            Some(FaultKind::WorkerDeath)
        } else if transient {
            Some(FaultKind::TransientError)
        } else if corrupt {
            Some(FaultKind::Corruption)
        } else {
            None
        };
        let truncate_keep = if truncate {
            let keep = self.cfg.truncation_keep;
            let keep = if keep.is_finite() { keep.clamp(0.01, 1.0) } else { 0.5 };
            Some(keep)
        } else {
            None
        };
        AttemptPlan { failure, truncate_keep, delay, speculative_delay }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RecoveryPolicy;

    fn noisy(seed: u64) -> FaultConfig {
        FaultConfig {
            seed,
            worker_death_prob: 0.3,
            transient_error_prob: 0.3,
            corruption_prob: 0.2,
            truncation_prob: 0.4,
            straggler_prob: 0.5,
            straggler_delay: StragglerDelay::HeavyTail { mean_ms: 20.0, sigma: 0.6 },
            recovery: RecoveryPolicy::default(),
            ..FaultConfig::default()
        }
    }

    #[test]
    fn plans_are_deterministic() {
        let a = FaultPlan::new(noisy(7));
        let b = FaultPlan::new(noisy(7));
        for task in 0..16 {
            for attempt in 0..4 {
                assert_eq!(a.attempt(task, attempt), b.attempt(task, attempt));
            }
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = FaultPlan::new(noisy(1));
        let b = FaultPlan::new(noisy(2));
        let differs = (0..32).any(|t| a.attempt(t, 0) != b.attempt(t, 0));
        assert!(differs, "independent seeds produced identical plans");
    }

    #[test]
    fn zero_probability_plan_is_clean() {
        let plan = FaultPlan::new(FaultConfig::quiescent(9));
        for task in 0..64 {
            assert_eq!(plan.attempt(task, 0), AttemptPlan::clean());
        }
    }

    #[test]
    fn pathological_delays_are_clamped() {
        let mut cfg = noisy(3);
        cfg.straggler_prob = 1.0;
        cfg.straggler_delay = StragglerDelay::HeavyTail { mean_ms: f64::INFINITY, sigma: f64::NAN };
        let plan = FaultPlan::new(cfg);
        for task in 0..16 {
            let ap = plan.attempt(task, 0);
            assert!(ap.delay <= Duration::from_secs(3600));
        }
    }

    #[test]
    fn truncation_keep_is_clamped_positive() {
        let mut cfg = FaultConfig::quiescent(5);
        cfg.truncation_prob = 1.0;
        cfg.truncation_keep = -2.0;
        let plan = FaultPlan::new(cfg);
        let keep = plan.attempt(0, 0).truncate_keep.expect("truncation must fire at p=1");
        assert!(keep > 0.0 && keep <= 1.0);
    }
}
