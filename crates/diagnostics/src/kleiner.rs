//! Algorithm 1 of the paper (the Kleiner et al. diagnostic), verdict first.
//!
//! [`diagnose`] is the only implementation of the acceptance rule in the
//! tree. It does not take a table of estimates: it *pulls* θ̂(level, j) —
//! θ on the j-th of the p disjoint subsamples of size b_level — and
//! ξ(level, j) — ξ's interval half-width there — from its caller, in the
//! order that fixes the verdict soonest, and stops as soon as it is fixed:
//!
//! 1. θ̂ on all p subsamples of the **last** level (no resampling) gives
//!    the per-size true half-width x_k.
//! 2. ξ on those subsamples, j = 0, 1, …, counting the ones within c₃ of
//!    x_k, until the count plus the subsamples left can no longer reach
//!    ρ·p. Most refusals end here, a few ξ in.
//! 3. Only if π_k ≥ ρ held: Δ_k and σ_k, then down the ladder i = k..1.
//!    Level i − 1 is evaluated only if some check reads it — its own
//!    (i − 1 ≥ 1), or level i's when Δᵢ ≥ c₁ or σᵢ ≥ c₂ makes the
//!    comparison with the level below matter. The first failed check ends
//!    the run.
//!
//! The verdict is the conjunction of the same checks, each computed by the
//! same float expressions, as evaluating every level in full — a
//! conjunction does not care in which order its terms are read, and every
//! ξ(level, j) draws from an RNG stream of its own, so an evaluation
//! skipped changes no other. `tests/properties.rs` holds the full
//! evaluation as the reference.
//!
//! [`run_diagnostic`] drives it over a plain values vector for the
//! stats-level experiments; the query engine drives it over the data one
//! scan collected.

use serde::{Deserialize, Serialize};

use aqp_stats::ci::symmetric_half_width;
use aqp_stats::error_estimator::{ErrorEstimator, Theta};
use aqp_stats::estimator::SampleContext;
use aqp_stats::rng::SeedStream;

use crate::config::DiagnosticConfig;

/// Summary of one subsample size the run evaluated.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LevelReport {
    /// Index of this size in `DiagnosticConfig::subsample_rows`.
    pub level: usize,
    /// Subsample size b_i.
    pub b: usize,
    /// The per-size ground-truth half-width xᵢ (smallest symmetric
    /// interval around θ(S) covering α·p of the subsample estimates); NaN
    /// when θ was degenerate on every subsample.
    pub x: f64,
    /// How many of the level's p subsamples ξ ran on: p, unless the
    /// level's outcome was fixed earlier.
    pub xi_evaluated: usize,
    /// Δᵢ = |mean(x̂ᵢ·) − xᵢ| / xᵢ — relative deviation of the mean. NaN
    /// when the last level stopped on π before every ξ was in.
    pub mean_deviation: f64,
    /// σᵢ = stddev(x̂ᵢ·) / xᵢ — relative spread. NaN as for Δᵢ.
    pub relative_spread: f64,
    /// πᵢ — proportion of subsamples with |x̂ᵢⱼ − xᵢ|/xᵢ ≤ c₃; of those
    /// evaluated, over p, when the level was cut short.
    pub close_proportion: f64,
}

/// One of Algorithm 1's three checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Criterion {
    /// Δᵢ < Δᵢ₋₁ or Δᵢ < c₁.
    Deviation,
    /// σᵢ < σᵢ₋₁ or σᵢ < c₂.
    Spread,
    /// π_k ≥ ρ.
    Proportion,
}

/// What fixed the verdict.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Decision {
    /// Every check held.
    Accepted,
    /// `criterion` failed at level `level` (an index into
    /// `DiagnosticConfig::subsample_rows`); no check after it was read.
    Failed {
        /// The check that failed.
        criterion: Criterion,
        /// The level it failed at.
        level: usize,
    },
    /// The diagnostic could not run (the reason says why) and therefore
    /// vouches for nothing.
    Refused(String),
}

/// The diagnostic's output.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DiagnosticReport {
    /// Summaries of the levels evaluated, smallest b first — the last
    /// level, then as far down the ladder as the verdict needed.
    pub levels: Vec<LevelReport>,
    /// Why the verdict is what it is.
    pub decision: Decision,
    /// The overall verdict: `true` means "confidence-interval estimation
    /// works well for this query; it is safe to show ξ's error bars".
    pub accepted: bool,
}

impl DiagnosticReport {
    /// Close a run: count it on `aqp.diagnostics.*` and build the report.
    fn closing(levels: Vec<LevelReport>, decision: Decision) -> Self {
        record_verdict(&decision);
        DiagnosticReport { levels, accepted: decision == Decision::Accepted, decision }
    }
}

fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

fn stddev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    (xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / (xs.len() - 1) as f64).sqrt()
}

/// Algorithm 1, pulling its inputs on demand (module docs give the order).
///
/// `theta_s` is θ(S), the full-sample point estimate the per-size true
/// intervals are centered on; `cfg.subsample_rows` lists the levels by
/// increasing b; `alpha` is the coverage ξ's intervals are computed at,
/// which the per-size truth must share. `theta_hat(level, j)` returns θ̂
/// on subsample j of that level (NaN = degenerate there) together with
/// whatever the caller prepared to compute it; `xi(level, j, θ̂, prepared)`
/// gets both back and returns ξ's half-width on the same subsample (NaN =
/// ξ degenerate). ξ is asked only after every θ̂ of its level, in order of
/// j, at most once.
///
/// An empty level list is refused, not a panic.
pub fn diagnose<P>(
    theta_s: f64,
    cfg: &DiagnosticConfig,
    alpha: f64,
    theta_hat: impl Fn(usize, usize) -> (f64, P),
    xi: impl Fn(usize, usize, f64, P) -> f64,
) -> DiagnosticReport {
    let Some(last) = cfg.k().checked_sub(1) else {
        let reason = "no subsample sizes to judge".to_string();
        return DiagnosticReport::closing(Vec::new(), Decision::Refused(reason));
    };
    let p = cfg.p;
    let evaluate = |level: usize| -> LevelReport {
        let subsamples: Vec<(f64, P)> = (0..p).map(|j| theta_hat(level, j)).collect();
        // Degenerate estimates (NaN θ̂ on an empty subsample, ξ failures)
        // are dropped; they count against π by shrinking the numerator
        // but not p.
        let t_hats: Vec<f64> =
            subsamples.iter().map(|(t, _)| *t).filter(|t| t.is_finite()).collect();
        let mut report = LevelReport {
            level,
            b: cfg.subsample_rows[level],
            x: f64::NAN,
            xi_evaluated: 0,
            mean_deviation: f64::INFINITY,
            relative_spread: f64::INFINITY,
            close_proportion: 0.0,
        };
        if t_hats.is_empty() {
            return report;
        }
        let x = symmetric_half_width(theta_s, &t_hats, alpha);
        report.x = x;
        let mut x_hats = Vec::with_capacity(p);
        let mut close = 0usize;
        for (j, (t, prepared)) in subsamples.into_iter().enumerate() {
            let xh = xi(level, j, t, prepared);
            report.xi_evaluated = j + 1;
            if xh.is_finite() {
                x_hats.push(xh);
                if x > 0.0 {
                    close += usize::from(((xh - x) / x).abs() <= cfg.c3);
                } else if xh.abs() >= 1e-12 {
                    // Degenerate truth (constant estimator) holds only if
                    // ξ reports (near-)zero error everywhere too.
                    return report;
                }
            }
            // π_k can no longer reach ρ: the test is the final one's, on
            // the count if every subsample still to come were close.
            if level == last && x > 0.0 && ((close + p - 1 - j) as f64 / p as f64) < cfg.rho {
                report.close_proportion = close as f64 / p as f64;
                (report.mean_deviation, report.relative_spread) = (f64::NAN, f64::NAN);
                return report;
            }
        }
        if !x_hats.is_empty() {
            (report.mean_deviation, report.relative_spread, report.close_proportion) = if x > 0.0 {
                ((mean(&x_hats) - x).abs() / x, stddev(&x_hats) / x, close as f64 / p as f64)
            } else {
                (0.0, 0.0, 1.0)
            };
        }
        report
    };

    let mut levels = vec![evaluate(last)];
    let mut decision = if levels[0].close_proportion >= cfg.rho {
        Decision::Accepted
    } else {
        Decision::Failed { criterion: Criterion::Proportion, level: last }
    };
    // Deviations and spreads decreasing or small, from the top down; a
    // single-level ladder is the final-proportion check alone.
    let mut i = last;
    while decision == Decision::Accepted && i > 0 {
        let (dev, spread) = (levels[last - i].mean_deviation, levels[last - i].relative_spread);
        if i == 1 && dev < cfg.c1 && spread < cfg.c2 {
            break; // level 0 has no check of its own, and level 1's does not read it
        }
        let below = evaluate(i - 1);
        if !(dev < below.mean_deviation || dev < cfg.c1) {
            decision = Decision::Failed { criterion: Criterion::Deviation, level: i };
        } else if !(spread < below.relative_spread || spread < cfg.c2) {
            decision = Decision::Failed { criterion: Criterion::Spread, level: i };
        }
        levels.push(below);
        i -= 1;
    }
    levels.reverse();
    DiagnosticReport::closing(levels, decision)
}

/// Telemetry for every diagnostic run: the verdict and, for a rejection,
/// the one check that decided it, on the global metrics registry
/// (`aqp.diagnostics.*`). Handles are cached; each run costs one or two
/// atomic adds.
fn record_verdict(decision: &Decision) {
    use aqp_obs::name;
    static H: std::sync::OnceLock<[aqp_obs::Counter; 5]> = std::sync::OnceLock::new();
    let [accepted, rejected, deviation, spread, proportion] = H.get_or_init(|| {
        [
            name::DIAG_ACCEPTED,
            name::DIAG_REJECTED,
            name::DIAG_DEVIATION_FAILURES,
            name::DIAG_SPREAD_FAILURES,
            name::DIAG_PROPORTION_FAILURES,
        ]
        .map(|n| aqp_obs::MetricsRegistry::global().counter(n))
    });
    match decision {
        Decision::Accepted => return accepted.inc(),
        Decision::Refused(_) => {}
        Decision::Failed { criterion: Criterion::Deviation, .. } => deviation.inc(),
        Decision::Failed { criterion: Criterion::Spread, .. } => spread.inc(),
        Decision::Failed { criterion: Criterion::Proportion, .. } => proportion.inc(),
    }
    rejected.inc();
}

/// Self-contained Algorithm 1 over a values vector.
///
/// `values` is the (post-filter) aggregation column of the sample S, in
/// stored order — which, because samples are stored shuffled, makes
/// consecutive chunks valid disjoint subsamples. `ctx` carries the
/// pre-filter sample row count n and population size. Subsample sizes are
/// interpreted in pre-filter rows and mapped to value counts via the
/// sample's selectivity. A config that does not fit the sample is
/// refused ([`Decision::Refused`] names what is wrong with it).
pub fn run_diagnostic(
    values: &[f64],
    ctx: &SampleContext,
    theta: &Theta<'_>,
    xi: &dyn ErrorEstimator,
    cfg: &DiagnosticConfig,
    seeds: SeedStream,
) -> DiagnosticReport {
    if let Err(reason) = cfg.validate(ctx.sample_rows) {
        let reason = format!("invalid diagnostic config: {reason}");
        return DiagnosticReport::closing(Vec::new(), Decision::Refused(reason));
    }
    let est = theta.as_estimator();
    let selectivity = values.len() as f64 / ctx.sample_rows as f64;
    let subsample = |level: usize, j: usize| {
        let b = cfg.subsample_rows[level];
        // m values per subsample ≈ selectivity · b; p·m ≤ |values|.
        let m = ((b as f64 * selectivity).round() as usize).min(values.len() / cfg.p);
        (&values[j * m..(j + 1) * m], ctx.subsample(b))
    };
    diagnose(
        est.estimate(values, ctx),
        cfg,
        cfg.alpha,
        |level, j| {
            let (chunk, sub_ctx) = subsample(level, j);
            (est.estimate(chunk, &sub_ctx), ())
        },
        |level, j, _theta_hat, ()| {
            let (chunk, sub_ctx) = subsample(level, j);
            let mut rng = seeds.derive(level as u64).rng(j as u64);
            xi.confidence_interval(&mut rng, chunk, &sub_ctx, theta, cfg.alpha)
                .map_or(f64::NAN, |ci| ci.half_width)
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqp_stats::dist::{sample_lognormal, sample_pareto};
    use aqp_stats::error_estimator::EstimationMethod;
    use aqp_stats::estimator::Aggregate;
    use aqp_stats::rng::rng_from_seed;
    use aqp_stats::sampling::{gather, with_replacement_indices};

    fn sample_of(pop: &[f64], n: usize, seed: u64) -> Vec<f64> {
        let mut rng = rng_from_seed(seed);
        let idx = with_replacement_indices(&mut rng, n, pop.len());
        gather(pop, &idx)
    }

    fn cfg_for(n: usize) -> DiagnosticConfig {
        DiagnosticConfig::scaled_to(n, 50)
    }

    #[test]
    fn accepts_bootstrap_avg_on_benign_data() {
        let mut rng = rng_from_seed(1);
        let pop: Vec<f64> =
            (0..500_000).map(|_| sample_lognormal(&mut rng, 1.0, 0.5)).collect();
        let n = 40_000;
        let sample = sample_of(&pop, n, 2);
        let ctx = SampleContext::new(n, pop.len());
        let report = run_diagnostic(
            &sample,
            &ctx,
            &Theta::Builtin(Aggregate::Avg),
            &EstimationMethod::Bootstrap { k: 100 },
            &cfg_for(n),
            SeedStream::new(3),
        );
        assert!(report.accepted, "{report:#?}");
        assert_eq!(report.decision, Decision::Accepted);
        assert_eq!(report.levels.last().map(|l| (l.level, l.xi_evaluated)), Some((2, 50)));
    }

    #[test]
    fn accepts_closed_form_avg_on_benign_data() {
        let mut rng = rng_from_seed(4);
        let pop: Vec<f64> =
            (0..500_000).map(|_| sample_lognormal(&mut rng, 1.0, 0.5)).collect();
        let n = 40_000;
        let sample = sample_of(&pop, n, 5);
        let ctx = SampleContext::new(n, pop.len());
        let report = run_diagnostic(
            &sample,
            &ctx,
            &Theta::Builtin(Aggregate::Avg),
            &EstimationMethod::ClosedForm,
            &cfg_for(n),
            SeedStream::new(6),
        );
        assert!(report.accepted, "{report:#?}");
    }

    #[test]
    fn rejects_bootstrap_max_on_heavy_tails() {
        // MAX on Pareto(1.1): subsample maxima keep growing with b; the
        // bootstrap's per-subsample intervals can't track the truth.
        let mut rng = rng_from_seed(7);
        let pop: Vec<f64> = (0..500_000).map(|_| sample_pareto(&mut rng, 1.0, 1.1)).collect();
        let n = 40_000;
        let sample = sample_of(&pop, n, 8);
        let ctx = SampleContext::new(n, pop.len());
        let report = run_diagnostic(
            &sample,
            &ctx,
            &Theta::Builtin(Aggregate::Max),
            &EstimationMethod::Bootstrap { k: 100 },
            &cfg_for(n),
            SeedStream::new(9),
        );
        assert!(!report.accepted, "{report:#?}");
    }

    /// `diagnose` fed from a table: per level, (θ̂ⱼ, x̂ⱼ) for j in 0..p.
    fn diagnose_table(
        theta_s: f64,
        levels: &[(Vec<f64>, Vec<f64>)],
        cfg: &DiagnosticConfig,
    ) -> DiagnosticReport {
        diagnose(theta_s, cfg, cfg.alpha, |l, j| (levels[l].0[j], ()), |l, j, _, ()| levels[l].1[j])
    }

    fn alternating(s: f64, p: usize) -> Vec<f64> {
        (0..p).map(|j| if j % 2 == 0 { s } else { -s }).collect()
    }

    #[test]
    fn kernel_accepts_perfect_estimates() {
        // Synthetic: ξ returns exactly the truth at every level.
        let levels: Vec<(Vec<f64>, Vec<f64>)> = [100usize, 200, 400]
            .iter()
            .map(|&b| {
                // Estimates symmetric around theta_s at ±s: truth x = s.
                let s = 1.0 / (b as f64).sqrt();
                (alternating(s, 20), vec![s; 20])
            })
            .collect();
        let cfg = DiagnosticConfig {
            p: 20,
            subsample_rows: vec![100, 200, 400],
            ..DiagnosticConfig::fast()
        };
        let r = diagnose_table(0.0, &levels, &cfg);
        assert!(r.accepted, "{r:#?}");
        assert_eq!(r.decision, Decision::Accepted);
        // Δ₂, σ₂ and Δ₁, σ₁ are all below c₁ / c₂: level 1 is read for its
        // own check, level 0 by nobody.
        assert_eq!(r.levels.iter().map(|l| l.level).collect::<Vec<_>>(), vec![1, 2]);
        for l in &r.levels {
            assert!(l.mean_deviation < 1e-9);
            assert_eq!(l.close_proportion, 1.0);
            assert_eq!(l.xi_evaluated, 20);
        }
    }

    #[test]
    fn kernel_rejects_growing_deviation() {
        // Truth x = 1 everywhere; ξ reports `factor`, increasingly wrong.
        let levels: Vec<(Vec<f64>, Vec<f64>)> =
            [1.2, 1.3, 1.4].iter().map(|&f| (alternating(1.0, 20), vec![f; 20])).collect();
        let cfg = DiagnosticConfig {
            p: 20,
            subsample_rows: vec![100, 200, 400],
            ..DiagnosticConfig::fast()
        };
        let r = diagnose_table(0.0, &levels, &cfg);
        // π₂ = 1 (0.4 ≤ c₃), but Δ₂ = 0.4 ≥ c₁ and ≥ Δ₁ = 0.3.
        assert_eq!(r.decision, Decision::Failed { criterion: Criterion::Deviation, level: 2 });
        assert!(!r.accepted);
        assert_eq!(r.levels.iter().map(|l| l.level).collect::<Vec<_>>(), vec![1, 2]);
    }

    #[test]
    fn kernel_rejects_when_final_proportion_low() {
        // Deviation/spread fine on average but half the subsamples are way
        // off at b_k.
        let mut mixed_widths = vec![1.0; 10];
        mixed_widths.extend(vec![10.0; 10]); // 50% far off
        let levels =
            [(alternating(1.0, 20), vec![1.0; 20]), (alternating(1.0, 20), mixed_widths)];
        let cfg = DiagnosticConfig {
            p: 20,
            subsample_rows: vec![100, 200],
            c1: 10.0, // disable the mean-deviation gate
            c2: 10.0,
            ..DiagnosticConfig::fast()
        };
        let r = diagnose_table(0.0, &levels, &cfg);
        assert_eq!(r.decision, Decision::Failed { criterion: Criterion::Proportion, level: 1 });
        assert!(!r.accepted);
        // ρ·p = 19 needed: the second miss (j = 11) fixes the verdict, and
        // the level below is never looked at.
        assert_eq!(r.levels.len(), 1);
        assert_eq!(r.levels[0].xi_evaluated, 12);
        assert!(r.levels[0].mean_deviation.is_nan());
    }

    #[test]
    fn proportion_exactly_rho_is_accepted() {
        // 19 of 20 close is π = 0.95 = ρ: the stop must not fire on equality.
        let mut widths = vec![1.0; 20];
        widths[7] = 10.0;
        let cfg = DiagnosticConfig {
            p: 20,
            subsample_rows: vec![100],
            ..DiagnosticConfig::fast()
        };
        let r = diagnose_table(0.0, &[(alternating(1.0, 20), widths.clone())], &cfg);
        assert!(r.accepted, "{r:#?}");
        assert_eq!(r.levels[0].xi_evaluated, 20);
        widths[13] = 10.0;
        let r = diagnose_table(0.0, &[(alternating(1.0, 20), widths)], &cfg);
        assert!(!r.accepted);
        assert_eq!(r.levels[0].xi_evaluated, 14);
    }

    #[test]
    fn degenerate_truth_accepts_zero_error_estimates() {
        // Constant data: every subsample estimate equals θ(S); truth x = 0.
        let cfg =
            DiagnosticConfig { p: 10, subsample_rows: vec![100], ..DiagnosticConfig::fast() };
        let r = diagnose_table(5.0, &[(vec![5.0; 10], vec![0.0; 10])], &cfg);
        assert!(r.accepted, "{r:#?}");
        // ...and refuses at the first subsample where ξ disagrees.
        let mut widths = vec![0.0; 10];
        widths[3] = 0.5;
        let r = diagnose_table(5.0, &[(vec![5.0; 10], widths)], &cfg);
        assert_eq!(r.decision, Decision::Failed { criterion: Criterion::Proportion, level: 0 });
        assert_eq!(r.levels[0].xi_evaluated, 4);
    }

    #[test]
    fn nan_estimates_are_degenerate_not_fatal() {
        let cfg =
            DiagnosticConfig { p: 10, subsample_rows: vec![100], ..DiagnosticConfig::fast() };
        let r = diagnose_table(5.0, &[(vec![f64::NAN; 10], vec![f64::NAN; 10])], &cfg);
        assert!(!r.accepted);
        assert_eq!(r.levels[0].xi_evaluated, 0);
    }

    #[test]
    fn empty_ladder_is_refused() {
        let cfg = DiagnosticConfig { subsample_rows: vec![], ..DiagnosticConfig::fast() };
        let r = diagnose_table(1.0, &[], &cfg);
        assert!(!r.accepted);
        assert!(matches!(&r.decision, Decision::Refused(why) if why.contains("no subsample")));
    }

    #[test]
    fn deterministic_given_seed() {
        let mut rng = rng_from_seed(10);
        let pop: Vec<f64> = (0..100_000).map(|_| sample_lognormal(&mut rng, 0.0, 0.7)).collect();
        let n = 20_000;
        let sample = sample_of(&pop, n, 11);
        let ctx = SampleContext::new(n, pop.len());
        let run = || {
            run_diagnostic(
                &sample,
                &ctx,
                &Theta::Builtin(Aggregate::Sum),
                &EstimationMethod::Bootstrap { k: 50 },
                &cfg_for(n),
                SeedStream::new(12),
            )
        };
        let a = run();
        let b = run();
        assert_eq!(a.accepted, b.accepted);
        assert_eq!(
            a.levels.iter().map(|l| l.x).collect::<Vec<_>>(),
            b.levels.iter().map(|l| l.x).collect::<Vec<_>>()
        );
    }

    #[test]
    fn invalid_config_is_refused() {
        let cfg = DiagnosticConfig {
            p: 100,
            subsample_rows: vec![1000],
            ..DiagnosticConfig::fast()
        };
        let ctx = SampleContext::new(100, 1000);
        let r = run_diagnostic(
            &[1.0; 100],
            &ctx,
            &Theta::Builtin(Aggregate::Avg),
            &EstimationMethod::ClosedForm,
            &cfg,
            SeedStream::new(1),
        );
        assert!(!r.accepted);
        assert!(r.levels.is_empty());
        assert!(
            matches!(&r.decision, Decision::Refused(why) if why.contains("exceeds the sample size")),
            "{r:#?}"
        );
    }
}
