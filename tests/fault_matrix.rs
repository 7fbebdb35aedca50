//! The fault matrix: sweep {fault kind} × {recovery policy} ×
//! {aggregate} over the approximate executor and prove, for every cell,
//!
//! * **liveness** — the query completes with an answer or a typed
//!   `ExecError::Degraded` / `ExecError::Unrecoverable`; it never hangs
//!   and never panics,
//! * **determinism** — the same fault seed and query seed produce a
//!   bit-identical answer and an identical JSONL trace, and
//! * **coverage soundness** — degraded error bars are never narrower
//!   than fault-free ones, and their empirical coverage over a
//!   fixed-seed harness stays within two points of the fault-free run.
//!
//! [`mixed_fault_traces_match_fault_trace_seeds`] pins the JSONL trace
//! of one mixed-fault query per seed
//! (`tests/golden/fault_trace_seed{1,2,3}.jsonl`).

mod common;

use reliable_aqp::exec::{execute_approx, execute_exact, ApproxOptions, ExecError, UdfRegistry};
use reliable_aqp::faults::{FaultConfig, RecoveryPolicy, StragglerDelay};
use reliable_aqp::obs::{Clock, ObsHandle};
use reliable_aqp::sql::{parse_query, plan_query, LogicalPlan};
use reliable_aqp::stats::rng::rng_from_seed;
use reliable_aqp::stats::sampling::with_replacement_indices;
use reliable_aqp::storage::Table;
use reliable_aqp::workload::conviva_sessions_table;

const POPULATION_ROWS: usize = 400_000;

/// The fixed sample table every matrix cell runs against: 4 000 rows in
/// 8 partitions, standing in for a stored sample of a 400 000-row table.
fn sample_table(seed: u64) -> Table {
    conviva_sessions_table(4_000, 8, seed)
}

fn plan_for(sql: &str, table: &Table) -> LogicalPlan {
    plan_query(&parse_query(sql).unwrap(), table.schema()).unwrap()
}

/// Single-threaded, mock-clocked options so traces are reproducible.
fn opts_with(faults: Option<FaultConfig>, seed: u64) -> ApproxOptions {
    ApproxOptions {
        seed,
        threads: 1,
        obs: ObsHandle::isolated(Clock::mock()),
        faults,
        ..Default::default()
    }
}

/// One config per fault kind, all on the same plan seed.
fn kind_configs(seed: u64) -> Vec<(&'static str, FaultConfig)> {
    let mut death = FaultConfig::quiescent(seed);
    death.worker_death_prob = 0.3;
    let mut transient = FaultConfig::quiescent(seed);
    transient.transient_error_prob = 0.4;
    let mut corrupt = FaultConfig::quiescent(seed);
    corrupt.corruption_prob = 0.3;
    let mut trunc = FaultConfig::quiescent(seed);
    trunc.truncation_prob = 0.5;
    trunc.truncation_keep = 0.4;
    let mut straggle = FaultConfig::quiescent(seed);
    straggle.straggler_prob = 0.6;
    straggle.straggler_delay = StragglerDelay::HeavyTail { mean_ms: 40.0, sigma: 1.2 };
    vec![
        ("worker_death", death),
        ("transient_error", transient),
        ("corruption", corrupt),
        ("truncation", trunc),
        ("straggler", straggle),
    ]
}

fn policies() -> Vec<(&'static str, RecoveryPolicy)> {
    vec![
        ("retry_only", RecoveryPolicy { speculative: false, ..Default::default() }),
        ("retry_speculative", RecoveryPolicy::default()),
        (
            "degrade_freely",
            RecoveryPolicy { max_retries: 1, max_lost_fraction: 1.0, ..Default::default() },
        ),
        ("strict", RecoveryPolicy { max_retries: 0, max_lost_fraction: 0.0, ..Default::default() }),
    ]
}

const AGGREGATES: [&str; 3] = [
    "SELECT AVG(time) FROM sessions",
    "SELECT SUM(bytes) FROM sessions",
    "SELECT COUNT(*) FROM sessions",
];

/// The matrix itself: every cell must terminate in a well-typed way and
/// be bit-identical on a rerun with the same seeds.
#[test]
fn matrix_liveness_and_determinism() {
    let table = sample_table(42);
    let registry = UdfRegistry::default();
    for (kind, base) in kind_configs(7) {
        for (policy_name, policy) in policies() {
            let mut cfg = base.clone();
            cfg.recovery = policy;
            for sql in AGGREGATES {
                let cell = format!("{kind}/{policy_name}/{sql}");
                let plan = plan_for(sql, &table);
                let run = || {
                    execute_approx(
                        &plan,
                        &table,
                        POPULATION_ROWS,
                        &registry,
                        &opts_with(Some(cfg.clone()), 11),
                    )
                };
                let a = run();
                let b = run();
                match (&a, &b) {
                    (Ok(ra), Ok(rb)) => {
                        assert_eq!(ra.groups.len(), rb.groups.len(), "{cell}");
                        for (ga, gb) in ra.groups.iter().zip(&rb.groups) {
                            for (x, y) in ga.aggs.iter().zip(&gb.aggs) {
                                assert!(x.estimate.is_finite(), "{cell}: non-finite estimate");
                                assert_eq!(
                                    x.estimate.to_bits(),
                                    y.estimate.to_bits(),
                                    "{cell}: estimates diverged across identical runs"
                                );
                                match (&x.ci, &y.ci) {
                                    (Some(cx), Some(cy)) => {
                                        assert!(cx.half_width.is_finite(), "{cell}");
                                        assert_eq!(
                                            cx.half_width.to_bits(),
                                            cy.half_width.to_bits(),
                                            "{cell}: half-widths diverged"
                                        );
                                    }
                                    (None, None) => {}
                                    _ => panic!("{cell}: CI presence diverged"),
                                }
                            }
                        }
                        assert_eq!(
                            ra.trace.to_jsonl(),
                            rb.trace.to_jsonl(),
                            "{cell}: traces diverged across identical runs"
                        );
                        match (ra.degraded, rb.degraded) {
                            (Some(da), Some(db)) => {
                                assert_eq!(da.effective_rows, db.effective_rows, "{cell}");
                                assert!(da.widen_factor >= 1.0, "{cell}: narrowing widen factor");
                                assert!(
                                    da.effective_rows <= da.planned_rows,
                                    "{cell}: effective rows exceed planned"
                                );
                            }
                            (None, None) => {}
                            _ => panic!("{cell}: degraded marker diverged"),
                        }
                    }
                    // Typed failures are acceptable outcomes; they just
                    // have to be the *same* typed failure both times.
                    (Err(ExecError::Degraded { .. }), Err(ExecError::Degraded { .. }))
                    | (Err(ExecError::Unrecoverable(_)), Err(ExecError::Unrecoverable(_))) => {
                        assert_eq!(
                            format!("{:?}", a.as_ref().err()),
                            format!("{:?}", b.as_ref().err()),
                            "{cell}: error details diverged"
                        );
                    }
                    _ => panic!(
                        "{cell}: outcome not deterministic or not typed: {:?} vs {:?}",
                        a.as_ref().map(|_| "ok").map_err(|e| e.to_string()),
                        b.as_ref().map(|_| "ok").map_err(|e| e.to_string()),
                    ),
                }
            }
        }
    }
}

// `quiescent_faults_match_fault_free_bit_for_bit` migrated to the
// conformance corpus: tests/corpus/quiescent_matches_clean.case pins a
// quiescent-fault session bit-identical to the fault-free
// avg_uniform_clean_audit.case via its `answers_match` invariant.

/// Degraded error bars must never be narrower than fault-free ones
/// computed with the same query seed — and not by the natural √ growth of
/// a smaller sample alone: `Ci::widen` stretches them by planned /
/// effective on top of it, so a widening that does nothing stays below
/// the fault-free bar times that factor.
#[test]
fn degraded_cis_are_never_narrower() {
    let table = sample_table(5);
    let registry = UdfRegistry::default();
    let plan = plan_for("SELECT AVG(time) FROM sessions", &table);
    let clean =
        execute_approx(&plan, &table, POPULATION_ROWS, &registry, &opts_with(None, 13)).unwrap();
    let clean_hw = clean.scalar().unwrap().ci.unwrap().half_width;

    let mut cfg = FaultConfig::quiescent(9);
    cfg.truncation_prob = 0.7;
    cfg.truncation_keep = 0.5;
    let degraded =
        execute_approx(&plan, &table, POPULATION_ROWS, &registry, &opts_with(Some(cfg), 13))
            .unwrap();
    let info = degraded.degraded.expect("truncation must shrink the effective sample");
    assert!(info.effective_rows < info.planned_rows, "{info:?}");
    assert!(info.widen_factor > 1.0, "{info:?}");
    let hw = degraded.scalar().unwrap().ci.unwrap().half_width;
    assert!(
        hw >= clean_hw * info.widen_factor,
        "degraded hw {hw} is not fault-free {clean_hw} widened by {}",
        info.widen_factor
    );
}

/// Losing partitions beyond the policy's tolerance must surface as the
/// typed `Degraded` error (the session layer turns this into an exact
/// fallback), and losing everything as `Unrecoverable`.
#[test]
fn typed_errors_for_intolerable_loss() {
    let table = sample_table(8);
    let registry = UdfRegistry::default();
    let plan = plan_for("SELECT AVG(time) FROM sessions", &table);

    // Certain death everywhere: nothing survives.
    let mut all_dead = FaultConfig::quiescent(1);
    all_dead.worker_death_prob = 1.0;
    all_dead.recovery.max_retries = 0;
    all_dead.recovery.max_lost_fraction = 1.0;
    match execute_approx(&plan, &table, POPULATION_ROWS, &registry, &opts_with(Some(all_dead), 2)) {
        Err(ExecError::Unrecoverable(_)) => {}
        other => panic!("expected Unrecoverable, got {other:?}"),
    }

    // Partial death with zero tolerance: some seed in a small window
    // must produce a partial (not total) loss and hence `Degraded`.
    let mut saw_degraded = false;
    for seed in 0..32 {
        let mut partial = FaultConfig::quiescent(seed);
        partial.worker_death_prob = 0.4;
        partial.recovery.max_retries = 0;
        partial.recovery.max_lost_fraction = 0.0;
        if let Err(ExecError::Degraded { lost_partitions, total_partitions }) = execute_approx(
            &plan,
            &table,
            POPULATION_ROWS,
            &registry,
            &opts_with(Some(partial), 2),
        ) {
            assert!(lost_partitions > 0 && lost_partitions < total_partitions);
            saw_degraded = true;
            break;
        }
    }
    assert!(saw_degraded, "no seed in 0..32 produced a partial loss");
}

/// Fixed-seed coverage harness: empirical CI coverage of the true
/// population mean under truncation faults must stay within two points
/// of the fault-free coverage (wider bars can only help).
#[test]
fn degraded_coverage_tracks_fault_free_coverage() {
    const TRIALS: u64 = 60;
    const SAMPLE_ROWS: usize = 4_000;
    let pop = conviva_sessions_table(40_000, 8, 77);
    let registry = UdfRegistry::default();
    let plan = plan_for("SELECT AVG(time) FROM sessions", &pop);
    let truth = execute_exact(&plan, &pop, &registry, 1).unwrap().scalar().unwrap();

    let mut clean_hits = 0u32;
    let mut degraded_hits = 0u32;
    for trial in 0..TRIALS {
        let mut rng = rng_from_seed(1_000 + trial);
        let idx = with_replacement_indices(&mut rng, SAMPLE_ROWS, pop.num_rows());
        let batch = pop.gather(&idx).unwrap();
        let sample = Table::from_batch("sessions_sample", batch, 8).unwrap();

        let clean = execute_approx(
            &plan,
            &sample,
            pop.num_rows(),
            &registry,
            &opts_with(None, trial),
        )
        .unwrap();
        if clean.scalar().unwrap().ci.unwrap().contains(truth) {
            clean_hits += 1;
        }

        let mut cfg = FaultConfig::quiescent(trial);
        cfg.truncation_prob = 0.6;
        cfg.truncation_keep = 0.5;
        let degraded = execute_approx(
            &plan,
            &sample,
            pop.num_rows(),
            &registry,
            &opts_with(Some(cfg), trial),
        )
        .unwrap();
        if degraded.scalar().unwrap().ci.unwrap().contains(truth) {
            degraded_hits += 1;
        }
    }
    let clean_cov = f64::from(clean_hits) / TRIALS as f64;
    let degraded_cov = f64::from(degraded_hits) / TRIALS as f64;
    assert!(
        degraded_cov >= clean_cov - 0.02,
        "degraded coverage {degraded_cov} fell more than 2 points below fault-free {clean_cov}"
    );
}

// `bootstrap_intervals_widen_too` migrated to the conformance corpus:
// tests/corpus/trimmed_mean_degraded.case forces a UDF aggregate through
// the bootstrap error-estimation path under heavy truncation and pins
// the degraded widen factor (and the widened CI bits) in its [expect].

/// One mixed-fault query per seed: its JSONL trace (every injected
/// fault, retry and speculative launch), byte for byte.
#[test]
fn mixed_fault_traces_match_fault_trace_seeds() {
    for seed in 1..=3 {
        let table = sample_table(seed);
        let registry = UdfRegistry::default();
        let plan = plan_for("SELECT AVG(time) FROM sessions", &table);
        let mut cfg = FaultConfig::quiescent(seed);
        cfg.worker_death_prob = 0.15;
        cfg.transient_error_prob = 0.3;
        cfg.truncation_prob = 0.3;
        cfg.truncation_keep = 0.5;
        cfg.straggler_prob = 0.4;
        cfg.recovery.max_lost_fraction = 1.0; // always complete, however degraded
        let res =
            execute_approx(&plan, &table, POPULATION_ROWS, &registry, &opts_with(Some(cfg), seed))
                .expect("a fully loss-tolerant policy must complete");
        common::assert_matches_golden(&format!("fault_trace_seed{seed}.jsonl"), &res.trace.to_jsonl());
    }
}
