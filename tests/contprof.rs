//! End-to-end acceptance for continuous profiling: zero footprint when
//! disabled, bit-identical answers/traces/metrics when enabled, a fold
//! whose bytes do not depend on the order queries arrive in (proptest),
//! and a <5% fold-in overhead bound on a real clock.
//!
//! [`cumulative_profile_matches_profile_seed7`] pins the cumulative
//! profile of one profiled workload byte for byte
//! (`tests/golden/profile_seed7.jsonl`).

mod common;

use proptest::prelude::*;

use reliable_aqp::obs::{name, Clock, ObsHandle, Timestamp, TraceRecorder};
use reliable_aqp::prof::contprof::{ContProfConfig, CumulativeProfile};
use reliable_aqp::workload::conviva_sessions_table;
use reliable_aqp::{AqpSession, OpProfile, SessionConfig};

/// A profiled session over the conviva sessions table: mock clock,
/// single-threaded, dashboards/reports class routing.
fn profiled_session(seed: u64, contprof: Option<ContProfConfig>, obs: ObsHandle) -> AqpSession {
    let s = AqpSession::new(SessionConfig {
        seed,
        threads: 1,
        bootstrap_k: 40,
        diagnostic_p: 50,
        obs,
        contprof,
        ..Default::default()
    });
    s.register_table(conviva_sessions_table(20_000, 4, seed)).unwrap();
    s.build_samples("sessions", &[4_000], 9).unwrap();
    s
}

/// The class routing every test uses: GROUP BY queries are dashboards,
/// everything else lands in the default class.
fn routing() -> ContProfConfig {
    ContProfConfig::new().with_class("dashboards", "GROUP BY")
}

/// A chain of the first `depth` of Aggregate ⊃ Filter ⊃ Scan ⊃ Resample,
/// each operator nested in its parent, whose per-op self time is exactly
/// `ms_each` milliseconds.
fn synthetic_tree(clock: &Clock, depth: usize, ms_each: u64) -> OpProfile {
    const OPS: [&str; 4] = ["op:Aggregate", "op:Filter", "op:Scan", "op:Resample"];
    let rec = TraceRecorder::new(clock.clone());
    let stage = rec.start("scan_collect");
    let t0 = clock.now();
    clock.advance(std::time::Duration::from_millis(depth as u64 * ms_each));
    for id in (0..depth).rev() {
        let walls = (depth - id) as u64;
        let end = Timestamp::from_nanos(t0.nanos() + walls * ms_each * 1_000_000);
        let sp = rec.record_span(OPS[id], t0, end);
        rec.attr(sp, "node_id", id);
        rec.attr(sp, "rows_in", 100 * walls);
        rec.attr(sp, "rows_out", 80 * walls);
        rec.attr(sp, "batches", 1);
        rec.attr(sp, "bytes", 640 * walls);
    }
    rec.end(stage);
    OpProfile::from_trace(&rec.finish()).expect("profile")
}

#[test]
fn contprof_is_off_by_default_with_zero_footprint() {
    let obs = ObsHandle::isolated(Clock::mock());
    let s = profiled_session(5, None, obs.clone());
    for _ in 0..5 {
        s.execute("SELECT AVG(time) FROM sessions").unwrap();
    }
    assert!(s.cumulative_profile().is_none(), "no profiler was configured");
    // Not a single contprof metric may even be registered.
    let snap = obs.metrics.snapshot();
    let leaked = |k: &str| k.starts_with("aqp.prof.contprof");
    assert!(
        snap.counters.iter().all(|(k, _)| !leaked(k))
            && snap.gauges.iter().all(|(k, _)| !leaked(k))
            && snap.histograms.iter().all(|(k, _)| !leaked(k)),
        "contprof metrics leaked into a session with contprof: None"
    );
}

#[test]
fn enabling_contprof_leaves_answers_and_traces_bit_identical() {
    // The profiler observes the pipeline; it must never perturb it.
    let run = |contprof: Option<ContProfConfig>| {
        let obs = ObsHandle::isolated(Clock::mock());
        let s = profiled_session(7, contprof, obs.clone());
        let mut answers = String::new();
        let mut traces = String::new();
        for i in 0..9 {
            let sql = match i % 3 {
                0 => "SELECT AVG(time) FROM sessions",
                1 => "SELECT SUM(bytes) FROM sessions",
                _ => "SELECT city, COUNT(*) FROM sessions GROUP BY city",
            };
            let a = s.execute(sql).unwrap();
            for g in &a.groups {
                for agg in &g.aggs {
                    answers.push_str(&format!(
                        "{} {} {:x}\n",
                        g.key,
                        agg.name,
                        agg.estimate.to_bits()
                    ));
                }
            }
            traces.push_str(&a.trace.to_jsonl());
        }
        // The shared (non-contprof) metric families must agree too.
        let metrics: String = obs
            .metrics
            .snapshot()
            .to_jsonl()
            .lines()
            .filter(|l| !l.contains("aqp.prof.contprof"))
            .map(|l| format!("{l}\n"))
            .collect();
        (answers, traces, metrics)
    };
    let off = run(None);
    let on = run(Some(routing()));
    assert_eq!(off.0, on.0, "answers changed when continuous profiling was enabled");
    assert_eq!(off.1, on.1, "traces changed when continuous profiling was enabled");
    assert_eq!(off.2, on.2, "shared metrics changed when continuous profiling was enabled");
}

#[test]
fn cumulative_profile_accumulates_and_exports_deterministically() {
    let run = || {
        let obs = ObsHandle::isolated(Clock::mock());
        let s = profiled_session(11, Some(routing()), obs);
        for _ in 0..4 {
            s.execute("SELECT AVG(time) FROM sessions").unwrap();
            s.execute("SELECT city, COUNT(*) FROM sessions GROUP BY city").unwrap();
        }
        let cum = s.cumulative_profile().expect("contprof is on");
        (cum.to_json(), cum)
    };
    let (json_a, cum) = run();
    let (json_b, _) = run();
    assert_eq!(json_a, json_b, "cumulative JSON must be bit-stable across runs");
    assert_eq!(cum.queries_observed(), 8);
    assert_eq!(cum.classes(), 2, "AVG → default, GROUP BY → dashboards");
    assert!(cum.paths() > 0);
    // A header line, then one `(class, path)` cell per line.
    assert_eq!(json_a.lines().count(), 1 + cum.paths());
    for line in json_a.lines().skip(1) {
        assert!(line.starts_with("{\"class\":"), "{line}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// A session shared by concurrent callers folds their queries in
    /// whatever order they finish: two permutations of the same operator
    /// trees yield the same bytes.
    #[test]
    fn folding_is_independent_of_order(
        ops in prop::collection::vec((0usize..3, 1usize..5, 1u64..6, any::<u32>()), 1..12),
    ) {
        let clock = Clock::mock();
        let classes = ["interactive", "reports", "batch"];
        let trees: Vec<(&str, OpProfile)> = ops
            .iter()
            .map(|&(class, depth, ms, _)| (classes[class], synthetic_tree(&clock, depth, ms)))
            .collect();
        let fold = |order: &[usize]| {
            let mut cum = CumulativeProfile::new();
            for &i in order {
                cum.observe(trees[i].0, &trees[i].1);
            }
            cum.to_json()
        };
        let arrival: Vec<usize> = (0..ops.len()).collect();
        let mut shuffled = arrival.clone();
        shuffled.sort_by_key(|&i| ops[i].3);
        prop_assert_eq!(fold(&arrival), fold(&shuffled));
    }
}

#[test]
fn contprof_overhead_is_bounded_at_five_percent() {
    // Real clock, bootstrap-heavy workload: folding profiles into the
    // cumulative state must stay under 5% of total query wall-clock.
    let obs = ObsHandle::isolated(Clock::real());
    let s = AqpSession::new(SessionConfig {
        seed: 11,
        threads: 1,
        run_diagnostics: false,
        obs: obs.clone(),
        contprof: Some(routing()),
        ..Default::default()
    });
    s.register_table(conviva_sessions_table(30_000, 4, 3)).unwrap();
    s.build_samples("sessions", &[6_000], 13).unwrap();
    for _ in 0..50 {
        s.execute("SELECT trimmed_mean(time) FROM sessions").unwrap();
    }
    let snap = obs.metrics.snapshot();
    let query_ms = snap.histogram(name::CORE_QUERY_MS).expect("queries ran").sum_ms;
    let eval = snap.histogram(name::PROF_CONTPROF_EVAL_MS).expect("the profiler ran");
    assert!(eval.count >= 50, "every query must be folded in ({})", eval.count);
    let overhead = eval.sum_ms / (query_ms + eval.sum_ms);
    assert!(
        overhead < 0.05,
        "profile fold-in took {:.2}% of wall-clock ({:.2}ms of {:.2}ms)",
        overhead * 100.0,
        eval.sum_ms,
        query_ms
    );
}

/// A fixed-seed profiled workload's cumulative profile, byte for byte.
#[test]
fn cumulative_profile_matches_profile_seed7() {
    let s = profiled_session(7, Some(routing()), ObsHandle::isolated(Clock::mock()));
    for i in 0..12 {
        let sql = match i % 3 {
            0 => "SELECT AVG(time) FROM sessions",
            1 => "SELECT SUM(bytes) FROM sessions",
            _ => "SELECT city, COUNT(*) FROM sessions GROUP BY city",
        };
        s.execute(sql).unwrap();
    }
    let cum = s.cumulative_profile().expect("contprof is on");
    common::assert_matches_golden("profile_seed7.jsonl", &cum.to_json());
}
