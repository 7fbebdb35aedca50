//! End-to-end acceptance for continuous profiling and telemetry export:
//! zero footprint when disabled, bit-identical answers/traces/metrics
//! when enabled, an associative order-insensitive shard merge
//! (proptest), bit-stable exporter output, and a <5% fold-in overhead
//! bound on a real clock.
//!
//! [`dump_artifact_for_ci_smoke`] pins the folded-stack and chrome trace
//! artifacts of one profiled workload byte for byte
//! (`tests/golden/profile_seed7.*`).

mod common;

use proptest::prelude::*;

use reliable_aqp::obs::{name, Clock, ObsHandle, Timestamp, TraceRecorder};
use reliable_aqp::prof::contprof::{ContProfConfig, CumulativeProfile};
use reliable_aqp::prof::export::{chrome_trace, folded_stacks};
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

/// A nested 3-op profile (Scan inside Filter inside Aggregate) whose
/// per-op self time is exactly `ms_each` milliseconds.
fn synthetic_tree(clock: &Clock, ms_each: u64) -> OpProfile {
    let rec = TraceRecorder::new(clock.clone());
    let stage = rec.start("scan_collect");
    let t0 = clock.now();
    clock.advance(std::time::Duration::from_millis(3 * ms_each));
    for (name, id, walls) in
        [("op:Scan", 2usize, 1u64), ("op:Filter", 1, 2), ("op:Aggregate", 0, 3)]
    {
        let end = Timestamp::from_nanos(t0.nanos() + walls * ms_each * 1_000_000);
        let sp = rec.record_span(name, t0, end);
        rec.attr(sp, "node_id", id);
        rec.attr(sp, "rows_in", 100);
        rec.attr(sp, "rows_out", 80);
        rec.attr(sp, "batches", 1);
        rec.attr(sp, "bytes", 640);
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
        (cum.to_json(), folded_stacks(&cum), cum)
    };
    let (json_a, folded_a, cum) = run();
    let (json_b, folded_b, _) = run();
    assert_eq!(json_a, json_b, "cumulative JSON must be bit-stable across runs");
    assert_eq!(folded_a, folded_b, "folded stacks must be bit-stable across runs");
    assert_eq!(cum.queries_observed(), 8);
    assert_eq!(cum.classes(), 2, "AVG → default, GROUP BY → dashboards");
    assert!(cum.paths() > 0);
    // Every folded line is `class;Op[;Op...] <self_ns>`.
    for line in folded_a.lines() {
        let (stack, self_ns) = line.rsplit_once(' ').expect("folded line shape");
        assert!(stack.contains(';'), "stack `{stack}` must start with its class");
        self_ns.parse::<u64>().expect("self time is integral nanoseconds");
    }
}

#[test]
fn chrome_trace_export_is_bit_stable_and_well_formed() {
    let run = || {
        let obs = ObsHandle::isolated(Clock::mock());
        let s = profiled_session(13, Some(routing()), obs);
        let a = s.execute("SELECT AVG(time) FROM sessions").unwrap();
        chrome_trace(&a.trace)
    };
    let (a, b) = (run(), run());
    assert_eq!(a, b, "chrome trace must be bit-stable across runs");
    assert!(a.starts_with("{\"traceEvents\":["), "{a}");
    assert!(a.ends_with("]}\n"), "{a}");
    assert!(a.contains("\"ph\":\"X\""), "complete events only: {a}");
    assert!(a.contains("\"name\":\"op:Scan\""), "operator spans exported: {a}");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// The shard merge is associative and order-insensitive: folding the
    /// same shards in any grouping and any order yields identical state
    /// and identical exported bytes.
    #[test]
    fn merge_is_associative_and_order_insensitive(
        ops in prop::collection::vec((0usize..3, 1u64..6), 1..12),
        order in prop::collection::vec(0usize..3, 3..4),
    ) {
        let clock = Clock::mock();
        let classes = ["interactive", "reports", "batch"];
        let mut shards = [
            CumulativeProfile::new(),
            CumulativeProfile::new(),
            CumulativeProfile::new(),
        ];
        for (i, &(class, ms)) in ops.iter().enumerate() {
            let tree = synthetic_tree(&clock, ms);
            shards[i % 3].observe(classes[class], std::slice::from_ref(&tree));
        }
        // Associativity: (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c).
        let mut left = shards[0].clone();
        left.merge(&shards[1]);
        left.merge(&shards[2]);
        let mut bc = shards[1].clone();
        bc.merge(&shards[2]);
        let mut right = shards[0].clone();
        right.merge(&bc);
        prop_assert_eq!(&left, &right);
        // Order-insensitivity: any shard order yields the same bytes.
        let mut permuted = CumulativeProfile::new();
        for &i in &order {
            permuted.merge(&shards[i]);
        }
        let mut reference = CumulativeProfile::new();
        let mut sorted = order.clone();
        sorted.sort_unstable();
        for &i in &sorted {
            reference.merge(&shards[i]);
        }
        prop_assert_eq!(permuted.to_json(), reference.to_json());
        prop_assert_eq!(folded_stacks(&permuted), folded_stacks(&reference));
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

/// A fixed-seed profiled workload's folded stacks and the chrome trace of
/// its last query, byte for byte.
#[test]
fn dump_artifact_for_ci_smoke() {
    let s = profiled_session(7, Some(routing()), ObsHandle::isolated(Clock::mock()));
    let mut last_trace = None;
    for i in 0..12 {
        let sql = match i % 3 {
            0 => "SELECT AVG(time) FROM sessions",
            1 => "SELECT SUM(bytes) FROM sessions",
            _ => "SELECT city, COUNT(*) FROM sessions GROUP BY city",
        };
        last_trace = Some(s.execute(sql).unwrap().trace);
    }
    let cum = s.cumulative_profile().expect("contprof is on");
    common::assert_matches_golden("profile_seed7.folded", &folded_stacks(&cum));
    let trace = chrome_trace(&last_trace.expect("queries ran"));
    common::assert_matches_golden("profile_seed7.chrome.json", &trace);
}
