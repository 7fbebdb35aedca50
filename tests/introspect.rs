//! End-to-end acceptance for self-hosted telemetry analytics: zero
//! footprint when disabled, bit-identical answers/traces/metrics for the
//! base workload when enabled, approximate answers with error bars over
//! the `_telemetry.*` tables, a recursion guard that keeps introspection
//! queries out of their own telemetry, and a <5% fold-in overhead bound
//! on a real clock.
//!
//! [`telemetry_answers_match_introspect_seed7`] pins the rendered
//! answers (estimates, CIs, and diagnostic verdicts as exact bit
//! patterns) of one fault-injected run
//! (`tests/golden/introspect_seed7.txt`).

mod common;

use reliable_aqp::faults::FaultConfig;
use reliable_aqp::obs::{name, Clock, ObsHandle};
use reliable_aqp::workload::conviva_sessions_table;
use reliable_aqp::{AqpAnswer, AqpSession, IntrospectConfig, SessionConfig};

/// An introspected session over the conviva sessions table: mock clock,
/// single-threaded, deterministic per `seed`.
fn introspected_session(
    seed: u64,
    introspect: Option<IntrospectConfig>,
    obs: ObsHandle,
) -> AqpSession {
    let s = AqpSession::new(SessionConfig {
        seed,
        threads: 1,
        bootstrap_k: 40,
        diagnostic_p: 50,
        obs,
        introspect,
        ..Default::default()
    });
    s.register_table(conviva_sessions_table(20_000, 4, seed)).unwrap();
    s.build_samples("sessions", &[4_000], 9).unwrap();
    s
}

/// The introspection routing every test uses: GROUP BY queries are
/// dashboards, everything else lands in the default class.
fn routing() -> IntrospectConfig {
    IntrospectConfig::new().with_class("dashboards", "GROUP BY")
}

/// Render an answer as exact bit patterns: estimates, CI bounds, and
/// diagnostic verdicts. Any cross-process drift becomes a byte diff.
fn render(a: &AqpAnswer) -> String {
    let mut out = format!(
        "mode={:?} sample={}/{} fell_back={}\n",
        a.mode, a.sample_rows, a.population_rows, a.fell_back
    );
    for g in &a.groups {
        for agg in &g.aggs {
            let ci = match &agg.ci {
                Some(c) => format!(
                    "{:x}±{:x}@{:x}",
                    c.center.to_bits(),
                    c.half_width.to_bits(),
                    c.confidence.to_bits()
                ),
                None => "-".to_string(),
            };
            let verdict = match &agg.diagnostic {
                Some(d) if d.accepted => "ok",
                Some(_) => "rejected",
                None => "-",
            };
            out.push_str(&format!(
                "{} {} {:x} ci={} diag={}\n",
                g.key,
                agg.name,
                agg.estimate.to_bits(),
                ci,
                verdict
            ));
        }
    }
    out
}

#[test]
fn introspect_is_off_by_default_with_zero_footprint() {
    let obs = ObsHandle::isolated(Clock::mock());
    let s = introspected_session(5, None, obs.clone());
    for _ in 0..5 {
        s.execute("SELECT AVG(time) FROM sessions").unwrap();
    }
    // Without the pipeline, the reserved namespace does not exist.
    assert!(
        s.execute("SELECT COUNT(*) FROM _telemetry.queries").is_err(),
        "_telemetry tables must not exist when introspect is None"
    );
    // Not a single introspect (or sink-drop) metric may even be registered.
    let snap = obs.metrics.snapshot();
    let leaked =
        |k: &str| k.starts_with("aqp.introspect.") || k == name::OBS_SINK_DROPPED_LINES;
    assert!(
        snap.counters.iter().all(|(k, _)| !leaked(k))
            && snap.gauges.iter().all(|(k, _)| !leaked(k))
            && snap.histograms.iter().all(|(k, _)| !leaked(k)),
        "introspect metrics leaked into a session with introspect: None"
    );
}

#[test]
fn enabling_introspection_leaves_answers_and_traces_bit_identical() {
    // The pipeline observes the session; it must never perturb it.
    let run = |introspect: Option<IntrospectConfig>| {
        let obs = ObsHandle::isolated(Clock::mock());
        let s = introspected_session(7, introspect, obs.clone());
        let mut answers = String::new();
        let mut traces = String::new();
        for i in 0..9 {
            let sql = match i % 3 {
                0 => "SELECT AVG(time) FROM sessions",
                1 => "SELECT SUM(bytes) FROM sessions",
                _ => "SELECT city, COUNT(*) FROM sessions GROUP BY city",
            };
            let a = s.execute(sql).unwrap();
            answers.push_str(&render(&a));
            traces.push_str(&a.trace.to_jsonl());
        }
        // The shared (non-introspect) metric families must agree too.
        let metrics: String = obs
            .metrics
            .snapshot()
            .to_jsonl()
            .lines()
            .filter(|l| !l.contains("aqp.introspect."))
            .map(|l| format!("{l}\n"))
            .collect();
        (answers, traces, metrics)
    };
    let off = run(None);
    let on = run(Some(routing()));
    assert_eq!(off.0, on.0, "answers changed when introspection was enabled");
    assert_eq!(off.1, on.1, "traces changed when introspection was enabled");
    assert_eq!(off.2, on.2, "shared metrics changed when introspection was enabled");
}

#[test]
fn telemetry_tables_answer_approximately_with_error_bars() {
    let obs = ObsHandle::isolated(Clock::mock());
    let s = introspected_session(7, Some(routing()), obs.clone());
    // Half the spans are sampled, and each stage is a cell that needs
    // p = 50 values for the diagnostic to judge it: 150 queries leave
    // every stage's cell about 75 or more.
    for i in 0..150 {
        let sql = match i % 3 {
            0 => "SELECT AVG(time) FROM sessions",
            1 => "SELECT SUM(bytes) FROM sessions",
            _ => "SELECT city, COUNT(*) FROM sessions GROUP BY city",
        };
        s.execute(sql).unwrap();
    }
    // Enough spans accumulated to cross the sampling threshold: the
    // introspection query runs approximately, with CIs and verdicts.
    let a = s
        .execute("SELECT stage, AVG(wall_ms) FROM _telemetry.spans GROUP BY stage")
        .unwrap();
    assert!(!a.fell_back, "telemetry query should answer from its sample");
    assert!(a.sample_rows < a.population_rows, "a strict sample must be in play");
    assert!(!a.groups.is_empty());
    // Under the mock clock span wall times are all zero, so error bars
    // with real width come from a column with genuine variance.
    let d = s.execute("SELECT AVG(depth) FROM _telemetry.spans").unwrap();
    let agg = d.scalar().expect("scalar AVG(depth)");
    assert!(
        agg.ci.as_ref().is_some_and(|c| c.half_width > 0.0),
        "error bars must accompany telemetry estimates: {:?}",
        agg.ci
    );
    // Percentiles over telemetry work too.
    let p = s
        .execute("SELECT stage, PERCENTILE(wall_ms, 95) FROM _telemetry.spans GROUP BY stage")
        .unwrap();
    assert!(!p.groups.is_empty());
    let snap = obs.metrics.snapshot();
    assert_eq!(snap.counter(name::INTROSPECT_QUERIES_SERVED), Some(3));
    assert!(snap.counter(name::INTROSPECT_QUERIES_FOLDED).unwrap_or(0) >= 150);
    assert!(snap.counter(name::INTROSPECT_SYNCS).unwrap_or(0) >= 1);
}

#[test]
fn recursion_guard_keeps_introspection_out_of_its_own_telemetry() {
    let obs = ObsHandle::isolated(Clock::mock());
    let s = introspected_session(11, Some(routing()), obs);
    for _ in 0..10 {
        s.execute("SELECT AVG(time) FROM sessions").unwrap();
    }
    let count = |s: &AqpSession| {
        let a = s.execute("SELECT COUNT(*) FROM _telemetry.queries").unwrap();
        a.scalar().expect("scalar count").estimate
    };
    let first = count(&s);
    let second = count(&s);
    let third = count(&s);
    assert_eq!(first, 10.0, "ten base queries were folded");
    assert_eq!(first, second, "introspection queries must not fold themselves");
    assert_eq!(second, third);
}

#[test]
fn introspect_overhead_is_bounded_at_five_percent() {
    // Real clock, bootstrap-heavy workload: folding telemetry into the
    // ring buffers must stay under 5% of total query wall-clock.
    let obs = ObsHandle::isolated(Clock::real());
    let s = AqpSession::new(SessionConfig {
        seed: 11,
        threads: 1,
        run_diagnostics: false,
        obs: obs.clone(),
        introspect: Some(routing()),
        ..Default::default()
    });
    s.register_table(conviva_sessions_table(30_000, 4, 3)).unwrap();
    s.build_samples("sessions", &[6_000], 13).unwrap();
    for _ in 0..50 {
        s.execute("SELECT trimmed_mean(time) FROM sessions").unwrap();
    }
    let snap = obs.metrics.snapshot();
    let query_ms = snap.histogram(name::CORE_QUERY_MS).expect("queries ran").sum_ms;
    let eval = snap.histogram(name::INTROSPECT_EVAL_MS).expect("the pipeline ran");
    assert!(eval.count >= 50, "every query must be folded in ({})", eval.count);
    let overhead = eval.sum_ms / (query_ms + eval.sum_ms);
    assert!(
        overhead < 0.05,
        "telemetry fold-in took {:.2}% of wall-clock ({:.2}ms of {:.2}ms)",
        overhead * 100.0,
        eval.sum_ms,
        query_ms
    );
}

/// One session shared by several threads, introspection on: user queries
/// fold telemetry while `_telemetry.*` queries re-sync the catalog (drop +
/// re-register clears a table's samples) under each other's feet. Every
/// call must return `Ok` or a typed error — never panic — and user-table
/// answers must be bit-equal to the serial run.
#[test]
fn concurrent_callers_get_serial_answers_and_never_panic() {
    const USER: [&str; 4] = [
        "SELECT AVG(time) FROM sessions",
        "SELECT SUM(bytes) FROM sessions WHERE is_mobile = true",
        "SELECT city, COUNT(*) FROM sessions GROUP BY city",
        "SELECT AVG(bitrate) FROM sessions WITHIN 5% ERROR AT CONFIDENCE 95%",
    ];
    const TELEMETRY: [&str; 3] = [
        "SELECT stage, AVG(wall_ms) FROM _telemetry.spans GROUP BY stage",
        "SELECT AVG(depth) FROM _telemetry.spans WITHIN 10% ERROR AT CONFIDENCE 95%",
        "SELECT COUNT(*) FROM _telemetry.queries",
    ];
    const ROUNDS: usize = 60;
    let serial = introspected_session(7, Some(routing()), ObsHandle::isolated(Clock::mock()));
    let expected: Vec<String> = USER.iter().map(|sql| render(&serial.execute(sql).unwrap())).collect();

    let s = introspected_session(7, Some(routing()), ObsHandle::isolated(Clock::mock()));
    // Enough folded spans for the telemetry tables to carry samples.
    for _ in 0..10 {
        s.execute(USER[0]).unwrap();
    }
    let start = std::sync::Barrier::new(4);
    let telemetry_answers = std::sync::atomic::AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for t in 0..2 {
            let (s, start, expected) = (&s, &start, &expected);
            scope.spawn(move || {
                start.wait();
                for i in 0..ROUNDS {
                    let q = (i + t) % USER.len();
                    let a = s.execute(USER[q]).expect("a user query must not fail");
                    assert_eq!(render(&a), expected[q], "{} diverged from the serial run", USER[q]);
                }
            });
        }
        for t in 0..2 {
            let (s, start, telemetry_answers) = (&s, &start, &telemetry_answers);
            scope.spawn(move || {
                start.wait();
                for i in 0..ROUNDS {
                    // A re-sync racing this query may leave its table
                    // momentarily absent: a typed error, not a panic.
                    if s.execute(TELEMETRY[(i + t) % TELEMETRY.len()]).is_ok() {
                        telemetry_answers.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    }
                }
            });
        }
    });
    assert!(
        telemetry_answers.into_inner() > ROUNDS,
        "most telemetry queries must answer despite the concurrent re-syncs"
    );
}

/// A fixed-seed fault-injected workload, then the system's own telemetry
/// queried: the bit-exact rendering of every answer.
#[test]
fn telemetry_answers_match_introspect_seed7() {
    let seed = 7;
    let obs = ObsHandle::isolated(Clock::mock());
    // Fault draws are fixed per (cfg.seed, task, attempt): seed 3 is a
    // stream where the truncation draw fires, so `_telemetry.faults` is
    // populated in the artifact regardless of the workload seed.
    let mut faults = FaultConfig::quiescent(3);
    faults.truncation_prob = 0.25;
    faults.truncation_keep = 0.5;
    faults.transient_error_prob = 0.05;
    let s = AqpSession::new(SessionConfig {
        seed,
        threads: 1,
        bootstrap_k: 40,
        diagnostic_p: 50,
        obs,
        faults: Some(faults),
        introspect: Some(routing()),
        ..Default::default()
    });
    s.register_table(conviva_sessions_table(20_000, 4, seed)).unwrap();
    s.build_samples("sessions", &[4_000], 9).unwrap();
    for i in 0..60 {
        let sql = match i % 3 {
            0 => "SELECT AVG(time) FROM sessions",
            1 => "SELECT SUM(bytes) FROM sessions",
            _ => "SELECT city, COUNT(*) FROM sessions GROUP BY city",
        };
        // Transient faults surface as errors by design; retention of the
        // successful queries is what the artifact pins down.
        let _ = s.execute(sql);
    }
    let mut out = String::new();
    for sql in [
        "SELECT stage, AVG(wall_ms) FROM _telemetry.spans GROUP BY stage",
        "SELECT stage, PERCENTILE(wall_ms, 95) FROM _telemetry.spans GROUP BY stage",
        "SELECT AVG(depth) FROM _telemetry.spans",
        "SELECT class, AVG(wall_ms) FROM _telemetry.queries GROUP BY class",
        "SELECT kind, COUNT(*) FROM _telemetry.faults GROUP BY kind",
        "SELECT COUNT(*) FROM _telemetry.queries",
    ] {
        out.push_str(&format!("== {sql}\n"));
        out.push_str(&render(&s.execute(sql).unwrap()));
    }
    common::assert_matches_golden("introspect_seed7.txt", &out);
}
