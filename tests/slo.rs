//! End-to-end acceptance for the fleet-level SLO engine and the
//! always-on flight recorder: zero footprint when disabled, bit-stable
//! alert sequences and dump artifacts under the mock clock, and a <5%
//! wall-clock overhead bound when everything is switched on.
//!
//! Two goldens: [`coverage_collapse_alerts_into_the_pinned_slo_log`]
//! pins the SLO log of one replay (`tests/golden/slo_log.jsonl`), and
//! [`flight_recorder_dumps_match_slo_dump_seed7`] the recorder dumps of
//! another, appended to a file (`tests/golden/slo_dump_seed7.jsonl`).

mod common;

use reliable_aqp::audit::AuditConfig;
use reliable_aqp::faults::FaultConfig;
use reliable_aqp::obs::{name, Clock, FlightRecorderConfig, ObsHandle};
use reliable_aqp::slo::SloConfig;
use reliable_aqp::workload::{conviva_sessions_table, facebook_events_table};
use reliable_aqp::{AqpSession, SessionConfig};

/// A coverage-floor SLO at the paper's claimed 95% confidence, with a
/// small in-memory flight recorder.
fn coverage_slo() -> SloConfig {
    SloConfig::new()
        .with_coverage(SloConfig::DEFAULT_CLASS, 0.95)
        .with_recorder(FlightRecorderConfig { capacity: 8, path: None })
}

/// The miscalibrated replay: unchecked bootstrap `MAX(payload_kb)` over
/// a Pareto tail, every query audited. Coverage collapses, the burn
/// rate crosses both thresholds, and each latched alert dumps the
/// flight recorder.
fn miscalibrated_session(obs: ObsHandle, slo: SloConfig) -> AqpSession {
    let s = AqpSession::new(SessionConfig {
        seed: 2,
        threads: 1,
        bootstrap_k: 40,
        run_diagnostics: false,
        obs,
        audit: Some(AuditConfig { sample_rate: 1.0, seed: 3, ..Default::default() }),
        slo: Some(slo),
        ..Default::default()
    });
    s.register_table(facebook_events_table(40_000, 8, 2)).unwrap();
    s.build_samples("events", &[8_000], 7).unwrap();
    s
}

#[test]
fn slo_is_off_by_default_with_zero_footprint() {
    let obs = ObsHandle::isolated(Clock::mock());
    let s = AqpSession::new(SessionConfig {
        seed: 5,
        threads: 1,
        obs: obs.clone(),
        ..Default::default()
    });
    s.register_table(conviva_sessions_table(20_000, 4, 5)).unwrap();
    s.build_samples("sessions", &[4_000], 9).unwrap();
    for _ in 0..5 {
        s.execute("SELECT AVG(time) FROM sessions").unwrap();
    }
    assert!(s.slo_report().is_none(), "no SLO engine was configured");
    assert!(s.flight_recorder().is_none(), "no recorder was configured");
    // Not a single SLO or recorder metric may even be registered.
    let snap = obs.metrics.snapshot();
    let leaked = |k: &str| k.starts_with("aqp.slo.") || k.starts_with("aqp.obs.recorder");
    assert!(
        snap.counters.iter().all(|(k, _)| !leaked(k))
            && snap.gauges.iter().all(|(k, _)| !leaked(k))
            && snap.histograms.iter().all(|(k, _)| !leaked(k)),
        "SLO metrics leaked into a session with slo: None"
    );
}

#[test]
fn enabling_slo_leaves_answers_and_traces_bit_identical() {
    // The engine observes the pipeline; it must never perturb it. Same
    // seed, same mock clock, same queries — answers and traces have to
    // be byte-for-byte identical with the SLO layer on and off.
    let run = |slo: Option<SloConfig>| {
        let obs = ObsHandle::isolated(Clock::mock());
        let s = AqpSession::new(SessionConfig {
            seed: 7,
            threads: 1,
            obs: obs.clone(),
            audit: Some(AuditConfig { sample_rate: 0.5, seed: 3, ..Default::default() }),
            slo,
            ..Default::default()
        });
        s.register_table(conviva_sessions_table(20_000, 4, 5)).unwrap();
        s.build_samples("sessions", &[4_000], 9).unwrap();
        let mut answers = String::new();
        let mut traces = String::new();
        for i in 0..12 {
            let sql = match i % 3 {
                0 => "SELECT AVG(time) FROM sessions",
                1 => "SELECT SUM(bytes) FROM sessions",
                _ => "SELECT COUNT(*) FROM sessions WHERE is_mobile = true",
            };
            let a = s.execute(sql).unwrap();
            let scalar = a.scalar().unwrap();
            answers.push_str(&format!("{} {:x}\n", scalar.name, scalar.estimate.to_bits()));
            traces.push_str(&a.trace.to_jsonl());
        }
        // The shared (non-SLO) metric families must agree too.
        let metrics: String = obs
            .metrics
            .snapshot()
            .to_jsonl()
            .lines()
            .filter(|l| !l.contains("aqp.slo.") && !l.contains("aqp.obs.recorder"))
            .map(|l| format!("{l}\n"))
            .collect();
        (answers, traces, metrics)
    };
    let off = run(None);
    let on = run(Some(
        coverage_slo().with_latency(SloConfig::DEFAULT_CLASS, 0.95, 40.0),
    ));
    assert_eq!(off.0, on.0, "answers changed when the SLO engine was enabled");
    assert_eq!(off.1, on.1, "traces changed when the SLO engine was enabled");
    assert_eq!(off.2, on.2, "shared metrics changed when the SLO engine was enabled");
}

#[test]
fn alert_sequence_and_dump_bytes_are_deterministic() {
    let run = || {
        let obs = ObsHandle::isolated(Clock::mock());
        let s = miscalibrated_session(obs.clone(), coverage_slo());
        for _ in 0..40 {
            s.execute("SELECT MAX(payload_kb) FROM events").unwrap();
        }
        let report = s.slo_report().unwrap();
        let alerts: String = report.alerts.iter().map(|a| format!("{a}\n")).collect();
        let dump = s.flight_recorder().unwrap().last_dump().expect("an alert dumped");
        let snap = obs.metrics.snapshot();
        (
            alerts,
            dump,
            snap.counter(name::SLO_PAGE_ALERTS),
            snap.counter(name::OBS_RECORDER_DUMPS),
        )
    };
    let a = run();
    let b = run();
    assert_eq!(a.0, b.0, "alert sequence must be a pure function of the seed");
    assert_eq!(a.1, b.1, "dump artifacts must be byte-identical across runs");
    assert!(a.2.unwrap_or(0) >= 1, "collapsed coverage must page: {}", a.0);
    assert!(a.3.unwrap_or(0) >= 1, "every latched alert freezes a dump");
    assert!(a.1.starts_with("{\"recorder\":\"aqp-flight-recorder/v1\""), "{}", a.1);
}

#[test]
fn coverage_collapse_alerts_into_the_pinned_slo_log() {
    // 30 healthy AVG queries, then the workload pivots to the
    // miscalibrated MAX tail: the coverage objective and the audit
    // window both alert, and the SLO log holds the latched alert.
    let obs = ObsHandle::isolated(Clock::mock());
    let log = std::env::temp_dir().join(format!("aqp-slo-golden-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&log);
    let slo = coverage_slo().with_log(reliable_aqp::slo::SloLogConfig::at(&log));
    let s = miscalibrated_session(obs, slo);
    for _ in 0..30 {
        s.execute("SELECT AVG(payload_kb) FROM events").unwrap();
    }
    assert!(
        s.audit_report().unwrap().alerts.is_empty(),
        "the healthy phase must not trip the audit window"
    );
    assert!(s.slo_report().unwrap().alerts.is_empty(), "the healthy phase must not alert");
    for _ in 0..30 {
        s.execute("SELECT MAX(payload_kb) FROM events").unwrap();
    }
    assert!(
        !s.audit_report().unwrap().alerts.is_empty(),
        "sustained misses must trip the audit window"
    );
    let report = s.slo_report().unwrap();
    assert!(
        report.alerts.iter().any(|a| a.objective == "default/coverage_ge_95"),
        "sustained misses must burn the coverage objective's budget: {:?}",
        report.alerts
    );
    // Every alert line, byte for byte as the commit before the log line
    // became a closure wrote it (seeded, mock clock).
    let written = std::fs::read_to_string(&log).unwrap();
    let _ = std::fs::remove_file(&log);
    common::assert_matches_golden("slo_log.jsonl", &written);
}

#[test]
fn degraded_execution_dumps_the_flight_recorder() {
    // Lose more of the sample than the recovery policy tolerates: the
    // session falls back to exact truth and the recorder freezes the
    // evidence under the `exec:degraded` reason.
    let obs = ObsHandle::isolated(Clock::mock());
    let mut faults = FaultConfig::quiescent(21);
    faults.worker_death_prob = 0.4;
    faults.recovery.max_retries = 0;
    faults.recovery.max_lost_fraction = 0.0;
    let s = AqpSession::new(SessionConfig {
        seed: 5,
        threads: 1,
        obs: obs.clone(),
        faults: Some(faults),
        slo: Some(coverage_slo()),
        ..Default::default()
    });
    s.register_table(conviva_sessions_table(20_000, 4, 5)).unwrap();
    s.build_samples("sessions", &[4_000], 9).unwrap();
    // A 40% death rate with zero tolerance yields a partial loss (and
    // hence a degraded-triggered exact fallback) within a few queries;
    // total losses surface as errors and are fine to skip here.
    let mut fallbacks = 0;
    for _ in 0..30 {
        let _ = s.execute("SELECT AVG(time) FROM sessions");
        fallbacks =
            obs.metrics.snapshot().counter(name::FAULTS_EXACT_FALLBACKS).unwrap_or(0);
        if fallbacks >= 1 {
            break;
        }
    }
    assert!(fallbacks >= 1, "no query in 30 suffered a partial loss");
    let dump = s
        .flight_recorder()
        .unwrap()
        .last_dump()
        .expect("degraded execution must dump the recorder");
    assert!(dump.contains("\"reason\":\"exec:degraded\""), "{dump}");
}

#[test]
fn slo_overhead_is_bounded_at_five_percent() {
    // Real clock, bootstrap-heavy workload: the engine's own evaluation
    // time (latency observation, audit scoring, trace recording) must
    // stay under 5% of total query wall-clock.
    let obs = ObsHandle::isolated(Clock::real());
    let s = AqpSession::new(SessionConfig {
        seed: 11,
        threads: 1,
        run_diagnostics: false,
        obs: obs.clone(),
        audit: Some(AuditConfig { sample_rate: 0.1, seed: 2, ..Default::default() }),
        slo: Some(
            coverage_slo().with_latency(SloConfig::DEFAULT_CLASS, 0.95, 1_000.0),
        ),
        ..Default::default()
    });
    s.register_table(conviva_sessions_table(30_000, 4, 3)).unwrap();
    s.build_samples("sessions", &[6_000], 13).unwrap();
    for _ in 0..50 {
        s.execute("SELECT trimmed_mean(time) FROM sessions").unwrap();
    }
    let snap = obs.metrics.snapshot();
    let query_ms = snap.histogram(name::CORE_QUERY_MS).expect("queries ran").sum_ms;
    let eval = snap.histogram(name::SLO_EVAL_MS).expect("the engine ran");
    assert!(eval.count >= 50, "every query must be observed ({})", eval.count);
    let overhead = eval.sum_ms / (query_ms + eval.sum_ms);
    assert!(
        overhead < 0.05,
        "SLO evaluation took {:.2}% of wall-clock ({:.2}ms of {:.2}ms)",
        overhead * 100.0,
        eval.sum_ms,
        query_ms
    );
}

/// The miscalibrated replay with the recorder appending to a file
/// (`FlightRecorderConfig::at`): every dump it writes, byte for byte.
#[test]
fn flight_recorder_dumps_match_slo_dump_seed7() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("target/slo-dumps");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("seed_7.jsonl");
    let _ = std::fs::remove_file(&path);
    let slo = SloConfig::new()
        .with_coverage(SloConfig::DEFAULT_CLASS, 0.95)
        .with_recorder(FlightRecorderConfig::at(8, &path));
    let obs = ObsHandle::isolated(Clock::mock());
    let s = miscalibrated_session(obs, slo);
    for _ in 0..40 {
        s.execute("SELECT MAX(payload_kb) FROM events").unwrap();
    }
    let dumps = std::fs::read_to_string(&path).expect("the replay must write its dumps");
    common::assert_matches_golden("slo_dump_seed7.jsonl", &dumps);
}
