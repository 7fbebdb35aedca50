//! End-to-end acceptance for the continuous accuracy auditor: off by
//! default, deterministic under a fixed seed, alert-bearing on
//! miscalibrated error bars, and cheap enough to leave on (<5% of
//! wall-clock at a 10% sampling rate).

use reliable_aqp::audit::AuditConfig;
use reliable_aqp::faults::FaultConfig;
use reliable_aqp::obs::{name, stage, Clock, ObsHandle};
use reliable_aqp::workload::{conviva_sessions_table, facebook_events_table};
use reliable_aqp::{AqpSession, SessionConfig};

/// A session over the Conviva-style table with its own isolated metrics
/// registry, so counter assertions are exact rather than deltas.
fn conviva_session(obs: ObsHandle, audit: Option<AuditConfig>) -> AqpSession {
    let s = AqpSession::new(SessionConfig {
        seed: 5,
        threads: 1,
        diagnostic_p: 50,
        obs,
        audit,
        ..Default::default()
    });
    s.register_table(conviva_sessions_table(20_000, 4, 5)).unwrap();
    s.build_samples("sessions", &[4_000], 9).unwrap();
    s
}

/// A Conviva session big enough for the diagnostic to accept AVG, with
/// fault injection optionally switched on.
fn conviva_session_faulty(
    obs: ObsHandle,
    audit: Option<AuditConfig>,
    faults: Option<FaultConfig>,
) -> AqpSession {
    let s = AqpSession::new(SessionConfig {
        seed: 5,
        threads: 1,
        obs,
        audit,
        faults,
        ..Default::default()
    });
    s.register_table(conviva_sessions_table(100_000, 4, 5)).unwrap();
    s.build_samples("sessions", &[20_000], 9).unwrap();
    s
}

#[test]
fn degraded_answers_audit_into_the_true_accept_cell() {
    // Truncation-only faults: no partition is ever lost, so every query
    // completes approximately — just from a smaller effective sample,
    // with conservatively widened error bars. The auditor replays each
    // one at full data; the widened bars must still cover the truth and
    // land in the Fig. 4 TrueAccept confusion cell.
    let audit = AuditConfig { sample_rate: 1.0, seed: 23, ..Default::default() };
    let clean = conviva_session_faulty(ObsHandle::isolated(Clock::mock()), None, None);
    let clean_hw = clean
        .execute("SELECT AVG(time) FROM sessions")
        .unwrap()
        .scalar()
        .unwrap()
        .ci
        .unwrap()
        .half_width;

    let obs = ObsHandle::isolated(Clock::mock());
    let mut faults = FaultConfig::quiescent(21);
    faults.truncation_prob = 0.6;
    faults.truncation_keep = 0.5;
    let s = conviva_session_faulty(obs.clone(), Some(audit), Some(faults));

    const QUERIES: u64 = 10;
    let mut saw_degraded = false;
    for _ in 0..QUERIES {
        let a = s.execute("SELECT AVG(time) FROM sessions").unwrap();
        assert!(!a.fell_back, "truncation alone must not force an exact fallback");
        if let Some(d) = a.degraded {
            saw_degraded = true;
            assert!(d.effective_rows < d.planned_rows, "{d:?}");
            assert!(d.widen_factor > 1.0, "{d:?}");
            let hw = a.scalar().unwrap().ci.unwrap().half_width;
            assert!(hw >= clean_hw, "degraded hw {hw} narrower than clean {clean_hw}");
            assert!(
                a.trace.to_jsonl().contains("fault:truncation"),
                "degraded answer's trace lacks the fault span"
            );
        }
    }
    assert!(saw_degraded, "a 60% truncation rate over 10 queries must degrade one");

    let r = s.audit_report().unwrap();
    assert_eq!(r.audited, QUERIES, "rate 1.0 audits every query");
    let cov = r.overall.coverage.expect("scored results exist");
    assert!(cov >= 0.9, "widened degraded bars should still cover the truth, got {cov}");
    let snap = obs.metrics.snapshot();
    let true_accepts = snap.counter(name::AUDIT_TRUE_ACCEPTS).unwrap_or(0);
    assert!(
        true_accepts >= QUERIES - 1,
        "degraded-but-covered answers belong in TrueAccept, got {true_accepts}/{QUERIES}"
    );
    assert_eq!(snap.counter(name::AUDIT_FALSE_NEGATIVES).unwrap_or(0), 0);
    assert!(r.alerts.is_empty(), "well-covered degraded answers must not alert: {:?}", r.alerts);
    let degraded_queries = snap.counter(name::FAULTS_DEGRADED_QUERIES).unwrap_or(0);
    assert!(degraded_queries >= 1, "degradation metric must record the shrunken runs");
}

#[test]
fn auditing_is_off_by_default() {
    let obs = ObsHandle::isolated(Clock::mock());
    let s = conviva_session(obs.clone(), None);
    for _ in 0..5 {
        s.execute("SELECT AVG(time) FROM sessions").unwrap();
    }
    assert!(s.audit_report().is_none(), "no auditor was configured");
    // Not a single audit metric may even be registered: the feature must
    // leave zero footprint when disabled.
    let snap = obs.metrics.snapshot();
    assert!(
        snap.counters.iter().all(|(k, _)| !k.starts_with("aqp.audit.")),
        "audit counters leaked into a non-audited session: {:?}",
        snap.counters
    );
    assert_eq!(snap.counter(name::AUDIT_CONSIDERED), None);
}

#[test]
fn same_seed_audits_bit_identically() {
    let run = || {
        let obs = ObsHandle::isolated(Clock::mock());
        let s = conviva_session(
            obs.clone(),
            Some(AuditConfig {
                sample_rate: 0.3,
                seed: 17,
                window: 32,
                ..Default::default()
            }),
        );
        for i in 0..40 {
            let sql = match i % 3 {
                0 => "SELECT AVG(time) FROM sessions",
                1 => "SELECT SUM(time) FROM sessions",
                _ => "SELECT COUNT(*) FROM sessions WHERE is_mobile = true",
            };
            s.execute(sql).unwrap();
        }
        let snap = obs.metrics.snapshot();
        (s.audit_report().unwrap(), snap)
    };
    let (r1, m1) = run();
    let (r2, m2) = run();
    assert_eq!(r1.render_table(), r2.render_table());
    assert_eq!(r1.considered, 40);
    assert_eq!(r1.audited, r2.audited);
    assert!(r1.audited >= 1, "a 30% rate over 40 queries must audit something");
    for c in [
        name::AUDIT_CONSIDERED,
        name::AUDIT_AUDITED,
        name::AUDIT_RESULTS_SCORED,
        name::AUDIT_COVERAGE_HITS,
        name::AUDIT_COVERAGE_MISSES,
    ] {
        assert_eq!(m1.counter(c), m2.counter(c), "counter {c} diverged");
    }
}

#[test]
fn miscalibrated_error_bars_fire_an_alert() {
    let obs = ObsHandle::isolated(Clock::mock());
    let log = std::env::temp_dir().join(format!("aqp-audit-golden-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&log);
    // The paper's cautionary tale as a live workload: bootstrap MAX over
    // a Pareto tail with the diagnostic disabled. Coverage collapses.
    let s = AqpSession::new(SessionConfig {
        seed: 3,
        threads: 1,
        bootstrap_k: 40,
        run_diagnostics: false,
        obs: obs.clone(),
        audit: Some(AuditConfig {
            sample_rate: 1.0,
            window: 16,
            coverage_alert_below: 0.9,
            min_window_for_alert: 8,
            column_families: vec![("payload_kb".into(), "pareto".into())],
            log: Some(reliable_aqp::audit::AuditLogConfig::at(&log)),
            ..Default::default()
        }),
        ..Default::default()
    });
    s.register_table(facebook_events_table(20_000, 4, 2)).unwrap();
    s.build_samples("events", &[4_000], 7).unwrap();
    for _ in 0..25 {
        s.execute("SELECT MAX(payload_kb) FROM events").unwrap();
    }
    let r = s.audit_report().unwrap();
    assert_eq!(r.audited, 25, "rate 1.0 audits every query");
    let cov = r.overall.coverage.expect("scored results exist");
    assert!(cov < 0.5, "MAX over a Pareto tail should not be covered, got {cov}");
    assert!(
        !r.alerts.is_empty(),
        "coverage {cov} below threshold over a full window must alert"
    );
    assert!(r.alerts.iter().any(|a| a.key.contains("pareto") || a.key == "ALL"));
    let fired = obs.metrics.snapshot().counter(name::AUDIT_ALERTS_FIRED).unwrap_or(0);
    assert!(fired >= 1, "alert counter must record the firing");
    // Every audit and alert line, byte for byte as the commit before the
    // log line became a closure wrote them (seeded, mock clock).
    assert!(
        std::fs::read_to_string(&log).unwrap() == include_str!("golden/audit_log.jsonl"),
        "audit log bytes changed (tests/golden/audit_log.jsonl)"
    );
}

#[test]
fn audit_overhead_is_bounded_at_ten_percent_sampling() {
    // Bootstrap-heavy workload (trimmed_mean forces resampling), real
    // clock: the full-data replays the auditor pays for must stay under
    // 5% of total wall-clock when 10% of queries are audited.
    let obs = ObsHandle::isolated(Clock::real());
    let s = AqpSession::new(SessionConfig {
        seed: 11,
        threads: 1,
        run_diagnostics: false,
        obs: obs.clone(),
        audit: Some(AuditConfig { sample_rate: 0.1, seed: 2, ..Default::default() }),
        ..Default::default()
    });
    s.register_table(conviva_sessions_table(30_000, 4, 3)).unwrap();
    s.build_samples("sessions", &[6_000], 13).unwrap();

    let mut total = std::time::Duration::ZERO;
    let mut replay = std::time::Duration::ZERO;
    for _ in 0..50 {
        let a = s.execute("SELECT trimmed_mean(time) FROM sessions").unwrap();
        total += a.timings.total();
        replay += a.timings.get(stage::AUDIT_REPLAY);
    }
    let audited = obs.metrics.snapshot().counter(name::AUDIT_AUDITED).unwrap_or(0);
    assert!(audited >= 2, "a 10% rate over 50 queries should audit a few ({audited})");
    assert!(replay > std::time::Duration::ZERO, "fresh replays must be traced");
    let overhead = replay.as_secs_f64() / total.as_secs_f64();
    assert!(
        overhead < 0.05,
        "audit replay took {:.2}% of wall-clock (audited {audited}/50)",
        overhead * 100.0
    );
}

/// `aqp.obs.sink_dropped_lines` is absence-is-data: a session auditing
/// without a log sink must never even register the metric, and with a
/// rotating log it must account for every destroyed line exactly —
/// lines written equals lines surviving on disk plus lines counted
/// dropped.
#[test]
fn sink_dropped_lines_absent_without_log_and_exact_with_rotation() {
    use reliable_aqp::audit::AuditLogConfig;

    let dir = std::env::temp_dir().join(format!("aqp-audit-sink-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    let run = |log: Option<AuditLogConfig>| {
        let obs = ObsHandle::isolated(Clock::mock());
        let s = AqpSession::new(SessionConfig {
            seed: 5,
            threads: 1,
            diagnostic_p: 50,
            obs: obs.clone(),
            audit: Some(AuditConfig { sample_rate: 1.0, seed: 3, log, ..Default::default() }),
            ..Default::default()
        });
        s.register_table(conviva_sessions_table(20_000, 4, 5)).unwrap();
        s.build_samples("sessions", &[4_000], 9).unwrap();
        for _ in 0..12 {
            s.execute("SELECT AVG(bitrate) FROM sessions").unwrap();
        }
        drop(s); // flush the audit log
        obs.metrics.snapshot()
    };

    // No log configured: auditing runs, but the counter is never
    // registered — silence here must mean "no sink", not "no losses".
    let snap = run(None);
    assert!(snap.counter(name::AUDIT_AUDITED).unwrap_or(0) >= 12);
    assert_eq!(
        snap.counter(name::OBS_SINK_DROPPED_LINES),
        None,
        "dropped-lines counter registered without a log sink"
    );

    // Control: a roomy log loses nothing; count total audit lines.
    let roomy = dir.join("roomy.jsonl");
    let _ = std::fs::remove_file(&roomy);
    let snap = run(Some(AuditLogConfig::at(&roomy)));
    assert_eq!(snap.counter(name::OBS_SINK_DROPPED_LINES), Some(0));
    let count_lines = |p: &std::path::Path| -> u64 {
        std::fs::read_to_string(p).map(|s| s.lines().count() as u64).unwrap_or(0)
    };
    let total_lines = count_lines(&roomy);
    assert!(total_lines >= 12, "each audited query appends a line ({total_lines})");

    // Tiny budget, one rotation: the same deterministic workload now
    // destroys lines, and the counter must balance the books exactly.
    let tiny = dir.join("tiny.jsonl");
    let _ = std::fs::remove_file(&tiny);
    let tiny1 = std::path::PathBuf::from(format!("{}.1", tiny.display()));
    let _ = std::fs::remove_file(&tiny1);
    let snap = run(Some(AuditLogConfig {
        path: tiny.clone(),
        max_bytes: 256,
        max_rotations: 1,
    }));
    let dropped = snap
        .counter(name::OBS_SINK_DROPPED_LINES)
        .expect("counter registered when a log is configured");
    let surviving = count_lines(&tiny) + count_lines(&tiny1);
    assert!(dropped > 0, "a 256-byte budget over {total_lines} lines must rotate losses");
    assert_eq!(
        dropped + surviving,
        total_lines,
        "dropped ({dropped}) + surviving ({surviving}) must equal lines written ({total_lines})"
    );
}

/// A session whose diagnostic refuses most of what it is asked: MAX over
/// the Pareto tail, alone and per country next to a benign AVG (a partial
/// fallback). Returns the answers, each rendered as bit patterns, with
/// whether its trace shows refused bars computed for the auditor.
fn refusing_workload(obs: ObsHandle, sample_rate: f64) -> (AqpSession, Vec<(String, bool)>) {
    let s = AqpSession::new(SessionConfig {
        seed: 3,
        threads: 1,
        bootstrap_k: 40,
        diagnostic_p: 50,
        obs,
        audit: Some(AuditConfig {
            sample_rate,
            seed: 11,
            column_families: vec![("payload_kb".into(), "pareto".into())],
            ..Default::default()
        }),
        ..Default::default()
    });
    s.register_table(facebook_events_table(20_000, 4, 2)).unwrap();
    s.build_samples("events", &[4_000], 7).unwrap();
    let mut answers = Vec::new();
    for i in 0..12 {
        let sql = match i % 2 {
            0 => "SELECT MAX(payload_kb) FROM events",
            _ => "SELECT country, MAX(payload_kb), AVG(score) FROM events GROUP BY country",
        };
        let a = s.execute(sql).unwrap();
        assert!(a.fell_back, "{sql}: {}", a.summary());
        let stage_attr = |stage: &str, key: &str| -> Option<u64> {
            a.trace.find(stage)?.attr(key)?.parse().ok()
        };
        // The executor left the refused cells without bars ...
        let skipped = stage_attr(stage::ERROR_ESTIMATION, "skipped_refused").unwrap();
        assert!(skipped >= 1, "{sql}: nothing was refused");
        // ... and the gate filled exactly those, or none at all.
        let filled = stage_attr(stage::RELIABILITY_GATE, "audit_bars_jobs");
        assert!(filled.is_none() || filled == Some(skipped), "{sql}: {filled:?} of {skipped}");
        if i % 2 == 0 {
            // One bootstrap cell: K resamples, drawn for the auditor or never.
            assert_eq!(stage_attr(stage::ERROR_ESTIMATION, "resamples"), Some(0));
            let drawn = stage_attr(stage::RELIABILITY_GATE, "audit_bars_resamples");
            assert_eq!(drawn, filled.map(|_| 40), "{sql}");
        }
        let cells: Vec<String> = a
            .groups
            .iter()
            .flat_map(|g| g.aggs.iter().map(move |r| (g, r)))
            .map(|(g, r)| {
                let ci = r.ci.map(|c| (c.center.to_bits(), c.half_width.to_bits()));
                format!("{} {} {:x} {ci:?} {:?}", g.key, r.name, r.estimate.to_bits(), r.method)
            })
            .collect();
        answers.push((cells.join("\n"), filled.is_some()));
    }
    (s, answers)
}

/// `aqp.audit.*` of `refusing_workload(_, 1.0)` at the commit before bars
/// were lazy, which computed every bar of every query: 192 refused cells
/// (84 whose bars missed the truth, 108 whose bars covered it), 6 accepted.
const PARENT_TRUE_REJECTS: u64 = 84;
const PARENT_FALSE_NEGATIVES: u64 = 108;
const PARENT_TRUE_ACCEPTS: u64 = 6;
const PARENT_FALSE_POSITIVES: u64 = 0;
const PARENT_SCORED: u64 = 198;

#[test]
fn a_selected_query_scores_its_refused_cells_in_the_reject_row() {
    let obs = ObsHandle::isolated(Clock::mock());
    let (s, answers) = refusing_workload(obs.clone(), 1.0);
    assert!(answers.iter().all(|(_, filled)| *filled), "rate 1.0 audits every query");
    let r = s.audit_report().unwrap();
    assert_eq!((r.considered, r.audited), (12, 12));
    // The Fig. 4 reject row, as the commit before bars were lazy scored it
    // (it computed every bar for every query).
    let snap = obs.metrics.snapshot();
    let count = |name| snap.counter(name).unwrap_or(0);
    assert_eq!(count(name::AUDIT_TRUE_REJECTS), PARENT_TRUE_REJECTS);
    assert_eq!(count(name::AUDIT_FALSE_NEGATIVES), PARENT_FALSE_NEGATIVES);
    assert_eq!(count(name::AUDIT_TRUE_ACCEPTS), PARENT_TRUE_ACCEPTS);
    assert_eq!(count(name::AUDIT_FALSE_POSITIVES), PARENT_FALSE_POSITIVES);
    assert_eq!(count(name::AUDIT_RESULTS_SCORED), PARENT_SCORED);
}

#[test]
fn an_unselected_query_never_computes_its_refused_bars() {
    let (s, answers) = refusing_workload(ObsHandle::isolated(Clock::mock()), 0.4);
    let r = s.audit_report().unwrap();
    let filled = answers.iter().filter(|(_, filled)| *filled).count() as u64;
    assert_eq!((r.considered, r.audited), (12, filled), "a fill per selected query, no other");
    assert!(0 < filled && filled < 12, "the seed must leave both kinds: {filled}");
    // Audited or not, the caller gets the same answer: the bars computed
    // for the auditor stay with the auditor.
    let (_, all_audited) = refusing_workload(ObsHandle::isolated(Clock::mock()), 1.0);
    let served = |a: &[(String, bool)]| a.iter().map(|(cells, _)| cells.clone()).collect::<Vec<_>>();
    assert_eq!(served(&answers), served(&all_audited));
}
