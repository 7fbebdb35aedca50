//! End-to-end acceptance for EXPLAIN ANALYZE operator profiling: every
//! answer carries the profile of its own trace, deterministic under a
//! fixed seed + mock clock, covering every plan operator with nonzero row
//! counts and per-worker entries, and self-time-consistent with the
//! enclosing stage walls (including the audit-replay stage).

use std::collections::HashSet;

use reliable_aqp::audit::AuditConfig;
use reliable_aqp::obs::{stage, Clock, ObsHandle};
use reliable_aqp::prof::reconcile_stages;
use reliable_aqp::workload::{conviva_sessions_table, facebook_events_table};
use reliable_aqp::{AnswerMode, AqpAnswer, AqpSession, OpProfile, SessionConfig};

/// The quickstart-shaped query under an isolated clock.
fn profiled_answer(clock: Clock) -> AqpAnswer {
    let s = AqpSession::new(SessionConfig {
        seed: 21,
        threads: 2,
        bootstrap_k: 40,
        diagnostic_p: 50,
        obs: ObsHandle::isolated(clock),
        ..Default::default()
    });
    s.register_table(conviva_sessions_table(40_000, 4, 21)).unwrap();
    s.build_samples("sessions", &[8_000], 7).unwrap();
    s.execute("SELECT AVG(time) FROM sessions WHERE city = 'NYC'").unwrap()
}

/// The profile of `a` is the one its own trace assembles, and there is one.
fn assert_carries_its_profile(a: &AqpAnswer, what: &str) {
    assert!(a.profile.is_some(), "{what}: no profile");
    assert_eq!(a.profile, OpProfile::from_trace(&a.trace), "{what}: not its trace's profile");
}

/// No switch asks for a profile: whatever path answered, the answer
/// carries the operator tree of its own trace.
#[test]
fn every_answer_carries_its_profile() {
    let s = AqpSession::new(SessionConfig { seed: 3, ..Default::default() });
    s.register_table(conviva_sessions_table(200_000, 8, 5)).unwrap();
    s.register_table(facebook_events_table(200_000, 8, 2)).unwrap();
    let modes = [
        ("SELECT COUNT(*) FROM sessions", AnswerMode::Exact),
        ("SELECT AVG(time) FROM sessions", AnswerMode::Approximate),
        ("SELECT MAX(payload_kb) FROM events", AnswerMode::ExactFallback),
        ("SELECT city, AVG(time) FROM sessions GROUP BY city", AnswerMode::PartialFallback),
    ];
    let a = s.execute(modes[0].0).unwrap();
    assert_eq!(a.mode, modes[0].1);
    assert_carries_its_profile(&a, modes[0].0);
    s.build_samples("sessions", &[5_000, 20_000], 7).unwrap();
    s.build_samples("events", &[40_000], 11).unwrap();
    for (sql, mode) in &modes[1..] {
        let a = s.execute(sql).unwrap();
        assert_eq!(a.mode, *mode, "{sql}: {}", a.summary());
        assert_carries_its_profile(&a, sql);
    }

    // The pilot run sits in the trace of an error-bounded query.
    let sql = "SELECT AVG(time) FROM sessions WITHIN 5% ERROR AT CONFIDENCE 95%";
    let a = s.execute(sql).unwrap();
    let scans = a.trace.spans.iter().filter(|sp| sp.name == "op:Scan").count();
    assert!(scans >= 2, "{sql}: no pilot run in the trace ({scans} scans)");
    assert_carries_its_profile(&a, sql);

    // The replay is grafted into the trace of an audited query.
    let audited = AqpSession::new(SessionConfig {
        seed: 21,
        bootstrap_k: 40,
        diagnostic_p: 50,
        audit: Some(AuditConfig { sample_rate: 1.0, ..Default::default() }),
        ..Default::default()
    });
    audited.register_table(conviva_sessions_table(20_000, 4, 21)).unwrap();
    audited.build_samples("sessions", &[4_000], 7).unwrap();
    let a = audited.execute("SELECT AVG(time) FROM sessions").unwrap();
    assert!(a.trace.find(stage::AUDIT_REPLAY).is_some(), "no replay in the trace");
    assert_carries_its_profile(&a, "audited AVG");
}

#[test]
fn profile_covers_the_plan_with_rows_and_workers() {
    let a = profiled_answer(Clock::mock());
    let profile = a.profile.as_ref().expect("every answer carries a profile");
    let nodes = profile.nodes();
    let names: HashSet<&str> = nodes.iter().map(|n| n.name.as_str()).collect();
    assert!(
        names.len() >= 5,
        "expected at least 5 distinct operators, got {names:?}"
    );
    for op in ["Scan", "Filter", "Resample", "Aggregate", "ErrorEstimate"] {
        assert!(names.contains(op), "missing {op} in {names:?}");
    }
    // Every operator moved rows; `ErrorEstimate` puts out one per bar it
    // computed and counts the cells the diagnostic refused apart.
    for n in &nodes {
        let skipped = n.extra.iter().find(|(k, _)| k == "skipped_refused");
        let skipped: u64 = skipped.map_or(0, |(_, v)| v.parse().expect("a count"));
        match n.name.as_str() {
            "ErrorEstimate" => assert_eq!(n.rows_out + skipped, n.rows_in, "{n:?}"),
            _ => assert_eq!(skipped, 0, "{n:?}"),
        }
        assert!(
            n.rows_in > 0 && n.rows_out + skipped > 0,
            "operator {} (#{}) has zero rows",
            n.name,
            n.node_id
        );
    }
    // The scan saw the whole sample and reports its sampling fraction.
    let scan = profile.find("Scan").expect("scan profile");
    assert_eq!(scan.rows_out, 8_000);
    assert_eq!(scan.sample_fraction, Some(0.2), "8k of 40k rows");
    // Per-worker entries attach to the scan stage's deepest operator.
    let with_workers: Vec<_> = nodes.iter().filter(|n| !n.workers.is_empty()).collect();
    assert!(!with_workers.is_empty(), "no operator carries worker timings");
    assert!(
        with_workers.iter().any(|n| n.workers.len() == 2),
        "two configured threads must surface as two worker entries"
    );
}

#[test]
fn same_seed_profiles_bit_identically_under_the_mock_clock() {
    let a = profiled_answer(Clock::mock());
    let b = profiled_answer(Clock::mock());
    let (pa, pb) = (a.profile.expect("profile a"), b.profile.expect("profile b"));
    assert_eq!(pa, pb);
    assert_eq!(pa.render_text(), pb.render_text());
    // The rendered form is substantial, not a stub.
    assert!(pa.render_text().lines().count() >= 10, "{}", pa.render_text());
    assert!(pa.render_text().contains("workers[2]"), "{}", pa.render_text());
}

#[test]
fn operator_self_times_reconcile_with_stage_walls() {
    // Real clock: nonzero stage walls, and the scaled layout of operator
    // spans must keep per-stage operator self-time within the wall.
    let a = profiled_answer(Clock::real());
    let stages = reconcile_stages(&a.trace);
    assert!(!stages.is_empty(), "no stages with operator children");
    for s in &stages {
        assert!(
            s.holds(),
            "stage {} overcommitted: ops {:?} > wall {:?}",
            s.stage,
            s.op_total,
            s.wall
        );
    }
}

#[test]
fn audit_replay_nests_its_operators_and_reconciles() {
    let s = AqpSession::new(SessionConfig {
        seed: 21,
        threads: 1,
        bootstrap_k: 40,
        diagnostic_p: 50,
        obs: ObsHandle::isolated(Clock::real()),
        audit: Some(AuditConfig {
            sample_rate: 1.0, // audit every query
            seed: 17,
            window: 16,
            ..Default::default()
        }),
        ..Default::default()
    });
    s.register_table(conviva_sessions_table(20_000, 4, 21)).unwrap();
    s.build_samples("sessions", &[4_000], 7).unwrap();
    let a = s.execute("SELECT AVG(time) FROM sessions").unwrap();
    assert!(!a.fell_back, "benign AVG should stay approximate");

    // The replay's engine spans are grafted under the audit-replay span:
    // its timing is visible and its exact-execution stage reconciles.
    assert!(a.timings.audit_replay() > std::time::Duration::ZERO);
    let replay_stage = a
        .trace
        .spans
        .iter()
        .position(|sp| sp.name == stage::AUDIT_REPLAY)
        .expect("audit_replay span");
    assert!(
        a.trace
            .spans
            .iter()
            .any(|sp| sp.parent == Some(replay_stage) && sp.name == stage::EXACT_EXECUTION),
        "replay trace was not grafted under the audit_replay span"
    );
    for rec in reconcile_stages(&a.trace) {
        assert!(rec.holds(), "stage {} overcommitted", rec.stage);
    }
    // The main (approximate) execution stays the profile's root tree —
    // the replay's exact-path operators must not displace it.
    let profile = a.profile.expect("profile");
    assert!(profile.find("ErrorEstimate").is_some(), "{}", profile.render_text());
}
