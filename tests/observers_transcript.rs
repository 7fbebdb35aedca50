//! The differential oracle for the observer seam: one session with audit,
//! SLO (latency and coverage objectives, flight recorder), continuous
//! profiling and introspection all on — the only configuration in which
//! the audit → SLO → flight recorder → introspect hand-offs run — driven
//! through a fixed query list under the mock clock on one thread, with
//! fault injection on. Every answer (as f64 bit patterns), every
//! observer's report, the `_telemetry.*` tables and the metrics snapshot
//! are rendered into one string and compared byte for byte with
//! `tests/golden/observers_transcript.txt`.
//!
//! The golden file was recorded by the commit *before* `observers.rs`
//! existed; a refactor of how the session drives its observers must
//! reproduce it unchanged. It has been re-recorded once since, when the
//! executor stopped computing the error bars of diagnostic-refused results
//! (EXPERIMENTS.md "Bars on demand" lists the 97 lines that moved, by
//! class: `error_estimation` / `op:ErrorEstimate` / worker / gate span
//! attributes, two cumulative-profile rows and the one telemetry answer
//! that averages `rows_out`; every other answer line is the original's).
//! On a mismatch the test writes what it got to
//! `target/observers_transcript.txt.actual` for `diff`.

mod common;

use reliable_aqp::audit::AuditConfig;
use reliable_aqp::faults::FaultConfig;
use reliable_aqp::obs::{name, Clock, FlightRecorderConfig, ObsHandle};
use reliable_aqp::slo::SloConfig;
use reliable_aqp::storage::Table;
use reliable_aqp::workload::{conviva_sessions_table, facebook_events_table};
use reliable_aqp::{
    AnswerMode, AqpAnswer, AqpSession, ContProfConfig, IntrospectConfig, SessionConfig,
};

/// The user queries, cycled in order. `sessions` and `events` have four
/// partitions, `sessions_wide` eight: fault draws are a function of
/// (fault seed, partition, attempt), so each table meets the same fate
/// on every query — the four-partition tables lose a quarter of their
/// sample and answer with widened bars, the wide one loses more than
/// the policy tolerates and falls back to exact execution.
const QUERIES: [&str; 13] = [
    "SELECT AVG(time) FROM sessions",
    "SELECT MAX(payload_kb) FROM events",
    "SELECT city, AVG(time) FROM sessions GROUP BY city",
    "SELECT SUM(bytes) FROM sessions WHERE is_mobile = true",
    "SELECT MAX(payload_kb) FROM events WHERE age_days < 200",
    "SELECT AVG(time) FROM sessions_wide",
    "SELECT site, COUNT(*), AVG(bitrate) FROM sessions GROUP BY site",
    "SELECT trimmed_mean(time) FROM sessions",
    "SELECT AVG(score) FROM events WITHIN 10% ERROR AT CONFIDENCE 95%",
    "SELECT COUNT(*) FROM _telemetry.queries",
    "SELECT AVG(nope) FROM sessions",
    "SELECT country, MAX(payload_kb) FROM events GROUP BY country",
    "SELECT stage, AVG(wall_ms) FROM _telemetry.spans GROUP BY stage",
];

/// How many times the list is cycled (6 × 13 = 78 `execute` calls, plus
/// one progressive execution and the closing telemetry queries).
const ROUNDS: usize = 6;

fn session(obs: ObsHandle) -> AqpSession {
    // The `tests/introspect.rs` smoke faults (truncation, transient
    // errors) plus worker deaths and stragglers with no retries, on a fault
    // seed where partitions 0-3 lose one task and 4-7 lose two more:
    // degraded answers, a degraded exact fallback, and latency that moves
    // on the mock clock (injected delay advances it).
    let mut faults = FaultConfig::quiescent(17);
    faults.truncation_prob = 0.25;
    faults.truncation_keep = 0.5;
    faults.transient_error_prob = 0.05;
    faults.worker_death_prob = 0.3;
    faults.straggler_prob = 0.3;
    faults.recovery.max_retries = 0;
    faults.recovery.max_lost_fraction = 0.3;
    let slo = SloConfig::new()
        .with_class("tail", "MAX(")
        .with_class("dashboards", "GROUP BY")
        .with_latency(SloConfig::DEFAULT_CLASS, 0.95, 20.0)
        .with_latency("dashboards", 0.95, 20.0)
        .with_coverage(SloConfig::DEFAULT_CLASS, 0.95)
        .with_coverage("tail", 0.95)
        .with_recorder(FlightRecorderConfig { capacity: 32, path: None });
    let s = AqpSession::new(SessionConfig {
        seed: 7,
        threads: 1,
        bootstrap_k: 40,
        diagnostic_p: 50,
        obs,
        faults: Some(faults),
        audit: Some(AuditConfig {
            sample_rate: 0.6,
            seed: 3,
            window: 40,
            min_window_for_alert: 6,
            column_families: vec![
                ("payload_kb".to_string(), "pareto".to_string()),
                ("time".to_string(), "lognormal".to_string()),
            ],
            ..Default::default()
        }),
        slo: Some(slo),
        contprof: Some(ContProfConfig::new().with_class("dashboards", "GROUP BY")),
        introspect: Some(
            IntrospectConfig::new().with_class("dashboards", "GROUP BY").with_metrics_every(8),
        ),
        ..Default::default()
    });
    let sessions = conviva_sessions_table(60_000, 4, 7);
    let wide = Table::from_batch("sessions_wide", sessions.to_batch().unwrap(), 8).unwrap();
    s.register_table(sessions).unwrap();
    s.register_table(wide).unwrap();
    s.register_table(facebook_events_table(60_000, 4, 7)).unwrap();
    s.build_samples("sessions", &[2_000, 16_000], 9).unwrap();
    s.build_samples("sessions_wide", &[16_000], 9).unwrap();
    s.build_samples("events", &[2_000, 16_000], 9).unwrap();
    s
}

/// An answer as exact bit patterns; any drift becomes a byte diff.
fn render<E: std::fmt::Display>(out: &mut String, sql: &str, result: &Result<AqpAnswer, E>) {
    out.push_str(&format!("== {sql}\n"));
    let a = match result {
        Ok(a) => a,
        Err(e) => {
            out.push_str(&format!("error: {e}\n"));
            return;
        }
    };
    out.push_str(&format!(
        "mode={:?} sample={}/{} fell_back={} spans={}",
        a.mode,
        a.sample_rows,
        a.population_rows,
        a.fell_back,
        a.trace.spans.len()
    ));
    if let Some(d) = &a.degraded {
        out.push_str(&format!(
            " degraded={}/{} lost={}/{} widen={:x}",
            d.effective_rows,
            d.planned_rows,
            d.lost_partitions,
            d.total_partitions,
            d.widen_factor.to_bits()
        ));
    }
    out.push('\n');
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
                "{} {} {:x} ci={} {:?} diag={}\n",
                g.key,
                agg.name,
                agg.estimate.to_bits(),
                ci,
                agg.method,
                verdict
            ));
        }
    }
}

fn transcript() -> (String, Vec<String>) {
    let obs = ObsHandle::isolated(Clock::mock());
    let s = session(obs.clone());
    let mut out = String::new();
    let (mut degraded_fallbacks, mut partial_fallbacks, mut degraded_answers) = (0u64, 0u64, 0u64);

    out.push_str("## explain\n");
    for sql in [QUERIES[0], QUERIES[7], QUERIES[8]] {
        out.push_str(&format!("== {sql}\n{}", s.explain(sql).unwrap()));
    }

    out.push_str("## answers\n");
    for round in 0..ROUNDS {
        for sql in QUERIES {
            let result = s.execute(sql);
            if let Ok(a) = &result {
                degraded_answers += u64::from(a.degraded.is_some());
                partial_fallbacks += u64::from(a.mode == AnswerMode::PartialFallback);
                degraded_fallbacks += u64::from(
                    a.mode == AnswerMode::ExactFallback && sql.contains("sessions_wide"),
                );
            }
            render(&mut out, sql, &result);
        }
        if round == 2 {
            // Progressive steps audit but skip the finished-query fan-out.
            let sql = "SELECT AVG(bitrate) FROM sessions";
            let p = s.execute_progressive(sql, 0.05).unwrap();
            out.push_str(&format!("## progressive steps={}\n", p.steps.len()));
            for step in &p.steps {
                render::<String>(&mut out, sql, &Ok(step.answer.clone()));
            }
        }
    }

    let audit = s.audit_report().unwrap();
    let slo = s.slo_report().unwrap();
    out.push_str("## audit\n");
    out.push_str(&audit.render_table());
    out.push_str("## slo\n");
    out.push_str(&slo.render_table());
    out.push_str("## flight recorder (last dump)\n");
    out.push_str(&s.flight_recorder().unwrap().last_dump().unwrap_or_default());
    out.push_str("## cumulative profile\n");
    out.push_str(&s.cumulative_profile().unwrap().to_json());
    out.push('\n');

    out.push_str("## telemetry\n");
    for (table, column) in [
        ("spans", "depth"),
        ("queries", "wall_ms"),
        ("metrics", "value"),
        ("audit", "covered"),
        ("faults", "attempt"),
        ("slo_alerts", "query"),
        ("ops", "rows_out"),
    ] {
        for sql in [
            format!("SELECT COUNT(*) FROM _telemetry.{table}"),
            format!("SELECT AVG({column}) FROM _telemetry.{table}"),
        ] {
            render(&mut out, &sql, &s.execute(&sql));
        }
    }
    let sql = "SELECT trigger, COUNT(*) FROM _telemetry.slo_alerts GROUP BY trigger";
    render(&mut out, sql, &s.execute(sql));

    out.push_str("## metrics\n");
    let snap = obs.metrics.snapshot();
    out.push_str(&snap.to_jsonl());

    // The transcript is only an oracle for the hand-offs it exercises.
    let mut missing: Vec<String> = Vec::new();
    if audit.alerts.is_empty() {
        missing.push("an audit alert".into());
    }
    for severity in ["PAGE", "WARN"] {
        for kind in ["latency", "coverage"] {
            let fired = slo.alerts.iter().any(|a| {
                a.to_string().starts_with(severity) && a.objective.contains(kind)
            });
            if !fired {
                missing.push(format!("an SLO {severity} alert on a {kind} objective"));
            }
        }
    }
    if degraded_answers == 0 {
        missing.push("a degraded approximate answer".into());
    }
    if degraded_fallbacks == 0
        || snap.counter(name::FAULTS_EXACT_FALLBACKS) != Some(degraded_fallbacks)
    {
        missing.push("a degraded exact fallback on every sessions_wide query".into());
    }
    if partial_fallbacks == 0 {
        missing.push("a partial fallback".into());
    }

    // One score, three folds: the SLO `tail` class is exactly the
    // `MAX(payload_kb)` results, the auditor keys them `MAX:pareto`, and
    // `_telemetry.audit` (synced by the queries above) holds a row each —
    // all three read the seam's one scored slice, so they count the same
    // results and the same misses.
    let rows = s.catalog().table("_telemetry.audit").unwrap().to_batch().unwrap();
    let (agg, covered) =
        (rows.column_by_name("agg").unwrap(), rows.column_by_name("covered").unwrap());
    let tail: Vec<f64> = (0..rows.num_rows())
        .filter(|&i| agg.value(i).unwrap().to_string() == "MAX")
        .filter_map(|i| covered.f64_at(i))
        .collect();
    let (n, misses) = (tail.len() as u64, tail.iter().filter(|&&c| c == 0.0).count() as u64);
    let key = audit.keys.iter().find(|k| k.key == "MAX:pareto").unwrap();
    let objective = slo.objectives.iter().find(|o| o.id == "tail/coverage_ge_95").unwrap();
    assert_eq!(
        ((key.scored, key.coverage), (objective.events, objective.bad)),
        ((n, Some((n - misses) as f64 / n as f64)), (n, misses)),
        "_telemetry.audit vs the auditor's MAX:pareto key and the SLO tail coverage objective"
    );
    (out, missing)
}

#[test]
fn all_four_hooks_reproduce_the_recorded_transcript() {
    let (got, missing) = transcript();
    common::assert_matches_golden("observers_transcript.txt", &got);
    assert!(missing.is_empty(), "the query list no longer produces: {missing:?}");
}
