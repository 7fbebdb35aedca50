//! An operator's fleet dashboard: SLO burn rates, error budgets, drift
//! verdicts, and the flight recorder's last dump — over a Facebook +
//! Conviva query mix with fault injection switched on.
//!
//! ```bash
//! cargo run --release --example slo_dashboard -- --queries 150 --dump dumps.jsonl
//! ```
//!
//! The session runs on the mock clock with a fixed seed, so the whole
//! dashboard — alert sequence, burn-rate table, drift signals, and every
//! recorder dump byte — is reproducible across processes; CI diffs two
//! runs' dump artifacts. The replay has two phases:
//!
//! * a **healthy** mix (closed-form AVG/SUM/COUNT over the Conviva and
//!   Facebook tables) whose CI coverage holds the 95% floor, then
//! * a **miscalibrated** tail (unchecked bootstrap `MAX(payload_kb)`
//!   over a Pareto column) whose coverage collapses: the drift
//!   detectors flag the stream within a handful of queries, the burn
//!   rate crosses the page threshold, and every latched alert freezes a
//!   flight-recorder dump.
//!
//! The session also runs the self-hosted telemetry pipeline
//! (`crates/introspect`): the closing panel answers fleet questions —
//! alert counts by severity, fault mix, span volume per stage — by
//! running AQP queries over the session's own `_telemetry.*` tables.
//!
//! Flags: `--queries N` total replayed queries (default 150),
//! `--dump PATH` appends recorder dumps there, `--log PATH` routes the
//! JSONL alert log there, `--metrics PATH` writes a final metrics
//! snapshot.

use reliable_aqp::audit::AuditConfig;
use reliable_aqp::faults::FaultConfig;
use reliable_aqp::obs::{Clock, FlightRecorderConfig, ObsHandle};
use reliable_aqp::slo::{SloConfig, SloLogConfig};
use reliable_aqp::workload::{conviva_sessions_table, facebook_events_table};
use reliable_aqp::{AqpSession, IntrospectConfig, SessionConfig};

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1).cloned())
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let queries: usize = flag(&args, "--queries")
        .and_then(|v| v.parse().ok())
        .unwrap_or(150);
    let dump_path = flag(&args, "--dump");
    let log_path = flag(&args, "--log");
    let metrics_path = flag(&args, "--metrics");

    // Mock clock + fixed seeds: bit-identical replay across processes.
    let obs = ObsHandle::isolated(Clock::mock());

    let mut slo = SloConfig::new()
        .with_class("tail", "MAX(")
        .with_class("interactive", "SELECT AVG(")
        .with_latency("interactive", 0.95, 40.0)
        .with_coverage("interactive", 0.95)
        .with_coverage("tail", 0.95)
        .with_coverage(SloConfig::DEFAULT_CLASS, 0.95);
    if let Some(path) = &log_path {
        slo = slo.with_log(SloLogConfig::at(path));
    }
    slo = slo.with_recorder(match &dump_path {
        Some(path) => FlightRecorderConfig::at(8, path),
        None => FlightRecorderConfig { capacity: 8, path: None },
    });

    // Deterministic fault injection: enough truncation to degrade some
    // scans (widened error bars, occasional exact fallback), plus a few
    // transient errors the retry policy absorbs. Fault draws are fixed
    // per (seed, task, attempt); seed 3 is a stream where the 25%
    // truncation draw actually fires on this table's partitions.
    let mut faults = FaultConfig::quiescent(3);
    faults.truncation_prob = 0.25;
    faults.truncation_keep = 0.5;
    faults.transient_error_prob = 0.05;

    let session = AqpSession::new(SessionConfig {
        seed: 2,
        threads: 1,
        bootstrap_k: 40,
        run_diagnostics: false, // the tail phase's bad bars go unchecked
        obs: obs.clone(),
        audit: Some(AuditConfig {
            sample_rate: 1.0,
            window: 100,
            min_window_for_alert: 50,
            column_families: vec![
                ("time".into(), "lognormal".into()),
                ("payload_kb".into(), "pareto".into()),
                ("*".into(), "count".into()),
            ],
            ..Default::default()
        }),
        faults: Some(faults),
        slo: Some(slo),
        introspect: Some(IntrospectConfig::new().with_class("tail", "MAX(")),
        ..Default::default()
    });

    let rows = 40_000;
    session.register_table(conviva_sessions_table(rows, 8, 1)).expect("register");
    session.register_table(facebook_events_table(rows, 8, 2)).expect("register");
    session.build_samples("sessions", &[rows / 5], 6).expect("samples");
    session.build_samples("events", &[rows / 5], 7).expect("samples");

    let healthy = queries * 2 / 3;
    println!("phase 1: healthy FB/Conviva mix ({healthy} queries, faults on) ...");
    for i in 0..healthy {
        let sql = match i % 4 {
            0 => "SELECT AVG(time) FROM sessions",
            1 => "SELECT SUM(bytes) FROM sessions",
            2 => "SELECT AVG(payload_kb) FROM events",
            _ => "SELECT COUNT(*) FROM sessions WHERE is_mobile = true",
        };
        session.execute(sql).expect("query");
    }

    let tail = queries - healthy;
    println!("phase 2: miscalibrated tail ({tail} unchecked MAX(payload_kb) queries) ...");
    for _ in 0..tail {
        session.execute("SELECT MAX(payload_kb) FROM events").expect("query");
    }

    let report = session.slo_report().expect("slo enabled");
    println!("\n== fleet SLO status ==");
    print!("{}", report.render_table());

    if let Some(audit) = session.audit_report() {
        println!("\n== audit cross-check ==");
        println!(
            "   audited {} of {} queries; overall coverage {}",
            audit.audited,
            audit.considered,
            audit
                .overall
                .coverage
                .map(|c| format!("{:.1}%", c * 100.0))
                .unwrap_or_else(|| "-".to_string()),
        );
        for a in &audit.alerts {
            println!("   AUDIT ALERT  {a}");
        }
    }

    let recorder = session.flight_recorder().expect("slo enabled");
    println!("\n== flight recorder ==");
    println!("   traces retained: {}", recorder.retained());
    match recorder.last_dump() {
        Some(dump) => {
            let lines = dump.lines().count();
            let header = dump.lines().next().unwrap_or("");
            println!("   last dump: {lines} lines");
            println!("   {header}");
        }
        None => println!("   no dump fired"),
    }
    if let Some(path) = &dump_path {
        println!("   dump artifact appended to {path}");
    }

    // The fleet questions an operator would grep logs for, answered by
    // the engine itself over its own telemetry tables.
    println!("\n== self-hosted telemetry (AQP over _telemetry.*) ==");
    for sql in [
        "SELECT severity, COUNT(*) FROM _telemetry.slo_alerts GROUP BY severity",
        "SELECT kind, COUNT(*) FROM _telemetry.faults GROUP BY kind",
        "SELECT stage, COUNT(*) FROM _telemetry.spans GROUP BY stage",
        "SELECT class, AVG(sample_rows) FROM _telemetry.queries GROUP BY class",
    ] {
        match session.execute(sql) {
            Ok(a) => {
                println!("   {sql}");
                println!("      [{:?}, sample {}/{}]", a.mode, a.sample_rows, a.population_rows);
                for g in &a.groups {
                    for agg in &g.aggs {
                        let ci = agg
                            .ci
                            .as_ref()
                            .filter(|c| c.half_width > 0.0)
                            .map(|c| format!(" ± {:.1}", c.half_width))
                            .unwrap_or_default();
                        println!("      {:<16} {} = {:.1}{}", g.key, agg.name, agg.estimate, ci);
                    }
                }
            }
            Err(e) => println!("   {sql}\n      error: {e}"),
        }
    }

    println!(
        "\nDrift flags the miscalibrated stream within a handful of queries; the burn \
         rate pages once the budget is burning ~14x too fast; and every alert ships \
         with a frozen flight-recorder artifact for post-hoc debugging."
    );

    if let Some(path) = metrics_path {
        let snapshot = obs.metrics.snapshot();
        match std::fs::write(&path, snapshot.to_jsonl()) {
            Ok(()) => println!("metrics snapshot written to {path}"),
            Err(e) => eprintln!("failed writing metrics snapshot to {path}: {e}"),
        }
    }
}
