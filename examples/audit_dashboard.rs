//! An operator's accuracy dashboard: the continuous auditor scoring a
//! live session's error bars against replayed ground truth.
//!
//! ```bash
//! cargo run --release --example audit_dashboard
//! ```
//!
//! Two sessions run side by side:
//!
//! * a **healthy** one (diagnostic on, closed-form aggregates) whose CI
//!   coverage should sit near the claimed 95%, and
//! * a **miscalibrated** one (diagnostic off, bootstrap MAX over a
//!   Pareto tail) whose coverage collapses — the auditor's sliding
//!   window catches it and fires a coverage alert, which is the signal
//!   an operator would page on.
//!
//! Both sessions also run the fleet SLO engine with a 95% CI-coverage
//! floor, so each panel shows the objective's burn rates and remaining
//! error budget next to the audit coverage bars.
//!
//! Both sessions also run the **self-hosted telemetry pipeline**
//! (`crates/introspect`): after the report panels, the dashboard turns
//! the AQP engine on itself and answers its accuracy questions by
//! querying the `_telemetry.audit` table — with the same error bars and
//! diagnostic verdicts it gives user queries.
//!
//! Pass `--metrics out.jsonl` to also dump the metrics registry
//! (including the `aqp.audit.*` and `aqp.slo.*` series) as JSONL.

use reliable_aqp::audit::{AuditConfig, AuditReport};
use reliable_aqp::obs::MetricsRegistry;
use reliable_aqp::slo::{SloConfig, SloReport};
use reliable_aqp::workload::{conviva_sessions_table, facebook_events_table};
use reliable_aqp::{AqpSession, IntrospectConfig, SessionConfig};

fn coverage_bar(cov: Option<f64>, width: usize) -> String {
    let mut s = String::new();
    let filled = (cov.unwrap_or(0.0).clamp(0.0, 1.0) * width as f64).round() as usize;
    for i in 0..width {
        s.push(if i < filled { '#' } else { '.' });
    }
    s
}

fn panel(title: &str, r: &AuditReport, slo: Option<&SloReport>) {
    println!("\n== {title} ==");
    println!(
        "   audited {} of {} approximate queries ({} results scored)",
        r.audited, r.considered, r.overall.scored
    );
    for k in std::iter::once(&r.overall).chain(r.keys.iter()) {
        let cov = k.coverage;
        println!(
            "   {:<18} [{}] {}  mean err-ratio {}",
            k.key,
            coverage_bar(cov, 20),
            cov.map(|c| format!("{:5.1}%", c * 100.0)).unwrap_or_else(|| "    -".to_string()),
            k.mean_error_ratio.map(|m| format!("{m:.2}")).unwrap_or_else(|| "-".to_string()),
        );
    }
    if let Some(slo) = slo {
        for o in &slo.objectives {
            println!(
                "   slo {:<24} burn(fast) {:>6.2}  burn(slow) {:>6.2}  budget {:>3.0}%{}",
                o.id,
                o.burn_fast,
                o.burn_slow,
                o.budget_remaining * 100.0,
                if o.page_latched {
                    "  PAGE"
                } else if o.warn_latched {
                    "  WARN"
                } else {
                    ""
                },
            );
        }
    }
    if r.alerts.is_empty() {
        println!("   alerts: none");
    } else {
        for a in &r.alerts {
            println!("   ALERT  {a}");
        }
    }
}

/// Answer introspection queries through the session itself and print
/// each estimate with its error bar and diagnostic verdict.
fn introspect_panel(title: &str, session: &AqpSession, queries: &[&str]) {
    println!("\n== {title} ==");
    for sql in queries {
        match session.execute(sql) {
            Ok(a) => {
                println!("   {sql}");
                println!("      [{:?}, sample {}/{}]", a.mode, a.sample_rows, a.population_rows);
                for g in &a.groups {
                    for agg in &g.aggs {
                        let ci = agg
                            .ci
                            .as_ref()
                            .map(|c| format!(" ± {:.4} @{:.0}%", c.half_width, c.confidence * 100.0))
                            .unwrap_or_default();
                        let verdict = match &agg.diagnostic {
                            Some(d) if d.accepted => "  [diagnostic ok]",
                            Some(_) => "  [diagnostic REJECTED]",
                            None => "",
                        };
                        println!("      {:<12} {} = {:.4}{}{}", g.key, agg.name, agg.estimate, ci, verdict);
                    }
                }
            }
            Err(e) => println!("   {sql}\n      error: {e}"),
        }
    }
}

fn main() {
    let metrics_path = {
        let args: Vec<String> = std::env::args().collect();
        args.iter()
            .position(|a| a == "--metrics")
            .and_then(|i| args.get(i + 1).cloned())
    };
    let rows = 40_000;

    // Healthy session: diagnostic on, 20% of queries audited.
    println!("healthy session: closed-form aggregates, diagnostic on ...");
    let healthy = AqpSession::new(SessionConfig {
        seed: 1,
        threads: 1,
        diagnostic_p: 50,
        audit: Some(AuditConfig {
            sample_rate: 0.5,
            window: 50,
            min_window_for_alert: 10,
            column_families: vec![("time".into(), "lognormal".into()), ("*".into(), "count".into())],
            ..Default::default()
        }),
        slo: Some(SloConfig::new().with_coverage(SloConfig::DEFAULT_CLASS, 0.95)),
        introspect: Some(IntrospectConfig::new().with_class("dashboards", "GROUP BY")),
        ..Default::default()
    });
    healthy.register_table(conviva_sessions_table(rows, 8, 1)).expect("register");
    healthy.build_samples("sessions", &[rows / 5], 6).expect("samples");
    for i in 0..150 {
        let sql = match i % 3 {
            0 => "SELECT AVG(time) FROM sessions",
            1 => "SELECT SUM(time) FROM sessions",
            _ => "SELECT COUNT(*) FROM sessions WHERE is_mobile = true",
        };
        healthy.execute(sql).expect("query");
    }

    // Miscalibrated session: unchecked bootstrap MAX over a Pareto tail,
    // audited aggressively.
    println!("miscalibrated session: unchecked MAX over a Pareto tail ...");
    let suspect = AqpSession::new(SessionConfig {
        seed: 2,
        threads: 1,
        bootstrap_k: 40,
        run_diagnostics: false,
        audit: Some(AuditConfig {
            sample_rate: 0.5,
            window: 50,
            min_window_for_alert: 10,
            column_families: vec![("payload_kb".into(), "pareto".into())],
            ..Default::default()
        }),
        slo: Some(SloConfig::new().with_coverage(SloConfig::DEFAULT_CLASS, 0.95)),
        introspect: Some(IntrospectConfig::new()),
        ..Default::default()
    });
    suspect.register_table(facebook_events_table(rows, 8, 2)).expect("register");
    suspect.build_samples("events", &[rows / 5], 7).expect("samples");
    for _ in 0..75 {
        suspect.execute("SELECT MAX(payload_kb) FROM events").expect("query");
    }

    let healthy_slo = healthy.slo_report();
    let suspect_slo = suspect.slo_report();
    panel(
        "healthy (claimed 95% confidence)",
        &healthy.audit_report().expect("auditing on"),
        healthy_slo.as_ref(),
    );
    panel(
        "miscalibrated (error bars unchecked)",
        &suspect.audit_report().expect("auditing on"),
        suspect_slo.as_ref(),
    );

    // The dashboard now asks the engine about itself: the same audit
    // evidence, answered as AQP queries over `_telemetry.audit` with
    // error bars of their own.
    introspect_panel(
        "self-hosted: the healthy session queries its own audit trail",
        &healthy,
        &[
            "SELECT family, AVG(covered) FROM _telemetry.audit GROUP BY family",
            "SELECT AVG(error_ratio) FROM _telemetry.audit",
            "SELECT stage, AVG(wall_ms) FROM _telemetry.spans GROUP BY stage",
        ],
    );
    introspect_panel(
        "self-hosted: the miscalibrated session cannot hide from itself",
        &suspect,
        &[
            "SELECT AVG(covered) FROM _telemetry.audit",
            "SELECT COUNT(*) FROM _telemetry.queries",
        ],
    );

    println!(
        "\nThe paper's point, continuously: coverage that tracks the claimed confidence means \
         the error bars can be trusted; a collapsing window means they cannot — and the \
         auditor says so while the system is running."
    );

    if let Some(path) = metrics_path {
        let snapshot = MetricsRegistry::global().snapshot();
        match std::fs::write(&path, snapshot.to_jsonl()) {
            Ok(()) => println!("metrics snapshot written to {path}"),
            Err(e) => eprintln!("failed writing metrics snapshot to {path}: {e}"),
        }
    }
}
