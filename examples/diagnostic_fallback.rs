//! "Knowing when you're wrong" in action: the same query shape over
//! benign vs. pathological data, showing the diagnostic accepting the
//! first and rejecting the second (triggering exact fallback).
//!
//! ```bash
//! cargo run --release --example diagnostic_fallback
//! ```
//!
//! §3 of the paper shows bootstrap error estimation failing for 86% of
//! MIN/MAX queries on production data — precisely the case the diagnostic
//! exists to catch before a user ever sees the bogus error bars.
//!
//! Pass `--metrics out.jsonl` to dump the metrics snapshot (diagnostic
//! accept/reject counters, fallback rates) as JSONL.

use reliable_aqp::diagnostics::{Decision, DiagnosticReport};
use reliable_aqp::{AnswerMode, AqpSession, SessionConfig};
use reliable_aqp::workload::facebook_events_table;

fn run(session: &AqpSession, sql: &str) {
    println!("\n>>> {sql}");
    let answer = session.execute(sql).expect("execute");
    // The answer carries its own trace-derived timings: no ad-hoc clock.
    let elapsed = answer.timings.total();
    let r = answer.scalar().expect("single result");
    match answer.mode {
        AnswerMode::Approximate | AnswerMode::ApproximateUnchecked => {
            let ci = r.ci.expect("approximate answers carry intervals");
            println!(
                "    APPROVED: {:.4} ± {:.4} via {:?} (diagnostic accepted), {:?}",
                r.estimate,
                ci.half_width,
                r.method,
                elapsed
            );
            explain(r.diagnostic.as_ref());
        }
        AnswerMode::ExactFallback | AnswerMode::PartialFallback => {
            println!(
                "    REJECTED by diagnostic -> exact fallback: {:.4} (no error bars shown), {:?}",
                r.estimate,
                elapsed
            );
            if let Some(why) = r.bars_not_computed() {
                println!("      bars not computed: {why}");
            }
            explain(r.diagnostic.as_ref());
        }
        AnswerMode::Exact => println!("    exact: {:.4}", r.estimate),
    }
}

/// Why the diagnostic decided as it did: the deciding check, and the
/// levels it had to evaluate to get there (a refusal usually stops a few
/// subsamples into the last level and never looks at the others).
fn explain(report: Option<&DiagnosticReport>) {
    let Some(d) = report else { return };
    match &d.decision {
        Decision::Accepted => println!("      decided by: every check held"),
        Decision::Failed { criterion, level } => {
            println!("      decided by: {criterion:?} check failed at level {level}")
        }
        Decision::Refused(why) => println!("      decided by: diagnostic could not run ({why})"),
    }
    for l in &d.levels {
        println!(
            "      level {} b={:<6} truth hw={:<10.4} mean-dev={:<8.3} spread={:<8.3} close={:.2} (xi ran on {} subsamples)",
            l.level, l.b, l.x, l.mean_deviation, l.relative_spread, l.close_proportion, l.xi_evaluated
        );
    }
}

fn main() {
    let rows = 1_000_000;
    println!("ingesting {rows} events (columns span the tail-weight spectrum) ...");
    let session = AqpSession::new(SessionConfig { seed: 13, ..Default::default() });
    session.register_table(facebook_events_table(rows, 16, 5)).expect("register");
    session.build_samples("events", &[rows / 20], 17).expect("samples");

    // Benign: AVG over a bounded column — every technique works; the
    // diagnostic should accept.
    run(&session, "SELECT AVG(dwell_frac) FROM events");

    // Moderate: SUM over a lognormal column — closed form, usually fine.
    run(&session, "SELECT SUM(latency_ms) FROM events WHERE country = 'NYC'");

    // Pathological: MAX over an infinite-variance Pareto column — the
    // bootstrap's error bars are garbage; the diagnostic must catch it.
    run(&session, "SELECT MAX(payload_kb) FROM events");

    // Also pathological: MIN over a continuous unbounded-support column.
    run(&session, "SELECT MIN(payload_kb) FROM events");

    write_metrics_if_requested();
}

/// Honour a `--metrics <path>` flag with a JSONL metrics snapshot.
fn write_metrics_if_requested() {
    let args: Vec<String> = std::env::args().collect();
    let Some(path) = args
        .iter()
        .position(|a| a == "--metrics")
        .and_then(|i| args.get(i + 1).cloned())
    else {
        return;
    };
    let snapshot = reliable_aqp::obs::MetricsRegistry::global().snapshot();
    match std::fs::write(&path, snapshot.to_jsonl()) {
        Ok(()) => println!("metrics snapshot written to {path}"),
        Err(e) => eprintln!("failed writing metrics snapshot to {path}: {e}"),
    }
}
