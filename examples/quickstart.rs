//! Quickstart: approximate queries with validated error bars.
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```
//!
//! Builds a synthetic Conviva-style sessions table, maintains two uniform
//! samples, and answers the paper's running example
//! (`SELECT AVG(Time) FROM Sessions WHERE City = 'NYC'`) three ways:
//! exactly, approximately with a 10% error bound, and approximately with
//! a tight bound that forces the bigger sample.
//!
//! Pass `--metrics out.jsonl` to dump the session's metrics snapshot
//! (counters, fallback rates, latency percentiles) as JSONL. Pass
//! `--explain` to print the EXPLAIN ANALYZE operator profile every
//! answer carries.

use reliable_aqp::obs::{Clock, MetricsRegistry};
use reliable_aqp::workload::conviva_sessions_table;
use reliable_aqp::{AqpAnswer, AqpSession, SessionConfig};

/// Print an answer's operator profile when `--explain` asked for it.
fn print_profile(answer: &AqpAnswer, explain: bool) {
    if let Some(profile) = answer.profile.as_ref().filter(|_| explain) {
        println!("EXPLAIN ANALYZE:\n{}", profile.render_text());
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let flag_value = |flag: &str| {
        args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1).cloned())
    };
    let metrics_path = flag_value("--metrics");
    let explain = args.iter().any(|a| a == "--explain");
    let clock = Clock::real();
    let rows = 2_000_000;
    println!("building a {rows}-row sessions table ...");
    let table = conviva_sessions_table(rows, 16, 1);

    // Seed chosen so the diagnostic accepts the benign AVG (most seeds do;
    // a few land in its ~few-percent false-negative band and would fall
    // back to exact, which is safe but defeats this demo).
    let session = AqpSession::new(SessionConfig { seed: 1, ..Default::default() });
    session.register_table(table).expect("register");
    println!("building uniform samples (2.5% and 5%) ...");
    session.build_samples("sessions", &[rows / 40, rows / 20], 7).expect("sample");

    let query = "SELECT AVG(time) FROM sessions WHERE city = 'NYC'";

    // Exact ground truth (scans everything).
    let t0 = clock.now();
    let exact_session = AqpSession::new(SessionConfig::default());
    exact_session
        .register_table(conviva_sessions_table(rows, 16, 1))
        .expect("register");
    let exact = exact_session.execute(query).expect("exact");
    println!(
        "\nEXACT      {query}\n  -> {:.4}   ({:?} wall)",
        exact.scalar().unwrap().estimate,
        clock.now().duration_since(t0)
    );

    // Approximate with a 10% error bound: picks the smallest sufficient
    // sample, runs the single-scan error estimation + diagnostic.
    let t1 = clock.now();
    let approx = session
        .execute(&format!("{query} WITHIN 10% ERROR AT CONFIDENCE 95%"))
        .expect("approx");
    println!(
        "\nAPPROX 10% {query}\n{}  ({:?} wall)",
        approx.summary(),
        clock.now().duration_since(t1)
    );
    print_profile(&approx, explain);

    // Tight 1% bound: needs the larger sample.
    let t2 = clock.now();
    let tight = session
        .execute(&format!("{query} WITHIN 1% ERROR AT CONFIDENCE 95%"))
        .expect("approx tight");
    println!(
        "APPROX 1%  {query}\n{}  ({:?} wall)",
        tight.summary(),
        clock.now().duration_since(t2)
    );
    print_profile(&tight, explain);

    println!("plan used:\n{}", tight.plan);
    println!("lifecycle trace of the tight query:\n{}", tight.trace.render_table());
    let truth = exact.scalar().unwrap().estimate;
    let est = approx.scalar().unwrap().estimate;
    println!("relative deviation from truth at 10% bound: {:.3}%", 100.0 * (est - truth).abs() / truth);

    if let Some(path) = metrics_path {
        let snapshot = MetricsRegistry::global().snapshot();
        match std::fs::write(&path, snapshot.to_jsonl()) {
            Ok(()) => println!("metrics snapshot written to {path}"),
            Err(e) => eprintln!("failed writing metrics snapshot to {path}: {e}"),
        }
    }
}
