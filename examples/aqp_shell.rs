//! An interactive AQP shell over the synthetic sessions table.
//!
//! ```bash
//! cargo run --release --example aqp_shell
//! ```
//!
//! Commands:
//!
//! ```text
//! SELECT ...;                 run a query (approximate when samples exist)
//! SELECT ... WITHIN 5% ERROR; run it on the smallest sample a pilot says
//!                             meets the bound
//! \sample <rows>              build a uniform sample of <rows> rows
//! \strata <column> <rows>     build a stratified sample on <column>
//! \csv <path> <name>          load a CSV file as a new table
//! \schema                     show the sessions schema
//! \introspect                 summarize the shell's own telemetry
//!                             (`_telemetry.*` tables, AQP over AQP)
//! \quit                       exit
//! ```
//!
//! The self-hosted telemetry pipeline is always on: every query folds
//! its spans, timings, and outcomes into the `_telemetry.*` tables, so
//! `SELECT stage, AVG(wall_ms) FROM _telemetry.spans GROUP BY stage`
//! works like any other query — error bars included.
//!
//! Launch with `--metrics out.jsonl` to dump the session's metrics
//! snapshot as JSONL when the shell exits. Launch with `--explain` to
//! print the EXPLAIN ANALYZE operator profile after every query.

use std::io::{BufRead, Write};

use reliable_aqp::workload::conviva_sessions_table;
use reliable_aqp::{AqpSession, IntrospectConfig, SessionConfig};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let flag_value = |flag: &str| {
        args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1).cloned())
    };
    let metrics_path = flag_value("--metrics");
    let explain = args.iter().any(|a| a == "--explain");
    let rows = 1_000_000;
    eprintln!("loading {rows}-row synthetic `sessions` table ...");
    let session = AqpSession::new(SessionConfig {
        seed: 1,
        // The shell watches itself: telemetry folds into `_telemetry.*`
        // so the operator can query the session about the session.
        introspect: Some(IntrospectConfig::new().with_class("bounded", "WITHIN")),
        ..Default::default()
    });
    session.register_table(conviva_sessions_table(rows, 16, 1)).expect("register");
    eprintln!(
        "ready. type \\schema for columns, \\sample 50000 to enable approximation, \\introspect \
         to query the shell's own telemetry."
    );

    let stdin = std::io::stdin();
    let mut out = std::io::stdout();
    loop {
        print!("aqp> ");
        let _ = out.flush();
        let mut line = String::new();
        if stdin.lock().read_line(&mut line).unwrap_or(0) == 0 {
            break; // EOF
        }
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if line == "\\quit" || line == "\\q" {
            break;
        }
        if line == "\\introspect" {
            // A canned panel over the session's own telemetry; each of
            // these is an ordinary AQP query an operator could type.
            for sql in [
                "SELECT COUNT(*) FROM _telemetry.queries",
                "SELECT class, AVG(wall_ms) FROM _telemetry.queries GROUP BY class",
                "SELECT stage, AVG(wall_ms) FROM _telemetry.spans GROUP BY stage",
            ] {
                println!("  {sql}");
                match session.execute(sql) {
                    Ok(a) => print!("{}", a.summary()),
                    Err(e) => println!("  (no telemetry yet: {e})"),
                }
            }
            println!("  (tables: _telemetry.spans, queries, metrics, audit, faults, slo_alerts, ops)");
            continue;
        }
        if line == "\\schema" {
            let t = session.catalog().table("sessions").expect("table");
            for f in t.schema().fields() {
                println!("  {}: {}", f.name, f.data_type.name());
            }
            continue;
        }
        if let Some(rest) = line.strip_prefix("\\csv ") {
            let mut parts = rest.split_whitespace();
            match (parts.next(), parts.next()) {
                (Some(path), Some(name)) => {
                    match reliable_aqp::storage::read_csv_file(path, name, 8)
                        .map_err(reliable_aqp::exec::ExecError::Storage)
                    {
                        Ok(table) => {
                            let rows = table.num_rows();
                            match session.register_table(table) {
                                Ok(()) => println!("loaded {rows} rows as table {name}"),
                                Err(e) => println!("error: {e}"),
                            }
                        }
                        Err(e) => println!("error: {e}"),
                    }
                }
                _ => println!("usage: \\csv <path> <table_name>"),
            }
            continue;
        }
        if let Some(rest) = line.strip_prefix("\\sample ") {
            match rest.trim().parse::<usize>() {
                Ok(n) => match session.build_samples("sessions", &[n], 7) {
                    Ok(()) => println!("built a uniform sample of {n} rows"),
                    Err(e) => println!("error: {e}"),
                },
                Err(_) => println!("usage: \\sample <rows>"),
            }
            continue;
        }
        if let Some(rest) = line.strip_prefix("\\strata ") {
            let mut parts = rest.split_whitespace();
            match (parts.next(), parts.next().and_then(|r| r.parse::<usize>().ok())) {
                (Some(col), Some(n)) => {
                    match session.build_stratified_sample("sessions", col, n, 11) {
                        Ok(()) => println!("built a stratified sample on {col} ({n} rows/stratum)"),
                        Err(e) => println!("error: {e}"),
                    }
                }
                _ => println!("usage: \\strata <column> <rows_per_stratum>"),
            }
            continue;
        }
        // EXPLAIN prefix.
        if line.len() >= 7 && line[..7].eq_ignore_ascii_case("explain") {
            match session.explain(line[7..].trim_end_matches(';')) {
                Ok(plan) => print!("{plan}"),
                Err(e) => println!("error: {e}"),
            }
            continue;
        }
        // Plain SQL.
        match session.execute(line.trim_end_matches(';')) {
            Ok(answer) => {
                print!("{}", answer.summary());
                println!("({:?})", answer.timings.total());
                if let Some(profile) = answer.profile.as_ref().filter(|_| explain) {
                    println!("EXPLAIN ANALYZE:\n{}", profile.render_text());
                }
            }
            Err(e) => println!("error: {e}"),
        }
    }
    if let Some(path) = metrics_path {
        let snapshot = reliable_aqp::obs::MetricsRegistry::global().snapshot();
        match std::fs::write(&path, snapshot.to_jsonl()) {
            Ok(()) => eprintln!("metrics snapshot written to {path}"),
            Err(e) => eprintln!("failed writing metrics snapshot to {path}: {e}"),
        }
    }
    eprintln!("bye");
}
