//! End-to-end integration tests spanning every crate: workload tables →
//! session → samples → SQL → approximate answers with validated error
//! bars → fallback behavior.

use reliable_aqp::workload::{conviva_sessions_table, facebook_events_table};
use reliable_aqp::{AnswerMode, AqpSession, SessionConfig};

fn sessions_session(rows: usize, sample: usize, seed: u64) -> AqpSession {
    let s = AqpSession::new(SessionConfig { seed, ..Default::default() });
    s.register_table(conviva_sessions_table(rows, 8, seed)).unwrap();
    s.build_samples("sessions", &[sample], seed ^ 0xA5).unwrap();
    s
}

#[test]
fn approximate_estimates_track_exact_values() {
    let rows = 400_000;
    let s = sessions_session(rows, 80_000, 1);
    let exact = AqpSession::new(SessionConfig::default());
    exact.register_table(conviva_sessions_table(rows, 8, 1)).unwrap();

    for sql in [
        "SELECT AVG(time) FROM sessions",
        "SELECT SUM(bytes) FROM sessions WHERE city = 'NYC'",
        "SELECT COUNT(*) FROM sessions WHERE is_mobile = true",
        "SELECT AVG(bitrate) FROM sessions WHERE time > 60",
    ] {
        let approx = s.execute(sql).unwrap();
        let truth = exact.execute(sql).unwrap();
        let (a, t) = (
            approx.scalar().unwrap_or_else(|| panic!("{sql}: no scalar")).estimate,
            truth.scalar().unwrap().estimate,
        );
        let rel = (a - t).abs() / t.abs().max(1e-12);
        assert!(rel < 0.06, "{sql}: approx {a} vs exact {t} (rel {rel})");
        // When approved, the error bars should usually cover the truth.
        if !approx.fell_back {
            let ci = approx.scalar().unwrap().ci.unwrap();
            assert!(
                ci.contains(t) || (a - t).abs() < 4.0 * ci.half_width,
                "{sql}: CI [{}, {}] vs truth {t}",
                ci.lo(),
                ci.hi()
            );
        }
    }
}

/// Served cells cover at nominal: `GROUP BY user_id` at the sizes of the
/// benchmark's `groupby_fanout` (250 000 rows in 16 partitions, one
/// 50 000-row uniform sample; most users hold a handful of sample rows),
/// two seeds, every cell served with bars held to an exact session's
/// answer. Pooled, they must cover at no less than α minus three standard
/// errors — or no cell is served at all.
#[test]
fn served_group_by_user_id_cells_cover_at_nominal() {
    let sql = "SELECT user_id, AVG(time) FROM sessions GROUP BY user_id";
    let (mut served, mut covered) = (0usize, 0usize);
    for seed in [1, 2] {
        let table = conviva_sessions_table(250_000, 16, seed);
        let exact = AqpSession::new(SessionConfig::default());
        exact.register_table(table.clone()).unwrap();
        let truth: std::collections::HashMap<String, f64> =
            exact.execute(sql).unwrap().groups.into_iter().map(|g| (g.key, g.aggs[0].estimate)).collect();
        let s = AqpSession::new(SessionConfig { seed, ..Default::default() });
        s.register_table(table).unwrap();
        s.build_samples("sessions", &[50_000], seed ^ 0xA5).unwrap();
        for g in s.execute(sql).unwrap().groups {
            if let Some(ci) = &g.aggs[0].ci {
                served += 1;
                covered += usize::from(ci.contains(truth[&g.key]));
            }
        }
    }
    let alpha = 0.95;
    let floor = alpha - 3.0 * (alpha * (1.0 - alpha) / served.max(1) as f64).sqrt();
    assert!(
        served == 0 || covered as f64 / served as f64 >= floor,
        "{covered} of {served} served cells cover the truth, below {floor:.3}"
    );
}

#[test]
fn whole_pipeline_is_deterministic() {
    let run = || {
        let s = sessions_session(100_000, 20_000, 9);
        let a = s.execute("SELECT AVG(time), SUM(bytes) FROM sessions WHERE city = 'LA'").unwrap();
        // Summaries contain wall-clock timings; compare the semantic parts.
        let results: Vec<(String, String)> = a
            .groups
            .iter()
            .flat_map(|g| {
                g.aggs.iter().map(move |r| {
                    (format!("{}:{}", g.key, r.name), format!("{:?} {:?}", r.estimate, r.ci))
                })
            })
            .collect();
        format!("{:?} {:?}", a.mode, results)
    };
    assert_eq!(run(), run());
}

#[test]
fn extreme_aggregates_on_heavy_tails_never_show_unvalidated_error_bars() {
    // Across several seeds, MAX over infinite-variance data must either
    // fall back or (never) show error bars the diagnostic did not accept.
    for seed in [1u64, 2, 3] {
        let s = AqpSession::new(SessionConfig { seed, ..Default::default() });
        s.register_table(facebook_events_table(300_000, 8, seed)).unwrap();
        s.build_samples("events", &[60_000], seed).unwrap();
        let a = s.execute("SELECT MAX(payload_kb) FROM events").unwrap();
        let r = a.scalar().unwrap();
        if let Some(d) = &r.diagnostic {
            assert!(d.accepted || r.ci.is_none(), "seed {seed}: rejected but CI shown");
        }
        if a.fell_back {
            // Fallback must produce the exact maximum.
            let exact_max = s
                .catalog()
                .table("events")
                .unwrap()
                .to_batch()
                .unwrap()
                .column_by_name("payload_kb")
                .unwrap()
                .to_f64_vec()
                .into_iter()
                .fold(f64::NEG_INFINITY, f64::max);
            assert_eq!(r.estimate, exact_max, "seed {seed}");
        }
    }
}

#[test]
fn group_by_partial_fallback_preserves_all_groups() {
    let rows = 200_000;
    let s = sessions_session(rows, 20_000, 5);
    let a = s.execute("SELECT city, AVG(time) FROM sessions GROUP BY city").unwrap();
    // All 16 cities must appear even if the sample missed some (the exact
    // merge is authoritative) — at minimum the big ones.
    assert!(a.groups.len() >= 10, "only {} groups", a.groups.len());
    // Estimates must be near the exact per-group values.
    let exact = AqpSession::new(SessionConfig::default());
    exact.register_table(conviva_sessions_table(rows, 8, 5)).unwrap();
    let e = exact.execute("SELECT city, AVG(time) FROM sessions GROUP BY city").unwrap();
    for (ga, ge) in a.groups.iter().zip(e.groups.iter()) {
        assert_eq!(ga.key, ge.key);
        let rel = (ga.aggs[0].estimate - ge.aggs[0].estimate).abs() / ge.aggs[0].estimate;
        assert!(rel < 0.10, "group {}: {rel}", ga.key);
    }
}

#[test]
fn error_clause_tightening_grows_sample_usage() {
    let s = AqpSession::new(SessionConfig { seed: 11, ..Default::default() });
    s.register_table(conviva_sessions_table(400_000, 8, 11)).unwrap();
    s.build_samples("sessions", &[5_000, 20_000, 100_000], 3).unwrap();
    let loose = s.execute("SELECT AVG(time) FROM sessions WITHIN 25% ERROR").unwrap();
    let tight = s.execute("SELECT AVG(time) FROM sessions WITHIN 0.5% ERROR").unwrap();
    assert!(
        loose.sample_rows <= tight.sample_rows,
        "loose used {} rows, tight used {}",
        loose.sample_rows,
        tight.sample_rows
    );
}

#[test]
fn nested_and_udf_queries_run_through_the_whole_stack() {
    let s = sessions_session(150_000, 30_000, 21);
    for sql in [
        "SELECT AVG(s) FROM (SELECT SUM(bytes) AS s FROM sessions GROUP BY user_id)",
        "SELECT trimmed_mean(time) FROM sessions WHERE is_mobile = true",
        "SELECT geo_mean(bitrate) FROM sessions",
        "SELECT PERCENTILE(time, 90) FROM sessions",
    ] {
        let a = s.execute(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
        let r = a.scalar().unwrap();
        assert!(r.estimate.is_finite(), "{sql} -> {}", r.estimate);
        // Bootstrap is the only applicable technique for these shapes.
        if r.ci.is_some() {
            assert_eq!(r.method, reliable_aqp::exec::result::MethodUsed::Bootstrap, "{sql}");
        }
    }
}

#[test]
fn answer_modes_cover_the_contract() {
    // No samples -> Exact.
    let s = AqpSession::new(SessionConfig::default());
    s.register_table(conviva_sessions_table(20_000, 4, 31)).unwrap();
    assert_eq!(s.execute("SELECT COUNT(*) FROM sessions").unwrap().mode, AnswerMode::Exact);

    // Diagnostics off -> ApproximateUnchecked.
    let s2 = AqpSession::new(SessionConfig { run_diagnostics: false, ..Default::default() });
    s2.register_table(conviva_sessions_table(50_000, 4, 32)).unwrap();
    s2.build_samples("sessions", &[10_000], 1).unwrap();
    assert_eq!(
        s2.execute("SELECT AVG(time) FROM sessions").unwrap().mode,
        AnswerMode::ApproximateUnchecked
    );
}

#[test]
fn csv_ingestion_through_the_full_stack() {
    // CSV → schema inference → table → samples → approximate SQL.
    let mut csv = String::from("region,amount\n");
    let mut expected_sum = 0.0;
    for i in 0..30_000 {
        let region = ["east", "west", "north"][i % 3];
        let amount = (i % 100) as f64 + 0.5;
        if region == "east" {
            expected_sum += amount;
        }
        csv.push_str(&format!("{region},{amount}\n"));
    }
    let table =
        reliable_aqp::storage::read_csv(std::io::Cursor::new(csv), "orders", 4).unwrap();
    let s = AqpSession::new(SessionConfig { seed: 17, ..Default::default() });
    s.register_table(table).unwrap();
    s.build_samples("orders", &[6_000], 18).unwrap();
    let a = s.execute("SELECT SUM(amount) FROM orders WHERE region = 'east'").unwrap();
    let est = a.scalar().unwrap().estimate;
    let rel = (est - expected_sum).abs() / expected_sum;
    assert!(rel < 0.05, "est {est} vs {expected_sum}");
}

#[test]
fn exact_count_is_exact() {
    let s = AqpSession::new(SessionConfig::default());
    s.register_table(conviva_sessions_table(33_333, 4, 41)).unwrap();
    let a = s.execute("SELECT COUNT(*) FROM sessions").unwrap();
    assert_eq!(a.scalar().unwrap().estimate, 33_333.0);
}
