//! The benchmark-trajectory harness: one fixed-seed, scaled-down
//! workload per headline experiment (Fig. 1 sample sizing, Fig. 7 naive
//! latency, Fig. 8 plan-optimization speedups, Fig. 9 optimized+tuned
//! latency, plus the audit-coverage bench and an operator-profile
//! smoke), collected into a single canonical `BENCH_aqp.json`.
//!
//! The file is **bit-stable** for a given seed: every latency comes from
//! the deterministic cluster simulator, every counter from fixed-seed
//! single-threaded execution, and the profile leg runs under a mock
//! clock. Running the binary twice must produce byte-identical output —
//! CI commits a baseline and `cargo xtask bench-compare` flags metric
//! drift beyond a threshold.
//!
//! Flags: `--seed N` (default 1), `--out PATH` (default
//! `BENCH_aqp.json`), `--queries N` (simulated queries per set,
//! default 50).

use aqp_audit::AuditConfig;
use aqp_bench::{percentile, section, Args};
use aqp_cluster::{simulate_query, ClusterConfig, PhysicalTuning, PlanMode};
use aqp_core::{
    required_sample_rows, AqpSession, ContProfConfig, ExplainMode, IntrospectConfig, SessionConfig,
};
use aqp_obs::json::{push_f64, push_str_lit};
use aqp_obs::{Clock, FlightRecorderConfig, ObsHandle};
use aqp_slo::SloConfig;
use aqp_stats::ci::Ci;
use aqp_stats::error_estimator::{ErrorEstimator, EstimationMethod};
use aqp_stats::estimator::{Aggregate, SampleContext};
use aqp_stats::rng::SeedStream;
use aqp_stats::sampling::{gather, with_replacement_indices};
use aqp_workload::statquery::{DataSpec, ThetaKind};
use aqp_workload::{conviva_sessions_table, facebook_events_table, qset1, qset2, Workload};

fn main() {
    let args = Args::parse();
    let seed: u64 = args.get("seed").unwrap_or(1);
    let out: String = args.get("out").unwrap_or_else(|| "BENCH_aqp.json".to_string());
    let n_queries: usize = args.get("queries").unwrap_or(50);

    println!("{}", section("Benchmark trajectory — fixed-seed suite"));
    println!("seed {seed}, {n_queries} simulated queries per set, output {out}");

    let mut metrics: Vec<(String, f64)> = Vec::new();
    let mut put = |name: &str, value: f64| {
        println!("  {name} = {value}");
        metrics.push((name.to_string(), value));
    };

    // --- Fig. 1 leg: rows the closed form demands for an 8% target
    // error, extrapolated from a pilot via the √n law. ---
    let fig1 = fig1_mean_required_rows(8, 60_000, 4_000, seed);
    put("fig1.closed_form.mean_rows_err8", fig1);

    // --- Fig. 7 / 8 / 9 legs: the deterministic cluster simulator. ---
    let cfg = ClusterConfig::default();
    let untuned = PhysicalTuning::untuned(&cfg);
    let tuned = PhysicalTuning::tuned();
    for (set, queries) in [("qset1", qset1(n_queries, seed)), ("qset2", qset2(n_queries, seed))] {
        let mut naive = Vec::new();
        let mut optimized = Vec::new();
        let mut opt_tuned = Vec::new();
        let mut speedups = Vec::new();
        for q in &queries {
            let qseed = seed ^ q.id as u64;
            let n = simulate_query(&q.profile, PlanMode::Naive, &untuned, &cfg, qseed).total();
            let o = simulate_query(&q.profile, PlanMode::Optimized, &untuned, &cfg, qseed).total();
            let t = simulate_query(&q.profile, PlanMode::Optimized, &tuned, &cfg, qseed).total();
            naive.push(n);
            optimized.push(o);
            opt_tuned.push(t);
            if o > 0.0 {
                speedups.push(n / o);
            }
        }
        put(&format!("fig7.{set}.p50_s"), percentile(&naive, 0.5));
        put(&format!("fig7.{set}.p95_s"), percentile(&naive, 0.95));
        put(&format!("fig8.{set}.speedup_p50"), percentile(&speedups, 0.5));
        put(&format!("fig9.{set}.p50_s"), percentile(&opt_tuned, 0.5));
        put(&format!("fig9.{set}.p95_s"), percentile(&opt_tuned, 0.95));
    }

    // --- Audit-coverage leg: a short calibrated trace through a real
    // session with the continuous auditor on (threads: 1 ⇒ the scored
    // counts and coverage are bit-stable). ---
    let (scored, coverage_pct, alerts) = audit_leg(seed, 160);
    put("audit.scored", scored);
    put("audit.coverage_pct", coverage_pct);
    put("audit.alerts", alerts);

    // --- Operator-profile leg: the quickstart-shaped query under a mock
    // clock; counters (not wall times) land in the trajectory. The same
    // session runs with continuous profiling on, so the fleet-cumulative
    // profile's shape (classes × paths) and its peak per-operator byte
    // estimate — the deterministic memory proxy — are stamped too. ---
    let (ops, scan_rows, workers, cp_classes, cp_paths, cp_peak_bytes) = profile_leg(seed);
    put("profile.ops", ops);
    put("profile.scan_rows_out", scan_rows);
    put("profile.workers", workers);
    put("contprof.classes", cp_classes);
    put("contprof.paths", cp_paths);
    put("contprof.peak_op_bytes", cp_peak_bytes);

    // --- SLO leg: the two-phase healthy-then-miscalibrated replay with
    // the fleet SLO engine, drift detectors, and flight recorder on;
    // alert/drift/dump counts and the remaining budget are bit-stable
    // under the mock clock. ---
    let slo = slo_leg(seed);
    put("slo.page_alerts", slo.0);
    put("slo.warn_alerts", slo.1);
    put("slo.drift_signals", slo.2);
    put("slo.recorder_dumps", slo.3);
    put("slo.min_budget_pct", slo.4);

    // --- Introspect leg: a fixed-seed introspected replay under a mock
    // clock; stamps the telemetry volume folded per query as a nominal
    // ingest rate and overhead share (the real-clock <5% bound lives in
    // tests/introspect.rs), so `_telemetry.*` schema growth is drift. ---
    let (ingest_rows_per_s, overhead_pct) = introspect_leg(seed);
    put("introspect.ingest_rows_per_s", ingest_rows_per_s);
    put("introspect.overhead_pct", overhead_pct);

    let json = render_trajectory(seed, &metrics);
    match std::fs::write(&out, &json) {
        Ok(()) => println!("\ntrajectory written to {out} ({} metrics)", metrics.len()),
        Err(e) => {
            eprintln!("failed writing {out}: {e}");
            std::process::exit(1);
        }
    }

    aqp_bench::maybe_write_metrics(&args);
}

/// Mean rows the closed form needs for a `target_pct`% relative error,
/// over a small fixed-seed batch of Conviva-style AVG/SUM queries.
fn fig1_mean_required_rows(target_pct: u32, pop_rows: usize, pilot_rows: usize, seed: u64) -> f64 {
    let target = target_pct as f64 / 100.0;
    let queries: Vec<_> = Workload::Conviva
        .generate_closed_form(24, seed)
        .into_iter()
        .filter(|q| {
            matches!(q.theta, ThetaKind::Builtin(Aggregate::Avg | Aggregate::Sum))
                && matches!(
                    q.data,
                    DataSpec::Bounded { .. } | DataSpec::Normal { .. } | DataSpec::Exponential { .. }
                )
        })
        .take(12)
        .collect();
    let seeds = SeedStream::new(seed ^ 0xF16);
    let mut required = Vec::new();
    for (qi, q) in queries.iter().enumerate() {
        let population = q.population(pop_rows, seeds.seed(qi as u64));
        let owned = q.theta.instantiate();
        let theta = owned.as_theta();
        let ctx = SampleContext::new(pilot_rows, pop_rows);
        let mut srng = seeds.derive(1).rng(qi as u64);
        let idx = with_replacement_indices(&mut srng, pilot_rows, pop_rows);
        let sample = gather(&population, &idx);
        let ci: Option<Ci> = EstimationMethod::ClosedForm.confidence_interval(
            &mut seeds.derive(3).rng(qi as u64),
            &sample,
            &ctx,
            &theta,
            0.95,
        );
        if let Some(ci) = ci {
            if let Some(n) = required_sample_rows(&ci, pilot_rows, target) {
                required.push(n as f64);
            }
        }
    }
    aqp_bench::mean(&required)
}

/// A short audited calibrated trace; returns (scored, coverage %, alerts).
fn audit_leg(seed: u64, queries: usize) -> (f64, f64, f64) {
    let session = AqpSession::new(SessionConfig {
        seed,
        threads: 1,
        bootstrap_k: 40,
        diagnostic_p: 50,
        audit: Some(AuditConfig {
            sample_rate: 0.25,
            seed: seed ^ 0xA0D1,
            window: 100,
            coverage_alert_below: 0.90,
            min_window_for_alert: 30,
            log: None,
            column_families: vec![
                ("time".to_string(), "lognormal".to_string()),
                ("*".to_string(), "count".to_string()),
            ],
        }),
        ..Default::default()
    });
    session.register_table(conviva_sessions_table(30_000, 4, seed)).expect("register");
    session.build_samples("sessions", &[6_000], seed ^ 7).expect("samples");
    for i in 0..queries {
        let sql = match i % 3 {
            0 => "SELECT AVG(time) FROM sessions",
            1 => "SELECT SUM(time) FROM sessions",
            _ => "SELECT COUNT(*) FROM sessions WHERE is_mobile = true",
        };
        session.execute(sql).expect("audited query");
    }
    let report = session.audit_report().expect("auditing is on");
    (
        report.overall.scored as f64,
        report.overall.coverage.unwrap_or(f64::NAN) * 100.0,
        report.alerts.len() as f64,
    )
}

/// The two-phase SLO replay under an isolated mock clock: 60 healthy
/// AVG queries build the fleet baseline, then 30 unchecked bootstrap
/// `MAX(payload_kb)` queries over the Pareto tail collapse coverage.
/// Returns (page alerts, warn alerts, drift signals, recorder dumps,
/// min budget %). The session seed is `seed + 1` so the default
/// trajectory seed lands on the calibrated miscalibrated replay
/// (session seed 2) used by `tests/slo.rs` and the dashboards.
fn slo_leg(seed: u64) -> (f64, f64, f64, f64, f64) {
    let obs = ObsHandle::isolated(Clock::mock());
    let session = AqpSession::new(SessionConfig {
        seed: seed.wrapping_add(1),
        threads: 1,
        bootstrap_k: 40,
        run_diagnostics: false,
        obs: obs.clone(),
        audit: Some(AuditConfig {
            sample_rate: 1.0,
            seed: seed ^ 0x510,
            ..Default::default()
        }),
        slo: Some(
            SloConfig::new()
                .with_class("tail", "MAX(")
                .with_coverage(SloConfig::DEFAULT_CLASS, 0.95)
                .with_coverage("tail", 0.95)
                .with_recorder(FlightRecorderConfig { capacity: 8, path: None }),
        ),
        ..Default::default()
    });
    session.register_table(facebook_events_table(40_000, 8, 2)).expect("register");
    session.build_samples("events", &[8_000], 7).expect("samples");
    for _ in 0..60 {
        session.execute("SELECT AVG(payload_kb) FROM events").expect("healthy query");
    }
    for _ in 0..30 {
        session.execute("SELECT MAX(payload_kb) FROM events").expect("tail query");
    }
    let report = session.slo_report().expect("slo is on");
    let snap = obs.metrics.snapshot();
    let budget = report
        .objectives
        .iter()
        .map(|o| o.budget_remaining)
        .fold(1.0f64, f64::min);
    (
        snap.counter(aqp_obs::name::SLO_PAGE_ALERTS).unwrap_or(0) as f64,
        snap.counter(aqp_obs::name::SLO_WARN_ALERTS).unwrap_or(0) as f64,
        snap.counter(aqp_obs::name::SLO_DRIFT_SIGNALS).unwrap_or(0) as f64,
        snap.counter(aqp_obs::name::OBS_RECORDER_DUMPS).unwrap_or(0) as f64,
        budget * 100.0,
    )
}

/// One quickstart-shaped query under an isolated mock clock with
/// continuous profiling on, plus a GROUP BY query to populate a second
/// workload class; returns (operator count, scan output rows, workers
/// on the deepest operator, contprof classes, contprof paths, peak
/// per-operator byte estimate across cumulative-profile cells).
fn profile_leg(seed: u64) -> (f64, f64, f64, f64, f64, f64) {
    let session = AqpSession::new(SessionConfig {
        seed,
        threads: 2,
        bootstrap_k: 40,
        diagnostic_p: 50,
        obs: ObsHandle::isolated(Clock::mock()),
        explain: ExplainMode::Text,
        contprof: Some(ContProfConfig::new().with_class("dashboards", "GROUP BY")),
        ..Default::default()
    });
    session.register_table(conviva_sessions_table(40_000, 4, seed)).expect("register");
    session.build_samples("sessions", &[8_000], seed ^ 7).expect("samples");
    let answer = session
        .execute("SELECT AVG(time) FROM sessions WHERE city = 'NYC'")
        .expect("profiled query");
    session
        .execute("SELECT city, COUNT(*) FROM sessions GROUP BY city")
        .expect("grouped query");
    let cum = session.cumulative_profile().expect("contprof is on");
    let peak_op_bytes = cum.iter().map(|(_, _, c)| c.bytes).max().unwrap_or(0);
    let Some(profile) = &answer.profile else { return (0.0, 0.0, 0.0, 0.0, 0.0, 0.0) };
    let nodes = profile.nodes();
    let scan_rows = nodes
        .iter()
        .find(|n| n.name == "Scan")
        .map(|n| n.rows_out as f64)
        .unwrap_or(0.0);
    let workers = nodes.iter().map(|n| n.workers.len()).max().unwrap_or(0);
    (
        nodes.len() as f64,
        scan_rows,
        workers as f64,
        cum.classes() as f64,
        cum.paths() as f64,
        peak_op_bytes as f64,
    )
}

/// The introspect leg: 45 mixed queries with the self-hosted telemetry
/// pipeline on, closed by one introspection query that forces a catalog
/// sync. The mock clock keeps every counter bit-stable; wall-clock
/// overhead is enforced on a real clock by `tests/introspect.rs`. The
/// stamped figures model the *volume* side of that bound: telemetry
/// rows folded per query converted to an ingest rate and an overhead
/// share at a nominal 100 queries/s fleet and 500 ns per folded row, so
/// a schema or fold-path change that inflates per-query telemetry moves
/// both numbers. Returns (ingest rows/s, overhead %).
fn introspect_leg(seed: u64) -> (f64, f64) {
    const NOMINAL_QUERIES_PER_S: f64 = 100.0;
    const NOMINAL_FOLD_NS_PER_ROW: f64 = 500.0;
    let obs = ObsHandle::isolated(Clock::mock());
    let session = AqpSession::new(SessionConfig {
        seed,
        threads: 1,
        bootstrap_k: 40,
        diagnostic_p: 50,
        obs: obs.clone(),
        introspect: Some(IntrospectConfig::new().with_class("dashboards", "GROUP BY")),
        ..Default::default()
    });
    session.register_table(conviva_sessions_table(30_000, 4, seed)).expect("register");
    session.build_samples("sessions", &[6_000], seed ^ 7).expect("samples");
    for i in 0..45 {
        let sql = match i % 3 {
            0 => "SELECT AVG(time) FROM sessions",
            1 => "SELECT SUM(time) FROM sessions",
            _ => "SELECT city, COUNT(*) FROM sessions GROUP BY city",
        };
        session.execute(sql).expect("introspected query");
    }
    session.execute("SELECT COUNT(*) FROM _telemetry.spans").expect("introspection query");
    let snap = obs.metrics.snapshot();
    let rows = snap.counter(aqp_obs::name::INTROSPECT_ROWS_INGESTED).unwrap_or(0) as f64;
    let folded = snap.counter(aqp_obs::name::INTROSPECT_QUERIES_FOLDED).unwrap_or(0).max(1) as f64;
    let rows_per_query = rows / folded;
    let ingest_rows_per_s = rows_per_query * NOMINAL_QUERIES_PER_S;
    let nominal_query_ns = 1e9 / NOMINAL_QUERIES_PER_S;
    let overhead_pct = rows_per_query * NOMINAL_FOLD_NS_PER_ROW / nominal_query_ns * 100.0;
    (ingest_rows_per_s, overhead_pct)
}

/// Render the canonical trajectory document: schema tag, seed, and the
/// metrics sorted by name — one stable JSON object, trailing newline.
fn render_trajectory(seed: u64, metrics: &[(String, f64)]) -> String {
    let mut sorted: Vec<&(String, f64)> = metrics.iter().collect();
    sorted.sort_by(|a, b| a.0.cmp(&b.0));
    let mut out = String::new();
    out.push_str("{\n  \"schema\": \"aqp-bench-trajectory/v1\",\n  \"seed\": ");
    out.push_str(&seed.to_string());
    out.push_str(",\n  \"metrics\": {\n");
    for (i, (name, value)) in sorted.iter().enumerate() {
        out.push_str("    ");
        push_str_lit(&mut out, name);
        out.push_str(": ");
        push_f64(&mut out, *value);
        if i + 1 < sorted.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("  }\n}\n");
    out
}
