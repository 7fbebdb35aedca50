//! The benchmark-trajectory harness: one fixed-seed, scaled-down
//! workload per headline experiment (Fig. 1 sample sizing, Fig. 7 naive
//! latency, Fig. 8 plan-optimization speedups, Fig. 9 optimized+tuned
//! latency), collected into a single canonical `BENCH_aqp.json`. What
//! the observers count on a fixed workload is pinned byte for byte by
//! `tests/golden/observers_transcript.txt` instead.
//!
//! The file is **bit-stable** for a given seed: every latency comes from
//! the deterministic cluster simulator and the Fig. 1 rows from
//! fixed-seed sampling. Running the binary twice must produce
//! byte-identical output — CI commits a baseline and `cargo xtask
//! bench-compare` flags metric drift beyond a threshold.
//!
//! Flags: `--seed N` (default 1), `--out PATH` (default
//! `BENCH_aqp.json`), `--queries N` (simulated queries per set,
//! default 50).

use aqp_bench::{percentile, section, Args};
use aqp_cluster::{simulate_query, ClusterConfig, PhysicalTuning, PlanMode};
use aqp_core::required_sample_rows;
use aqp_obs::json::{push_f64, push_str_lit};
use aqp_stats::ci::Ci;
use aqp_stats::error_estimator::{ErrorEstimator, EstimationMethod};
use aqp_stats::estimator::{Aggregate, SampleContext};
use aqp_stats::rng::SeedStream;
use aqp_stats::sampling::{gather, with_replacement_indices};
use aqp_workload::statquery::{DataSpec, ThetaKind};
use aqp_workload::{qset1, qset2, Workload};

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
        let mut opt_tuned = Vec::new();
        let mut speedups = Vec::new();
        for q in &queries {
            let qseed = seed ^ q.id as u64;
            let n = simulate_query(&q.profile, PlanMode::Naive, &untuned, &cfg, qseed).total();
            let o = simulate_query(&q.profile, PlanMode::Optimized, &untuned, &cfg, qseed).total();
            let t = simulate_query(&q.profile, PlanMode::Optimized, &tuned, &cfg, qseed).total();
            naive.push(n);
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
