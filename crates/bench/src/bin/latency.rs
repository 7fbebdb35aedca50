//! The paper's simulated latency figures (§5–§7) on the 100-node cluster
//! model of `aqp-cluster`: each QSet query's latency split into query
//! execution, error estimation and diagnostics, under the naive (§5.2) or
//! optimized (§5.3) plan and untuned or tuned (§6) physical settings.
//!
//! `latency [fig7|fig8|fig9] [--queries N] [--seed S] [--metrics P]`
//! prints the named section, or all three in that order when none is
//! named:
//!
//! * `fig7` — Fig. 7(a)/(b), the naive plan, untuned. Paper's shape:
//!   QSet-1 (closed forms) lands in the tens of seconds, dominated by the
//!   diagnostics overhead; QSet-2 (bootstrap-only) in the hundreds of
//!   seconds, with both error estimation (100 full-sample subqueries) and
//!   diagnostics (30,000 subqueries) huge.
//! * `fig8` — the optimization study:
//!   - (a)/(b) CDFs of the speedup from the §5.3 plan optimizations (scan
//!     consolidation + operator pushdown) for error estimation and
//!     diagnostics, per QSet. Paper bands: QSet-1 error 1–2×,
//!     diagnostics 5–20×; QSet-2 error 20–60×, diagnostics 20–100×.
//!   - (c) latency of (bootstrap error estimation + diagnostics) vs the
//!     degree of parallelism — most efficient around 20 machines.
//!   - (d) end-to-end latency vs the fraction of samples cached — best at
//!     30–40%.
//!   - (e)/(f) CDFs of the further speedup from physical tuning
//!     (parallelism bound, cache fraction, straggler clones) over the
//!     §5.3-optimized plan, and the straggler-mitigation ablation.
//! * `fig9` — Fig. 9(a)/(b), the optimized plan, tuned (20 machines, 35%
//!   cache, straggler mitigation). Paper's shape: end-to-end responses of
//!   a couple of seconds for both QSets — interactive speed — with error
//!   estimation and diagnostics reduced to sub-second overheads. Asserts
//!   a mean below 15 s per QSet.
//!
//! Every figure reads [`simulate`]: query i of a list runs on the stream
//! `seed ^ i`, which for a whole QSet is the query's id.

use aqp_bench::{bar, cdf_rows, mean, percentile, section, tsv_row, Args};
use aqp_cluster::{simulate_query, ClusterConfig, PhysicalTuning, PlanMode, QueryProfile};
use aqp_cluster::{PlanMode::Naive, PlanMode::Optimized, SimTimings};
use aqp_workload::{qset1, qset2, TraceQuery};

/// The two QSets and the error estimation their queries admit.
const QSETS: [(&str, &str); 2] = [("QSet-1", "closed-form"), ("QSet-2", "bootstrap-only")];

fn main() {
    let args = Args::parse();
    let flags: &[&str] = &["queries", "seed"];
    let wants = args.sections("latency", &[("fig7", flags), ("fig8", flags), ("fig9", flags)]);
    let [n_queries] = args.counts([("queries", 100)]);
    let seed: u64 = args.get("seed").unwrap_or(1);
    let qsets = [qset1(n_queries, seed), qset2(n_queries, seed)];
    let untuned = PhysicalTuning::untuned(&ClusterConfig::default());
    if wants("fig7") {
        decomposition(7, &qsets, Naive, untuned, seed);
    }
    if wants("fig8") {
        fig8(&qsets, untuned, seed);
    }
    if wants("fig9") {
        decomposition(9, &qsets, Optimized, PhysicalTuning::tuned(), seed);
    }
    aqp_bench::maybe_write_metrics(&args);
}

/// Each query's simulated timings under `plan` and `tuning`; query i of
/// `queries` runs on the stream `seed ^ i`.
fn simulate<'a>(
    queries: impl IntoIterator<Item = &'a TraceQuery>,
    plan: PlanMode,
    tuning: &PhysicalTuning,
    seed: u64,
) -> Vec<SimTimings> {
    let cfg = ClusterConfig::default();
    let sim = |(i, q): (usize, &TraceQuery)| {
        simulate_query(&q.profile, plan, tuning, &cfg, seed ^ i as u64)
    };
    queries.into_iter().enumerate().map(sim).collect()
}

/// Fig. 7 (naive, untuned) or Fig. 9 (optimized, tuned): per QSet a TSV
/// row per query, the mean / median / p99 total, the phase means and bars
/// of the first 20 totals — log-scaled at 2 decimals for Fig. 7's
/// minutes, linear at 3 for Fig. 9's seconds.
fn decomposition(
    fig: u8,
    qsets: &[Vec<TraceQuery>; 2],
    plan: PlanMode,
    tuning: PhysicalTuning,
    seed: u64,
) {
    let log = fig == 7;
    let (digits, setting) = if log { (2, "naive plan") } else { (3, "optimized + tuned") };
    let p = digits - 1;
    let scales = ["tens of seconds", "hundreds of seconds"];
    let panels = qsets.iter().zip(QSETS).zip(["a", "b"]).zip(scales);
    for (((queries, (set, kind)), panel), scale) in panels {
        let title = format!("Fig. {fig}({panel}) — {set} ({kind} queries), {setting}");
        println!("{}", section(&title));
        if log {
            println!("paper scale: {scale}; bars below are log-scaled");
        }
        println!("TSV: query_id\tquery_s\terror_s\tdiag_s\ttotal_s");
        let timings = simulate(queries, plan, &tuning, seed);
        for (q, t) in queries.iter().zip(&timings) {
            let cells = [t.query_s, t.error_s, t.diag_s, t.total()];
            println!("{}\t{}", q.id, tsv_row(&cells.map(|s| format!("{s:.digits$}"))));
        }
        let totals: Vec<f64> = timings.iter().map(SimTimings::total).collect();
        println!(
            "\nsummary: total mean {:.p$}s  median {:.p$}s  p99 {:.p$}s{}",
            mean(&totals),
            percentile(&totals, 0.5),
            percentile(&totals, 0.99),
            if log { "" } else { "  (paper: a couple of seconds)" }
        );
        let phase = |f: fn(&SimTimings) -> f64| mean(&timings.iter().map(f).collect::<Vec<_>>());
        println!(
            "phase means: query {:.2}s, error estimation {:.2}s, diagnostics {:.2}s",
            phase(|t| t.query_s),
            phase(|t| t.error_s),
            phase(|t| t.diag_s)
        );
        let scaled = |t: f64| if log { t.log10().max(0.0) } else { t };
        let max = totals.iter().map(|&t| scaled(t)).fold(f64::MIN, f64::max);
        let (name, width) = if log { ("log", 8) } else { ("linear", 6) };
        println!("\nfirst 20 queries ({name}-scale total time):");
        for (q, &t) in queries.iter().zip(&totals).take(20) {
            println!("  q{:<3} {t:>width$.p$}s |{}|", q.id, bar(scaled(t), max, 40));
        }
        if fig == 9 {
            assert!(
                mean(&totals) < 15.0,
                "optimized+tuned should be interactive; got mean {:.1}s",
                mean(&totals)
            );
        }
    }
}

fn fig8(qsets: &[Vec<TraceQuery>; 2], untuned: PhysicalTuning, seed: u64) {
    let bands = [["1-2x", "5-20x"], ["20-60x", "20-100x"]];
    for (((queries, (set, _)), panel), [err_band, diag_band]) in
        qsets.iter().zip(QSETS).zip(["a", "b"]).zip(bands)
    {
        println!("{}", section(&format!("Fig. 8({panel}) — plan-optimization speedups, {set}")));
        let naive = simulate(queries, Naive, &untuned, seed);
        let optimized = simulate(queries, Optimized, &untuned, seed);
        let speedups = |f: fn(&SimTimings) -> f64| -> Vec<f64> {
            let pairs = naive.iter().zip(&optimized).filter(|(_, o)| f(o) > 0.0);
            pairs.map(|(n, o)| f(n) / f(o)).collect()
        };
        print_cdf(&format!("error estimation (paper: {err_band})"), &speedups(|t| t.error_s));
        print_cdf(&format!("diagnostics (paper: {diag_band})"), &speedups(|t| t.diag_s));
    }

    let n_queries = qsets[1].len();
    let at = |parallelism, cache_fraction| PhysicalTuning {
        parallelism,
        cache_fraction,
        straggler_mitigation: false,
    };
    let title = "Fig. 8(c) — bootstrap error estimation + diagnostics latency vs #machines";
    println!("{}", section(title));
    println!("TSV: machines\tmean_latency_s\tq01\tq99");
    let machines = [1usize, 2, 5, 10, 20, 30, 40, 60, 80, 100];
    let rows = machines.map(|m| {
        let timings = simulate(&qsets[1][..n_queries.min(50)], Optimized, &at(m, 0.35), seed);
        let lats: Vec<f64> = timings.iter().map(|t| t.error_s + t.diag_s).collect();
        (m.to_string(), vec![mean(&lats), percentile(&lats, 0.01), percentile(&lats, 0.99)])
    });
    println!(
        "\nsweet spot: {} machines (paper: \"most efficient when executed on up to 20 machines\")",
        machines[sweep(&rows)]
    );

    println!("{}", section("Fig. 8(d) — end-to-end latency vs fraction of samples cached"));
    println!("TSV: cache_fraction\tmean_total_s");
    let half = n_queries / 2;
    let mix = qsets[0][..half].iter().chain(&qsets[1][..half]);
    let fractions: [f64; 11] = std::array::from_fn(|step| step as f64 / 10.0);
    let rows = fractions.map(|frac| {
        let timings = simulate(mix.clone(), Optimized, &at(20, frac), seed);
        let totals: Vec<f64> = timings.iter().map(SimTimings::total).collect();
        (format!("{frac:.1}"), vec![mean(&totals)])
    });
    println!(
        "\noptimum: {:.0}% cached (paper: best at 30-40%, ~180-240 GB of RAM)",
        fractions[sweep(&rows)] * 100.0
    );

    let tuned = PhysicalTuning::tuned();
    for ((queries, (set, _)), panel) in qsets.iter().zip(QSETS).zip(["e", "f"]) {
        println!("{}", section(&format!("Fig. 8({panel}) — physical-tuning speedups, {set}")));
        let base = simulate(queries, Optimized, &untuned, seed);
        let fast = simulate(queries, Optimized, &tuned, seed);
        let speedups: Vec<f64> =
            base.iter().zip(&fast).map(|(b, f)| b.total() / f.total()).collect();
        print_cdf(&format!("{set} end-to-end (tuned vs untuned optimized plan)"), &speedups);

        // Straggler-mitigation ablation (§7.3: "speeds up queries by
        // hundreds of milliseconds"): `tuned` clones stragglers.
        let unmitigated = PhysicalTuning { straggler_mitigation: false, ..tuned };
        let slow = simulate(queries, Optimized, &unmitigated, seed);
        let deltas: Vec<f64> =
            slow.iter().zip(&fast).map(|(a, b)| (a.total() - b.total()) * 1000.0).collect();
        println!(
            "  straggler-mitigation ablation: mean saving {:.0} ms/query (paper: hundreds of ms)",
            mean(&deltas)
        );
    }

    // A tiny self-check so CI catches calibration drift.
    let cfg = ClusterConfig::default();
    let p1 = QueryProfile::qset1_default();
    let p2 = QueryProfile::qset2_default();
    let n1 = simulate_query(&p1, Naive, &untuned, &cfg, 7);
    let o1 = simulate_query(&p1, Optimized, &untuned, &cfg, 7);
    let n2 = simulate_query(&p2, Naive, &untuned, &cfg, 7);
    let o2 = simulate_query(&p2, Optimized, &untuned, &cfg, 7);
    assert!(n1.diag_s / o1.diag_s > 3.0, "QSet-1 diag speedup degenerated");
    assert!(n2.error_s / o2.error_s > 10.0, "QSet-2 error speedup degenerated");
}

/// One `label\tmean[\tmore]\t|bar|` row per sweep point, each cell at 2
/// decimals and the bars scaled to the largest mean; returns the index of
/// the smallest mean (the first of equals).
fn sweep(rows: &[(String, Vec<f64>)]) -> usize {
    let max = rows.iter().map(|r| r.1[0]).fold(f64::MIN, f64::max);
    for (label, values) in rows {
        let cells: Vec<String> = std::iter::once(label.clone())
            .chain(values.iter().map(|v| format!("{v:.2}")))
            .collect();
        println!("{}\t|{}|", tsv_row(&cells), bar(values[0], max, 30));
    }
    (0..rows.len()).fold(0, |best, i| if rows[i].1[0] < rows[best].1[0] { i } else { best })
}

fn print_cdf(label: &str, speedups: &[f64]) {
    println!("\n{label} speedup CDF (TSV: speedup\tfraction<=):");
    for (v, f) in cdf_rows(speedups, 10) {
        println!("{}", tsv_row(&[format!("{v:.1}"), format!("{f:.1}")]));
    }
    println!(
        "  range {:.1}x – {:.1}x, mean {:.1}x",
        speedups.iter().copied().fold(f64::MAX, f64::min),
        speedups.iter().copied().fold(f64::MIN, f64::max),
        mean(speedups)
    );
}
