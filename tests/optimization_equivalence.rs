//! The §5.3 optimizations must not change answers — only cost.
//!
//! These tests pin the semantic-equivalence claims: the naive §5.2
//! executor and the consolidated single-scan executor produce the same
//! point estimates and statistically equivalent intervals and verdicts;
//! the rewriter's operator placement does not affect collected data.

use aqp_diagnostics::DiagnosticConfig;
use aqp_exec::baseline::execute_baseline;
use aqp_exec::engine::{execute_approx, ApproxOptions, MethodChoice};
use aqp_exec::udf::UdfRegistry;
use aqp_sql::logical::ResampleSpec;
use aqp_sql::rewriter::{insert_above_scan, insert_pushed_down};
use aqp_sql::{parse_query, plan_query};
use aqp_storage::Table;
use reliable_aqp::workload::conviva_sessions_table;

/// Held by every test here that draws bootstrap resamples: they share the
/// process-wide `aqp.stats.bootstrap_resamples`, and the weighted-UDF
/// differential asserts exact deltas of it.
static RESAMPLE_COUNTER: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn setup(rows: usize, n: usize, seed: u64) -> (Table, Table) {
    use aqp_stats::rng::rng_from_seed;
    use aqp_stats::sampling::without_replacement_indices;
    let pop = conviva_sessions_table(rows, 8, seed);
    let mut rng = rng_from_seed(seed ^ 0x5A);
    let idx = without_replacement_indices(&mut rng, n, rows);
    let sbatch = pop.gather(&idx).unwrap();
    let sample = Table::from_batch("sessions", sbatch, 8).unwrap();
    (pop, sample)
}

#[test]
fn baseline_and_optimized_executors_agree() {
    let _counter = RESAMPLE_COUNTER.lock().unwrap_or_else(|p| p.into_inner());
    let (pop, sample) = setup(60_000, 12_000, 1);
    let registry = UdfRegistry::default();
    for sql in [
        "SELECT AVG(time) FROM sessions WHERE city = 'NYC'",
        "SELECT SUM(bytes) FROM sessions",
        "SELECT MAX(time) FROM sessions WHERE is_mobile = true",
    ] {
        let q = parse_query(sql).unwrap();
        let plan = plan_query(&q, pop.schema()).unwrap();
        let opts = ApproxOptions {
            seed: 3,
            method: MethodChoice::Auto,
            bootstrap_k: 60,
            threads: 2,
            diagnostic: Some(DiagnosticConfig::scaled_to(12_000, 20)),
            ..Default::default()
        };
        let fast = execute_approx(&plan, &sample, pop.num_rows(), &registry, &opts).unwrap();
        let slow = execute_baseline(&plan, &sample, pop.num_rows(), &registry, &opts).unwrap();
        // Identical point estimates (same scan, same data).
        let (f, s) = (fast.scalar().unwrap(), slow.scalar().unwrap());
        assert_eq!(f.estimate, s.estimate, "{sql}");
        // Interval widths agree statistically (different RNG streams).
        // MAX is excluded: its bootstrap width is wildly unstable across
        // resampling streams — exactly the instability the diagnostic
        // exists to flag (both sides still agree on the verdict below).
        if !sql.contains("MAX") {
            if let (Some(fc), Some(sc)) = (&f.ci, &s.ci) {
                let rel = (fc.half_width - sc.half_width).abs() / sc.half_width.max(1e-12);
                assert!(rel < 0.6, "{sql}: hw {} vs {}", fc.half_width, sc.half_width);
            }
        }
        // Same diagnostic verdict.
        let (fd, sd) = (f.diagnostic.as_ref().unwrap(), s.diagnostic.as_ref().unwrap());
        assert_eq!(fd.accepted, sd.accepted, "{sql}");
    }
}

#[test]
fn resample_placement_does_not_change_collected_data() {
    let (pop, sample) = setup(30_000, 6_000, 2);
    for sql in [
        "SELECT AVG(time) FROM sessions WHERE city = 'LA'",
        "SELECT COUNT(*) FROM sessions WHERE time > 50",
    ] {
        let q = parse_query(sql).unwrap();
        let plan = plan_query(&q, pop.schema()).unwrap();
        let spec = ResampleSpec::bootstrap(50, 7);
        let naive_plan = insert_above_scan(plan.clone(), &spec);
        let pushed_plan = insert_pushed_down(plan.clone(), &spec);
        let a = aqp_exec::collect::collect(&plan, &sample, 2).unwrap();
        let b = aqp_exec::collect::collect(&naive_plan, &sample, 2).unwrap();
        let c = aqp_exec::collect::collect(&pushed_plan, &sample, 2).unwrap();
        assert_eq!(a.groups[0].aggs[0].values, b.groups[0].aggs[0].values, "{sql}");
        assert_eq!(a.groups[0].aggs[0].values, c.groups[0].aggs[0].values, "{sql}");
        assert_eq!(a.pre_filter_rows, c.pre_filter_rows);
    }
}

#[test]
fn bootstrap_interval_statistically_consistent_across_seeds() {
    // The optimized executor's bootstrap interval should fluctuate around
    // the same value across RNG seeds (no seed-dependent bias).
    let _counter = RESAMPLE_COUNTER.lock().unwrap_or_else(|p| p.into_inner());
    let (pop, sample) = setup(80_000, 16_000, 3);
    let registry = UdfRegistry::default();
    let q = parse_query("SELECT PERCENTILE(time, 50) FROM sessions").unwrap();
    let plan = plan_query(&q, pop.schema()).unwrap();
    let mut widths = Vec::new();
    for seed in 0..6 {
        let opts = ApproxOptions {
            seed,
            method: MethodChoice::Bootstrap,
            bootstrap_k: 150,
            threads: 2,
            ..Default::default()
        };
        let r = execute_approx(&plan, &sample, pop.num_rows(), &registry, &opts).unwrap();
        widths.push(r.scalar().unwrap().ci.unwrap().half_width);
    }
    let mean = widths.iter().sum::<f64>() / widths.len() as f64;
    for w in &widths {
        assert!((w - mean).abs() / mean < 0.5, "width {w} vs mean {mean}: {widths:?}");
    }
}

/// A UDF's weighted form changes what a resample costs and the last bits
/// of the bars, nothing else: the same queries through two sessions — the
/// stock library, and the same five functions registered as bare closures
/// (which the engine can only expand) — give equal modes, verdicts and
/// `Decision`s, bit-equal estimates, half-widths within 1e-9, and draw
/// exactly as many resamples, on every seed, diagnostics on.
#[test]
fn weighted_udfs_answer_as_their_expansions_do() {
    use aqp_stats::estimator::{udfs, QueryEstimator, SampleContext, Udf};
    use reliable_aqp::{AqpSession, SessionConfig};
    let _counter = RESAMPLE_COUNTER.lock().unwrap_or_else(|p| p.into_inner());
    let resamples = || {
        let registry = reliable_aqp::obs::MetricsRegistry::global();
        registry.counter(reliable_aqp::obs::name::STATS_BOOTSTRAP_RESAMPLES).get()
    };
    const QUERIES: [&str; 7] = [
        "SELECT trimmed_mean(time) FROM sessions",
        "SELECT geo_mean(time) FROM sessions WHERE bitrate > 2000",
        "SELECT cov(bitrate) FROM sessions",
        "SELECT top_decile_mean(time) FROM sessions GROUP BY site",
        "SELECT frac_above_60(time) FROM sessions WHERE is_mobile = true",
        "SELECT cov(bitrate), top_decile_mean(time) FROM sessions WHERE city = 'NYC'",
        "SELECT trimmed_mean(bytes) FROM sessions WHERE time > 400",
    ];
    let stock = UdfRegistry::default();
    let library: Vec<(String, Udf)> = (stock.names().into_iter())
        .map(|name| (name.clone(), (*stock.resolve(&name).unwrap()).clone()))
        .chain([("frac_above_60".to_string(), udfs::frac_above(60.0))])
        .collect();
    assert_eq!(library.len(), 5);
    let (mut approximate, mut with_bars) = (0, 0);
    for seed in 1..=20u64 {
        let session = |opaque: bool| {
            let s = AqpSession::new(SessionConfig { seed, threads: 2, ..Default::default() });
            s.register_table(conviva_sessions_table(30_000, 4, seed)).unwrap();
            s.build_samples("sessions", &[6_000], seed).unwrap();
            for (name, udf) in library.clone() {
                assert!(udf.has_weighted_form(), "{name}");
                let everything = SampleContext::population(0);
                let f = udf.clone();
                let bare = Udf::new(name.clone(), move |xs| f.estimate(xs, &everything));
                s.register_udf(&name, if opaque { bare } else { udf });
            }
            s
        };
        let (weighted, expanding) = (session(false), session(true));
        for sql in QUERIES {
            let before = resamples();
            let got = weighted.execute(sql).unwrap();
            let drawn = resamples() - before;
            let want = expanding.execute(sql).unwrap();
            assert_eq!(resamples() - before - drawn, drawn, "seed {seed}: resamples of {sql}");
            assert_eq!(got.mode, want.mode, "seed {seed}: {sql}");
            assert_eq!(got.groups.len(), want.groups.len(), "seed {seed}: {sql}");
            approximate += usize::from(!got.fell_back);
            for (g, w) in got.groups.iter().zip(&want.groups) {
                assert_eq!(g.key, w.key);
                for (g, w) in g.aggs.iter().zip(&w.aggs) {
                    let at = format!("seed {seed}: {sql} [{}]", g.name);
                    assert_eq!(g.estimate.to_bits(), w.estimate.to_bits(), "{at}");
                    assert_eq!(g.method, w.method, "{at}");
                    let verdict = |r: &aqp_exec::result::AggResult| {
                        r.diagnostic.as_ref().map(|d| (d.accepted, d.decision.clone()))
                    };
                    assert_eq!(verdict(g), verdict(w), "{at}");
                    assert_eq!(g.ci.is_some(), w.ci.is_some(), "{at}");
                    if let (Some(g), Some(w)) = (g.ci, w.ci) {
                        assert_eq!(g.center.to_bits(), w.center.to_bits(), "{at}");
                        assert_eq!(g.confidence.to_bits(), w.confidence.to_bits(), "{at}");
                        let apart = (g.half_width - w.half_width).abs();
                        assert!(apart <= 1e-9 * w.half_width.abs(), "{at}: ±{} vs ±{}", g.half_width, w.half_width);
                        with_bars += 1;
                    }
                }
            }
        }
    }
    // The comparison is of approximate answers with bars, not of fallbacks.
    assert!(approximate >= 40 && with_bars >= 40, "{approximate} approximate, {with_bars} with bars");
}

// `weighted_aggregation_matches_physical_duplication_through_the_engine`
// migrated to the conformance corpus: count_star_pinned_clean.case pins
// the unfiltered COUNT(*) at exactly the population size with a ~zero
// half-width, and count_filtered_city_audit.case pins the binomial
// half-width of a filtered COUNT — both as exact bit patterns.
