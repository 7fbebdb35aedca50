//! Property-based tests (proptest) on the core statistical and query
//! invariants.

use proptest::prelude::*;

use reliable_aqp::sql::parse_query;
use reliable_aqp::stats::ci::{ci_from_draws, symmetric_half_width};
use reliable_aqp::stats::estimator::{Aggregate, QueryEstimator, SampleContext, Udf};
use reliable_aqp::stats::moments::{Moments, WeightedMoments};
use reliable_aqp::stats::quantile::{quantile, weighted_quantile};
use reliable_aqp::stats::resample::{poisson_weights, resample_size};
use reliable_aqp::stats::rng::rng_from_seed;

fn finite_vec(max_len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1.0e6..1.0e6f64, 1..max_len)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// The symmetric interval covers at least α of the draws, and its
    /// half-width is the smallest such value (shrinking it by ε loses
    /// coverage).
    #[test]
    fn symmetric_interval_is_minimal_cover(
        draws in finite_vec(200),
        center in -100.0..100.0f64,
        alpha in 0.05..0.999f64,
    ) {
        let hw = symmetric_half_width(center, &draws, alpha);
        let covered = draws.iter().filter(|&&d| (d - center).abs() <= hw).count();
        prop_assert!(covered as f64 >= alpha * draws.len() as f64 - 1e-9);
        if hw > 0.0 {
            let shrunk = hw * (1.0 - 1e-9) - 1e-12;
            let covered_shrunk =
                draws.iter().filter(|&&d| (d - center).abs() <= shrunk).count();
            prop_assert!((covered_shrunk as f64) < alpha.mul_add(draws.len() as f64, 1.0));
        }
    }

    /// Interval half-width is monotone in α.
    #[test]
    fn interval_monotone_in_alpha(draws in finite_vec(100), center in -10.0..10.0f64) {
        let lo = ci_from_draws(center, &draws, 0.5).half_width;
        let mid = ci_from_draws(center, &draws, 0.9).half_width;
        let hi = ci_from_draws(center, &draws, 0.99).half_width;
        prop_assert!(lo <= mid && mid <= hi);
    }

    /// Weighted evaluation of every aggregate equals evaluation on the
    /// physically expanded multiset.
    #[test]
    fn weighted_aggregates_equal_expansion(
        pairs in prop::collection::vec((-1.0e4..1.0e4f64, 0u32..4), 1..60),
    ) {
        let values: Vec<f64> = pairs.iter().map(|(v, _)| *v).collect();
        let weights: Vec<u32> = pairs.iter().map(|(_, w)| *w).collect();
        let expanded = Udf::expand(&values, &weights);
        let ctx = SampleContext::new(values.len(), values.len() * 10);
        // SUM/COUNT are excluded: their Poissonized evaluation uses the
        // size-centered statistic (see aqp_stats::estimator), which is
        // deliberately NOT the naive expansion.
        for agg in [
            Aggregate::Avg,
            Aggregate::Variance,
            Aggregate::Min,
            Aggregate::Max,
        ] {
            let w = agg.estimate_weighted(&values, &weights, &ctx);
            let e = agg.estimate(&expanded, &ctx);
            // `w == e` covers the equal-infinities case (MIN/MAX of an
            // empty resample).
            prop_assert!(
                w == e
                    || (w - e).abs() <= 1e-6 * e.abs().max(1.0)
                    || (w.is_nan() && e.is_nan()),
                "{agg}: weighted {w} vs expanded {e}"
            );
        }
    }

    /// Size-centered SUM is unbiased over resamples and exact at unit
    /// weights.
    #[test]
    fn centered_sum_unbiased(xs in finite_vec(60), pop_mult in 2usize..20) {
        let n = xs.len();
        let ctx = SampleContext::new(n, n * pop_mult);
        let unit = vec![1u32; n];
        let at_unit = Aggregate::Sum.estimate_weighted(&xs, &unit, &ctx);
        let point = Aggregate::Sum.estimate(&xs, &ctx);
        prop_assert!((at_unit - point).abs() <= 1e-9 * point.abs().max(1.0));
        // Monte-Carlo mean over resamples tracks the point estimate.
        let mut rng = rng_from_seed(7);
        let mut acc = 0.0;
        let reps = 200;
        for _ in 0..reps {
            let w = poisson_weights(&mut rng, n);
            acc += Aggregate::Sum.estimate_weighted(&xs, &w, &ctx);
        }
        let mc_mean = acc / reps as f64;
        let spread = xs.iter().map(|x| x.abs()).sum::<f64>().max(1.0) * ctx.scale();
        prop_assert!((mc_mean - point).abs() <= 0.35 * spread,
            "mc {mc_mean} vs point {point}");
    }

    /// Weighted quantiles equal quantiles of the expansion (nearest-rank).
    #[test]
    fn weighted_quantile_equals_expansion(
        pairs in prop::collection::vec((-1.0e3..1.0e3f64, 0u32..4), 1..50),
        q in 0.0..1.0f64,
    ) {
        let values: Vec<f64> = pairs.iter().map(|(v, _)| *v).collect();
        let weights: Vec<u32> = pairs.iter().map(|(_, w)| *w).collect();
        let expanded = Udf::expand(&values, &weights);
        let wq = weighted_quantile(&values, &weights, q);
        if expanded.is_empty() {
            prop_assert!(wq.is_none());
        } else {
            // Nearest-rank on the expansion.
            let mut sorted = expanded.clone();
            sorted.sort_by(f64::total_cmp);
            let target = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            prop_assert_eq!(wq.unwrap(), sorted[target - 1]);
        }
    }

    /// Weighted moments with unit weights equal plain moments.
    #[test]
    fn unit_weights_are_identity(xs in finite_vec(80)) {
        let mut w = WeightedMoments::new();
        for &x in &xs {
            w.push(x, 1);
        }
        let m = Moments::from_slice(&xs);
        prop_assert_eq!(w.weight(), m.count());
        prop_assert!((w.mean() - m.mean()).abs() <= 1e-9 * m.mean().abs().max(1.0));
    }

    /// Poissonized resample sizes concentrate around n.
    #[test]
    fn poissonized_size_concentration(seed in 0u64..1000, n in 1_000usize..20_000) {
        let mut rng = rng_from_seed(seed);
        let w = poisson_weights(&mut rng, n);
        let size = resample_size(&w) as f64;
        // 6σ band: |size − n| < 6√n.
        prop_assert!((size - n as f64).abs() < 6.0 * (n as f64).sqrt(),
            "size {size} vs n {n}");
    }

    /// SUM and COUNT estimates scale linearly with the population size.
    #[test]
    fn sum_count_scaling_linearity(xs in finite_vec(60), factor in 2usize..10) {
        let n = xs.len();
        let ctx1 = SampleContext::new(n, n * 10);
        let ctx2 = SampleContext::new(n, n * 10 * factor);
        let s1 = Aggregate::Sum.estimate(&xs, &ctx1);
        let s2 = Aggregate::Sum.estimate(&xs, &ctx2);
        prop_assert!((s2 - s1 * factor as f64).abs() <= 1e-6 * s1.abs().max(1.0));
        let c1 = Aggregate::Count.estimate(&xs, &ctx1);
        let c2 = Aggregate::Count.estimate(&xs, &ctx2);
        prop_assert!((c2 - c1 * factor as f64).abs() <= 1e-9 * c1.abs().max(1.0));
    }

    /// Parser round-trip: Display output re-parses to the same AST.
    #[test]
    fn parser_display_round_trip(
        agg_idx in 0usize..5,
        col_idx in 0usize..3,
        threshold in -100i64..100,
        with_filter in any::<bool>(),
        with_group in any::<bool>(),
        err_pct in prop::option::of(1u32..50),
    ) {
        let aggs = ["AVG", "SUM", "COUNT", "MIN", "MAX"];
        let cols = ["time", "bytes", "bitrate"];
        let mut sql = format!("SELECT {}({})", aggs[agg_idx], cols[col_idx]);
        if with_group {
            sql = format!("SELECT city, {}({})", aggs[agg_idx], cols[col_idx]);
        }
        sql.push_str(" FROM sessions");
        if with_filter {
            sql.push_str(&format!(" WHERE {} > {}", cols[(col_idx + 1) % 3], threshold));
        }
        if with_group {
            sql.push_str(" GROUP BY city");
        }
        if let Some(p) = err_pct {
            sql.push_str(&format!(" WITHIN {p}% ERROR AT CONFIDENCE 95%"));
        }
        let q1 = parse_query(&sql).unwrap();
        let q2 = parse_query(&q1.to_string()).unwrap();
        prop_assert_eq!(q1, q2);
    }

    /// The lexer and parser never panic, whatever the input.
    #[test]
    fn parser_never_panics(input in ".{0,200}") {
        let _ = parse_query(&input); // Ok or Err, never a panic
    }

    /// Pushdown is idempotent in effect: re-running the rewrite on an
    /// already-rewritten plan inserts at the same place (one extra node
    /// per application, same relative position).
    #[test]
    fn pushdown_inserts_directly_below_the_aggregate(threshold in 0i64..100) {
        use reliable_aqp::sql::logical::{LogicalPlan, ResampleSpec};
        use reliable_aqp::sql::rewriter::insert_pushed_down;
        use reliable_aqp::storage::{DataType, Field, Schema};
        let schema = Schema::new(vec![
            Field::new("city", DataType::Str),
            Field::new("time", DataType::Float),
        ]).unwrap();
        let sql = format!("SELECT SUM(time) FROM s WHERE time > {threshold}");
        let q = parse_query(&sql).unwrap();
        let plan = reliable_aqp::sql::plan_query(&q, &schema).unwrap();
        let rewritten = insert_pushed_down(plan, &ResampleSpec::bootstrap(5, 2));
        // The resample node must be the aggregate's direct input.
        match &rewritten {
            LogicalPlan::Aggregate { input, .. } => {
                let is_resample = matches!(**input, LogicalPlan::Resample { .. });
                prop_assert!(is_resample);
            }
            other => prop_assert!(false, "unexpected root {other:?}"),
        }
    }

    /// Plan rewriting preserves pass-through chain contents in EXPLAIN.
    #[test]
    fn rewriter_preserves_operators(threshold in 0i64..200) {
        use reliable_aqp::sql::logical::ResampleSpec;
        use reliable_aqp::sql::rewriter::insert_pushed_down;
        use reliable_aqp::sql::{plan_query};
        use reliable_aqp::storage::{DataType, Field, Schema};
        let schema = Schema::new(vec![
            Field::new("city", DataType::Str),
            Field::new("time", DataType::Float),
        ]).unwrap();
        let sql = format!("SELECT AVG(time) FROM s WHERE time > {threshold}");
        let q = parse_query(&sql).unwrap();
        let plan = plan_query(&q, &schema).unwrap();
        let before = plan.explain();
        let after = insert_pushed_down(plan, &ResampleSpec::bootstrap(10, 1)).explain();
        // Every original operator line still appears, exactly once more
        // line (the Resample) exists.
        for line in before.lines() {
            prop_assert!(after.contains(line.trim()), "missing {line}");
        }
        prop_assert_eq!(after.lines().count(), before.lines().count() + 1);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// Simulated naive latency dominates optimized latency for any
    /// profile in the supported ranges.
    #[test]
    fn simulator_naive_dominates_optimized(
        sample_gb in 4.0..20.0f64,
        selectivity in 0.005..0.3f64,
        agg_cpu in 0.5..3.0f64,
        closed_form in any::<bool>(),
        seed in 0u64..100,
    ) {
        use reliable_aqp::cluster::{simulate_query, ClusterConfig, PhysicalTuning, PlanMode, QueryProfile};
        let profile = QueryProfile {
            sample_mb: sample_gb * 1000.0,
            selectivity,
            scan_cpu_ms_per_mb: 0.5,
            agg_cpu_ms_per_mb: agg_cpu,
            closed_form,
            bootstrap_k: 100,
            diag_p: 100,
            diag_subsample_mb: vec![50.0, 100.0, 200.0],
        };
        let cfg = ClusterConfig::default();
        let tuning = PhysicalTuning::untuned(&cfg);
        let naive = simulate_query(&profile, PlanMode::Naive, &tuning, &cfg, seed);
        let opt = simulate_query(&profile, PlanMode::Optimized, &tuning, &cfg, seed);
        // Diagnostics always win big; error estimation wins for
        // bootstrap-only queries and roughly ties for closed forms.
        prop_assert!(opt.diag_s <= naive.diag_s);
        if !closed_form {
            prop_assert!(opt.error_s < naive.error_s);
        } else {
            // Closed-form error estimation is cheap either way; the
            // consolidated pass carries a fixed ~0.1 s reduce that can
            // exceed a trivial naive subquery (Fig. 8(a)'s ~1x band).
            prop_assert!(opt.error_s <= naive.error_s * 2.0 + 0.1);
        }
        prop_assert!(naive.total() >= opt.total() * 0.9);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Histogram quantiles are monotone (p50 ≤ p95 ≤ p99) and each one
    /// lands inside the bucket that contains the corresponding
    /// nearest-rank order statistic of the recorded observations
    /// (clamping to the last finite boundary for overflow data).
    #[test]
    fn histogram_quantiles_monotone_and_bucket_bounded(
        obs in prop::collection::vec(0.0..2_000.0f64, 1..300),
    ) {
        use reliable_aqp::obs::MetricsRegistry;
        let boundaries = [1.0, 5.0, 25.0, 100.0, 500.0, 1_000.0];
        let reg = MetricsRegistry::new();
        let h = reg.histogram_with("aqp.test.lat_ms", &boundaries);
        for &ms in &obs {
            h.record_ms(ms);
        }
        let s = h.snapshot();
        prop_assert_eq!(s.count, obs.len() as u64);
        prop_assert!(
            s.p50 <= s.p95 && s.p95 <= s.p99,
            "quantiles not monotone: p50={} p95={} p99={}", s.p50, s.p95, s.p99
        );

        let mut sorted = obs.clone();
        sorted.sort_by(f64::total_cmp);
        let last_finite = *boundaries.last().unwrap();
        for (q, got) in [(0.50, s.p50), (0.95, s.p95), (0.99, s.p99)] {
            // The nearest-rank order statistic the estimate targets.
            let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            let x = sorted[rank - 1];
            // Its containing bucket, under the recorder's rule that a
            // value exactly on a boundary belongs to that bucket.
            let idx = boundaries.partition_point(|&b| b < x);
            let lo = if idx == 0 { 0.0 } else { boundaries[idx - 1] };
            match boundaries.get(idx) {
                // Finite bucket: the interpolated estimate stays inside.
                Some(&hi) => prop_assert!(
                    got >= lo && got <= hi,
                    "q={q}: estimate {got} outside bucket ({lo}, {hi}] of rank-{rank} obs {x}"
                ),
                // Overflow bucket: clamps to the last finite boundary.
                None => prop_assert!(
                    (got - last_finite).abs() < 1e-12,
                    "q={q}: overflow estimate {got} != clamp {last_finite}"
                ),
            }
        }
    }
}

/// Shared fixture for the fault-injection properties: a fixed sample
/// table, a fixed AVG plan, and the fault-free half-width under the
/// same query seed every faulted run uses.
mod fault_fixture {
    use reliable_aqp::exec::{execute_approx, ApproxOptions, UdfRegistry};
    use reliable_aqp::faults::FaultConfig;
    use reliable_aqp::obs::{Clock, ObsHandle};
    use reliable_aqp::sql::{parse_query, plan_query, LogicalPlan};
    use reliable_aqp::storage::Table;
    use reliable_aqp::workload::conviva_sessions_table;
    use std::sync::OnceLock;

    pub const POPULATION_ROWS: usize = 200_000;
    pub const QUERY_SEED: u64 = 7;

    pub fn opts(faults: Option<FaultConfig>) -> ApproxOptions {
        ApproxOptions {
            seed: QUERY_SEED,
            threads: 1,
            obs: ObsHandle::isolated(Clock::mock()),
            faults,
            ..Default::default()
        }
    }

    pub fn fixture() -> &'static (Table, LogicalPlan, UdfRegistry, f64) {
        static F: OnceLock<(Table, LogicalPlan, UdfRegistry, f64)> = OnceLock::new();
        F.get_or_init(|| {
            let table = conviva_sessions_table(2_000, 8, 31);
            let plan = plan_query(
                &parse_query("SELECT AVG(time) FROM sessions").unwrap(),
                table.schema(),
            )
            .unwrap();
            let registry = UdfRegistry::default();
            let clean =
                execute_approx(&plan, &table, POPULATION_ROWS, &registry, &opts(None)).unwrap();
            let clean_hw = clean.scalar().unwrap().ci.unwrap().half_width;
            (table, plan, registry, clean_hw)
        })
    }
}

/// A loss-tolerant random fault configuration (queries always complete
/// or die `Unrecoverable`, never `Degraded`-rejected).
#[allow(clippy::too_many_arguments)]
fn fault_config_from(
    (seed, death, transient, corrupt): (u64, f64, f64, f64),
    (trunc, keep, strag): (f64, f64, f64),
    (retries, spec): (usize, bool),
) -> reliable_aqp::faults::FaultConfig {
    let mut c = reliable_aqp::faults::FaultConfig::quiescent(seed);
    c.worker_death_prob = death;
    c.transient_error_prob = transient;
    c.corruption_prob = corrupt;
    c.truncation_prob = trunc;
    c.truncation_keep = keep;
    c.straggler_prob = strag;
    c.recovery.max_retries = retries;
    c.recovery.speculative = spec;
    c.recovery.max_lost_fraction = 1.0;
    c
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// For any fault plan: the effective sample never grows, the widen
    /// factor never narrows, and degraded half-widths are at least the
    /// fault-free half-width under the same query seed.
    #[test]
    fn degraded_bars_never_narrower_and_rows_never_grow(
        probs in (0u64..1_000, 0.0..0.5f64, 0.0..0.5f64, 0.0..0.5f64),
        trunc in (0.0..0.8f64, 0.1..1.0f64, 0.0..0.8f64),
        policy in (0usize..3, any::<bool>()),
    ) {
        use reliable_aqp::exec::{execute_approx, ExecError};
        let cfg = fault_config_from(probs, trunc, policy);
        let (table, plan, registry, clean_hw) = fault_fixture::fixture();
        match execute_approx(
            plan,
            table,
            fault_fixture::POPULATION_ROWS,
            registry,
            &fault_fixture::opts(Some(cfg)),
        ) {
            Ok(r) => {
                if let Some(d) = r.degraded {
                    prop_assert!(d.effective_rows <= d.planned_rows,
                        "effective {} > planned {}", d.effective_rows, d.planned_rows);
                    prop_assert!(d.effective_rows > 0);
                    prop_assert!(d.widen_factor >= 1.0, "widen {}", d.widen_factor);
                }
                let ci = r.scalar().unwrap().ci.unwrap();
                prop_assert!(ci.half_width.is_finite());
                prop_assert!(
                    ci.half_width >= clean_hw - 1e-12,
                    "degraded hw {} narrower than fault-free {clean_hw}", ci.half_width
                );
            }
            // Every partition lost: the one acceptable typed failure
            // under a fully loss-tolerant policy.
            Err(ExecError::Unrecoverable(_)) => {}
            Err(e) => prop_assert!(false, "unexpected error: {e}"),
        }
    }

    /// The pure per-task recovery resolution is deterministic and
    /// respects the policy's attempt budget.
    #[test]
    fn resolve_is_deterministic_and_bounded(
        probs in (0u64..1_000, 0.0..0.5f64, 0.0..0.5f64, 0.0..0.5f64),
        trunc in (0.0..0.8f64, 0.1..1.0f64, 0.0..0.8f64),
        policy in (0usize..3, any::<bool>()),
        task in 0usize..64,
    ) {
        use reliable_aqp::faults::{resolve, FaultPlan};
        let cfg = fault_config_from(probs, trunc, policy);
        let plan = FaultPlan::new(cfg.clone());
        let a = resolve(&plan, &cfg.recovery, task);
        let b = resolve(&plan, &cfg.recovery, task);
        prop_assert_eq!(format!("{a:?}"), format!("{b:?}"), "resolve not deterministic");
        prop_assert!(a.attempts >= 1);
        prop_assert!(a.attempts <= cfg.recovery.max_retries + 1,
            "attempts {} exceed budget {}", a.attempts, cfg.recovery.max_retries + 1);
        if let Some(keep) = a.truncate_keep {
            prop_assert!((0.0..=1.0).contains(&keep));
        }
        prop_assert!(!a.lost || a.faulted(), "lost task with no fault events");
    }
}

#[test]
fn empty_histogram_quantiles_are_zero() {
    let reg = reliable_aqp::obs::MetricsRegistry::new();
    let s = reg.histogram_with("aqp.test.empty_ms", &[1.0, 10.0]).snapshot();
    assert_eq!(s.count, 0);
    assert_eq!((s.p50, s.p95, s.p99), (0.0, 0.0, 0.0));
    assert_eq!(s.mean_ms(), 0.0);
}

#[test]
fn single_sample_histogram_quantiles_share_its_bucket() {
    let reg = reliable_aqp::obs::MetricsRegistry::new();
    let h = reg.histogram_with("aqp.test.single_ms", &[1.0, 10.0, 100.0]);
    h.record_ms(7.5); // lives in the (1, 10] bucket
    let s = h.snapshot();
    assert_eq!(s.count, 1);
    for q in [s.p50, s.p95, s.p99] {
        assert!(q > 1.0 && q <= 10.0, "single-sample quantile {q} escaped its bucket");
    }
    assert_eq!(s.p50, s.p99); // one observation -> one answer everywhere
}

#[test]
fn poisson1_moments_are_correct() {
    // Deterministic (non-proptest) statistical check with a large n.
    let mut rng = rng_from_seed(42);
    let w = poisson_weights(&mut rng, 500_000);
    let mean = resample_size(&w) as f64 / w.len() as f64;
    assert!((mean - 1.0).abs() < 0.01);
    let var = w.iter().map(|&x| (x as f64 - mean).powi(2)).sum::<f64>() / w.len() as f64;
    assert!((var - 1.0).abs() < 0.02);
}

#[test]
fn quantile_bounds_are_order_statistics() {
    let xs: Vec<f64> = (0..1000).map(|i| (i as f64) * 0.5).collect();
    assert_eq!(quantile(&xs, 0.0), Some(0.0));
    assert_eq!(quantile(&xs, 1.0), Some(499.5));
}

// Explicit replays of the shrunk inputs recorded in
// `tests/properties.proptest-regressions`. The vendored proptest derives
// its seeds from the test name and does NOT read that file, so each
// persisted entry is backed by a plain #[test] here that re-runs the
// exact shrunk input against the current code. If one of these starts
// failing, the historical bug has returned; if a persisted entry loses
// its replay test, prune it from the regressions file.

/// Replay of `cc 821f12…` (`weighted_aggregates_equal_expansion`,
/// shrinks to `pairs = [(0.0, 0)]`): a single value with weight zero
/// expands to the empty multiset, so MIN/MAX see an empty resample and
/// both paths must agree on the ±infinity sentinels instead of
/// disagreeing (the original failure: weighted path returned the raw
/// value, expansion returned the empty-set identity).
#[test]
fn regression_weighted_aggregates_empty_expansion() {
    let values = [0.0f64];
    let weights = [0u32];
    let expanded = Udf::expand(&values, &weights);
    assert!(expanded.is_empty(), "weight 0 must expand to nothing");
    let ctx = SampleContext::new(values.len(), values.len() * 10);
    for agg in [Aggregate::Avg, Aggregate::Variance, Aggregate::Min, Aggregate::Max] {
        let w = agg.estimate_weighted(&values, &weights, &ctx);
        let e = agg.estimate(&expanded, &ctx);
        assert!(
            w == e || (w - e).abs() <= 1e-6 * e.abs().max(1.0) || (w.is_nan() && e.is_nan()),
            "{agg}: weighted {w} vs expanded {e} on the empty expansion"
        );
    }
}

/// Replay of `cc 9af2e6…` (`simulator_naive_dominates_optimized`,
/// shrinks to `sample_gb = 4.0, selectivity = 0.005, agg_cpu = 0.5,
/// closed_form = true, seed = 0`): the smallest closed-form query,
/// where the consolidated error-estimation pass's fixed reduce cost can
/// exceed the trivial naive subquery. The optimized plan must still win
/// on diagnostics and stay inside the Fig. 8(a) ~1x band on error
/// estimation.
#[test]
fn regression_simulator_tiny_closed_form_query() {
    use reliable_aqp::cluster::{
        simulate_query, ClusterConfig, PhysicalTuning, PlanMode, QueryProfile,
    };
    let profile = QueryProfile {
        sample_mb: 4.0 * 1000.0,
        selectivity: 0.005,
        scan_cpu_ms_per_mb: 0.5,
        agg_cpu_ms_per_mb: 0.5,
        closed_form: true,
        bootstrap_k: 100,
        diag_p: 100,
        diag_subsample_mb: vec![50.0, 100.0, 200.0],
    };
    let cfg = ClusterConfig::default();
    let tuning = PhysicalTuning::untuned(&cfg);
    let naive = simulate_query(&profile, PlanMode::Naive, &tuning, &cfg, 0);
    let opt = simulate_query(&profile, PlanMode::Optimized, &tuning, &cfg, 0);
    assert!(opt.diag_s <= naive.diag_s);
    assert!(opt.error_s <= naive.error_s * 2.0 + 0.1);
    assert!(naive.total() >= opt.total() * 0.9);
}

// ---------------------------------------------------------------------
// Selection-vector scan vs a row-wise oracle.
//
// `scan_oracle` is a reference implementation of `exec::collect` written
// from `Batch::row`/`Value` only: it copies rows, evaluates expressions
// one `Value` at a time and groups on rendered key strings. It shares no
// code with the engine's scan, so it stays.
// ---------------------------------------------------------------------

mod scan_oracle {
    use std::collections::BTreeMap;

    use rand::RngExt;
    use reliable_aqp::exec::collect::{AggData, Collected, Group, NestedData, INT_SLOTS_PER_ROW};
    use reliable_aqp::faults::{resolve, FaultConfig, FaultPlan};
    use reliable_aqp::sql::ast::{BinOp, Expr};
    use reliable_aqp::sql::logical::LogicalPlan;
    use reliable_aqp::stats::dist::sample_poisson;
    use reliable_aqp::stats::rng::{rng_from_seed, SeedStream};
    use reliable_aqp::storage::{Batch, Column, DataType, Field, Schema, Table, Value};

    /// A table with nullable columns of every type; the cells include
    /// NaN (two payloads), ±0.0, ±Inf, and a `'NULL'` string next to
    /// real NULLs; `n` is NULL in every row; `d` is a string column without
    /// NULLs whose dictionary holds `"p"` twice. `wide` draws `i` and `f` from
    /// about as many distinct values as there are rows, so that the scan's
    /// tables of typed group codes grow and collide and most groups span
    /// partitions: integers up from 0, down from 0, up from `i64::MIN` and
    /// down from `i64::MAX`; floats `k * 0.5` of either sign (zero low
    /// mantissa), subnormals, and the special cells. `u` is an `Int` with
    /// NULLs whose span changes with the partition: partition `p` holds,
    /// by `p % 4`, values a few slots wide, a span of exactly as many slots
    /// as a lone `Int` key's table may take (`INT_SLOTS_PER_ROW` per row),
    /// one slot more, and values near `i64::MIN`, 0 and `i64::MAX`; the
    /// partitions' ranges overlap, and are shifted by `seed`.
    pub fn table(seed: u64, rows: usize, partitions: usize, wide: bool) -> Table {
        let mut rng = rng_from_seed(seed);
        let nan2 = f64::from_bits(f64::NAN.to_bits() ^ 1);
        let floats = [0.0, -0.0, 1.5, -2.25, 3.0, f64::NAN, nan2, f64::INFINITY, f64::NEG_INFINITY];
        let strs = ["a", "b", "NULL", "cc", ""];
        let mut null = |p: f64| rng.random_bool(p);
        let mut pick = rng_from_seed(seed ^ 0x5EED);
        let wide_int = |k: i64| match k % 4 {
            0 => k,
            1 => -k,
            2 => i64::MIN + k / 4,
            _ => i64::MAX - k / 4,
        };
        let wide_float = |k: i64| match k % 4 {
            0 => k as f64 * 0.5,
            1 => k as f64 * -0.5,
            2 => f64::from_bits(k as u64 / 4), // 0.0, then subnormals
            _ => floats[(k / 4) as usize % floats.len()],
        };
        let domain = rows.max(1) as i64;
        let i: Vec<Option<i64>> = (0..rows)
            .map(|_| match wide {
                true => (!null(0.05)).then(|| wide_int(pick.random_range(0..domain))),
                false => (!null(0.15)).then(|| pick.random_range(-3i64..4)),
            })
            .collect();
        let f: Vec<Option<f64>> = (0..rows)
            .map(|_| match wide {
                true => (!null(0.05)).then(|| wide_float(pick.random_range(0..domain))),
                false => (!null(0.15)).then(|| floats[pick.random_range(0..floats.len())]),
            })
            .collect();
        let b: Vec<Option<bool>> =
            (0..rows).map(|_| (!null(0.2)).then(|| pick.random_range(0..2) == 1)).collect();
        let s_valid: Vec<bool> = (0..rows).map(|_| !null(0.2)).collect();
        let s_codes: Vec<u32> = (0..rows).map(|_| pick.random_range(0..strs.len() as u32)).collect();
        let x: Vec<f64> = (0..rows).map(|_| pick.random_range(-50..50) as f64 / 4.0).collect();
        let d_codes: Vec<u32> = (0..rows).map(|_| pick.random_range(0..4)).collect();
        let mut u_pick = rng_from_seed(seed ^ 0x1D);
        let mut u: Vec<Option<i64>> = Vec::with_capacity(rows);
        for p in 0..partitions {
            let len = rows / partitions + usize::from(p < rows % partitions);
            let lo = (seed % 7) as i64 * 3 - 10 + p as i64 * 5;
            let bound = (INT_SLOTS_PER_ROW * len) as i64;
            let last = match p % 4 {
                0 => len as i64 / 3,
                1 => bound - 1,
                2 => bound,
                _ => -1,
            };
            u.extend((0..len).map(|r| {
                let null = u_pick.random_bool(0.1);
                match (p % 4, r) {
                    // The span's two ends, in the first and the last row.
                    (1 | 2, 0) => Some(lo),
                    (1 | 2, r) if r == len - 1 => Some(lo + last),
                    _ if null => None,
                    (3, r) => Some([i64::MIN + r as i64, 0, i64::MAX - r as i64][r % 3]),
                    _ => Some(lo + u_pick.random_range(0..=last)),
                }
            }));
        }
        let schema = Schema::new(vec![
            Field::nullable("i", DataType::Int),
            Field::nullable("f", DataType::Float),
            Field::nullable("b", DataType::Bool),
            Field::nullable("s", DataType::Str),
            Field::new("x", DataType::Float),
            Field::nullable("n", DataType::Int),
            Field::new("d", DataType::Str),
            Field::nullable("u", DataType::Int),
        ])
        .unwrap();
        let s = Column::Str {
            dict: strs.iter().map(|s| s.to_string()).collect(),
            codes: s_codes,
            validity: Some(s_valid),
        };
        let columns = vec![
            Column::from_opt_i64s(i),
            Column::from_opt_f64s(f),
            Column::Bool {
                values: b.iter().map(|v| v.unwrap_or(false)).collect(),
                validity: Some(b.iter().map(Option::is_some).collect()),
            },
            s,
            Column::from_f64s(x),
            Column::from_opt_i64s(vec![None; rows]),
            Column::Str { dict: ["p", "q", "p", "r"].map(String::from).to_vec(), codes: d_codes, validity: None },
            Column::from_opt_i64s(u),
        ];
        Table::from_batch("t", Batch::new(schema, columns).unwrap(), partitions).unwrap()
    }

    fn eval(e: &Expr, schema: &Schema, row: &[Value]) -> Value {
        let num = |v: Option<f64>| v.map_or(Value::Null, Value::Float);
        let tri = |v: Option<bool>| v.map_or(Value::Null, Value::Bool);
        match e {
            Expr::Column(name) => row[schema.index_of(name).unwrap()].clone(),
            Expr::Literal(v) => v.clone(),
            Expr::Neg(e) => num(eval(e, schema, row).as_f64().map(|x| -x)),
            Expr::Not(e) => tri(eval(e, schema, row).as_bool().map(|b| !b)),
            Expr::Binary { op, lhs, rhs } => {
                let (l, r) = (eval(lhs, schema, row), eval(rhs, schema, row));
                let arith = |f: fn(f64, f64) -> Option<f64>| {
                    num(l.as_f64().zip(r.as_f64()).and_then(|(a, b)| f(a, b)))
                };
                let ord = |f: fn(std::cmp::Ordering) -> bool| tri(l.sql_cmp(&r).map(f));
                match op {
                    BinOp::Add => arith(|a, b| Some(a + b)),
                    BinOp::Sub => arith(|a, b| Some(a - b)),
                    BinOp::Mul => arith(|a, b| Some(a * b)),
                    BinOp::Div => arith(|a, b| if b == 0.0 { None } else { Some(a / b) }),
                    BinOp::And => tri(match (l.as_bool(), r.as_bool()) {
                        (Some(false), _) | (_, Some(false)) => Some(false),
                        (Some(true), Some(true)) => Some(true),
                        _ => None,
                    }),
                    BinOp::Or => tri(match (l.as_bool(), r.as_bool()) {
                        (Some(true), _) | (_, Some(true)) => Some(true),
                        (Some(false), Some(false)) => Some(false),
                        _ => None,
                    }),
                    BinOp::Eq => ord(|o| o.is_eq()),
                    BinOp::Ne => ord(|o| o.is_ne()),
                    BinOp::Lt => ord(|o| o.is_lt()),
                    BinOp::Le => ord(|o| o.is_le()),
                    BinOp::Gt => ord(|o| o.is_gt()),
                    BinOp::Ge => ord(|o| o.is_ge()),
                }
            }
            Expr::Func { name, args } => {
                let a: Vec<Option<f64>> =
                    args.iter().map(|a| eval(a, schema, row).as_f64()).collect();
                let defined = |y: f64| (!y.is_nan()).then_some(y);
                num(match (name.as_str(), a.as_slice()) {
                    ("log" | "ln", [x]) => x.filter(|&x| x > 0.0).map(f64::ln).and_then(defined),
                    ("exp", [x]) => x.map(f64::exp).and_then(defined),
                    ("sqrt", [x]) => x.map(f64::sqrt).and_then(defined),
                    ("abs", [x]) => x.map(f64::abs).and_then(defined),
                    ("pow", [x, y]) => x.zip(*y).map(|(x, y)| x.powf(y)),
                    ("ifnull", [x, y]) => x.or(*y),
                    other => panic!("oracle does not know {other:?}"),
                })
            }
        }
    }

    fn render(schema: &Schema, keys: &[String], row: &[Value]) -> String {
        let cells: Vec<String> =
            keys.iter().map(|k| row[schema.index_of(k).unwrap()].to_string()).collect();
        cells.join("\u{1f}")
    }

    /// `collect` by the book: row copies, per-row `Value` evaluation,
    /// string group keys.
    pub fn collect(plan: &LogicalPlan, table: &Table, faults: Option<&FaultConfig>) -> Collected {
        // Plan shape: wrappers, the top aggregate, an optional inner
        // aggregate directly below it, then the chain down to the scan.
        let mut node = plan;
        while let LogicalPlan::ErrorEstimate { input, .. } | LogicalPlan::Diagnostic { input } = node
        {
            node = input;
        }
        let LogicalPlan::Aggregate { group_by, aggs, input } = node else {
            panic!("plan root is not an aggregate")
        };
        let (inner, mut below) = match &**input {
            LogicalPlan::Aggregate { group_by, aggs, input } => {
                (Some((group_by.clone(), aggs[0].clone())), &**input)
            }
            other => (None, other),
        };
        let mut chain = Vec::new(); // top-down
        while !matches!(below, LogicalPlan::Scan { .. }) {
            chain.push(below);
            below = below.input().unwrap();
        }
        chain.reverse(); // scan-first

        let schema = table.schema();
        let fault_plan = faults.map(|c| (FaultPlan::new(c.clone()), c.recovery.clone()));
        let mut survivors: Vec<(u32, Vec<Value>)> = Vec::new();
        let (mut offset, mut any_scanned) = (0u32, false);
        for (task, p) in table.partitions().iter().enumerate() {
            let planned = p.num_rows();
            let keep = match &fault_plan {
                None => planned,
                Some((fp, policy)) => {
                    let report = resolve(fp, policy, task);
                    if report.lost {
                        continue;
                    }
                    match report.truncate_keep {
                        Some(_) if planned == 0 => 0,
                        Some(k) => ((planned as f64 * k).round() as usize).clamp(1, planned),
                        None => planned,
                    }
                }
            };
            any_scanned = true;
            let mut rows: Vec<(u32, Vec<Value>)> =
                (0..keep).map(|r| (r as u32, p.batch().row(r).unwrap())).collect();
            for op in &chain {
                match op {
                    LogicalPlan::Filter { predicate, .. } => {
                        rows.retain(|(_, row)| eval(predicate, schema, row).as_bool() == Some(true));
                    }
                    LogicalPlan::TableSample { rate, seed, .. } => {
                        // A stream per partition, labelled by where its
                        // rows start in the effective sample.
                        let mut rng = SeedStream::new(*seed).rng(offset as u64);
                        let mut out = Vec::new();
                        for row in rows {
                            for _ in 0..sample_poisson(&mut rng, *rate) {
                                out.push(row.clone());
                            }
                        }
                        rows = out;
                    }
                    LogicalPlan::Resample { .. } => {}
                    other => panic!("oracle does not know {other:?}"),
                }
            }
            survivors.extend(rows.into_iter().map(|(r, row)| (offset + r, row)));
            offset += keep as u32;
        }

        let mut groups: BTreeMap<String, Vec<AggData>> = BTreeMap::new();
        if let Some((inner_keys, inner_agg)) = &inner {
            let mut data = AggData::default();
            let mut seen: Vec<String> = Vec::new();
            let mut codes = Vec::new();
            for (pos, row) in &survivors {
                let x = match &inner_agg.arg {
                    None => Some(1.0),
                    Some(e) => eval(e, schema, row).as_f64(),
                };
                if let Some(x) = x {
                    data.values.push(x);
                    data.positions.push(*pos);
                    let key = render(schema, inner_keys, row);
                    let code = seen.iter().position(|k| *k == key).unwrap_or_else(|| {
                        seen.push(key);
                        seen.len() - 1
                    });
                    codes.push(code as u32);
                }
            }
            if any_scanned {
                data.nested = Some(NestedData { codes, n_codes: seen.len() });
                groups.insert(String::new(), vec![data; aggs.len()]);
            }
        } else {
            for (pos, row) in &survivors {
                let slot = groups
                    .entry(render(schema, group_by, row))
                    .or_insert_with(|| vec![AggData::default(); aggs.len()]);
                for (data, agg) in slot.iter_mut().zip(aggs) {
                    let x = match &agg.arg {
                        None => Some(1.0),
                        Some(e) => eval(e, schema, row).as_f64(),
                    };
                    if let Some(x) = x {
                        data.values.push(x);
                        data.positions.push(*pos);
                    }
                }
            }
        }
        if group_by.is_empty() && groups.is_empty() {
            groups.insert(String::new(), vec![AggData::default(); aggs.len()]);
        }
        Collected {
            pre_filter_rows: offset as usize,
            groups: groups.into_iter().map(|(key, aggs)| Group { key, aggs }).collect(),
            agg_exprs: aggs.clone(),
            nested: inner.is_some(),
            inner_agg: inner.map(|(_, agg)| agg),
        }
    }
}

/// Bit-level equality of two `Collected` (NaN values must match too,
/// which `PartialEq` on `f64` would refuse).
fn assert_collected_identical(
    got: &reliable_aqp::exec::collect::Collected,
    want: &reliable_aqp::exec::collect::Collected,
    what: &str,
) {
    assert_eq!(got.pre_filter_rows, want.pre_filter_rows, "{what}: pre_filter_rows");
    assert_eq!(got.nested, want.nested, "{what}: nested");
    assert_eq!(got.agg_exprs, want.agg_exprs, "{what}: agg_exprs");
    assert_eq!(got.inner_agg, want.inner_agg, "{what}: inner_agg");
    let keys = |c: &reliable_aqp::exec::collect::Collected| {
        c.groups.iter().map(|g| g.key.clone()).collect::<Vec<_>>()
    };
    assert_eq!(keys(got), keys(want), "{what}: group keys and order");
    for (g, w) in got.groups.iter().zip(&want.groups) {
        assert_eq!(g.aggs.len(), w.aggs.len(), "{what}: aggregates of {:?}", g.key);
        for (a, b) in g.aggs.iter().zip(&w.aggs) {
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&a.values), bits(&b.values), "{what}: values of {:?}", g.key);
            assert_eq!(a.positions, b.positions, "{what}: positions of {:?}", g.key);
            assert_eq!(a.nested, b.nested, "{what}: nested codes of {:?}", g.key);
        }
    }
}

// The first filter of a chain runs over the kept prefix of a partition,
// every later conjunct (and any filter under `TABLESAMPLE`) over row ids.
// `column <op> number` and string comparisons of one column are fused
// kernels; mirrored spellings, arithmetic, `NOT`, and `OR` across columns
// take the general route.
const SCAN_FILTERS: &[&str] = &[
    "",
    "WHERE x > 1",
    "WHERE f > 0",
    "WHERE f <> 3",
    "WHERE f <> 1.5",
    "WHERE i > 0.5",
    "WHERE i <= -1.5 AND x >= 0",
    "WHERE 2 >= i",
    "WHERE i = f",
    "WHERE b = true",
    "WHERE b",
    "WHERE b <> 1 AND f < 2",
    "WHERE s = 'a' OR s = 'NULL'",
    "WHERE s <> 'b' AND s <> 'cc' AND x < 10",
    "WHERE x > -3 AND s >= 'b'",
    "WHERE (s = 'a' OR s > 'c') AND i <> 0",
    "WHERE s = 'a' OR b = true",
    "WHERE 'b' <= s",
    "WHERE s = 3",
    "WHERE f > 'a'",
    "WHERE s = NULL",
    "WHERE x < -NULL",
    "WHERE NOT (i > 0)",
    "WHERE NOT (s = 'a') OR f < 0",
    "WHERE b = false OR x > 2 AND i <> 1",
    "WHERE x / i > 1",
    "WHERE x / i > 1 AND x > -2 AND NOT (s = 'a')",
    "WHERE log(f) > 0 OR sqrt(x) < 2",
    "WHERE -x < 2 AND x > -5",
    "WHERE ifnull(i, 0) >= 1",
    "WHERE pow(x, 2) > abs(f)",
    "WHERE i + f * 2 - x <= 3",
    "WHERE x > 100",
];

// `x` has no NULL, so its aggregates share the partition's slots and
// positions; an argument that is NULL in a selected row gets its own.
const SCAN_AGGS: &[&str] = &[
    "AVG(x)",
    "COUNT(*)",
    "SUM(f)",
    "AVG(i), COUNT(*), MAX(b)",
    "SUM(x), AVG(i), MIN(x), COUNT(n)",
    "SUM(x * 2 + i)",
    "COUNT(s), MIN(f / i)",
    "AVG(exp(i)), SUM(3)",
    "VARIANCE(f), STDDEV(x), SUM(n)",
    "PERCENTILE(x, 50), MAX(i), geo_mean(x)",
];

// Keys without a string column are identified by typed codes, the others
// (and the global group) by the rendered string. A lone `s`, `d` or `b`
// key resolves through the dense slot table (`d`: no NULL mask, and two
// codes that render alike); a lone `i` or `u` by value where its span is
// narrow (`u`: in some partitions only).
const SCAN_KEYS: &[&str] =
    &["", "s", "f", "i", "b", "s, b", "f, i", "b, s, i", "b, i", "n", "i, n, f", "d", "d, i", "u", "s, u"];

/// The query of one scan case: `shape` 1 samples the table with
/// `TABLESAMPLE POISSONIZED`, 2 nests (the inner key cycling through the
/// single-column keys), anything else is a plain (grouped) aggregate.
fn scan_sql(filter: usize, aggs: usize, keys: usize, shape: usize) -> String {
    let filter = SCAN_FILTERS[filter % SCAN_FILTERS.len()];
    let from = if shape == 1 { "t TABLESAMPLE POISSONIZED (130)" } else { "t" };
    let group_by = SCAN_KEYS[keys % SCAN_KEYS.len()];
    if shape == 2 {
        let key = ["s", "f", "i", "b", "n", "d", "u"][keys % 7];
        let outer = ["AVG(v)", "AVG(v), COUNT(v)"][aggs % 2];
        let inner = ["SUM(x)", "COUNT(*)", "AVG(f)"][aggs % 3];
        format!("SELECT {outer} FROM (SELECT {inner} AS v FROM {from} {filter} GROUP BY {key})")
    } else if group_by.is_empty() {
        format!("SELECT {} FROM {from} {filter}", SCAN_AGGS[aggs % SCAN_AGGS.len()])
    } else {
        format!("SELECT {group_by}, {} FROM {from} {filter} GROUP BY {group_by}", SCAN_AGGS[aggs % SCAN_AGGS.len()])
    }
}

/// `collect` equals the row-wise oracle on every field of `Collected`, for
/// one and four threads, on the whole table and with the partitions
/// `faults` loses and truncates; and `execute_exact`, which folds every
/// group's values in scan order, equals θ over the oracle's values bit for
/// bit, for one, two and four threads.
fn assert_scan_matches_oracle(table: &reliable_aqp::storage::Table, sql: &str, faults: &reliable_aqp::faults::FaultConfig) {
    use reliable_aqp::exec::collect::{collect, scan};
    use reliable_aqp::exec::theta::PreparedTheta;
    use reliable_aqp::exec::{execute_exact, UdfRegistry};
    use reliable_aqp::faults::FaultInjector;
    use reliable_aqp::obs::Clock;

    let query = parse_query(sql).unwrap();
    let plan = reliable_aqp::sql::plan_query(&query, table.schema()).unwrap();
    let want = scan_oracle::collect(&plan, table, None);
    let registry = UdfRegistry::with_stock_library();
    let ctx = SampleContext::population(want.pre_filter_rows);
    let thetas: Result<Vec<PreparedTheta>, _> =
        want.agg_exprs.iter().map(|a| PreparedTheta::prepare(a, want.inner_agg.as_ref(), &registry)).collect();
    for threads in [1, 4] {
        let got = collect(&plan, table, threads).unwrap();
        assert_collected_identical(&got, &want, &format!("{sql} / {threads} thread(s)"));
    }
    let bits = |key: &str, vals: Vec<f64>| (key.to_string(), vals.iter().map(|v| v.to_bits()).collect::<Vec<_>>());
    for threads in [1, 2, 4] {
        let exact = execute_exact(&plan, table, &registry, threads);
        let Ok(thetas) = &thetas else {
            assert!(exact.is_err(), "{sql}: an unsupported θ is refused");
            continue;
        };
        let exact = exact.unwrap();
        assert_eq!(exact.rows_scanned, want.pre_filter_rows, "{sql}");
        let theta_over = |g: &reliable_aqp::exec::collect::Group| {
            bits(&g.key, g.aggs.iter().zip(thetas).map(|(data, theta)| theta.estimate(data, &ctx)).collect())
        };
        assert_eq!(
            exact.groups.into_iter().map(|(key, vals)| bits(&key, vals)).collect::<Vec<_>>(),
            want.groups.iter().map(theta_over).collect::<Vec<_>>(),
            "{sql} / exact / {threads} thread(s)"
        );
    }

    // The same scan with partitions lost and truncated.
    let want = scan_oracle::collect(&plan, table, Some(faults));
    let injector = FaultInjector::new(faults);
    for threads in [1, 4] {
        let (got, _, summary) =
            scan(&plan, table, threads, &Clock::Real, Some(&injector), true).unwrap();
        assert_collected_identical(&got, &want, &format!("{sql} / faulty / {threads}"));
        assert_eq!(summary.unwrap().effective_rows, want.pre_filter_rows, "{sql}");
    }
}

fn scan_faults(seed: u64, death: f64, truncation: f64, keep: f64) -> reliable_aqp::faults::FaultConfig {
    let mut cfg = reliable_aqp::faults::FaultConfig::quiescent(seed);
    cfg.worker_death_prob = death;
    cfg.truncation_prob = truncation;
    cfg.truncation_keep = keep;
    cfg.recovery.max_retries = 0;
    cfg
}

/// Every filter with every aggregate list — hence every scan kernel: fused
/// and general filters first and later in a chain, over a prefix and over
/// repeated row ids, shared and own slots — against the oracle, the keys
/// and the plan shape cycling, on a small table and a high-cardinality one.
#[test]
fn every_scan_kernel_is_held_to_the_row_wise_oracle() {
    let tables = [scan_oracle::table(11, 90, 4, false), scan_oracle::table(12, 400, 7, true)];
    for (t, table) in tables.iter().enumerate() {
        let faults = scan_faults(5 + t as u64, 0.2, 0.4, 0.6);
        for filter in 0..SCAN_FILTERS.len() {
            for aggs in 0..SCAN_AGGS.len() {
                let sql = scan_sql(filter, aggs, filter + 3 * aggs + t, filter + aggs + t);
                assert_scan_matches_oracle(table, &sql, &faults);
            }
        }
    }
}

/// A lone `Int` key is identified by value in a partition whose values
/// span few slots and by its code in any other, and across partitions by
/// value only when every partition's is and the union of their spans is
/// no wider than their tables: `u` is narrow, exactly at the slot bound,
/// one slot past it and sparse by partition, with NULLs. Grouped by `u`,
/// `collect` holds to the oracle and `execute_exact` to θ over its values
/// for every accumulator kind, at one to four threads and with faults, on
/// one partition (all by value), two (by value, two spans) and more (by
/// code across partitions).
#[test]
fn a_lone_int_key_groups_alike_by_value_and_by_code() {
    for (seed, rows, partitions) in [(21, 60, 1), (22, 90, 2), (23, 120, 4), (24, 400, 9)] {
        let table = scan_oracle::table(seed, rows, partitions, false);
        let faults = scan_faults(seed, 0.2, 0.4, 0.6);
        for aggs in SCAN_AGGS {
            for filter in ["", "WHERE x > 1", "WHERE u >= 0 AND b"] {
                assert_scan_matches_oracle(&table, &format!("SELECT u, {aggs} FROM t {filter} GROUP BY u"), &faults);
            }
        }
        for inner in ["SUM(x)", "COUNT(*)", "MIN(f)"] {
            let sql = format!("SELECT AVG(v), MAX(v) FROM (SELECT {inner} AS v FROM t WHERE x < 5 GROUP BY u)");
            assert_scan_matches_oracle(&table, &sql, &faults);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 160, ..ProptestConfig::default() })]

    /// The selection-vector `collect` equals the row-wise oracle on every
    /// field of `Collected` — value order, positions, rendered keys, group
    /// order, nested codes — over nullable columns of every type, special
    /// float cells, NULL and composite group keys, `TABLESAMPLE
    /// POISSONIZED`, lost and truncated partitions, nested plans, and for
    /// one and four threads; so does the exact path on its answers. A third
    /// of the cases scan a high-cardinality table (up to 2 000 rows in up
    /// to 16 partitions, `i` and `f` with about as many distinct values as
    /// rows).
    #[test]
    fn collect_matches_the_row_wise_oracle(
        seed in 0u64..1_000_000,
        shape in (0usize..1_000, 0usize..1_000, 0usize..1_000, 0usize..4),
        layout in (1usize..120, 1usize..6),
        wide in (0usize..3, 1usize..2_000, 1usize..17),
        faults in (0u64..1_000, 0.0..0.6f64, 0.0..0.9f64, 0.05..1.0f64),
    ) {
        let (rows, partitions) = if wide.0 == 0 { (wide.1, wide.2) } else { layout };
        let table = scan_oracle::table(seed, rows, partitions, wide.0 == 0);
        let sql = scan_sql(shape.0, shape.1, shape.2, shape.3);
        assert_scan_matches_oracle(&table, &sql, &scan_faults(faults.0, faults.1, faults.2, faults.3));
    }
}

// ---------------------------------------------------------------------
// The replicate kernel vs a reference bootstrap.
//
// `bootstrap_oracle` is the bootstrap written from the definitions: the
// Poisson(1) draw is a scan of the CDF on `rng.random::<f64>()`, a
// resample is a fresh weight vector, a UDF sees `Udf::expand` of it, a
// quantile is a full sort, a weighted quantile filters `w > 0` and sorts,
// a nested plan accumulates over all `n_codes` inner codes. It prepares
// nothing and reuses nothing, so it stays as the oracle of the kernel
// that does (`stats::bootstrap`, `exec::theta`) — bit for bit, except
// where a UDF's weighted form (PR 21) sums the same terms in another
// order: there the replicates and the interval agree to 1e-9.
// ---------------------------------------------------------------------

mod bootstrap_oracle {
    use rand::RngExt;
    use reliable_aqp::exec::theta::InnerAggregate;
    use reliable_aqp::stats::ci::{ci_from_draws, Ci};
    use reliable_aqp::stats::estimator::{Aggregate, QueryEstimator, SampleContext, Udf};
    use reliable_aqp::stats::moments::Moments;
    use reliable_aqp::stats::rng::Rng;

    /// A single-level θ: a built-in aggregate or a stock UDF by name.
    #[derive(Debug, Clone, Copy)]
    pub enum Theta {
        Builtin(Aggregate),
        Udf(&'static str),
    }

    pub const STOCK_UDFS: [&str; 4] = ["trimmed_mean", "top_decile_mean", "geo_mean", "cov"];

    /// Type-7 quantile by a full sort.
    fn quantile(xs: &[f64], q: f64) -> Option<f64> {
        let mut sorted = xs.to_vec();
        sorted.sort_by(f64::total_cmp);
        let pos = q.clamp(0.0, 1.0) * (sorted.len().checked_sub(1)?) as f64;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        if lo == hi {
            return Some(sorted[lo]);
        }
        let frac = pos - lo as f64;
        Some(sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
    }

    /// Nearest rank on the resample: the rows with `w > 0`, sorted.
    fn weighted_quantile(xs: &[f64], ws: &[u32], q: f64) -> Option<f64> {
        let total: u64 = ws.iter().map(|&w| w as u64).sum();
        let mut idx: Vec<usize> = (0..xs.len()).filter(|&i| ws[i] > 0).collect();
        idx.sort_by(|&a, &b| xs[a].total_cmp(&xs[b]));
        let target = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut acc = 0u64;
        idx.into_iter().find(|&i| {
            acc += ws[i] as u64;
            acc >= target
        })
        .map(|i| xs[i])
    }

    /// The stock UDF library (`UdfRegistry::with_stock_library`).
    fn udf(name: &str, xs: &[f64]) -> f64 {
        let band_mean = |keep: &dyn Fn(f64) -> bool, empty: f64| {
            let kept: Vec<f64> = xs.iter().copied().filter(|&x| keep(x)).collect();
            // Added up from +0.0 as the UDFs do (`sum()` starts at -0.0).
            if kept.is_empty() { empty } else { kept.iter().fold(0.0, |s, x| s + x) / kept.len() as f64 }
        };
        match name {
            "trimmed_mean" => match (quantile(xs, 0.1), quantile(xs, 0.9)) {
                (Some(a), Some(b)) => band_mean(&|x| x >= a && x <= b, f64::NAN),
                _ => f64::NAN,
            },
            "top_decile_mean" => match quantile(xs, 1.0 - 0.1) {
                Some(cut) => band_mean(&|x| x >= cut, f64::NAN),
                None => f64::NAN,
            },
            "geo_mean" => {
                let logs: Vec<f64> = xs.iter().filter(|&&x| x > 0.0).map(|x| x.ln()).collect();
                if logs.is_empty() {
                    f64::NAN
                } else {
                    (logs.iter().fold(0.0, |s, l| s + l) / logs.len() as f64).exp()
                }
            }
            "cov" => {
                let m = Moments::from_slice(xs);
                m.std_dev_sample() / m.mean()
            }
            other => panic!("not a stock UDF: {other}"),
        }
    }

    /// θ on plain values.
    pub fn estimate(theta: Theta, values: &[f64], ctx: &SampleContext) -> f64 {
        match theta {
            Theta::Builtin(Aggregate::Percentile(q)) => quantile(values, q).unwrap_or(f64::NAN),
            Theta::Builtin(a) => a.estimate(values, ctx),
            Theta::Udf(name) => udf(name, values),
        }
    }

    /// θ on one resample. The moment and extreme aggregates are their
    /// streaming definitions in `Aggregate::estimate_weighted`, which the
    /// kernel calls unchanged; what it replaced is rewritten here.
    pub fn estimate_weighted(theta: Theta, values: &[f64], ws: &[u32], ctx: &SampleContext) -> f64 {
        match theta {
            Theta::Builtin(Aggregate::Percentile(q)) => {
                weighted_quantile(values, ws, q).unwrap_or(f64::NAN)
            }
            Theta::Builtin(a) => a.estimate_weighted(values, ws, ctx),
            Theta::Udf(name) => udf(name, &Udf::expand(values, ws)),
        }
    }

    /// A two-level θ on (optionally weighted) base rows: the inner
    /// aggregate per inner code over accumulators `n_codes` wide, then the
    /// outer aggregate over the codes present, in code order.
    pub fn nested(
        (outer, inner): (Theta, InnerAggregate),
        (values, codes, n_codes): (&[f64], &[u32], usize),
        ws: Option<&[u32]>,
        ctx: &SampleContext,
    ) -> f64 {
        let mut sum = vec![0.0f64; n_codes];
        let mut weight = vec![0u64; n_codes];
        let mut min = vec![f64::INFINITY; n_codes];
        let mut max = vec![f64::NEG_INFINITY; n_codes];
        for i in 0..values.len() {
            let w = ws.map_or(1, |ws| ws[i]);
            if w == 0 {
                continue;
            }
            let g = codes[i] as usize;
            sum[g] += if inner == InnerAggregate::Count { w as f64 } else { values[i] * w as f64 };
            weight[g] += w as u64;
            min[g] = min[g].min(values[i]);
            max[g] = max[g].max(values[i]);
        }
        let group_values: Vec<f64> = (0..n_codes)
            .filter(|&g| weight[g] > 0)
            .map(|g| match inner {
                InnerAggregate::Sum | InnerAggregate::Count => sum[g] * ctx.scale(),
                InnerAggregate::Avg => sum[g] / weight[g] as f64,
                InnerAggregate::Min => min[g],
                InnerAggregate::Max => max[g],
            })
            .collect();
        estimate(outer, &group_values, &SampleContext::population(group_values.len()))
    }

    /// One Poisson(1) draw: the first `k` with `u ≤ P(K ≤ k)`.
    fn poisson1(rng: &mut Rng) -> u32 {
        let u: f64 = rng.random::<f64>();
        let (mut pk, mut cdf) = ((-1.0f64).exp(), 0.0);
        for k in 0..18 {
            cdf += pk;
            if u <= cdf {
                return k;
            }
            pk /= (k + 1) as f64;
        }
        17
    }

    /// `k` replicates of `replicate` on fresh Poissonized weight vectors,
    /// and the interval around `center` they give.
    pub fn bootstrap(
        rng: &mut Rng,
        center: f64,
        rows: usize,
        replicate: &dyn Fn(&[u32]) -> f64,
        k: usize,
        alpha: f64,
    ) -> (Vec<f64>, Option<Ci>) {
        if center.is_nan() {
            return (Vec::new(), None);
        }
        let replicates: Vec<f64> = (0..k)
            .map(|_| {
                let weights: Vec<u32> = (0..rows).map(|_| poisson1(rng)).collect();
                replicate(&weights)
            })
            .collect();
        let kept: Vec<f64> = replicates.iter().copied().filter(|r| !r.is_nan()).collect();
        let ci = (!kept.is_empty()).then(|| ci_from_draws(center, &kept, alpha));
        (replicates, ci)
    }
}

/// Bit patterns, with every NaN as one value: a NaN replicate or centre is
/// dropped whatever its sign and payload (which differ between a `0.0 /
/// 0.0` the compiler folded and one the processor computed).
fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| if x.is_nan() { u64::MAX } else { x.to_bits() }).collect()
}

fn ci_bits(ci: Option<reliable_aqp::stats::ci::Ci>) -> Option<[u64; 3]> {
    ci.map(|c| [c.center.to_bits(), c.half_width.to_bits(), c.confidence.to_bits()])
}

/// Equal to rounding: the same bits, both NaN, or within 1e-9 of the
/// larger — floored by `scale`, the size of the values behind them, since
/// a mean that cancels or a half-width of rounding dust is only accurate
/// to that.
fn close(a: f64, b: f64, scale: f64) -> bool {
    a.to_bits() == b.to_bits()
        || a.is_nan() && b.is_nan()
        || (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(scale)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// Replicates and intervals of the replicate kernel equal the
    /// reference bootstrap's bit for bit, and both leave the generator at
    /// the same point — for every `Aggregate` variant, the four stock
    /// UDFs as opaque closures (the expansion path) and every
    /// `InnerAggregate`; the stock UDFs' weighted forms draw the same
    /// weights, drop the same NaN replicates and agree to 1e-9. On values
    /// with ties, NaN (two
    /// payloads), ±0.0 and ±Inf, on the whole collected range and on the
    /// sub-ranges the diagnostic cuts (empty and one-value ones among
    /// them, whose resamples are often all-zero), for K of 1, 7 and 100.
    #[test]
    fn bootstrap_kernel_matches_the_reference(
        seed in 0u64..1_000_000,
        shape in (0usize..160, 1usize..12, 0usize..3, 0usize..1_000),
        cut in (0usize..4, 1usize..40, 0usize..8),
    ) {
        use bootstrap_oracle::{self as oracle, Theta};
        use rand::{Rng as _, RngExt};
        use reliable_aqp::diagnostics::{subsample_bounds, subsample_context};
        use reliable_aqp::exec::collect::{AggData, NestedData};
        use reliable_aqp::exec::theta::{
            bootstrap_ci_prepared, InnerAggregate, PreparedTheta,
        };
        use reliable_aqp::stats::Theta as EngineTheta;
        use reliable_aqp::exec::UdfRegistry;
        use reliable_aqp::stats::bootstrap::bootstrap_replicates;
        let _counter = RESAMPLE_COUNTER.lock().unwrap_or_else(|p| p.into_inner());

        let (n, n_codes, k_choice, special) = shape;
        let k = [1, 7, 100][k_choice];
        let alpha = 0.95;

        // Collected data: values from a small palette (ties) with special
        // cells mixed in at a per-case rate, ascending pre-filter
        // positions with gaps, inner codes below `n_codes`.
        let mut rng = rng_from_seed(seed);
        let nan2 = f64::from_bits(f64::NAN.to_bits() ^ 1);
        let specials = [0.0, -0.0, f64::NAN, nan2, -f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
        let special_rate = [0.0, 0.0, 0.05, 0.5][special % 4];
        let values: Vec<f64> = (0..n)
            .map(|_| {
                if rng.random_bool(special_rate) {
                    specials[rng.random_range(0..specials.len())]
                } else if rng.random_bool(0.5) {
                    rng.random_range(-6..7) as f64 / 2.0
                } else {
                    rng.random_range(0.01..900.0f64)
                }
            })
            .collect();
        let mut row = 0u32;
        let positions: Vec<u32> = (0..n)
            .map(|_| {
                row += rng.random_range(1..4u32);
                row - 1
            })
            .collect();
        let codes: Vec<u32> = (0..n).map(|_| rng.random_range(0..n_codes as u32)).collect();
        let data = AggData { values, positions, nested: Some(NestedData { codes, n_codes }) };
        let sample_rows = row as usize + 3;

        // The whole range, or the j-th run of b pre-filter rows.
        let (whole, b, j) = (cut.0 == 0, cut.1, cut.2);
        let sample = SampleContext::new(sample_rows, sample_rows * 7);
        let (range, ctx) = if whole {
            (0..n, sample)
        } else {
            let at = subsample_bounds(Some(&data.positions), n, sample_rows, b, j + 1);
            (at[j]..at[j + 1], subsample_context(&sample, sample_rows, b))
        };
        let values = &data.values[range.clone()];
        let codes = &data.nested.as_ref().unwrap().codes[range.clone()];

        // The stock library (weighted forms), and the same functions as
        // bare closures, which the engine can only expand.
        let stock = UdfRegistry::default();
        let mut opaque = UdfRegistry::empty();
        for name in oracle::STOCK_UDFS {
            let udf = stock.resolve(name).unwrap();
            prop_assert!(udf.has_weighted_form());
            let everything = SampleContext::population(0);
            opaque.register(name, Udf::new(name, move |xs| udf.estimate(xs, &everything)));
        }
        let resolve = |registry: &UdfRegistry, theta: Theta| match theta {
            Theta::Builtin(a) => EngineTheta::Builtin(a),
            Theta::Udf(name) => EngineTheta::Udf(registry.resolve(name).unwrap()),
        };
        let plain = |theta: Theta| resolve(&opaque, theta);
        let scale = values.iter().filter(|x| x.is_finite()).fold(1.0, |m: f64, x| m.max(x.abs()));
        let builtins = [
            Aggregate::Avg, Aggregate::Sum, Aggregate::Count, Aggregate::Variance,
            Aggregate::StdDev, Aggregate::Min, Aggregate::Max, Aggregate::Percentile(0.5),
            Aggregate::Percentile(0.9), Aggregate::Percentile(0.0), Aggregate::Percentile(1.0),
        ];
        let thetas: Vec<Theta> = builtins
            .into_iter()
            .map(Theta::Builtin)
            .chain(oracle::STOCK_UDFS.into_iter().map(Theta::Udf))
            .collect();

        for (ti, &theta) in thetas.iter().enumerate() {
            let job_seed = seed ^ (ti as u64) << 32;
            let center = oracle::estimate(theta, values, &ctx);
            let mut want_rng = rng_from_seed(job_seed);
            let (want_reps, want_ci) = oracle::bootstrap(
                &mut want_rng, center, values.len(),
                &|ws| oracle::estimate_weighted(theta, values, ws, &ctx), k, alpha,
            );

            // The engine's entry point, on the borrowed sub-range.
            let prepared = PreparedTheta { outer: plain(theta), inner: None };
            let mut got_rng = rng_from_seed(job_seed);
            // One binding serves θ̂ and, around it, the CI — as the
            // diagnostic uses it.
            let mut bound = prepared.bind(&data, range.clone(), &ctx);
            let got_center = bound.estimate();
            prop_assert_eq!(bits(&[got_center]), bits(&[center]), "{:?} point", theta);
            let got_ci = bootstrap_ci_prepared(&mut got_rng, &mut bound, got_center, k, alpha);
            prop_assert_eq!(ci_bits(got_ci), ci_bits(want_ci), "{:?} CI, range {:?}", theta, range);
            let want_rng_end = want_rng.next_u64();
            if !center.is_nan() {
                prop_assert_eq!(got_rng.next_u64(), want_rng_end, "{:?} generator", theta);
                // The replicates themselves, from the loop the CI ran.
                let mut rng = rng_from_seed(job_seed);
                let estimator = prepared.outer.as_estimator();
                let got_reps = bootstrap_replicates(
                    &mut rng, values.len(), k, &mut *estimator.replicator(values, &ctx),
                );
                prop_assert_eq!(bits(&got_reps), bits(&want_reps), "{:?} replicates", theta);
            }

            // The weighted form: the same draws, the same estimator.
            let Theta::Udf(name) = theta else { continue };
            let prepared = PreparedTheta { outer: resolve(&stock, theta), inner: None };
            let mut got_rng = rng_from_seed(job_seed);
            let mut bound = prepared.bind(&data, range.clone(), &ctx);
            let got_center = bound.estimate();
            prop_assert_eq!(bits(&[got_center]), bits(&[center]), "{} point", name);
            let got_ci = bootstrap_ci_prepared(&mut got_rng, &mut bound, got_center, k, alpha);
            prop_assert_eq!(got_ci.is_some(), want_ci.is_some(), "{} CI, range {:?}", name, range);
            if let (Some(got), Some(want)) = (got_ci, want_ci) {
                prop_assert_eq!(got.center.to_bits(), want.center.to_bits());
                prop_assert_eq!(got.confidence.to_bits(), want.confidence.to_bits());
                prop_assert!(
                    close(got.half_width, want.half_width, scale),
                    "{} half-width {:e} vs {:e}, range {:?}", name, got.half_width, want.half_width, range
                );
            }
            if !center.is_nan() {
                prop_assert_eq!(got_rng.next_u64(), want_rng_end, "{} generator", name);
                let mut rng = rng_from_seed(job_seed);
                let estimator = prepared.outer.as_estimator();
                let got_reps = bootstrap_replicates(
                    &mut rng, values.len(), k, &mut *estimator.replicator(values, &ctx),
                );
                for (i, (got, want)) in got_reps.iter().zip(&want_reps).enumerate() {
                    prop_assert!(close(*got, *want, scale), "{} replicate {}: {:e} vs {:e}", name, i, got, want);
                }
            }
        }

        // Nested plans: every inner aggregate under four outer ones.
        let inners = [
            InnerAggregate::Sum, InnerAggregate::Count, InnerAggregate::Avg,
            InnerAggregate::Min, InnerAggregate::Max,
        ];
        let outers = [
            Theta::Builtin(Aggregate::Avg), Theta::Builtin(Aggregate::Max),
            Theta::Builtin(Aggregate::Percentile(0.5)), Theta::Udf("geo_mean"),
        ];
        for (ti, (&inner, &outer)) in
            inners.iter().flat_map(|i| outers.iter().map(move |o| (i, o))).enumerate()
        {
            let job_seed = seed ^ (100 + ti as u64) << 32;
            let rows = (values, codes, n_codes);
            let center = oracle::nested((outer, inner), rows, None, &ctx);
            let mut want_rng = rng_from_seed(job_seed);
            let (want_reps, want_ci) = oracle::bootstrap(
                &mut want_rng, center, values.len(),
                &|ws| oracle::nested((outer, inner), rows, Some(ws), &ctx), k, alpha,
            );
            let prepared = PreparedTheta { outer: plain(outer), inner: Some(inner) };
            // One binding (one dense renumbering of the inner codes) for
            // the point estimate and the K replicates after it.
            let mut bound = prepared.bind(&data, range.clone(), &ctx);
            let got_center = bound.estimate();
            prop_assert_eq!(bits(&[got_center]), bits(&[center]), "{:?}({:?}) point", outer, inner);
            let mut got_rng = rng_from_seed(job_seed);
            let got_ci = bootstrap_ci_prepared(&mut got_rng, &mut bound, got_center, k, alpha);
            prop_assert_eq!(ci_bits(got_ci), ci_bits(want_ci), "{:?}({:?}) CI", outer, inner);
            if !center.is_nan() {
                prop_assert_eq!(got_rng.next_u64(), want_rng.next_u64(), "nested generator");
                // Replicate by replicate, on the weights the reference drew.
                let mut rng = rng_from_seed(job_seed);
                let got_reps = bootstrap_replicates(&mut rng, values.len(), k, &mut |ws| {
                    prepared.bind(&data, range.clone(), &ctx).estimate_weighted(ws)
                });
                prop_assert_eq!(bits(&got_reps), bits(&want_reps), "{:?}({:?})", outer, inner);
            }
        }
    }
}

// ---------------------------------------------------------------------
// The full evaluation of Algorithm 1: `evaluate_from_estimates` as it
// stood before the verdict-first driver (PR 16), kept as the reference.
// It takes the whole table of θ̂ and x̂ — every level, every subsample —
// computes xᵢ, Δᵢ, σᵢ, πᵢ for all of them and only then reads the checks.
// It skips nothing and stops nowhere, so it stays as the oracle of the
// driver that does (`diagnostics::kleiner::diagnose`).
// ---------------------------------------------------------------------

mod diagnostic_oracle {
    use reliable_aqp::diagnostics::DiagnosticConfig;
    use reliable_aqp::stats::ci::symmetric_half_width;

    /// θ̂ and ξ's half-width on each of the p subsamples of one level.
    #[derive(Debug, Clone)]
    pub struct Level {
        pub theta_hats: Vec<f64>,
        pub xi_half_widths: Vec<f64>,
    }

    #[derive(Debug, Clone, Copy)]
    pub struct LevelStats {
        pub x: f64,
        pub mean_deviation: f64,
        pub relative_spread: f64,
        pub close_proportion: f64,
        /// Meaningful for i ≥ 1 only; `true` at level 0.
        pub deviation_ok: bool,
        pub spread_ok: bool,
    }

    #[derive(Debug)]
    pub struct Full {
        pub levels: Vec<LevelStats>,
        pub final_proportion_ok: bool,
        pub accepted: bool,
    }

    fn mean(xs: &[f64]) -> f64 {
        xs.iter().sum::<f64>() / xs.len() as f64
    }

    fn stddev(xs: &[f64]) -> f64 {
        if xs.len() < 2 {
            return 0.0;
        }
        let m = mean(xs);
        (xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / (xs.len() - 1) as f64).sqrt()
    }

    /// Whether ξ's half-width `xh` counts towards π at truth `x > 0`.
    pub fn close(xh: f64, x: f64, c3: f64) -> bool {
        xh.is_finite() && ((xh - x) / x).abs() <= c3
    }

    pub fn evaluate(theta_s: f64, levels: &[Level], cfg: &DiagnosticConfig) -> Full {
        let mut reports: Vec<LevelStats> = Vec::with_capacity(levels.len());
        for level in levels {
            let t_hats: Vec<f64> =
                level.theta_hats.iter().copied().filter(|t| t.is_finite()).collect();
            let x_hats: Vec<f64> =
                level.xi_half_widths.iter().copied().filter(|x| x.is_finite()).collect();
            let p = level.theta_hats.len().max(1);

            if t_hats.is_empty() || x_hats.is_empty() {
                reports.push(LevelStats {
                    x: f64::NAN,
                    mean_deviation: f64::INFINITY,
                    relative_spread: f64::INFINITY,
                    close_proportion: 0.0,
                    deviation_ok: false,
                    spread_ok: false,
                });
                continue;
            }

            let x = symmetric_half_width(theta_s, &t_hats, cfg.alpha);
            let (mean_dev, spread, close) = if x > 0.0 {
                let d = (mean(&x_hats) - x).abs() / x;
                let s = stddev(&x_hats) / x;
                let close =
                    level.xi_half_widths.iter().filter(|&&xh| close(xh, x, cfg.c3)).count() as f64
                        / p as f64;
                (d, s, close)
            } else {
                let all_zero = x_hats.iter().all(|&xh| xh.abs() < 1e-12);
                if all_zero {
                    (0.0, 0.0, 1.0)
                } else {
                    (f64::INFINITY, f64::INFINITY, 0.0)
                }
            };
            reports.push(LevelStats {
                x,
                mean_deviation: mean_dev,
                relative_spread: spread,
                close_proportion: close,
                deviation_ok: true,
                spread_ok: true,
            });
        }

        let mut accepted = true;
        for i in 1..reports.len() {
            let dev_ok = reports[i].mean_deviation < reports[i - 1].mean_deviation
                || reports[i].mean_deviation < cfg.c1;
            let spread_ok = reports[i].relative_spread < reports[i - 1].relative_spread
                || reports[i].relative_spread < cfg.c2;
            reports[i].deviation_ok = dev_ok;
            reports[i].spread_ok = spread_ok;
            accepted &= dev_ok && spread_ok;
        }
        let final_proportion_ok =
            reports.last().map(|r| r.close_proportion >= cfg.rho).unwrap_or(false);
        accepted &= final_proportion_ok;
        Full { levels: reports, final_proportion_ok, accepted }
    }
}

/// `x` moved `ulps` representable values up (or down).
fn nudge(x: f64, ulps: i64) -> f64 {
    f64::from_bits((x.to_bits() as i64 + ulps) as u64)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 384, ..ProptestConfig::default() })]

    /// The verdict-first driver returns the verdict of the full evaluation
    /// and names a check that evaluation also finds failed; every level it
    /// reports in full carries the reference's x, Δ, σ, π bit for bit; and
    /// a counting source shows it asked for nothing the verdict did not
    /// need. Tables of 1–4 levels and p of 2–40 mix benign levels, levels
    /// that miss c₃ at a chosen rate (among them exactly as many misses as
    /// ρ·p allows, one fewer and one more), NaN / ±Inf θ̂ and ξ, all-NaN
    /// levels, degenerate truth under zero, tiny and non-zero ξ, and ξ
    /// placed a few ulp either side of c₁, c₂ and c₃. A random share of a
    /// level's subsamples — or all of them, or on the last level a run the
    /// π stop falls inside — holds no value: those share one θ̂∅ and one ξ∅
    /// (NaN, 0, ±Inf or finite), and `diagnose` pulls them like any other.
    #[test]
    fn lazy_diagnostic_matches_the_full_evaluation(
        seed in 0u64..1_000_000,
        shape in (1usize..5, 2usize..41, 0usize..6, 0usize..4),
    ) {
        use diagnostic_oracle::{self as oracle, Level};
        use rand::RngExt;
        use reliable_aqp::diagnostics::{diagnose, Criterion, Decision, DiagnosticConfig};
        use std::cell::RefCell;

        let (k, p, rho_choice, c_choice) = shape;
        let mut rng = rng_from_seed(seed);
        let rho = [0.95, 0.9, 0.75, 0.5, 1.0, nudge(0.95, rng.random_range(-3..4))][rho_choice];
        let (c1, c2, c3) = [(0.2, 0.2, 0.5), (0.2, 0.2, 0.5), (0.05, 0.3, 0.1), (1.0, 0.01, 2.0)][c_choice];
        let cfg = DiagnosticConfig {
            p,
            subsample_rows: (1..=k).map(|i| 10 << i).collect(),
            c1, c2, c3, rho,
            alpha: 0.95,
        };
        // Fewest close subsamples that satisfy π ≥ ρ, by the final test's
        // own expression.
        let need = (0..=p).find(|&n| n as f64 / p as f64 >= rho);

        // θ(S) = 0 and θ̂ = ±s make the truth exactly s at any α.
        let theta_s = if rng.random_bool(0.1) { f64::NAN } else { 0.0 };
        let specials = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
        let mut levels: Vec<Level> = Vec::with_capacity(k);
        for li in 0..k {
            let s = 8.0 / (1u64 << li) as f64 * rng.random_range(0.9..1.1);
            let mut theta_hats: Vec<f64> =
                (0..p).map(|j| if j % 2 == 0 { s } else { -s }).collect();
            // The last level is benign more often than not, so that the
            // walk down the ladder is what most cases exercise.
            let kind = if li == k - 1 && rng.random_bool(0.4) { 0 } else { rng.random_range(0..10u32) };
            let mut xi: Vec<f64> = match kind {
                // ξ right up to noise; the noise decides Δ and σ.
                0..=2 => {
                    let noise = [0.0, 0.01, 0.15, 0.4][rng.random_range(0..4usize)];
                    (0..p).map(|_| s * (1.0 + rng.random_range(-1.0..=1.0) * noise)).collect()
                }
                // A chosen number of subsamples far off, at random places:
                // what ρ·p allows, one fewer, one more, or any.
                3..=4 => {
                    let allowed = need.map_or(0, |n| p - n);
                    let misses = match rng.random_range(0..4u32) {
                        0 => allowed.saturating_sub(1),
                        1 => allowed,
                        2 => (allowed + 1).min(p),
                        _ => rng.random_range(0..=p),
                    };
                    let mut widths = vec![s; p];
                    let mut left = misses;
                    while left > 0 {
                        let j = rng.random_range(0..p);
                        if widths[j] == s {
                            widths[j] = if rng.random_bool(0.2) { f64::NAN } else { s * 40.0 };
                            left -= 1;
                        }
                    }
                    widths
                }
                // Every ξ the same, a few ulp either side of where Δ meets
                // c₁ (σ = 0) or where a subsample stops being close (c₃).
                5 => {
                    let at = if rng.random_bool(0.5) { c1 } else { c3 };
                    let up = rng.random_bool(0.5);
                    let v = if up { s * (1.0 + at) } else { s * (1.0 - at) };
                    vec![nudge(v, rng.random_range(-3..4)); p]
                }
                // Two values ±d around s: Δ ≈ 0 and σ a few ulp either
                // side of c₂ (exactly for even p, nearly for odd).
                6 => {
                    let d = s * c2 * ((p - 1) as f64 / p as f64).sqrt();
                    let d = nudge(d, rng.random_range(-3..4));
                    (0..p).map(|j| if j % 2 == 0 { s + d } else { s - d }).collect()
                }
                // Degenerate truth: every θ̂ is θ(S); ξ all zero, tiny, or
                // non-zero somewhere.
                7 => {
                    theta_hats = vec![0.0; p];
                    let mut widths = vec![[0.0, 1e-13, -1e-13][rng.random_range(0..3usize)]; p];
                    if rng.random_bool(0.5) {
                        widths[rng.random_range(0..p)] = [1e-12, 0.3, f64::INFINITY, f64::NAN][rng.random_range(0..4usize)];
                    }
                    widths
                }
                // A level θ or ξ is degenerate on everywhere.
                8 => {
                    if rng.random_bool(0.5) {
                        theta_hats = vec![f64::NAN; p];
                    }
                    if rng.random_bool(0.7) { vec![f64::NAN; p] } else { vec![s; p] }
                }
                // Anything, specials included.
                _ => (0..p).map(|_| s * rng.random_range(0.0..3.0f64)).collect(),
            };
            if rng.random_bool(0.25) {
                let rate = [0.02, 0.2, 0.9][rng.random_range(0..3usize)];
                for j in 0..p {
                    if rng.random_bool(rate) {
                        theta_hats[j] = specials[rng.random_range(0..3usize)];
                    }
                    if rng.random_bool(rate) {
                        xi[j] = specials[rng.random_range(0..3usize)];
                    }
                }
            }
            // Empty subsamples, filled in the dense table with the one θ̂∅
            // and ξ∅ they share.
            let mut level_empty = vec![false; p];
            if rng.random_bool(0.4) {
                let mut t_empty = [f64::NAN, 0.0, f64::INFINITY, f64::NEG_INFINITY, s, -s][rng.random_range(0..6usize)];
                let mut xi_empty = [f64::NAN, 0.0, f64::INFINITY, f64::NEG_INFINITY, s, s * 40.0][rng.random_range(0..6usize)];
                if li == k - 1 && rng.random_bool(0.3) {
                    // A run of missed empties one longer than ρ·p allows:
                    // on an otherwise close level the π stop fires inside it.
                    let allowed = need.map_or(0, |n| p - n);
                    let start = rng.random_range(0..p);
                    level_empty[start..(start + allowed + 1 + rng.random_range(0..3usize)).min(p)].fill(true);
                    (t_empty, xi_empty) = (s, [s * 40.0, f64::NAN][rng.random_range(0..2usize)]);
                } else {
                    let rate = [0.1, 0.5, 0.9, 1.0][rng.random_range(0..4usize)];
                    level_empty.iter_mut().for_each(|e| *e = rng.random_bool(rate));
                }
                for j in (0..p).filter(|&j| level_empty[j]) {
                    (theta_hats[j], xi[j]) = (t_empty, xi_empty);
                }
            }
            levels.push(Level { theta_hats, xi_half_widths: xi });
        }

        // The counting source: for which subsamples of each level, in
        // which order, θ̂ was asked for, and ξ — with how many θ̂ the level
        // had been asked for by then.
        let theta_calls: Vec<RefCell<Vec<usize>>> = vec![RefCell::new(Vec::new()); k];
        let xi_calls: Vec<RefCell<Vec<(usize, usize)>>> = vec![RefCell::new(Vec::new()); k];
        let got = diagnose(
            theta_s,
            cfg.p,
            &cfg,
            cfg.alpha,
            |l, j| {
                theta_calls[l].borrow_mut().push(j);
                (levels[l].theta_hats[j], ())
            },
            |l, j, theta_hat, ()| {
                assert_eq!(bits(&[theta_hat]), bits(&[levels[l].theta_hats[j]]), "θ̂ handed to ξ");
                xi_calls[l].borrow_mut().push((j, theta_calls[l].borrow().len()));
                levels[l].xi_half_widths[j]
            },
        );
        let want = oracle::evaluate(theta_s, &levels, &cfg);
        let last = k - 1;

        // Same verdict, for a reason the full evaluation agrees with.
        prop_assert_eq!(got.accepted, want.accepted, "{:?}\n{:?}\n{:?}", got, want, levels);
        prop_assert_eq!(got.accepted, got.decision == Decision::Accepted);
        let lowest_read = match got.decision.clone() {
            Decision::Accepted => {
                // Level 0 is read only if level 1's check had to compare.
                let l1_small = k >= 2
                    && want.levels[1].mean_deviation < c1
                    && want.levels[1].relative_spread < c2;
                if l1_small { 1 } else { 0 }
            }
            Decision::Failed { criterion: Criterion::Proportion, level } => {
                prop_assert_eq!(level, last);
                prop_assert!(!want.final_proportion_ok);
                last
            }
            Decision::Failed { criterion, level } => {
                prop_assert!(level >= 1 && want.final_proportion_ok);
                // Every check above the deciding one held.
                prop_assert!(want.levels[level + 1..].iter().all(|l| l.deviation_ok && l.spread_ok));
                let l = &want.levels[level];
                match criterion {
                    Criterion::Deviation => prop_assert!(!l.deviation_ok),
                    _ => prop_assert!(l.deviation_ok && !l.spread_ok),
                }
                level - 1
            }
            Decision::Refused(why) => {
                prop_assert!(false, "refused: {}", why);
                0
            }
        };

        // Laziness: nothing below the lowest level a check read; every
        // level at or above it asked for θ̂ on j = 0..p in order, all before
        // its first ξ, and for ξ in order and once over the subsamples the
        // walk reached.
        let reported: Vec<usize> = got.levels.iter().map(|l| l.level).collect();
        prop_assert_eq!(&reported, &(lowest_read..k).collect::<Vec<_>>(), "{:?}", got.decision);
        for l in 0..k {
            let (thetas, asked) = (theta_calls[l].borrow(), xi_calls[l].borrow());
            if l < lowest_read {
                prop_assert_eq!((thetas.len(), asked.len()), (0, 0), "level {} untouched", l);
                continue;
            }
            let (report, full) = (&got.levels[l - lowest_read], &want.levels[l]);
            prop_assert_eq!(&*thetas, &(0..p).collect::<Vec<_>>(), "θ̂ at level {}", l);
            prop_assert!(asked.iter().all(|&(_, before)| before == p), "ξ before every θ̂ of level {}", l);
            let xi_order: Vec<usize> = asked.iter().map(|&(j, _)| j).collect();
            prop_assert_eq!(xi_order, (0..report.xi_evaluated).collect::<Vec<_>>(), "ξ at level {}", l);

            // From the table: the level's truth, and how many ξ its
            // outcome needs.
            let t_hats: Vec<f64> =
                levels[l].theta_hats.iter().copied().filter(|t| t.is_finite()).collect();
            let xs = &levels[l].xi_half_widths;
            let x = if t_hats.is_empty() { f64::NAN } else { symmetric_half_width(theta_s, &t_hats, 0.95) };
            prop_assert_eq!(bits(&[report.x]), bits(&[x]), "x at level {}", l);
            if xs.iter().any(|xh| xh.is_finite()) {
                // (Without a finite ξ the reference does not get to x.)
                prop_assert_eq!(bits(&[full.x]), bits(&[x]));
            }
            let mut pi_stop = None;
            let needed = if t_hats.is_empty() {
                0
            } else if x.is_nan() || x <= 0.0 {
                // Degenerate truth: up to the first finite non-zero ξ.
                xs.iter().position(|xh| xh.is_finite() && xh.abs() >= 1e-12).map_or(p, |j| j + 1)
            } else if l == last {
                // The π stop: the miss that puts ρ·p out of reach, no later.
                let allowed = need.map_or(0, |n| p - n);
                let mut misses = 0;
                pi_stop = xs.iter().position(|&xh| {
                    misses += usize::from(!oracle::close(xh, x, c3));
                    misses > allowed
                });
                prop_assert_eq!(pi_stop.is_some(), !want.final_proportion_ok);
                pi_stop.map_or(p, |j| j + 1)
            } else {
                p
            };
            prop_assert_eq!(report.xi_evaluated, needed, "ξ walk at level {} ({:?})", l, got.decision);
            if pi_stop.is_none() {
                let stats = [report.mean_deviation, report.relative_spread, report.close_proportion];
                let full = [full.mean_deviation, full.relative_spread, full.close_proportion];
                prop_assert_eq!(bits(&stats), bits(&full), "Δ, σ, π at level {}", l);
            } else {
                prop_assert!(report.mean_deviation.is_nan() && report.relative_spread.is_nan());
            }
        }
    }
}

// ---------------------------------------------------------------------
// Bars on demand: `execute_approx` asks the diagnostic first and computes
// the error bars of the cells it accepted; the refused cells' bars wait
// for `ApproxResult::fill_refused_bars`. The reference is the order the
// engine ran before — stage 3, ξ over the whole range of *every* cell,
// then stage 4, Algorithm 1 per cell — rebuilt here from `collect`, the
// prepared θs, the stats-level intervals and the diagnostic driver, with
// nothing of `exec::engine` in it.
// ---------------------------------------------------------------------

/// Held by every test here that draws bootstrap resamples: they all count
/// on the one process-wide `aqp.stats.bootstrap_resamples`, and
/// `lazy_bars_match_the_eager_pipeline` asserts exact deltas of it.
static RESAMPLE_COUNTER: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn resamples_drawn() -> u64 {
    reliable_aqp::obs::MetricsRegistry::global()
        .counter(reliable_aqp::obs::name::STATS_BOOTSTRAP_RESAMPLES)
        .get()
}

mod eager_pipeline {
    use reliable_aqp::diagnostics::{diagnose, subsample_bounds, subsample_context, DiagnosticConfig, DiagnosticReport};
    use reliable_aqp::exec::collect::scan;
    use reliable_aqp::exec::engine::MethodChoice;
    use reliable_aqp::exec::result::MethodUsed;
    use reliable_aqp::exec::theta::{
        bootstrap_ci_prepared, closed_form_ci_prepared, BoundTheta, PreparedTheta,
    };
    use reliable_aqp::exec::{ApproxOptions, ExecError, UdfRegistry};
    use reliable_aqp::faults::FaultInjector;
    use reliable_aqp::obs::Clock;
    use reliable_aqp::sql::LogicalPlan;
    use reliable_aqp::stats::ci::Ci;
    use reliable_aqp::stats::estimator::SampleContext;
    use reliable_aqp::stats::rng::SeedStream;
    use reliable_aqp::storage::Table;

    /// One (group, aggregate) cell of the eager pipeline: it always has
    /// its bars, whatever the verdict.
    #[derive(Debug)]
    pub struct Cell {
        pub key: String,
        pub estimate: f64,
        pub ci: Option<Ci>,
        pub method: MethodUsed,
        pub report: DiagnosticReport,
    }

    pub struct Eager {
        pub cells: Vec<Cell>,
        /// Resamples drawn by stage 3 and by stage 4.
        pub bar_resamples: u64,
        pub ladder_resamples: u64,
    }

    /// ξ as `MethodChoice::Auto` picks it: the closed form when there is
    /// one, else K resamples from `seeds.rng(label)`.
    fn xi(
        bound: &mut BoundTheta<'_>,
        center: f64,
        opts: &ApproxOptions,
        seeds: &SeedStream,
        label: u64,
    ) -> (Option<Ci>, MethodUsed) {
        assert_eq!(opts.method, MethodChoice::Auto);
        if let Some(ci) = closed_form_ci_prepared(bound, opts.alpha) {
            return (Some(ci), MethodUsed::ClosedForm);
        }
        let mut rng = seeds.rng(label);
        match bootstrap_ci_prepared(&mut rng, bound, center, opts.bootstrap_k, opts.alpha) {
            Some(ci) => (Some(ci), MethodUsed::Bootstrap),
            None => (None, MethodUsed::None),
        }
    }

    /// Stage 3 for every cell, then stage 4 for every cell, on a uniform
    /// sample. `Err` is the scan's typed refusal.
    pub fn run(
        plan: &LogicalPlan,
        sample: &Table,
        population_rows: usize,
        registry: &UdfRegistry,
        opts: &ApproxOptions,
        cfg: &DiagnosticConfig,
    ) -> Result<Eager, ExecError> {
        let injector = opts.faults.as_ref().map(FaultInjector::new);
        let (collected, _, faults) =
            scan(plan, sample, 1, &Clock::mock(), injector.as_ref(), true)?;
        let degraded = faults.filter(|f| f.degraded());
        let widen = degraded.as_ref().map_or(1.0, |f| f.widen_factor());
        // A degraded run judges the sample that survived.
        let mut cfg = cfg.clone();
        if let Some(f) = degraded.as_ref().filter(|f| f.planned_rows > 0) {
            let ratio = f.effective_rows as f64 / f.planned_rows as f64;
            for b in &mut cfg.subsample_rows {
                *b = ((*b as f64 * ratio).round() as usize).max(1);
            }
            cfg.subsample_rows.dedup();
        }
        let rows = collected.pre_filter_rows;
        let ctx = SampleContext::new(rows, population_rows);
        let seeds = SeedStream::new(opts.seed);
        let thetas: Vec<PreparedTheta> = collected
            .agg_exprs
            .iter()
            .map(|a| PreparedTheta::prepare(a, collected.inner_agg.as_ref(), registry))
            .collect::<Result<_, _>>()?;

        let before = super::resamples_drawn();
        let mut cells = Vec::new();
        for (gi, g) in collected.groups.iter().enumerate() {
            for (ai, data) in g.aggs.iter().enumerate() {
                let mut whole = thetas[ai].bind(data, 0..data.values.len(), &ctx);
                let estimate = whole.estimate();
                let job_seeds = seeds.derive(0xC1).derive((gi * 64 + ai) as u64);
                let (mut ci, method) = xi(&mut whole, estimate, opts, &job_seeds, 0);
                if let Some(ci) = ci.as_mut().filter(|_| widen > 1.0) {
                    *ci = Ci::new(ci.center, ci.half_width * widen, ci.confidence);
                }
                cells.push((g.key.clone(), estimate, ci, method));
            }
        }
        let bars_done = super::resamples_drawn();

        let mut out = Vec::with_capacity(cells.len());
        let mut cells = cells.into_iter();
        for (gi, g) in collected.groups.iter().enumerate() {
            for (ai, data) in g.aggs.iter().enumerate() {
                let (key, estimate, ci, method) = cells.next().expect("one per cell");
                let job_seeds = seeds.derive(0xD1).derive((gi * 64 + ai) as u64);
                let report = diagnose(
                    estimate,
                    data.values.len(),
                    &cfg,
                    opts.alpha,
                    |level, j| {
                        let b = cfg.subsample_rows[level];
                        let at = subsample_bounds(Some(&data.positions), data.values.len(), rows, b, cfg.p);
                        let sub = subsample_context(&ctx, rows, b);
                        let mut bound = thetas[ai].bind(data, at[j]..at[j + 1], &sub);
                        (bound.estimate(), bound)
                    },
                    |level, j, theta_hat, mut bound| {
                        let level_seeds = job_seeds.derive(level as u64);
                        let (ci, _) = xi(&mut bound, theta_hat, opts, &level_seeds, j as u64);
                        ci.map_or(f64::NAN, |ci| ci.half_width)
                    },
                );
                out.push(Cell { key, estimate, ci, method, report });
            }
        }
        Ok(Eager {
            cells: out,
            bar_resamples: bars_done - before,
            ladder_resamples: super::resamples_drawn() - bars_done,
        })
    }
}

const LAZY_BAR_QUERIES: &[&str] = &[
    "SELECT AVG(time) FROM sessions{}",
    "SELECT SUM(bytes), COUNT(*) FROM sessions{}",
    "SELECT VARIANCE(time), STDDEV(bitrate) FROM sessions{}",
    "SELECT MAX(time) FROM sessions{}",
    "SELECT PERCENTILE(time, 90), MIN(bitrate) FROM sessions{}",
    "SELECT trimmed_mean(time) FROM sessions{}",
    "SELECT AVG(s) FROM (SELECT SUM(time) AS s FROM sessions{} GROUP BY user_id)",
    "SELECT city, AVG(time), MAX(bitrate) FROM sessions{} GROUP BY city",
    // 80 Zipf users: a few with more values than p, most with fewer, so
    // most of their subsamples hold no value.
    "SELECT user_id, AVG(time), MAX(bitrate), SUM(bytes), COUNT(*) FROM sessions{} GROUP BY user_id",
];

const LAZY_BAR_FILTERS: &[&str] =
    &["", " WHERE is_mobile = true", " WHERE bitrate > 1200", " WHERE time < 60 AND buffer_ratio < 0.5"];

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// The lazy order gives what the eager one gave: every cell's estimate
    /// and report; the bars of every cell the diagnostic did not refuse,
    /// bit for bit; no bars on a refused cell until they are asked for, and
    /// then the eager pipeline's — interval, method and widen factor — bit
    /// for bit. It draws exactly the resamples of the ladder and of the
    /// bars it computed, and the fill exactly those of the bars it skipped.
    #[test]
    fn lazy_bars_match_the_eager_pipeline(
        query in (0usize..LAZY_BAR_QUERIES.len(), 0usize..LAZY_BAR_FILTERS.len()),
        seeds in (0u64..8, 0u64..1_000),
        four_threads in any::<bool>(),
        fault_seed in prop::option::of(0u64..1_000),
        p in 8usize..17,
    ) {
        use reliable_aqp::diagnostics::DiagnosticConfig;
        use reliable_aqp::exec::result::MethodUsed;
        use reliable_aqp::exec::{execute_approx, ApproxOptions, ExecError, UdfRegistry};
        use reliable_aqp::obs::{Clock, ObsHandle};
        use reliable_aqp::sql::plan_query;
        use reliable_aqp::workload::conviva_sessions_table;

        const POPULATION_ROWS: usize = 80_000;
        const K: usize = 24;
        let sql = LAZY_BAR_QUERIES[query.0].replace("{}", LAZY_BAR_FILTERS[query.1]);
        let sample = conviva_sessions_table(4_000, 8, seeds.0);
        let plan = plan_query(&parse_query(&sql).unwrap(), sample.schema()).unwrap();
        let registry = UdfRegistry::default();
        let cfg = DiagnosticConfig::scaled_to(4_000, p);
        let faults = fault_seed.map(|seed| {
            fault_config_from((seed, 0.15, 0.0, 0.0), (0.4, 0.5, 0.0), (0, false))
        });
        let opts = ApproxOptions {
            seed: seeds.1,
            bootstrap_k: K,
            threads: if four_threads { 4 } else { 1 },
            diagnostic: Some(cfg.clone()),
            obs: ObsHandle::isolated(Clock::mock()),
            faults,
            ..Default::default()
        };

        let _counter = RESAMPLE_COUNTER.lock().unwrap_or_else(|p| p.into_inner());
        let eager = eager_pipeline::run(&plan, &sample, POPULATION_ROWS, &registry, &opts, &cfg);
        let before = resamples_drawn();
        let lazy = execute_approx(&plan, &sample, POPULATION_ROWS, &registry, &opts);
        let lazy_drew = resamples_drawn() - before;
        let both = match (eager, lazy) {
            (Ok(e), Ok(l)) => Some((e, l)),
            // Every partition lost: both orders refuse alike.
            (Err(ExecError::Unrecoverable(_)), Err(ExecError::Unrecoverable(_))) => None,
            (e, l) => panic!("{sql}: eager {:?} vs lazy {:?}", e.map(|e| e.cells), l.map(|l| l.groups)),
        };
        if let Some((eager, mut lazy)) = both {
            let cells = |r: &reliable_aqp::exec::ApproxResult| -> Vec<(String, reliable_aqp::exec::AggResult)> {
                r.groups.iter().flat_map(|g| g.aggs.iter().map(|a| (g.key.clone(), a.clone()))).collect()
            };
            let served = cells(&lazy);
            prop_assert_eq!(served.len(), eager.cells.len(), "{}", &sql);
            let (mut kept_bootstrap, mut refused_bootstrap) = (0u64, 0u64);
            for ((key, got), want) in served.iter().zip(&eager.cells) {
                prop_assert_eq!(key, &want.key);
                prop_assert_eq!(got.estimate.to_bits(), want.estimate.to_bits(), "{} {}", &sql, key);
                let report = got.diagnostic.as_ref().expect("the diagnostic ran");
                prop_assert_eq!(format!("{report:?}"), format!("{:?}", want.report), "{} {}", &sql, key);
                if report.accepted {
                    prop_assert_eq!(ci_bits(got.ci), ci_bits(want.ci), "{} {}", &sql, key);
                    prop_assert_eq!(got.method, want.method);
                    kept_bootstrap += u64::from(want.method == MethodUsed::Bootstrap);
                } else {
                    prop_assert!(got.refused() && got.ci.is_none() && got.method == MethodUsed::None,
                        "{sql} {key}: a refused cell left the executor with {:?} {:?}", got.ci, got.method);
                    refused_bootstrap += u64::from(want.method == MethodUsed::Bootstrap);
                }
            }
            // Resamples: K per bootstrap job, counted where they are drawn.
            prop_assert_eq!(eager.bar_resamples, (kept_bootstrap + refused_bootstrap) * K as u64);
            prop_assert_eq!(lazy_drew, eager.ladder_resamples + kept_bootstrap * K as u64, "{}", &sql);

            let before = resamples_drawn();
            let refused = served.iter().filter(|(_, a)| a.refused()).count();
            prop_assert_eq!(lazy.fill_refused_bars(&opts), (refused, (refused_bootstrap * K as u64) as usize));
            prop_assert_eq!(resamples_drawn() - before, refused_bootstrap * K as u64, "{}", &sql);
            for ((key, got), want) in cells(&lazy).iter().zip(&eager.cells) {
                prop_assert_eq!(ci_bits(got.ci), ci_bits(want.ci), "{} {} after the fill", &sql, key);
                prop_assert_eq!(got.method, want.method);
            }
            // Nothing is left to fill, and nothing more is drawn.
            prop_assert_eq!(lazy.fill_refused_bars(&opts), (0, 0));
            prop_assert_eq!(resamples_drawn() - before, refused_bootstrap * K as u64);
        }
    }
}

// ---------------------------------------------------------------------
// Samples gathered from a table's partitions vs the cell-wise reference.
//
// `gather_oracle::reference` is the semantics a sample has always had,
// written from `Column::value`: the parts laid end to end one `Value` at
// a time, re-encoded through `from_opt_*` / `from_strs` (so a NULL holds
// the type's zero, the mask is kept when any cell is NULL, and the
// dictionary lists the non-NULL strings in first-seen row order), then
// `Column::gather`. `Table::gather` and `Column::gather_parts` read the
// partitions in place and must write the same column, every bit.
// ---------------------------------------------------------------------

mod gather_oracle {
    use rand::RngExt;
    use reliable_aqp::stats::rng::rng_from_seed;
    use reliable_aqp::storage::{Column, DataType, StorageError, Value};

    /// The rows at `indices` of `parts` laid end to end, cell by cell.
    pub fn reference(parts: &[&Column], indices: &[usize]) -> Result<Column, StorageError> {
        let cells: Vec<Value> =
            parts.iter().flat_map(|c| (0..c.len()).map(move |i| c.value(i).unwrap())).collect();
        let mask: Vec<bool> = cells.iter().map(|v| !v.is_null()).collect();
        let validity = mask.contains(&false).then_some(mask);
        let whole = match parts[0].data_type() {
            DataType::Int => Column::from_opt_i64s(
                cells.iter().map(|v| if let Value::Int(x) = v { Some(*x) } else { None }).collect(),
            ),
            DataType::Float => Column::from_opt_f64s(
                cells.iter().map(|v| if let Value::Float(x) = v { Some(*x) } else { None }).collect(),
            ),
            DataType::Bool => Column::Bool {
                values: cells.iter().map(|v| *v == Value::Bool(true)).collect(),
                validity,
            },
            DataType::Str => {
                let strs: Vec<&str> = cells.iter().filter_map(Value::as_str).collect();
                let Column::Str { dict, codes: dense, .. } = Column::from_strs(&strs) else {
                    unreachable!()
                };
                let mut dense = dense.into_iter();
                let codes =
                    cells.iter().map(|v| if v.is_null() { 0 } else { dense.next().unwrap() }).collect();
                Column::Str { dict, codes, validity }
            }
        };
        whole.gather(indices)
    }

    /// Equal as columns, floats compared by their bits.
    pub fn same(a: &Column, b: &Column) -> bool {
        match (a, b) {
            (Column::Float { values: x, validity: vx }, Column::Float { values: y, validity: vy }) => {
                vx == vy && x.iter().map(|v| v.to_bits()).eq(y.iter().map(|v| v.to_bits()))
            }
            _ => a == b,
        }
    }

    /// A column of type `t` and `rows` rows. Its mask is absent, present
    /// without a NULL, or holding NULLs whose placeholders are not zero;
    /// floats include two NaN payloads and ±0.0; a string column's
    /// `dict` may repeat an entry and hold entries no row uses, and its
    /// strings include `'NULL'`.
    pub fn column(seed: u64, t: usize, rows: usize, dict: &[&str]) -> Column {
        let mut rng = rng_from_seed(seed);
        let null_rate = [0.0, 0.0, 0.1, 0.5][rng.random_range(0..4usize)];
        let keep_mask = null_rate > 0.0 || rng.random_bool(0.5);
        let mask: Vec<bool> = (0..rows).map(|_| !rng.random_bool(null_rate)).collect();
        let validity = keep_mask.then_some(mask.clone());
        let floats = [f64::NAN, f64::from_bits(f64::NAN.to_bits() ^ 1), -0.0, 0.0, 1.5, -2.25];
        let mut pick = |n: usize| rng.random_range(0..n);
        match t {
            0 => Column::Int { values: (0..rows).map(|_| pick(7) as i64 - 3).collect(), validity },
            1 => Column::Float { values: (0..rows).map(|_| floats[pick(floats.len())]).collect(), validity },
            2 => Column::Bool { values: (0..rows).map(|_| pick(2) == 1).collect(), validity },
            _ => Column::Str {
                dict: dict.iter().map(|s| s.to_string()).collect(),
                codes: (0..rows).map(|_| pick(dict.len()) as u32).collect(),
                validity,
            },
        }
    }

    /// A dictionary drawn from a pool with `'NULL'` and a repeated `"a"`,
    /// in a seed-dependent order and length.
    pub fn dict(seed: u64) -> Vec<&'static str> {
        let mut rng = rng_from_seed(seed ^ 0xD1C7);
        let pool = ["a", "b", "NULL", "a", "c", "", "d"];
        let len = rng.random_range(1..pool.len() + 1);
        (0..len).map(|_| pool[rng.random_range(0..pool.len())]).collect()
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 200, ..ProptestConfig::default() })]

    /// `Table::gather` on random multi-partition tables (up to 12
    /// partitions over up to 60 rows, so some are empty) with a column of
    /// every type equals the cell-wise reference: values, NULL
    /// placeholders, masks, dictionaries and codes; indices repeat, and
    /// an out-of-range index gives the reference's error.
    #[test]
    fn table_gather_matches_the_cell_wise_reference(
        seed in 0u64..1_000_000,
        rows in 0usize..60,
        partitions in 1usize..12,
        picks in (0usize..80, 0usize..3),
    ) {
        use rand::RngExt;
        use reliable_aqp::storage::{Batch, Column, DataType, Field, Schema, Table};
        let types = [DataType::Int, DataType::Float, DataType::Bool, DataType::Str];
        let dict = gather_oracle::dict(seed);
        let columns: Vec<Column> =
            (0..4).map(|t| gather_oracle::column(seed + t as u64, t, rows, &dict)).collect();
        let fields = types.iter().enumerate().map(|(t, &ty)| Field::new(format!("c{t}"), ty)).collect();
        let batch = Batch::new(Schema::new(fields).unwrap(), columns).unwrap();
        let table = Table::from_batch("t", batch, partitions).unwrap();
        let mut rng = rng_from_seed(seed ^ 0x6A7);
        let mut indices: Vec<usize> = (0..picks.0).map(|_| rng.random_range(0..rows.max(1))).collect();
        if picks.1 == 0 || rows == 0 {
            // One index past the end, somewhere in the list.
            let at = rng.random_range(0..indices.len() + 1);
            indices.insert(at, rows + rng.random_range(0..3usize));
        }
        let got = table.gather(&indices);
        for t in 0..4 {
            let parts: Vec<&Column> = table.partitions().iter().map(|p| p.batch().column(t)).collect();
            match (&got, gather_oracle::reference(&parts, &indices)) {
                (Ok(batch), Ok(want)) => prop_assert!(
                    gather_oracle::same(batch.column(t), &want),
                    "column {t}: {:?} vs {want:?}", batch.column(t)
                ),
                (Err(e), Err(want)) => prop_assert_eq!(e, &want),
                (got, want) => prop_assert!(false, "{got:?} vs {want:?}"),
            }
        }
        if let Ok(batch) = &got {
            prop_assert_eq!(batch.num_rows(), indices.len());
            prop_assert!(table.to_batch().unwrap().columns().iter().zip(0..).all(|(c, t)| {
                let parts: Vec<&Column> = table.partitions().iter().map(|p| p.batch().column(t)).collect();
                gather_oracle::same(c, &gather_oracle::reference(&parts, &(0..rows).collect::<Vec<_>>()).unwrap())
            }));
        }
    }

    /// `Column::gather_parts` over parts whose dictionaries differ — in
    /// order, in length, with repeated and unused entries — and whose
    /// masks differ (absent, NULL-free, NULL-holding; some parts empty)
    /// equals the cell-wise reference, for every type.
    #[test]
    fn gather_parts_matches_the_cell_wise_reference_across_dictionaries(
        seed in 0u64..1_000_000,
        t in 0usize..4,
        lens in prop::collection::vec(0usize..25, 1..6),
        picks in 0usize..60,
    ) {
        use rand::RngExt;
        use reliable_aqp::storage::Column;
        let parts: Vec<Column> = lens
            .iter()
            .enumerate()
            .map(|(p, &len)| {
                let s = seed.wrapping_mul(31).wrapping_add(p as u64);
                gather_oracle::column(s, t, len, &gather_oracle::dict(s))
            })
            .collect();
        let refs: Vec<&Column> = parts.iter().collect();
        let total: usize = lens.iter().sum();
        let mut rng = rng_from_seed(seed ^ 0x9A7);
        let indices: Vec<usize> =
            if total == 0 { Vec::new() } else { (0..picks).map(|_| rng.random_range(0..total)).collect() };
        let at: Vec<(usize, usize)> = indices
            .iter()
            .map(|&i| {
                let (mut p, mut row) = (0, i);
                while row >= lens[p] {
                    row -= lens[p];
                    p += 1;
                }
                (p, row)
            })
            .collect();
        let got = Column::gather_parts(&refs, &at).unwrap();
        let want = gather_oracle::reference(&refs, &indices).unwrap();
        prop_assert!(gather_oracle::same(&got, &want), "{got:?} vs {want:?}");
    }
}
