//! The §5.2 naive baseline executor.
//!
//! Implements error estimation and diagnostics the way the UNION-ALL
//! query rewrite of §5.2 executes them: **every bootstrap subquery
//! re-scans the sample** (re-applying filters and projections), and every
//! diagnostic subsample is extracted by yet another scan. This is the
//! measured baseline that scan consolidation and operator pushdown are
//! compared against in Fig. 7/8.
//!
//! The produced *numbers* are statistically equivalent to the optimized
//! engine's; only the work wasted to produce them differs.

use std::cell::OnceCell;

use aqp_diagnostics::{diagnose, DiagnosticConfig};
use aqp_obs::trace::stage;
use aqp_sql::logical::LogicalPlan;
use aqp_stats::bootstrap::bootstrap_ci_around;
use aqp_stats::estimator::SampleContext;
use aqp_stats::rng::SeedStream;
use aqp_storage::Table;

use crate::collect::{collect, scan, Collected};
use crate::engine::{prepare_thetas, ApproxOptions, MethodChoice, MAX_AGGREGATES};
use crate::result::{refused, AggResult, ApproxResult, GroupResult, MethodUsed, StageTimings};
use crate::theta::{bootstrap_ci_prepared, closed_form_ci_prepared, BoundTheta, PreparedTheta};
use crate::udf::UdfRegistry;
use crate::Result;

/// One of the scans the naive plan repeats. It leaves out the row positions:
/// only a diagnostic subsample is cut by them, and that scan is [`collect`].
fn rescan(plan: &LogicalPlan, sample: &Table, opts: &ApproxOptions) -> Result<Collected> {
    scan(plan, sample, opts.threads, &aqp_obs::Clock::Real, None, false).map(|(collected, ..)| collected)
}

/// Execute approximately with the naive §5.2 strategy: one physical
/// re-scan per bootstrap subquery and per diagnostic subsample.
///
/// Stratified per-group contexts (`opts.group_contexts`) are not
/// supported here — the baseline exists to measure the cost of the §5.2
/// rewrite on uniform samples.
pub fn execute_baseline(
    plan: &LogicalPlan,
    sample: &Table,
    population_rows: usize,
    registry: &UdfRegistry,
    opts: &ApproxOptions,
) -> Result<ApproxResult> {
    opts.check_alpha()?;
    let seeds = SeedStream::new(opts.seed);
    let rec = opts.obs.recorder();

    // Phase 1 — the query itself (one scan, same as optimized).
    let scan_span = rec.start(stage::SCAN_COLLECT);
    let collected = rescan(plan, sample, opts)?;
    let ctx = SampleContext::new(collected.pre_filter_rows, population_rows);
    let thetas = prepare_thetas(&collected, registry)?;
    let estimates: Vec<Vec<f64>> = collected
        .groups
        .iter()
        .map(|g| {
            g.aggs
                .iter()
                .zip(&thetas)
                .map(|(d, t)| t.estimate(d, &ctx))
                .collect()
        })
        .collect();
    rec.end(scan_span);

    // Phase 2 — diagnostics via subqueries: every subsample is extracted
    // by a fresh scan, and (for the bootstrap) resampled K times. As in the
    // optimized engine it runs first and decides whose bars are computed.
    let diag_span = rec.start(stage::DIAGNOSTICS);
    let diags = (0..collected.groups.len())
        .map(|gi| {
            let judge = |(ai, theta)| {
                let cfg = opts.diagnostic.as_ref()?;
                let job_seeds = seeds.derive(0xD1A6).derive((gi * MAX_AGGREGATES + ai) as u64);
                Some(naive_diagnostic(
                    plan, sample, gi, ai, theta, estimates[gi][ai], &ctx, cfg, opts, job_seeds,
                ))
            };
            thetas.iter().enumerate().map(|job| judge(job).transpose()).collect()
        })
        .collect::<Result<Vec<Vec<Option<aqp_diagnostics::DiagnosticReport>>>>>()?;
    rec.end(diag_span);

    // Phase 3 — error estimation via repeated subqueries, for every cell
    // the diagnostic did not refuse.
    let err_span = rec.start(stage::ERROR_ESTIMATION);
    let mut cis: Vec<Vec<(Option<aqp_stats::ci::Ci>, MethodUsed)>> = Vec::new();
    for (gi, _group) in collected.groups.iter().enumerate() {
        let mut group_cis = Vec::new();
        for (ai, theta) in thetas.iter().enumerate() {
            if refused(&diags[gi][ai]) {
                group_cis.push((None, MethodUsed::None));
                continue;
            }
            if wants_closed_form(opts, theta) {
                // Naive closed form: a second full scan to compute the
                // variance statistics.
                let re = rescan(plan, sample, opts)?;
                let data = &re.groups[gi].aggs[ai];
                let whole = theta.bind(data, 0..data.values.len(), &ctx);
                match closed_form_ci_prepared(&whole, opts.alpha) {
                    Some(ci) => {
                        group_cis.push((Some(ci), MethodUsed::ClosedForm));
                        continue;
                    }
                    None if matches!(opts.method, MethodChoice::ClosedForm) => {
                        group_cis.push((None, MethodUsed::None));
                        continue;
                    }
                    None => {}
                }
            }
            // Naive bootstrap: K subqueries, each a full re-scan of the
            // sample followed by a weighted aggregation of what it found.
            let mut rng = seeds.derive(0xBA5E).rng((gi * MAX_AGGREGATES + ai) as u64);
            let rows = collected.groups[gi].aggs[ai].values.len();
            let mut scan_error = None;
            let subquery = &mut |weights: &[u32]| match rescan(plan, sample, opts) {
                Ok(re) => {
                    let data = &re.groups[gi].aggs[ai];
                    theta.bind(data, 0..rows, &ctx).estimate_weighted(weights)
                }
                Err(e) => {
                    scan_error.get_or_insert(e);
                    f64::NAN
                }
            };
            let (k, alpha) = (opts.bootstrap_k, opts.alpha);
            let ci = bootstrap_ci_around(&mut rng, estimates[gi][ai], rows, subquery, k, alpha);
            if let Some(e) = scan_error {
                return Err(e);
            }
            let method = if ci.is_some() { MethodUsed::Bootstrap } else { MethodUsed::None };
            group_cis.push((ci, method));
        }
        cis.push(group_cis);
    }
    rec.end(err_span);

    let asm_span = rec.start(stage::ASSEMBLE);
    let names: Vec<String> = collected.agg_exprs.iter().map(|a| a.to_string()).collect();
    let groups = collected
        .groups
        .iter()
        .zip(diags)
        .enumerate()
        .map(|(gi, (g, group_diags))| GroupResult {
            key: g.key.clone(),
            aggs: group_diags
                .into_iter()
                .enumerate()
                .map(|(ai, diagnostic)| AggResult {
                    name: names[ai].clone(),
                    estimate: estimates[gi][ai],
                    ci: cis[gi][ai].0,
                    method: cis[gi][ai].1,
                    diagnostic,
                })
                .collect(),
        })
        .collect();
    rec.end(asm_span);

    let trace = rec.finish();
    Ok(ApproxResult {
        groups,
        sample_rows: collected.pre_filter_rows,
        population_rows,
        timings: StageTimings::from_trace(&trace),
        trace,
        degraded: None,
        bar_inputs: None,
    })
}

/// Whether ξ is the closed form for `theta` under `opts.method`.
fn wants_closed_form(opts: &ApproxOptions, theta: &PreparedTheta) -> bool {
    match opts.method {
        MethodChoice::Auto => theta.closed_form_applicable(),
        MethodChoice::ClosedForm => true,
        MethodChoice::Bootstrap => false,
    }
}

/// Algorithm 1 the §5.2 way: every subsample the diagnostic asks about
/// is extracted by a fresh scan of the sample — once for θ̂, and once more
/// for ξ, whose K resample subqueries then run over it.
#[allow(clippy::too_many_arguments)]
fn naive_diagnostic(
    plan: &LogicalPlan,
    sample: &Table,
    gi: usize,
    ai: usize,
    theta: &PreparedTheta,
    theta_s: f64,
    ctx: &SampleContext,
    cfg: &DiagnosticConfig,
    opts: &ApproxOptions,
    seeds: SeedStream,
) -> Result<aqp_diagnostics::DiagnosticReport> {
    let scan_error = OnceCell::new();
    let rescanned = |level: usize, j: usize, eval: &dyn Fn(BoundTheta<'_>) -> f64| {
        let b = cfg.subsample_rows[level];
        match collect(plan, sample, opts.threads) {
            Ok(re) => {
                let fresh = &re.groups[gi].aggs[ai];
                let range = fresh.range_for_rows(j * b, (j + 1) * b, ctx.sample_rows);
                eval(theta.bind(fresh, range, &ctx.subsample(b)))
            }
            Err(e) => {
                let _ = scan_error.set(e); // the first one is reported
                f64::NAN
            }
        }
    };
    let use_cf = wants_closed_form(opts, theta);
    let report = diagnose(
        theta_s,
        cfg,
        opts.alpha,
        |level, j| (rescanned(level, j, &|mut bound| bound.estimate()), ()),
        |level, j, theta_hat, ()| {
            rescanned(level, j, &|mut bound| {
                let ci = if use_cf {
                    closed_form_ci_prepared(&bound, opts.alpha)
                } else {
                    let mut rng = seeds.derive(level as u64).rng(j as u64);
                    let (k, alpha) = (opts.bootstrap_k, opts.alpha);
                    bootstrap_ci_prepared(&mut rng, &mut bound, theta_hat, k, alpha)
                };
                ci.map_or(f64::NAN, |ci| ci.half_width)
            })
        },
    );
    scan_error.into_inner().map_or(Ok(report), Err)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::execute_approx;
    use aqp_sql::{parse_query, plan_query};
    use aqp_stats::dist::sample_lognormal;
    use aqp_stats::rng::rng_from_seed;
    use aqp_stats::sampling::with_replacement_indices;
    use aqp_storage::{Batch, Column, DataType, Field, Schema};

    fn tiny_setup(rows: usize, n: usize) -> (Table, Table, LogicalPlan, UdfRegistry) {
        setup(rows, n, "SELECT AVG(time) FROM t")
    }

    /// A population of lognormal `time` and uniform `u` in [0, 1), a
    /// with-replacement sample of `n` rows, and the plan of `sql`.
    fn setup(rows: usize, n: usize, sql: &str) -> (Table, Table, LogicalPlan, UdfRegistry) {
        let mut rng = rng_from_seed(1);
        let time: Vec<f64> = (0..rows).map(|_| sample_lognormal(&mut rng, 1.0, 0.5)).collect();
        let u: Vec<f64> = (0..rows).map(|i| (i * 7919 % 1000) as f64 / 1000.0).collect();
        let schema = Schema::new(vec![
            Field::new("time", DataType::Float),
            Field::new("u", DataType::Float),
        ])
        .unwrap();
        let batch = Batch::new(schema, vec![Column::from_f64s(time), Column::from_f64s(u)]).unwrap();
        let pop = Table::from_batch("t", batch, 2).unwrap();
        let idx = with_replacement_indices(&mut rng, n, rows);
        let sbatch = pop.to_batch().unwrap().gather(&idx).unwrap();
        let sample = Table::from_batch("t_sample", sbatch, 2).unwrap();
        let q = parse_query(sql).unwrap();
        let plan = plan_query(&q, pop.schema()).unwrap();
        (pop, sample, plan, UdfRegistry::default())
    }

    #[test]
    fn baseline_and_optimized_agree_statistically() {
        let (pop, sample, plan, reg) = tiny_setup(20_000, 2_000);
        let opts = ApproxOptions {
            seed: 2,
            method: MethodChoice::Bootstrap,
            bootstrap_k: 60,
            threads: 1,
            ..Default::default()
        };
        let base = execute_baseline(&plan, &sample, pop.num_rows(), &reg, &opts).unwrap();
        let fast = execute_approx(&plan, &sample, pop.num_rows(), &reg, &opts).unwrap();
        let (b, f) = (base.scalar().unwrap(), fast.scalar().unwrap());
        assert_eq!(b.estimate, f.estimate);
        let (bh, fh) = (b.ci.unwrap().half_width, f.ci.unwrap().half_width);
        assert!(
            (bh - fh).abs() / fh < 0.5,
            "baseline hw {bh} vs optimized hw {fh}"
        );
    }

    #[test]
    fn baseline_is_slower_for_bootstrap() {
        // The §5.2 setting: a selective filter, so each of the K subqueries
        // re-filters 50 000 sample rows to resample the 1 000 that pass,
        // where the single-scan path only resamples.
        let (pop, sample, plan, reg) =
            setup(200_000, 50_000, "SELECT AVG(time) FROM t WHERE u < 0.02");
        let opts = ApproxOptions {
            seed: 3,
            method: MethodChoice::Bootstrap,
            bootstrap_k: 40,
            threads: 1,
            ..Default::default()
        };
        let base = execute_baseline(&plan, &sample, pop.num_rows(), &reg, &opts).unwrap();
        let fast = execute_approx(&plan, &sample, pop.num_rows(), &reg, &opts).unwrap();
        // The naive path re-scans the sample K times; it must be
        // substantially slower than the single-scan path.
        assert!(
            base.timings.error_estimation() > fast.timings.error_estimation() * 3,
            "baseline {:?} vs optimized {:?}",
            base.timings.error_estimation(),
            fast.timings.error_estimation()
        );
    }

    #[test]
    fn baseline_diagnostic_runs_and_agrees() {
        let (pop, sample, plan, reg) = tiny_setup(20_000, 3_000);
        let cfg = DiagnosticConfig::scaled_to(3_000, 10);
        let opts = ApproxOptions {
            seed: 4,
            method: MethodChoice::ClosedForm,
            diagnostic: Some(cfg),
            threads: 1,
            ..Default::default()
        };
        let base = execute_baseline(&plan, &sample, pop.num_rows(), &reg, &opts).unwrap();
        let fast = execute_approx(&plan, &sample, pop.num_rows(), &reg, &opts).unwrap();
        let bd = base.scalar().unwrap().diagnostic.clone().unwrap();
        let fd = fast.scalar().unwrap().diagnostic.clone().unwrap();
        assert_eq!(bd.accepted, fd.accepted);
        assert!(base.timings.diagnostics() >= fast.timings.diagnostics());
    }
}
