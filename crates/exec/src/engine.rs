//! The optimized executor: one scan → answer + error + diagnostic.
//!
//! This is the end state of §5/§6: the collected aggregation inputs are
//! produced by a single (parallel) pass over the sample's partitions, and
//! then *reused* by the point estimate, all bootstrap replicates, and all
//! diagnostic subsamples — no repeated scans, no tuple duplication.

use std::cell::OnceCell;
use std::ops::Range;

use aqp_diagnostics::{diagnose, subsample_bounds, subsample_context, Decision, DiagnosticConfig, DiagnosticReport};
use aqp_faults::{DegradedInfo, EventKind, FaultConfig, FaultInjector, ScanFaultSummary};
use aqp_obs::trace::stage;
use aqp_obs::{count_stragglers, name, Clock, ObsHandle, SpanId, Timestamp, TraceRecorder};
use aqp_sql::ast::AggExpr;
use aqp_sql::logical::LogicalPlan;
use aqp_stats::closed_form::{ClosedForm, Coverage};
use aqp_stats::estimator::SampleContext;
use aqp_stats::rng::SeedStream;
use aqp_storage::Table;

use crate::collect::{fold, result_names, scan, AggData, Collected, OpStats};
use crate::parallel::{default_threads, parallel_map_observed, WorkerStat};
use crate::result::{refused, AggResult, ApproxResult, ExactResult, GroupResult, MethodUsed, StageTimings};
use crate::theta::{bootstrap_ci_prepared, BoundTheta, PreparedTheta};
use crate::udf::UdfRegistry;
use crate::{ExecError, Result};

/// How the executor picks the error-estimation technique.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MethodChoice {
    /// Closed form when applicable, bootstrap otherwise (the system
    /// default: closed forms are strictly cheaper when they exist).
    Auto,
    /// Force the bootstrap.
    Bootstrap,
}

/// Options for approximate execution.
#[derive(Debug, Clone)]
pub struct ApproxOptions {
    /// Technique selection.
    pub method: MethodChoice,
    /// Bootstrap resample count K.
    pub bootstrap_k: usize,
    /// Interval coverage α: of the answer's bars and of everything the
    /// diagnostic compares them with.
    pub alpha: f64,
    /// Run the diagnostic with this ladder and these thresholds (`None` =
    /// skip). The config's subsample sizes are interpreted against the
    /// sample's pre-filter row count; its own `alpha` is not read — the
    /// diagnostic judges at [`alpha`](ApproxOptions::alpha) above.
    pub diagnostic: Option<DiagnosticConfig>,
    /// Root seed for all Poisson weight streams.
    pub seed: u64,
    /// Worker threads for the scan and the replicate loops.
    pub threads: usize,
    /// Per-group (sample_rows, population_rows) overrides for stratified
    /// samples: each stratum is a uniform sample of its own stratum
    /// population with its own rate, so estimates/intervals/diagnostics
    /// for group `key` must scale by its stratum sizes, not the sample's.
    pub group_contexts: Option<std::collections::HashMap<String, (usize, usize)>>,
    /// Observability context: the clock every stage is timed on and the
    /// registry executor metrics land in. Defaults to the real clock
    /// and the process-global registry.
    pub obs: ObsHandle,
    /// Deterministic fault injection for the scan (`None` = off; the
    /// default). When set, partition tasks are resolved against the
    /// config's fault plan and the query either completes — possibly
    /// degraded, with conservatively widened CIs — or returns a typed
    /// `ExecError::Degraded` / `ExecError::Unrecoverable`.
    pub faults: Option<FaultConfig>,
}

impl Default for ApproxOptions {
    fn default() -> Self {
        ApproxOptions {
            method: MethodChoice::Auto,
            bootstrap_k: 100,
            alpha: 0.95,
            diagnostic: None,
            seed: 0,
            threads: default_threads(),
            group_contexts: None,
            obs: ObsHandle::default(),
            faults: None,
        }
    }
}

impl ApproxOptions {
    /// Both executors refuse, before any work, an α no interval can be
    /// read at: a quantile exists strictly inside (0, 1) only.
    pub(crate) fn check_alpha(&self) -> Result<()> {
        if self.alpha > 0.0 && self.alpha < 1.0 {
            return Ok(());
        }
        Err(ExecError::Unsupported(format!("confidence {} is outside (0, 1)", self.alpha)))
    }
}

/// Execute `plan` exactly over `table` (the fallback path when the
/// diagnostic rejects, and the ground-truth oracle in tests), timed on
/// the default (real) clock against the global registry.
pub fn execute_exact(
    plan: &LogicalPlan,
    table: &Table,
    registry: &UdfRegistry,
    threads: usize,
) -> Result<ExactResult> {
    execute_exact_observed(plan, table, registry, threads, &ObsHandle::default())
}

/// [`execute_exact`] with an explicit observability context.
pub fn execute_exact_observed(
    plan: &LogicalPlan,
    table: &Table,
    registry: &UdfRegistry,
    threads: usize,
    obs: &ObsHandle,
) -> Result<ExactResult> {
    let rec = obs.recorder();
    let span = rec.start(stage::EXACT_EXECUTION);
    let scan_start = obs.clock.now();
    let (scanned, scan_obs) = fold::scan(plan, table, threads, &obs.clock)?;
    record_chain_ops(&rec, &obs.clock, scan_start, plan, &scan_obs.ops, None);
    record_workers(&rec, obs, &scan_obs.workers, None, obs.clock.now());
    let agg_start = obs.clock.now();
    let rows_scanned = scanned.rows;
    let (groups, values) = scanned.fold(registry)?;
    let agg_span = (agg_start, obs.clock.now());
    record_plan_op(&rec, agg_span, None, plan, "Aggregate", values, groups.len() as u64);
    rec.attr(span, "rows_scanned", rows_scanned);
    rec.end(span);
    let trace = rec.finish();
    Ok(ExactResult { groups, rows_scanned, timings: StageTimings::from_trace(&trace), trace })
}

/// Aggregates per SELECT list, the stride of a cell's seed stream.
pub(crate) const MAX_AGGREGATES: usize = 64;

/// One prepared θ per SELECT aggregate — at most [`MAX_AGGREGATES`]: cell
/// (group, aggregate) draws from the stream `group * MAX_AGGREGATES +
/// aggregate`, which a wider list would make two cells share.
pub(crate) fn prepare_thetas(
    aggs: &[AggExpr],
    inner: Option<&AggExpr>,
    registry: &UdfRegistry,
) -> Result<Vec<PreparedTheta>> {
    if aggs.len() > MAX_AGGREGATES {
        return Err(ExecError::Unsupported(format!("more than {MAX_AGGREGATES} aggregates in one SELECT list")));
    }
    aggs.iter().map(|a| PreparedTheta::prepare(a, inner, registry)).collect()
}

/// Execute `plan` approximately over `sample` (a stored sample of a table
/// with `population_rows` rows), producing estimates, error bars, and
/// diagnostic verdicts in a single scan.
pub fn execute_approx(
    plan: &LogicalPlan,
    sample: &Table,
    population_rows: usize,
    registry: &UdfRegistry,
    opts: &ApproxOptions,
) -> Result<ApproxResult> {
    opts.check_alpha()?;
    let seeds = SeedStream::new(opts.seed);
    opts.obs.metrics.counter(name::EXEC_APPROX_QUERIES).inc();
    let rec = opts.obs.recorder();

    // Stage 1 — scan + collect: one pass over the sample's partitions,
    // resolved against the fault plan when injection is enabled.
    let injector = opts.faults.as_ref().map(FaultInjector::new);
    let scan_span = rec.start(stage::SCAN_COLLECT);
    let scan_start = opts.obs.clock.now();
    // Positions are the diagnostic's to read: a run without one (the
    // pilot) does not build them.
    let (clock, diagnosed) = (&opts.obs.clock, opts.diagnostic.is_some());
    let (collected, scan_obs, fault_summary) = scan(plan, sample, opts.threads, clock, injector.as_ref(), diagnosed)?;
    rec.attr(scan_span, "sample_rows", collected.pre_filter_rows);
    rec.attr(scan_span, "groups", collected.groups.len());
    let sample_fraction = (population_rows > 0)
        .then(|| collected.pre_filter_rows as f64 / population_rows as f64);
    record_chain_ops(&rec, &opts.obs.clock, scan_start, plan, &scan_obs.ops, sample_fraction);
    record_workers(&rec, &opts.obs, &scan_obs.workers, None, opts.obs.clock.now());
    if let Some(sum) = &fault_summary {
        record_faults(&rec, &opts.obs, scan_span, scan_start, sum);
    }
    rec.end(scan_span);

    // Recovery-policy gate: decide between a (possibly degraded)
    // approximate answer and a typed refusal. All CI half-widths from a
    // degraded sample are widened by `planned / effective` (≥ 1), which
    // dominates the natural sqrt growth of the standard error — error
    // bars can only get wider, never narrower (DESIGN §12).
    let degraded_info = degradation_gate(fault_summary.as_ref(), opts)?;

    // Per-stratum scaling where the sample has it, the sample's own elsewhere.
    let default_ctx = SampleContext::new(collected.pre_filter_rows, population_rows);
    let contexts: Vec<SampleContext> = collected
        .groups
        .iter()
        .map(|g| match opts.group_contexts.as_ref().and_then(|m| m.get(&g.key)) {
            Some(&(s, p)) => SampleContext::new(s, p),
            None => default_ctx,
        })
        .collect();

    // Stage 2 — point estimates θ(S) from the collected data; from the
    // closed-form pass where θ is one of its folds, kept for the bars.
    let est_span = rec.start(stage::POINT_ESTIMATE);
    let est_start = opts.obs.clock.now();
    let thetas = prepare_thetas(&collected.agg_exprs, collected.inner_agg.as_ref(), registry)?;
    let mut passes = Vec::with_capacity(collected.groups.len() * thetas.len());
    let estimates: Vec<Vec<f64>> = collected
        .groups
        .iter()
        .zip(&contexts)
        .map(|(g, ctx)| {
            let whole = |(data, theta): (&AggData, &PreparedTheta)| {
                let (estimate, pass) = theta.bind(data, 0..data.values.len(), ctx).estimate_with_pass();
                passes.push(pass);
                estimate
            };
            g.aggs.iter().zip(&thetas).map(whole).collect()
        })
        .collect();
    let span = (est_start, opts.obs.clock.now());
    // The values entering the aggregation operator: every group's first aggregate's.
    let values = collected.groups.iter().map(|g| g.aggs.first().map_or(0, |a| a.values.len() as u64)).sum();
    let groups = collected.groups.len() as u64;
    record_plan_op(&rec, span, None, plan, "Aggregate", values, groups);
    rec.end(est_span);
    let inputs = BarInputs { collected, thetas, contexts, passes };
    let collected = &inputs.collected;

    // Stage 3 — diagnostics, per (group, aggregate), parallelized across
    // groups. It reads θ(S) and the collected data, never the answer's
    // bars, so it runs before them and decides which are computed.
    let jobs: Vec<(usize, usize)> = collected
        .groups
        .iter()
        .enumerate()
        .flat_map(|(gi, g)| (0..g.aggs.len()).map(move |ai| (gi, ai)))
        .collect();
    let diag_start = opts.obs.clock.now();
    let (diags, diag_workers) = match &opts.diagnostic {
        None => (vec![None; jobs.len()], Vec::new()),
        Some(cfg) => {
            // Degraded runs judge the sample that actually survived:
            // shrink the subsample sizes by the effective/planned ratio
            // so the largest level still fits the surviving rows.
            let cfg = match &degraded_info {
                Some(d) if d.effective_rows < d.planned_rows && d.planned_rows > 0 => {
                    let ratio = d.effective_rows as f64 / d.planned_rows as f64;
                    let mut scaled = cfg.clone();
                    for b in &mut scaled.subsample_rows {
                        *b = ((*b as f64 * ratio).round() as usize).max(1);
                    }
                    scaled.subsample_rows.dedup();
                    scaled
                }
                _ => cfg.clone(),
            };
            let (cfg, coverage) = (&cfg, Coverage::new(opts.alpha));
            parallel_map_observed(jobs.clone(), opts.threads, &opts.obs.clock, |(gi, ai)| {
                let subsamples = Subsamples {
                    theta: &inputs.thetas[ai],
                    data: &collected.groups[gi].aggs[ai],
                    ctx: inputs.contexts[gi],
                    row_window: collected.pre_filter_rows,
                    cfg,
                    opts,
                    seeds: seeds.derive(0xD1).derive((gi * MAX_AGGREGATES + ai) as u64),
                    coverage,
                    bounds: vec![OnceCell::new(); cfg.k()],
                };
                Some(subsamples.diagnose(estimates[gi][ai]))
            })
        }
    };
    let diag_ran = (diag_start, opts.obs.clock.now());

    // Stage 4 — error estimation, for every cell not refused: a refused
    // cell's bars are shown to nobody but the auditor, who asks for them
    // with `ApproxResult::fill_refused_bars`.
    let err_span = rec.start(stage::ERROR_ESTIMATION);
    let err_start = opts.obs.clock.now();
    let kept: Vec<(usize, usize)> =
        jobs.iter().zip(&diags).filter(|(_, d)| !refused(d)).map(|(&job, _)| job).collect();
    let widen = degraded_info.as_ref().map_or(1.0, |d| d.widen_factor);
    let (bars, err_workers) = inputs.bars(&kept, |gi, ai| estimates[gi][ai], opts, widen);
    if let Some(d) = &degraded_info {
        rec.attr(err_span, "widen_factor", d.widen_factor);
        rec.attr(err_span, "effective_rows", d.effective_rows);
        rec.attr(err_span, "planned_rows", d.planned_rows);
    }
    // Work done, not cells: the refused ones are counted apart.
    let bootstrap_jobs = bars.iter().filter(|(_, m)| *m == MethodUsed::Bootstrap).count();
    let resamples = bootstrap_jobs * opts.bootstrap_k;
    rec.attr(err_span, "jobs", kept.len());
    rec.attr(err_span, "bootstrap_jobs", bootstrap_jobs);
    rec.attr(err_span, "resamples", resamples);
    rec.attr(err_span, "skipped_refused", jobs.len() - kept.len());
    let with_ci = bars.iter().filter(|(ci, _)| ci.is_some()).count() as u64;
    let err_ran = (err_start, opts.obs.clock.now());
    if let Some(id) = record_plan_op(&rec, err_ran, None, plan, "ErrorEstimate", jobs.len() as u64, with_ci) {
        rec.attr(id, "resamples", resamples);
        rec.attr(id, "skipped_refused", jobs.len() - kept.len());
    }
    record_workers(&rec, &opts.obs, &err_workers, None, err_ran.1);
    rec.end(err_span);

    // The diagnostics stage goes on record here, with the times it ran at:
    // spans stay in plan order, leaf to root, whatever order the stages
    // ran in (`OpProfile::from_trace` splits executions on it).
    let diag_span = rec.record_span(stage::DIAGNOSTICS, diag_ran.0, diag_ran.1);
    record_workers(&rec, &opts.obs, &diag_workers, Some(diag_span), diag_ran.1);
    let accepted = diags.iter().flatten().filter(|d| d.accepted).count();
    let rejected = diags.iter().flatten().count() - accepted;
    rec.attr(diag_span, "accepted", accepted);
    rec.attr(diag_span, "rejected", rejected);
    // Cells of fewer than p values, refused before Algorithm 1 ran; on
    // record where there are any.
    let below_floor = diags.iter().flatten().filter(|d| matches!(d.decision, Decision::Refused(_))).count();
    if below_floor > 0 {
        rec.attr(diag_span, "below_floor", below_floor);
    }
    if opts.diagnostic.is_some() {
        let judged = (accepted + rejected) as u64;
        if let Some(id) =
            record_plan_op(&rec, diag_ran, Some(diag_span), plan, "Diagnostic", jobs.len() as u64, judged)
        {
            rec.attr(id, "accepted", accepted);
            rec.attr(id, "rejected", rejected);
        }
    }

    // Stage 5 — assemble the result rows.
    let asm_span = rec.start(stage::ASSEMBLE);
    let mut groups: Vec<GroupResult> = collected
        .groups
        .iter()
        .map(|g| GroupResult { key: g.key.clone(), aggs: Vec::with_capacity(g.aggs.len()) })
        .collect();
    // Jobs are in (group, aggregate) order; each one's report moves into
    // its result row, and so do its bars unless it was refused.
    let mut bars = bars.into_iter();
    // Rendered once per query, cloned per cell.
    let names = result_names(plan)?;
    for (&(gi, ai), diagnostic) in jobs.iter().zip(diags) {
        let bar = if refused(&diagnostic) { None } else { bars.next() };
        let (ci, method) = bar.unwrap_or((None, MethodUsed::None));
        groups[gi].aggs.push(AggResult {
            name: names[ai].clone(),
            estimate: estimates[gi][ai],
            ci,
            method,
            diagnostic,
        });
    }
    rec.end(asm_span);

    let trace = rec.finish();
    Ok(ApproxResult {
        groups,
        sample_rows: collected.pre_filter_rows,
        population_rows,
        timings: StageTimings::from_trace(&trace),
        trace,
        degraded: degraded_info,
        bar_inputs: Some(inputs),
    })
}

/// What error estimation reads, kept by the [`ApproxResult`] so that the
/// bars of the cells the diagnostic refused can be computed on demand.
#[derive(Debug, Clone)]
pub struct BarInputs {
    collected: Collected,
    thetas: Vec<PreparedTheta>,
    /// Sizing context per group.
    contexts: Vec<SampleContext>,
    /// The closed-form pass θ(S) was read from, per (group, aggregate) in
    /// that order.
    passes: Vec<Option<ClosedForm>>,
}

impl BarInputs {
    /// ξ over the whole range of each of `jobs`, centred on its θ(S)
    /// `estimate(group, aggregate)`, half-widths widened by `widen` (the
    /// conservative factor of a degraded run). Every job draws from a
    /// stream of its own, so its bars do not depend on which other jobs
    /// run, or when.
    fn bars(
        &self,
        jobs: &[(usize, usize)],
        estimate: impl Fn(usize, usize) -> f64 + Sync,
        opts: &ApproxOptions,
        widen: f64,
    ) -> (Vec<(Option<aqp_stats::ci::Ci>, MethodUsed)>, Vec<WorkerStat>) {
        let seeds = SeedStream::new(opts.seed).derive(0xC1);
        let coverage = Coverage::new(opts.alpha);
        parallel_map_observed(jobs.to_vec(), opts.threads, &opts.obs.clock, |(gi, ai)| {
            let data = &self.collected.groups[gi].aggs[ai];
            let mut whole = self.thetas[ai].bind(data, 0..data.values.len(), &self.contexts[gi]);
            let job_seeds = seeds.derive((gi * MAX_AGGREGATES + ai) as u64);
            let pass = self.passes[gi * self.thetas.len() + ai];
            let (mut ci, method) = error_ci(&mut whole, pass, estimate(gi, ai), opts, coverage, &job_seeds, 0);
            if let Some(ci) = ci.as_mut() {
                ci.widen(widen);
            }
            (ci, method)
        })
    }
}

impl ApproxResult {
    /// Compute the bars `execute_approx` skipped — those of the cells its
    /// diagnostic refused — as it would have under the same `opts`, and
    /// release the retained inputs. Returns how many cells were filled and
    /// how many resamples that drew; a second call finds nothing to do.
    pub fn fill_refused_bars(&mut self, opts: &ApproxOptions) -> (usize, usize) {
        let Some(inputs) = self.bar_inputs.take() else { return (0, 0) };
        let jobs: Vec<(usize, usize)> = self
            .groups
            .iter()
            .enumerate()
            .flat_map(|(gi, g)| (0..g.aggs.len()).filter(|&ai| g.aggs[ai].refused()).map(move |ai| (gi, ai)))
            .collect();
        let widen = self.degraded.as_ref().map_or(1.0, |d| d.widen_factor);
        let groups = &self.groups;
        let (bars, _) = inputs.bars(&jobs, |gi, ai| groups[gi].aggs[ai].estimate, opts, widen);
        let mut resamples = 0;
        for (&(gi, ai), (ci, method)) in jobs.iter().zip(bars) {
            resamples += opts.bootstrap_k * usize::from(method == MethodUsed::Bootstrap);
            let cell = &mut self.groups[gi].aggs[ai];
            (cell.ci, cell.method) = (ci, method);
        }
        (jobs.len(), resamples)
    }
}

/// Apply the recovery policy to the scan's fault summary: refuse with a
/// typed error when too much was lost, otherwise describe how degraded
/// the surviving sample is (`None` = not degraded at all).
fn degradation_gate(
    summary: Option<&ScanFaultSummary>,
    opts: &ApproxOptions,
) -> Result<Option<DegradedInfo>> {
    let (sum, cfg) = match (summary, opts.faults.as_ref()) {
        (Some(s), Some(c)) => (s, c),
        _ => return Ok(None),
    };
    if sum.total_partitions > 0 && sum.lost_partitions == sum.total_partitions {
        return Err(ExecError::Unrecoverable(format!(
            "all {} sample partitions lost to injected faults",
            sum.total_partitions
        )));
    }
    let lost_fraction = if sum.total_partitions == 0 {
        0.0
    } else {
        sum.lost_partitions as f64 / sum.total_partitions as f64
    };
    if lost_fraction > cfg.recovery.max_lost_fraction {
        return Err(ExecError::Degraded {
            lost_partitions: sum.lost_partitions,
            total_partitions: sum.total_partitions,
        });
    }
    if sum.degraded() {
        opts.obs.metrics.counter(name::FAULTS_DEGRADED_QUERIES).inc();
        Ok(Some(DegradedInfo {
            planned_rows: sum.planned_rows,
            effective_rows: sum.effective_rows,
            lost_partitions: sum.lost_partitions,
            total_partitions: sum.total_partitions,
            widen_factor: sum.widen_factor(),
        }))
    } else {
        Ok(None)
    }
}

/// Render the scan's fault activity as `fault:` / `retry:` /
/// `speculative:` child spans of the scan stage (events laid out
/// sequentially from `scan_start`, each spanning its injected delay)
/// and feed the `aqp.faults.*` metrics.
fn record_faults(
    rec: &TraceRecorder,
    obs: &ObsHandle,
    scan_span: SpanId,
    scan_start: Timestamp,
    sum: &ScanFaultSummary,
) {
    let m = &obs.metrics;
    if sum.injected > 0 {
        m.counter(name::FAULTS_INJECTED).add(sum.injected as u64);
    }
    if sum.retries > 0 {
        m.counter(name::FAULTS_RETRIES).add(sum.retries as u64);
    }
    if sum.timeouts > 0 {
        m.counter(name::FAULTS_TIMEOUTS).add(sum.timeouts as u64);
    }
    if sum.speculative_launched > 0 {
        m.counter(name::FAULTS_SPECULATIVE_LAUNCHED).add(sum.speculative_launched as u64);
    }
    if sum.speculative_wins > 0 {
        m.counter(name::FAULTS_SPECULATIVE_WINS).add(sum.speculative_wins as u64);
    }
    if sum.lost_partitions > 0 {
        m.counter(name::FAULTS_PARTITIONS_LOST).add(sum.lost_partitions as u64);
    }
    if sum.blacklisted_partitions > 0 {
        m.counter(name::FAULTS_PARTITIONS_BLACKLISTED).add(sum.blacklisted_partitions as u64);
    }
    if sum.rows_lost() > 0 {
        m.counter(name::FAULTS_ROWS_LOST).add(sum.rows_lost() as u64);
    }
    m.histogram(name::FAULTS_INJECTED_DELAY_MS).record(sum.total_delay);

    rec.attr(scan_span, "planned_rows", sum.planned_rows);
    rec.attr(scan_span, "effective_rows", sum.effective_rows);
    rec.attr(scan_span, "lost_partitions", sum.lost_partitions);
    rec.attr(scan_span, "degraded", sum.degraded());

    let mut cursor = scan_start;
    for report in &sum.reports {
        for ev in &report.events {
            let end =
                Timestamp::from_nanos(cursor.nanos().saturating_add(ev.delay.as_nanos() as u64));
            let id = rec.record_span(&ev.kind.span_name(), cursor, end);
            rec.attr(id, "task", ev.task);
            rec.attr(id, "attempt", ev.attempt);
            if let EventKind::SpeculativeLaunch { won } = &ev.kind {
                rec.attr(id, "won", won);
            }
            cursor = end;
        }
    }
}

/// Workers slower than this factor times the median are counted as
/// stragglers (`aqp.exec.stragglers_detected`).
const STRAGGLER_FACTOR: f64 = 2.0;

/// Record per-worker busy times, each ending at `end`, as child spans of
/// the currently open stage (or `under` a completed one) and feed the
/// worker histogram / straggler counter.
fn record_workers(
    rec: &TraceRecorder,
    obs: &ObsHandle,
    workers: &[WorkerStat],
    under: Option<SpanId>,
    end: Timestamp,
) {
    let hist = obs.metrics.histogram(name::EXEC_WORKER_MS);
    for w in workers {
        let start = Timestamp::from_nanos(end.nanos().saturating_sub(w.busy.as_nanos() as u64));
        let id = rec.record_span_under(under, "worker", start, end);
        rec.attr(id, "worker", w.worker);
        rec.attr(id, "items", w.items);
        hist.record(w.busy);
    }
    let busy: Vec<std::time::Duration> = workers.iter().map(|w| w.busy).collect();
    let stragglers = count_stragglers(&busy, STRAGGLER_FACTOR);
    if stragglers > 0 {
        obs.metrics.counter(name::EXEC_STRAGGLERS).add(stragglers as u64);
    }
}

/// Record one `op:` span per pass-through chain operator inside the
/// currently open stage span, laid out sequentially from `stage_start`.
/// Per-operator busy times (summed across parallel partitions) are
/// scaled down when they overcommit the elapsed stage time, so the sum
/// of operator durations never exceeds the stage's wall time.
fn record_chain_ops(
    rec: &TraceRecorder,
    clock: &Clock,
    stage_start: Timestamp,
    plan: &LogicalPlan,
    ops: &[OpStats],
    sample_fraction: Option<f64>,
) {
    let total = clock.now().duration_since(stage_start).as_nanos() as u64;
    let busy_sum: u64 = ops.iter().map(|o| o.busy.as_nanos() as u64).sum();
    let scale = if busy_sum > total { total as f64 / busy_sum as f64 } else { 1.0 };
    let nodes = plan.nodes_preorder();
    let mut cursor = stage_start.nanos();
    for op in ops {
        let dur = (op.busy.as_nanos() as f64 * scale) as u64;
        let start = Timestamp::from_nanos(cursor);
        let end = Timestamp::from_nanos(cursor.saturating_add(dur));
        cursor = end.nanos();
        let id = rec.record_span(&format!("op:{}", op.name), start, end);
        rec.attr(id, "node_id", op.node_id);
        rec.attr(id, "detail", &op.detail);
        rec.attr(id, "rows_in", op.rows_in);
        rec.attr(id, "rows_out", op.rows_out);
        rec.attr(id, "batches", op.batches);
        rec.attr(id, "bytes", op.bytes);
        if op.name == "Scan" {
            if let Some(f) = sample_fraction {
                rec.attr(id, "sample_fraction", f);
            }
        }
        if op.name == "Resample" {
            if let Some(LogicalPlan::Resample { spec, .. }) =
                nodes.iter().find(|(i, _)| *i == op.node_id).map(|(_, n)| *n)
            {
                rec.attr(id, "resamples", spec.weight_columns());
            }
        }
    }
}

/// Record one `op:` span for the plan node named `name` (e.g. the
/// `Aggregate` driving the point-estimate stage) over `span`, inside the
/// currently open stage span or `under` a closed one. Returns `None`
/// without recording when the plan has no such node (engines running
/// unrewritten plans simply skip those operators).
fn record_plan_op(
    rec: &TraceRecorder,
    (start, end): (Timestamp, Timestamp),
    under: Option<SpanId>,
    plan: &LogicalPlan,
    name: &str,
    rows_in: u64,
    rows_out: u64,
) -> Option<SpanId> {
    let (node_id, node) = plan
        .nodes_preorder()
        .into_iter()
        .find(|(_, n)| n.op_name() == name)?;
    let id = rec.record_span_under(under, &format!("op:{name}"), start, end);
    rec.attr(id, "node_id", node_id);
    rec.attr(id, "detail", node.describe());
    rec.attr(id, "rows_in", rows_in);
    rec.attr(id, "rows_out", rows_out);
    rec.attr(id, "batches", 1u64);
    rec.attr(id, "bytes", rows_out * 8);
    Some(id)
}

/// The error estimate ξ of a bound θ — the whole range for the answer's
/// error bars, a borrowed sub-range for each of the diagnostic's disjoint
/// subsamples — around `center`, θ's estimate on that range, with
/// resamples drawn from `seeds.rng(label)`. `pass` is the range's
/// closed-form pass where one was made already; `coverage` is
/// `opts.alpha`'s.
fn error_ci(
    bound: &mut BoundTheta<'_>,
    pass: Option<ClosedForm>,
    center: f64,
    opts: &ApproxOptions,
    coverage: Coverage,
    seeds: &SeedStream,
    label: u64,
) -> (Option<aqp_stats::ci::Ci>, MethodUsed) {
    // `Auto` takes the closed form when there is one (it says so itself).
    if opts.method == MethodChoice::Auto {
        if let Some(ci) = pass.or_else(|| bound.closed_form(Some(center))).and_then(|pass| pass.ci(coverage)) {
            return (Some(ci), MethodUsed::ClosedForm);
        }
    }
    let mut rng = seeds.rng(label);
    match bootstrap_ci_prepared(&mut rng, bound, center, opts.bootstrap_k, opts.alpha) {
        Some(ci) => (Some(ci), MethodUsed::Bootstrap),
        None => (None, MethodUsed::None),
    }
}

/// The diagnostic operator's view of one (group, aggregate) job: the p
/// disjoint subsamples of each level, as row ranges of the
/// already-collected data.
///
/// `row_window` is the total pre-filter row count the positions in
/// `data` index into (the whole sample). For uniform samples it equals
/// `ctx.sample_rows`; for a stratified group, `ctx.sample_rows` is the
/// *stratum's* sample size while positions still span the whole sample,
/// so subsample contexts are scaled by the stratum's share.
struct Subsamples<'a> {
    theta: &'a PreparedTheta,
    data: &'a AggData,
    ctx: SampleContext,
    row_window: usize,
    cfg: &'a DiagnosticConfig,
    opts: &'a ApproxOptions,
    seeds: SeedStream,
    /// `opts.alpha`'s, for every closed-form ξ of the job.
    coverage: Coverage,
    /// Each level's p + 1 value boundaries — subsample j holds the values
    /// `bounds[j]..bounds[j + 1]` — found when the level is first read.
    bounds: Vec<OnceCell<Vec<usize>>>,
}

impl Subsamples<'_> {
    /// The context of a subsample of `level`.
    fn sub_ctx(&self, level: usize) -> SampleContext {
        subsample_context(&self.ctx, self.row_window, self.cfg.subsample_rows[level])
    }

    /// The values of subsample `j` of `level`: a run of pre-filter rows
    /// ([`subsample_bounds`]), so filtered counts vary across subsamples
    /// as they do across real samples.
    fn range(&self, level: usize, j: usize) -> Range<usize> {
        let bounds = self.bounds[level].get_or_init(|| {
            let (data, b) = (self.data, self.cfg.subsample_rows[level]);
            let positions = Some(&data.positions[..]).filter(|q| q.len() == data.values.len());
            subsample_bounds(positions, data.values.len(), self.row_window, b, self.cfg.p)
        });
        bounds[j]..bounds[j + 1]
    }

    /// θ̂ on subsample `j` of `level` with θ bound to the subsample and, when
    /// ξ is a closed form whose θ is one of the pass's folds
    /// ([`PreparedTheta::theta_from_pass`]), the pass θ̂ was read from, for
    /// ξ to reuse.
    fn theta_hat(&self, level: usize, j: usize) -> (f64, (BoundTheta<'_>, Option<ClosedForm>)) {
        let mut bound = self.theta.bind(self.data, self.range(level, j), &self.sub_ctx(level));
        let (theta_hat, pass) = match self.opts.method {
            MethodChoice::Auto => bound.estimate_with_pass(),
            MethodChoice::Bootstrap => (bound.estimate(), None),
        };
        (theta_hat, (bound, pass))
    }

    /// ξ's half-width on a bound subsample, around the θ̂ the driver
    /// already has. Each (level, j) draws from a stream of its own, so
    /// neither the order of evaluation nor what is skipped shows in it.
    fn xi(&self, level: usize, j: usize, theta_hat: f64, (mut bound, pass): (BoundTheta<'_>, Option<ClosedForm>)) -> f64 {
        let level_seeds = self.seeds.derive(level as u64);
        let (opts, coverage) = (self.opts, self.coverage);
        let (ci, _) = error_ci(&mut bound, pass, theta_hat, opts, coverage, &level_seeds, j as u64);
        ci.map_or(f64::NAN, |ci| ci.half_width)
    }

    /// Algorithm 1 over the collected data, around `theta_s` = θ(S).
    fn diagnose(&self, theta_s: f64) -> DiagnosticReport {
        diagnose(
            theta_s,
            self.data.values.len(),
            self.cfg,
            self.opts.alpha,
            |level, j| self.theta_hat(level, j),
            |level, j, theta_hat, prepared| self.xi(level, j, theta_hat, prepared),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqp_sql::{parse_query, plan_query};
    use aqp_stats::dist::sample_lognormal;
    use aqp_stats::rng::rng_from_seed;
    use aqp_stats::sampling::with_replacement_indices;
    use aqp_storage::{Batch, Column, DataType, Field, Schema};

    /// A synthetic sessions table with lognormal times, Zipf-free city mix.
    fn population(rows: usize, seed: u64) -> Table {
        let mut rng = rng_from_seed(seed);
        let cities = ["NYC", "SF", "LA", "CHI"];
        let city: Vec<&str> = (0..rows).map(|i| cities[i % 4]).collect();
        let time: Vec<f64> = (0..rows).map(|_| sample_lognormal(&mut rng, 2.0, 0.6)).collect();
        let user: Vec<i64> = (0..rows).map(|i| (i % 500) as i64).collect();
        let schema = Schema::new(vec![
            Field::new("city", DataType::Str),
            Field::new("time", DataType::Float),
            Field::new("user_id", DataType::Int),
        ])
        .unwrap();
        let batch = Batch::new(
            schema,
            vec![Column::from_strs(&city), Column::from_f64s(time), Column::from_i64s(user)],
        )
        .unwrap();
        Table::from_batch("sessions", batch, 4).unwrap()
    }

    /// Draw a shuffled with-replacement sample table.
    fn sample_of(table: &Table, n: usize, seed: u64) -> Table {
        let mut rng = rng_from_seed(seed);
        let idx = with_replacement_indices(&mut rng, n, table.num_rows());
        let batch = table.gather(&idx).unwrap();
        Table::from_batch("sessions_sample", batch, 4).unwrap()
    }

    fn plan_of(sql: &str, table: &Table) -> LogicalPlan {
        let q = parse_query(sql).unwrap();
        plan_query(&q, table.schema()).unwrap()
    }

    #[test]
    fn approx_avg_matches_exact_within_ci() {
        let pop = population(100_000, 1);
        let sample = sample_of(&pop, 20_000, 2);
        let plan = plan_of("SELECT AVG(time) FROM sessions WHERE city = 'NYC'", &pop);
        let registry = UdfRegistry::default();

        let exact = execute_exact(&plan, &pop, &registry, 2).unwrap();
        let truth = exact.scalar().unwrap();

        let opts = ApproxOptions { seed: 3, ..Default::default() };
        let approx = execute_approx(&plan, &sample, pop.num_rows(), &registry, &opts).unwrap();
        let r = approx.scalar().unwrap();
        let ci = r.ci.unwrap();
        assert_eq!(r.method, MethodUsed::ClosedForm); // Auto picks closed form for AVG
        assert!(
            (r.estimate - truth).abs() < 6.0 * ci.half_width,
            "estimate {} vs truth {truth} (hw {})",
            r.estimate,
            ci.half_width
        );
        assert!(ci.contains(truth) || (r.estimate - truth).abs() < 3.0 * ci.half_width);
    }

    #[test]
    fn sum_and_count_scale_to_population() {
        let pop = population(50_000, 4);
        let sample = sample_of(&pop, 10_000, 5);
        let plan = plan_of("SELECT COUNT(*), SUM(time) FROM sessions WHERE city = 'SF'", &pop);
        let registry = UdfRegistry::default();
        let exact = execute_exact(&plan, &pop, &registry, 2).unwrap();
        let (_, exact_vals) = &exact.groups[0];

        let opts = ApproxOptions { seed: 6, ..Default::default() };
        let approx = execute_approx(&plan, &sample, pop.num_rows(), &registry, &opts).unwrap();
        let count_est = approx.groups[0].aggs[0].estimate;
        let sum_est = approx.groups[0].aggs[1].estimate;
        assert!((count_est - exact_vals[0]).abs() / exact_vals[0] < 0.1,
            "count {count_est} vs {}", exact_vals[0]);
        assert!((sum_est - exact_vals[1]).abs() / exact_vals[1] < 0.1,
            "sum {sum_est} vs {}", exact_vals[1]);
    }

    #[test]
    fn group_by_gives_per_group_results() {
        let pop = population(40_000, 7);
        let sample = sample_of(&pop, 8_000, 8);
        let plan = plan_of("SELECT city, AVG(time) FROM sessions GROUP BY city", &pop);
        let registry = UdfRegistry::default();
        let opts = ApproxOptions { seed: 9, ..Default::default() };
        let approx = execute_approx(&plan, &sample, pop.num_rows(), &registry, &opts).unwrap();
        assert_eq!(approx.groups.len(), 4);
        for g in &approx.groups {
            assert!(g.aggs[0].ci.is_some(), "group {} lacks CI", g.key);
        }
    }

    #[test]
    fn bootstrap_forced_for_max() {
        let pop = population(40_000, 10);
        let sample = sample_of(&pop, 8_000, 11);
        let plan = plan_of("SELECT MAX(time) FROM sessions", &pop);
        let registry = UdfRegistry::default();
        let opts = ApproxOptions { seed: 12, ..Default::default() };
        let approx = execute_approx(&plan, &sample, pop.num_rows(), &registry, &opts).unwrap();
        assert_eq!(approx.scalar().unwrap().method, MethodUsed::Bootstrap);
    }

    #[test]
    fn diagnostic_accepts_avg_rejects_nothing_on_benign_data() {
        let pop = population(100_000, 16);
        let sample = sample_of(&pop, 30_000, 17);
        let plan = plan_of("SELECT AVG(time) FROM sessions", &pop);
        let registry = UdfRegistry::default();
        let opts = ApproxOptions {
            seed: 18,
            diagnostic: Some(DiagnosticConfig::scaled_to(30_000, 50)),
            ..Default::default()
        };
        let approx = execute_approx(&plan, &sample, pop.num_rows(), &registry, &opts).unwrap();
        let r = approx.scalar().unwrap();
        let d = r.diagnostic.as_ref().unwrap();
        assert!(d.accepted, "{d:#?}");
        assert!(r.error_bars_reliable());
        assert!(approx.timings.diagnostics() > std::time::Duration::ZERO);
        // The executor trace must name every pipeline stage.
        let stages: Vec<&str> = approx.trace.stages().iter().map(|&(n, _)| n).collect();
        for want in [
            stage::SCAN_COLLECT,
            stage::POINT_ESTIMATE,
            stage::ERROR_ESTIMATION,
            stage::DIAGNOSTICS,
            stage::ASSEMBLE,
        ] {
            assert!(stages.contains(&want), "missing stage {want} in {stages:?}");
        }
        let d = approx.trace.find(stage::DIAGNOSTICS).unwrap();
        assert_eq!(d.attr("accepted"), Some("1"));
    }

    #[test]
    fn nested_query_executes_with_bootstrap() {
        let pop = population(30_000, 19);
        let sample = sample_of(&pop, 6_000, 20);
        let plan = plan_of(
            "SELECT AVG(s) FROM (SELECT SUM(time) AS s FROM sessions GROUP BY user_id)",
            &pop,
        );
        let registry = UdfRegistry::default();
        let opts = ApproxOptions { seed: 21, ..Default::default() };
        let approx = execute_approx(&plan, &sample, pop.num_rows(), &registry, &opts).unwrap();
        let r = approx.scalar().unwrap();
        assert_eq!(r.method, MethodUsed::Bootstrap);
        assert!(r.ci.is_some());
        assert!(r.estimate.is_finite());
    }

    #[test]
    fn udf_query_executes_with_bootstrap() {
        let pop = population(30_000, 22);
        let sample = sample_of(&pop, 6_000, 23);
        let plan = plan_of("SELECT trimmed_mean(time) FROM sessions", &pop);
        let registry = UdfRegistry::default();
        let opts = ApproxOptions { seed: 24, ..Default::default() };
        let approx = execute_approx(&plan, &sample, pop.num_rows(), &registry, &opts).unwrap();
        let r = approx.scalar().unwrap();
        assert_eq!(r.method, MethodUsed::Bootstrap);
        assert!(r.ci.is_some());
    }

    #[test]
    fn approx_trace_carries_operator_spans_with_counters() {
        use aqp_sql::logical::{DiagnosticWeights, ErrorMethod, ResampleSpec};
        use aqp_sql::rewriter::{rewrite_for_error_estimation, ResamplePlacement};

        let pop = population(20_000, 30);
        let sample = sample_of(&pop, 5_000, 31);
        let mut spec = ResampleSpec::bootstrap(20, 31);
        spec.diagnostic = Some(DiagnosticWeights { subsample_rows: vec![100, 200], p: 20 });
        let plan = rewrite_for_error_estimation(
            plan_of("SELECT AVG(time) FROM sessions WHERE city = 'NYC'", &pop),
            spec,
            ErrorMethod::Bootstrap,
            0.95,
            ResamplePlacement::PushedDown,
        );
        let registry = UdfRegistry::default();
        let opts = ApproxOptions {
            seed: 32,
            threads: 2,
            method: MethodChoice::Bootstrap,
            bootstrap_k: 20,
            diagnostic: Some(DiagnosticConfig::scaled_to(5_000, 20)),
            ..Default::default()
        };
        let approx = execute_approx(&plan, &sample, pop.num_rows(), &registry, &opts).unwrap();

        // One op: span per plan operator, each tagged with its preorder
        // node id and row counters.
        let ops: Vec<&aqp_obs::Span> = approx
            .trace
            .spans
            .iter()
            .filter(|s| s.name.starts_with("op:"))
            .collect();
        let names: Vec<&str> = ops.iter().map(|s| s.name.as_str()).collect();
        for want in ["op:Scan", "op:Filter", "op:Resample", "op:Aggregate", "op:ErrorEstimate", "op:Diagnostic"]
        {
            assert!(names.contains(&want), "missing {want} in {names:?}");
        }
        let scan = ops.iter().find(|s| s.name == "op:Scan").unwrap();
        assert_eq!(scan.attr("rows_in"), Some("5000"));
        assert_eq!(scan.attr("rows_out"), Some("5000"));
        assert_eq!(scan.attr("sample_fraction"), Some("0.25"));
        assert_eq!(scan.attr("detail"), Some("Scan[sessions]"));
        let filter = ops.iter().find(|s| s.name == "op:Filter").unwrap();
        assert_eq!(filter.attr("rows_in"), Some("5000"));
        let survivors: usize = filter.attr("rows_out").unwrap().parse().unwrap();
        assert!(survivors > 0 && survivors < 5_000);
        // Node ids within one execution strictly descend (scan-first).
        let ids: Vec<usize> =
            ops.iter().map(|s| s.attr("node_id").unwrap().parse().unwrap()).collect();
        assert!(ids.windows(2).all(|w| w[1] < w[0]), "ids not descending: {ids:?}");
        // The error-estimate op carries the resamples it drew (one
        // bootstrap job × K = 20, none if the diagnostic refused the cell,
        // which then counts as skipped), the resample op its weight count.
        let err = ops.iter().find(|s| s.name == "op:ErrorEstimate").unwrap();
        let refused = approx.scalar().unwrap().refused();
        assert_eq!(err.attr("resamples"), Some(if refused { "0" } else { "20" }));
        assert_eq!(err.attr("skipped_refused"), Some(if refused { "1" } else { "0" }));
        assert_eq!(err.attr("rows_in"), Some("1"));
        // The resample op's weight count: K=20 bootstrap + 2 levels × p=20
        // diagnostic columns (Fig. 6(a)).
        let rs = ops.iter().find(|s| s.name == "op:Resample").unwrap();
        assert_eq!(rs.attr("resamples"), Some("60"));
        // The diagnostic op reports its verdict tallies.
        let diag = ops.iter().find(|s| s.name == "op:Diagnostic").unwrap();
        assert!(diag.attr("accepted").is_some());
        assert_eq!(diag.attr("rows_out"), Some("1"));
        // Per-stage reconciliation: op spans under a stage never sum past
        // the stage's wall time (sequential scaled layout).
        for (p, stage_span) in approx.trace.spans.iter().enumerate() {
            if stage_span.name.starts_with("op:") || stage_span.name == "worker" {
                continue;
            }
            let op_total: std::time::Duration = approx
                .trace
                .spans
                .iter()
                .filter(|s| s.parent == Some(p) && s.name.starts_with("op:"))
                .map(|s| s.duration())
                .sum();
            assert!(
                op_total <= stage_span.duration(),
                "{}: ops {op_total:?} > wall {:?}",
                stage_span.name,
                stage_span.duration()
            );
        }
    }

    /// The ladder config's own `alpha` is not an input of either executor:
    /// at 99 % both compare ξ with a 99 % truth, so Δ on the last level is
    /// the noise of that truth's quantile — within c₁ on a typical draw —
    /// not the 1.31 ratio of the two normal quantiles on every draw, and
    /// most of what is accepted at 95 % is accepted.
    #[test]
    fn both_executors_judge_at_the_options_alpha() {
        let pop = population(100_000, 70);
        let plan = plan_of("SELECT AVG(time) FROM sessions", &pop);
        let registry = UdfRegistry::default();
        let cfg = DiagnosticConfig::scaled_to(20_000, 50);
        assert_eq!(cfg.alpha, 0.95);
        type Executor =
            fn(&LogicalPlan, &Table, usize, &UdfRegistry, &ApproxOptions) -> Result<ApproxResult>;
        let executors: [(&str, Executor); 2] =
            [("optimized", execute_approx), ("baseline", crate::baseline::execute_baseline)];
        for (name, execute) in executors {
            // An α no quantile exists for is refused before any work.
            for alpha in [0.0, 1.0, 1.5, f64::NAN] {
                let opts = ApproxOptions { alpha, ..Default::default() };
                let refused = execute(&plan, &pop, pop.num_rows(), &registry, &opts);
                assert!(matches!(refused, Err(ExecError::Unsupported(_))), "{name} at α = {alpha}");
            }
            let judged_at = |alpha: f64| -> (usize, f64) {
                let mut deviations = Vec::new();
                let mut accepted = 0;
                for sample_seed in 71..=82 {
                    let sample = sample_of(&pop, 20_000, sample_seed);
                    let diagnostic = Some(cfg.clone());
                    let opts = ApproxOptions { seed: 72, alpha, diagnostic, threads: 2, ..Default::default() };
                    let result = execute(&plan, &sample, pop.num_rows(), &registry, &opts).unwrap();
                    let cell = result.scalar().unwrap();
                    assert!(cell.ci.is_none_or(|ci| ci.confidence == alpha), "{name}: {cell:?}");
                    let report = cell.diagnostic.as_ref().unwrap();
                    accepted += usize::from(report.accepted);
                    let last = report.levels.last().unwrap();
                    // NaN: the level stopped on π before every ξ was in.
                    deviations.push(if last.mean_deviation.is_nan() { f64::INFINITY } else { last.mean_deviation });
                }
                deviations.sort_by(f64::total_cmp);
                (accepted, deviations[deviations.len() / 2])
            };
            let (accepted_95, median_95) = judged_at(0.95);
            let (accepted_99, median_99) = judged_at(0.99);
            assert!(median_95 < cfg.c1 && median_99 < cfg.c1, "{name}: Δ {median_95} / {median_99}");
            assert!(accepted_95 >= 8 && 2 * accepted_99 >= accepted_95, "{name}: {accepted_95} / {accepted_99}");
        }
    }

    /// A refused cell leaves the executor without bars; filled on demand,
    /// they are the bars of a run that refuses nothing (no diagnostic, so
    /// every bar computed inline) — per-stratum contexts included.
    #[test]
    fn refused_bars_filled_on_demand_are_the_inline_ones() {
        let pop = population(100_000, 60);
        let sample = sample_of(&pop, 24_000, 61);
        let plan = plan_of("SELECT city, MAX(time), AVG(time) FROM sessions GROUP BY city", &pop);
        let registry = UdfRegistry::default();
        // Strata of their own sizes, as a stratified sample declares them.
        let strata = ["NYC", "SF", "LA", "CHI"].iter().zip([6_100, 5_900, 6_050, 5_950]);
        let group_contexts = strata.map(|(city, n)| (city.to_string(), (n, n * 4))).collect();
        let opts = ApproxOptions {
            seed: 62,
            bootstrap_k: 30,
            threads: 2,
            group_contexts: Some(group_contexts),
            ..Default::default()
        };
        let all = execute_approx(&plan, &sample, pop.num_rows(), &registry, &opts).unwrap();
        let judged =
            ApproxOptions { diagnostic: Some(DiagnosticConfig::scaled_to(24_000, 20)), ..opts.clone() };
        let mut lazy = execute_approx(&plan, &sample, pop.num_rows(), &registry, &judged).unwrap();
        let cells = |r: &ApproxResult| -> Vec<AggResult> {
            r.groups.iter().flat_map(|g| g.aggs.clone()).collect()
        };
        let refused: Vec<bool> = cells(&lazy).iter().map(AggResult::refused).collect();
        assert!(refused.iter().any(|r| *r) && !refused.iter().all(|r| *r), "{refused:?}");
        for ((got, want), refused) in cells(&lazy).iter().zip(cells(&all)).zip(&refused) {
            assert_eq!(got.estimate.to_bits(), want.estimate.to_bits());
            let skipped = (None, MethodUsed::None);
            assert_eq!((got.ci, got.method), if *refused { skipped } else { (want.ci, want.method) });
        }
        let span = lazy.trace.find(stage::ERROR_ESTIMATION).unwrap();
        let skipped = refused.iter().filter(|r| **r).count();
        assert_eq!(span.attr("skipped_refused"), Some(skipped.to_string().as_str()));
        assert_eq!(span.attr("jobs"), Some((8 - skipped).to_string().as_str()));

        let (filled, resamples) = lazy.fill_refused_bars(&judged);
        assert_eq!(filled, skipped);
        assert!(resamples > 0 && resamples % 30 == 0, "{resamples}");
        for (got, want) in cells(&lazy).iter().zip(cells(&all)) {
            assert_eq!((got.ci, got.method), (want.ci, want.method), "{}", got.name);
        }
        assert_eq!(lazy.fill_refused_bars(&judged), (0, 0));
    }

    /// What the verdict-first order rests on: ξ(level, j) is a function
    /// of (level, j) alone — its own RNG stream, no state carried from
    /// one subsample to the next — so evaluating the cells last to first
    /// gives the half-widths of first to last, bit for bit.
    #[test]
    fn subsample_error_estimates_do_not_depend_on_evaluation_order() {
        let pop = population(40_000, 40);
        let sample = sample_of(&pop, 10_000, 41);
        let registry = UdfRegistry::default();
        let opts = ApproxOptions { seed: 42, bootstrap_k: 30, ..Default::default() };
        let cfg = DiagnosticConfig::scaled_to(10_000, 20);
        for sql in [
            "SELECT MAX(time) FROM sessions WHERE city = 'NYC'",
            "SELECT trimmed_mean(time) FROM sessions",
            "SELECT AVG(s) FROM (SELECT SUM(time) AS s FROM sessions GROUP BY user_id)",
            "SELECT AVG(time) FROM sessions",
            "SELECT SUM(time) FROM sessions",
            "SELECT COUNT(*) FROM sessions WHERE city <> 'NYC'",
            "SELECT VARIANCE(time) FROM sessions",
            "SELECT STDDEV(time) FROM sessions",
        ] {
            let plan = plan_of(sql, &pop);
            let collected = crate::collect::collect(&plan, &sample, 2).unwrap();
            let thetas = prepare_thetas(&collected.agg_exprs, collected.inner_agg.as_ref(), &registry).unwrap();
            let subsamples = || Subsamples {
                theta: &thetas[0],
                data: &collected.groups[0].aggs[0],
                ctx: SampleContext::new(collected.pre_filter_rows, pop.num_rows()),
                row_window: collected.pre_filter_rows,
                cfg: &cfg,
                opts: &opts,
                seeds: SeedStream::new(43),
                coverage: Coverage::new(opts.alpha),
                bounds: vec![OnceCell::new(); cfg.k()],
            };
            let cells: Vec<(usize, usize)> =
                (0..cfg.k()).flat_map(|level| (0..cfg.p).map(move |j| (level, j))).collect();
            // A fresh job per order: nothing made in one is read by the other.
            let run = |order: &[(usize, usize)]| -> Vec<(u64, u64)> {
                let subsamples = subsamples();
                let cell = |&(level, j): &(usize, usize)| {
                    let (theta_hat, prepared) = subsamples.theta_hat(level, j);
                    (theta_hat.to_bits(), subsamples.xi(level, j, theta_hat, prepared).to_bits())
                };
                order.iter().map(cell).collect()
            };
            let forward = run(&cells);
            let reversed: Vec<(usize, usize)> = cells.iter().rev().copied().collect();
            let mut backward = run(&reversed);
            backward.reverse();
            assert_eq!(forward, backward, "{sql}");
            let distinct: std::collections::HashSet<u64> = forward.iter().map(|&(_, xi)| xi).collect();
            assert!(distinct.len() > cells.len() / 2, "{sql}: half-widths barely vary");
        }
    }

    /// A degraded run rescales the ladder to the rows that survived; when
    /// that collapses three sizes into two, or into one, the diagnostic
    /// still runs, and its report indexes the ladder it ran on.
    #[test]
    fn degraded_ladders_collapsed_to_one_or_two_levels_still_diagnose() {
        use aqp_diagnostics::Decision;
        let pop = population(40_000, 50);
        let sample = sample_of(&pop, 8_000, 51);
        let plan = plan_of("SELECT AVG(time) FROM sessions", &pop);
        let registry = UdfRegistry::default();
        // Every partition keeps a quarter of its rows.
        let mut faults = FaultConfig::quiescent(5);
        faults.truncation_prob = 1.0;
        faults.truncation_keep = 0.25;
        faults.recovery.max_lost_fraction = 1.0;
        for (ladder, levels_left) in [(vec![2, 4, 5], 1), (vec![2, 4, 8], 2)] {
            let cfg = DiagnosticConfig { p: 20, subsample_rows: ladder, ..DiagnosticConfig::fast() };
            let opts = ApproxOptions {
                seed: 52,
                diagnostic: Some(cfg),
                faults: Some(faults.clone()),
                ..Default::default()
            };
            let run = || execute_approx(&plan, &sample, pop.num_rows(), &registry, &opts).unwrap();
            let approx = run();
            let degraded = approx.degraded.as_ref().expect("truncated everywhere");
            assert_eq!(degraded.effective_rows * 4, degraded.planned_rows);
            let report = approx.scalar().unwrap().diagnostic.clone().unwrap();
            assert_eq!(report.levels.last().map(|l| l.level), Some(levels_left - 1), "{report:#?}");
            assert!(report.levels.iter().all(|l| l.b == l.level + 1), "{report:#?}");
            match &report.decision {
                Decision::Accepted => assert!(report.accepted),
                Decision::Failed { level, .. } => assert!(*level < levels_left && !report.accepted),
                Decision::Refused(why) => panic!("refused: {why}"),
            }
            let again = run().scalar().unwrap().diagnostic.clone().unwrap();
            assert_eq!(format!("{report:?}"), format!("{again:?}"));
        }
    }

    /// Equal values past 1.34e154 have no spread on the exact path either:
    /// VARIANCE and STDDEV answer 0, not the NaN of an overflowed square.
    #[test]
    fn exact_variance_of_equal_huge_values_is_zero() {
        let schema = Schema::new(vec![Field::new("time", DataType::Float)]).unwrap();
        let batch = Batch::new(schema, vec![Column::from_f64s(vec![1e300; 5])]).unwrap();
        let table = Table::from_batch("sessions", batch, 2).unwrap();
        for sql in ["SELECT VARIANCE(time) FROM sessions", "SELECT STDDEV(time) FROM sessions"] {
            let exact = execute_exact(&plan_of(sql, &table), &table, &UdfRegistry::default(), 2).unwrap();
            assert_eq!(exact.scalar(), Some(0.0), "{sql}");
        }
    }

    /// The offline diagnostic — `run_diagnostic` over a values vector, what
    /// `calibrate fig4` judges with — is the engine's on the same values
    /// with positions `0..n`, every field of the report bit for bit: both
    /// cut the subsamples with `subsample_bounds` and size them with
    /// `subsample_context`. Over θ × ξ × family, at a size where both
    /// verdicts are common, and on no values at all.
    #[test]
    fn offline_diagnostic_is_the_engines_bit_for_bit() {
        use aqp_diagnostics::{run_diagnostic, Decision};
        use aqp_stats::dist::{sample_normal, sample_pareto};
        use aqp_stats::error_estimator::{EstimationMethod, Theta};
        use aqp_stats::estimator::{udfs, Aggregate, Udf};
        use std::sync::Arc;
        let (n, population) = (40_000, 4_000_000);
        let ctx = SampleContext::new(n, population);
        let cfg = DiagnosticConfig::scaled_to(n, 20);
        let bits = |r: &DiagnosticReport| {
            let level = |l: &aqp_diagnostics::LevelReport| {
                let floats = [l.x, l.mean_deviation, l.relative_spread, l.close_proportion];
                (l.level, l.b, l.xi_evaluated, floats.map(f64::to_bits))
            };
            (r.levels.iter().map(level).collect::<Vec<_>>(), r.decision.clone(), r.accepted)
        };
        let mean_sq = Udf::new("mean_sq", |xs: &[f64]| xs.iter().map(|x| x * x).sum::<f64>() / xs.len() as f64);
        let builtins = [
            Aggregate::Avg, Aggregate::Sum, Aggregate::Count, Aggregate::Variance,
            Aggregate::StdDev, Aggregate::Min, Aggregate::Percentile(0.9),
        ];
        let udfs = [udfs::geometric_mean(), mean_sq].map(|u| Theta::Udf(Arc::new(u)));
        let thetas: Vec<Theta> = builtins.map(Theta::Builtin).into_iter().chain(udfs).collect();
        let mut rng = rng_from_seed(60);
        let families: [Vec<f64>; 4] = [
            (0..n).map(|_| sample_lognormal(&mut rng, 1.0, 1.0)).collect(),
            (0..n).map(|_| sample_pareto(&mut rng, 1.0, 1.3)).collect(),
            (0..n).map(|_| sample_normal(&mut rng, 50.0, 15.0)).collect(),
            Vec::new(),
        ];
        // ξ offline, and the choice that makes it the engine's.
        let xis = [
            (EstimationMethod::ClosedForm, MethodChoice::Auto),
            (EstimationMethod::Bootstrap { k: 100 }, MethodChoice::Bootstrap),
        ];
        let (mut accepted, mut refused) = (0, 0);
        for (family, values) in families.iter().enumerate() {
            let data = AggData { values: values.clone(), positions: (0..values.len() as u32).collect(), nested: None };
            for theta in &thetas {
                let closed = theta.builtin().is_some_and(|a| a.closed_form_applicable());
                for &(xi, method) in &xis[usize::from(!closed)..] {
                    let seeds = SeedStream::new(61 + family as u64);
                    let offline = run_diagnostic(values, &ctx, theta, &xi, &cfg, seeds);
                    let opts = ApproxOptions { method, bootstrap_k: 100, alpha: cfg.alpha, ..Default::default() };
                    let prepared = PreparedTheta { outer: theta.clone(), inner: None };
                    let engine = Subsamples {
                        theta: &prepared,
                        data: &data,
                        ctx,
                        row_window: n,
                        cfg: &cfg,
                        opts: &opts,
                        seeds,
                        coverage: Coverage::new(opts.alpha),
                        bounds: vec![OnceCell::new(); cfg.k()],
                    }
                    .diagnose(prepared.estimate(&data, &ctx));
                    let what = format!("{} {xi:?} family {family}", theta.name());
                    // Only the empty family is refused: it is below the floor of p values.
                    match &offline.decision {
                        Decision::Refused(why) => assert!(why.starts_with("0 values"), "{what}: {offline:?}"),
                        _ => assert!(!values.is_empty(), "{what}: {offline:?}"),
                    }
                    assert_eq!(bits(&offline), bits(&engine), "{what}");
                    if values.is_empty() {
                        continue;
                    }
                    accepted += usize::from(offline.accepted);
                    refused += usize::from(!offline.accepted);
                }
            }
        }
        assert!(accepted >= 10 && refused >= 10, "{accepted} accepted, {refused} refused");
    }

    #[test]
    fn deterministic_given_seed() {
        let pop = population(20_000, 25);
        let sample = sample_of(&pop, 5_000, 26);
        let plan = plan_of("SELECT SUM(time) FROM sessions WHERE city = 'LA'", &pop);
        let registry = UdfRegistry::default();
        let opts = ApproxOptions {
            seed: 27,
            method: MethodChoice::Bootstrap,
            ..Default::default()
        };
        let a = execute_approx(&plan, &sample, pop.num_rows(), &registry, &opts).unwrap();
        let b = execute_approx(&plan, &sample, pop.num_rows(), &registry, &opts).unwrap();
        assert_eq!(a.scalar().unwrap().ci, b.scalar().unwrap().ci);
    }
}
