//! The AQP session: registration, sampling, and reliable execution.

use std::cmp::Ordering;
use std::sync::Arc;

use aqp_audit::{AuditConfig, AuditReport};
use aqp_diagnostics::DiagnosticConfig;
use aqp_exec::collect::result_names;
use aqp_exec::engine::{execute_approx, execute_exact_observed, ApproxOptions, MethodChoice};
use aqp_exec::result::{AggResult, ExactResult, GroupResult, MethodUsed, StageTimings};
use aqp_exec::udf::UdfRegistry;
use aqp_exec::ExecError;
use aqp_obs::{name, stage, ObsHandle, QueryTrace, TraceRecorder};
use aqp_prof::OpProfile;
use aqp_sql::logical::{DiagnosticWeights, ErrorMethod, LogicalPlan, ResampleSpec};
use aqp_sql::rewriter::{rewrite_for_error_estimation, ResamplePlacement};
use aqp_sql::{parse_query, plan_query, Query};
use aqp_stats::rng::SeedStream;
use aqp_stats::sampling::{permutation, with_replacement_indices};
use aqp_storage::sample::{Sample, SampleMeta};
use aqp_storage::{
    Batch, Catalog, Column, DataType, Field, SamplingStrategy, Schema, Strata, StratumMeta, Table, Value,
};
use parking_lot::Mutex;

use crate::answer::{AnswerMode, AqpAnswer};
use crate::observers::Observers;
use crate::sample_selection::required_sample_rows;
use crate::Result;

/// Session-level configuration.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// Root seed for sampling, resampling, and diagnostics.
    pub seed: u64,
    /// Worker threads.
    pub threads: usize,
    /// Bootstrap resamples K.
    pub bootstrap_k: usize,
    /// Diagnostic subsamples per size (p), at least 2. The paper uses 100;
    /// sessions on laptop-scale samples may lower it.
    pub diagnostic_p: usize,
    /// Run the diagnostic on every approximate query.
    pub run_diagnostics: bool,
    /// Confidence when a query has no explicit error clause.
    pub default_confidence: f64,
    /// Observability context: the clock every stage span reads and the
    /// registry session counters/histograms land on. Defaults to the
    /// real clock + process-global registry; tests that assert exact
    /// metric values use `ObsHandle::isolated(Clock::mock())`.
    pub obs: ObsHandle,
    /// Continuous accuracy auditing: replay a deterministic fraction of
    /// approximate answers at full data and score CI coverage and
    /// diagnostic verdicts (`None` = off, the default; auditing adds
    /// replay cost proportional to its sample rate).
    pub audit: Option<AuditConfig>,
    /// Deterministic fault injection for approximate scans (`None` =
    /// off, the default — with `None` the pipeline is bit-identical to
    /// a build without the fault layer). When set, queries survive the
    /// injected faults by retrying/speculating per the config's
    /// recovery policy, degrade gracefully with widened error bars, or
    /// fall back to exact execution when losses exceed the policy.
    pub faults: Option<aqp_faults::FaultConfig>,
    /// Fleet-level SLOs: burn-rate/error-budget alerting over latency
    /// and CI-coverage objectives (the latter fed by the auditor's
    /// coverage verdicts), and the always-on flight recorder (`None` =
    /// off, the default — with `None` nothing is constructed and the
    /// pipeline is bit-identical to a build without the SLO layer).
    pub slo: Option<aqp_slo::SloConfig>,
    /// Continuous profiling: fold every query's operator profile into a
    /// fleet-cumulative profile keyed by workload class × operator path
    /// (`None` = off, the default — with `None` nothing is constructed,
    /// no `aqp.prof.contprof_*` metrics are registered,
    /// and answers/traces/metrics are bit-identical to a build without
    /// the profiler). See [`AqpSession::cumulative_profile`].
    pub contprof: Option<aqp_prof::contprof::ContProfConfig>,
    /// Self-hosted telemetry analytics: fold every query's telemetry
    /// (spans, timings, faults, audit scores, SLO alerts, operator
    /// rows) into bounded `_telemetry.*` tables the session itself
    /// answers aqp-sql over — exactly and approximately, with CIs and
    /// diagnostic verdicts (`None` = off, the default — with `None`
    /// nothing is constructed, no `aqp.introspect.*` metrics are
    /// registered, and answers/traces/metrics are bit-identical to a
    /// build without the introspection layer).
    pub introspect: Option<aqp_introspect::IntrospectConfig>,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            seed: 0,
            threads: aqp_exec::parallel::default_threads(),
            bootstrap_k: 100,
            diagnostic_p: 100,
            run_diagnostics: true,
            default_confidence: 0.95,
            obs: ObsHandle::default(),
            audit: None,
            faults: None,
            slo: None,
            contprof: None,
            introspect: None,
        }
    }
}

/// A reliable-AQP session.
pub struct AqpSession {
    catalog: Catalog,
    registry: Mutex<UdfRegistry>,
    observers: Observers,
    config: SessionConfig,
}

/// One query, parsed and planned against its leaf table, with the UDF
/// registry as it stood when the query arrived.
struct Prepared<'a> {
    sql: &'a str,
    query: Query,
    table: Arc<Table>,
    plan: LogicalPlan,
    registry: UdfRegistry,
}

impl AqpSession {
    /// Create a session.
    pub fn new(config: SessionConfig) -> Self {
        AqpSession {
            catalog: Catalog::new(),
            registry: Mutex::new(UdfRegistry::default()),
            observers: Observers::new(&config),
            config,
        }
    }

    /// The session's catalog handle.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The accuracy auditor's scorekeeping so far (`None` when auditing
    /// is off).
    pub fn audit_report(&self) -> Option<AuditReport> {
        self.observers.audit_report()
    }

    /// The SLO engine's scorekeeping so far — per-objective burn rates,
    /// budgets and latches, and the alert history (`None` when SLOs are
    /// off).
    pub fn slo_report(&self) -> Option<aqp_slo::SloReport> {
        self.observers.slo_report()
    }

    /// The always-on flight recorder (`None` when SLOs are off).
    pub fn flight_recorder(&self) -> Option<&aqp_obs::FlightRecorder> {
        self.observers.flight_recorder()
    }

    /// A snapshot of the fleet-cumulative operator profile accumulated
    /// so far (`None` when continuous profiling is off).
    pub fn cumulative_profile(&self) -> Option<aqp_prof::contprof::CumulativeProfile> {
        self.observers.cumulative_profile()
    }

    /// Register an aggregate UDF.
    pub fn register_udf(&self, name: &str, udf: aqp_stats::estimator::Udf) {
        self.registry.lock().register(name, udf);
    }

    /// Register a table.
    pub fn register_table(&self, table: Table) -> Result<()> {
        self.catalog.register_table(table)?;
        Ok(())
    }

    /// Build shuffled uniform samples of `table` at the given row counts
    /// (without replacement, so a sample is also a valid exact subset;
    /// stored pre-shuffled so any contiguous range is a uniform sample).
    pub fn build_samples(&self, table: &str, sizes: &[usize], seed: u64) -> Result<()> {
        let t = self.table_to_sample(table)?;
        let rows = t.num_rows();
        let seeds = SeedStream::new(self.config.seed ^ seed);
        for (i, &n) in sizes.iter().enumerate() {
            let mut rng = seeds.rng(i as u64);
            let (idx, strategy) = if n <= rows {
                let idx = aqp_stats::sampling::without_replacement_indices(&mut rng, n, rows);
                (idx, SamplingStrategy::WithoutReplacement)
            } else {
                (with_replacement_indices(&mut rng, n, rows), SamplingStrategy::WithReplacement)
            };
            let partitions = t.num_partitions().max(1);
            self.catalog.with_samples_mut(table, |set| {
                set.add_from_indices(&t, &idx, strategy, seeds.seed(i as u64), partitions).map(|_| ())
            })?;
        }
        Ok(())
    }

    /// The registered table `table`, refused when it has no row to sample.
    fn table_to_sample(&self, table: &str) -> Result<Arc<Table>> {
        let t = self.catalog.table(table)?;
        if t.num_rows() == 0 {
            return Err(crate::CoreError::Config(format!("table {table} has no rows to sample")));
        }
        Ok(t)
    }

    /// Build a *stratified* sample on `column`: up to `rows_per_stratum`
    /// uniformly-sampled rows per distinct value, each stratum with its
    /// own sampling rate (BlinkDB's mechanism for keeping rare groups
    /// answerable). GROUP-BY-on-`column` queries automatically use it
    /// with per-stratum scaling.
    pub fn build_stratified_sample(
        &self,
        table: &str,
        column: &str,
        rows_per_stratum: usize,
        seed: u64,
    ) -> Result<()> {
        let t = self.table_to_sample(table)?;
        // A stratum per GROUP BY group on `column`, as the executor groups
        // (`group_contexts` matches them by the rendered key), in key order.
        let mut strata = aqp_exec::collect::group_rows(&t, &[t.schema().index_of(column)?])?;
        strata.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        let seeds = SeedStream::new(self.config.seed ^ seed ^ 0x57A7);
        let mut indices: Vec<usize> = Vec::new();
        let mut groups: Vec<StratumMeta> = Vec::with_capacity(strata.len());
        for (si, (key, rows)) in strata.into_iter().enumerate() {
            let take = rows_per_stratum.min(rows.len());
            let mut rng = seeds.rng(si as u64);
            let picks =
                aqp_stats::sampling::without_replacement_indices(&mut rng, take, rows.len());
            indices.extend(picks.into_iter().map(|p| rows[p]));
            groups.push(StratumMeta { key, sample_rows: take, population_rows: rows.len() });
        }
        // Global shuffle so row ranges stay valid diagnostic subsamples.
        let mut rng = seeds.rng(0xFFFF);
        let perm = permutation(&mut rng, indices.len());
        let shuffled: Vec<usize> = perm.into_iter().map(|i| indices[i]).collect();
        let strata = Strata { column: column.to_owned(), groups };
        let partitions = t.num_partitions().max(1);
        self.catalog.with_samples_mut(table, |set| {
            set.add_stratified(&t, &shuffled, strata, seeds.seed(1), partitions)?;
            Ok(())
        })?;
        Ok(())
    }

    /// Render the rewritten plan an `execute` of this SQL would run,
    /// without executing it: annotated for the sample a query without an
    /// error clause runs on (see [`choose_sample`](Self::choose_sample)). A
    /// query with an error clause picks its sample by a pilot at run time.
    pub fn explain(&self, sql: &str) -> Result<String> {
        let query = parse_query(sql)?;
        let table = self.catalog.table(leaf_table_name(&query))?;
        let plan = plan_query(&query, table.schema())?;
        Ok(match self.choose_sample(table.name(), stratum_key(&query), usize::MAX) {
            Some(sample) => annotate(plan, &query, &self.approx_options(&query, &sample.meta)?).explain(),
            None => plan.explain(),
        })
    }

    /// Execute a SQL query, approximately when samples and/or an error
    /// clause allow, with automatic exact fallback on diagnostic
    /// rejection.
    ///
    /// Every execution yields a full lifecycle [`QueryTrace`] on the
    /// returned answer and feeds the session's metrics (see
    /// `aqp_obs::name::CORE_*`) and observers (see `observers.rs`).
    pub fn execute(&self, sql: &str) -> Result<AqpAnswer> {
        let obs = &self.config.obs;
        obs.metrics.counter(name::CORE_QUERIES).inc();
        self.observers.before(sql, &self.catalog)?;
        let started = obs.clock.now();
        let rec = obs.recorder();
        let result = self.execute_traced(sql, &rec);
        let elapsed = obs.clock.now().duration_since(started);
        obs.metrics
            .histogram(name::CORE_QUERY_MS)
            .record_ms(elapsed.as_secs_f64() * 1e3);
        let answer = finish_with_trace(rec, result);
        self.observers.finished(sql, &answer, elapsed);
        answer
    }

    /// The prologue every entry point shares: parse → leaf table → plan →
    /// registry snapshot, with the parse and plan stages recorded on `rec`.
    fn prepare<'a>(&self, sql: &'a str, rec: &TraceRecorder) -> Result<Prepared<'a>> {
        let query = rec.in_span(stage::PARSE, || parse_query(sql))?;
        let table = self.catalog.table(leaf_table_name(&query))?;
        let plan = rec.in_span(stage::PLAN, || plan_query(&query, table.schema()))?;
        let registry = self.registry.lock().clone();
        Ok(Prepared { sql, query, table, plan, registry })
    }

    /// The body of [`execute`](AqpSession::execute), recording lifecycle
    /// stages on `rec`.
    fn execute_traced(&self, sql: &str, rec: &TraceRecorder) -> Result<AqpAnswer> {
        let p = self.prepare(sql, rec)?;

        // A query grouped by one column looks for a stratified sample on it
        // under a selection span of its own, closed empty when there is none.
        let key = stratum_key(&p.query);
        let lookup = key.map(|_| rec.start(stage::SAMPLE_SELECTION));
        // With an error clause the uniform pick is the pilot (the smallest
        // non-empty sample); without one it is the sample that runs.
        let first_rows = if p.query.error_clause.is_some() { 1 } else { usize::MAX };
        let chosen = self.choose_sample(p.table.name(), key, first_rows);
        if let Some(sel) = lookup {
            if let Some(sample) = chosen.as_ref().filter(|s| s.meta.strata.is_some()) {
                rec.attr(sel, "strategy", "stratified");
                rec.attr(sel, "sample_rows", sample.meta.rows);
            }
            rec.end(sel);
        }
        let Some(mut sample) = chosen else {
            return self.exact_answer(&p, AnswerMode::Exact, rec);
        };
        if sample.meta.strata.is_some() {
            return self.execute_on_sample(&p, sample, rec);
        }

        // --- Sample selection. ---
        let sel = rec.start(stage::SAMPLE_SELECTION);
        let mut wanted_rows = usize::MAX; // largest sample
        if let Some(e) = p.query.error_clause {
            wanted_rows =
                self.pilot_required_rows(&p, &sample, e.relative_error, rec)?.unwrap_or(usize::MAX);
            // A set dropped while the pilot ran finishes on the pilot.
            sample = self.choose_sample(p.table.name(), None, wanted_rows).unwrap_or(sample);
        }
        rec.attr(sel, "strategy", "uniform");
        if wanted_rows != usize::MAX {
            rec.attr(sel, "wanted_rows", wanted_rows);
        }
        rec.attr(sel, "sample_rows", sample.meta.rows);
        rec.end(sel);
        self.execute_on_sample(&p, sample, rec)
    }

    /// The sample of `table` a query runs on: the stratified sample on
    /// `key` ([`stratum_key`]) if one is stored, else the smallest uniform
    /// sample of at least `rows` rows, else the largest. One catalog read
    /// checks and picks, and clones only what it picked, so a concurrent
    /// `drop_table` (or a telemetry re-sync) finds no gap between the two;
    /// no sample is `None`.
    fn choose_sample(&self, table: &str, key: Option<&str>, rows: usize) -> Option<Sample> {
        let picked = self.catalog.with_samples(table, |set| {
            let stratified = key.and_then(|k| set.stratified_on(k));
            let fit = || set.uniform_samples().find(|s| s.meta.rows >= rows).or_else(|| set.largest());
            Ok(stratified.or_else(fit).cloned())
        });
        picked.ok().flatten()
    }

    /// The one statement of an approximate run of `query` on the sample
    /// `meta` describes: estimator choice, K, α (the query's own confidence,
    /// else the session's), the diagnostic's ladder, seed, and per-stratum
    /// scaling. The plan annotation ([`annotate`]), the pilot's options and
    /// the α the diagnostic judges at are all derived from this value.
    ///
    /// A configuration that admits no such run — a default confidence
    /// outside (0, 1), a diagnostic of fewer than two subsamples — is a
    /// `CoreError::Config` here, so no options value is built from one.
    fn approx_options(&self, query: &Query, meta: &SampleMeta) -> Result<ApproxOptions> {
        let config = &self.config;
        if !(config.default_confidence > 0.0 && config.default_confidence < 1.0) {
            let c = config.default_confidence;
            return Err(crate::CoreError::Config(format!("default_confidence {c} is outside (0, 1)")));
        }
        if config.diagnostic_p < 2 {
            // At p = 1 the last level's truth is θ(S) itself: x = 0 refuses every bar.
            return Err(crate::CoreError::Config("diagnostic_p must be at least 2".into()));
        }
        Ok(ApproxOptions {
            method: MethodChoice::Auto,
            bootstrap_k: config.bootstrap_k,
            alpha: query.error_clause.map_or(config.default_confidence, |e| e.confidence),
            diagnostic: config
                .run_diagnostics
                .then(|| DiagnosticConfig::scaled_to(meta.rows, config.diagnostic_p)),
            seed: config.seed,
            threads: config.threads,
            group_contexts: meta.strata.as_ref().map(|st| {
                let sizes = |g: &StratumMeta| (g.key.clone(), (g.sample_rows, g.population_rows));
                st.groups.iter().map(sizes).collect()
            }),
            obs: config.obs.clone(),
            faults: config.faults.clone(),
        })
    }

    /// Run the approximate pipeline on a chosen sample (uniform or
    /// stratified) with the per-result reliability gate and exact merge.
    fn execute_on_sample(
        &self,
        p: &Prepared<'_>,
        sample: Sample,
        rec: &TraceRecorder,
    ) -> Result<AqpAnswer> {
        let Sample { meta, data: sample_table } = sample;
        let opts = self.approx_options(&p.query, &meta)?;
        let rewritten = annotate(p.plan.clone(), &p.query, &opts);

        // --- Approximate execution. ---
        let mut approx = match execute_approx(
            &rewritten,
            &sample_table,
            p.table.num_rows(),
            &p.registry,
            &opts,
        ) {
            Ok(a) => a,
            Err(aqp_exec::ExecError::Degraded { lost_partitions, total_partitions }) => {
                // Injected faults lost more of the sample than the
                // recovery policy tolerates: refuse the degraded
                // approximation and serve exact truth instead.
                self.config.obs.metrics.counter(name::FAULTS_EXACT_FALLBACKS).inc();
                self.observers.degraded_fallback();
                let gate = rec.start(stage::RELIABILITY_GATE);
                rec.attr(gate, "degraded_lost_partitions", lost_partitions);
                rec.attr(gate, "degraded_total_partitions", total_partitions);
                rec.end(gate);
                return self.exact_answer(p, AnswerMode::ExactFallback, rec);
            }
            Err(e) => return Err(e.into()),
        };
        rec.graft(std::mem::take(&mut approx.trace));

        // --- Reliability gate, per result (§2.1: each group-aggregate is
        // its own query). Rejected results are replaced with exact values;
        // approved ones keep their error bars. ---
        let gate = rec.start(stage::RELIABILITY_GATE);
        let total_results: usize = approx.groups.iter().map(|g| g.aggs.len()).sum();
        let rejected: usize = approx
            .groups
            .iter()
            .flat_map(|g| g.aggs.iter())
            .filter(|a| !a.error_bars_reliable())
            .count();
        rec.attr(gate, "results", total_results);
        rec.attr(gate, "rejected", rejected);
        if let Some(d) = &approx.degraded {
            // The gate (and anyone reading the trace) sees the reduced
            // effective sample behind these error bars.
            rec.attr(gate, "degraded_effective_rows", d.effective_rows);
            rec.attr(gate, "degraded_planned_rows", d.planned_rows);
            rec.attr(gate, "widen_factor", d.widen_factor);
        }
        // The executor computed no bars for the results its diagnostic
        // refused, and only the auditor scores those (the reject row of
        // Fig. 4): what they would be computed from outlives this point —
        // and the exact run below — only for a query the auditor selects.
        let audit = self.observers.wants_audit();
        if audit.is_none() || rejected == 0 {
            approx.bar_inputs = None;
        }
        let (groups, mode) = if rejected == 0 {
            rec.end(gate);
            // Every result has its bars; the auditor replays for the truth.
            if let Some(ordinal) = audit {
                self.audit_with_replay(p, ordinal, &approx.groups, rec);
            }
            let mode = if self.config.run_diagnostics {
                AnswerMode::Approximate
            } else {
                AnswerMode::ApproximateUnchecked
            };
            (approx.groups, mode)
        } else {
            // Exact execution once; merge per result.
            let exact = self.run_exact(p)?;
            rec.graft(exact.trace);
            // The fallback already paid for full-data truth; the auditor
            // can score this query for the price of the skipped bars.
            if let Some(ordinal) = audit {
                let clock = &self.config.obs.clock;
                let ((jobs, resamples), took) = clock.time(|| approx.fill_refused_bars(&opts));
                rec.attr(gate, "audit_bars_jobs", jobs);
                rec.attr(gate, "audit_bars_resamples", resamples);
                rec.attr(gate, "audit_bars_ms", format_args!("{:.3}", took.as_secs_f64() * 1e3));
                self.observers.audited(p.sql, ordinal, 0.0, &approx.groups, &exact.groups);
            }
            let merged = merge_with_exact(exact.groups, approx.groups, &result_names(&p.plan)?)?;
            let mode = if rejected == total_results {
                self.config.obs.metrics.counter(name::CORE_FALLBACKS_EXACT).inc();
                AnswerMode::ExactFallback
            } else {
                self.config.obs.metrics.counter(name::CORE_FALLBACKS_PARTIAL).inc();
                AnswerMode::PartialFallback
            };
            rec.end(gate);
            (merged, mode)
        };
        apply_having(p, AqpAnswer {
            groups,
            mode,
            fell_back: rejected > 0,
            sample_rows: approx.sample_rows,
            population_rows: approx.population_rows,
            timings: approx.timings,
            trace: QueryTrace::default(),
            plan: rewritten.explain(),
            profile: None,
            degraded: approx.degraded,
        })
    }

    fn run_exact(&self, p: &Prepared<'_>) -> aqp_exec::Result<ExactResult> {
        execute_exact_observed(
            &p.plan,
            &p.table,
            &p.registry,
            self.config.threads,
            &self.config.obs,
        )
    }

    /// The full-data answer to `p`, HAVING / ORDER BY / LIMIT applied.
    fn exact_answer(
        &self,
        p: &Prepared<'_>,
        mode: AnswerMode,
        rec: &TraceRecorder,
    ) -> Result<AqpAnswer> {
        let exact = self.run_exact(p)?;
        rec.graft(exact.trace);
        apply_having(p, AqpAnswer {
            groups: merge_with_exact(exact.groups, Vec::new(), &result_names(&p.plan)?)?,
            mode,
            fell_back: matches!(mode, AnswerMode::ExactFallback),
            sample_rows: 0,
            population_rows: p.table.num_rows(),
            timings: StageTimings::default(),
            trace: QueryTrace::default(),
            plan: p.plan.explain(),
            profile: None,
            degraded: None,
        })
    }

    /// The auditor selected a query whose results all kept their bars:
    /// replay it at full data under an `audit_replay` span and hand served
    /// and truth to the observers. Infallible by design: an audit failure
    /// must never fail or alter the query it audits.
    fn audit_with_replay(
        &self,
        p: &Prepared<'_>,
        ordinal: u64,
        served: &[GroupResult],
        rec: &TraceRecorder,
    ) {
        let span = rec.start(stage::AUDIT_REPLAY);
        let (replay, took) = self.config.obs.clock.time(|| self.run_exact(p));
        // Nest the replay's own engine spans under the audit-replay span
        // so `StageTimings::audit_replay()` and the operator profile both
        // see the replay cost.
        let truth = replay.ok().map(|e| {
            rec.graft(e.trace);
            e.groups
        });
        rec.end(span);
        if let Some(truth) = truth {
            self.observers.audited(p.sql, ordinal, took.as_secs_f64() * 1e3, served, &truth);
        }
    }

    /// Run the pilot to translate an error clause into required rows.
    fn pilot_required_rows(
        &self,
        p: &Prepared<'_>,
        pilot: &Sample,
        rel_err: f64,
        rec: &TraceRecorder,
    ) -> Result<Option<usize>> {
        let opts = ApproxOptions {
            bootstrap_k: 50,
            diagnostic: None,
            seed: self.config.seed ^ 0xB107,
            // The pilot sizes samples; it must not be perturbed by
            // injected faults (the real query still is).
            faults: None,
            ..self.approx_options(&p.query, &pilot.meta)?
        };
        let mut approx =
            execute_approx(&p.plan, &pilot.data, p.table.num_rows(), &p.registry, &opts)?;
        // The pilot's engine stages nest under the open sample-selection
        // span — the pilot *is* part of choosing the sample.
        rec.graft(std::mem::take(&mut approx.trace));
        // The widest relative interval across groups/aggregates is the
        // binding constraint.
        let needed = approx.groups.iter().flat_map(|g| &g.aggs).filter_map(|a| {
            required_sample_rows(a.ci.as_ref()?, approx.sample_rows, rel_err)
        });
        Ok(needed.max())
    }
}

/// The plan rewrite of §5.3 for a run under `opts`: one consolidated
/// resample (K weights plus the diagnostic ladder's), pushed down, under
/// the error estimator `query` admits at the run's α.
fn annotate(plan: LogicalPlan, query: &Query, opts: &ApproxOptions) -> LogicalPlan {
    let spec = ResampleSpec {
        bootstrap_k: opts.bootstrap_k,
        diagnostic: opts.diagnostic.as_ref().map(|c| DiagnosticWeights {
            subsample_rows: c.subsample_rows.clone(),
            p: c.p,
        }),
        seed: opts.seed,
    };
    let method = match opts.method {
        MethodChoice::Bootstrap => ErrorMethod::Bootstrap,
        MethodChoice::Auto if !query.closed_form_applicable() => ErrorMethod::Bootstrap,
        MethodChoice::Auto => ErrorMethod::ClosedForm,
    };
    rewrite_for_error_estimation(plan, spec, method, opts.alpha, ResamplePlacement::PushedDown)
}

/// The exact run's groups as answer groups — its group set is
/// authoritative, the sample can miss rare groups entirely. A result
/// `approx` served with reliable error bars moves over with them; a
/// rejected one serves the exact value and keeps its verdict; one the
/// sample never saw is plain exact, named from `names`
/// ([`result_names`]), as the approximate path names its results.
///
/// Both lists are in rendered-key byte order (`Keys::into_sorted`), so one
/// walk pairs them: an approximate group whose key the walk passes without
/// an exact partner is dropped.
fn merge_with_exact(
    exact: Vec<(String, Vec<f64>)>,
    approx: Vec<GroupResult>,
    names: &[String],
) -> aqp_exec::Result<Vec<GroupResult>> {
    let mut approx = approx.into_iter().peekable();
    exact
        .into_iter()
        .map(|(key, vals)| {
            if vals.len() != names.len() {
                return Err(ExecError::PlanInvariant(format!("{} exact answers for {} aggregates", vals.len(), names.len())));
            }
            while approx.next_if(|g| g.key < key).is_some() {}
            let partner = approx.next_if(|g| g.key == key);
            let mut served = partner.map_or_else(Vec::new, |g| g.aggs).into_iter();
            let aggs = vals.into_iter().zip(names).map(|(v, name)| match served.next() {
                Some(a) if a.error_bars_reliable() => a,
                Some(a) => AggResult { estimate: v, ci: None, method: MethodUsed::None, ..a },
                None => AggResult { name: name.clone(), estimate: v, ci: None, method: MethodUsed::None, diagnostic: None },
            });
            Ok(GroupResult { aggs: aggs.collect(), key })
        })
        .collect()
}

/// Close the lifecycle recorder and attach the finished trace, the stage
/// timings and the operator profile derived from it to a successful
/// answer.
fn finish_with_trace(rec: TraceRecorder, result: Result<AqpAnswer>) -> Result<AqpAnswer> {
    let trace = rec.finish();
    result.map(|mut a| {
        a.timings = StageTimings::from_trace(&trace);
        a.profile = OpProfile::from_trace(&trace);
        a.trace = trace;
        a
    })
}

/// The aliases of the SELECT aggregates, positionally.
fn agg_aliases(query: &Query) -> impl Iterator<Item = Option<&str>> {
    query.select.iter().filter_map(|item| match item {
        aqp_sql::ast::SelectItem::Agg(_, alias) => Some(alias.as_deref()),
        _ => None,
    })
}

/// Column `ki` of the GROUP BY key (`name` in the scanned table's
/// `schema`), one row per group, typed as the table declares it — a `Str`
/// zip code is not a number, whatever its rendering parses as. A typed
/// column's NULL cell (rendered `NULL`) is NULL; a `Str` column's NULL and
/// `'NULL'` already share a group upstream and stay that string.
fn key_column(schema: &Schema, name: &str, ki: usize, groups: &[GroupResult]) -> Result<Column> {
    let cells = groups.iter().map(|g| g.key.split('\u{1f}').nth(ki).unwrap_or(""));
    Ok(match schema.field(name)?.data_type {
        DataType::Str => Column::from_strs(&cells.collect::<Vec<_>>()),
        DataType::Int => Column::from_opt_i64s(cells.map(|c| c.parse().ok()).collect()),
        DataType::Float => Column::from_opt_f64s(cells.map(|c| c.parse().ok()).collect()),
        DataType::Bool => {
            let cells: Vec<Option<bool>> = cells.map(|c| c.parse().ok()).collect();
            Column::Bool {
                values: cells.iter().map(|c| c.unwrap_or_default()).collect(),
                validity: Some(cells.iter().map(Option::is_some).collect()),
            }
        }
    })
}

/// Apply a HAVING predicate to an answer's groups: one batch with a row
/// per group — its GROUP BY keys (see [`key_column`]) plus its aggregate
/// estimates, named by their SELECT aliases, positionally — and groups
/// where the predicate is not true are dropped. ORDER BY / LIMIT then
/// shape what is left.
fn apply_having(p: &Prepared<'_>, mut answer: AqpAnswer) -> Result<AqpAnswer> {
    let (query, schema) = (&p.query, p.table.schema());
    if let Some(having) = &query.having {
        let mut fields = Vec::new();
        let mut cols = Vec::new();
        for (ki, name) in query.group_by.iter().enumerate() {
            let col = key_column(schema, name, ki, &answer.groups)?;
            fields.push(Field::new(name.clone(), col.data_type()));
            cols.push(col);
        }
        for (ai, alias) in agg_aliases(query).enumerate() {
            if let Some(alias) = alias {
                let estimates = answer.groups.iter().map(|g| g.aggs[ai].estimate).collect();
                fields.push(Field::new(alias, DataType::Float));
                cols.push(Column::from_f64s(estimates));
            }
        }
        let batch = Batch::new(Schema::new(fields)?, cols)?;
        // The rows are named explicitly: a global query without aliased
        // aggregates gives HAVING a batch with no columns to count them from.
        let rows = aqp_sql::expr::Selection::Prefix(answer.groups.len());
        let mut keep = aqp_sql::expr::eval_predicate_selected(having, &batch, &rows)?.into_iter();
        answer.groups.retain(|_| keep.next().unwrap_or(false));
    }
    apply_order_limit(query, schema, answer)
}

/// Sort and truncate output groups per ORDER BY / LIMIT. A group key
/// sorts by its column's type (NULL first), an aggregate by its estimate.
fn apply_order_limit(query: &Query, schema: &Schema, mut answer: AqpAnswer) -> Result<AqpAnswer> {
    if let Some(o) = &query.order_by {
        let directed = |ord: Ordering| if o.descending { ord.reverse() } else { ord };
        // Positional lookup: aggregate alias index or group key index.
        if let Some(ai) = agg_aliases(query).position(|alias| alias == Some(o.column.as_str())) {
            answer.groups.sort_by(|a, b| directed(a.aggs[ai].estimate.total_cmp(&b.aggs[ai].estimate)));
        } else if let Some(ki) = query.group_by.iter().position(|g| g == &o.column) {
            let col = key_column(schema, &o.column, ki, &answer.groups)?;
            let cells = (0..col.len()).map(|i| col.value(i)).collect::<aqp_storage::Result<Vec<_>>>()?;
            let mut keyed: Vec<(Value, GroupResult)> = cells.into_iter().zip(answer.groups).collect();
            keyed.sort_by(|(a, _), (b, _)| {
                directed(match (a, b) {
                    (Value::Int(x), Value::Int(y)) => x.cmp(y),
                    (Value::Float(x), Value::Float(y)) => x.total_cmp(y),
                    (Value::Bool(x), Value::Bool(y)) => x.cmp(y),
                    (Value::Str(x), Value::Str(y)) => x.cmp(y),
                    // One column, one type: what is left is NULL against a value.
                    (x, y) => y.is_null().cmp(&x.is_null()),
                })
            });
            answer.groups = keyed.into_iter().map(|(_, g)| g).collect();
        }
    }
    if let Some(l) = query.limit {
        answer.groups.truncate(l);
    }
    Ok(answer)
}

/// The GROUP BY column of a query that groups by that one column and is
/// not nested: a stratified sample on it serves the query, with
/// per-stratum scaling.
fn stratum_key(query: &Query) -> Option<&str> {
    match query.group_by.as_slice() {
        [key] if !query.is_nested() => Some(key),
        _ => None,
    }
}

/// The table the innermost block of `query` scans.
fn leaf_table_name(query: &Query) -> &str {
    match &query.from {
        aqp_sql::TableRef::Table(t) => t,
        aqp_sql::TableRef::Subquery(inner) => leaf_table_name(inner),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqp_workload::{conviva_sessions_table, facebook_events_table};

    fn session_with_sessions(rows: usize, sample_sizes: &[usize]) -> AqpSession {
        let s = AqpSession::new(SessionConfig { seed: 42, ..Default::default() });
        s.register_table(conviva_sessions_table(rows, 8, 1)).unwrap();
        s.build_samples("sessions", sample_sizes, 7).unwrap();
        s
    }

    #[test]
    fn exact_when_no_samples() {
        let s = AqpSession::new(SessionConfig::default());
        s.register_table(conviva_sessions_table(10_000, 4, 1)).unwrap();
        let a = s.execute("SELECT AVG(time) FROM sessions").unwrap();
        assert_eq!(a.mode, AnswerMode::Exact);
        assert!(a.scalar().unwrap().ci.is_none());
    }

    #[test]
    fn approximate_with_reliable_error_bars() {
        let s = session_with_sessions(200_000, &[40_000]);
        let a = s.execute("SELECT AVG(time) FROM sessions").unwrap();
        assert_eq!(a.mode, AnswerMode::Approximate, "{}", a.summary());
        assert!(!a.fell_back);
        let r = a.scalar().unwrap();
        let ci = r.ci.unwrap();
        assert!(ci.half_width > 0.0);
        // Sanity: the estimate is near the exact answer.
        let exact = {
            let s2 = AqpSession::new(SessionConfig::default());
            s2.register_table(conviva_sessions_table(200_000, 8, 1)).unwrap();
            s2.execute("SELECT AVG(time) FROM sessions").unwrap().scalar().unwrap().estimate
        };
        assert!((r.estimate - exact).abs() / exact < 0.05, "{} vs {exact}", r.estimate);
    }

    #[test]
    fn error_clause_picks_smaller_sample_when_enough() {
        let s = session_with_sessions(200_000, &[2_000, 10_000, 50_000]);
        // A loose 20% bound should not need the 50k sample.
        let a = s
            .execute("SELECT AVG(time) FROM sessions WITHIN 20% ERROR AT CONFIDENCE 95%")
            .unwrap();
        assert!(a.sample_rows <= 10_000, "used {} rows", a.sample_rows);
        // A very tight bound should use the largest.
        let b = s
            .execute("SELECT AVG(time) FROM sessions WITHIN 0.1% ERROR AT CONFIDENCE 95%")
            .unwrap();
        assert!(b.sample_rows >= 50_000 || b.fell_back, "used {} rows", b.sample_rows);
    }

    #[test]
    fn falls_back_on_unreliable_extreme_aggregate() {
        // MAX over Pareto payloads: the diagnostic must reject and the
        // session must return the exact answer.
        let s = AqpSession::new(SessionConfig { seed: 3, ..Default::default() });
        s.register_table(facebook_events_table(200_000, 8, 2)).unwrap();
        s.build_samples("events", &[40_000], 11).unwrap();
        let a = s.execute("SELECT MAX(payload_kb) FROM events").unwrap();
        assert_eq!(a.mode, AnswerMode::ExactFallback, "{}", a.summary());
        assert!(a.fell_back);
        // Exact value: the true maximum.
        let exact = s
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
        assert_eq!(a.scalar().unwrap().estimate, exact);
    }

    #[test]
    fn group_by_query_end_to_end() {
        let s = session_with_sessions(100_000, &[20_000]);
        let a = s.execute("SELECT city, COUNT(*) FROM sessions GROUP BY city").unwrap();
        assert!(a.groups.len() >= 8, "groups: {}", a.groups.len());
        let total: f64 = a.groups.iter().map(|g| g.aggs[0].estimate).sum();
        assert!((total - 100_000.0).abs() / 100_000.0 < 0.05, "total {total}");
    }

    #[test]
    fn udf_query_end_to_end() {
        let s = session_with_sessions(100_000, &[20_000]);
        let a = s.execute("SELECT trimmed_mean(time) FROM sessions").unwrap();
        let r = a.scalar().unwrap();
        assert!(r.estimate > 0.0);
        if !a.fell_back {
            assert_eq!(r.method, aqp_exec::result::MethodUsed::Bootstrap);
        }
    }

    #[test]
    fn custom_udf_registration() {
        let s = session_with_sessions(50_000, &[10_000]);
        s.register_udf(
            "mean_log",
            aqp_stats::estimator::Udf::new("mean_log", |xs| {
                xs.iter().filter(|&&x| x > 0.0).map(|x| x.ln()).sum::<f64>()
                    / xs.iter().filter(|&&x| x > 0.0).count().max(1) as f64
            }),
        );
        let a = s.execute("SELECT mean_log(time) FROM sessions").unwrap();
        assert!(a.scalar().unwrap().estimate.is_finite());
    }

    #[test]
    fn plan_shows_pushed_down_resample() {
        let s = session_with_sessions(50_000, &[10_000]);
        let a = s.execute("SELECT AVG(time) FROM sessions WHERE city = 'NYC'").unwrap();
        let lines: Vec<&str> = a.plan.lines().map(str::trim_start).collect();
        let resample_idx = lines.iter().position(|l| l.starts_with("Resample")).unwrap();
        let filter_idx = lines.iter().position(|l| l.starts_with("Filter")).unwrap();
        assert!(
            resample_idx < filter_idx,
            "resample should sit above the filter (pushed down): {}",
            a.plan
        );
    }

    #[test]
    fn stratified_sample_serves_group_by_with_per_stratum_scaling() {
        let rows = 120_000;
        let s = AqpSession::new(SessionConfig { seed: 8, ..Default::default() });
        s.register_table(conviva_sessions_table(rows, 8, 4)).unwrap();
        s.build_stratified_sample("sessions", "city", 1_500, 9).unwrap();

        // COUNT per city on a stratified sample must be *exact* per group
        // (each stratum's count estimate = n_g · N_g/n_g = N_g).
        let a = s.execute("SELECT city, COUNT(*) FROM sessions GROUP BY city").unwrap();
        let exact = AqpSession::new(SessionConfig::default());
        exact.register_table(conviva_sessions_table(rows, 8, 4)).unwrap();
        let e = exact.execute("SELECT city, COUNT(*) FROM sessions GROUP BY city").unwrap();
        for (ga, ge) in a.groups.iter().zip(e.groups.iter()) {
            assert_eq!(ga.key, ge.key);
            assert!(
                (ga.aggs[0].estimate - ge.aggs[0].estimate).abs() < 1e-6,
                "group {}: {} vs {}",
                ga.key,
                ga.aggs[0].estimate,
                ge.aggs[0].estimate
            );
        }

        // AVG per city tracks the exact per-group means, including rare
        // cities a 1.5%-uniform sample would starve.
        let a = s.execute("SELECT city, AVG(time) FROM sessions GROUP BY city").unwrap();
        let e = exact.execute("SELECT city, AVG(time) FROM sessions GROUP BY city").unwrap();
        assert_eq!(a.groups.len(), e.groups.len());
        for (ga, ge) in a.groups.iter().zip(e.groups.iter()) {
            let rel = (ga.aggs[0].estimate - ge.aggs[0].estimate).abs() / ge.aggs[0].estimate;
            assert!(rel < 0.08, "group {}: rel {rel}", ga.key);
        }
    }

    #[test]
    fn stratified_sample_with_where_clause_scales_per_stratum() {
        let rows = 120_000;
        let s = AqpSession::new(SessionConfig { seed: 14, ..Default::default() });
        s.register_table(conviva_sessions_table(rows, 8, 14)).unwrap();
        s.build_stratified_sample("sessions", "city", 2_000, 15).unwrap();
        let exact = AqpSession::new(SessionConfig::default());
        exact.register_table(conviva_sessions_table(rows, 8, 14)).unwrap();
        let sql = "SELECT city, COUNT(*) FROM sessions WHERE is_mobile = true GROUP BY city";
        let a = s.execute(sql).unwrap();
        let e = exact.execute(sql).unwrap();
        // Filtered per-stratum counts must track the exact values under
        // per-stratum scaling (within sampling error of the strata).
        for (ga, ge) in a.groups.iter().zip(e.groups.iter()) {
            assert_eq!(ga.key, ge.key);
            let rel = (ga.aggs[0].estimate - ge.aggs[0].estimate).abs()
                / ge.aggs[0].estimate.max(1.0);
            assert!(rel < 0.15, "group {}: {} vs {} ({rel})", ga.key, ga.aggs[0].estimate, ge.aggs[0].estimate);
        }
    }

    #[test]
    fn stratified_sample_does_not_leak_into_uniform_queries() {
        let s = AqpSession::new(SessionConfig { seed: 10, ..Default::default() });
        s.register_table(conviva_sessions_table(50_000, 8, 6)).unwrap();
        s.build_stratified_sample("sessions", "city", 500, 11).unwrap();
        // No uniform samples exist: a non-grouped query must run exactly.
        let a = s.execute("SELECT AVG(time) FROM sessions").unwrap();
        assert_eq!(a.mode, AnswerMode::Exact);
        // GROUP BY on a different column also cannot use the city strata.
        let a = s.execute("SELECT site, COUNT(*) FROM sessions GROUP BY site").unwrap();
        assert_eq!(a.mode, AnswerMode::Exact);
    }

    #[test]
    fn having_filters_groups_on_both_paths() {
        let rows = 100_000;
        // Exact path.
        let exact = AqpSession::new(SessionConfig::default());
        exact.register_table(conviva_sessions_table(rows, 8, 12)).unwrap();
        let all = exact.execute("SELECT city, COUNT(*) AS c FROM sessions GROUP BY city").unwrap();
        let big = exact
            .execute("SELECT city, COUNT(*) AS c FROM sessions GROUP BY city HAVING c > 10000")
            .unwrap();
        assert!(big.groups.len() < all.groups.len());
        assert!(big.groups.iter().all(|g| g.aggs[0].estimate > 10_000.0));
        // NYC (Zipf rank 1) must survive.
        assert!(big.groups.iter().any(|g| g.key == "NYC"));

        // Approximate path.
        let s = session_with_sessions(rows, &[20_000]);
        let approx = s
            .execute("SELECT city, COUNT(*) AS c FROM sessions GROUP BY city HAVING c > 10000")
            .unwrap();
        assert!(!approx.groups.is_empty());
        assert!(approx.groups.iter().all(|g| g.aggs[0].estimate > 10_000.0));
    }

    #[test]
    fn having_evaluates_over_one_row_whatever_the_columns() {
        let s = AqpSession::new(SessionConfig::default());
        s.register_table(conviva_sessions_table(20_000, 4, 12)).unwrap();
        // No group key and no aliased aggregate: HAVING sees no columns at
        // all (this indexed an empty mask and panicked).
        let kept = s.execute("SELECT AVG(time) FROM sessions HAVING 1 = 1").unwrap();
        assert_eq!(kept.groups.len(), 1);
        let dropped = s.execute("SELECT AVG(time) FROM sessions HAVING 1 = 0").unwrap();
        assert!(dropped.groups.is_empty());
        // NULL is not true.
        assert!(s.execute("SELECT AVG(time) FROM sessions HAVING NULL").unwrap().groups.is_empty());
        // A name HAVING cannot see is still a typed error.
        assert!(s.execute("SELECT AVG(time) FROM sessions HAVING t > 0").is_err());
        // Alias only (global aggregate).
        let a = s.execute("SELECT AVG(time) AS t FROM sessions HAVING t > 0").unwrap();
        assert_eq!(a.groups.len(), 1);
        let a = s.execute("SELECT AVG(time) AS t FROM sessions HAVING t < 0").unwrap();
        assert!(a.groups.is_empty());
        // Key only (no alias on the aggregate).
        let k = s
            .execute("SELECT city, COUNT(*) FROM sessions GROUP BY city HAVING city = 'NYC'")
            .unwrap();
        assert_eq!(k.groups.iter().map(|g| g.key.as_str()).collect::<Vec<_>>(), ["NYC"]);
    }

    /// HAVING and ORDER BY read a key cell as its column's type, not as
    /// whatever its rendering happens to parse as.
    #[test]
    fn having_and_order_by_type_keys_from_the_schema() {
        let zips = ["10001", "94103", "1e3", "nan", "inf"];
        let rows = 40;
        let fields = vec![
            Field::new("zip", DataType::Str),
            Field::new("is_mobile", DataType::Bool),
            Field::new("score", DataType::Float),
            Field::new("v", DataType::Float),
        ];
        let zip: Vec<&str> = (0..rows).map(|i| zips[i % 5]).collect();
        let scores = [2.5, f64::NAN, -1.0, 10.0];
        let columns = vec![
            Column::from_strs(&zip),
            Column::from_bools((0..rows).map(|i| i % 4 == 0).collect()),
            Column::from_f64s((0..rows).map(|i| scores[i % 4]).collect()),
            Column::from_f64s((0..rows).map(|i| i as f64).collect()),
        ];
        let batch = Batch::new(Schema::new(fields).unwrap(), columns).unwrap();
        let s = AqpSession::new(SessionConfig::default());
        s.register_table(Table::from_batch("t", batch, 2).unwrap()).unwrap();
        let keys = |sql: &str| -> Vec<String> {
            s.execute(sql).unwrap().groups.into_iter().map(|g| g.key).collect()
        };

        // A string that looks like a number is still a string.
        for zip in zips {
            let sql = format!("SELECT zip, COUNT(*) FROM t GROUP BY zip HAVING zip = '{zip}'");
            assert_eq!(keys(&sql), [zip], "{sql}");
        }
        assert_eq!(
            keys("SELECT zip, COUNT(*) FROM t GROUP BY zip ORDER BY zip"),
            ["10001", "1e3", "94103", "inf", "nan"]
        );
        assert_eq!(
            keys("SELECT zip, COUNT(*) FROM t GROUP BY zip ORDER BY zip DESC LIMIT 2"),
            ["nan", "inf"]
        );

        // A Bool key compares as a bool.
        let sql = "SELECT is_mobile, AVG(v) FROM t GROUP BY is_mobile HAVING is_mobile = true";
        assert_eq!(keys(sql), ["true"]);
        let sql = "SELECT is_mobile, AVG(v) FROM t GROUP BY is_mobile ORDER BY is_mobile";
        assert_eq!(keys(sql), ["false", "true"]);

        // A Float key with NaN: numeric order (NaN last, as `total_cmp`
        // has it), and NaN satisfies no comparison.
        let sql = "SELECT score, COUNT(*) FROM t GROUP BY score ORDER BY score";
        assert_eq!(keys(sql), ["-1", "2.5", "10", "NaN"]);
        let sql = "SELECT score, COUNT(*) FROM t GROUP BY score HAVING score > 0 ORDER BY score DESC";
        assert_eq!(keys(sql), ["10", "2.5"]);
        let sql = "SELECT score, COUNT(*) AS c FROM t GROUP BY score HAVING score < 3 AND c = 10";
        assert_eq!(keys(sql).len(), 2);
    }

    #[test]
    fn order_by_and_limit_shape_the_output() {
        let s = AqpSession::new(SessionConfig::default());
        s.register_table(conviva_sessions_table(60_000, 8, 15)).unwrap();
        let a = s
            .execute(
                "SELECT city, COUNT(*) AS c FROM sessions GROUP BY city ORDER BY c DESC LIMIT 3",
            )
            .unwrap();
        assert_eq!(a.groups.len(), 3);
        assert_eq!(a.groups[0].key, "NYC"); // Zipf rank 1
        let counts: Vec<f64> = a.groups.iter().map(|g| g.aggs[0].estimate).collect();
        assert!(counts.windows(2).all(|w| w[0] >= w[1]), "{counts:?}");

        // ORDER BY a group key ascending.
        let b = s
            .execute("SELECT city, AVG(time) AS t FROM sessions GROUP BY city ORDER BY city LIMIT 2")
            .unwrap();
        assert!(b.groups[0].key <= b.groups[1].key);

        // Unknown sort column is a plan error.
        assert!(s
            .execute("SELECT city, COUNT(*) FROM sessions GROUP BY city ORDER BY nope")
            .is_err());
    }

    #[test]
    fn explain_renders_the_rewritten_plan() {
        let s = session_with_sessions(50_000, &[10_000]);
        let plan = s.explain("SELECT AVG(time) FROM sessions WHERE city = 'NYC'").unwrap();
        assert!(plan.contains("Diagnostic["), "{plan}");
        assert!(plan.contains("ErrorEstimate[ClosedForm"), "{plan}");
        assert!(plan.contains("Resample["), "{plan}");
        // No samples: bare plan, no estimation operators.
        let bare = AqpSession::new(SessionConfig::default());
        bare.register_table(conviva_sessions_table(1_000, 2, 99)).unwrap();
        let plan = bare.explain("SELECT AVG(time) FROM sessions").unwrap();
        assert!(!plan.contains("Resample"), "{plan}");
    }

    /// `explain` annotates for the sample `execute` runs on: the
    /// `Resample[…]` line of the plan is the `op:Resample` span's detail in
    /// the executed answer's trace, or neither has one.
    #[test]
    fn explain_names_the_sample_execute_runs_on() {
        let queries = [
            "SELECT AVG(time) FROM sessions",
            "SELECT city, AVG(time) FROM sessions GROUP BY city",
            "SELECT site, AVG(time) FROM sessions GROUP BY site",
            "SELECT AVG(s) FROM (SELECT AVG(time) AS s FROM sessions GROUP BY city)",
        ];
        for (uniform, stratified) in [(false, false), (true, false), (false, true), (true, true)] {
            let s = AqpSession::new(SessionConfig { seed: 3, diagnostic_p: 20, ..Default::default() });
            s.register_table(conviva_sessions_table(20_000, 4, 5)).unwrap();
            if uniform {
                s.build_samples("sessions", &[4_000], 7).unwrap();
            }
            if stratified {
                s.build_stratified_sample("sessions", "city", 300, 9).unwrap();
            }
            for sql in queries {
                let plan = s.explain(sql).unwrap();
                let planned = plan.lines().map(str::trim_start).find(|l| l.starts_with("Resample["));
                let trace = s.execute(sql).unwrap().trace;
                let ran = trace.find("op:Resample").and_then(|span| span.attr("detail"));
                assert_eq!(planned, ran, "uniform={uniform} stratified={stratified}: {sql}\n{plan}");
            }
        }
    }

    #[test]
    fn session_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<AqpSession>();
    }

    #[test]
    fn unknown_table_errors() {
        let s = AqpSession::new(SessionConfig::default());
        assert!(s.execute("SELECT AVG(x) FROM nope").is_err());
    }

    /// The merge by one ordered walk pairs exactly what a lookup by key
    /// paired: key lists of both byte orders' hard cases (a prefix, `-`,
    /// `NULL`), approximate groups the exact run lacks and the reverse,
    /// served, refused and bar-less results.
    #[test]
    fn merging_by_one_walk_is_the_keyed_lookup() {
        use aqp_diagnostics::{Decision, DiagnosticReport};
        use aqp_stats::ci::Ci;
        use rand::RngExt;

        fn by_lookup(exact: Vec<(String, Vec<f64>)>, approx: Vec<GroupResult>, names: &[String]) -> Vec<GroupResult> {
            let mut served: std::collections::HashMap<String, Vec<AggResult>> =
                approx.into_iter().map(|g| (g.key, g.aggs)).collect();
            let merge = |(key, vals): (String, Vec<f64>)| {
                let mut served = served.remove(&key).unwrap_or_default().into_iter();
                let aggs = vals.into_iter().zip(names).map(|(v, name)| match served.next() {
                    Some(a) if a.error_bars_reliable() => a,
                    Some(a) => AggResult { estimate: v, ci: None, method: MethodUsed::None, ..a },
                    None => AggResult { name: name.clone(), estimate: v, ci: None, method: MethodUsed::None, diagnostic: None },
                });
                GroupResult { aggs: aggs.collect(), key }
            };
            exact.into_iter().map(merge).collect()
        }

        let mut rng = aqp_stats::rng::rng_from_seed(41);
        let universe = ["", "-1", "-10", "-2", "0", "1", "10", "100", "11", "2", "NULL", "NYC", "SF", "a\u{1f}b", "é"];
        for case in 0..2_000 {
            let names: Vec<String> = (0..rng.random_range(1..4)).map(|i| format!("AGG{i}")).collect();
            let mut pick = |share: f64| {
                let mut keys: Vec<String> =
                    universe.iter().filter(|_| rng.random_bool(share)).map(|k| k.to_string()).collect();
                keys.sort();
                keys
            };
            let (exact_keys, approx_keys) = (pick(0.7), pick(0.5));
            let exact: Vec<(String, Vec<f64>)> =
                exact_keys.into_iter().map(|k| (k, (0..names.len()).map(|i| i as f64 - 0.5).collect())).collect();
            let approx: Vec<GroupResult> = approx_keys
                .into_iter()
                .enumerate()
                .map(|(g, key)| {
                    let aggs = names.iter().enumerate().map(|(i, name)| {
                        let accepted = rng.random_bool(0.5);
                        let diagnostic = rng.random_bool(0.8).then(|| DiagnosticReport {
                            levels: Vec::new(),
                            decision: if accepted { Decision::Accepted } else { Decision::Refused("few".into()) },
                            accepted,
                        });
                        let estimate = (g * 10 + i) as f64;
                        let ci = rng.random_bool(0.7).then(|| Ci::new(estimate, 1.0, 0.95));
                        let method = if ci.is_some() { MethodUsed::ClosedForm } else { MethodUsed::None };
                        AggResult { name: name.clone(), estimate, ci, method, diagnostic }
                    });
                    GroupResult { key, aggs: aggs.collect() }
                })
                .collect();
            let want = by_lookup(exact.clone(), approx.clone(), &names);
            let got = merge_with_exact(exact, approx, &names).unwrap();
            assert_eq!(format!("{got:?}"), format!("{want:?}"), "case {case}");
        }
    }
}
