//! `aqp-obs`: the observability substrate of the AQP pipeline.
//!
//! The paper's pitch is *knowing when you're wrong*; this crate makes
//! sure the system also knows *where time goes and how often the
//! diagnostic fires*. It is std-only and provides three pieces:
//!
//! * [`Clock`] — a monotonic time source with a deterministic mock, so
//!   every timing in the workspace is steerable in tests. The
//!   `determinism-taint` lint rule forbids raw `std::time::Instant` /
//!   `SystemTime` outside this crate.
//! * [`MetricsRegistry`] — lock-cheap counters, gauges, and
//!   fixed-bucket latency histograms with p50/p95/p99 snapshots,
//!   exported as JSONL. Metric names follow
//!   `aqp.<crate>.<name>` (see [`name`]).
//! * [`QueryTrace`] / [`TraceRecorder`] — a span tree over the query
//!   lifecycle: parse → plan/rewrite → sample selection → scan/exec
//!   (per-operator, per-worker) → error estimation (closed-form vs
//!   bootstrap, resample count) → diagnostic verdict.
//!
//! # Wiring
//!
//! [`ObsHandle`] bundles a clock with a registry and rides inside
//! `ApproxOptions` / `SessionConfig`. Its default shares the
//! process-global registry; tests use [`ObsHandle::isolated`] with a
//! mock clock for full determinism. Leaf crates that have no handle in
//! scope (sql, stats, diagnostics, cluster) increment well-known
//! counters on the global registry directly.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod json;
pub mod metrics;
pub mod recorder;
pub mod router;
pub mod sink;
pub mod trace;

pub use clock::{Clock, Timestamp};
pub use metrics::{
    Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry, MetricsSnapshot,
};
pub use recorder::{FlightRecorder, FlightRecorderConfig};
pub use router::{ClassRouter, ClassRule};
pub use sink::{JsonlLogConfig, JsonlSink, LazySink};
pub use trace::{stage, QueryTrace, Span, SpanId, TraceRecorder};

use std::sync::Arc;
use std::time::Duration;

/// Well-known metric names (`aqp.<crate>.<name>`), so producers and
/// dashboards agree on spelling.
pub mod name {
    /// Queries executed through `AqpSession::execute`.
    pub const CORE_QUERIES: &str = "aqp.core.queries_executed";
    /// Full exact fallbacks after a rejected diagnostic.
    pub const CORE_FALLBACKS_EXACT: &str = "aqp.core.fallbacks_exact";
    /// Partial (per-group) fallbacks.
    pub const CORE_FALLBACKS_PARTIAL: &str = "aqp.core.fallbacks_partial";
    /// End-to-end session query latency histogram (ms).
    pub const CORE_QUERY_MS: &str = "aqp.core.query_ms";
    /// Queries parsed by `sql::parse_query`.
    pub const SQL_QUERIES_PARSED: &str = "aqp.sql.queries_parsed";
    /// Logical plans produced by `sql::plan_query`.
    pub const SQL_PLANS_BUILT: &str = "aqp.sql.plans_built";
    /// Plans rewritten for single-scan error estimation.
    pub const SQL_PLANS_REWRITTEN: &str = "aqp.sql.plans_rewritten";
    /// `execute_approx` invocations.
    pub const EXEC_APPROX_QUERIES: &str = "aqp.exec.approx_queries";
    /// Per-worker busy-time histogram (ms) from `exec::parallel`.
    pub const EXEC_WORKER_MS: &str = "aqp.exec.worker_ms";
    /// Workers whose busy time exceeded the straggler threshold.
    pub const EXEC_STRAGGLERS: &str = "aqp.exec.stragglers_detected";
    /// Bootstrap resamples drawn (replicates across all estimators).
    pub const STATS_BOOTSTRAP_RESAMPLES: &str = "aqp.stats.bootstrap_resamples";
    /// Diagnostic runs that accepted the error estimate.
    pub const DIAG_ACCEPTED: &str = "aqp.diagnostics.accepted";
    /// Diagnostic runs that rejected the error estimate.
    pub const DIAG_REJECTED: &str = "aqp.diagnostics.rejected";
    /// Diagnostic runs rejected by a deviation check (Δᵢ neither below Δᵢ₋₁ nor below c₁); one per run, the deciding check.
    pub const DIAG_DEVIATION_FAILURES: &str = "aqp.diagnostics.deviation_check_failures";
    /// Diagnostic runs rejected by a spread check (σᵢ neither below σᵢ₋₁ nor below c₂); one per run, the deciding check.
    pub const DIAG_SPREAD_FAILURES: &str = "aqp.diagnostics.spread_check_failures";
    /// Diagnostic runs rejected by the final proportion (π_k < ρ), the first check read; one per run, the deciding check.
    pub const DIAG_PROPORTION_FAILURES: &str = "aqp.diagnostics.proportion_check_failures";
    /// Cluster-sim jobs simulated.
    pub const CLUSTER_JOBS: &str = "aqp.cluster.jobs_simulated";
    /// Cluster-sim tasks simulated.
    pub const CLUSTER_TASKS: &str = "aqp.cluster.tasks_simulated";
    /// Cluster-sim tasks that drew a straggler delay.
    pub const CLUSTER_STRAGGLER_TASKS: &str = "aqp.cluster.straggler_tasks";
    /// Approximate answers the accuracy auditor considered for sampling.
    pub const AUDIT_CONSIDERED: &str = "aqp.audit.queries_considered";
    /// Queries the auditor actually replayed at full data.
    pub const AUDIT_AUDITED: &str = "aqp.audit.queries_audited";
    /// Individual group-aggregate results scored by the auditor.
    pub const AUDIT_RESULTS_SCORED: &str = "aqp.audit.results_scored";
    /// Claimed confidence intervals that covered the replayed truth.
    pub const AUDIT_COVERAGE_HITS: &str = "aqp.audit.coverage_hits";
    /// Claimed confidence intervals that missed the replayed truth.
    pub const AUDIT_COVERAGE_MISSES: &str = "aqp.audit.coverage_misses";
    /// Audited results where the diagnostic accepted and the CI covered.
    pub const AUDIT_TRUE_ACCEPTS: &str = "aqp.audit.diag_true_accepts";
    /// Audited results where the diagnostic rejected and the CI missed.
    pub const AUDIT_TRUE_REJECTS: &str = "aqp.audit.diag_true_rejects";
    /// Audited results where the diagnostic accepted a missing CI (the
    /// dangerous cell).
    pub const AUDIT_FALSE_POSITIVES: &str = "aqp.audit.diag_false_positives";
    /// Audited results where the diagnostic rejected a covering CI (the
    /// wasteful cell).
    pub const AUDIT_FALSE_NEGATIVES: &str = "aqp.audit.diag_false_negatives";
    /// Threshold alerts fired by the auditor's sliding windows.
    pub const AUDIT_ALERTS_FIRED: &str = "aqp.audit.alerts_fired";
    /// Overall sliding-window CI coverage rate (gauge, 0..1).
    pub const AUDIT_WINDOW_COVERAGE: &str = "aqp.audit.window_coverage";
    /// Full-data replay latency per audited query (histogram, ms).
    pub const AUDIT_REPLAY_MS: &str = "aqp.audit.replay_ms";
    /// Audit-log lines that failed to write (sink I/O errors).
    pub const AUDIT_LOG_ERRORS: &str = "aqp.audit.log_write_errors";

    /// Fault events injected into scan tasks (all kinds).
    pub const FAULTS_INJECTED: &str = "aqp.faults.injected_total";
    /// Task attempts retried after an injected failure or timeout.
    pub const FAULTS_RETRIES: &str = "aqp.faults.retries";
    /// Task attempts abandoned by the per-task timeout.
    pub const FAULTS_TIMEOUTS: &str = "aqp.faults.task_timeouts";
    /// Speculative clones launched against straggling attempts.
    pub const FAULTS_SPECULATIVE_LAUNCHED: &str = "aqp.faults.speculative_launched";
    /// Speculative clones that beat their straggling primary.
    pub const FAULTS_SPECULATIVE_WINS: &str = "aqp.faults.speculative_wins";
    /// Sample partitions lost after recovery ran out.
    pub const FAULTS_PARTITIONS_LOST: &str = "aqp.faults.partitions_lost";
    /// Sample partitions abandoned early by blacklisting.
    pub const FAULTS_PARTITIONS_BLACKLISTED: &str = "aqp.faults.partitions_blacklisted";
    /// Sample rows missing from the effective sample (lost + truncated).
    pub const FAULTS_ROWS_LOST: &str = "aqp.faults.rows_lost";
    /// Queries that completed from a reduced sample with widened CIs.
    pub const FAULTS_DEGRADED_QUERIES: &str = "aqp.faults.degraded_queries";
    /// Queries that fell back to exact execution because fault losses
    /// exceeded the recovery policy's tolerance.
    pub const FAULTS_EXACT_FALLBACKS: &str = "aqp.faults.exact_fallbacks";
    /// Injected delay charged per scan (histogram, ms — straggler
    /// waits plus retry backoff).
    pub const FAULTS_INJECTED_DELAY_MS: &str = "aqp.faults.injected_delay_ms";

    /// Completed query traces currently retained by the flight
    /// recorder's ring buffer (gauge).
    pub const OBS_RECORDER_RETAINED: &str = "aqp.obs.recorder_traces_retained";
    /// Oldest traces evicted from the flight recorder's ring.
    pub const OBS_RECORDER_EVICTIONS: &str = "aqp.obs.recorder_evictions";
    /// Flight-recorder dump artifacts produced at alert time.
    pub const OBS_RECORDER_DUMPS: &str = "aqp.obs.recorder_dumps";
    /// Flight-recorder dump artifacts that failed to append to disk
    /// (sink I/O errors; the query path never fails on them).
    pub const OBS_RECORDER_DUMP_ERRORS: &str = "aqp.obs.recorder_dump_write_errors";
    /// JSONL lines destroyed by sink rotation (oldest rotation dropped,
    /// or the live file truncated in place) — absence-is-data: silent
    /// log loss becomes a visible counter.
    pub const OBS_SINK_DROPPED_LINES: &str = "aqp.obs.sink_dropped_lines";

    /// Per-query SLO events observed (one per objective per query).
    pub const SLO_EVENTS: &str = "aqp.slo.events_observed";
    /// SLO events that consumed error budget (latency over threshold or
    /// a CI-coverage miss).
    pub const SLO_EVENTS_BAD: &str = "aqp.slo.events_bad";
    /// Page-severity burn-rate alerts latched (fast 5m/1h windows).
    pub const SLO_PAGE_ALERTS: &str = "aqp.slo.page_alerts_fired";
    /// Warn-severity burn-rate alerts latched (slow 6h/3d windows).
    pub const SLO_WARN_ALERTS: &str = "aqp.slo.warn_alerts_fired";
    /// SLO-log lines that failed to write (sink I/O errors).
    pub const SLO_LOG_ERRORS: &str = "aqp.slo.log_write_errors";
    /// Wall-clock spent in SLO observation + evaluation per query
    /// (histogram, ms — the <5% overhead budget is enforced on it).
    pub const SLO_EVAL_MS: &str = "aqp.slo.eval_ms";

    /// Queries folded into the session's fleet-cumulative operator
    /// profile (contprof enabled only).
    pub const PROF_CONTPROF_QUERIES: &str = "aqp.prof.contprof_queries";
    /// Wall-clock spent folding a query's profile into the cumulative
    /// profile (histogram, ms — the <5% overhead budget is enforced on
    /// it; contprof enabled only).
    pub const PROF_CONTPROF_EVAL_MS: &str = "aqp.prof.contprof_eval_ms";

    /// Queries whose telemetry (spans, timings, faults, operator rows)
    /// was folded into the `_telemetry.*` tables (introspect enabled
    /// only).
    pub const INTROSPECT_QUERIES_FOLDED: &str = "aqp.introspect.queries_folded";
    /// Rows ingested across all `_telemetry.*` reservoir tables.
    pub const INTROSPECT_ROWS_INGESTED: &str = "aqp.introspect.rows_ingested";
    /// Rows rejected or evicted by the seeded reservoirs after a
    /// table's row budget filled (the downsampling drop count).
    pub const INTROSPECT_ROWS_DROPPED: &str = "aqp.introspect.rows_dropped";
    /// Introspection queries served over the `_telemetry` namespace.
    pub const INTROSPECT_QUERIES_SERVED: &str = "aqp.introspect.queries_served";
    /// Catalog refreshes that re-materialized dirty telemetry tables
    /// (and rebuilt their uniform samples).
    pub const INTROSPECT_SYNCS: &str = "aqp.introspect.catalog_syncs";
    /// Wall-clock spent folding telemetry per query (histogram, ms —
    /// the <5% overhead budget is enforced on it; introspect enabled
    /// only).
    pub const INTROSPECT_EVAL_MS: &str = "aqp.introspect.eval_ms";
}

/// A clock plus a metrics registry: the observability context that
/// rides inside `SessionConfig` / `ApproxOptions`.
#[derive(Debug, Clone)]
pub struct ObsHandle {
    /// The time source for every stage/span measurement.
    pub clock: Clock,
    /// Where counters/gauges/histograms are registered.
    pub metrics: Arc<MetricsRegistry>,
}

impl Default for ObsHandle {
    fn default() -> Self {
        ObsHandle::global()
    }
}

impl ObsHandle {
    /// Real clock + the process-global registry (the production
    /// default).
    pub fn global() -> Self {
        ObsHandle {
            clock: Clock::Real,
            metrics: MetricsRegistry::global(),
        }
    }

    /// A fresh private registry with the given clock — used by tests
    /// that assert exact metric values.
    pub fn isolated(clock: Clock) -> Self {
        ObsHandle {
            clock,
            metrics: Arc::new(MetricsRegistry::new()),
        }
    }

    /// A trace recorder reading this handle's clock.
    pub fn recorder(&self) -> TraceRecorder {
        TraceRecorder::new(self.clock.clone())
    }
}

/// Count stragglers among per-worker busy times: workers slower than
/// `factor × median` (paper §5.4's straggler heuristic, applied to the
/// in-process worker pool). Returns 0 for fewer than two workers —
/// a lone worker cannot straggle relative to its peers.
pub fn count_stragglers(busy: &[Duration], factor: f64) -> usize {
    if busy.len() < 2 {
        return 0;
    }
    let mut sorted: Vec<Duration> = busy.to_vec();
    sorted.sort();
    let median = sorted[sorted.len() / 2].as_secs_f64();
    let threshold = median * factor;
    busy.iter().filter(|d| d.as_secs_f64() > threshold).count()
}

/// The straggler slowdown factor of a worker pool: slowest worker's busy
/// time over the median busy time. `None` when there are fewer than two
/// workers or the median is zero (a lone worker cannot straggle; a zero
/// median — e.g. an unadvanced mock clock — makes the ratio meaningless).
/// This is the factor the profiling layer (`aqp-prof`) annotates on the
/// operator that drove the pool.
pub fn slowdown_factor(busy: &[Duration]) -> Option<f64> {
    if busy.len() < 2 {
        return None;
    }
    let mut sorted: Vec<Duration> = busy.to_vec();
    sorted.sort();
    let median = sorted[sorted.len() / 2].as_secs_f64();
    let max = sorted[sorted.len() - 1].as_secs_f64();
    if median <= 0.0 {
        return None;
    }
    Some(max / median)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_handle_shares_the_global_registry() {
        let a = ObsHandle::default();
        let b = ObsHandle::global();
        a.metrics.counter("aqp.test.shared_handle").add(2);
        assert!(b.metrics.counter("aqp.test.shared_handle").get() >= 2);
    }

    #[test]
    fn isolated_handles_do_not_leak_into_global() {
        let iso = ObsHandle::isolated(Clock::mock());
        iso.metrics.counter("aqp.test.isolated_only").inc();
        assert_eq!(
            MetricsRegistry::global().snapshot().counter("aqp.test.isolated_only"),
            None
        );
        assert_eq!(iso.metrics.snapshot().counter("aqp.test.isolated_only"), Some(1));
    }

    #[test]
    fn straggler_count_uses_median_factor() {
        let ms = |n: u64| Duration::from_millis(n);
        // median 10ms; factor 2 → threshold 20ms.
        let busy = [ms(9), ms(10), ms(11), ms(50)];
        assert_eq!(count_stragglers(&busy, 2.0), 1);
        assert_eq!(count_stragglers(&busy, 10.0), 0);
        assert_eq!(count_stragglers(&[ms(100)], 0.5), 0);
        assert_eq!(count_stragglers(&[], 2.0), 0);
    }

    #[test]
    fn slowdown_factor_is_max_over_median() {
        let ms = |n: u64| Duration::from_millis(n);
        // median of [10, 10, 10, 50] (upper of the two middles) is 10ms.
        assert_eq!(slowdown_factor(&[ms(10), ms(10), ms(10), ms(50)]), Some(5.0));
        assert_eq!(slowdown_factor(&[ms(10), ms(10)]), Some(1.0));
        assert_eq!(slowdown_factor(&[ms(100)]), None); // lone worker
        assert_eq!(slowdown_factor(&[]), None);
        assert_eq!(slowdown_factor(&[ms(0), ms(0), ms(7)]), None); // zero median
    }
}
