//! # aqp-exec
//!
//! Physical execution for `reliable-aqp`: the engine that turns a logical
//! plan plus a stored sample into an approximate answer, an error
//! estimate, and a diagnostic verdict — in **one scan** (§5.3.1), with the
//! resampling operator operating post-filter (§5.3.2) and all aggregate
//! operators working directly on Poisson-weighted tuples.
//!
//! Layout:
//!
//! * [`udf`] — the aggregate-UDF registry (resolves `AggFunc::Udf` names
//!   to concrete estimators).
//! * [`collect`] — the scan/filter/project pipeline: walks the plan over
//!   the table's partitions (in parallel) and produces per-group
//!   aggregation inputs; for the exact path it collects nothing and folds
//!   every group's values in scan order instead.
//! * [`theta`] — prepared query estimators θ, including the nested
//!   two-level aggregates of QSet-2, with weighted (resample) evaluation.
//! * [`engine`] — the optimized executor (`execute_approx`): point
//!   estimate + diagnostic + bootstrap/closed-form error from one pass;
//!   the diagnostic runs first and the bars of a result it refuses are
//!   computed only on demand (`ApproxResult::fill_refused_bars`).
//! * [`baseline`] — the §5.2 naive executor: one physical re-scan per
//!   bootstrap subquery and per diagnostic subquery, kept as the measured
//!   baseline for the Fig. 7/8 experiments.
//! * [`parallel`] — `std::thread::scope` helpers for partition- and
//!   replicate-parallelism, with per-worker busy-time observation for
//!   straggler detection.
//! * [`result`] — result types with trace-derived per-stage timings.
//!
//! Every `execute_approx` call records an `aqp_obs::QueryTrace` (scan →
//! point estimate → error estimation → diagnostics → assemble, with
//! per-worker child spans: plan order, leaf to root — the diagnostics
//! span starts before the error-estimation one) returned in
//! `ApproxResult::trace`; timing reads the clock in `ApproxOptions::obs`
//! so tests can use a mock.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod collect;
pub mod engine;
pub mod parallel;
pub mod result;
pub mod theta;
pub mod udf;

pub use engine::{execute_approx, execute_exact, execute_exact_observed, ApproxOptions};
pub use result::{AggResult, ApproxResult, ExactResult, StageTimings};
pub use udf::UdfRegistry;

/// Execution errors.
#[derive(Debug)]
pub enum ExecError {
    /// Storage-layer failure.
    Storage(aqp_storage::StorageError),
    /// SQL-layer failure.
    Sql(aqp_sql::SqlError),
    /// The plan has a shape the executor does not support.
    Unsupported(String),
    /// A UDF name could not be resolved.
    UnknownUdf(String),
    /// An internal plan-shape invariant was violated (a bug in plan
    /// decomposition, not in the caller's query).
    PlanInvariant(String),
    /// Injected faults lost more partitions than the recovery policy
    /// tolerates; the surviving sample is too degraded to answer from.
    /// Callers should fall back to exact execution (or re-run).
    Degraded {
        /// Partitions whose data was lost after recovery ran out.
        lost_partitions: usize,
        /// Partitions the scan planned to read.
        total_partitions: usize,
    },
    /// Every sample partition was lost; no approximate answer is
    /// derivable from this scan at all.
    Unrecoverable(String),
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::Storage(e) => write!(f, "storage error: {e}"),
            ExecError::Sql(e) => write!(f, "sql error: {e}"),
            ExecError::Unsupported(m) => write!(f, "unsupported plan: {m}"),
            ExecError::UnknownUdf(n) => write!(f, "unknown UDF: {n}"),
            ExecError::PlanInvariant(m) => write!(f, "plan invariant violated: {m}"),
            ExecError::Degraded { lost_partitions, total_partitions } => write!(
                f,
                "degraded beyond policy: lost {lost_partitions} of {total_partitions} sample partitions"
            ),
            ExecError::Unrecoverable(m) => write!(f, "unrecoverable fault: {m}"),
        }
    }
}

impl std::error::Error for ExecError {}

impl From<aqp_storage::StorageError> for ExecError {
    fn from(e: aqp_storage::StorageError) -> Self {
        ExecError::Storage(e)
    }
}

impl From<aqp_sql::SqlError> for ExecError {
    fn from(e: aqp_sql::SqlError) -> Self {
        ExecError::Sql(e)
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, ExecError>;
