//! # aqp-core
//!
//! The paper's primary contribution as a library: a reliable approximate
//! query processing session that
//!
//! 1. maintains shuffled uniform samples of registered tables at several
//!    sizes (the BlinkDB sample collection),
//! 2. picks, per query, the smallest sample expected to satisfy the
//!    query's `WITHIN n% ERROR AT CONFIDENCE c%` clause
//!    ([`sample_selection`]),
//! 3. executes the query on that sample with **one scan** producing the
//!    answer, its error bars (closed form when applicable, Poissonized
//!    bootstrap otherwise), and the Kleiner-et-al. diagnostic verdict, and
//! 4. **falls back to exact execution** whenever the diagnostic reports
//!    that the error bars cannot be trusted — "knowing when you're wrong".
//!
//! ```
//! use aqp_core::{AqpSession, SessionConfig};
//! use aqp_workload::conviva_sessions_table;
//!
//! let session = AqpSession::new(SessionConfig::default());
//! session.register_table(conviva_sessions_table(100_000, 8, 1)).unwrap();
//! session.build_samples("sessions", &[5_000, 20_000], 7).unwrap();
//!
//! let answer = session
//!     .execute("SELECT AVG(time) FROM sessions WHERE city = 'NYC' WITHIN 5% ERROR AT CONFIDENCE 95%")
//!     .unwrap();
//! let r = &answer.groups[0].aggs[0];
//! assert!(r.estimate > 0.0);
//! if !answer.fell_back {
//!     let ci = r.ci.unwrap();
//!     assert!(ci.half_width > 0.0);
//! }
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod answer;
mod observers;
pub mod progressive;
pub mod sample_selection;
pub mod session;

pub use answer::{AnswerMode, AqpAnswer};
pub use progressive::{ProgressiveResult, ProgressiveStep};
pub use sample_selection::required_sample_rows;
pub use session::{AqpSession, SessionConfig};

pub use aqp_introspect::IntrospectConfig;
pub use aqp_prof::contprof::{ContProfConfig, CumulativeProfile};
pub use aqp_prof::OpProfile;

pub use aqp_faults::{FaultConfig, RecoveryPolicy, StragglerDelay};

/// Errors from the session layer.
#[derive(Debug)]
pub enum CoreError {
    /// Storage failure.
    Storage(aqp_storage::StorageError),
    /// SQL failure.
    Sql(aqp_sql::SqlError),
    /// Execution failure.
    Exec(aqp_exec::ExecError),
    /// Configuration problem.
    Config(String),
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreError::Storage(e) => write!(f, "storage: {e}"),
            CoreError::Sql(e) => write!(f, "sql: {e}"),
            CoreError::Exec(e) => write!(f, "exec: {e}"),
            CoreError::Config(m) => write!(f, "config: {m}"),
        }
    }
}

impl std::error::Error for CoreError {}

impl From<aqp_storage::StorageError> for CoreError {
    fn from(e: aqp_storage::StorageError) -> Self {
        CoreError::Storage(e)
    }
}
impl From<aqp_sql::SqlError> for CoreError {
    fn from(e: aqp_sql::SqlError) -> Self {
        CoreError::Sql(e)
    }
}
impl From<aqp_exec::ExecError> for CoreError {
    fn from(e: aqp_exec::ExecError) -> Self {
        CoreError::Exec(e)
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, CoreError>;
