//! # reliable-aqp
//!
//! A from-scratch Rust implementation of
//! *Knowing When You're Wrong: Building Fast and Reliable Approximate
//! Query Processing Systems* (Agarwal et al., SIGMOD 2014).
//!
//! Sampling answers analytical queries orders of magnitude faster than
//! scanning the data — *if* the error bars attached to the answers can be
//! trusted. This crate family implements the paper's full pipeline:
//!
//! * approximate answers from stored uniform samples,
//! * error bars via closed-form CLT estimates, the Poissonized
//!   nonparametric bootstrap, or (as a conservative baseline)
//!   large-deviation bounds,
//! * the Kleiner-et-al. **diagnostic** that detects, at query time,
//!   whether those error bars are reliable, and
//! * automatic fallback to exact execution when they are not.
//!
//! The facade re-exports every subsystem crate; start with
//! [`AqpSession`].
//!
//! ```
//! use reliable_aqp::{AqpSession, SessionConfig};
//! use reliable_aqp::workload::conviva_sessions_table;
//!
//! let session = AqpSession::new(SessionConfig::default());
//! session.register_table(conviva_sessions_table(50_000, 8, 1)).unwrap();
//! session.build_samples("sessions", &[10_000], 7).unwrap();
//! let answer = session.execute("SELECT AVG(time) FROM sessions").unwrap();
//! println!("{}", answer.summary());
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub use aqp_core::answer::AnswerMode;
pub use aqp_core::{
    AqpAnswer, AqpSession, ContProfConfig, CumulativeProfile, IntrospectConfig, OpProfile,
    SessionConfig,
};

/// Observability: clock abstraction, metrics registry, query traces.
pub use aqp_obs as obs;

/// Fleet-level SLOs: burn-rate alerts, error budgets, drift detection.
pub use aqp_slo as slo;

/// Deterministic fault injection and recovery (`crates/faults`).
pub use aqp_faults as faults;
/// Operator-level EXPLAIN ANALYZE profiles assembled from query traces.
pub use aqp_prof as prof;
/// Continuous error-bar coverage auditing and diagnostic scorekeeping.
pub use aqp_audit as audit;
/// Self-hosted telemetry analytics: query the system's own telemetry
/// through the AQP engine (`_telemetry.*` tables, with error bars).
pub use aqp_introspect as introspect;
/// Columnar storage substrate.
pub use aqp_storage as storage;
/// Statistical substrate (bootstrap, closed forms, large deviations).
pub use aqp_stats as stats;
/// The error-estimation diagnostic (Kleiner et al., Algorithm 1).
pub use aqp_diagnostics as diagnostics;
/// SQL front end + plan rewriter.
pub use aqp_sql as sql;
/// Physical execution.
pub use aqp_exec as exec;
/// Cluster simulator for the Fig. 7–9 experiments.
pub use aqp_cluster as cluster;
/// Synthetic Facebook/Conviva-calibrated workloads.
pub use aqp_workload as workload;
