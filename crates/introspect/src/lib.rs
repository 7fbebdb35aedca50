//! `aqp-introspect`: self-hosted telemetry analytics.
//!
//! PRs 2–8 made the system produce telemetry — traces, metrics, audit
//! scores, fault events, SLO alerts, operator profiles — but consumed
//! it through hand-rolled JSONL parsers and bespoke dashboards. This
//! crate closes the loop: live telemetry folds into bounded columnar
//! tables (the same null-bitmap `aqp-storage` format every other table
//! uses), registered in the catalog under the reserved `_telemetry`
//! namespace, so the AQP engine itself answers questions about its own
//! behaviour — *with error bars*. "p95 wall time by stage" or
//! "CI-coverage rate by column family" become ordinary aqp-sql queries
//! that return confidence intervals and diagnostic verdicts, exactly
//! the bounded-error regime the paper formalizes for user data.
//!
//! # Determinism
//!
//! Each table is a seeded reservoir ([`reservoir::Reservoir`], Vitter's
//! Algorithm R with the slot drawn from an [`aqp_stats::rng::SeedStream`]):
//! retention is a pure function of *(seed, event sequence)*, so a
//! fixed-seed run folds a bit-identical table — and a fixed-seed
//! introspection query returns a bit-identical answer + CI + verdict —
//! across processes (`tests/golden/introspect_seed7.txt` pins exactly
//! that).
//!
//! # Recursion guard
//!
//! Introspection queries are themselves queries; folding them back into
//! the tables they read would make every dashboard refresh perturb the
//! data it displays. Queries that reference the `_telemetry` namespace
//! are therefore never folded in.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod pipeline;
pub mod reservoir;
pub mod tables;

pub use config::IntrospectConfig;
pub use pipeline::{AlertRow, Introspector, QueryRecord};
pub use tables::{Cell, NAMESPACE, TABLE_AUDIT, TABLE_FAULTS, TABLE_METRICS, TABLE_OPS,
    TABLE_QUERIES, TABLE_SLO_ALERTS, TABLE_SPANS};
