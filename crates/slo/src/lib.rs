//! `aqp-slo`: fleet-level service-level objectives for the AQP
//! pipeline.
//!
//! The paper answers *knowing when you're wrong* per query
//! (diagnostics) and per window (audit replay); this crate answers it
//! *over time*. It is std-only, depends only on `aqp-obs` and
//! `aqp-audit` types, and provides:
//!
//! * [`SloEngine`] — declarative objectives per workload class
//!   (latency quantile targets, CI-coverage floors from audit scores),
//!   multi-window burn-rate evaluation (fast 5m/1h + slow 6h/3d pairs
//!   on the session clock), error-budget accounting, and
//!   hysteresis-latched alerts emitted as `aqp.slo.*` metrics plus
//!   JSONL via `aqp_obs::JsonlSink`.
//! * [`DriftDetector`] — EWMA control chart + Page-Hinkley test
//!   streaming over per-query relative error and coverage indicators,
//!   so miscalibration fires *between* audit windows. Detector state
//!   is a pure function of (seed, event sequence).
//! * Configuration for the always-on flight recorder
//!   (`aqp_obs::FlightRecorder`), which the session dumps whenever an
//!   SLO alert, audit alert, or degraded execution fires.
//!
//! # Wiring
//!
//! The session owns an engine when `SessionConfig::slo` is `Some`: it
//! classifies each query's SQL, feeds latency events after execution
//! and audit scores after replay, records every completed trace into
//! the flight recorder, and dumps the recorder at alert time. With
//! `slo: None` nothing is constructed — the pipeline is bit-identical
//! to a build without this crate.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod drift;
pub mod engine;

pub use config::{ClassRouter, ClassRule, Objective, ObjectiveKind, SloConfig, SloLogConfig};
pub use drift::{Detector, DriftDetector, DriftSignal, DriftStatus};
pub use engine::{
    ObjectiveStatus, Severity, SloAlert, SloEngine, SloReport, FLEET_STREAM_CLASS,
};
