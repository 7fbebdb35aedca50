//! # aqp-diagnostics
//!
//! The error-estimation diagnostic of Kleiner et al. (KDD 2013),
//! specialized to query approximation exactly as in Appendix A of
//! *Knowing When You're Wrong* (SIGMOD 2014), and generalized over the
//! error-estimation procedure ξ (§4.1: bootstrap *or* closed forms).
//!
//! The idea: if S is a simple random sample from D, disjoint partitions of
//! S are themselves mutually independent simple random samples from D —
//! so we can afford to run the "ideal" evaluation (does ξ's interval match
//! the true interval?) at a *sequence of small subsample sizes*
//! b₁ < … < b_k and extrapolate: if ξ's relative deviation from the truth
//! shrinks (or is already small) as b grows, and is tight at b_k, we
//! accept ξ's interval on the full sample.
//!
//! * [`config::DiagnosticConfig`] — the parameters (p, k, b₁..b_k, c₁, c₂,
//!   c₃, ρ), defaulting to the paper's settings.
//! * [`kleiner`] — Algorithm 1 itself: one lazy driver that pulls
//!   per-subsample estimates from its caller and stops when the verdict
//!   is fixed (the engine's diagnostic operator feeds it from the
//!   collected data), and a convenience caller over a values vector.
//! * [`ground_truth`] — the expensive "ideal diagnostic" used to measure
//!   the real diagnostic's false-positive/negative rates (Fig. 4).

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod ground_truth;
pub mod kleiner;

pub use config::DiagnosticConfig;
pub use ground_truth::DiagnosticOutcome;
pub use kleiner::{diagnose, run_diagnostic, Criterion, Decision, DiagnosticReport, LevelReport};
