//! # aqp-stats
//!
//! The statistical substrate of `reliable-aqp`: everything §2 and §5.1 of
//! *Knowing When You're Wrong* (SIGMOD 2014) rely on, implemented from
//! scratch:
//!
//! * deterministic RNG discipline ([`rng`]),
//! * distribution samplers — Poisson(λ) with a fast λ=1 path, normal,
//!   lognormal, Pareto, Zipf — and the normal quantile function ([`dist`]),
//! * streaming moments and exact quantiles ([`moments`], [`quantile`]),
//! * query aggregates θ as pluggable [`estimator::QueryEstimator`]s with
//!   both plain and Poisson-weighted evaluation ([`estimator`]),
//! * Poissonized and exact-multinomial resampling ([`resample`]),
//! * the nonparametric bootstrap ([`bootstrap`]),
//! * closed-form CLT variance estimates ([`closed_form`]),
//! * large-deviation (Hoeffding/Bernstein) bounds ([`large_deviation`]),
//! * symmetric centered confidence intervals, the true-interval
//!   construction, and the δ accuracy metric ([`ci`]),
//! * the θ the engine and the experiments share, and the error-estimation
//!   techniques ξ as one enum, which is what the diagnostic validates
//!   ([`error_estimator`]), and
//! * the §3 evaluation harness that classifies a (θ, ξ, data) triple as
//!   correct / optimistic / pessimistic and measures its empirical
//!   coverage — the user-facing guarantee under-coverage breaks
//!   ([`accuracy`]).

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod accuracy;
pub mod bootstrap;
pub mod ci;
pub mod closed_form;
pub mod dist;
pub mod error_estimator;
pub mod estimator;
pub mod large_deviation;
pub mod moments;
pub mod quantile;
pub mod resample;
pub mod rng;
pub mod sampling;

pub use ci::{Ci, Delta};
pub use error_estimator::{EstimationMethod, Theta};
pub use estimator::{Aggregate, QueryEstimator, SampleContext};
pub use rng::SeedStream;
