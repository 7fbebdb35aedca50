//! # aqp-cluster
//!
//! A discrete-event cluster simulator standing in for the paper's 100-node
//! EC2 deployment (§7: 100 × m1.large, 75 TB disk, 600 GB RAM cache).
//!
//! The Fig. 7–9 experiments measure *cost-structure* effects — per-task
//! scheduling overhead vs. parallel scan work vs. many-to-one aggregation
//! vs. straggler tails vs. cache-tier bandwidth — not absolute EC2
//! seconds. This crate models exactly those terms:
//!
//! * [`config::ClusterConfig`] — machine and scheduler parameters,
//!   calibrated to m1.large-era hardware,
//! * [`task`] — jobs as bags of tasks with input sizes and CPU costs,
//! * [`sim`] — the scheduler simulation: dispatch, waves over bounded
//!   slots, lognormal stragglers, optional 10%-clone mitigation (§6.3),
//!   cache-tier scan speeds and input-vs-working-memory contention
//!   (§6.2),
//! * [`query_model`] — maps a query's statistical profile to the job
//!   sequences produced by the naive (§5.2), plan-optimized (§5.3), and
//!   physically-tuned (§6) execution strategies.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod query_model;
pub mod sim;
pub mod task;

pub use config::{ClusterConfig, PhysicalTuning};
pub use query_model::{simulate_query, PlanMode, QueryProfile, SimTimings};
pub use sim::simulate_job;
pub use task::{Job, Task};
