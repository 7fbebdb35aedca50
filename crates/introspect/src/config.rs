//! Configuration of the introspection pipeline.

use aqp_obs::router::ClassRouter;

/// Knobs of the introspection pipeline. The metrics-snapshot cadence,
/// the reservoir budget, the sample shape and the partition count are
/// constants of `pipeline.rs`.
#[derive(Debug, Clone, Default)]
pub struct IntrospectConfig {
    /// Root seed of every per-table reservoir and of the uniform
    /// samples built over the materialized tables. Retention is a pure
    /// function of (seed, event sequence).
    pub seed: u64,
    /// Workload-class routing for telemetry rows — the same shared
    /// [`ClassRouter`] the SLO engine and continuous profiler use, so
    /// all three slice the fleet identically.
    pub classes: ClassRouter,
}

impl IntrospectConfig {
    /// Seed 0, no class rules.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the reservoir/sample seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Route telemetry rows of queries whose SQL contains
    /// `sql_contains` to `class` (first matching rule wins).
    pub fn with_class(mut self, class: &str, sql_contains: &str) -> Self {
        self.classes.push_rule(class, sql_contains);
        self
    }
}
