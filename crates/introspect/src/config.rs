//! Configuration of the introspection pipeline.

use aqp_obs::router::ClassRouter;

/// Knobs of the introspection pipeline. `Default` snapshots the metrics
/// every 16th query; the reservoir budget, the sample shape and the
/// partition count are constants of `pipeline.rs`.
#[derive(Debug, Clone)]
pub struct IntrospectConfig {
    /// Root seed of every per-table reservoir and of the uniform
    /// samples built over the materialized tables. Retention is a pure
    /// function of (seed, event sequence).
    pub seed: u64,
    /// Fold a point-in-time metrics snapshot into `_telemetry.metrics`
    /// every Nth folded query (`0` disables the snapshot stream —
    /// snapshots are the most voluminous source).
    pub metrics_every: u64,
    /// Workload-class routing for telemetry rows — the same shared
    /// [`ClassRouter`] the SLO engine and continuous profiler use, so
    /// all three slice the fleet identically.
    pub classes: ClassRouter,
}

impl Default for IntrospectConfig {
    fn default() -> Self {
        IntrospectConfig {
            seed: 0,
            metrics_every: 16,
            classes: ClassRouter::new(),
        }
    }
}

impl IntrospectConfig {
    /// The default shape (see the struct docs).
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the reservoir/sample seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Snapshot the metrics registry every `n`th folded query (`0`
    /// disables `_telemetry.metrics`).
    pub fn with_metrics_every(mut self, n: u64) -> Self {
        self.metrics_every = n;
        self
    }

    /// Route telemetry rows of queries whose SQL contains
    /// `sql_contains` to `class` (first matching rule wins).
    pub fn with_class(mut self, class: &str, sql_contains: &str) -> Self {
        self.classes.push_rule(class, sql_contains);
        self
    }
}
