//! Configuration of the introspection pipeline.

use aqp_obs::router::ClassRouter;

/// Knobs of the introspection pipeline. `Default` is a sensible
/// always-on shape: 4096-row reservoirs per table, a metrics snapshot
/// every 16th query, half-rate uniform samples over the materialized
/// tables, and the recursion guard engaged.
#[derive(Debug, Clone)]
pub struct IntrospectConfig {
    /// Root seed of every per-table reservoir and of the uniform
    /// samples built over the materialized tables. Retention is a pure
    /// function of (seed, event sequence).
    pub seed: u64,
    /// Row budget of each `_telemetry.*` reservoir; beyond it, seeded
    /// reservoir downsampling keeps a uniform subset.
    pub budget_rows: usize,
    /// Fold a point-in-time metrics snapshot into `_telemetry.metrics`
    /// every Nth folded query (`0` disables the snapshot stream —
    /// snapshots are the most voluminous source).
    pub metrics_every: u64,
    /// Fraction of a materialized table to cover with the uniform
    /// sample the approximate path runs on.
    pub sample_fraction: f64,
    /// Tables smaller than this are registered without samples, so
    /// queries over them silently run exact (sampling 20 rows buys
    /// nothing).
    pub min_rows_for_sampling: usize,
    /// Partition count of materialized tables and their samples.
    pub partitions: usize,
    /// Fold telemetry *from introspection queries themselves* back into
    /// the tables. Off by default: a dashboard refresh should not
    /// perturb the data it displays.
    pub allow_recursive: bool,
    /// Workload-class routing for telemetry rows — the same shared
    /// [`ClassRouter`] the SLO engine and continuous profiler use, so
    /// all three slice the fleet identically.
    pub classes: ClassRouter,
}

impl Default for IntrospectConfig {
    fn default() -> Self {
        IntrospectConfig {
            seed: 0,
            budget_rows: 4096,
            metrics_every: 16,
            sample_fraction: 0.5,
            min_rows_for_sampling: 64,
            partitions: 2,
            allow_recursive: false,
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

    /// Allow introspection queries to fold their own telemetry back
    /// into the `_telemetry.*` tables.
    pub fn with_recursive(mut self, allow: bool) -> Self {
        self.allow_recursive = allow;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_guard_is_engaged() {
        assert!(!IntrospectConfig::default().allow_recursive);
        assert_eq!(IntrospectConfig::default().budget_rows, 4096);
    }
}
