//! Declarative SLO configuration: workload classes, objectives, the
//! JSONL alert log and the flight recorder. The burn-rate windows and
//! thresholds are constants of `engine.rs`.

use aqp_obs::FlightRecorderConfig;

// Class routing is the shared `aqp_obs::router` substring router, so
// SLO objectives, continuous profiles, and introspection rows slice
// the fleet identically.
pub use aqp_obs::router::{ClassRouter, ClassRule};

/// What one objective promises.
#[derive(Debug, Clone)]
pub enum ObjectiveKind {
    /// A latency quantile target: `quantile` (e.g. `0.95`) of queries
    /// complete within `threshold_ms`. Each query is one SLO event;
    /// the event is *bad* when its latency exceeds the threshold, and
    /// the error-budget allowance is `1 − quantile`.
    Latency {
        /// Target quantile in `(0, 1)` — `0.95` for p95, `0.99` for p99.
        quantile: f64,
        /// Per-query latency threshold in milliseconds.
        threshold_ms: f64,
    },
    /// A CI-coverage floor: at least `floor` of audited group-aggregates
    /// have confidence intervals that cover the replayed truth. Each
    /// audited aggregate with a coverage verdict is one SLO event; the
    /// event is *bad* on a miss, and the allowance is `1 − floor`.
    Coverage {
        /// Minimum acceptable coverage rate in `(0, 1)`, e.g. `0.9`.
        floor: f64,
    },
}

/// One declarative objective bound to a workload class.
#[derive(Debug, Clone)]
pub struct Objective {
    /// Workload class this objective applies to.
    pub class: String,
    /// The promise.
    pub kind: ObjectiveKind,
}

impl Objective {
    /// The error-budget allowance: the fraction of events allowed to be
    /// bad while still meeting the objective. Clamped away from zero so
    /// burn rates stay finite.
    pub fn allowance(&self) -> f64 {
        let a = match self.kind {
            ObjectiveKind::Latency { quantile, .. } => 1.0 - quantile,
            ObjectiveKind::Coverage { floor } => 1.0 - floor,
        };
        a.max(1e-6)
    }

    /// Deterministic id, e.g. `interactive/latency_p95_le_40ms` or
    /// `default/coverage_ge_90`.
    pub fn id(&self) -> String {
        match self.kind {
            ObjectiveKind::Latency { quantile, threshold_ms } => format!(
                "{}/latency_p{:.0}_le_{}ms",
                self.class,
                quantile * 100.0,
                threshold_ms
            ),
            ObjectiveKind::Coverage { floor } => {
                format!("{}/coverage_ge_{:.0}", self.class, floor * 100.0)
            }
        }
    }
}

/// Where (and how large) the rotating JSONL SLO log is.
pub use aqp_obs::JsonlLogConfig as SloLogConfig;

/// Configuration of the fleet-level SLO engine.
///
/// Off by default at the session level (the session's `slo` field is
/// `None`). `Default`/[`SloConfig::new`] has *no objectives*; add them
/// with the builder methods.
#[derive(Debug, Clone, Default)]
pub struct SloConfig {
    /// Class-assignment rules, checked in order (the shared
    /// [`ClassRouter`]).
    pub classes: ClassRouter,
    /// The declared objectives.
    pub objectives: Vec<Objective>,
    /// Rotating JSONL log for alerts (`None` = no log).
    pub log: Option<SloLogConfig>,
    /// Flight-recorder sizing and dump path.
    pub recorder: FlightRecorderConfig,
}

impl SloConfig {
    /// The class queries fall into when no [`ClassRule`] matches.
    pub const DEFAULT_CLASS: &'static str = aqp_obs::router::DEFAULT_CLASS;

    /// No objectives, no log, the default recorder.
    pub fn new() -> Self {
        SloConfig::default()
    }

    /// Add a class rule: queries whose SQL contains `sql_contains` are
    /// assigned to `class` (first matching rule wins).
    pub fn with_class(mut self, class: &str, sql_contains: &str) -> Self {
        self.classes.push_rule(class, sql_contains);
        self
    }

    /// Add a latency-quantile objective for `class`.
    pub fn with_latency(mut self, class: &str, quantile: f64, threshold_ms: f64) -> Self {
        self.objectives.push(Objective {
            class: class.to_string(),
            kind: ObjectiveKind::Latency { quantile, threshold_ms },
        });
        self
    }

    /// Add a CI-coverage-floor objective for `class`.
    pub fn with_coverage(mut self, class: &str, floor: f64) -> Self {
        self.objectives.push(Objective {
            class: class.to_string(),
            kind: ObjectiveKind::Coverage { floor },
        });
        self
    }

    /// Route alerts to a rotating JSONL log.
    pub fn with_log(mut self, log: SloLogConfig) -> Self {
        self.log = Some(log);
        self
    }

    /// Size the flight recorder and set its dump path.
    pub fn with_recorder(mut self, recorder: FlightRecorderConfig) -> Self {
        self.recorder = recorder;
        self
    }

    /// The workload class of `sql`: first matching rule, else
    /// [`SloConfig::DEFAULT_CLASS`].
    pub fn classify<'a>(&'a self, sql: &str) -> &'a str {
        self.classes.classify(sql)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_is_first_match_with_default_fallback() {
        let cfg = SloConfig::new()
            .with_class("interactive", "AVG(")
            .with_class("batch", "SUM(");
        assert_eq!(cfg.classify("SELECT AVG(time) FROM sessions"), "interactive");
        assert_eq!(cfg.classify("SELECT SUM(bytes) FROM sessions"), "batch");
        // First rule wins even when both match.
        assert_eq!(cfg.classify("SELECT AVG(a), SUM(b) FROM t"), "interactive");
        assert_eq!(cfg.classify("SELECT COUNT(*) FROM t"), "default");
    }

    #[test]
    fn objective_ids_and_allowances() {
        let lat = Objective {
            class: "interactive".into(),
            kind: ObjectiveKind::Latency { quantile: 0.95, threshold_ms: 40.0 },
        };
        assert_eq!(lat.id(), "interactive/latency_p95_le_40ms");
        assert!((lat.allowance() - 0.05).abs() < 1e-12);
        let cov = Objective {
            class: "default".into(),
            kind: ObjectiveKind::Coverage { floor: 0.9 },
        };
        assert_eq!(cov.id(), "default/coverage_ge_90");
        assert!((cov.allowance() - 0.1).abs() < 1e-12);
        // A 100% target still yields a finite allowance.
        let strict = Objective {
            class: "x".into(),
            kind: ObjectiveKind::Coverage { floor: 1.0 },
        };
        assert!(strict.allowance() > 0.0);
    }
}
