//! Auditor configuration: sampling policy, window semantics, alert
//! thresholds, and the rotating JSONL audit log.

/// Where (and how large) the rotating JSONL audit log is.
pub use aqp_obs::JsonlLogConfig as AuditLogConfig;

/// Configuration of the continuous accuracy auditor.
///
/// The auditor is *off by default* at the session level (the session's
/// `audit` field is `None`); this struct's `Default` gives the
/// recommended knobs once auditing is switched on: audit 10% of
/// approximate answers, slide a 200-result window, and alert when CI
/// coverage drops below 90%.
#[derive(Debug, Clone)]
pub struct AuditConfig {
    /// Fraction of approximate answers replayed at full data, in
    /// `[0, 1]`. The decision per query is a deterministic hash of
    /// `seed` and the query's ordinal, so a trace replayed with the
    /// same seed audits exactly the same queries.
    pub sample_rate: f64,
    /// Seed for the audit-sampling hash (independent of the session's
    /// estimation seed).
    pub seed: u64,
    /// Sliding-window length, in scored group-aggregate results.
    pub window: usize,
    /// Fire an alert when a window's CI coverage drops below this.
    pub coverage_alert_below: f64,
    /// Minimum scored results in a window before it may alert (avoids
    /// alerting on the first unlucky miss).
    pub min_window_for_alert: usize,
    /// Rotating JSONL audit log; `None` keeps audits in memory only.
    pub log: Option<AuditLogConfig>,
    /// `(column, distribution family)` labels used to bucket scores per
    /// aggregate function × family (e.g. `("payload_kb", "pareto")`).
    /// Unmapped columns land in the `"unlabeled"` family.
    pub column_families: Vec<(String, String)>,
}

impl Default for AuditConfig {
    fn default() -> Self {
        AuditConfig {
            sample_rate: 0.1,
            seed: 0,
            window: 200,
            coverage_alert_below: 0.90,
            min_window_for_alert: 50,
            log: None,
            column_families: Vec::new(),
        }
    }
}

impl AuditConfig {
    /// The distribution-family label for `column`.
    pub fn family_of(&self, column: &str) -> &str {
        self.column_families
            .iter()
            .find(|(c, _)| c == column)
            .map(|(_, f)| f.as_str())
            .unwrap_or("unlabeled")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_documented_policy() {
        let c = AuditConfig::default();
        assert_eq!(c.sample_rate, 0.1);
        assert_eq!(c.window, 200);
        assert_eq!(c.coverage_alert_below, 0.90);
        assert!(c.log.is_none());
    }

    #[test]
    fn family_lookup_falls_back_to_unlabeled() {
        let c = AuditConfig {
            column_families: vec![("payload_kb".into(), "pareto".into())],
            ..Default::default()
        };
        assert_eq!(c.family_of("payload_kb"), "pareto");
        assert_eq!(c.family_of("time"), "unlabeled");
    }
}
