//! Shared SQL-substring workload-class router.
//!
//! Three subsystems bucket queries into workload classes from the query
//! text: the SLO engine (objectives per class), the continuous profiler
//! (fleet profiles per class), and the introspection pipeline
//! (`_telemetry.*` rows tagged per class). They must slice the fleet
//! identically, so the routing lives here once: an ordered list of
//! case-sensitive substring rules, first match wins, everything else in
//! [`DEFAULT_CLASS`].

/// The class queries fall into when no [`ClassRule`] matches.
pub const DEFAULT_CLASS: &str = "default";

/// One routing rule: queries whose SQL contains `sql_contains` belong
/// to `class`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassRule {
    /// Class name (used in objective ids, profiles, and dashboards).
    pub class: String,
    /// Case-sensitive substring the query's SQL must contain.
    pub sql_contains: String,
}

/// An ordered set of [`ClassRule`]s; the first matching rule wins.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ClassRouter {
    /// The rules, in priority order.
    pub rules: Vec<ClassRule>,
}

impl ClassRouter {
    /// An empty router: every query lands in [`DEFAULT_CLASS`].
    pub fn new() -> Self {
        ClassRouter::default()
    }

    /// Append a rule routing queries whose SQL contains `sql_contains`
    /// to `class`. Rules are tried in registration order.
    pub fn push_rule(&mut self, class: &str, sql_contains: &str) {
        self.rules.push(ClassRule {
            class: class.to_string(),
            sql_contains: sql_contains.to_string(),
        });
    }

    /// The workload class for `sql`: the first matching rule's class,
    /// else [`DEFAULT_CLASS`].
    pub fn classify<'a>(&'a self, sql: &str) -> &'a str {
        self.rules
            .iter()
            .find(|r| sql.contains(r.sql_contains.as_str()))
            .map(|r| r.class.as_str())
            .unwrap_or(DEFAULT_CLASS)
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// `true` when no rules are registered.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A router of `rules`, registered in order.
    fn router(rules: &[(&str, &str)]) -> ClassRouter {
        let mut r = ClassRouter::new();
        for (class, sql_contains) in rules {
            r.push_rule(class, sql_contains);
        }
        r
    }

    #[test]
    fn first_match_wins_with_default_fallback() {
        let r = router(&[("interactive", "AVG("), ("batch", "SUM(")]);
        assert_eq!(r.classify("SELECT AVG(time) FROM sessions"), "interactive");
        assert_eq!(r.classify("SELECT SUM(bytes) FROM sessions"), "batch");
        // Both rules match; registration order decides.
        assert_eq!(r.classify("SELECT AVG(a), SUM(b) FROM t"), "interactive");
        assert_eq!(r.classify("SELECT COUNT(*) FROM t"), DEFAULT_CLASS);
    }

    #[test]
    fn empty_router_routes_everything_to_default() {
        let r = ClassRouter::new();
        assert!(r.is_empty());
        assert_eq!(r.len(), 0);
        assert_eq!(r.classify("anything"), DEFAULT_CLASS);
    }

    #[test]
    fn matching_is_case_sensitive() {
        let r = router(&[("dash", "FROM sessions")]);
        assert_eq!(r.classify("SELECT 1 FROM SESSIONS"), DEFAULT_CLASS);
        assert_eq!(r.classify("SELECT 1 FROM sessions"), "dash");
    }

    #[test]
    fn overlapping_substrings_resolve_by_registration_order() {
        // "AVG(" is a strict substring of "AVG(time)": whichever rule is
        // registered first claims queries matching both. Pin both
        // orderings so a future "longest match wins" change cannot land
        // silently.
        let broad_first = router(&[("broad", "AVG("), ("narrow", "AVG(time)")]);
        assert_eq!(broad_first.classify("SELECT AVG(time) FROM s"), "broad");
        let narrow_first = router(&[("narrow", "AVG(time)"), ("broad", "AVG(")]);
        assert_eq!(narrow_first.classify("SELECT AVG(time) FROM s"), "narrow");
        // A query matching only the broad pattern still falls through
        // the narrow rule to the broad one.
        assert_eq!(narrow_first.classify("SELECT AVG(bytes) FROM s"), "broad");
    }

    #[test]
    fn empty_substring_rule_matches_every_query() {
        // An empty needle is contained in every haystack: such a rule
        // is a catch-all and shadows everything registered after it.
        let r = router(&[("all", ""), ("never", "SELECT")]);
        assert_eq!(r.classify("SELECT 1"), "all");
        assert_eq!(r.classify(""), "all");
    }

    #[test]
    fn duplicate_class_names_keep_first_match_semantics() {
        // Two rules may route to the same class; the router never
        // deduplicates or reorders.
        let r = router(&[
            ("reports", "GROUP BY city"),
            ("interactive", "AVG("),
            ("reports", "GROUP BY site"),
        ]);
        assert_eq!(r.classify("SELECT site, AVG(b) FROM s GROUP BY site"), "interactive");
        assert_eq!(r.classify("SELECT city, SUM(b) FROM s GROUP BY city"), "reports");
        assert_eq!(r.classify("SELECT site, SUM(b) FROM s GROUP BY site"), "reports");
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn class_miss_routes_to_default_even_with_many_rules() {
        let mut r = ClassRouter::new();
        for i in 0..32 {
            r.push_rule(&format!("class{i}"), &format!("NEEDLE_{i}"));
        }
        assert!(!r.is_empty());
        assert_eq!(r.classify("SELECT COUNT(*) FROM t"), DEFAULT_CLASS);
        // A late rule still beats the default when nothing earlier
        // matches...
        assert_eq!(r.classify("SELECT NEEDLE_9"), "class9");
        // ...but substring semantics mean "NEEDLE_31" is claimed by the
        // earlier "NEEDLE_3" rule, not the exact "NEEDLE_31" one —
        // routing tables must order specific needles before their
        // prefixes (see overlapping_substrings_resolve_by_registration_order).
        assert_eq!(r.classify("SELECT NEEDLE_31"), "class3");
    }
}
