//! Scoring one audited group-aggregate result against replayed truth.
//!
//! Each audit scores three things (§3–§4 of the paper, turned into
//! operational checks):
//!
//! * **CI coverage** — did the claimed confidence interval contain the
//!   full-data answer? Over many audits the hit rate should track the
//!   claimed confidence level (≈95%); a shortfall means the error
//!   estimates are silently failing.
//! * **Error ratio** — `|estimate − truth| / half_width`: the actual
//!   error in units of the claimed bound. ≤ 1 iff the CI covered;
//!   values ≫ 1 quantify *how badly* the bars understated the error.
//! * **Diagnostic confusion cell** — the Kleiner verdict (accept or
//!   reject) against what the replay proved, giving the Fig. 4
//!   TP/FP/TN/FN cells on live traffic instead of synthetic studies.

use aqp_diagnostics::DiagnosticOutcome;
use aqp_stats::ci::Ci;

/// One group-aggregate result handed to the auditor, paired with the
/// full-data truth obtained by replay. The names borrow from the served
/// result and the auditor's config: scoring a cell allocates nothing.
#[derive(Debug, Clone)]
pub struct AuditedAggregate<'a> {
    /// Aggregate function name, e.g. `AVG`, `MAX`, `trimmed_mean`.
    pub agg: &'a str,
    /// Input column (`*` for `COUNT(*)`).
    pub column: &'a str,
    /// Distribution-family label of the input column (see
    /// `AuditConfig::column_families`).
    pub family: &'a str,
    /// The approximate point estimate served to the user.
    pub estimate: f64,
    /// The claimed confidence interval, if error estimation produced
    /// one.
    pub ci: Option<Ci>,
    /// The Kleiner diagnostic's verdict, if the diagnostic ran.
    pub diagnostic_accepted: Option<bool>,
    /// The exact full-data answer from the replay.
    pub truth: f64,
}

/// The per-result audit scores.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AuditScore {
    /// Did the claimed CI contain the truth? `None` without a CI or
    /// with a non-finite truth.
    pub covered: Option<bool>,
    /// `|estimate − truth| / |truth|`; `None` when truth is zero or
    /// either value is non-finite.
    pub rel_error: Option<f64>,
    /// `|estimate − truth| / half_width`; `None` without a CI or with a
    /// degenerate (zero/non-finite) half-width.
    pub error_ratio: Option<f64>,
    /// Confusion cell of the diagnostic verdict vs the replay, when
    /// both a coverage verdict and a diagnostic verdict exist.
    pub outcome: Option<DiagnosticOutcome>,
}

/// Score one audited result. Total: never panics, NaN-safe (non-finite
/// inputs yield `None` scores rather than poisoned aggregates).
pub fn score(a: &AuditedAggregate<'_>) -> AuditScore {
    let finite = a.estimate.is_finite() && a.truth.is_finite();
    let covered = match (&a.ci, finite) {
        (Some(ci), true) => Some(ci.contains(a.truth)),
        _ => None,
    };
    let rel_error = if finite && a.truth != 0.0 {
        Some((a.estimate - a.truth).abs() / a.truth.abs())
    } else {
        None
    };
    let error_ratio = match (&a.ci, finite) {
        (Some(ci), true) if ci.half_width.is_finite() && ci.half_width > 0.0 => {
            Some((a.estimate - a.truth).abs() / ci.half_width)
        }
        _ => None,
    };
    // "Estimation works" for the confusion matrix is the replay's
    // coverage verdict: the bars were right iff they contained truth.
    let outcome = match (covered, a.diagnostic_accepted) {
        (Some(c), Some(d)) => Some(DiagnosticOutcome::from_verdicts(c, d)),
        _ => None,
    };
    AuditScore { covered, rel_error, error_ratio, outcome }
}

/// The window/report key: aggregate function × distribution family.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AuditKey {
    /// Aggregate function name.
    pub agg: String,
    /// Distribution-family label.
    pub family: String,
}

impl std::fmt::Display for AuditKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}", self.agg, self.family)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn audited(
        estimate: f64,
        hw: f64,
        accepted: Option<bool>,
        truth: f64,
    ) -> AuditedAggregate<'static> {
        AuditedAggregate {
            agg: "AVG",
            column: "x",
            family: "normal",
            estimate,
            ci: Some(Ci::new(estimate, hw, 0.95)),
            diagnostic_accepted: accepted,
            truth,
        }
    }

    #[test]
    fn coverage_and_ratio_agree() {
        let hit = score(&audited(10.0, 1.0, Some(true), 10.5));
        assert_eq!(hit.covered, Some(true));
        assert!(hit.error_ratio.unwrap() <= 1.0);
        assert_eq!(hit.outcome, Some(DiagnosticOutcome::TrueAccept));

        let miss = score(&audited(10.0, 1.0, Some(true), 12.0));
        assert_eq!(miss.covered, Some(false));
        assert!(miss.error_ratio.unwrap() > 1.0);
        assert_eq!(miss.outcome, Some(DiagnosticOutcome::FalsePositive));
    }

    #[test]
    fn rejection_cells() {
        let tr = score(&audited(10.0, 1.0, Some(false), 12.0));
        assert_eq!(tr.outcome, Some(DiagnosticOutcome::TrueReject));
        let fn_ = score(&audited(10.0, 1.0, Some(false), 10.2));
        assert_eq!(fn_.outcome, Some(DiagnosticOutcome::FalseNegative));
    }

    #[test]
    fn missing_ci_or_diagnostic_yields_none() {
        let mut a = audited(10.0, 1.0, None, 10.2);
        assert_eq!(score(&a).outcome, None);
        a.ci = None;
        let s = score(&a);
        assert_eq!(s.covered, None);
        assert_eq!(s.error_ratio, None);
        assert!(s.rel_error.is_some());
    }

    #[test]
    fn nonfinite_inputs_do_not_poison() {
        let mut a = audited(f64::NAN, 1.0, Some(true), 10.0);
        let s = score(&a);
        assert_eq!(s.covered, None);
        assert_eq!(s.rel_error, None);
        assert_eq!(s.error_ratio, None);
        assert_eq!(s.outcome, None);
        a = audited(10.0, 1.0, Some(true), f64::INFINITY);
        assert_eq!(score(&a).covered, None);
        // Zero truth: relative error undefined, coverage still checked.
        a = audited(0.1, 1.0, Some(true), 0.0);
        let s = score(&a);
        assert_eq!(s.rel_error, None);
        assert_eq!(s.covered, Some(true));
    }

    #[test]
    fn key_renders_agg_and_family() {
        let k = AuditKey { agg: "MAX".into(), family: "pareto".into() };
        assert_eq!(k.to_string(), "MAX:pareto");
    }
}
