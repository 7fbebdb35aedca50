//! The answer type returned by [`crate::AqpSession::execute`].

use aqp_exec::result::{GroupResult, StageTimings};
use aqp_obs::QueryTrace;
use aqp_prof::OpProfile;

/// How the session ultimately answered a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnswerMode {
    /// Approximate answer with validated error bars.
    Approximate,
    /// Approximate answer; the diagnostic was not run (no samples, or
    /// diagnostics disabled).
    ApproximateUnchecked,
    /// The diagnostic rejected the error bars; the system fell back to
    /// exact execution (§1: "falling back to non-approximate methods to
    /// answer queries whose errors cannot be accurately estimated").
    ExactFallback,
    /// Some per-group/per-aggregate results were approved and kept
    /// approximate; the rejected ones were replaced with exact values
    /// (§2.1: "when a query produces multiple results, we treat each
    /// result as a separate query").
    PartialFallback,
    /// Exact execution was requested directly (no error clause, no
    /// samples).
    Exact,
}

impl AnswerMode {
    /// The stable lowercase name of the mode — the `_telemetry.queries.mode`
    /// column.
    pub fn label(self) -> &'static str {
        match self {
            AnswerMode::Approximate => "approximate",
            AnswerMode::ApproximateUnchecked => "approximate_unchecked",
            AnswerMode::ExactFallback => "exact_fallback",
            AnswerMode::PartialFallback => "partial_fallback",
            AnswerMode::Exact => "exact",
        }
    }
}

/// A complete answer.
#[derive(Debug, Clone)]
pub struct AqpAnswer {
    /// Per-group, per-aggregate results. For exact answers, the CI is
    /// `None` and estimates are exact values.
    pub groups: Vec<GroupResult>,
    /// How the answer was produced.
    pub mode: AnswerMode,
    /// Shorthand: did the system fall back to exact execution?
    pub fell_back: bool,
    /// Rows of the sample used (0 for exact paths).
    pub sample_rows: usize,
    /// Rows of the full table.
    pub population_rows: usize,
    /// Per-stage timings derived from [`AqpAnswer::trace`] (empty when
    /// nothing was recorded).
    pub timings: StageTimings,
    /// The full lifecycle span tree: parse → plan → sample selection →
    /// engine stages (grafted) → reliability gate / exact fallback.
    pub trace: QueryTrace,
    /// The EXPLAIN rendering of the (rewritten) plan that ran.
    pub plan: String,
    /// The EXPLAIN ANALYZE operator profile assembled from
    /// [`AqpAnswer::trace`] (`None` only when the trace holds no operator
    /// span).
    pub profile: Option<OpProfile>,
    /// Present when injected faults shrank the sample the answer was
    /// computed from: how many rows/partitions were lost and the factor
    /// every CI half-width was conservatively widened by (≥ 1).
    pub degraded: Option<aqp_faults::DegradedInfo>,
}

impl AqpAnswer {
    /// The single result of an ungrouped single-aggregate query.
    pub fn scalar(&self) -> Option<&aqp_exec::result::AggResult> {
        match self.groups.as_slice() {
            [g] if g.aggs.len() == 1 => Some(&g.aggs[0]),
            _ => None,
        }
    }

    /// Render a compact human-readable summary.
    pub fn summary(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "mode: {:?}  sample: {}/{} rows  time: {:?}",
            self.mode,
            self.sample_rows,
            self.population_rows,
            self.timings.total()
        );
        for g in &self.groups {
            for a in &g.aggs {
                let key = if g.key.is_empty() { String::new() } else { format!("{} | ", g.key) };
                match &a.ci {
                    Some(ci) => {
                        let _ = writeln!(
                            out,
                            "{key}{} = {:.4} ± {:.4}  ({:.0}% conf, {:?}{})",
                            a.name,
                            a.estimate,
                            ci.half_width,
                            ci.confidence * 100.0,
                            a.method,
                            match &a.diagnostic {
                                Some(d) if d.accepted => ", diagnostic: OK",
                                Some(_) => ", diagnostic: REJECTED",
                                None => "",
                            }
                        );
                    }
                    None => {
                        let why = a.bars_not_computed();
                        let why = why.map_or_else(String::new, |w| format!("; bars not computed: {w}"));
                        let _ = writeln!(out, "{key}{} = {:.4}  (exact{why})", a.name, a.estimate);
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqp_exec::result::{AggResult, MethodUsed};
    use aqp_stats::ci::Ci;

    fn answer() -> AqpAnswer {
        AqpAnswer {
            groups: vec![GroupResult {
                key: String::new(),
                aggs: vec![AggResult {
                    name: "AVG(time)".into(),
                    estimate: 12.5,
                    ci: Some(Ci::new(12.5, 0.4, 0.95)),
                    method: MethodUsed::ClosedForm,
                    diagnostic: None,
                }],
            }],
            mode: AnswerMode::ApproximateUnchecked,
            fell_back: false,
            sample_rows: 1_000,
            population_rows: 100_000,
            timings: StageTimings::default(),
            trace: QueryTrace::default(),
            plan: String::new(),
            profile: None,
            degraded: None,
        }
    }

    #[test]
    fn scalar_accessor() {
        let a = answer();
        assert_eq!(a.scalar().unwrap().estimate, 12.5);
    }

    #[test]
    fn summary_mentions_estimate_and_confidence() {
        let s = answer().summary();
        assert!(s.contains("AVG(time)"));
        assert!(s.contains("12.5"));
        assert!(s.contains("95% conf"));
        assert!(s.contains("1000/100000"));
    }

    #[test]
    fn summary_says_why_a_refused_result_has_no_bars() {
        use aqp_diagnostics::{Criterion, Decision, DiagnosticReport};
        let mut a = answer();
        let cell = &mut a.groups[0].aggs[0];
        cell.ci = None;
        assert!(a.summary().contains("= 12.5000  (exact)\n"), "{}", a.summary());
        let decision = Decision::Failed { criterion: Criterion::Spread, level: 1 };
        let cell = &mut a.groups[0].aggs[0];
        cell.diagnostic = Some(DiagnosticReport { levels: Vec::new(), decision, accepted: false });
        let s = a.summary();
        assert!(s.contains("(exact; bars not computed: refused (Spread, level 1))"), "{s}");
    }
}
