//! Result types for exact and approximate execution.

use std::time::Duration;

use aqp_diagnostics::{Decision, DiagnosticReport};
use aqp_obs::trace::stage;
use aqp_obs::QueryTrace;
use aqp_stats::ci::Ci;
use serde::{Deserialize, Serialize};

/// Which error-estimation technique actually produced the interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MethodUsed {
    /// Poissonized bootstrap.
    Bootstrap,
    /// Closed-form CLT estimate.
    ClosedForm,
    /// No interval could be produced.
    None,
}

/// Per-stage wall-clock timings, populated from the query's
/// [`QueryTrace`]. Generalizes the old three-phase decomposition of
/// Fig. 7/9 (query / error estimation / diagnostics) to arbitrarily
/// many named stages while keeping those three as accessors.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StageTimings {
    /// `(stage name, duration)` in execution order.
    pub stages: Vec<(String, Duration)>,
}

impl StageTimings {
    /// The top-level stages of `trace`, in recording order.
    pub fn from_trace(trace: &QueryTrace) -> Self {
        StageTimings {
            stages: trace
                .stages()
                .into_iter()
                .map(|(name, d)| (name.to_string(), d))
                .collect(),
        }
    }

    /// Append a stage.
    pub fn push(&mut self, name: &str, d: Duration) {
        self.stages.push((name.to_string(), d));
    }

    /// Total duration of every stage with this name (zero if absent).
    pub fn get(&self, name: &str) -> Duration {
        self.stages
            .iter()
            .filter(|(n, _)| n == name)
            .map(|&(_, d)| d)
            .sum()
    }

    /// Time spent producing the answer itself (everything that is not
    /// error estimation or diagnostics) — the Fig. 7/9 "query" bar.
    pub fn query(&self) -> Duration {
        self.total()
            .saturating_sub(self.error_estimation())
            .saturating_sub(self.diagnostics())
    }

    /// Additional time for the error estimate.
    pub fn error_estimation(&self) -> Duration {
        self.get(stage::ERROR_ESTIMATION)
    }

    /// Additional time for the diagnostic.
    pub fn diagnostics(&self) -> Duration {
        self.get(stage::DIAGNOSTICS)
    }

    /// Time spent replaying audited queries at full data (zero when the
    /// auditor did not fire on this query).
    pub fn audit_replay(&self) -> Duration {
        self.get(stage::AUDIT_REPLAY)
    }

    /// End-to-end total.
    pub fn total(&self) -> Duration {
        self.stages.iter().map(|&(_, d)| d).sum()
    }
}

/// The approximate result for one aggregate of one group.
#[derive(Debug, Clone)]
pub struct AggResult {
    /// Aggregate display name (e.g. `AVG(time)`).
    pub name: String,
    /// The point estimate θ(S).
    pub estimate: f64,
    /// The error bars, when estimable.
    pub ci: Option<Ci>,
    /// The technique that produced `ci`.
    pub method: MethodUsed,
    /// The diagnostic verdict, when the diagnostic ran.
    pub diagnostic: Option<DiagnosticReport>,
}

impl AggResult {
    /// Whether the diagnostic ran and refused this result. The executor
    /// computes no error bars for a refused result; whoever still wants
    /// them asks with [`ApproxResult::fill_refused_bars`].
    pub fn refused(&self) -> bool {
        refused(&self.diagnostic)
    }

    /// For a refused result, why it has no error bars — `refused
    /// (Proportion, level 2)` names the check that decided and its level.
    pub fn bars_not_computed(&self) -> Option<String> {
        match &self.diagnostic.as_ref()?.decision {
            Decision::Accepted => None,
            Decision::Failed { criterion, level } => Some(format!("refused ({criterion:?}, level {level})")),
            Decision::Refused(why) => Some(format!("refused ({why})")),
        }
    }

    /// §4's end decision: error bars may be shown iff a CI exists and the
    /// diagnostic (if run) accepted.
    pub fn error_bars_reliable(&self) -> bool {
        self.ci.is_some() && self.diagnostic.as_ref().map(|d| d.accepted).unwrap_or(true)
    }
}

/// Whether a cell's diagnostic ran and said no.
pub(crate) fn refused(diagnostic: &Option<DiagnosticReport>) -> bool {
    diagnostic.as_ref().is_some_and(|d| !d.accepted)
}

/// One group's results.
#[derive(Debug, Clone)]
pub struct GroupResult {
    /// Rendered group key (empty for the global group).
    pub key: String,
    /// One result per SELECT aggregate.
    pub aggs: Vec<AggResult>,
}

/// The full approximate query result.
#[derive(Debug, Clone)]
pub struct ApproxResult {
    /// Per-group results, sorted by key.
    pub groups: Vec<GroupResult>,
    /// Sample rows scanned.
    pub sample_rows: usize,
    /// Population rows the estimates are scaled to.
    pub population_rows: usize,
    /// Wall-clock decomposition, derived from `trace`.
    pub timings: StageTimings,
    /// The executor's span tree for this query.
    pub trace: QueryTrace,
    /// Present when injected faults shrank the sample: how much was
    /// lost and the factor every CI half-width was widened by.
    pub degraded: Option<aqp_faults::DegradedInfo>,
    /// What the bars of refused results would be computed from, until
    /// [`fill_refused_bars`](ApproxResult::fill_refused_bars) uses it up
    /// or the caller drops it (`None` from the §5.2 baseline).
    pub bar_inputs: Option<crate::engine::BarInputs>,
}

impl ApproxResult {
    /// The single scalar estimate of an ungrouped single-aggregate query.
    pub fn scalar(&self) -> Option<&AggResult> {
        match self.groups.as_slice() {
            [g] if g.aggs.len() == 1 => Some(&g.aggs[0]),
            _ => None,
        }
    }
}

/// An exact (non-approximate) query result.
#[derive(Debug, Clone)]
pub struct ExactResult {
    /// Per-group `(key, per-aggregate values)`, sorted by key.
    pub groups: Vec<(String, Vec<f64>)>,
    /// Rows scanned.
    pub rows_scanned: usize,
    /// Per-stage wall-clock timings.
    pub timings: StageTimings,
    /// The executor's span tree for this query.
    pub trace: QueryTrace,
}

impl ExactResult {
    /// The single scalar value of an ungrouped single-aggregate query.
    pub fn scalar(&self) -> Option<f64> {
        match self.groups.as_slice() {
            [(_, vals)] if vals.len() == 1 => Some(vals[0]),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timings(entries: &[(&str, u64)]) -> StageTimings {
        let mut t = StageTimings::default();
        for &(n, ms) in entries {
            t.push(n, Duration::from_millis(ms));
        }
        t
    }

    #[test]
    fn stage_timings_accessors() {
        let t = timings(&[
            (stage::SCAN_COLLECT, 8),
            (stage::POINT_ESTIMATE, 2),
            (stage::ERROR_ESTIMATION, 20),
            (stage::DIAGNOSTICS, 30),
        ]);
        assert_eq!(t.total(), Duration::from_millis(60));
        assert_eq!(t.query(), Duration::from_millis(10));
        assert_eq!(t.error_estimation(), Duration::from_millis(20));
        assert_eq!(t.diagnostics(), Duration::from_millis(30));
        assert_eq!(t.get("missing"), Duration::ZERO);
    }

    #[test]
    fn stage_timings_from_trace_takes_roots() {
        use aqp_obs::{Clock, TraceRecorder};
        let clock = Clock::mock();
        let rec = TraceRecorder::new(clock.clone());
        let a = rec.start(stage::SCAN_COLLECT);
        let _nested = rec.start("partition"); // child: not a stage
        clock.advance(Duration::from_millis(5));
        rec.end(a);
        let b = rec.start(stage::DIAGNOSTICS);
        clock.advance(Duration::from_millis(3));
        rec.end(b);
        let t = StageTimings::from_trace(&rec.finish());
        assert_eq!(t.stages.len(), 2);
        assert_eq!(t.diagnostics(), Duration::from_millis(3));
        assert_eq!(t.query(), Duration::from_millis(5));
    }

    #[test]
    fn reliability_requires_ci_and_acceptance() {
        let base = AggResult {
            name: "AVG(x)".into(),
            estimate: 1.0,
            ci: Some(Ci::new(1.0, 0.1, 0.95)),
            method: MethodUsed::Bootstrap,
            diagnostic: None,
        };
        assert!(base.error_bars_reliable());
        let mut no_ci = base.clone();
        no_ci.ci = None;
        assert!(!no_ci.error_bars_reliable());
        assert!(!no_ci.refused() && no_ci.bars_not_computed().is_none());
        // A refused result says which check refused it.
        let decision =
            Decision::Failed { criterion: aqp_diagnostics::Criterion::Proportion, level: 2 };
        let report = DiagnosticReport { levels: Vec::new(), decision, accepted: false };
        let refused = AggResult { diagnostic: Some(report), ..no_ci };
        assert!(refused.refused() && !refused.error_bars_reliable());
        assert_eq!(refused.bars_not_computed().as_deref(), Some("refused (Proportion, level 2)"));
    }

    #[test]
    fn scalar_accessors() {
        let r = ExactResult {
            groups: vec![(String::new(), vec![42.0])],
            rows_scanned: 10,
            timings: timings(&[(stage::EXACT_EXECUTION, 4)]),
            trace: QueryTrace::default(),
        };
        assert_eq!(r.scalar(), Some(42.0));
        assert_eq!(r.timings.total(), Duration::from_millis(4));
        let r2 = ExactResult {
            groups: vec![(String::new(), vec![1.0, 2.0])],
            rows_scanned: 10,
            timings: StageTimings::default(),
            trace: QueryTrace::default(),
        };
        assert_eq!(r2.scalar(), None);
    }
}
