//! Query-lifecycle traces: a span tree covering parse → plan/rewrite →
//! sample selection → scan/exec → error estimation → diagnostic verdict.
//!
//! [`TraceRecorder`] builds the tree while a query runs (thread-safe;
//! workers may attach leaf spans), then [`TraceRecorder::finish`] turns
//! it into an immutable [`QueryTrace`] that travels with the result and
//! can be exported as JSONL or a human-readable table.

use std::fmt::Display;
use std::sync::Mutex;
use std::time::Duration;

use crate::clock::{Clock, Timestamp};
use crate::json::{push_f64, push_str_lit};

/// Canonical stage names used across the pipeline (session + engine).
pub mod stage {
    /// SQL text → AST.
    pub const PARSE: &str = "parse";
    /// AST → logical plan (incl. rewrite for error estimation).
    pub const PLAN: &str = "plan";
    /// Choosing which sample satisfies the error/time bound.
    pub const SAMPLE_SELECTION: &str = "sample_selection";
    /// Scanning the sample and collecting per-group data.
    pub const SCAN_COLLECT: &str = "scan_collect";
    /// Computing θ(S) point estimates.
    pub const POINT_ESTIMATE: &str = "point_estimate";
    /// Closed-form / bootstrap error estimation.
    pub const ERROR_ESTIMATION: &str = "error_estimation";
    /// The Kleiner et al. diagnostic.
    pub const DIAGNOSTICS: &str = "diagnostics";
    /// Assembling the final result rows.
    pub const ASSEMBLE: &str = "assemble";
    /// Exact execution (ground truth or fallback).
    pub const EXACT_EXECUTION: &str = "exact_execution";
    /// Post-exec reliability gate + fallback merging in the session.
    pub const RELIABILITY_GATE: &str = "reliability_gate";
    /// Full-data replay + scoring performed by the accuracy auditor.
    pub const AUDIT_REPLAY: &str = "audit_replay";
}

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Stage name (see [`stage`] for the canonical taxonomy).
    pub name: String,
    /// Index of the parent span in [`QueryTrace::spans`], if nested.
    pub parent: Option<usize>,
    /// Start, nanoseconds on the recording clock.
    pub start_ns: u64,
    /// End, nanoseconds on the recording clock.
    pub end_ns: u64,
    /// Free-form `(key, value)` attributes (e.g. `resamples = 100`).
    pub attrs: Vec<(String, String)>,
}

impl Span {
    /// Wall-clock duration of the span.
    pub fn duration(&self) -> Duration {
        Duration::from_nanos(self.end_ns.saturating_sub(self.start_ns))
    }

    /// Look up an attribute by key.
    pub fn attr(&self, key: &str) -> Option<&str> {
        self.attrs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// An immutable, finished span tree for one query.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueryTrace {
    /// All spans, in creation order; children carry the index of their
    /// parent.
    pub spans: Vec<Span>,
}

impl QueryTrace {
    /// Top-level stages in recording order: `(name, duration)` of every
    /// root span.
    pub fn stages(&self) -> Vec<(&str, Duration)> {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| (s.name.as_str(), s.duration()))
            .collect()
    }

    /// The first span (at any depth) with this name.
    pub fn find(&self, name: &str) -> Option<&Span> {
        self.spans.iter().find(|s| s.name == name)
    }

    /// End-to-end span of the trace (earliest start to latest end).
    pub fn total(&self) -> Duration {
        let start = self.spans.iter().map(|s| s.start_ns).min().unwrap_or(0);
        let end = self.spans.iter().map(|s| s.end_ns).max().unwrap_or(0);
        Duration::from_nanos(end.saturating_sub(start))
    }

    /// Graft `child`'s spans into this trace underneath span `under`
    /// (or as additional roots when `under` is `None`). Used by the
    /// session to merge the engine's per-query trace into the full
    /// lifecycle trace. Timestamps are kept as-is: both traces are
    /// expected to come from the same clock.
    pub fn graft(&mut self, child: QueryTrace, under: Option<usize>) {
        let base = self.spans.len();
        for mut s in child.spans {
            s.parent = match s.parent {
                Some(p) => Some(base + p),
                None => under,
            };
            self.spans.push(s);
        }
    }

    /// Export as JSONL: one span object per line, in creation order.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            out.push_str(&format!("{{\"span\":{i},\"name\":"));
            push_str_lit(&mut out, &s.name);
            match s.parent {
                Some(p) => out.push_str(&format!(",\"parent\":{p}")),
                None => out.push_str(",\"parent\":null"),
            }
            out.push_str(&format!(",\"start_ns\":{},\"dur_ms\":", s.start_ns));
            push_f64(&mut out, s.duration().as_secs_f64() * 1e3);
            if !s.attrs.is_empty() {
                out.push_str(",\"attrs\":{");
                for (j, (k, v)) in s.attrs.iter().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    push_str_lit(&mut out, k);
                    out.push(':');
                    push_str_lit(&mut out, v);
                }
                out.push('}');
            }
            out.push_str("}\n");
        }
        out
    }

    /// Render as an indented human-readable table.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        // Depth of each span, derived from the parent chain.
        let mut depth = vec![0usize; self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                if p < i {
                    depth[i] = depth[p] + 1;
                }
            }
        }
        for (i, s) in self.spans.iter().enumerate() {
            let indent = "  ".repeat(depth[i]);
            let attrs = if s.attrs.is_empty() {
                String::new()
            } else {
                let kv: Vec<String> =
                    s.attrs.iter().map(|(k, v)| format!("{k}={v}")).collect();
                format!("  [{}]", kv.join(" "))
            };
            out.push_str(&format!(
                "{indent}{:<24}  {:>10.3}ms{attrs}\n",
                s.name,
                s.duration().as_secs_f64() * 1e3,
            ));
        }
        out
    }
}

/// Opaque handle to an open span (index into the recorder's span list).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

#[derive(Debug, Default)]
struct RecState {
    spans: Vec<Span>,
    /// Stack of open span indices; new spans nest under the top.
    open: Vec<usize>,
}

/// Builds a [`QueryTrace`] as a query executes.
///
/// The recording thread opens and closes stage spans with
/// [`start`](TraceRecorder::start)/[`end`](TraceRecorder::end); worker
/// threads may attach completed leaf spans with
/// [`record_span`](TraceRecorder::record_span).
#[derive(Debug)]
pub struct TraceRecorder {
    clock: Clock,
    state: Mutex<RecState>,
}

impl TraceRecorder {
    /// A recorder reading time from `clock`.
    pub fn new(clock: Clock) -> Self {
        TraceRecorder {
            clock,
            state: Mutex::new(RecState::default()),
        }
    }

    /// The clock this recorder reads.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, RecState> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Open a new span named `name`, nested under the currently open
    /// span (if any). Returns a handle for [`end`](TraceRecorder::end).
    pub fn start(&self, name: &str) -> SpanId {
        let now = self.clock.now().nanos();
        let mut st = self.lock();
        let parent = st.open.last().copied();
        let idx = st.spans.len();
        st.spans.push(Span {
            name: name.to_string(),
            parent,
            start_ns: now,
            end_ns: now,
            attrs: Vec::new(),
        });
        st.open.push(idx);
        SpanId(idx)
    }

    /// Close the span `id` (and any still-open spans nested inside it).
    pub fn end(&self, id: SpanId) {
        let now = self.clock.now().nanos();
        let mut st = self.lock();
        while let Some(&top) = st.open.last() {
            if top < id.0 {
                break;
            }
            st.spans[top].end_ns = now;
            st.open.pop();
            if top == id.0 {
                break;
            }
        }
    }

    /// Run `f` inside a span named `name`; the span closes when `f`
    /// returns.
    pub fn in_span<T>(&self, name: &str, f: impl FnOnce() -> T) -> T {
        let id = self.start(name);
        let out = f();
        self.end(id);
        out
    }

    /// Attach a completed leaf span (e.g. a worker's task timing)
    /// under the currently open span.
    pub fn record_span(&self, name: &str, start: Timestamp, end: Timestamp) -> SpanId {
        self.record_span_under(None, name, start, end)
    }

    /// Attach a completed span under `parent`, itself open or completed
    /// (`None`: under the currently open span). This is how a stage that
    /// did not run in the order it is recorded in — the engine's
    /// diagnostic, which runs before error estimation and sits above it in
    /// the plan — goes on record whole: the stage with `record_span`, then
    /// its workers and its operator under it.
    pub fn record_span_under(
        &self,
        parent: Option<SpanId>,
        name: &str,
        start: Timestamp,
        end: Timestamp,
    ) -> SpanId {
        let mut st = self.lock();
        let parent = parent.map(|p| p.0).or_else(|| st.open.last().copied());
        let idx = st.spans.len();
        st.spans.push(Span {
            name: name.to_string(),
            parent,
            start_ns: start.nanos(),
            end_ns: end.nanos().max(start.nanos()),
            attrs: Vec::new(),
        });
        SpanId(idx)
    }

    /// Splice a finished child trace into the tree being recorded:
    /// the child's roots attach under the innermost open span (or
    /// become roots when none is open); nesting inside the child is
    /// preserved. Used by the session to merge the engine's per-query
    /// trace into the full lifecycle trace. Timestamps are kept as-is:
    /// both traces are expected to come from the same clock.
    pub fn graft(&self, child: QueryTrace) {
        let mut st = self.lock();
        let base = st.spans.len();
        let under = st.open.last().copied();
        for mut s in child.spans {
            s.parent = match s.parent {
                Some(p) => Some(base + p),
                None => under,
            };
            st.spans.push(s);
        }
    }

    /// Attach a `(key, value)` attribute to span `id`.
    pub fn attr(&self, id: SpanId, key: &str, value: impl Display) {
        let mut st = self.lock();
        if let Some(s) = st.spans.get_mut(id.0) {
            s.attrs.push((key.to_string(), value.to_string()));
        }
    }

    /// Close any spans still open (at the current clock reading) and
    /// return the finished trace.
    pub fn finish(self) -> QueryTrace {
        let now = self.clock.now().nanos();
        let mut st = self.state.into_inner().unwrap_or_else(|p| p.into_inner());
        while let Some(top) = st.open.pop() {
            st.spans[top].end_ns = now;
        }
        QueryTrace { spans: st.spans }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn adv(c: &Clock, ms: u64) {
        c.advance(Duration::from_millis(ms));
    }

    #[test]
    fn records_a_nested_stage_tree() {
        let clock = Clock::mock();
        let rec = TraceRecorder::new(clock.clone());
        let root = rec.start(stage::PARSE);
        adv(&clock, 2);
        rec.end(root);
        let exec = rec.start("execute");
        adv(&clock, 1);
        let inner = rec.start(stage::ERROR_ESTIMATION);
        adv(&clock, 5);
        rec.attr(inner, "resamples", 100);
        rec.end(inner);
        rec.end(exec);
        let t = rec.finish();
        assert_eq!(t.spans.len(), 3);
        assert_eq!(t.stages().len(), 2); // parse + execute are roots
        let duration_of = |name| t.find(name).map(Span::duration);
        assert_eq!(duration_of(stage::PARSE), Some(Duration::from_millis(2)));
        assert_eq!(duration_of(stage::ERROR_ESTIMATION), Some(Duration::from_millis(5)));
        assert_eq!(t.find(stage::ERROR_ESTIMATION).and_then(|s| s.attr("resamples")), Some("100"));
        assert_eq!(t.spans[2].parent, Some(1));
        assert_eq!(t.total(), Duration::from_millis(8));
    }

    #[test]
    fn finish_closes_open_spans() {
        let clock = Clock::mock();
        let rec = TraceRecorder::new(clock.clone());
        rec.start("a");
        rec.start("b");
        adv(&clock, 3);
        let t = rec.finish();
        assert_eq!(t.spans[0].duration(), Duration::from_millis(3));
        assert_eq!(t.spans[1].duration(), Duration::from_millis(3));
    }

    #[test]
    fn end_closes_nested_leftovers() {
        let clock = Clock::mock();
        let rec = TraceRecorder::new(clock.clone());
        let outer = rec.start("outer");
        rec.start("inner-left-open");
        adv(&clock, 1);
        rec.end(outer);
        adv(&clock, 1);
        let t = rec.finish();
        assert_eq!(t.spans[0].duration(), Duration::from_millis(1));
        assert_eq!(t.spans[1].duration(), Duration::from_millis(1));
    }

    #[test]
    fn graft_reparents_child_roots() {
        let clock = Clock::mock();
        let rec = TraceRecorder::new(clock.clone());
        let root = rec.start("execute_approx");
        adv(&clock, 1);
        rec.end(root);
        let mut parent = rec.finish();

        let rec2 = TraceRecorder::new(clock.clone());
        let a = rec2.start(stage::SCAN_COLLECT);
        adv(&clock, 1);
        rec2.end(a);
        let b = rec2.start(stage::DIAGNOSTICS);
        adv(&clock, 1);
        rec2.end(b);
        let child = rec2.finish();

        parent.graft(child, Some(0));
        assert_eq!(parent.spans.len(), 3);
        assert_eq!(parent.spans[1].parent, Some(0));
        assert_eq!(parent.spans[2].parent, Some(0));
        // Only the original root remains a root.
        assert_eq!(parent.stages().len(), 1);
    }

    #[test]
    fn recorder_graft_nests_under_open_span() {
        let clock = Clock::mock();
        let rec2 = TraceRecorder::new(clock.clone());
        let a = rec2.start(stage::SCAN_COLLECT);
        adv(&clock, 1);
        let b = rec2.start("inner");
        adv(&clock, 1);
        rec2.end(b);
        rec2.end(a);
        let child = rec2.finish();

        let rec = TraceRecorder::new(clock.clone());
        let gate = rec.start(stage::RELIABILITY_GATE);
        rec.graft(child.clone());
        rec.end(gate);
        // With no open span, grafted roots stay roots.
        rec.graft(child);
        let t = rec.finish();
        assert_eq!(t.spans.len(), 5);
        assert_eq!(t.spans[1].parent, Some(0)); // scan_collect under gate
        assert_eq!(t.spans[2].parent, Some(1)); // inner nesting preserved
        assert_eq!(t.spans[3].parent, None);
        assert_eq!(t.spans[4].parent, Some(3));
        assert_eq!(t.stages().len(), 2);
    }

    #[test]
    fn worker_spans_attach_under_open_stage() {
        let clock = Clock::mock();
        let rec = TraceRecorder::new(clock.clone());
        let stage_id = rec.start(stage::ERROR_ESTIMATION);
        let s = clock.now();
        adv(&clock, 2);
        let e = clock.now();
        let w = rec.record_span("worker", s, e);
        rec.attr(w, "worker", 0);
        rec.end(stage_id);
        let t = rec.finish();
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[1].duration(), Duration::from_millis(2));
    }

    #[test]
    fn record_span_under_attaches_to_a_completed_stage() {
        let clock = Clock::mock();
        let rec = TraceRecorder::new(clock.clone());
        // The diagnostic runs first ...
        let ran_from = clock.now();
        adv(&clock, 2);
        let ran_to = clock.now();
        // ... and goes on record after the stage below it in the plan.
        let live = rec.start(stage::ERROR_ESTIMATION);
        adv(&clock, 1);
        rec.record_span("op:ErrorEstimate", ran_to, clock.now());
        rec.end(live);
        let late = rec.record_span(stage::DIAGNOSTICS, ran_from, ran_to);
        rec.record_span_under(Some(late), "worker", ran_from, ran_to);
        rec.record_span_under(Some(late), "op:Diagnostic", ran_from, ran_to);
        let t = rec.finish();
        let names: Vec<&str> = t.spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names,
            ["error_estimation", "op:ErrorEstimate", "diagnostics", "worker", "op:Diagnostic"]
        );
        let parents: Vec<Option<usize>> = t.spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, [None, Some(0), None, Some(2), Some(2)]);
        assert!(t.spans[2].start_ns < t.spans[0].start_ns);
        assert_eq!(t.find(stage::DIAGNOSTICS).map(Span::duration), Some(Duration::from_millis(2)));
        assert_eq!(t.total(), Duration::from_millis(3));
    }

    #[test]
    fn jsonl_and_table_exporters() {
        let clock = Clock::mock();
        let rec = TraceRecorder::new(clock.clone());
        let root = rec.start("q");
        adv(&clock, 1);
        let inner = rec.start(stage::DIAGNOSTICS);
        rec.attr(inner, "verdict", "accepted");
        adv(&clock, 1);
        rec.end(inner);
        rec.end(root);
        let t = rec.finish();
        let j = t.to_jsonl();
        assert_eq!(j.lines().count(), 2);
        assert!(j.contains("\"name\":\"q\",\"parent\":null"));
        assert!(j.contains("\"parent\":0"));
        assert!(j.contains("\"attrs\":{\"verdict\":\"accepted\"}"));
        let tbl = t.render_table();
        assert!(tbl.contains("q"));
        assert!(tbl.contains("  diagnostics")); // indented child
        assert!(tbl.contains("verdict=accepted"));
    }
}
