//! `aqp-prof`: operator-level EXPLAIN ANALYZE profiles for the AQP
//! pipeline.
//!
//! The engine (`aqp-exec`) records one `op:<Name>` span per physical
//! operator inside the stage spans of its [`aqp_obs::QueryTrace`],
//! carrying the operator's preorder `node_id` within the executed plan
//! plus row/batch/byte counters, the sample fraction, and attributed
//! bootstrap resamples. This crate stitches those spans back into a
//! plan-shaped [`OpProfile`] tree — the `EXPLAIN ANALYZE` view every
//! answer carries — and renders it as an indented text tree. The machine
//! form is the trace's own JSONL, which carries the same `op:` spans.
//!
//! Per-worker busy spans (`worker`) recorded under the same stage are
//! attached to the operator that drove the pool, together with the
//! straggler slowdown factor (slowest worker over the median, see
//! [`aqp_obs::slowdown_factor`]).
//!
//! # Invariants
//!
//! Operator spans are laid out sequentially inside their enclosing
//! stage span, so the sum of operator self-times never exceeds the
//! stage's wall time. [`reconcile_stages`] checks exactly that and is
//! asserted bit-exactly under the mock clock in `tests/profiling.rs`.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod contprof;

use std::time::Duration;

use aqp_obs::{slowdown_factor, QueryTrace, Span};

/// One worker's share of the pool that executed an operator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerProfile {
    /// Worker (chunk) index within the pool.
    pub worker: usize,
    /// Items the worker processed.
    pub items: u64,
    /// Busy wall-clock time on the recording clock.
    pub busy: Duration,
    /// Idle time relative to the enclosing stage (stage wall − busy,
    /// saturating).
    pub idle: Duration,
}

/// One operator of the annotated plan tree.
#[derive(Debug, Clone, PartialEq)]
pub struct OpProfile {
    /// Preorder node id within the executed plan (root = 0).
    pub node_id: usize,
    /// Bare operator name (`Scan`, `Filter`, `Aggregate`, …).
    pub name: String,
    /// One-line operator description (`LogicalPlan::describe`).
    pub detail: String,
    /// Wall time attributed to this operator.
    pub wall: Duration,
    /// Rows entering the operator.
    pub rows_in: u64,
    /// Rows leaving the operator.
    pub rows_out: u64,
    /// Batches processed.
    pub batches: u64,
    /// Estimated bytes moved (8-byte cells, `rows_out × columns`).
    pub bytes: u64,
    /// Output throughput in rows per second, computed from `rows_out`
    /// over `wall` on the session clock; `None` when the operator's
    /// wall time is zero (an unadvanced mock clock), so renders stay
    /// bit-stable.
    pub rows_per_s: Option<f64>,
    /// Data throughput in bytes per second (`bytes / wall`); `None`
    /// when `wall` is zero.
    pub bytes_per_s: Option<f64>,
    /// Fraction of the full table this operator's input represents
    /// (recorded on the scan of a stored sample).
    pub sample_fraction: Option<f64>,
    /// Bootstrap/diagnostic resamples attributed to this operator.
    pub resamples: Option<u64>,
    /// Per-worker busy/idle splits of the pool that ran this operator.
    pub workers: Vec<WorkerProfile>,
    /// Slowest worker's busy time over the median busy time, when the
    /// pool had ≥ 2 workers and a nonzero median.
    pub straggler_slowdown: Option<f64>,
    /// Remaining operator-specific attributes (`accepted`, `method`, …).
    pub extra: Vec<(String, String)>,
    /// Child operators (linear plans have at most one).
    pub children: Vec<OpProfile>,
}

/// Reconciliation of one stage span against the operator spans inside
/// it: the per-operator self-times must sum to at most the stage wall.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageReconcile {
    /// Stage span name (`scan_collect`, `audit_replay`, …).
    pub stage: String,
    /// The stage span's wall time.
    pub wall: Duration,
    /// Sum of operator self-times recorded inside the stage.
    pub op_total: Duration,
}

impl StageReconcile {
    /// Does the invariant hold (`op_total ≤ wall`)?
    pub fn holds(&self) -> bool {
        self.op_total <= self.wall
    }
}

/// Internal: a parsed `op:` span.
struct ParsedOp {
    parent: Option<usize>,
    node_id: usize,
    profile: OpProfile,
}

fn parse_u64(span: &Span, key: &str) -> Option<u64> {
    span.attr(key).and_then(|v| v.parse().ok())
}

fn parse_f64(span: &Span, key: &str) -> Option<f64> {
    span.attr(key).and_then(|v| v.parse().ok())
}

/// `count` items over `wall` as a per-second rate; `None` when the wall
/// time is zero (nothing elapsed on the recording clock).
fn throughput(count: u64, wall: Duration) -> Option<f64> {
    let secs = wall.as_secs_f64();
    (secs > 0.0).then(|| count as f64 / secs)
}

/// Split the trace's `op:` spans into maximal strictly-descending
/// node-id runs — one run per execution.
fn split_runs(trace: &QueryTrace) -> Vec<Vec<ParsedOp>> {
    let mut runs: Vec<Vec<ParsedOp>> = Vec::new();
    for op in trace.spans.iter().filter_map(parse_op) {
        match runs.last_mut() {
            Some(run) if run.last().is_some_and(|prev| op.node_id < prev.node_id) => {
                run.push(op)
            }
            _ => runs.push(vec![op]),
        }
    }
    runs
}

const CONSUMED_ATTRS: &[&str] = &[
    "node_id",
    "detail",
    "rows_in",
    "rows_out",
    "batches",
    "bytes",
    "sample_fraction",
    "resamples",
];

fn parse_op(span: &Span) -> Option<ParsedOp> {
    let name = span.name.strip_prefix("op:")?;
    let node_id: usize = span.attr("node_id").and_then(|v| v.parse().ok())?;
    let detail = span.attr("detail").unwrap_or(name).to_string();
    let extra: Vec<(String, String)> = span
        .attrs
        .iter()
        .filter(|(k, _)| !CONSUMED_ATTRS.contains(&k.as_str()))
        .cloned()
        .collect();
    let wall = span.duration();
    let rows_out = parse_u64(span, "rows_out").unwrap_or(0);
    let bytes = parse_u64(span, "bytes").unwrap_or(0);
    Some(ParsedOp {
        parent: span.parent,
        node_id,
        profile: OpProfile {
            node_id,
            name: name.to_string(),
            detail,
            wall,
            rows_in: parse_u64(span, "rows_in").unwrap_or(0),
            rows_out,
            batches: parse_u64(span, "batches").unwrap_or(0),
            bytes,
            rows_per_s: throughput(rows_out, wall),
            bytes_per_s: throughput(bytes, wall),
            sample_fraction: parse_f64(span, "sample_fraction"),
            resamples: parse_u64(span, "resamples"),
            workers: Vec::new(),
            straggler_slowdown: None,
            extra,
            children: Vec::new(),
        },
    })
}

/// Workers recorded under stage span `parent`, as [`WorkerProfile`]s
/// with idle measured against the stage's wall time.
fn workers_under(trace: &QueryTrace, parent: usize) -> Vec<WorkerProfile> {
    let stage_wall = trace.spans.get(parent).map(Span::duration).unwrap_or_default();
    trace
        .spans
        .iter()
        .filter(|s| s.parent == Some(parent) && s.name == "worker")
        .map(|s| {
            let busy = s.duration();
            WorkerProfile {
                worker: parse_u64(s, "worker").unwrap_or(0) as usize,
                items: parse_u64(s, "items").unwrap_or(0),
                busy,
                idle: stage_wall.saturating_sub(busy),
            }
        })
        .collect()
}

impl OpProfile {
    /// The main execution's operator tree.
    ///
    /// The engine records one `op:` span per operator in descending
    /// `node_id` order (scan first, plan root last), so each maximal
    /// strictly-descending run of node ids is one execution's tree — a
    /// trace holding a pilot run, the main approximate run, an exact
    /// fallback and an audit replay holds one tree per execution. The
    /// main one is the first tree whose operators sit directly under a
    /// root stage span (the engine's own stages are roots; pilot runs and
    /// audit replays nest deeper); the first tree when none qualifies.
    pub fn from_trace(trace: &QueryTrace) -> Option<OpProfile> {
        let mut trees: Vec<(OpProfile, bool)> = split_runs(trace)
            .into_iter()
            .filter_map(|run| Self::assemble_run(trace, run))
            .collect();
        match trees.iter().position(|(_, top_level)| *top_level) {
            Some(i) => Some(trees.swap_remove(i).0),
            None if trees.is_empty() => None,
            None => Some(trees.swap_remove(0).0),
        }
    }

    /// Nest one run (descending node ids) into a tree, attaching the
    /// stage's worker spans to the deepest operator under each stage.
    /// The second value is true when the run's stage spans are trace
    /// roots (the main execution, as opposed to a nested pilot run or
    /// audit replay).
    fn assemble_run(trace: &QueryTrace, run: Vec<ParsedOp>) -> Option<(OpProfile, bool)> {
        let top_level = run.iter().any(|op| {
            op.parent
                .and_then(|p| trace.spans.get(p))
                .is_some_and(|stage| stage.parent.is_none())
        });
        // For every stage span that has op children in this run, the
        // run's op with the largest node_id under that stage gets the
        // stage's workers (the pool is driven by the deepest operator —
        // the scan for scan_collect, the estimator for
        // error_estimation).
        let mut by_stage: Vec<(usize, usize)> = Vec::new(); // (stage span, run index)
        for (ri, op) in run.iter().enumerate() {
            let Some(p) = op.parent else { continue };
            match by_stage.iter_mut().find(|(stage, _)| *stage == p) {
                Some(entry) => {
                    let current = &run[entry.1];
                    if op.node_id > current.node_id {
                        entry.1 = ri;
                    }
                }
                None => by_stage.push((p, ri)),
            }
        }
        // run is descending by node_id; build the tree root-first.
        let mut profiles: Vec<OpProfile> = Vec::with_capacity(run.len());
        for (ri, op) in run.into_iter().enumerate() {
            let mut prof = op.profile;
            if let Some(&(stage, _)) =
                by_stage.iter().find(|&&(stage, deepest)| {
                    deepest == ri && trace.spans.get(stage).is_some()
                })
            {
                prof.workers = workers_under(trace, stage);
                let busy: Vec<Duration> = prof.workers.iter().map(|w| w.busy).collect();
                prof.straggler_slowdown = slowdown_factor(&busy);
            }
            profiles.push(prof);
        }
        // Descending run ⇒ reverse gives root (smallest id) first; fold
        // children from the deepest up.
        let mut tree: Option<OpProfile> = None;
        for mut prof in profiles {
            // profiles is deepest-first already (descending run).
            if let Some(child) = tree.take() {
                prof.children.push(child);
            }
            tree = Some(prof);
        }
        tree.map(|t| (t, top_level))
    }

    /// This node and all descendants, root first.
    pub fn nodes(&self) -> Vec<&OpProfile> {
        let mut out = vec![self];
        let mut i = 0;
        while i < out.len() {
            for c in &out[i].children {
                out.push(c);
            }
            i += 1;
        }
        out
    }

    /// Number of operators in the tree.
    pub fn len(&self) -> usize {
        self.nodes().len()
    }

    /// Whether the tree is a single leaf with no children.
    pub fn is_empty(&self) -> bool {
        self.children.is_empty()
    }

    /// The first operator named `name` (e.g. `"Scan"`), at any depth.
    pub fn find(&self, name: &str) -> Option<&OpProfile> {
        self.nodes().into_iter().find(|n| n.name == name)
    }

    /// Render the profile as an indented `EXPLAIN ANALYZE` text tree.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out
    }

    fn render_into(&self, out: &mut String, depth: usize) {
        use std::fmt::Write;
        let indent = "  ".repeat(depth);
        let _ = writeln!(
            out,
            "{indent}{}  (op #{}, wall {:.3}ms)",
            self.detail,
            self.node_id,
            self.wall.as_secs_f64() * 1e3,
        );
        let mut line = format!(
            "{indent}    rows {} -> {}, batches {}, ~{} B",
            self.rows_in, self.rows_out, self.batches, self.bytes
        );
        if let Some(r) = self.rows_per_s {
            let _ = write!(line, ", {r:.0} rows/s");
        }
        if let Some(b) = self.bytes_per_s {
            let _ = write!(line, ", {b:.0} B/s");
        }
        if let Some(f) = self.sample_fraction {
            let _ = write!(line, ", fraction {f}");
        }
        if let Some(r) = self.resamples {
            let _ = write!(line, ", resamples {r}");
        }
        if !self.extra.is_empty() {
            let kv: Vec<String> =
                self.extra.iter().map(|(k, v)| format!("{k}={v}")).collect();
            let _ = write!(line, " [{}]", kv.join(" "));
        }
        let _ = writeln!(out, "{line}");
        if !self.workers.is_empty() {
            let busy: Vec<String> = self
                .workers
                .iter()
                .map(|w| format!("{:.3}", w.busy.as_secs_f64() * 1e3))
                .collect();
            let mut wline = format!(
                "{indent}    workers[{}] busy=[{}]ms",
                self.workers.len(),
                busy.join(", ")
            );
            if let Some(s) = self.straggler_slowdown {
                let _ = write!(wline, " slowdown=x{s:.2}");
            }
            let _ = writeln!(out, "{wline}");
        }
        for c in &self.children {
            c.render_into(out, depth + 1);
        }
    }
}

/// Check every stage span that contains operator spans: the sum of
/// operator *self*-times (an operator's wall minus its nested operator
/// spans', saturating) must not exceed the stage's wall time. Returns
/// one entry per such stage, in span order; `holds()` is true on all of
/// them for traces recorded by the engine.
pub fn reconcile_stages(trace: &QueryTrace) -> Vec<StageReconcile> {
    let is_op = |i: usize| trace.spans.get(i).is_some_and(|s| s.name.starts_with("op:"));
    // Self-time of op span i: duration minus direct op children.
    let self_time = |i: usize| -> Duration {
        let own = trace.spans.get(i).map(Span::duration).unwrap_or_default();
        let nested: Duration = trace
            .spans
            .iter()
            .enumerate()
            .filter(|(j, s)| s.parent == Some(i) && is_op(*j))
            .map(|(_, s)| s.duration())
            .sum();
        own.saturating_sub(nested)
    };
    let mut out = Vec::new();
    for (p, stage) in trace.spans.iter().enumerate() {
        if stage.name.starts_with("op:") {
            continue;
        }
        let op_total: Duration = trace
            .spans
            .iter()
            .enumerate()
            .filter(|(i, s)| s.parent == Some(p) && is_op(*i))
            .map(|(i, _)| self_time(i))
            .sum();
        let has_ops = trace
            .spans
            .iter()
            .enumerate()
            .any(|(i, s)| s.parent == Some(p) && is_op(i));
        if has_ops {
            out.push(StageReconcile {
                stage: stage.name.clone(),
                wall: stage.duration(),
                op_total,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqp_obs::{Clock, Timestamp, TraceRecorder};

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    /// Record a two-stage trace shaped like the engine's output:
    /// scan_collect with Scan/Filter ops + workers, error_estimation
    /// with an ErrorEstimate op + workers.
    fn engine_like_trace() -> QueryTrace {
        let clock = Clock::mock();
        let rec = TraceRecorder::new(clock.clone());

        let scan = rec.start("scan_collect");
        let t0 = clock.now();
        clock.advance(ms(4));
        let t1 = clock.now();
        let s = rec.record_span("op:Scan", t0, t1);
        rec.attr(s, "node_id", 3);
        rec.attr(s, "detail", "Scan[sessions]");
        rec.attr(s, "rows_in", 100);
        rec.attr(s, "rows_out", 100);
        rec.attr(s, "batches", 2);
        rec.attr(s, "bytes", 2400);
        rec.attr(s, "sample_fraction", 0.05);
        clock.advance(ms(2));
        let t2 = clock.now();
        let f = rec.record_span("op:Filter", t1, t2);
        rec.attr(f, "node_id", 2);
        rec.attr(f, "detail", "Filter[city = 'NYC']");
        rec.attr(f, "rows_in", 100);
        rec.attr(f, "rows_out", 25);
        rec.attr(f, "batches", 2);
        rec.attr(f, "bytes", 600);
        // Two workers: 2ms and 5ms busy.
        let w0 = rec.record_span(
            "worker",
            Timestamp::from_nanos(0),
            Timestamp::from_nanos(2_000_000),
        );
        rec.attr(w0, "worker", 0);
        rec.attr(w0, "items", 1);
        let w1 = rec.record_span(
            "worker",
            Timestamp::from_nanos(0),
            Timestamp::from_nanos(5_000_000),
        );
        rec.attr(w1, "worker", 1);
        rec.attr(w1, "items", 1);
        rec.end(scan);

        let err = rec.start("error_estimation");
        let e0 = clock.now();
        clock.advance(ms(3));
        let e1 = clock.now();
        let e = rec.record_span("op:ErrorEstimate", e0, e1);
        rec.attr(e, "node_id", 0);
        rec.attr(e, "detail", "ErrorEstimate[Bootstrap, alpha=0.95]");
        rec.attr(e, "rows_in", 1);
        rec.attr(e, "rows_out", 1);
        rec.attr(e, "batches", 1);
        rec.attr(e, "resamples", 100);
        rec.end(err);
        rec.finish()
    }

    #[test]
    fn from_trace_rebuilds_the_plan_chain() {
        let root = &OpProfile::from_trace(&engine_like_trace()).expect("tree");
        assert_eq!(root.name, "ErrorEstimate");
        assert_eq!(root.node_id, 0);
        assert_eq!(root.resamples, Some(100));
        assert_eq!(root.children.len(), 1);
        let filter = &root.children[0];
        assert_eq!(filter.name, "Filter");
        assert_eq!(filter.rows_out, 25);
        let scan = &filter.children[0];
        assert_eq!(scan.name, "Scan");
        assert_eq!(scan.wall, ms(4));
        assert_eq!(scan.sample_fraction, Some(0.05));
        assert_eq!(root.len(), 3);
    }

    #[test]
    fn workers_attach_to_the_deepest_op_of_the_stage() {
        let trace = engine_like_trace();
        let tree = OpProfile::from_trace(&trace).expect("tree");
        let scan = tree.find("Scan").expect("scan");
        assert_eq!(scan.workers.len(), 2);
        assert_eq!(scan.workers[0].busy, ms(2));
        assert_eq!(scan.workers[1].busy, ms(5));
        // Stage wall is 6ms; idle = wall − busy.
        assert_eq!(scan.workers[0].idle, ms(4));
        assert_eq!(scan.workers[1].idle, ms(1));
        // Slowdown = max/median = 5/5 over [2,5]: median (upper) is 5.
        assert_eq!(scan.straggler_slowdown, Some(1.0));
        // The Filter shares the stage but gets no workers.
        assert!(tree.find("Filter").expect("filter").workers.is_empty());
    }

    #[test]
    fn single_slow_worker_gets_the_right_slowdown_factor() {
        let clock = Clock::mock();
        let rec = TraceRecorder::new(clock.clone());
        let stage = rec.start("error_estimation");
        let e0 = clock.now();
        for (i, busy_ms) in [10u64, 10, 10, 40].iter().enumerate() {
            let w = rec.record_span(
                "worker",
                e0,
                Timestamp::from_nanos(e0.nanos() + busy_ms * 1_000_000),
            );
            rec.attr(w, "worker", i);
            rec.attr(w, "items", 5);
        }
        clock.advance(ms(40));
        let e1 = clock.now();
        let e = rec.record_span("op:ErrorEstimate", e0, e1);
        rec.attr(e, "node_id", 0);
        rec.attr(e, "rows_in", 4);
        rec.attr(e, "rows_out", 4);
        rec.end(stage);
        let tree = OpProfile::from_trace(&rec.finish()).expect("tree");
        // busy [10,10,10,40]: median 10, max 40 → slowdown ×4, bit-exact.
        assert_eq!(tree.straggler_slowdown, Some(4.0));
        assert_eq!(tree.workers.len(), 4);
        assert_eq!(tree.workers[3].busy, ms(40));
        assert_eq!(tree.workers[3].idle, Duration::ZERO);
        assert_eq!(tree.workers[0].idle, ms(30));
    }

    #[test]
    fn multiple_executions_split_into_separate_trees() {
        let clock = Clock::mock();
        let rec = TraceRecorder::new(clock.clone());
        // Execution 1: node ids 2, 1, 0.
        let s1 = rec.start("scan_collect");
        for (name, id) in [("op:Scan", 2usize), ("op:Filter", 1), ("op:Aggregate", 0)] {
            let t = clock.now();
            clock.advance(ms(1));
            let sp = rec.record_span(name, t, clock.now());
            rec.attr(sp, "node_id", id);
        }
        rec.end(s1);
        // Execution 2 (an exact replay): ids 1, 0.
        let s2 = rec.start("exact_execution");
        for (name, id) in [("op:Scan", 1usize), ("op:Aggregate", 0)] {
            let t = clock.now();
            clock.advance(ms(1));
            let sp = rec.record_span(name, t, clock.now());
            rec.attr(sp, "node_id", id);
        }
        rec.end(s2);
        // Both stages are roots: the first execution is the profile, and
        // the replay's ids do not graft onto it.
        let tree = OpProfile::from_trace(&rec.finish()).expect("tree");
        assert_eq!(tree.len(), 3);
        let ids: Vec<usize> = tree.nodes().iter().map(|n| n.node_id).collect();
        assert_eq!(ids, [0, 1, 2]);
    }

    #[test]
    fn from_trace_prefers_the_root_stage_tree() {
        let clock = Clock::mock();
        let rec = TraceRecorder::new(clock.clone());
        // A pilot run nested under sample_selection.
        let sel = rec.start("sample_selection");
        let pilot_scan = rec.start("scan_collect");
        let t = clock.now();
        clock.advance(ms(1));
        let sp = rec.record_span("op:Scan", t, clock.now());
        rec.attr(sp, "node_id", 1);
        rec.attr(sp, "rows_in", 99);
        rec.end(pilot_scan);
        rec.end(sel);
        // The main run: stage at the root.
        let main = rec.start("scan_collect");
        let t = clock.now();
        clock.advance(ms(1));
        let sp = rec.record_span("op:Scan", t, clock.now());
        rec.attr(sp, "node_id", 1);
        rec.attr(sp, "rows_in", 1000);
        rec.end(main);
        let tree = OpProfile::from_trace(&rec.finish()).expect("tree");
        assert_eq!(tree.rows_in, 1000, "must pick the root-stage execution");
    }

    #[test]
    fn render_text_is_deterministic() {
        let a = OpProfile::from_trace(&engine_like_trace()).expect("tree");
        let b = OpProfile::from_trace(&engine_like_trace()).expect("tree");
        assert_eq!(a.render_text(), b.render_text());
        let text = a.render_text();
        assert!(text.contains("Scan[sessions]  (op #3, wall 4.000ms)"));
        assert!(text.contains("rows 100 -> 25"));
        // Scan: 100 rows / 2400 B over 4ms.
        assert!(text.contains("25000 rows/s"), "{text}");
        assert!(text.contains("600000 B/s"), "{text}");
        assert!(text.contains("workers[2] busy=[2.000, 5.000]ms slowdown=x1.00"));
    }

    #[test]
    fn throughput_is_none_on_zero_wall_and_exact_otherwise() {
        assert_eq!(throughput(100, Duration::ZERO), None);
        assert_eq!(throughput(100, ms(4)), Some(25_000.0));
        assert_eq!(throughput(0, ms(4)), Some(0.0));
        let tree = OpProfile::from_trace(&engine_like_trace()).expect("tree");
        let scan = tree.find("Scan").expect("scan");
        assert_eq!(scan.rows_per_s, Some(25_000.0));
        assert_eq!(scan.bytes_per_s, Some(600_000.0));
    }

    #[test]
    fn reconcile_holds_on_engine_like_traces() {
        let trace = engine_like_trace();
        let recs = reconcile_stages(&trace);
        assert_eq!(recs.len(), 2);
        for r in &recs {
            assert!(r.holds(), "{} op_total {:?} > wall {:?}", r.stage, r.op_total, r.wall);
        }
        // scan_collect: ops 4ms + 2ms = 6ms = stage wall (bit-exact).
        let scan = recs.iter().find(|r| r.stage == "scan_collect").expect("scan");
        assert_eq!(scan.op_total, ms(6));
        assert_eq!(scan.wall, ms(6));
    }

    #[test]
    fn reconcile_flags_overcommitted_stages() {
        let clock = Clock::mock();
        let rec = TraceRecorder::new(clock.clone());
        let stage = rec.start("scan_collect");
        // Two ops that each claim the whole (1ms) stage: 2ms > 1ms.
        let t0 = clock.now();
        clock.advance(ms(1));
        let t1 = clock.now();
        for (name, id) in [("op:Scan", 1usize), ("op:Filter", 0)] {
            let sp = rec.record_span(name, t0, t1);
            rec.attr(sp, "node_id", id);
        }
        rec.end(stage);
        let recs = reconcile_stages(&rec.finish());
        assert_eq!(recs.len(), 1);
        assert!(!recs[0].holds());
        assert_eq!(recs[0].op_total, ms(2));
        assert_eq!(recs[0].wall, ms(1));
    }
}
