//! Continuous profiling: fold every answer's [`OpProfile`] into a
//! fleet-cumulative profile keyed by *workload class × operator path*.
//!
//! A single `EXPLAIN ANALYZE` tree dies with its query; a fleet answers
//! "where does the time go" only in aggregate. [`CumulativeProfile`]
//! accumulates every operator of every observed query into per-path
//! counters (wall and self time, rows, bytes, resamples, worker
//! busy/idle), bucketed by a workload class assigned from the query
//! text by [`ContProfConfig::classify`] — the same substring routing
//! the SLO engine uses, so profiles and objectives slice the fleet the
//! same way.
//!
//! The state is a `BTreeMap` from `(class, path)` to saturating-sum
//! counters, so the order concurrent callers fold their queries in does
//! not reach the bytes of [`CumulativeProfile::to_json`]
//! (`tests/contprof.rs` holds that with proptest).

use std::collections::BTreeMap;

use aqp_obs::json::push_str_lit;

use crate::OpProfile;

/// The class assigned to queries no [`ContProfConfig`] rule matches.
pub const DEFAULT_CLASS: &str = aqp_obs::router::DEFAULT_CLASS;

/// Separator between operator names in a cumulative profile path
/// (root-first: `ErrorEstimate;Filter;Scan`).
pub const PATH_SEPARATOR: char = ';';

/// Configuration for the session's continuous profiler: workload
/// classes routed by SQL substring through the shared
/// [`aqp_obs::router::ClassRouter`], first match wins — the same
/// routing the SLO engine and the introspection pipeline use.
#[derive(Debug, Clone, Default)]
pub struct ContProfConfig {
    /// Routing rules, in priority order.
    classes: aqp_obs::router::ClassRouter,
}

impl ContProfConfig {
    /// An empty config: every query lands in [`DEFAULT_CLASS`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Route queries whose SQL contains `sql_contains` to `class`.
    /// Rules are tried in registration order; the first match wins.
    pub fn with_class(mut self, class: &str, sql_contains: &str) -> Self {
        self.classes.push_rule(class, sql_contains);
        self
    }

    /// The workload class for `sql`: the first matching rule's class,
    /// else [`DEFAULT_CLASS`].
    pub fn classify<'a>(&'a self, sql: &str) -> &'a str {
        self.classes.classify(sql)
    }
}

/// Saturating-sum counters for one `(class, operator path)` cell of the
/// cumulative profile. Every field is additive, which is what makes the
/// fold order-insensitive.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OpCounters {
    /// How many times this operator path was observed.
    pub executions: u64,
    /// Total wall time attributed to the operator, nanoseconds.
    pub wall_ns: u64,
    /// Total self time (wall minus direct children's wall, saturating),
    /// nanoseconds — the quantity a flamegraph draws.
    pub self_ns: u64,
    /// Total rows entering the operator.
    pub rows_in: u64,
    /// Total rows leaving the operator.
    pub rows_out: u64,
    /// Total batches processed.
    pub batches: u64,
    /// Total estimated bytes moved.
    pub bytes: u64,
    /// Total bootstrap/diagnostic resamples attributed here.
    pub resamples: u64,
    /// Total worker busy time under this operator, nanoseconds.
    pub worker_busy_ns: u64,
    /// Total worker idle time under this operator, nanoseconds.
    pub worker_idle_ns: u64,
}

impl OpCounters {
    /// Componentwise saturating sum.
    fn absorb(&mut self, other: &OpCounters) {
        self.executions = self.executions.saturating_add(other.executions);
        self.wall_ns = self.wall_ns.saturating_add(other.wall_ns);
        self.self_ns = self.self_ns.saturating_add(other.self_ns);
        self.rows_in = self.rows_in.saturating_add(other.rows_in);
        self.rows_out = self.rows_out.saturating_add(other.rows_out);
        self.batches = self.batches.saturating_add(other.batches);
        self.bytes = self.bytes.saturating_add(other.bytes);
        self.resamples = self.resamples.saturating_add(other.resamples);
        self.worker_busy_ns = self.worker_busy_ns.saturating_add(other.worker_busy_ns);
        self.worker_idle_ns = self.worker_idle_ns.saturating_add(other.worker_idle_ns);
    }

    /// One operator node folded into counters: wall, self time (wall
    /// minus direct children, saturating), rows, bytes, resamples,
    /// worker splits.
    fn from_node(node: &OpProfile) -> OpCounters {
        let wall_ns = node.wall.as_nanos() as u64;
        let children_ns: u64 = node
            .children
            .iter()
            .map(|c| c.wall.as_nanos() as u64)
            .fold(0u64, u64::saturating_add);
        OpCounters {
            executions: 1,
            wall_ns,
            self_ns: wall_ns.saturating_sub(children_ns),
            rows_in: node.rows_in,
            rows_out: node.rows_out,
            batches: node.batches,
            bytes: node.bytes,
            resamples: node.resamples.unwrap_or(0),
            worker_busy_ns: node
                .workers
                .iter()
                .map(|w| w.busy.as_nanos() as u64)
                .fold(0u64, u64::saturating_add),
            worker_idle_ns: node
                .workers
                .iter()
                .map(|w| w.idle.as_nanos() as u64)
                .fold(0u64, u64::saturating_add),
        }
    }
}

/// The fleet-cumulative operator profile: per-`(class, path)` counters
/// plus per-class query counts, deterministically ordered (`BTreeMap`)
/// and exported as canonical JSONL.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CumulativeProfile {
    /// `(class, root-first ';'-joined operator path)` → counters.
    entries: BTreeMap<(String, String), OpCounters>,
    /// Queries observed per class.
    queries: BTreeMap<String, u64>,
}

impl CumulativeProfile {
    /// An empty cumulative profile.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold one query's operator tree into the profile under `class`.
    pub fn observe(&mut self, class: &str, tree: &OpProfile) {
        let n = self.queries.entry(class.to_string()).or_insert(0);
        *n = n.saturating_add(1);
        self.observe_node(class, "", tree);
    }

    fn observe_node(&mut self, class: &str, prefix: &str, node: &OpProfile) {
        let path = if prefix.is_empty() {
            node.name.clone()
        } else {
            let mut p = String::with_capacity(prefix.len() + 1 + node.name.len());
            p.push_str(prefix);
            p.push(PATH_SEPARATOR);
            p.push_str(&node.name);
            p
        };
        self.entries
            .entry((class.to_string(), path.clone()))
            .or_default()
            .absorb(&OpCounters::from_node(node));
        for child in &node.children {
            self.observe_node(class, &path, child);
        }
    }

    /// Number of distinct `(class, path)` cells.
    pub fn paths(&self) -> usize {
        self.entries.len()
    }

    /// Number of distinct workload classes observed.
    pub fn classes(&self) -> usize {
        self.queries.len()
    }

    /// Total queries observed across all classes.
    pub fn queries_observed(&self) -> u64 {
        self.queries.values().fold(0u64, |a, &n| a.saturating_add(n))
    }

    /// The counters for `(class, path)`, if observed.
    pub fn get(&self, class: &str, path: &str) -> Option<&OpCounters> {
        self.entries.get(&(class.to_string(), path.to_string()))
    }

    /// Canonical single-line-per-cell JSONL (deterministic key order),
    /// one header line with the schema and per-class query counts, then
    /// one line per `(class, path)` cell.
    pub fn to_json(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        out.push_str("{\"contprof\":\"aqp-contprof/v1\",\"classes\":{");
        for (i, (class, n)) in self.queries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_str_lit(&mut out, class);
            let _ = write!(out, ":{n}");
        }
        out.push_str("}}\n");
        for ((class, path), c) in &self.entries {
            out.push_str("{\"class\":");
            push_str_lit(&mut out, class);
            out.push_str(",\"path\":");
            push_str_lit(&mut out, path);
            let _ = write!(
                out,
                ",\"executions\":{},\"wall_ns\":{},\"self_ns\":{},\"rows_in\":{},\
                 \"rows_out\":{},\"batches\":{},\"bytes\":{},\"resamples\":{},\
                 \"worker_busy_ns\":{},\"worker_idle_ns\":{}}}",
                c.executions,
                c.wall_ns,
                c.self_ns,
                c.rows_in,
                c.rows_out,
                c.batches,
                c.bytes,
                c.resamples,
                c.worker_busy_ns,
                c.worker_idle_ns,
            );
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqp_obs::{Clock, Timestamp, TraceRecorder};
    use std::time::Duration;

    /// A 3-op tree with nested walls: Scan (1×`ms_each`) inside Filter
    /// (2×) inside Aggregate (3×), so every op's self time is exactly
    /// `ms_each`.
    fn tree(clock: &Clock, ms_each: u64) -> OpProfile {
        let rec = TraceRecorder::new(clock.clone());
        let stage = rec.start("scan_collect");
        let t0 = clock.now();
        clock.advance(Duration::from_millis(3 * ms_each));
        for (name, id, walls) in
            [("op:Scan", 2usize, 1u64), ("op:Filter", 1, 2), ("op:Aggregate", 0, 3)]
        {
            let end = Timestamp::from_nanos(t0.nanos() + walls * ms_each * 1_000_000);
            let sp = rec.record_span(name, t0, end);
            rec.attr(sp, "node_id", id);
            rec.attr(sp, "rows_in", 100);
            rec.attr(sp, "rows_out", 80);
            rec.attr(sp, "batches", 1);
            rec.attr(sp, "bytes", 640);
        }
        rec.end(stage);
        OpProfile::from_trace(&rec.finish()).expect("tree")
    }

    #[test]
    fn classify_routes_first_match_then_default() {
        let cfg = ContProfConfig::new()
            .with_class("dashboards", "FROM sessions")
            .with_class("reports", "FROM events");
        assert_eq!(cfg.classify("SELECT AVG(time) FROM sessions"), "dashboards");
        assert_eq!(cfg.classify("SELECT COUNT(*) FROM events"), "reports");
        assert_eq!(cfg.classify("SELECT 1 FROM other"), DEFAULT_CLASS);
        assert_eq!(ContProfConfig::new().classify("anything"), DEFAULT_CLASS);
    }

    #[test]
    fn observe_accumulates_paths_and_self_times() {
        let clock = Clock::mock();
        let mut cum = CumulativeProfile::new();
        cum.observe("c", &tree(&clock, 2));
        cum.observe("c", &tree(&clock, 2));
        assert_eq!(cum.classes(), 1);
        assert_eq!(cum.queries_observed(), 2);
        assert_eq!(cum.paths(), 3);
        let root = cum.get("c", "Aggregate").expect("root cell");
        assert_eq!(root.executions, 2);
        // Each tree: Aggregate wall 6ms, Filter child wall 4ms → self 2ms.
        assert_eq!(root.wall_ns, 12_000_000);
        assert_eq!(root.self_ns, 4_000_000);
        let leaf = cum.get("c", "Aggregate;Filter;Scan").expect("leaf cell");
        assert_eq!(leaf.self_ns, 4_000_000);
        assert_eq!(leaf.rows_out, 160);
    }

    #[test]
    fn to_json_is_deterministic_and_single_header() {
        let clock = Clock::mock();
        let mut cum = CumulativeProfile::new();
        cum.observe("b", &tree(&clock, 1));
        cum.observe("a", &tree(&clock, 1));
        let json = cum.to_json();
        assert_eq!(json, cum.clone().to_json());
        assert!(json.starts_with("{\"contprof\":\"aqp-contprof/v1\",\"classes\":{\"a\":1,\"b\":1}}\n"));
        assert_eq!(json.lines().count(), 1 + 6, "header + 3 paths per class");
    }
}
