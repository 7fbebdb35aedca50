//! The fold-in pipeline: per-query telemetry → reservoir rows →
//! catalog-registered columnar tables.
//!
//! [`Introspector`] is owned by the session. After every non-telemetry
//! query the session calls [`Introspector::fold_query`] with the
//! finished trace and answer facts; before executing a query that
//! references the `_telemetry` namespace it calls
//! [`Introspector::sync_into`], which re-materializes every table whose
//! reservoir changed since the last sync and rebuilds its uniform
//! sample — so the approximate path (CIs + diagnostics) engages on ops
//! data exactly as it does on user data.

use std::sync::Arc;

use aqp_audit::{AuditScore, AuditedAggregate};
use aqp_obs::{name, Counter, MetricsRegistry, ObsHandle, QueryTrace};
use aqp_prof::OpProfile;
use aqp_stats::rng::SeedStream;
use aqp_storage::{Catalog, SamplingStrategy, StorageError};
use parking_lot::Mutex;

use crate::config::IntrospectConfig;
use crate::tables::{Cell, TelemetryTable, TABLE_AUDIT, TABLE_FAULTS, TABLE_METRICS, TABLE_NAMES,
    TABLE_OPS, TABLE_QUERIES, TABLE_SLO_ALERTS, TABLE_SPANS};

/// Row budget of each `_telemetry.*` reservoir; beyond it, seeded
/// reservoir downsampling keeps a uniform subset.
const BUDGET_ROWS: usize = 4096;
/// Fraction of a materialized table the uniform sample the approximate
/// path runs on covers.
const SAMPLE_FRACTION: f64 = 0.5;
/// Tables smaller than this are registered without samples, so queries
/// over them run exact (sampling 20 rows buys nothing).
const MIN_ROWS_FOR_SAMPLING: usize = 64;
/// Partition count of materialized tables and their samples.
const PARTITIONS: usize = 2;

/// Everything the session knows about one finished query, borrowed for
/// the duration of the fold.
#[derive(Debug)]
pub struct QueryRecord<'a> {
    /// The query text (classified by the config's shared class router).
    pub sql: &'a str,
    /// The full lifecycle trace.
    pub trace: &'a QueryTrace,
    /// Answer mode label (`approximate`, `exact`, `exact_fallback`, …).
    pub mode: &'a str,
    /// End-to-end wall time on the session clock, milliseconds.
    pub wall_ms: f64,
    /// Rows of the sample the answer ran on (0 for exact scans).
    pub sample_rows: u64,
    /// Rows of the full table.
    pub population_rows: u64,
    /// Result groups produced.
    pub groups: u64,
    /// Whether the diagnostic forced an exact (or partial) fallback.
    pub fell_back: bool,
    /// Whether fault losses degraded the sample (widened CIs).
    pub degraded: bool,
    /// The answer's operator profile.
    pub profile: Option<&'a OpProfile>,
    /// SLO alerts this query latched.
    pub slo_alerts: &'a [AlertRow],
}

/// One `_telemetry.slo_alerts` row as the session reports it:
/// `(objective, severity, trigger)`.
pub type AlertRow = (String, String, String);

struct State {
    tables: Vec<TelemetryTable>,
    /// Queries folded so far; doubles as the `query` ordinal column.
    folded: u64,
    /// Per-table reservoir sequence at the last catalog sync, used to
    /// skip re-materializing unchanged tables.
    synced_seq: Vec<Option<u64>>,
    rows_ingested: Counter,
    rows_dropped: Counter,
}

impl State {
    /// Offer one row to `table`'s reservoir — the only way rows enter —
    /// counting it, and whatever the full reservoir evicted for it, on
    /// `aqp.introspect.rows_{ingested,dropped}`.
    fn offer(&mut self, table: &str, row: Vec<Cell>) {
        let reservoir = &mut self.tables[index_of(table)].reservoir;
        let before = reservoir.dropped();
        reservoir.offer(row);
        self.rows_ingested.inc();
        self.rows_dropped.add(reservoir.dropped() - before);
    }

    fn offer_alert(&mut self, qid: i64, class: &str, (objective, severity, trigger): &AlertRow) {
        self.offer(
            TABLE_SLO_ALERTS,
            vec![
                Cell::Int(qid),
                Cell::Str(class.to_string()),
                Cell::Str(objective.clone()),
                Cell::Str(severity.clone()),
                Cell::Str(trigger.clone()),
            ],
        );
    }
}

/// The in-process introspection pipeline (see the module docs).
pub struct Introspector {
    cfg: IntrospectConfig,
    registry: Arc<MetricsRegistry>,
    queries_folded: Counter,
    queries_served: Counter,
    syncs: Counter,
    state: Mutex<State>,
}

impl std::fmt::Debug for Introspector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Introspector").field("cfg", &self.cfg).finish_non_exhaustive()
    }
}

impl Introspector {
    /// Build the pipeline: one seeded reservoir per `_telemetry.*`
    /// table, metrics registered on `obs` (only now — a session without
    /// introspection never registers the `aqp.introspect.*` family).
    pub fn new(cfg: IntrospectConfig, obs: &ObsHandle) -> Self {
        let seeds = SeedStream::new(cfg.seed);
        let tables = TABLE_NAMES
            .iter()
            .enumerate()
            .map(|(i, name)| TelemetryTable::new(name, BUDGET_ROWS, seeds.seed(i as u64)))
            .collect::<Vec<_>>();
        let synced_seq = vec![None; tables.len()];
        let m = &obs.metrics;
        let state = State {
            tables,
            folded: 0,
            synced_seq,
            rows_ingested: m.counter(name::INTROSPECT_ROWS_INGESTED),
            rows_dropped: m.counter(name::INTROSPECT_ROWS_DROPPED),
        };
        Introspector {
            queries_folded: m.counter(name::INTROSPECT_QUERIES_FOLDED),
            queries_served: m.counter(name::INTROSPECT_QUERIES_SERVED),
            syncs: m.counter(name::INTROSPECT_SYNCS),
            registry: Arc::clone(&obs.metrics),
            cfg,
            state: Mutex::new(state),
        }
    }

    /// Does `sql` read the reserved telemetry namespace?
    pub fn is_introspection_query(&self, sql: &str) -> bool {
        sql.contains("_telemetry.")
    }

    /// The recursion guard: should this query's telemetry fold into the
    /// tables? Non-telemetry queries fold; telemetry queries never do —
    /// a dashboard refresh must not perturb the data it displays.
    pub fn should_fold(&self, sql: &str) -> bool {
        !self.is_introspection_query(sql)
    }

    /// Count one served introspection query
    /// (`aqp.introspect.queries_served`).
    pub fn count_served(&self) {
        self.queries_served.inc();
    }

    /// Fold one finished query's telemetry into the tables: a
    /// `_telemetry.queries` row, one `_telemetry.spans` row per trace
    /// span, fault events, operator rows, SLO alerts, and (every
    /// `metrics_every`th fold) a point-in-time metrics snapshot.
    pub fn fold_query(&self, rec: &QueryRecord<'_>) {
        let class = self.cfg.classes.classify(rec.sql).to_string();
        let mut state = self.state.lock();
        state.folded += 1;
        let qid = state.folded as i64;
        // Snapshot before this query's rows go in: the sample lags the
        // query's own fold by design (point-in-time).
        let snap = (self.cfg.metrics_every > 0 && state.folded.is_multiple_of(self.cfg.metrics_every))
            .then(|| self.registry.snapshot());
        state.offer(
            TABLE_QUERIES,
            vec![
                Cell::Int(qid),
                Cell::Str(class.clone()),
                Cell::Str(rec.mode.to_string()),
                Cell::Float(rec.wall_ms),
                Cell::Int(rec.sample_rows as i64),
                Cell::Int(rec.population_rows as i64),
                Cell::Int(rec.groups as i64),
                Cell::Bool(rec.fell_back),
                Cell::Bool(rec.degraded),
            ],
        );

        for (i, span) in rec.trace.spans.iter().enumerate() {
            let (stage, depth) = stage_of(rec.trace, i);
            let wall_ms = span.duration().as_secs_f64() * 1e3;
            state.offer(
                TABLE_SPANS,
                vec![
                    Cell::Int(qid),
                    Cell::Str(class.clone()),
                    Cell::Str(span.name.clone()),
                    stage,
                    Cell::Int(depth),
                    Cell::Float(wall_ms),
                ],
            );
            if let Some(kind) = fault_kind(&span.name) {
                let task = span.attr("task").and_then(|v| v.parse::<i64>().ok());
                let attempt = span.attr("attempt").and_then(|v| v.parse::<i64>().ok());
                state.offer(
                    TABLE_FAULTS,
                    vec![
                        Cell::Int(qid),
                        Cell::Str(class.clone()),
                        Cell::Str(kind.to_string()),
                        Cell::Int(task.unwrap_or(-1)),
                        Cell::Int(attempt.unwrap_or(-1)),
                        Cell::Float(wall_ms),
                    ],
                );
            }
        }

        if let Some(profile) = rec.profile {
            let mut stack = vec![(profile, String::new())];
            while let Some((node, prefix)) = stack.pop() {
                let path = if prefix.is_empty() {
                    node.name.clone()
                } else {
                    format!("{prefix};{}", node.name)
                };
                state.offer(
                    TABLE_OPS,
                    vec![
                        Cell::Int(qid),
                        Cell::Str(class.clone()),
                        Cell::Str(node.name.clone()),
                        Cell::Str(path.clone()),
                        Cell::Float(node.wall.as_secs_f64() * 1e3),
                        Cell::Int(node.rows_out as i64),
                    ],
                );
                for child in &node.children {
                    stack.push((child, path.clone()));
                }
            }
        }

        for alert in rec.slo_alerts {
            state.offer_alert(qid, &class, alert);
        }

        if let Some(snap) = &snap {
            let counters = snap.counters.iter().map(|(m, v)| (m, "counter", *v as f64));
            let gauges = snap.gauges.iter().map(|(m, v)| (m, "gauge", *v));
            let histograms =
                snap.histograms.iter().map(|(m, h)| (m, "histogram_count", h.count as f64));
            for (metric, kind, value) in counters.chain(gauges).chain(histograms) {
                state.offer(
                    TABLE_METRICS,
                    vec![
                        Cell::Int(qid),
                        Cell::Str(metric.clone()),
                        Cell::Str(kind.to_string()),
                        Cell::Float(value),
                    ],
                );
            }
        }
        drop(state);
        self.queries_folded.inc();
    }

    /// Fold the scored results of one audit replay into
    /// `_telemetry.audit` — one row per audited group-aggregate, with
    /// nullable score columns so `AVG(covered)` is the coverage rate
    /// over scored results.
    pub fn fold_audit(&self, ordinal: u64, sql: &str, scored: &[(AuditedAggregate, AuditScore)]) {
        let class = self.cfg.classes.classify(sql).to_string();
        let mut state = self.state.lock();
        for (a, s) in scored {
            let row = vec![
                Cell::Int(ordinal as i64),
                Cell::Str(class.clone()),
                Cell::Str(a.agg.to_string()),
                Cell::Str(a.column.to_string()),
                Cell::Str(a.family.to_string()),
                Cell::Float(a.estimate),
                Cell::Float(a.truth),
                opt_f64(s.rel_error),
                opt_f64(s.error_ratio),
                opt_f64(s.covered.map(|c| f64::from(u8::from(c)))),
                opt_f64(a.diagnostic_accepted.map(|c| f64::from(u8::from(c)))),
            ];
            state.offer(TABLE_AUDIT, row);
        }
    }

    /// Fold SLO alerts latched outside the per-query fold (audit
    /// coverage alerts fire inside the audit path, before `fold_query`
    /// runs for that query — the rows are stamped with the upcoming
    /// query ordinal).
    pub fn fold_slo_alerts(&self, sql: &str, alerts: &[AlertRow]) {
        if alerts.is_empty() {
            return;
        }
        let class = self.cfg.classes.classify(sql);
        let mut state = self.state.lock();
        let qid = (state.folded + 1) as i64;
        for alert in alerts {
            state.offer_alert(qid, class, alert);
        }
    }

    /// Re-materialize every table whose reservoir changed since the
    /// last sync into `catalog` (drop + register, which also resets the
    /// table's samples) and rebuild a seeded uniform sample over it so
    /// the approximate path engages. Unchanged tables are left alone.
    pub fn sync_into(&self, catalog: &Catalog) -> Result<(), StorageError> {
        let mut guard = self.state.lock();
        let state = &mut *guard;
        let mut synced_any = false;
        for (i, t) in state.tables.iter().enumerate() {
            let seq = t.reservoir.seq();
            if state.synced_seq[i] == Some(seq) && catalog.has_table(t.name) {
                continue;
            }
            let table = t.materialize(PARTITIONS)?;
            let rows = table.num_rows();
            // drop_table also clears the previous version's samples; a
            // missing table (first sync) is fine.
            let _ = catalog.drop_table(t.name);
            catalog.register_table(table)?;
            if rows >= MIN_ROWS_FOR_SAMPLING {
                let n = ((rows as f64 * SAMPLE_FRACTION).round() as usize).clamp(1, rows);
                // The sample must be a pure function of (seed, event
                // sequence) too: derive its rng from the table index
                // and the reservoir sequence of this materialization.
                let seeds = SeedStream::new(self.cfg.seed ^ 0x5EED_1A7B).derive(i as u64);
                let mut rng = seeds.rng(seq);
                let idx =
                    aqp_stats::sampling::without_replacement_indices(&mut rng, n, rows);
                let source = catalog.table(t.name)?;
                catalog.with_samples_mut(t.name, |set| {
                    set.add_from_indices(
                        &source,
                        &idx,
                        SamplingStrategy::WithoutReplacement,
                        seeds.seed(seq),
                        PARTITIONS,
                    )?;
                    Ok(())
                })?;
            }
            state.synced_seq[i] = Some(seq);
            synced_any = true;
        }
        if synced_any {
            self.syncs.inc();
        }
        Ok(())
    }
}

fn opt_f64(v: Option<f64>) -> Cell {
    match v {
        Some(v) => Cell::Float(v),
        None => Cell::Null,
    }
}

/// Position of a table name inside [`TABLE_NAMES`]; the names are
/// compile-time constants, so a miss is unreachable — 0 keeps the path
/// panic-free anyway.
fn index_of(name: &str) -> usize {
    TABLE_NAMES.iter().position(|n| *n == name).unwrap_or(0)
}

/// The root ancestor's name (the lifecycle stage) and depth of span `i`.
fn stage_of(trace: &QueryTrace, i: usize) -> (Cell, i64) {
    let mut depth = 0i64;
    let mut at = i;
    let mut hops = 0;
    while let Some(parent) = trace.spans.get(at).and_then(|s| s.parent) {
        at = parent;
        depth += 1;
        hops += 1;
        if hops > trace.spans.len() {
            break; // defensive: a parent cycle must not hang the fold
        }
    }
    let stage = trace.spans.get(at).map(|s| s.name.clone()).unwrap_or_default();
    (Cell::Str(stage), depth)
}

/// The fault-event kind of a span name (`fault:crash`, `retry:backoff`,
/// `speculative:clone`, …) — `None` for ordinary lifecycle spans.
fn fault_kind(span_name: &str) -> Option<&str> {
    if span_name.starts_with("fault:")
        || span_name.starts_with("retry:")
        || span_name.starts_with("speculative:")
    {
        Some(span_name)
    } else {
        None
    }
}
