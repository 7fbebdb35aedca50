//! The `_telemetry.*` table set: schemas, the dynamically typed row
//! cell, and materialization into `aqp-storage` columns.
//!
//! Every table lives under the reserved [`NAMESPACE`] so user tables
//! can never collide with telemetry, and the session can recognize
//! introspection queries syntactically (the recursion guard). Nullable
//! columns use the storage layer's null bitmaps; because
//! `Column::to_f64_vec` drops nulls, `AVG(covered)` over
//! `_telemetry.audit` computes the coverage rate over *scored* results
//! only — exactly the estimator the audit dashboards want.

use aqp_storage::{Batch, Column, DataType, Field, Schema, Table};

use crate::reservoir::Reservoir;

/// The reserved table-name prefix (`_telemetry.`) of every
/// introspection table.
pub const NAMESPACE: &str = "_telemetry";

/// One row per trace span: `query, class, span, stage, depth, wall_ms`.
pub const TABLE_SPANS: &str = "_telemetry.spans";
/// One row per executed query: mode, wall time, sample/population rows,
/// group count, fallback/degradation flags.
pub const TABLE_QUERIES: &str = "_telemetry.queries";
/// Periodic point-in-time metric samples: `query, metric, kind, value`.
pub const TABLE_METRICS: &str = "_telemetry.metrics";
/// One row per audited group-aggregate with its score
/// (estimate/truth/rel_error/coverage/diagnostic verdict).
pub const TABLE_AUDIT: &str = "_telemetry.audit";
/// One row per injected fault / retry / speculative event.
pub const TABLE_FAULTS: &str = "_telemetry.faults";
/// One row per alert latched during a folded query: `query, class,
/// objective, severity, trigger`, where `trigger` is `latency` (an SLO
/// latency objective), `audit_score` (an SLO coverage objective) or
/// `audit` (the auditor's coverage window).
pub const TABLE_SLO_ALERTS: &str = "_telemetry.slo_alerts";
/// One row per executed operator (the per-query mirror of the
/// contprof cumulative profile): `query, class, op, path, wall_ms,
/// rows_out`.
pub const TABLE_OPS: &str = "_telemetry.ops";

/// All telemetry table names, in registration order.
pub const TABLE_NAMES: [&str; 7] = [
    TABLE_SPANS,
    TABLE_QUERIES,
    TABLE_METRICS,
    TABLE_AUDIT,
    TABLE_FAULTS,
    TABLE_SLO_ALERTS,
    TABLE_OPS,
];

/// One dynamically typed cell of a telemetry row. Rows are buffered in
/// this row-major form inside the reservoirs and pivoted into columnar
/// [`Column`]s at sync time.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// A non-null integer.
    Int(i64),
    /// A non-null float.
    Float(f64),
    /// A string.
    Str(String),
    /// A boolean.
    Bool(bool),
    /// SQL NULL (only meaningful in nullable columns).
    Null,
}

impl Cell {
    fn as_i64(&self) -> Option<i64> {
        match self {
            Cell::Int(v) => Some(*v),
            Cell::Bool(b) => Some(i64::from(*b)),
            _ => None,
        }
    }

    fn as_f64(&self) -> Option<f64> {
        match self {
            Cell::Float(v) => Some(*v),
            Cell::Int(v) => Some(*v as f64),
            Cell::Bool(b) => Some(f64::from(u8::from(*b))),
            _ => None,
        }
    }

    fn as_str(&self) -> &str {
        match self {
            Cell::Str(s) => s.as_str(),
            _ => "",
        }
    }

    fn as_bool(&self) -> bool {
        matches!(self, Cell::Bool(true))
    }
}

/// The schema of one telemetry table.
pub fn schema_for(name: &str) -> Schema {
    use DataType::{Bool, Float, Int, Str};
    let fields = match name {
        TABLE_SPANS => vec![
            Field::new("query", Int),
            Field::new("class", Str),
            Field::new("span", Str),
            Field::new("stage", Str),
            Field::new("depth", Int),
            Field::new("wall_ms", Float),
        ],
        TABLE_QUERIES => vec![
            Field::new("query", Int),
            Field::new("class", Str),
            Field::new("mode", Str),
            Field::new("wall_ms", Float),
            Field::new("sample_rows", Int),
            Field::new("population_rows", Int),
            Field::new("groups", Int),
            Field::new("fell_back", Bool),
            Field::new("degraded", Bool),
        ],
        TABLE_METRICS => vec![
            Field::new("query", Int),
            Field::new("metric", Str),
            Field::new("kind", Str),
            Field::new("value", Float),
        ],
        TABLE_AUDIT => vec![
            Field::new("ordinal", Int),
            Field::new("class", Str),
            Field::new("agg", Str),
            Field::new("column", Str),
            Field::new("family", Str),
            Field::new("estimate", Float),
            Field::new("truth", Float),
            Field::nullable("rel_error", Float),
            Field::nullable("error_ratio", Float),
            Field::nullable("covered", Float),
            Field::nullable("accepted", Float),
        ],
        TABLE_FAULTS => vec![
            Field::new("query", Int),
            Field::new("class", Str),
            Field::new("kind", Str),
            Field::new("task", Int),
            Field::new("attempt", Int),
            Field::new("wall_ms", Float),
        ],
        TABLE_SLO_ALERTS => vec![
            Field::new("query", Int),
            Field::new("class", Str),
            Field::new("objective", Str),
            Field::new("severity", Str),
            Field::new("trigger", Str),
        ],
        TABLE_OPS => vec![
            Field::new("query", Int),
            Field::new("class", Str),
            Field::new("op", Str),
            Field::new("path", Str),
            Field::new("wall_ms", Float),
            Field::new("rows_out", Int),
        ],
        // Unreachable by construction (callers iterate TABLE_NAMES);
        // an empty schema keeps this path panic-free.
        _ => Vec::new(),
    };
    Schema::new(fields).unwrap_or_else(|_| Schema::empty())
}

/// One telemetry table: its schema plus the seeded reservoir buffering
/// its rows.
#[derive(Debug)]
pub struct TelemetryTable {
    /// Full table name (`_telemetry.…`).
    pub name: &'static str,
    /// The columnar schema rows are pivoted into.
    pub schema: Schema,
    /// The bounded row buffer.
    pub reservoir: Reservoir,
}

impl TelemetryTable {
    /// An empty table buffering at most `budget` rows under `seed`.
    pub fn new(name: &'static str, budget: usize, seed: u64) -> Self {
        TelemetryTable {
            name,
            schema: schema_for(name),
            reservoir: Reservoir::new(budget, seed),
        }
    }

    /// Pivot the retained rows into a columnar [`Table`] with
    /// `partitions` partitions (clamped to at least 1). Cells that do
    /// not match their column's type degrade to the column default
    /// (0 / "" / false) rather than failing — telemetry must never
    /// break the query path.
    pub fn materialize(&self, partitions: usize) -> aqp_storage::Result<Table> {
        let rows = self.reservoir.rows();
        let mut columns = Vec::with_capacity(self.schema.len());
        for (i, field) in self.schema.fields().iter().enumerate() {
            let cells = rows.iter().map(|r| r.get(i).unwrap_or(&Cell::Null));
            let col = match (field.data_type, field.nullable) {
                (DataType::Float, true) => {
                    Column::from_opt_f64s(cells.map(|c| c.as_f64()).collect())
                }
                (DataType::Float, false) => {
                    Column::from_f64s(cells.map(|c| c.as_f64().unwrap_or(0.0)).collect())
                }
                (DataType::Int, true) => {
                    Column::from_opt_i64s(cells.map(|c| c.as_i64()).collect())
                }
                (DataType::Int, false) => {
                    Column::from_i64s(cells.map(|c| c.as_i64().unwrap_or(0)).collect())
                }
                (DataType::Bool, _) => Column::from_bools(cells.map(|c| c.as_bool()).collect()),
                (DataType::Str, _) => {
                    Column::from_strs(&cells.map(|c| c.as_str()).collect::<Vec<_>>())
                }
            };
            columns.push(col);
        }
        let batch = Batch::new(self.schema.clone(), columns)?;
        Table::from_batch(self.name, batch, partitions.max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_table_has_a_nonempty_schema_under_the_namespace() {
        for name in TABLE_NAMES {
            assert!(name.starts_with(NAMESPACE));
            let schema = schema_for(name);
            assert!(!schema.is_empty(), "{name} has an empty schema");
        }
    }

    #[test]
    fn materialize_pivots_rows_and_honors_nulls() {
        let mut t = TelemetryTable::new(TABLE_AUDIT, 16, 0);
        t.reservoir.offer(vec![
            Cell::Int(1),
            Cell::Str("default".into()),
            Cell::Str("AVG".into()),
            Cell::Str("time".into()),
            Cell::Str("uniform".into()),
            Cell::Float(10.0),
            Cell::Float(10.5),
            Cell::Float(0.05),
            Cell::Float(0.4),
            Cell::Float(1.0),
            Cell::Null,
        ]);
        t.reservoir.offer(vec![
            Cell::Int(2),
            Cell::Str("default".into()),
            Cell::Str("MAX".into()),
            Cell::Str("time".into()),
            Cell::Str("heavy_tail".into()),
            Cell::Float(90.0),
            Cell::Float(200.0),
            Cell::Null,
            Cell::Null,
            Cell::Float(0.0),
            Cell::Float(1.0),
        ]);
        let table = t.materialize(2).unwrap();
        assert_eq!(table.num_rows(), 2);
        assert_eq!(table.num_partitions(), 2);
        let batch = table.to_batch().unwrap();
        let covered = batch.column_by_name("covered").unwrap();
        // AVG over a nullable 0/1 column = coverage over scored rows.
        assert_eq!(covered.to_f64_vec(), vec![1.0, 0.0]);
        let rel = batch.column_by_name("rel_error").unwrap();
        assert!(rel.is_null(1) && !rel.is_null(0));
    }

    #[test]
    fn materialize_of_an_empty_table_yields_zero_rows() {
        let t = TelemetryTable::new(TABLE_SPANS, 8, 0);
        let table = t.materialize(2).unwrap();
        assert_eq!(table.num_rows(), 0);
        assert_eq!(table.schema().len(), 6);
    }
}
