//! Batches: a schema plus equal-length columns.
//!
//! A [`Batch`] is the unit of data flowing between physical operators
//! (vectorized execution). A table partition holds exactly one batch.

use crate::column::Column;
use crate::error::StorageError;
use crate::schema::Schema;
use crate::value::Value;
use crate::Result;

/// A horizontal chunk of rows in columnar layout.
#[derive(Debug, Clone, PartialEq)]
pub struct Batch {
    schema: Schema,
    columns: Vec<Column>,
    rows: usize,
}

impl Batch {
    /// Build a batch; all columns must match the schema arity and share one
    /// length.
    pub fn new(schema: Schema, columns: Vec<Column>) -> Result<Self> {
        if schema.len() != columns.len() {
            return Err(StorageError::SchemaMismatch(format!(
                "schema has {} fields but {} columns were provided",
                schema.len(),
                columns.len()
            )));
        }
        for (f, c) in schema.fields().iter().zip(&columns) {
            if f.data_type != c.data_type() {
                return Err(StorageError::TypeMismatch {
                    expected: format!("{} ({})", f.name, f.data_type.name()),
                    actual: c.data_type().name().into(),
                });
            }
        }
        let rows = columns.first().map_or(0, Column::len);
        if let Some(c) = columns.iter().find(|c| c.len() != rows) {
            return Err(StorageError::LengthMismatch { expected: rows, actual: c.len() });
        }
        Ok(Batch { schema, columns, rows })
    }

    /// An empty batch with the given schema.
    pub fn empty(schema: Schema) -> Self {
        Batch { schema, columns: Vec::new(), rows: 0 }
    }

    /// The batch's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.rows
    }

    /// True when the batch holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// All columns.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Column by index.
    pub fn column(&self, i: usize) -> &Column {
        &self.columns[i]
    }

    /// Column by name.
    pub fn column_by_name(&self, name: &str) -> Result<&Column> {
        Ok(&self.columns[self.schema.index_of(name)?])
    }

    /// Dynamically-typed row extraction (tests / display only).
    pub fn row(&self, i: usize) -> Result<Vec<Value>> {
        if i >= self.rows {
            return Err(StorageError::RowOutOfBounds { index: i, len: self.rows });
        }
        self.columns.iter().map(|c| c.value(i)).collect()
    }

    /// Project to the named columns (in that order).
    pub fn project(&self, names: &[&str]) -> Result<Batch> {
        let schema = self.schema.project(names)?;
        let columns = names
            .iter()
            .map(|n| self.column_by_name(n).cloned())
            .collect::<Result<Vec<_>>>()?;
        Batch::new(schema, columns)
    }

    /// Contiguous sub-batch `[start, start+len)`.
    pub fn slice(&self, start: usize, len: usize) -> Result<Batch> {
        if start.checked_add(len).is_none_or(|end| end > self.rows) {
            return Err(StorageError::RowOutOfBounds {
                index: start.saturating_add(len),
                len: self.rows,
            });
        }
        let columns =
            self.columns.iter().map(|c| c.slice(start, len)).collect::<Result<Vec<_>>>()?;
        Ok(Batch { schema: self.schema.clone(), columns, rows: len })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{DataType, Field};

    fn sample_batch() -> Batch {
        let schema = Schema::new(vec![
            Field::new("city", DataType::Str),
            Field::new("time", DataType::Float),
        ])
        .unwrap();
        Batch::new(
            schema,
            vec![
                Column::from_strs(&["NYC", "SF", "NYC"]),
                Column::from_f64s(vec![1.0, 2.0, 3.0]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn construction_checks_arity_and_types() {
        let schema = Schema::new(vec![Field::new("x", DataType::Int)]).unwrap();
        assert!(Batch::new(schema.clone(), vec![]).is_err());
        assert!(Batch::new(schema, vec![Column::from_f64s(vec![1.0])]).is_err());
    }

    #[test]
    fn construction_checks_lengths() {
        let schema = Schema::new(vec![
            Field::new("a", DataType::Int),
            Field::new("b", DataType::Int),
        ])
        .unwrap();
        let r = Batch::new(
            schema,
            vec![Column::from_i64s(vec![1, 2]), Column::from_i64s(vec![1])],
        );
        assert!(matches!(r, Err(StorageError::LengthMismatch { .. })));
    }

    #[test]
    fn row_extraction() {
        let b = sample_batch();
        assert_eq!(
            b.row(1).unwrap(),
            vec![Value::Str("SF".into()), Value::Float(2.0)]
        );
        assert!(b.row(3).is_err());
    }

    #[test]
    fn slice_and_project() {
        let b = sample_batch();
        let s = b.slice(1, 2).unwrap();
        assert_eq!(s.num_rows(), 2);
        let p = s.project(&["time"]).unwrap();
        assert_eq!(p.schema().len(), 1);
        assert_eq!(p.column(0).to_f64_vec(), vec![2.0, 3.0]);
        // Bounds are checked before any column is copied, without wrapping.
        assert!(b.slice(2, 2).is_err());
        assert!(b.slice(1, usize::MAX).is_err());
        assert_eq!(b.slice(3, 0).unwrap().num_rows(), 0);
    }
}
