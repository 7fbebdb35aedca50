//! Tables and horizontal partitions.
//!
//! A [`Table`] is a schema plus an ordered list of [`Partition`]s. The
//! partition is the unit of task parallelism: the executor schedules one
//! task per partition, mirroring how BlinkDB/Spark schedule one task per
//! RDD partition (§6.1 of the paper).

use std::sync::Arc;

use crate::batch::Batch;
use crate::error::StorageError;
use crate::schema::Schema;
use crate::Result;

/// One horizontal slice of a table.
#[derive(Debug, Clone)]
pub struct Partition {
    /// The rows of this partition.
    batch: Arc<Batch>,
    /// Index of the partition within its table.
    index: usize,
}

impl Partition {
    /// Wrap a batch as partition `index`.
    pub fn new(index: usize, batch: Batch) -> Self {
        Partition { batch: Arc::new(batch), index }
    }

    /// The partition's rows.
    pub fn batch(&self) -> &Batch {
        &self.batch
    }

    /// Position within the owning table.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Number of rows in this partition.
    pub fn num_rows(&self) -> usize {
        self.batch.num_rows()
    }
}

/// An in-memory table: a schema plus partitions.
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    schema: Schema,
    partitions: Vec<Partition>,
}

impl Table {
    /// Build a table from one batch, split into `num_partitions` roughly
    /// equal contiguous partitions.
    pub fn from_batch(name: impl Into<String>, batch: Batch, num_partitions: usize) -> Result<Self> {
        if num_partitions == 0 {
            return Err(StorageError::InvalidArgument("num_partitions must be > 0".into()));
        }
        let schema = batch.schema().clone();
        let rows = batch.num_rows();
        let mut partitions = Vec::with_capacity(num_partitions);
        let base = rows / num_partitions;
        let extra = rows % num_partitions;
        let mut start = 0;
        for i in 0..num_partitions {
            let len = base + usize::from(i < extra);
            partitions.push(Partition::new(i, batch.slice(start, len)?));
            start += len;
        }
        Ok(Table { name: name.into(), schema, partitions })
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Table schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// All partitions.
    pub fn partitions(&self) -> &[Partition] {
        &self.partitions
    }

    /// Number of partitions.
    pub fn num_partitions(&self) -> usize {
        self.partitions.len()
    }

    /// Total row count.
    pub fn num_rows(&self) -> usize {
        self.partitions.iter().map(Partition::num_rows).sum()
    }

    /// Materialize all partitions into one batch (tests, exact fallback on
    /// small tables).
    pub fn to_batch(&self) -> Result<Batch> {
        let batches: Vec<Batch> =
            self.partitions.iter().map(|p| p.batch().clone()).collect();
        Batch::concat(&batches)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Column;
    use crate::schema::{DataType, Field};

    fn table(rows: usize, parts: usize) -> Table {
        let schema = Schema::new(vec![Field::new("x", DataType::Int)]).unwrap();
        let batch = Batch::new(
            schema,
            vec![Column::from_i64s((0..rows as i64).collect())],
        )
        .unwrap();
        Table::from_batch("t", batch, parts).unwrap()
    }

    #[test]
    fn partitioning_is_balanced_and_complete() {
        let t = table(10, 3);
        assert_eq!(t.num_partitions(), 3);
        let sizes: Vec<usize> = t.partitions().iter().map(Partition::num_rows).collect();
        assert_eq!(sizes, vec![4, 3, 3]);
        assert_eq!(t.num_rows(), 10);
    }

    #[test]
    fn to_batch_preserves_order() {
        let t = table(7, 3);
        let b = t.to_batch().unwrap();
        let xs: Vec<f64> = b.column(0).to_f64_vec();
        assert_eq!(xs, (0..7).map(|i| i as f64).collect::<Vec<_>>());
    }

    #[test]
    fn zero_partitions_rejected() {
        let schema = Schema::new(vec![Field::new("x", DataType::Int)]).unwrap();
        let batch = Batch::new(schema, vec![Column::from_i64s(vec![1])]).unwrap();
        assert!(Table::from_batch("t", batch, 0).is_err());
    }
}
