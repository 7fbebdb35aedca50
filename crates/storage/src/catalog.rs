//! The concurrent catalog of tables and their sample sets.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::RwLock;

use crate::error::StorageError;
use crate::sample::SampleSet;
use crate::table::Table;
use crate::Result;

/// A thread-safe registry mapping table names to tables and sample sets.
///
/// Cloning a `Catalog` clones a handle to the same underlying registry
/// (like the metastore the paper's subqueries contend on in §5.3.1).
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    inner: Arc<RwLock<CatalogInner>>,
}

#[derive(Debug, Default)]
struct CatalogInner {
    tables: HashMap<String, Arc<Table>>,
    samples: HashMap<String, SampleSet>,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Register a table. Fails if the name is taken.
    pub fn register_table(&self, table: Table) -> Result<()> {
        let mut inner = self.inner.write();
        let name = table.name().to_owned();
        if inner.tables.contains_key(&name) {
            return Err(StorageError::TableExists(name));
        }
        inner.tables.insert(name.clone(), Arc::new(table));
        inner.samples.entry(name).or_default();
        Ok(())
    }

    /// Fetch a table by name.
    pub fn table(&self, name: &str) -> Result<Arc<Table>> {
        self.inner
            .read()
            .tables
            .get(name)
            .cloned()
            .ok_or_else(|| StorageError::TableNotFound(name.to_owned()))
    }

    /// True if a table with this name is registered.
    pub fn has_table(&self, name: &str) -> bool {
        self.inner.read().tables.contains_key(name)
    }

    /// Mutate the sample set of `table` through `f`.
    pub fn with_samples_mut<T>(
        &self,
        table: &str,
        f: impl FnOnce(&mut SampleSet) -> Result<T>,
    ) -> Result<T> {
        let mut inner = self.inner.write();
        if !inner.tables.contains_key(table) {
            return Err(StorageError::TableNotFound(table.to_owned()));
        }
        let set = inner.samples.entry(table.to_owned()).or_default();
        f(set)
    }

    /// Read the sample set of `table` through `f`.
    pub fn with_samples<T>(
        &self,
        table: &str,
        f: impl FnOnce(&SampleSet) -> Result<T>,
    ) -> Result<T> {
        let inner = self.inner.read();
        let set = inner
            .samples
            .get(table)
            .ok_or_else(|| StorageError::TableNotFound(table.to_owned()))?;
        f(set)
    }

    /// Drop a table and its samples.
    pub fn drop_table(&self, name: &str) -> Result<()> {
        let mut inner = self.inner.write();
        inner
            .tables
            .remove(name)
            .ok_or_else(|| StorageError::TableNotFound(name.to_owned()))?;
        inner.samples.remove(name);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::Batch;
    use crate::column::Column;
    use crate::sample::SamplingStrategy;
    use crate::schema::{DataType, Field, Schema};

    fn tiny(name: &str) -> Table {
        let schema = Schema::new(vec![Field::new("x", DataType::Int)]).unwrap();
        let batch = Batch::new(schema, vec![Column::from_i64s(vec![1, 2, 3])]).unwrap();
        Table::from_batch(name, batch, 1).unwrap()
    }

    #[test]
    fn register_and_lookup() {
        let cat = Catalog::new();
        cat.register_table(tiny("a")).unwrap();
        assert!(cat.has_table("a"));
        assert_eq!(cat.table("a").unwrap().num_rows(), 3);
        assert!(cat.table("b").is_err());
    }

    #[test]
    fn duplicate_registration_fails() {
        let cat = Catalog::new();
        cat.register_table(tiny("a")).unwrap();
        assert!(cat.register_table(tiny("a")).is_err());
        assert!(cat.has_table("a"));
    }

    #[test]
    fn sample_sets_follow_tables() {
        let cat = Catalog::new();
        cat.register_table(tiny("a")).unwrap();
        let t = cat.table("a").unwrap();
        cat.with_samples_mut("a", |set| {
            set.add_from_indices(&t, &[0, 2], SamplingStrategy::WithReplacement, 1, 1)?;
            Ok(())
        })
        .unwrap();
        let n = cat
            .with_samples("a", |set| Ok(set.largest().map(|s| s.meta.rows)))
            .unwrap();
        assert_eq!(n, Some(2));
        cat.drop_table("a").unwrap();
        assert!(cat.with_samples("a", |_| Ok(())).is_err());
    }

    #[test]
    fn catalog_clones_share_state() {
        let cat = Catalog::new();
        let cat2 = cat.clone();
        cat.register_table(tiny("shared")).unwrap();
        assert!(cat2.has_table("shared"));
    }

    #[test]
    fn concurrent_access() {
        let cat = Catalog::new();
        cat.register_table(tiny("t")).unwrap();
        std::thread::scope(|s| {
            for _ in 0..8 {
                let c = cat.clone();
                s.spawn(move || {
                    for _ in 0..100 {
                        assert_eq!(c.table("t").unwrap().num_rows(), 3);
                    }
                });
            }
        });
    }
}
