//! Samples and sample sets.
//!
//! BlinkDB "precomputes and maintains a carefully chosen collection of
//! samples of input data \[and\] selects the best sample(s) at runtime for
//! answering each query" (§6). A [`SampleSet`] is that collection for one
//! table: uniform random samples at several sizes, stored *shuffled* so
//! that any contiguous row range of a sample is itself a uniform random
//! sample — the property the diagnostic's disjoint partitioning (§4) and
//! the executor's task splitting (§6.1) both rely on.
//!
//! This module stores and selects samples; *drawing* them (the random
//! index generation) is the job of `aqp-stats`, keeping this crate free of
//! RNG dependencies. Callers pass precomputed row indices to
//! [`SampleSet::add_from_indices`].

use serde::{Deserialize, Serialize};

use crate::table::Table;
use crate::Result;

/// How a sample was drawn from its source table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SamplingStrategy {
    /// Simple random sampling with replacement (the paper's default model).
    WithReplacement,
    /// Simple random sampling without replacement (footnote 2: "slightly
    /// more accurate sample estimates").
    WithoutReplacement,
    /// Stratified sampling on a column: a per-stratum uniform sample with
    /// its own sampling rate (BlinkDB's mechanism for keeping rare groups
    /// answerable — "a carefully chosen collection of samples", §6).
    Stratified,
}

/// Per-stratum accounting of a stratified sample.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StratumMeta {
    /// The stratum key (rendered value of the strata column).
    pub key: String,
    /// Rows of this stratum in the sample.
    pub sample_rows: usize,
    /// Rows of this stratum in the source table.
    pub population_rows: usize,
}

/// The strata layout of a stratified sample.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Strata {
    /// The column the sample is stratified on.
    pub column: String,
    /// Per-stratum sizes, every stratum of the source table present.
    pub groups: Vec<StratumMeta>,
}

/// Metadata describing one stored sample.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SampleMeta {
    /// Name of the source table.
    pub source_table: String,
    /// Number of rows in the sample.
    pub rows: usize,
    /// Number of rows in the source table when sampled.
    pub source_rows: usize,
    /// The strategy used.
    pub strategy: SamplingStrategy,
    /// Seed the sampler used (for reproducibility/auditing).
    pub seed: u64,
    /// Strata layout, present only for stratified samples.
    pub strata: Option<Strata>,
}

/// One stored sample: its metadata plus the sampled rows as a table.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Descriptive metadata.
    pub meta: SampleMeta,
    /// The sampled rows (already shuffled).
    pub data: Table,
}

/// The collection of samples maintained for one source table, ordered by
/// increasing size.
#[derive(Debug, Clone, Default)]
pub struct SampleSet {
    samples: Vec<Sample>,
}

impl SampleSet {
    /// An empty sample set.
    pub fn new() -> Self {
        SampleSet { samples: Vec::new() }
    }

    /// Materialize a sample of `source` at the given row `indices`
    /// (typically a random multiset produced by `aqp-stats`), registering
    /// it in the set. `indices` order defines the stored row order, so
    /// callers must pass them pre-shuffled.
    pub fn add_from_indices(
        &mut self,
        source: &Table,
        indices: &[usize],
        strategy: SamplingStrategy,
        seed: u64,
        num_partitions: usize,
    ) -> Result<&Sample> {
        self.insert(source, indices, strategy, seed, None, num_partitions)
    }

    /// Gather `indices` of `source` into a table of `num_partitions` and
    /// insert it after every sample of no more rows; return it.
    fn insert(
        &mut self,
        source: &Table,
        indices: &[usize],
        strategy: SamplingStrategy,
        seed: u64,
        strata: Option<Strata>,
        num_partitions: usize,
    ) -> Result<&Sample> {
        let name = match &strata {
            Some(strata) => format!("{}__stratified_{}", source.name(), strata.column),
            None => format!("{}__sample_{}", source.name(), indices.len()),
        };
        let data = Table::from_batch(name, source.gather(indices)?, num_partitions)?;
        let meta = SampleMeta {
            source_table: source.name().to_owned(),
            rows: indices.len(),
            source_rows: source.num_rows(),
            strategy,
            seed,
            strata,
        };
        let at = self.samples.partition_point(|s| s.meta.rows <= meta.rows);
        self.samples.insert(at, Sample { meta, data });
        Ok(&self.samples[at])
    }

    /// All samples, smallest first.
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    /// Number of stored samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when no samples are stored.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The largest stored *uniform* sample, if any.
    pub fn largest(&self) -> Option<&Sample> {
        self.samples.iter().rev().find(|s| s.meta.strata.is_none())
    }

    /// Materialize a *stratified* sample from precomputed row indices and
    /// strata accounting. Kept separate from [`Self::add_from_indices`]
    /// because stratified samples are selected by strata column, not by
    /// row count.
    pub fn add_stratified(
        &mut self,
        source: &Table,
        indices: &[usize],
        strata: Strata,
        seed: u64,
        num_partitions: usize,
    ) -> Result<&Sample> {
        self.insert(source, indices, SamplingStrategy::Stratified, seed, Some(strata), num_partitions)
    }

    /// The stratified sample on `column`, if one exists.
    pub fn stratified_on(&self, column: &str) -> Option<&Sample> {
        self.samples.iter().find(|s| {
            s.meta
                .strata
                .as_ref()
                .map(|st| st.column == column)
                .unwrap_or(false)
        })
    }

    /// Uniform (non-stratified) samples only, smallest first.
    pub fn uniform_samples(&self) -> impl Iterator<Item = &Sample> {
        self.samples.iter().filter(|s| s.meta.strata.is_none())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::Batch;
    use crate::column::Column;
    use crate::schema::{DataType, Field, Schema};

    fn source(rows: usize) -> Table {
        let schema = Schema::new(vec![Field::new("x", DataType::Int)]).unwrap();
        let batch =
            Batch::new(schema, vec![Column::from_i64s((0..rows as i64).collect())]).unwrap();
        Table::from_batch("events", batch, 4).unwrap()
    }

    #[test]
    fn add_and_select_best() {
        let src = source(100);
        let mut set = SampleSet::new();
        set.add_from_indices(&src, &[5, 1, 9, 3], SamplingStrategy::WithReplacement, 7, 1)
            .unwrap();
        set.add_from_indices(
            &src,
            &(0..50).collect::<Vec<_>>(),
            SamplingStrategy::WithoutReplacement,
            8,
            2,
        )
        .unwrap();

        // Smallest first, so the first that satisfies a bound is the cheapest.
        let first_of = |min_rows| set.uniform_samples().find(|s| s.meta.rows >= min_rows).map(|s| s.meta.rows);
        assert_eq!((first_of(3), first_of(10), first_of(51)), (Some(4), Some(50), None));
        assert_eq!(set.largest().unwrap().meta.rows, 50);
    }

    #[test]
    fn stratified_samples_are_separate_from_uniform_selection() {
        let src = source(100);
        let mut set = SampleSet::new();
        set.add_from_indices(&src, &(0..20).collect::<Vec<_>>(), SamplingStrategy::WithoutReplacement, 1, 1)
            .unwrap();
        let strata = Strata {
            column: "x".into(),
            groups: vec![StratumMeta { key: "0".into(), sample_rows: 3, population_rows: 50 }],
        };
        set.add_stratified(&src, &[0, 1, 2], strata, 9, 1).unwrap();
        // Uniform selection never returns the stratified sample.
        assert_eq!(set.uniform_samples().map(|s| s.meta.rows).collect::<Vec<_>>(), [20]);
        assert_eq!(set.largest().unwrap().meta.rows, 20);
        // Strata lookup works.
        let st = set.stratified_on("x").unwrap();
        assert_eq!(st.meta.rows, 3);
        assert!(set.stratified_on("y").is_none());
    }

    #[test]
    fn the_set_returns_the_sample_it_inserted() {
        let src = source(100);
        let mut set = SampleSet::new();
        let strata = |column: &str| Strata { column: column.into(), groups: Vec::new() };
        set.add_stratified(&src, &[0, 1, 2], strata("x"), 9, 1).unwrap();
        // Same seed: a search on seed and strategy would find the first.
        let s = set.add_stratified(&src, &[3, 4, 5, 6, 7], strata("y"), 9, 1).unwrap();
        assert_eq!((s.meta.rows, s.data.name()), (5, "events__stratified_y"));
        let s = set.add_stratified(&src, &[8, 9, 10], strata("z"), 9, 1).unwrap();
        assert_eq!(s.meta.strata.as_ref().unwrap().column, "z");
        let s = set.add_from_indices(&src, &[1, 2, 3], SamplingStrategy::WithoutReplacement, 9, 1).unwrap();
        assert_eq!((s.meta.rows, s.meta.strata.is_none()), (3, true));
        // Equal sizes keep the order they were added in.
        let order: Vec<&str> = set.samples().iter().map(|s| s.data.name()).collect();
        assert_eq!(order[..3], ["events__stratified_x", "events__stratified_z", "events__sample_3"]);
    }

    #[test]
    fn sample_preserves_index_order() {
        let src = source(10);
        let mut set = SampleSet::new();
        let s = set
            .add_from_indices(&src, &[9, 0, 9], SamplingStrategy::WithReplacement, 1, 1)
            .unwrap();
        let xs = s.data.to_batch().unwrap().column(0).to_f64_vec();
        assert_eq!(xs, vec![9.0, 0.0, 9.0]);
    }
}
