//! The scan/filter/project pipeline: plan → per-group aggregation inputs.
//!
//! One pass over the table's partitions (in parallel) produces, for every
//! top-level group and every aggregate in the SELECT list, the dense
//! `f64` vector the estimators consume. This *is* the scan-consolidation
//! point: the same vectors feed the point estimate, every bootstrap
//! replicate, and every diagnostic subsample (§5.3.1).
//!
//! The pass is a selection-vector pipeline (DESIGN §4 item 2): each
//! worker scans a partition, never copied, down to a selection of row ids
//! plus typed group ids, turns the ids into one slot per entry — the
//! grouped selection — and scatters every aggregate's argument through it
//! into one block of values per group (`scan_partition`); `merge` then
//! copies the blocks together in partition order. Row positions are
//! written once per partition, and only for a caller whose diagnostic
//! reads them. The output is bit-identical to a row-at-a-time scan with
//! string group keys (`tests/properties.rs` holds that scan as the oracle).

use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use aqp_faults::{FaultInjector, ScanFaultSummary};
use aqp_obs::Clock;
use aqp_sql::ast::{AggExpr, AggFunc};
use aqp_sql::expr::{eval, eval_selected, narrow, Selection};
use aqp_sql::logical::LogicalPlan;
use aqp_storage::{Batch, Column, Table, Value};

use crate::parallel::{parallel_map_observed, WorkerStat};
use crate::{ExecError, Result};

/// Inner-group encoding for nested (two-level) aggregates.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NestedData {
    /// Per-row inner-group code, aligned with the values vector.
    pub codes: Vec<u32>,
    /// Number of distinct inner groups.
    pub n_codes: usize,
}

/// The aggregation input for one aggregate within one top-level group.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AggData {
    /// Post-filter aggregate-argument values (NULLs dropped).
    pub values: Vec<f64>,
    /// Pre-filter row position (in sample scan order) of each value.
    /// Sorted ascending. The diagnostic partitions subsamples by *row*
    /// ranges over these positions so that per-subsample filtered counts
    /// keep their natural binomial variation (without this, SUM/COUNT
    /// subsample estimates would be artificially constant and the
    /// diagnostic would mis-fire). Empty when untracked.
    pub positions: Vec<u32>,
    /// Inner grouping, present only for nested plans.
    pub nested: Option<NestedData>,
}

impl AggData {
    /// The value-index range whose positions fall in the pre-filter row
    /// range `[row_lo, row_hi)`. Falls back to proportional value-count
    /// chunking when positions are untracked.
    pub fn range_for_rows(&self, row_lo: usize, row_hi: usize, sample_rows: usize) -> std::ops::Range<usize> {
        if self.positions.len() == self.values.len() && !self.positions.is_empty() {
            let lo = self.positions.partition_point(|&p| (p as usize) < row_lo);
            let hi = self.positions.partition_point(|&p| (p as usize) < row_hi);
            lo..hi
        } else {
            // Proportional fallback.
            let sel = if sample_rows == 0 { 0.0 } else { self.values.len() as f64 / sample_rows as f64 };
            let lo = ((row_lo as f64 * sel).round() as usize).min(self.values.len());
            let hi = ((row_hi as f64 * sel).round() as usize).min(self.values.len());
            lo..hi.max(lo)
        }
    }
}

/// One top-level group's inputs.
#[derive(Debug, Clone, PartialEq)]
pub struct Group {
    /// Rendered group key (empty string for the global group).
    pub key: String,
    /// One entry per aggregate in the SELECT list.
    pub aggs: Vec<AggData>,
}

/// Everything one scan produced.
#[derive(Debug, Clone)]
pub struct Collected {
    /// Rows scanned before filtering (the sample size n).
    pub pre_filter_rows: usize,
    /// Top-level groups in first-seen order.
    pub groups: Vec<Group>,
    /// The aggregate expressions, in SELECT order (shared by all groups).
    pub agg_exprs: Vec<AggExpr>,
    /// Whether this came from a nested (two-level) plan.
    pub nested: bool,
    /// The inner aggregate of a nested plan.
    pub inner_agg: Option<AggExpr>,
}

/// Per-operator counters accumulated across all partitions of one scan,
/// in chain (scan-first) order — the raw material for `aqp-prof`'s
/// `EXPLAIN ANALYZE` tree.
#[derive(Debug, Clone, PartialEq)]
pub struct OpStats {
    /// Preorder node id of the operator within the executed plan.
    pub node_id: usize,
    /// Bare operator name (`Scan`, `Filter`, …).
    pub name: &'static str,
    /// One-line operator description (`LogicalPlan::describe`).
    pub detail: String,
    /// Rows entering the operator (summed over partitions).
    pub rows_in: u64,
    /// Rows leaving the operator.
    pub rows_out: u64,
    /// Partition batches processed.
    pub batches: u64,
    /// Estimated bytes moved (8-byte cells: `rows_out × columns`).
    pub bytes: u64,
    /// Busy time spent inside the operator, summed over partitions (on
    /// the collection clock; exceeds wall time under parallelism).
    pub busy: Duration,
}

/// Scan-side observability: per-chain-operator stats plus the worker
/// pool's busy splits.
#[derive(Debug, Clone, Default)]
pub struct CollectObs {
    /// One entry per pass-through chain operator, scan first (descending
    /// plan node ids).
    pub ops: Vec<OpStats>,
    /// Per-worker stats from the partition pool.
    pub workers: Vec<WorkerStat>,
}

/// Per-partition counter deltas for one chain operator.
#[derive(Debug, Clone, Copy, Default)]
struct OpDelta {
    rows_in: u64,
    rows_out: u64,
    batches: u64,
    bytes: u64,
    busy: Duration,
}

/// The decomposed plan shape the executor supports.
struct PlanShape<'a> {
    /// Pass-through chain from scan upward (scan first), excluding
    /// aggregate/estimation nodes. `Resample` nodes are recorded but
    /// treated as no-ops during collection (weights are streamed by the
    /// engine, not materialized).
    chain: Vec<&'a LogicalPlan>,
    inner_agg: Option<&'a LogicalPlan>,
    top_agg: &'a LogicalPlan,
}

fn decompose(plan: &LogicalPlan) -> Result<PlanShape<'_>> {
    // Strip ErrorEstimate/Diagnostic wrappers.
    let mut node = plan;
    while let LogicalPlan::ErrorEstimate { input, .. } | LogicalPlan::Diagnostic { input } = node {
        node = input;
    }
    let top_agg = match node {
        LogicalPlan::Aggregate { .. } => node,
        other => {
            return Err(ExecError::Unsupported(format!(
                "plan root must be an aggregate, found {other:?}"
            )))
        }
    };
    let mut below = top_agg.input().expect("aggregate has input");
    // Pass through filters/projections between the two aggregates? The
    // supported nested shape is: outer Aggregate directly over inner
    // Aggregate (optionally with a filter between).
    let mut inner_agg = None;
    let mut probe = below;
    loop {
        match probe {
            LogicalPlan::Aggregate { .. } => {
                inner_agg = Some(probe);
                below = probe.input().expect("aggregate has input");
                break;
            }
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Project { input, .. }
            | LogicalPlan::Resample { input, .. }
            | LogicalPlan::TableSample { input, .. } => {
                probe = input;
            }
            LogicalPlan::Scan { .. } => break,
            other => {
                return Err(ExecError::Unsupported(format!("unsupported node {other:?}")))
            }
        }
    }
    if inner_agg.is_some() {
        // Filters between the aggregates are not supported (the paper's
        // nested queries filter at the base level).
        if !matches!(top_agg.input(), Some(LogicalPlan::Aggregate { .. })) {
            return Err(ExecError::Unsupported(
                "operators between nested aggregates are not supported".into(),
            ));
        }
    }

    // Build the pass-through chain (scan-first order) below the innermost
    // aggregate.
    let mut chain_rev = Vec::new();
    let mut cur = below;
    loop {
        chain_rev.push(cur);
        match cur {
            LogicalPlan::Scan { .. } => break,
            _ => {
                cur = cur
                    .input()
                    .ok_or_else(|| ExecError::Unsupported("chain without scan leaf".into()))?;
            }
        }
    }
    chain_rev.reverse();
    Ok(PlanShape { chain: chain_rev, inner_agg, top_agg })
}

/// Run the pass-through chain over the kept rows of one partition without
/// copying, slicing or gathering it: the chain carries a selection of
/// partition-local row ids — the prefix `0..keep_rows` until a `Filter`
/// narrows it or a `TableSample` repeats it (`Resample` is a no-op here).
/// Returns the batch the selection indexes (the partition's own unless a
/// `Project` replaced it), the selection, and per chain operator the
/// rows/bytes/busy-time deltas for this partition.
fn run_chain<'a>(
    chain: &[&LogicalPlan],
    item: &ScanItem<'a>,
    clock: &Clock,
) -> Result<(Cow<'a, Batch>, Selection, Vec<OpDelta>)> {
    let batch = item.part.batch();
    let mut current = Cow::Borrowed(batch);
    // Every id is a row of `batch`, and stays one: filters only drop ids,
    // sampling only repeats them, projections keep the row count.
    let mut sel = Selection::Prefix(item.keep_rows.min(batch.num_rows()));
    let mut deltas = Vec::with_capacity(chain.len());
    for node in chain {
        let start = clock.now();
        let rows_in = sel.len() as u64;
        match node {
            LogicalPlan::Scan { .. } | LogicalPlan::Resample { .. } => {}
            LogicalPlan::TableSample { rate, seed, .. } => {
                // Repeat each row Poisson(rate) times (§5.2's explicit
                // operator), from a stream of the partition's own: the
                // label is where its rows start in the effective sample.
                let mut rng = aqp_stats::rng::SeedStream::new(*seed).rng(u64::from(item.offset));
                let mut repeated = Vec::with_capacity(sel.len());
                for &row in sel.rows() {
                    let w = aqp_stats::dist::sample_poisson(&mut rng, *rate);
                    repeated.resize(repeated.len() + w as usize, row);
                }
                sel = Selection::Rows(repeated);
            }
            LogicalPlan::Filter { predicate, .. } => narrow(predicate, &current, &mut sel)?,
            LogicalPlan::Project { exprs, .. } => {
                // Evaluated for every row of the batch, so the row ids in
                // `sel` stay valid for the projected one.
                let mut cols = Vec::with_capacity(exprs.len());
                let mut fields = Vec::with_capacity(exprs.len());
                for (e, name) in exprs {
                    let c = eval(e, &current)?;
                    fields.push(aqp_storage::Field::nullable(name.clone(), c.data_type()));
                    cols.push(c);
                }
                current = Cow::Owned(Batch::new(aqp_storage::Schema::new(fields)?, cols)?);
            }
            other => {
                return Err(ExecError::Unsupported(format!("{other:?} in pass-through chain")))
            }
        }
        let rows_out = sel.len() as u64;
        deltas.push(OpDelta {
            rows_in,
            rows_out,
            batches: 1,
            bytes: rows_out * current.columns().len() as u64 * 8,
            busy: clock.now().duration_since(start),
        });
    }
    Ok((current, sel, deltas))
}

/// A key's string: its cells by `Value`'s `Display`, a unit separator
/// between them to keep composite keys unambiguous.
fn join_cells(cells: impl Iterator<Item = Value>) -> String {
    use std::fmt::Write;
    cells.enumerate().fold(String::new(), |mut key, (j, cell)| {
        let _ = write!(key, "{}{cell}", if j > 0 { "\u{1f}" } else { "" });
        key
    })
}

/// The canonical typed code of one key cell: dictionary code, integer or
/// float bits (every NaN payload prints `NaN`, so they share one code), or
/// bool; `None` for NULL. Equal codes render equal key strings, and on a
/// column that is not a string column different codes render different
/// ones.
fn key_code(col: &Column, row: usize) -> Option<u64> {
    if col.is_null(row) {
        return None;
    }
    Some(match col {
        Column::Int { values, .. } => values[row] as u64,
        Column::Float { values, .. } => if values[row].is_nan() { f64::NAN } else { values[row] }.to_bits(),
        Column::Bool { values, .. } => u64::from(values[row]),
        Column::Str { codes, .. } => u64::from(codes[row]),
    })
}

/// The value a [`key_code`] of `col` stands for; `None` for a string
/// column, whose codes do not identify a key (`'NULL'` and NULL, duplicate
/// dictionary entries, separators inside strings).
fn decoder(col: &Column) -> Option<fn(u64) -> Value> {
    match col {
        Column::Int { .. } => Some(|code| Value::Int(code as i64)),
        Column::Float { .. } => Some(|code| Value::Float(f64::from_bits(code))),
        Column::Bool { .. } => Some(|code| Value::Bool(code != 0)),
        Column::Str { .. } => None,
    }
}

/// Distinct typed code tuples in first-seen order, found through an
/// open-addressing table that is looked up and never iterated.
struct CodeGroups {
    /// Cells per tuple (key columns); at least one.
    width: usize,
    /// Group `g`'s tuple is `cells[g * width..][..width]`; `None` is NULL.
    cells: Vec<Option<u64>>,
    /// A group id per slot, `UNSEEN` where none: a power of two, at most
    /// half full, probed linearly.
    slots: Vec<u32>,
}

/// No group yet, in every table of group ids here.
const UNSEEN: u32 = u32::MAX;

impl CodeGroups {
    fn new(width: usize) -> Self {
        CodeGroups { width, cells: Vec::new(), slots: vec![UNSEEN; 16] }
    }

    fn len(&self) -> usize {
        self.cells.len() / self.width
    }

    fn tuple(&self, g: usize) -> &[Option<u64>] {
        &self.cells[g * self.width..][..self.width]
    }

    /// Where the probe for `key` starts: per cell, the high half folded
    /// into the low one, then a Fibonacci multiply, of which the *top*
    /// bits index the table. Every input bit reaches them; the low bits of
    /// a bare multiply would put every float with a zero low mantissa
    /// (1.5, 3.0, k·0.5) in one probe chain.
    fn home(&self, key: &[Option<u64>]) -> usize {
        let hash = key.iter().fold(0u64, |h, cell| {
            let x = h ^ cell.unwrap_or(0x5851_F42D_4C95_7F2D); // NULL: any fixed word
            (x ^ (x >> 32)).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        });
        (hash >> (64 - self.slots.len().trailing_zeros())) as usize
    }

    /// The id of `key`'s group, the next free one when it is new. Inlined,
    /// a one-cell key (`&[cell]`) is hashed and compared as a scalar; only
    /// a new group can make the table grow.
    #[inline]
    fn id_of(&mut self, key: &[Option<u64>]) -> u32 {
        let mut at = self.home(key);
        while self.slots[at] != UNSEEN {
            let g = self.slots[at] as usize;
            let same = match key {
                [cell] => self.cells[g] == *cell,
                _ => self.tuple(g) == key,
            };
            if same {
                return g as u32;
            }
            at = (at + 1) & (self.slots.len() - 1);
        }
        let g = self.len() as u32;
        self.slots[at] = g;
        self.cells.extend_from_slice(key);
        if self.cells.len() * 2 > self.slots.len() * self.width {
            // Double the table and seat every group again, in id order.
            self.slots = vec![UNSEEN; self.slots.len() * 2];
            for g in 0..self.len() {
                let mut at = self.home(self.tuple(g));
                while self.slots[at] != UNSEEN {
                    at = (at + 1) & (self.slots.len() - 1);
                }
                self.slots[at] = g as u32;
            }
        }
        g
    }
}

/// The distinct group keys of one scan — a partition's, or in `merge` all
/// partitions' — in first-seen order, and what identifies a group.
enum Keys {
    /// The rendered string: the key holds a `Str` column (or no column).
    Rendered(Vec<String>, HashMap<String, u32>),
    /// The typed code tuple, with what renders each cell. No string
    /// exists until [`Keys::into_rendered`] — for a nested plan's inner
    /// keys, never.
    Typed(Vec<fn(u64) -> Value>, CodeGroups),
}

impl Keys {
    fn len(&self) -> usize {
        match self {
            Keys::Rendered(keys, _) => keys.len(),
            Keys::Typed(_, groups) => groups.len(),
        }
    }

    /// An empty set that identifies groups the way `self` does.
    fn like(&self) -> Keys {
        match self {
            Keys::Rendered(..) => Keys::Rendered(Vec::new(), HashMap::new()),
            Keys::Typed(decode, groups) => Keys::Typed(decode.clone(), CodeGroups::new(groups.width)),
        }
    }

    /// The id of the group rendered `key`, the next free one when new
    /// (only then is the string copied).
    fn intern(keys: &mut Vec<String>, ids: &mut HashMap<String, u32>, key: &str) -> u32 {
        if let Some(&g) = ids.get(key) {
            return g;
        }
        keys.push(key.to_owned());
        ids.insert(key.to_owned(), keys.len() as u32 - 1);
        keys.len() as u32 - 1
    }

    /// The id here of `from`'s group `local`, the next free one when new.
    fn adopt(&mut self, from: &Keys, local: usize) -> Result<u32> {
        match (self, from) {
            (Keys::Rendered(keys, ids), Keys::Rendered(part, _)) => Ok(Keys::intern(keys, ids, &part[local])),
            (Keys::Typed(_, all), Keys::Typed(_, part)) => Ok(all.id_of(part.tuple(local))),
            _ => Err(ExecError::PlanInvariant("partitions disagree on the group key's types".into())),
        }
    }

    /// Every key as its string, once per group: the typed cells through
    /// `Value`'s `Display`, as `join_cells` joins them.
    fn into_rendered(self) -> Vec<String> {
        match self {
            Keys::Rendered(keys, _) => keys,
            Keys::Typed(decode, groups) => (0..groups.len())
                .map(|g| groups.tuple(g).iter().zip(&decode))
                .map(|cells| join_cells(cells.map(|(cell, value)| cell.map_or(Value::Null, value))))
                .collect(),
        }
    }
}

/// Resolve the group of every selection entry. Key columns that are all
/// `Int` / `Float` / `Bool` identify a group by its typed code tuple: that
/// is the relation "renders the same string" (integers and booleans print
/// injectively, floats too once NaNs share a code, and no such cell can
/// print the separator or spell a NULL), at no string per row or group. A
/// key that holds a string column identifies groups by the rendered
/// string, so a `'NULL'` string and NULL share a group as rendered keys
/// always did; it is rendered once per distinct code tuple. Either way a
/// row finds its tuple through the partition's [`CodeGroups`], and a
/// single column whose codes are dense through a slot table in front of
/// it. Returns the partition-local group id per entry and the groups'
/// keys.
fn assign_groups(batch: &Batch, key_cols: &[usize], sel: &[u32]) -> (Vec<u32>, Keys) {
    let cols: Vec<&Column> = key_cols.iter().map(|&c| batch.column(c)).collect();
    let decode = cols.iter().map(|col| decoder(col)).collect::<Option<Vec<_>>>();
    let mut tuples = CodeGroups::new(cols.len());
    let mut code = Vec::with_capacity(cols.len());
    // For a key with a string column, the group of each distinct tuple:
    // its string's.
    let (mut keys, mut ids, mut seen) = (Vec::new(), HashMap::new(), Vec::new());
    let mut group_of = |row: usize| {
        let tuple = match cols.as_slice() {
            // A lone string column sits behind the slot table below, which
            // hands over each code once: every call brings a new tuple.
            [_] if decode.is_none() => seen.len() as u32,
            [col] => tuples.id_of(&[key_code(col, row)]),
            cols => {
                code.clear();
                code.extend(cols.iter().map(|col| key_code(col, row)));
                tuples.id_of(&code)
            }
        };
        if decode.is_some() {
            return tuple;
        }
        if tuple as usize == seen.len() {
            let cell = |col: &&Column| col.value(row).unwrap_or_else(|_| Value::Str("?".into()));
            seen.push(Keys::intern(&mut keys, &mut ids, &join_cells(cols.iter().map(cell))));
        }
        seen[tuple as usize]
    };
    // A single column whose codes are dense by construction — a dictionary's,
    // a boolean's — gets a slot table in front of the map: the column and
    // how many codes it has.
    let dense = match cols.as_slice() {
        [col @ Column::Str { dict, .. }] => Some((*col, dict.len())),
        [col @ Column::Bool { .. }] => Some((*col, 2)),
        _ => None,
    };
    let gids = match dense {
        Some((col, n)) => {
            let mut slots = vec![UNSEEN; n + 1]; // the last is NULL's
            let mut gid = |row: usize| {
                let slot = key_code(col, row).map_or(n, |code| code as usize);
                if slots[slot] == UNSEEN {
                    slots[slot] = group_of(row);
                }
                slots[slot]
            };
            sel.iter().map(|&r| gid(r as usize)).collect()
        }
        None => sel.iter().map(|&r| group_of(r as usize)).collect(),
    };
    (gids, decode.map_or(Keys::Rendered(keys, ids), |decode| Keys::Typed(decode, tuples)))
}

/// The grouped selection of one partition: a slot per selection entry,
/// group `g`'s block of slots being `starts[g]..ends[g]` in selection
/// order, and what is known of a slot besides an aggregate's value.
struct Slots {
    ends: Vec<usize>,
    /// The row's position in the effective sample; empty when no
    /// diagnostic will read positions.
    positions: Vec<u32>,
    /// Nested plans: the row's index into `inner_keys`.
    codes: Vec<u32>,
}

/// One aggregate's values in one partition, a slot each.
struct Blocks {
    values: Vec<f64>,
    /// Its own for an argument that is NULL in some selected row, which
    /// gets no slot; every other aggregate shares the partition's.
    slots: Arc<Slots>,
}

/// What one surviving partition contributes, copied out of it by the
/// worker that scanned it.
struct PartitionScan {
    /// The partition's groups, in first-seen order.
    keys: Keys,
    /// Where each group's block starts (sized for a value per entry).
    starts: Vec<usize>,
    /// One entry per collected aggregate.
    aggs: Vec<Blocks>,
    /// The inner groups of a nested plan, in first-seen order.
    inner_keys: Keys,
    // Per chain operator, this partition's counter deltas.
    op_deltas: Vec<OpDelta>,
}

/// Scan one partition: run the chain, resolve group ids once, turn them
/// into a slot per selection entry, and scatter every aggregate's argument
/// through the selection into its slots. `None` when the partition was
/// lost.
fn scan_partition(
    chain: &[&LogicalPlan],
    item: ScanItem<'_>,
    group_by: &[String],
    aggs: &[AggExpr],
    inner_key: Option<&str>,
    with_positions: bool,
    clock: &Clock,
) -> Result<Option<PartitionScan>> {
    if item.lost {
        return Ok(None);
    }
    let (batch, mut sel, op_deltas) = run_chain(chain, &item, clock)?;
    let key_cols = group_by
        .iter()
        .map(|k| batch.schema().index_of(k))
        .collect::<aqp_storage::Result<Vec<_>>>()?;
    let (inner_gids, inner_keys) = match inner_key {
        Some(k) => assign_groups(&batch, &[batch.schema().index_of(k)?], sel.rows()),
        None => (Vec::new(), Keys::Rendered(Vec::new(), HashMap::new())),
    };
    // The global group needs no ids at all; it exists once a row (nested:
    // a partition) survives.
    let (gids, keys) = match key_cols.as_slice() {
        [] => {
            let exists = inner_key.is_some() || !sel.is_empty();
            (Vec::new(), Keys::Rendered(vec![String::new(); usize::from(exists)], HashMap::new()))
        }
        key_cols => assign_groups(&batch, key_cols, sel.rows()),
    };
    // Group sizes, turned into block starts by a running sum.
    let mut starts = vec![0; keys.len()];
    gids.iter().for_each(|&g| starts[g as usize] += 1);
    let mut at = 0;
    starts.iter_mut().for_each(|s| at += std::mem::replace(s, at));
    // The slot of every entry that is a number (`numbers`: which are,
    // `None` for all) — the next free one of its group's block, or of the
    // global group's without `gids`; `None` where that is the entry's own
    // index — and what the slots hold. An entry that is no number gets the
    // spare slot after the last block.
    let n = sel.len();
    let slots = |numbers: Option<&[bool]>| {
        let mut ends = starts.clone();
        let dest: Option<Vec<u32>> = (numbers.is_some() || !gids.is_empty()).then(|| {
            let slot = |k: usize| {
                if numbers.is_some_and(|is| !is[k]) {
                    return n as u32;
                }
                let end = &mut ends[gids.get(k).map_or(0, |&g| g as usize)];
                *end += 1;
                *end as u32 - 1
            };
            (0..n).map(slot).collect()
        });
        if dest.is_none() {
            ends.iter_mut().for_each(|end| *end = n);
        }
        let mut positions = vec![0; if with_positions { n + 1 } else { 0 }];
        if with_positions {
            sel.scatter(dest.as_deref(), &mut positions, |row| item.offset + row as u32);
        }
        let mut codes = vec![0; inner_gids.len() + 1];
        Selection::Prefix(inner_gids.len()).scatter(dest.as_deref(), &mut codes, |k| inner_gids[k]);
        (dest, Arc::new(Slots { ends, positions, codes }))
    };
    let shared = slots(None);
    let mut out = Vec::with_capacity(aggs.len());
    for agg in aggs {
        // `COUNT(*)` counts every entry; an argument, its non-NULL numbers.
        let Some(arg) = &agg.arg else {
            out.push(Blocks { values: vec![1.0; n], slots: shared.1.clone() });
            continue;
        };
        let arg = eval_selected(arg, &batch, &sel)?;
        let own = arg.numbers(&sel).map(|numbers| slots(Some(&numbers)));
        let (dest, slots) = own.as_ref().unwrap_or(&shared);
        let mut values = vec![0.0; n + 1];
        arg.scatter_f64(&sel, dest.as_deref(), &mut values);
        out.push(Blocks { values, slots: slots.clone() });
    }
    Ok(Some(PartitionScan { keys, starts, aggs: out, inner_keys, op_deltas }))
}

/// One partition scan task, after fault resolution.
struct ScanItem<'a> {
    part: &'a aqp_storage::Partition,
    /// Starting row offset within the *effective* (surviving) sample.
    offset: u32,
    /// Rows of this partition that survive (0 when lost, a truncated
    /// prefix length when a truncation fired, otherwise all rows).
    keep_rows: usize,
    /// True when the partition's data was lost to injected faults.
    lost: bool,
}

/// Resolve every partition task against the (optional) fault injector,
/// producing the scan items plus a fault summary. Without an injector
/// this degenerates to the classic partition/offset pairing and the
/// scan is bit-identical to a fault-free run.
///
/// Resolution happens up front (it is deterministic and cheap) so that
/// surviving rows get *effective*-sample offsets: positions stay dense
/// in `[0, effective_rows)`, which the diagnostic's row-range
/// subsampling relies on.
fn fault_resolved_items<'a>(
    table: &'a Table,
    injector: Option<&FaultInjector>,
    clock: &Clock,
) -> (Vec<ScanItem<'a>>, Option<ScanFaultSummary>) {
    let mut items = Vec::with_capacity(table.num_partitions());
    let mut summary = injector.map(|_| ScanFaultSummary::default());
    let mut offset = 0u32;
    for (task, part) in table.partitions().iter().enumerate() {
        let planned = part.num_rows();
        let (keep_rows, lost) = match (injector, &mut summary) {
            (Some(inj), Some(summary)) => {
                let report = inj.run_task(task, clock);
                let keep_rows = match report.truncate_keep {
                    _ if report.lost || planned == 0 => 0,
                    Some(keep) => ((planned as f64 * keep).round() as usize).clamp(1, planned),
                    None => planned,
                };
                summary.absorb(&report, planned, keep_rows);
                (keep_rows, report.lost)
            }
            _ => (planned, false),
        };
        items.push(ScanItem { part, offset, keep_rows, lost });
        offset += keep_rows as u32;
    }
    (items, summary)
}

/// Sum per-partition deltas into chain-order [`OpStats`], resolving each
/// chain node's preorder id within the executed plan.
fn chain_stats(
    plan: &LogicalPlan,
    chain: &[&LogicalPlan],
    scans: &[Result<Option<PartitionScan>>],
) -> Vec<OpStats> {
    let mut totals = vec![OpDelta::default(); chain.len()];
    for p in scans.iter().flatten().flatten() {
        for (i, d) in p.op_deltas.iter().enumerate() {
            if let Some(t) = totals.get_mut(i) {
                t.rows_in += d.rows_in;
                t.rows_out += d.rows_out;
                t.batches += d.batches;
                t.bytes += d.bytes;
                t.busy += d.busy;
            }
        }
    }
    chain
        .iter()
        .zip(totals)
        .enumerate()
        .map(|(i, (node, t))| OpStats {
            // Chain order is scan-first, so preorder ids descend; the
            // fallback preserves that when a node is not reachable from
            // `plan` (never the case for plans built by `decompose`).
            node_id: node.node_id_in(plan).unwrap_or(chain.len() - 1 - i),
            name: node.op_name(),
            detail: node.describe(),
            rows_in: t.rows_in,
            rows_out: t.rows_out,
            batches: t.batches,
            bytes: t.bytes,
            busy: t.busy,
        })
        .collect()
}

/// Collect aggregation inputs from `plan` over `table`.
///
/// Supported shapes: `Aggregate(chain)` and `Aggregate(Aggregate(chain))`
/// (one nesting level, outer without GROUP BY).
pub fn collect(plan: &LogicalPlan, table: &Table, threads: usize) -> Result<Collected> {
    collect_observed(plan, table, threads, &Clock::Real).map(|(c, _)| c)
}

/// [`collect`], additionally reporting per-operator and per-worker stats
/// measured on `clock` — the engine turns these into `op:`/`worker`
/// trace spans for `aqp-prof`.
pub fn collect_observed(
    plan: &LogicalPlan,
    table: &Table,
    threads: usize,
    clock: &Clock,
) -> Result<(Collected, CollectObs)> {
    collect_observed_faulty(plan, table, threads, clock, None).map(|(c, o, _)| (c, o))
}

/// [`collect_observed`] with deterministic fault injection: each
/// partition task is resolved against `injector`'s plan before dispatch
/// (lost partitions are skipped, truncated ones scan only a prefix),
/// and the returned [`ScanFaultSummary`] describes what was injected
/// and what survived. With `injector = None` this is exactly
/// [`collect_observed`].
pub fn collect_observed_faulty(
    plan: &LogicalPlan,
    table: &Table,
    threads: usize,
    clock: &Clock,
    injector: Option<&FaultInjector>,
) -> Result<(Collected, CollectObs, Option<ScanFaultSummary>)> {
    scan(plan, table, threads, clock, injector, true)
}

/// [`collect_observed_faulty`], leaving every `AggData::positions` empty
/// unless `with_positions`: only the diagnostic's row-range subsampling
/// reads them, so the exact path, the pilot and the baseline's plain
/// scans do not ask.
pub(crate) fn scan(
    plan: &LogicalPlan,
    table: &Table,
    threads: usize,
    clock: &Clock,
    injector: Option<&FaultInjector>,
    with_positions: bool,
) -> Result<(Collected, CollectObs, Option<ScanFaultSummary>)> {
    let shape = decompose(plan)?;
    let LogicalPlan::Aggregate { group_by: top_group_by, aggs: top_aggs, .. } = shape.top_agg
    else {
        return Err(ExecError::PlanInvariant(
            "decompose returned a non-Aggregate top node".into(),
        ));
    };
    // A nested plan collects the inner block's aggregate argument as one
    // anonymous top group, coded by the inner group key.
    let inner = match shape.inner_agg {
        None => None,
        Some(LogicalPlan::Aggregate { group_by, aggs, .. }) => {
            if !top_group_by.is_empty() {
                return Err(ExecError::Unsupported(
                    "GROUP BY on the outer block of a nested query is not supported".into(),
                ));
            }
            let ([inner_agg], [inner_key]) = (aggs.as_slice(), group_by.as_slice()) else {
                return Err(ExecError::Unsupported(
                    "nested inner block must have exactly one aggregate and one group key".into(),
                ));
            };
            if top_aggs.iter().any(|a| a.arg.is_none() && !matches!(a.func, AggFunc::Count)) {
                return Err(ExecError::Unsupported("outer aggregate without argument".into()));
            }
            Some((inner_agg, inner_key.as_str()))
        }
        Some(_) => {
            return Err(ExecError::PlanInvariant(
                "decompose returned a non-Aggregate inner node".into(),
            ))
        }
    };

    let (group_by, collected_aggs) = match inner {
        Some((agg, _)) => (&[][..], std::slice::from_ref(agg)),
        None => (top_group_by.as_slice(), top_aggs.as_slice()),
    };
    let inner_key = inner.map(|(_, key)| key);

    let chain = &shape.chain;
    let (items, fault_summary) = fault_resolved_items(table, injector, clock);
    let pre_filter_rows = items.iter().map(|item| item.keep_rows).sum(); // a lost one keeps 0
    let (scans, workers) = parallel_map_observed(items, threads, clock, |item| {
        scan_partition(chain, item, group_by, collected_aggs, inner_key, with_positions, clock)
    });
    let ops = chain_stats(plan, chain, &scans);
    let mut groups = merge(scans, collected_aggs.len(), inner.is_some(), with_positions)?;
    if inner.is_some() {
        // Duplicate the single collected values vector across outer
        // aggregates if the SELECT list has several.
        if let Some(g) = groups.first_mut() {
            if top_aggs.len() > 1 {
                g.aggs = vec![g.aggs[0].clone(); top_aggs.len()];
            }
        }
    }
    // SQL semantics: a global aggregate over zero surviving rows still
    // produces one output row (COUNT 0, AVG NULL).
    if top_group_by.is_empty() && groups.is_empty() {
        groups.push(Group { key: String::new(), aggs: vec![AggData::default(); top_aggs.len()] });
    }
    let collected = Collected {
        pre_filter_rows,
        groups,
        agg_exprs: top_aggs.clone(),
        nested: inner.is_some(),
        inner_agg: inner.map(|(agg, _)| agg.clone()),
    };
    Ok((collected, CollectObs { ops, workers }, fault_summary))
}

/// Merge the partition scans, in partition order, into the final groups
/// (sorted by key): per group and aggregate one exact reservation, then
/// one block copy per partition. Partition groups become global ones on
/// what identifies them ([`Keys`]), and a key is rendered once per global
/// group; a nested plan's partition-local inner codes become global
/// first-seen codes and are never rendered.
fn merge(
    scans: Vec<Result<Option<PartitionScan>>>,
    n_aggs: usize,
    nested: bool,
    with_positions: bool,
) -> Result<Vec<Group>> {
    let scans: Vec<PartitionScan> =
        scans.into_iter().filter_map(Result::transpose).collect::<Result<_>>()?;
    let Some(first) = scans.first() else { return Ok(Vec::new()) };

    // Global groups in first-seen order with the number of values each
    // aggregate receives, and every partition group's global index.
    let mut keys = first.keys.like();
    let mut sizes: Vec<Vec<usize>> = Vec::new();
    let mut global_of = Vec::new();
    for scan in &scans {
        for local in 0..scan.keys.len() {
            let g = keys.adopt(&scan.keys, local)? as usize;
            if g == sizes.len() {
                sizes.push(vec![0; n_aggs]);
            }
            let counts = scan.aggs.iter().map(|b| b.slots.ends[local] - scan.starts[local]);
            sizes[g].iter_mut().zip(counts).for_each(|(n, count)| *n += count);
            global_of.push(g);
        }
    }
    let mut groups: Vec<Group> = keys
        .into_rendered()
        .into_iter()
        .zip(sizes)
        .map(|(key, sizes)| Group {
            key,
            aggs: sizes
                .into_iter()
                .map(|n| AggData {
                    values: Vec::with_capacity(n),
                    positions: Vec::with_capacity(if with_positions { n } else { 0 }),
                    nested: nested.then(|| NestedData { codes: Vec::with_capacity(n), n_codes: 0 }),
                })
                .collect(),
        })
        .collect();

    let mut inner_keys = first.inner_keys.like();
    let mut global_of = global_of.into_iter();
    for scan in &scans {
        let mut code_of = vec![UNSEEN; scan.inner_keys.len()];
        for (local, g) in (0..scan.keys.len()).zip(global_of.by_ref()) {
            for (data, part) in groups[g].aggs.iter_mut().zip(&scan.aggs) {
                let slots = &part.slots;
                let block = scan.starts[local]..slots.ends[local];
                data.values.extend_from_slice(&part.values[block.clone()]);
                if with_positions {
                    data.positions.extend_from_slice(&slots.positions[block.clone()]);
                }
                let Some(nested) = &mut data.nested else { continue };
                for &local in &slots.codes[block] {
                    let code = &mut code_of[local as usize];
                    if *code == UNSEEN {
                        *code = inner_keys.adopt(&scan.inner_keys, local as usize)?;
                    }
                    nested.codes.push(*code);
                }
                nested.n_codes = inner_keys.len();
            }
        }
    }
    // Deterministic group order regardless of partition interleaving (keys
    // are distinct, so an unstable sort has one outcome).
    groups.sort_unstable_by(|a, b| a.key.cmp(&b.key));
    Ok(groups)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqp_sql::{parse_query, plan_query};
    use aqp_storage::{Column, DataType, Field, Schema};

    fn sessions() -> Table {
        let schema = Schema::new(vec![
            Field::new("city", DataType::Str),
            Field::new("time", DataType::Float),
            Field::new("user_id", DataType::Int),
        ])
        .unwrap();
        let batch = Batch::new(
            schema,
            vec![
                Column::from_strs(&["NYC", "SF", "NYC", "SF", "NYC", "LA"]),
                Column::from_f64s(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]),
                Column::from_i64s(vec![1, 1, 2, 2, 3, 3]),
            ],
        )
        .unwrap();
        Table::from_batch("sessions", batch, 3).unwrap()
    }

    fn collected(sql: &str, threads: usize) -> Collected {
        let t = sessions();
        let q = parse_query(sql).unwrap();
        let plan = plan_query(&q, t.schema()).unwrap();
        collect(&plan, &t, threads).unwrap()
    }

    #[test]
    fn global_aggregate_collects_all_values() {
        let c = collected("SELECT AVG(time) FROM sessions", 2);
        assert_eq!(c.pre_filter_rows, 6);
        assert_eq!(c.groups.len(), 1);
        let mut v = c.groups[0].aggs[0].values.clone();
        v.sort_by(f64::total_cmp);
        assert_eq!(v, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
    }

    #[test]
    fn filter_reduces_values() {
        let c = collected("SELECT SUM(time) FROM sessions WHERE city = 'NYC'", 1);
        let mut v = c.groups[0].aggs[0].values.clone();
        v.sort_by(f64::total_cmp);
        assert_eq!(v, vec![1.0, 3.0, 5.0]);
        assert_eq!(c.pre_filter_rows, 6); // pre-filter count is preserved
    }

    #[test]
    fn group_by_splits_groups() {
        let c = collected("SELECT city, COUNT(*) FROM sessions GROUP BY city", 2);
        assert_eq!(c.groups.len(), 3);
        let keys: Vec<&str> = c.groups.iter().map(|g| g.key.as_str()).collect();
        assert_eq!(keys, vec!["LA", "NYC", "SF"]); // sorted
        let nyc = c.groups.iter().find(|g| g.key == "NYC").unwrap();
        assert_eq!(nyc.aggs[0].values.len(), 3);
    }

    #[test]
    fn count_star_counts_rows() {
        let c = collected("SELECT COUNT(*) FROM sessions WHERE time > 4", 1);
        assert_eq!(c.groups[0].aggs[0].values, vec![1.0, 1.0]);
    }

    #[test]
    fn multiple_aggregates_share_the_scan() {
        let c = collected("SELECT AVG(time), MAX(time), COUNT(*) FROM sessions", 2);
        assert_eq!(c.groups[0].aggs.len(), 3);
        assert_eq!(c.groups[0].aggs[0].values.len(), 6);
        assert_eq!(c.groups[0].aggs[2].values, vec![1.0; 6]);
    }

    #[test]
    fn nested_collects_codes() {
        let c = collected(
            "SELECT AVG(s) FROM (SELECT SUM(time) AS s FROM sessions GROUP BY user_id)",
            1,
        );
        assert!(c.nested);
        let a = &c.groups[0].aggs[0];
        assert_eq!(a.values.len(), 6);
        let nd = a.nested.as_ref().unwrap();
        assert_eq!(nd.codes.len(), 6);
        assert_eq!(nd.n_codes, 3); // users 1, 2, 3
    }

    #[test]
    fn parallel_and_serial_agree() {
        let c1 = collected("SELECT city, AVG(time) FROM sessions GROUP BY city", 1);
        let c4 = collected("SELECT city, AVG(time) FROM sessions GROUP BY city", 4);
        assert_eq!(c1.pre_filter_rows, c4.pre_filter_rows);
        let norm = |c: &Collected| {
            c.groups
                .iter()
                .map(|g| {
                    let mut v = g.aggs[0].values.clone();
                    v.sort_by(f64::total_cmp);
                    (g.key.clone(), v)
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(norm(&c1), norm(&c4));
    }

    #[test]
    fn resample_node_is_transparent_to_collection() {
        let t = sessions();
        let q = parse_query("SELECT AVG(time) FROM sessions WHERE city = 'NYC'").unwrap();
        let plan = plan_query(&q, t.schema()).unwrap();
        let spec = aqp_sql::logical::ResampleSpec::bootstrap(10, 1);
        let rewritten = aqp_sql::rewriter::insert_pushed_down(plan.clone(), &spec);
        let a = collect(&plan, &t, 1).unwrap();
        let b = collect(&rewritten, &t, 1).unwrap();
        assert_eq!(a.groups[0].aggs[0].values, b.groups[0].aggs[0].values);
    }

    #[test]
    fn tablesample_poissonized_replicates_rows() {
        let t = sessions();
        let q = parse_query("SELECT COUNT(*) FROM sessions TABLESAMPLE POISSONIZED (100)")
            .unwrap();
        let plan = plan_query(&q, t.schema()).unwrap();
        assert!(plan.explain().contains("TableSamplePoissonized"));
        let c = collect(&plan, &t, 1).unwrap();
        // 6 rows with Poisson(1) replication: expected ~6, deterministic
        // given the seed; just require a plausible non-identity outcome.
        let n = c.groups[0].aggs[0].values.len();
        assert!(n <= 20, "resample blew up: {n}");
        // Deterministic.
        let c2 = collect(&plan, &t, 1).unwrap();
        assert_eq!(c.groups[0].aggs[0].values.len(), c2.groups[0].aggs[0].values.len());
        // Rate 200 (λ=2) roughly doubles the expectation.
        let q2 = parse_query("SELECT COUNT(*) FROM sessions TABLESAMPLE POISSONIZED (200)")
            .unwrap();
        let plan2 = plan_query(&q2, t.schema()).unwrap();
        let big: usize = (0..20)
            .map(|_| collect(&plan2, &t, 1).unwrap().groups[0].aggs[0].values.len())
            .sum();
        let small: usize = (0..20)
            .map(|_| collect(&plan, &t, 1).unwrap().groups[0].aggs[0].values.len())
            .sum();
        assert!(big > small, "λ=2 ({big}) should replicate more than λ=1 ({small})");
    }

    #[test]
    fn tablesample_draws_a_stream_per_partition() {
        // 16 equal partitions: with one stream for all of them, row k of
        // each would repeat alike and every count be a multiple of 16.
        let rows = 16 * 40;
        let schema = Schema::new(vec![Field::new("x", DataType::Float)]).unwrap();
        let x = Column::from_f64s((0..rows).map(f64::from).collect());
        let t = Table::from_batch("t", Batch::new(schema, vec![x]).unwrap(), 16).unwrap();
        let q = parse_query("SELECT SUM(x) FROM t TABLESAMPLE POISSONIZED (100)").unwrap();
        let plan = plan_query(&q, t.schema()).unwrap();
        let c = collect(&plan, &t, 2).unwrap();
        // How often each row of a partition was repeated, per partition.
        let mut times = vec![[0u32; 40]; 16];
        for p in &c.groups[0].aggs[0].positions {
            times[*p as usize / 40][*p as usize % 40] += 1;
        }
        let distinct: std::collections::BTreeSet<_> = times.iter().collect();
        assert_eq!(distinct.len(), 16, "every partition draws its own multiplicities");
        let n = c.groups[0].aggs[0].values.len();
        assert!((rows as usize * 3 / 4..rows as usize * 5 / 4).contains(&n), "Poisson(1) of {rows} rows: {n}");
    }

    #[test]
    fn a_fused_first_filter_counts_rows_like_any_filter() {
        // `user_id > 1` straight over the scan: compared and compacted over
        // the kept prefix, no vector of row ids before it.
        let t = sessions();
        let q = parse_query("SELECT city, SUM(time) FROM sessions WHERE user_id > 1 GROUP BY city").unwrap();
        let plan = plan_query(&q, t.schema()).unwrap();
        for threads in [1, 2] {
            let (_, obs) = collect_observed(&plan, &t, threads, &Clock::Real).unwrap();
            let [scan, filter] = obs.ops.as_slice() else { panic!("Scan, Filter") };
            assert_eq!((scan.rows_in, scan.rows_out, scan.batches, scan.bytes), (6, 6, 3, 6 * 3 * 8));
            assert_eq!(filter.name, "Filter");
            assert_eq!((filter.rows_in, filter.rows_out, filter.batches, filter.bytes), (6, 4, 3, 4 * 3 * 8));
        }
    }

    #[test]
    fn project_keeps_the_selection_valid() {
        use aqp_sql::ast::{BinOp, Expr};
        let t = sessions();
        // Aggregate[city; SUM(d)] over Project[time*2 AS d, city] over
        // TableSample over Filter(user_id > 1): the projected batch is
        // indexed by the narrowed, repeated selection of the original.
        let q = parse_query(
            "SELECT city, SUM(time * 2) FROM sessions TABLESAMPLE POISSONIZED (150) \
             WHERE user_id > 1 GROUP BY city",
        )
        .unwrap();
        let direct = plan_query(&q, t.schema()).unwrap();
        let LogicalPlan::Aggregate { input, group_by, .. } = &direct else {
            panic!("planner emits an aggregate root")
        };
        let doubled = Expr::binary(BinOp::Mul, Expr::col("time"), Expr::Literal(2i64.into()));
        let projected = LogicalPlan::Aggregate {
            input: Box::new(LogicalPlan::Project {
                input: input.clone(),
                exprs: vec![(doubled, "d".into()), (Expr::col("city"), "city".into())],
            }),
            group_by: group_by.clone(),
            aggs: vec![AggExpr { func: AggFunc::Sum, arg: Some(Expr::col("d")) }],
        };
        let (a, a_obs) = collect_observed(&direct, &t, 2, &Clock::Real).unwrap();
        let (b, b_obs) = collect_observed(&projected, &t, 2, &Clock::Real).unwrap();
        assert_eq!(a.groups, b.groups);
        assert!(a.groups.iter().any(|g| !g.aggs[0].values.is_empty()));
        // Counters follow the selection: the filter takes what the sampling
        // repeated and drops rows, and bytes are 8 per cell of the rows
        // leaving over the batch's columns.
        let [_, sample, filter] = a_obs.ops.as_slice() else { panic!("Scan, TableSample, Filter") };
        assert_eq!((sample.name, filter.name), ("TableSample", "Filter"));
        assert_eq!(filter.rows_in, sample.rows_out);
        assert!(filter.rows_out < filter.rows_in);
        assert_eq!(filter.bytes, filter.rows_out * 3 * 8);
        let sampled = filter.rows_out;
        let project = b_obs.ops.last().unwrap();
        assert_eq!(project.name, "Project");
        assert_eq!((project.rows_in, project.rows_out), (sampled, sampled));
        assert_eq!(project.bytes, sampled * 2 * 8);
    }

    #[test]
    fn keys_that_render_alike_share_a_group() {
        // A 'NULL' string and a NULL cell, and every NaN payload, render
        // to one key each; -0 and 0 do not.
        let nan2 = f64::from_bits(f64::NAN.to_bits() ^ 1);
        let schema = Schema::new(vec![
            Field::nullable("s", DataType::Str),
            Field::new("f", DataType::Float),
        ])
        .unwrap();
        let s = Column::Str {
            dict: vec!["NULL".into(), "a".into()],
            codes: vec![0, 1, 0, 1, 0, 0],
            validity: Some(vec![true, true, false, true, true, false]),
        };
        let f = Column::from_f64s(vec![f64::NAN, 0.0, nan2, -0.0, f64::NAN, 0.0]);
        let t = Table::from_batch("t", Batch::new(schema, vec![s, f]).unwrap(), 2).unwrap();
        let run = |sql: &str| {
            let plan = plan_query(&parse_query(sql).unwrap(), t.schema()).unwrap();
            let c = collect(&plan, &t, 1).unwrap();
            let positions = |g: &Group| (g.key.clone(), g.aggs[0].positions.clone());
            c.groups.iter().map(positions).collect::<Vec<_>>()
        };
        assert_eq!(
            run("SELECT s, COUNT(*) FROM t GROUP BY s"),
            [("NULL".to_string(), vec![0, 2, 4, 5]), ("a".to_string(), vec![1, 3])]
        );
        assert_eq!(
            run("SELECT f, COUNT(*) FROM t GROUP BY f"),
            [
                ("-0".to_string(), vec![3]),
                ("0".to_string(), vec![1, 5]),
                ("NaN".to_string(), vec![0, 2, 4])
            ]
        );
        assert_eq!(
            run("SELECT s, f, COUNT(*) FROM t GROUP BY s, f")
                .iter()
                .map(|(k, p)| (k.replace('\u{1f}', "|"), p.clone()))
                .collect::<Vec<_>>(),
            [
                ("NULL|0".to_string(), vec![5]),
                ("NULL|NaN".to_string(), vec![0, 2, 4]),
                ("a|-0".to_string(), vec![3]),
                ("a|0".to_string(), vec![1])
            ]
        );
    }

    /// Probes over all lookups of the keys just inserted: one per key plus
    /// how far each sits from where its probe starts.
    fn probes(keys: impl Iterator<Item = u64>) -> usize {
        let mut map = CodeGroups::new(1);
        let n = keys.map(|k| map.id_of(&[Some(k)])).count();
        assert_eq!(map.len(), n, "keys are distinct");
        let mask = map.slots.len() - 1;
        let seats = map.slots.iter().enumerate().filter(|(_, &g)| g != UNSEEN);
        n + seats.map(|(at, &g)| at.wrapping_sub(map.home(map.tuple(g as usize))) & mask).sum::<usize>()
    }

    #[test]
    fn typed_map_probes_patterned_keys_like_random_ones() {
        // Floats with a zero low mantissa differ only in their top bits,
        // strided and negative integers only in a few: a hash that lets
        // either end up in the table index alone chains them all.
        let mut rng = aqp_stats::rng::rng_from_seed(7);
        let random = probes((0..10_000).map(|_| rand::RngExt::random::<u64>(&mut rng)));
        assert!(random < 20_000, "random keys: {random} probes for 10 000 keys");
        let round = probes((0..10_000).map(|k| (k as f64 * 0.5).to_bits()));
        let dense = probes(0..10_000);
        let strided = probes((0..10_000).map(|k| k << 20));
        let negative = probes((0..10_000).map(|k| (-(k as i64) * 3) as u64));
        for (what, n) in [("k * 0.5", round), ("0..n", dense), ("k << 20", strided), ("-3k", negative)] {
            assert!(n <= 3 * random, "{what}: {n} probes against {random} for random keys");
        }
    }

    #[test]
    fn typed_map_numbers_tuples_in_first_seen_order_across_growth() {
        // NULL is no code: (NULL, 0), (0, NULL) and (0, 0) are three groups.
        let mut map = CodeGroups::new(2);
        let tuple = |i: u64| [(!i.is_multiple_of(7)).then_some(i / 2), (!i.is_multiple_of(5)).then_some(i % 2)];
        let mut first_seen: Vec<[Option<u64>; 2]> = Vec::new();
        for round in 0..2 {
            for i in 0..3_000 {
                let want = first_seen.iter().position(|t| *t == tuple(i)).unwrap_or_else(|| {
                    assert_eq!(round, 0, "the second round finds every tuple");
                    first_seen.push(tuple(i));
                    first_seen.len() - 1
                });
                assert_eq!(map.id_of(&tuple(i)) as usize, want, "tuple {:?}", tuple(i));
            }
        }
        assert_eq!(map.len(), first_seen.len());
        assert!(map.len() * 2 <= map.slots.len() && map.slots.len() > 16, "grew, half full at most");
        assert!((0..map.len()).all(|g| map.tuple(g) == first_seen[g]));
    }

    #[test]
    fn typed_keys_render_once_per_group_as_values_display() {
        // Int × Float × Bool with NULLs: typed identity, the rendering of
        // `Value`'s `Display`, string order ("10" < "2").
        let schema = Schema::new(vec![
            Field::nullable("i", DataType::Int),
            Field::new("f", DataType::Float),
            Field::new("b", DataType::Bool),
        ])
        .unwrap();
        let i = Column::from_opt_i64s(vec![Some(10), Some(2), None, Some(10), Some(i64::MIN), Some(2)]);
        let f = Column::from_f64s(vec![0.5, -0.0, 2.5, 0.5, f64::NEG_INFINITY, 0.0]);
        let b = Column::from_bools(vec![true, false, true, true, false, false]);
        let t = Table::from_batch("t", Batch::new(schema, vec![i, f, b]).unwrap(), 3).unwrap();
        let plan = plan_query(&parse_query("SELECT i, f, b, COUNT(*) FROM t GROUP BY i, f, b").unwrap(), t.schema())
            .unwrap();
        let c = collect(&plan, &t, 2).unwrap();
        let keys: Vec<String> = c.groups.iter().map(|g| g.key.replace('\u{1f}', "|")).collect();
        assert_eq!(
            keys,
            ["-9223372036854775808|-inf|false", "10|0.5|true", "2|-0|false", "2|0|false", "NULL|2.5|true"]
        );
        assert_eq!(c.groups[1].aggs[0].positions, vec![0, 3]);
    }

    #[test]
    fn unsupported_outer_group_by_on_nested() {
        let t = sessions();
        let q = parse_query(
            "SELECT s, AVG(s) FROM (SELECT user_id, SUM(time) AS s FROM sessions GROUP BY user_id) GROUP BY s",
        );
        if let Ok(q) = q {
            if let Ok(plan) = plan_query(&q, t.schema()) {
                assert!(collect(&plan, &t, 1).is_err());
            }
        }
    }
}
