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
//! grouped selection — and reads every aggregate's argument through it
//! into one block of values per group (`scan_partition`); `merge` then
//! copies the blocks together in partition order. Row positions are
//! written once per partition, and only for a caller whose diagnostic
//! reads them. The output is bit-identical to a row-at-a-time scan with
//! string group keys (`tests/properties.rs` holds that scan as the oracle).
//!
//! The exact path collects nothing: `fold` runs the same chain and group
//! ids, then folds every (group, aggregate) in scan order.

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

pub(crate) mod fold;

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

/// What a supported plan asks of the scan.
struct PlanShape<'a> {
    /// The pass-through chain below the innermost aggregate, scan first.
    /// `Resample` nodes are recorded but treated as no-ops during
    /// collection (weights are streamed by the engine, not materialized).
    chain: Vec<&'a LogicalPlan>,
    /// The top block's aggregates, in SELECT order.
    top_aggs: &'a [AggExpr],
    /// The top block's keys; a nested plan has none.
    group_by: &'a [String],
    /// A nested plan's inner aggregate and inner key.
    inner: Option<(&'a AggExpr, &'a String)>,
}

impl<'a> PlanShape<'a> {
    /// The aggregates collected per group: a nested plan collects its inner
    /// block's argument as one anonymous top group, coded by the inner key.
    fn aggs(&self) -> &'a [AggExpr] {
        self.inner.map_or(self.top_aggs, |(agg, _)| std::slice::from_ref(agg))
    }

    /// The keys a partition's entries are grouped by: the inner key of a
    /// nested plan.
    fn keys(&self) -> &'a [String] {
        self.inner.map_or(self.group_by, |(_, key)| std::slice::from_ref(key))
    }
}

/// Decompose `plan` into the shapes the executor supports:
/// `Aggregate(chain)` and `Aggregate(Aggregate(chain))` — one nesting
/// level, the outer block without GROUP BY, the inner with one aggregate
/// and one key.
fn decompose(plan: &LogicalPlan) -> Result<PlanShape<'_>> {
    // Strip ErrorEstimate/Diagnostic wrappers.
    let mut node = plan;
    while let LogicalPlan::ErrorEstimate { input, .. } | LogicalPlan::Diagnostic { input } = node {
        node = input;
    }
    let LogicalPlan::Aggregate { input: top_input, group_by, aggs: top_aggs } = node else {
        return Err(ExecError::Unsupported(format!("plan root must be an aggregate, found {node:?}")));
    };
    // An inner aggregate must sit directly under the outer one (the paper's
    // nested queries filter at the base level).
    let mut probe: &LogicalPlan = top_input;
    let (inner, mut below) = loop {
        match probe {
            LogicalPlan::Aggregate { input, group_by: inner_keys, aggs } => {
                if !std::ptr::eq(probe, &**top_input) {
                    return Err(ExecError::Unsupported("operators between nested aggregates are not supported".into()));
                }
                if !group_by.is_empty() {
                    return Err(ExecError::Unsupported(
                        "GROUP BY on the outer block of a nested query is not supported".into(),
                    ));
                }
                let ([inner_agg], [inner_key]) = (aggs.as_slice(), inner_keys.as_slice()) else {
                    return Err(ExecError::Unsupported(
                        "nested inner block must have exactly one aggregate and one group key".into(),
                    ));
                };
                if top_aggs.iter().any(|a| a.arg.is_none() && !matches!(a.func, AggFunc::Count)) {
                    return Err(ExecError::Unsupported("outer aggregate without argument".into()));
                }
                break (Some((inner_agg, inner_key)), &**input);
            }
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Project { input, .. }
            | LogicalPlan::Resample { input, .. }
            | LogicalPlan::TableSample { input, .. } => probe = input,
            LogicalPlan::Scan { .. } => break (None, &**top_input),
            other => return Err(ExecError::Unsupported(format!("unsupported node {other:?}"))),
        }
    };
    let mut chain = vec![below];
    while !matches!(below, LogicalPlan::Scan { .. }) {
        below = below.input().ok_or_else(|| ExecError::Unsupported("chain without scan leaf".into()))?;
        chain.push(below);
    }
    chain.reverse();
    Ok(PlanShape { chain, top_aggs, group_by, inner })
}

/// The name of each SELECT aggregate's results, in SELECT order: the
/// aggregate as written (`AVG(time)`), whichever path answers.
pub fn result_names(plan: &LogicalPlan) -> Result<Vec<String>> {
    Ok(decompose(plan)?.top_aggs.iter().map(ToString::to_string).collect())
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
        Column::Int { .. } => Some(int_value),
        Column::Float { .. } => Some(|code| Value::Float(f64::from_bits(code))),
        Column::Bool { .. } => Some(|code| Value::Bool(code != 0)),
        Column::Str { .. } => None,
    }
}

/// The value an `Int` column's [`key_code`] stands for.
fn int_value(code: u64) -> Value {
    Value::Int(code as i64)
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

/// How many slots per row of its partition a lone `Int` key's table may
/// take: a key whose values span no more is identified by value
/// ([`IntGroups`]), any other by its code ([`CodeGroups`]).
pub const INT_SLOTS_PER_ROW: usize = 2;

/// A lone `Int` key's distinct values in first-seen order (`None` is
/// NULL), each found at its slot in a table that covers a span of values:
/// `v` at `v - lo`, NULL at the last. Nothing is hashed or probed.
struct IntGroups {
    lo: i64,
    /// A group id per slot, `UNSEEN` where none.
    slots: Vec<u32>,
    values: Vec<Option<i64>>,
}

impl IntGroups {
    /// A table for the values `lo..=hi` and NULL, with no group, when it
    /// takes at most `room` slots besides NULL's (NULL's alone when
    /// `lo > hi`: no value).
    fn spanning(lo: i64, hi: i64, room: usize) -> Option<Self> {
        let span = match hi.checked_sub(lo) {
            _ if lo > hi => 0,
            Some(d) if (d as u64) < room as u64 => d as usize + 1,
            _ => return None,
        };
        Some(IntGroups { lo: if span == 0 { 0 } else { lo }, slots: vec![UNSEEN; span + 1], values: Vec::new() })
    }

    /// A table for a partition's `Int` column: the span of its non-NULL
    /// values over every row, whichever rows a scan selects, at most
    /// [`INT_SLOTS_PER_ROW`] slots a row.
    fn of_column(values: &[i64], validity: &Option<Vec<bool>>) -> Option<Self> {
        let bounds = |(lo, hi): (i64, i64), v: i64| (lo.min(v), hi.max(v));
        let (lo, hi) = match validity {
            None => values.iter().copied().fold((i64::MAX, i64::MIN), bounds),
            Some(valid) => {
                values.iter().zip(valid).filter(|(_, &ok)| ok).map(|(&v, _)| v).fold((i64::MAX, i64::MIN), bounds)
            }
        };
        IntGroups::spanning(lo, hi, INT_SLOTS_PER_ROW * values.len())
    }

    /// One table for the values of every set of `all`, each a lone `Int`
    /// key's identified by value; `None` when one is not, or when the span
    /// of all is wider than their tables together.
    fn union<'k>(all: impl Iterator<Item = &'k Keys>) -> Option<Self> {
        let (mut lo, mut hi, mut room) = (i64::MAX, i64::MIN, 0);
        for keys in all {
            let Keys::Ints(part) = keys else { return None };
            let span = part.slots.len() - 1;
            if span > 0 {
                (lo, hi, room) = (lo.min(part.lo), hi.max(part.lo + (span - 1) as i64), room + span);
            }
        }
        IntGroups::spanning(lo, hi, room)
    }

    /// The id of `value`'s group, the next free one when it is new; the
    /// value lies in the table's span.
    #[inline]
    fn id_of(&mut self, value: Option<i64>) -> u32 {
        let slot = value.map_or(self.slots.len() - 1, |v| v.wrapping_sub(self.lo) as usize);
        if self.slots[slot] == UNSEEN {
            self.slots[slot] = self.values.len() as u32;
            self.values.push(value);
        }
        self.slots[slot]
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
    /// A lone `Int` key whose values span few slots: the value.
    Ints(IntGroups),
}

impl Keys {
    fn len(&self) -> usize {
        match self {
            Keys::Rendered(keys, _) => keys.len(),
            Keys::Typed(_, groups) => groups.len(),
            Keys::Ints(groups) => groups.values.len(),
        }
    }

    /// An empty set that identifies the groups of every set of `all` the
    /// way they do. A lone `Int` key is identified by value when every set
    /// is, and the span of all their tables is no wider than they are
    /// together — so no wider than [`INT_SLOTS_PER_ROW`] slots a row — and
    /// by its code otherwise.
    fn union<'k>(mut all: impl Iterator<Item = &'k Keys> + Clone) -> Keys {
        match all.clone().next() {
            None | Some(Keys::Rendered(..)) => Keys::Rendered(Vec::new(), HashMap::new()),
            Some(Keys::Typed(decode, groups)) => Keys::Typed(decode.clone(), CodeGroups::new(groups.width)),
            Some(Keys::Ints(_)) => IntGroups::union(&mut all)
                .map_or_else(|| Keys::Typed(vec![int_value], CodeGroups::new(1)), Keys::Ints),
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

    /// The id here of `from`'s group `local`, the next free one when new;
    /// `self` is the [`Keys::union`] of a list that holds `from`.
    #[inline]
    fn adopt(&mut self, from: &Keys, local: usize) -> Result<u32> {
        match (self, from) {
            (Keys::Rendered(keys, ids), Keys::Rendered(part, _)) => Ok(Keys::intern(keys, ids, &part[local])),
            (Keys::Typed(_, all), Keys::Typed(_, part)) => Ok(all.id_of(part.tuple(local))),
            (Keys::Ints(all), Keys::Ints(part)) => Ok(all.id_of(part.values[local])),
            (Keys::Typed(_, all), Keys::Ints(part)) if all.width == 1 => {
                Ok(all.id_of(&[part.values[local].map(|v| v as u64)]))
            }
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
            Keys::Ints(groups) => groups.values.iter().map(|&v| int_key(v)).collect(),
        }
    }

    /// Every group's id and key string, in the order of the strings (keys
    /// are distinct, so there is one). A lone `Int` key is ordered by its
    /// values ([`string_order`]) and rendered in that order.
    fn into_sorted(self) -> Vec<(usize, String)> {
        if let Keys::Ints(groups) = &self {
            let mut order: Vec<(u128, usize)> =
                groups.values.iter().enumerate().map(|(g, &v)| (string_order(v), g)).collect();
            order.sort_unstable();
            return order.into_iter().map(|(_, g)| (g, int_key(groups.values[g]))).collect();
        }
        let mut keys: Vec<(usize, String)> = self.into_rendered().into_iter().enumerate().collect();
        keys.sort_unstable_by(|a, b| a.1.cmp(&b.1));
        keys
    }
}

/// A lone `Int` key's string, as `Value`'s `Display` writes it.
fn int_key(value: Option<i64>) -> String {
    value.map_or_else(|| Value::Null.to_string(), |v| v.to_string())
}

/// A number that orders `Int` keys as their strings ([`int_key`]) order:
/// `-` before a digit before the `N` of NULL, then the digits of |v| read
/// as a decimal fraction (a prefix comes first), then fewer digits first.
fn string_order(value: Option<i64>) -> u128 {
    let Some(v) = value else { return 2 << 72 };
    let abs = v.unsigned_abs(); // at most 19 digits
    let digits = abs.checked_ilog10().map_or(1, |d| d + 1);
    u128::from(v >= 0) << 72 | u128::from(abs * 10u64.pow(19 - digits)) << 8 | u128::from(digits)
}

/// Resolve the group of every selection entry. Key columns that are all
/// `Int` / `Float` / `Bool` identify a group by its typed code tuple: that
/// is the relation "renders the same string" (integers and booleans print
/// injectively, floats too once NaNs share a code, and no such cell can
/// print the separator or spell a NULL), at no string per row or group. A
/// key that holds a string column identifies groups by the rendered
/// string, so a `'NULL'` string and NULL share a group as rendered keys
/// always did; it is rendered once per distinct code tuple. A lone column
/// whose codes are dense — a dictionary's, a boolean's, an `Int`'s whose
/// values span few slots ([`IntGroups::of_column`]) — is read in one typed loop
/// through a slot table, the `Int` identified by value; any other key
/// finds its tuple through the partition's [`CodeGroups`]. Returns the
/// partition-local group id per entry and the groups' keys.
fn assign_groups(batch: &Batch, key_cols: &[usize], sel: &Selection) -> (Vec<u32>, Keys) {
    let cols: Vec<&Column> = key_cols.iter().map(|&c| batch.column(c)).collect();
    if let [Column::Int { values, validity }] = cols.as_slice() {
        if let Some(mut groups) = IntGroups::of_column(values, validity) {
            let gids = match validity {
                None => sel.gather(|row| groups.id_of(Some(values[row]))),
                Some(valid) => sel.gather(|row| groups.id_of(valid[row].then(|| values[row]))),
            };
            return (gids, Keys::Ints(groups));
        }
    }
    let decode = cols.iter().map(|col| decoder(col)).collect::<Option<Vec<_>>>();
    let mut tuples = CodeGroups::new(cols.len());
    let mut code = Vec::with_capacity(cols.len());
    // For a key with a string column, the group of each distinct tuple:
    // its string's.
    let (mut keys, mut ids, mut seen) = (Vec::new(), HashMap::new(), Vec::new());
    let group_of = |row: usize| {
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
    let gids = match cols.as_slice() {
        [Column::Str { dict, codes, validity }] => {
            dense_ids(sel, dict.len(), validity, |row| codes[row] as usize, group_of)
        }
        [Column::Bool { values, validity }] => dense_ids(sel, 2, validity, |row| usize::from(values[row]), group_of),
        _ => sel.gather(group_of),
    };
    (gids, decode.map_or(Keys::Rendered(keys, ids), |decode| Keys::Typed(decode, tuples)))
}

/// The GROUP BY groups of every row of `table` under the key columns
/// `key_cols`, by the identity `assign_groups` gives a scan: each key's
/// rendered string and its row numbers in scan order, the keys in
/// first-seen order.
pub fn group_rows(table: &Table, key_cols: &[usize]) -> Result<Vec<(String, Vec<usize>)>> {
    let parts: Vec<_> = table
        .partitions()
        .iter()
        .map(|part| assign_groups(part.batch(), key_cols, &Selection::Prefix(part.batch().num_rows())))
        .collect();
    let mut all = Keys::union(parts.iter().map(|(_, keys)| keys));
    let (mut rows, mut start) = (Vec::<Vec<usize>>::new(), 0);
    for (gids, keys) in &parts {
        let ids = (0..keys.len()).map(|g| all.adopt(keys, g)).collect::<Result<Vec<_>>>()?;
        rows.resize(all.len(), Vec::new());
        gids.iter().enumerate().for_each(|(row, &g)| rows[ids[g as usize] as usize].push(start + row));
        start += gids.len();
    }
    Ok(all.into_rendered().into_iter().zip(rows).collect())
}

/// The group of every entry of `sel` under a lone key column with `n`
/// dense codes — `code(row)`, NULL where `validity` says so — through a
/// slot table in front of `group_of`: a slot per code and the last for
/// NULL, each filled at the first row that brings it.
fn dense_ids(
    sel: &Selection,
    n: usize,
    validity: &Option<Vec<bool>>,
    code: impl Fn(usize) -> usize,
    mut group_of: impl FnMut(usize) -> u32,
) -> Vec<u32> {
    /// A slot's first row: its group, out of the loop.
    #[cold]
    #[inline(never)]
    fn first(slot: &mut u32, row: usize, group_of: &mut dyn FnMut(usize) -> u32) -> u32 {
        *slot = group_of(row);
        *slot
    }
    let mut slots = vec![UNSEEN; n + 1];
    let mut id = |row: usize, slot: usize| match slots[slot] {
        UNSEEN => first(&mut slots[slot], row, &mut group_of),
        id => id,
    };
    match validity {
        None => sel.gather(|row| id(row, code(row))),
        Some(valid) => sel.gather(|row| id(row, if valid[row] { code(row) } else { n })),
    }
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

/// One partition through the chain, the group of every entry resolved.
struct Resolved<'a> {
    /// The batch the selection indexes.
    batch: Cow<'a, Batch>,
    sel: Selection,
    /// The partition-local group of each entry; empty for the global group.
    gids: Vec<u32>,
    /// The partition's groups, in first-seen order.
    keys: Keys,
    // Per chain operator, this partition's counter deltas.
    op_deltas: Vec<OpDelta>,
}

/// Run the chain over one partition and resolve the group of every entry
/// under `keys` once. The global group exists once a row survives.
fn resolve<'a>(chain: &[&LogicalPlan], item: &ScanItem<'a>, keys: &[String], clock: &Clock) -> Result<Resolved<'a>> {
    let (batch, sel, op_deltas) = run_chain(chain, item, clock)?;
    let cols = keys.iter().map(|k| batch.schema().index_of(k)).collect::<aqp_storage::Result<Vec<_>>>()?;
    let (gids, keys) = match cols.as_slice() {
        [] => (Vec::new(), Keys::Rendered(vec![String::new(); usize::from(!sel.is_empty())], HashMap::new())),
        cols => assign_groups(&batch, cols, &sel),
    };
    Ok(Resolved { batch, sel, gids, keys, op_deltas })
}

/// Scan one partition: run the chain, resolve group ids once
/// ([`resolve`]), turn them into a slot per selection entry, and read
/// every aggregate's argument through the selection into its slots: pushed
/// in order where the slots are the entries' own (the global group's,
/// every entry a number), else scattered. `None` when the partition was
/// lost.
fn scan_partition(
    shape: &PlanShape<'_>, item: ScanItem<'_>, with_positions: bool, clock: &Clock,
) -> Result<Option<PartitionScan>> {
    if item.lost {
        return Ok(None);
    }
    let Resolved { batch, sel, gids, keys, op_deltas } = resolve(&shape.chain, &item, shape.keys(), clock)?;
    // A nested plan resolved its inner groups; its one global group exists
    // once a partition survives.
    let (gids, keys, inner_gids, inner_keys) = match shape.inner {
        Some(_) => (Vec::new(), Keys::Rendered(vec![String::new()], HashMap::new()), gids, keys),
        None => (gids, keys, Vec::new(), Keys::Rendered(Vec::new(), HashMap::new())),
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
        let position = |row: usize| item.offset + row as u32;
        let positions = match (with_positions, &dest) {
            (false, _) => Vec::new(),
            (true, None) => sel.gather(position),
            (true, Some(dest)) => {
                let mut positions = vec![0; n + 1];
                sel.scatter(dest, &mut positions, position);
                positions
            }
        };
        let codes = match &dest {
            None => inner_gids.clone(),
            Some(dest) => {
                let mut codes = vec![0; inner_gids.len() + 1];
                Selection::Prefix(inner_gids.len()).scatter(dest, &mut codes, |k| inner_gids[k]);
                codes
            }
        };
        (dest, Arc::new(Slots { ends, positions, codes }))
    };
    let shared = slots(None);
    let mut out = Vec::with_capacity(shape.aggs().len());
    for agg in shape.aggs() {
        // `COUNT(*)` counts every entry; an argument, its non-NULL numbers.
        let Some(arg) = &agg.arg else {
            out.push(Blocks { values: vec![1.0; n], slots: shared.1.clone() });
            continue;
        };
        let arg = eval_selected(arg, &batch, &sel)?;
        let own = arg.numbers(&sel).map(|numbers| slots(Some(&numbers)));
        let (dest, slots) = own.as_ref().unwrap_or(&shared);
        let values = match dest {
            None => arg.gather_f64(&sel),
            Some(dest) => {
                let mut values = vec![0.0; n + 1];
                arg.scatter_f64(&sel, dest, &mut values);
                values
            }
        };
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
fn chain_stats<'d>(
    plan: &LogicalPlan,
    chain: &[&LogicalPlan],
    partitions: impl Iterator<Item = &'d [OpDelta]>,
) -> Vec<OpStats> {
    let mut totals = vec![OpDelta::default(); chain.len()];
    for op_deltas in partitions {
        for (i, d) in op_deltas.iter().enumerate() {
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
    scan(plan, table, threads, &Clock::Real, None, true).map(|(c, ..)| c)
}

/// [`collect`], observed: per-operator and per-worker stats measured on
/// `clock` (the engine turns these into `op:`/`worker` trace spans for
/// `aqp-prof`), and deterministic fault injection — each partition task
/// is resolved against `injector`'s plan before dispatch (lost partitions
/// are skipped, truncated ones scan only a prefix), and the returned
/// [`ScanFaultSummary`] describes what was injected and what survived;
/// with `injector = None` the scan is fault-free. Every
/// `AggData::positions` stays empty unless `with_positions`: only the
/// diagnostic's row-range subsampling reads them, so the pilot and the
/// baseline's plain scans do not ask (the exact path collects nothing:
/// `fold`).
pub fn scan(
    plan: &LogicalPlan,
    table: &Table,
    threads: usize,
    clock: &Clock,
    injector: Option<&FaultInjector>,
    with_positions: bool,
) -> Result<(Collected, CollectObs, Option<ScanFaultSummary>)> {
    let shape = decompose(plan)?;
    let (items, fault_summary) = fault_resolved_items(table, injector, clock);
    let pre_filter_rows = items.iter().map(|item| item.keep_rows).sum(); // a lost one keeps 0
    let (scans, workers) =
        parallel_map_observed(items, threads, clock, |item| scan_partition(&shape, item, with_positions, clock));
    let ops = chain_stats(plan, &shape.chain, scans.iter().flatten().flatten().map(|p| &p.op_deltas[..]));
    let (top_aggs, inner) = (shape.top_aggs, shape.inner);
    let mut groups = merge(scans, shape.aggs().len(), inner.is_some(), with_positions)?;
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
    if shape.group_by.is_empty() && groups.is_empty() {
        groups.push(Group { key: String::new(), aggs: vec![AggData::default(); top_aggs.len()] });
    }
    let collected = Collected {
        pre_filter_rows,
        groups,
        agg_exprs: top_aggs.to_vec(),
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
    if scans.is_empty() {
        return Ok(Vec::new());
    }

    // Global groups in first-seen order with the number of values each
    // aggregate receives, and every partition group's global index.
    let mut keys = Keys::union(scans.iter().map(|scan| &scan.keys));
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
    let mut groups: Vec<Vec<AggData>> = sizes
        .into_iter()
        .map(|sizes| {
            let data = |n| AggData {
                values: Vec::with_capacity(n),
                positions: Vec::with_capacity(if with_positions { n } else { 0 }),
                nested: nested.then(|| NestedData { codes: Vec::with_capacity(n), n_codes: 0 }),
            };
            sizes.into_iter().map(data).collect()
        })
        .collect();

    let mut inner_keys = Keys::union(scans.iter().map(|scan| &scan.inner_keys));
    let mut global_of = global_of.into_iter();
    for scan in &scans {
        let mut code_of = vec![UNSEEN; scan.inner_keys.len()];
        for (local, g) in (0..scan.keys.len()).zip(global_of.by_ref()) {
            for (data, part) in groups[g].iter_mut().zip(&scan.aggs) {
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
    // Deterministic group order regardless of partition interleaving.
    Ok(keys.into_sorted().into_iter().map(|(g, key)| Group { key, aggs: std::mem::take(&mut groups[g]) }).collect())
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
            let (_, obs, _) = scan(&plan, &t, threads, &Clock::Real, None, true).unwrap();
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
        let (a, a_obs, _) = scan(&direct, &t, 2, &Clock::Real, None, true).unwrap();
        let (b, b_obs, _) = scan(&projected, &t, 2, &Clock::Real, None, true).unwrap();
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
        // `group_rows` groups the table's rows as the scan does.
        for (cols, sql) in [([0], "SELECT s, COUNT(*) FROM t GROUP BY s"), ([1], "SELECT f, COUNT(*) FROM t GROUP BY f")] {
            let mut rows = group_rows(&t, &cols).unwrap();
            rows.sort();
            let rows = rows.into_iter().map(|(k, r)| (k, r.into_iter().map(|r| r as u32).collect()));
            assert_eq!(rows.collect::<Vec<_>>(), run(sql), "{sql}");
        }
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
    fn a_lone_int_key_takes_a_slot_table_up_to_its_bound() {
        // Four rows admit a span of eight slots, NULLs aside, and no more.
        let span = |values: &[i64], validity: Option<Vec<bool>>| {
            IntGroups::of_column(values, &validity).map(|g| (g.lo, g.slots.len() - 1))
        };
        assert_eq!(span(&[-3, 4, 0, 1], None), Some((-3, 8)));
        assert_eq!(span(&[-3, 5, 0, 1], None), None);
        assert_eq!(span(&[-3, 99, 0, 4], Some(vec![true, false, true, true])), Some((-3, 8)));
        assert_eq!(span(&[7, 7, 0, 0], Some(vec![false; 4])), Some((0, 0)));
        assert_eq!(span(&[i64::MIN, i64::MAX, 0, 0], None), None);
        // Across partitions, by value while the union is no wider than the
        // tables together; by code once it is, or once one partition is.
        let part = |values: &[i64]| {
            let mut groups = IntGroups::of_column(values, &None).expect("narrow");
            for &v in values {
                groups.id_of(Some(v));
            }
            Keys::Ints(groups)
        };
        let (a, b, far) = (part(&[0, 1, 2, 3]), part(&[4, 5, 6, 7]), part(&[100, 101]));
        let Keys::Ints(both) = Keys::union([&a, &b].into_iter()) else { panic!("by value") };
        assert_eq!((both.lo, both.slots.len() - 1), (0, 8));
        assert!(matches!(Keys::union([&a, &far].into_iter()), Keys::Typed(..)));
        let sparse = Keys::Typed(vec![int_value], CodeGroups::new(1));
        let mut all = Keys::union([&a, &sparse].into_iter());
        assert!(matches!(all, Keys::Typed(..)));
        assert_eq!((0..4).map(|g| all.adopt(&a, g).unwrap()).collect::<Vec<_>>(), [0, 1, 2, 3]);
    }

    #[test]
    fn int_keys_sort_as_their_strings() {
        let mut values: Vec<Option<i64>> = [0, 1, -1, 9, 10, 2, 19, 100, 99, -10, -9, -100, 1_000_000, i64::MIN, i64::MAX]
            .into_iter()
            .flat_map(|v| [Some(v), Some(v / 7), Some(v.saturating_sub(1))])
            .chain([None])
            .collect();
        values.sort();
        values.dedup();
        let mut by_string = values.clone();
        by_string.sort_by_key(|&v| int_key(v));
        let mut by_order = values;
        by_order.sort_by_key(|&v| string_order(v));
        assert_eq!(by_order, by_string);
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
