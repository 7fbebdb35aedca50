//! The exact path's aggregation: every (group, aggregate) accumulator takes
//! its values in scan order, and nothing is collected (DESIGN §4 item 2).
//!
//! The partition workers run the chain and resolve group ids as `collect`
//! does; a float column argument stays in the table, read through the
//! selection, and anything else is read out of the partition. Then, in
//! partition order whatever the thread count, each aggregate's numbers are
//! folded in selection order into one typed array of its θ's state per
//! group ([`Accumulators`]), through global group ids. A group's state so
//! takes exactly the values `merge` would have concatenated for it, in the
//! same order, and runs θ's own recurrence over them: the one θ's
//! `estimate` runs over a slice. VARIANCE and STDDEV fold twice, so every
//! partition is read again for them once every group's first fold is
//! centred on its mean. A nested plan folds its inner aggregate
//! per inner group, numbered in the order their first value arrives (as
//! `merge` codes them), and calls the outer θ over the inner values, as
//! `NestedTheta` does.

use std::borrow::Cow;

use aqp_obs::Clock;
use aqp_sql::ast::AggExpr;
use aqp_sql::expr::{eval_selected, Evaluated, Selection};
use aqp_sql::logical::LogicalPlan;
use aqp_stats::estimator::{Accumulators, SampleContext};
use aqp_storage::{Batch, Column, Table};

use super::{chain_stats, decompose, fault_resolved_items, resolve, CollectObs, Keys, OpDelta, PlanShape, UNSEEN};
use crate::engine::prepare_thetas;
use crate::parallel::parallel_map_observed;
use crate::theta::{outer_over_groups, InnerAggregate};
use crate::udf::UdfRegistry;
use crate::Result;

/// Per group, in key order: its key and θ of every aggregate.
type Answers = Vec<(String, Vec<f64>)>;

/// One aggregate's argument over a partition's entries.
enum Argument<'a> {
    /// `COUNT(*)`: every entry counts, and none has a value.
    Rows,
    /// A float column of the table, read in place: entry `k`'s value is
    /// at its row, a number where the mask (`None`: every row) holds.
    Floats(&'a [f64], Option<&'a [bool]>),
    /// Anything else, read out: entry `k`'s value, and which entries are
    /// numbers (`None`: every one).
    Read(Vec<f64>, Option<Vec<bool>>),
}

/// A plan's partitions through the chain, in partition order: what
/// [`Scanned::fold`] reads.
pub(crate) struct Scanned<'a> {
    shape: PlanShape<'a>,
    parts: Vec<Partition<'a>>,
    /// Rows scanned before filtering.
    pub(crate) rows: usize,
}

/// One partition through the chain: every entry's group and every
/// aggregate's argument (a nested plan's: its inner aggregate's).
struct Partition<'a> {
    sel: Selection,
    /// The partition-local group of each entry; empty for the global group.
    gids: Vec<u32>,
    /// The partition's groups, in first-seen order.
    keys: Keys,
    args: Vec<Argument<'a>>,
    op_deltas: Vec<OpDelta>,
}

/// Run the chain over every partition of `table` on up to `threads`
/// workers, resolve each entry's group — by the GROUP BY keys, or a nested
/// plan's by its inner key — and find every aggregate's argument.
pub(crate) fn scan<'a>(plan: &'a LogicalPlan, table: &'a Table, threads: usize, clock: &Clock) -> Result<(Scanned<'a>, CollectObs)> {
    let shape = decompose(plan)?;
    let (items, _) = fault_resolved_items(table, None, clock);
    let rows = items.iter().map(|item| item.keep_rows).sum();
    let (parts, workers) = parallel_map_observed(items, threads, clock, |item| {
        let part = resolve(&shape.chain, &item, shape.keys(), clock)?;
        let args = shape.aggs().iter().map(|agg| match &part.batch {
            Cow::Borrowed(batch) => argument(agg, batch, &part.sel),
            // Read out of a batch the partition drops.
            Cow::Owned(batch) => argument(agg, batch, &part.sel).map(|arg| arg.read_out(&part.sel)),
        });
        let args = args.collect::<Result<_>>()?;
        Ok(Partition { sel: part.sel, gids: part.gids, keys: part.keys, args, op_deltas: part.op_deltas })
    });
    let ops = chain_stats(plan, &shape.chain, parts.iter().flatten().map(|p| &p.op_deltas[..]));
    let parts = parts.into_iter().collect::<Result<_>>()?;
    Ok((Scanned { shape, parts, rows }, CollectObs { ops, workers }))
}

impl Scanned<'_> {
    /// θ of every group and SELECT aggregate, θ resolved through
    /// `registry`, groups in key order; and the number of values the first
    /// aggregate took.
    pub(crate) fn fold(self, registry: &UdfRegistry) -> Result<(Answers, u64)> {
        let ctx = SampleContext::population(self.rows);
        let Scanned { shape, parts, .. } = self;
        let thetas = &prepare_thetas(shape.top_aggs, shape.inner.map(|(agg, _)| agg), registry)?;
        let mut keys = Keys::union(parts.iter().map(|p| &p.keys));
        if let Some(inner) = thetas.first().and_then(|t| t.inner) {
            let (group_values, values) = fold_nested(&parts, inner, keys, ctx.scale())?;
            let outer = thetas.iter().map(|t| outer_over_groups(&t.outer, &group_values)).collect();
            return Ok((vec![(String::new(), outer)], values));
        }
        let grouped = !shape.group_by.is_empty();
        // Every partition group's global id, partition by partition.
        let adopt = |p: &Partition<'_>| (0..p.keys.len()).map(|g| keys.adopt(&p.keys, g)).collect();
        let global: Vec<Vec<u32>> = match grouped {
            true => parts.iter().map(adopt).collect::<Result<_>>()?,
            false => Vec::new(),
        };
        let groups = if grouped { keys.len() } else { 1 };
        let mut accs: Vec<_> = thetas.iter().map(|t| Accumulators::new(t.outer.accumulator(), groups)).collect();
        let mut values = 0;
        for part in &parts {
            if let Some(arg) = part.args.first() {
                numbers(arg, &part.sel, Count(&mut values))?;
            }
        }
        fold_parts(&parts, &global, &mut accs, &vec![true; thetas.len()])?;
        // VARIANCE and STDDEV take their values again, centred.
        let again: Vec<bool> = accs.iter_mut().map(Accumulators::centre).collect();
        if again.contains(&true) {
            fold_parts(&parts, &global, &mut accs, &again)?;
        }
        let mut answers = vec![Vec::with_capacity(thetas.len()); groups];
        for (accs, theta) in accs.into_iter().zip(thetas) {
            let states = accs.into_states().into_iter();
            answers.iter_mut().zip(states).for_each(|(answer, acc)| answer.push(theta.outer.finish(acc, &ctx)));
        }
        let sorted = if grouped { keys.into_sorted() } else { vec![(0, String::new())] };
        Ok((sorted.into_iter().map(|(g, key)| (key, std::mem::take(&mut answers[g]))).collect(), values))
    }
}

/// Every partition's numbers, partition by partition, into `accs[i]` for
/// every aggregate `i` that `which` names: a group's state takes its values
/// in scan order. `global` is every partition group's global id, empty for
/// the global group.
fn fold_parts(parts: &[Partition<'_>], global: &[Vec<u32>], accs: &mut [Accumulators], which: &[bool]) -> Result<()> {
    for (p, part) in parts.iter().enumerate() {
        let gids = global.get(p).map(|global| (&part.gids[..], &global[..]));
        for ((accs, arg), _) in accs.iter_mut().zip(&part.args).zip(which).filter(|(_, &i)| i) {
            match (arg, gids) {
                (Argument::Rows, None) => accs.count((0..part.sel.len()).map(|_| 0)),
                (Argument::Rows, Some((gids, global))) => accs.count(gids.iter().map(|&g| global[g as usize] as usize)),
                (arg, gids) => numbers(arg, &part.sel, Fold(accs, gids))?,
            }
        }
    }
    Ok(())
}

/// `agg`'s argument for the entries of `sel`: a float column stays where
/// it is, anything else is read out through the selection.
fn argument<'b>(agg: &'b AggExpr, batch: &'b Batch, sel: &Selection) -> Result<Argument<'b>> {
    let Some(arg) = &agg.arg else { return Ok(Argument::Rows) };
    Ok(match eval_selected(arg, batch, sel)? {
        Evaluated::Column(Column::Float { values, validity }) => Argument::Floats(values, validity.as_deref()),
        arg => Argument::Read(arg.gather_f64(sel), arg.numbers(sel)),
    })
}

impl Argument<'_> {
    /// The same argument, owning its values.
    fn read_out(self, sel: &Selection) -> Argument<'static> {
        match self {
            Argument::Rows => Argument::Rows,
            Argument::Floats(xs, valid) => {
                Argument::Read(sel.gather(|row| xs[row]), valid.map(|valid| sel.gather(|row| valid[row])))
            }
            Argument::Read(xs, numbers) => Argument::Read(xs, numbers),
        }
    }
}

/// What takes an argument's numbers, as `(entry, value)` in selection
/// order.
trait Take {
    fn take(self, numbers: impl Iterator<Item = (usize, f64)>) -> Result<()>;
}

/// Every number of `arg` with its entry, in selection order, into `take`
/// as one typed run: `COUNT(*)` gives 1.0 for every entry.
fn numbers(arg: &Argument<'_>, sel: &Selection, take: impl Take) -> Result<()> {
    match (arg, sel) {
        (Argument::Rows, sel) => take.take((0..sel.len()).map(|k| (k, 1.0))),
        (Argument::Floats(xs, None), Selection::Prefix(n)) => take.take(xs[..*n].iter().copied().enumerate()),
        (Argument::Floats(xs, None), Selection::Rows(rows)) => {
            take.take(rows.iter().map(|&r| xs[r as usize]).enumerate())
        }
        (Argument::Floats(xs, Some(valid)), Selection::Prefix(n)) => {
            take.take(xs[..*n].iter().copied().enumerate().filter(|&(r, _)| valid[r]))
        }
        (Argument::Floats(xs, Some(valid)), Selection::Rows(rows)) => {
            let rows = rows.iter().map(|&r| r as usize).enumerate();
            take.take(rows.filter(|&(_, r)| valid[r]).map(|(k, r)| (k, xs[r])))
        }
        (Argument::Read(xs, None), _) => take.take(xs.iter().copied().enumerate()),
        (Argument::Read(xs, Some(is)), _) => take.take(xs.iter().copied().enumerate().filter(|&(k, _)| is[k])),
    }
}

/// How many numbers there are.
struct Count<'a>(&'a mut u64);

impl Take for Count<'_> {
    fn take(self, numbers: impl Iterator<Item = (usize, f64)>) -> Result<()> {
        *self.0 += numbers.count() as u64;
        Ok(())
    }
}

/// Into one θ's state per group: entry `k` into group `global[gids[k]]`'s,
/// or the global group's without group ids.
struct Fold<'a>(&'a mut Accumulators, Option<(&'a [u32], &'a [u32])>);

impl Take for Fold<'_> {
    fn take(self, numbers: impl Iterator<Item = (usize, f64)>) -> Result<()> {
        match self.1 {
            None => self.0.fold(numbers.map(|(_, x)| (0, x))),
            Some((gids, global)) => self.0.fold(numbers.map(|(k, x)| (global[gids[k] as usize] as usize, x))),
        }
        Ok(())
    }
}

/// A nested plan's inner aggregate per inner group, a group numbered when
/// its first value arrives: the groups' inner values in that order, and
/// how many values there were.
fn fold_nested(parts: &[Partition<'_>], inner: InnerAggregate, mut keys: Keys, scale: f64) -> Result<(Vec<f64>, u64)> {
    /// Into the inner groups' accumulators and row counts.
    struct Inner<'a> {
        part: &'a Partition<'a>,
        inner: InnerAggregate,
        keys: &'a mut Keys,
        accs: &'a mut Vec<(f64, u64)>,
    }
    impl Take for Inner<'_> {
        fn take(self, numbers: impl Iterator<Item = (usize, f64)>) -> Result<()> {
            let mut global = vec![UNSEEN; self.part.keys.len()];
            for (k, x) in numbers {
                let local = self.part.gids[k] as usize;
                let g = &mut global[local];
                if *g == UNSEEN {
                    *g = self.keys.adopt(&self.part.keys, local)?;
                    self.accs.resize(self.keys.len(), (self.inner.start(), 0));
                }
                let (acc, rows) = &mut self.accs[*g as usize];
                self.inner.push(acc, x, 1);
                *rows += 1;
            }
            Ok(())
        }
    }
    // Per inner group: the accumulator and its row count.
    let mut accs: Vec<(f64, u64)> = Vec::new();
    for part in parts {
        let Some(arg) = part.args.first() else { continue };
        numbers(arg, &part.sel, Inner { part, inner, keys: &mut keys, accs: &mut accs })?;
    }
    let values = accs.iter().map(|&(_, rows)| rows).sum();
    Ok((accs.iter().map(|&(acc, rows)| inner.value(acc, rows, scale)).collect(), values))
}
