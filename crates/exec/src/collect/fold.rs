//! The exact path's aggregation: every (group, aggregate) accumulator takes
//! its values in scan order, and nothing is collected (DESIGN §4 item 2).
//!
//! The partition workers run the chain, resolve group ids as `collect`
//! does and read every aggregate's argument out of the partition. Then, in
//! partition order whatever the thread count, each aggregate's values are
//! folded into their groups' accumulators, in selection order. A group's
//! accumulator so takes exactly the values `merge` would have concatenated
//! for it, in the same order, and runs θ's own recurrence over them: the
//! [`Accumulator`] that θ's `estimate` runs over a slice. A nested plan
//! folds its inner aggregate per inner group, numbered in the order their
//! first value arrives (as `merge` codes them), and calls the outer θ over
//! the inner values, as `NestedTheta` does.

use std::borrow::Cow;
use std::collections::HashMap;

use aqp_obs::Clock;
use aqp_sql::ast::AggExpr;
use aqp_sql::expr::{eval_selected, Evaluated, Selection};
use aqp_sql::logical::LogicalPlan;
use aqp_stats::estimator::{Accumulator, SampleContext};
use aqp_storage::{Batch, Column, Table};

use super::{chain_stats, decompose, fault_resolved_items, resolve, CollectObs, Keys, OpDelta, PlanShape, UNSEEN};
use crate::engine::prepare_thetas;
use crate::parallel::parallel_map_observed;
use crate::theta::{outer_over_groups, InnerAggregate};
use crate::udf::UdfRegistry;
use crate::Result;

/// Per group, in key order: its key and θ of every aggregate.
type Answers = Vec<(String, Vec<f64>)>;

/// One aggregate's argument for every entry of a partition, in selection
/// order, and which entries are numbers (`None`: every one).
type Argument<'a> = (Cow<'a, [f64]>, Option<Vec<bool>>);

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
    /// The partition-local group of each entry; empty for the global group.
    gids: Vec<u32>,
    /// The partition's groups, in first-seen order.
    keys: Keys,
    args: Vec<Argument<'a>>,
    op_deltas: Vec<OpDelta>,
}

/// Run the chain over every partition of `table` on up to `threads`
/// workers, resolve each entry's group — by the GROUP BY keys, or a nested
/// plan's by its inner key — and read every aggregate's argument.
pub(crate) fn scan<'a>(plan: &'a LogicalPlan, table: &'a Table, threads: usize, clock: &Clock) -> Result<(Scanned<'a>, CollectObs)> {
    let shape = decompose(plan)?;
    let (items, _) = fault_resolved_items(table, None, clock);
    let rows = items.iter().map(|item| item.keep_rows).sum();
    let (parts, workers) = parallel_map_observed(items, threads, clock, |item| {
        let part = resolve(&shape.chain, &item, shape.keys(), clock)?;
        let args = shape.aggs().iter().map(|agg| match &part.batch {
            Cow::Borrowed(batch) => argument(agg, batch, &part.sel),
            // Read out of a batch the partition drops.
            Cow::Owned(batch) => argument(agg, batch, &part.sel).map(|(xs, is)| (Cow::Owned(xs.into_owned()), is)),
        });
        let args = args.collect::<Result<_>>()?;
        Ok(Partition { gids: part.gids, keys: part.keys, args, op_deltas: part.op_deltas })
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
        let mut keys = parts.first().map_or_else(|| Keys::Rendered(Vec::new(), HashMap::new()), |p| p.keys.like());
        if let Some(inner) = thetas.first().and_then(|t| t.inner) {
            let (group_values, values) = fold_nested(&parts, inner, keys, ctx.scale())?;
            let outer = thetas.iter().map(|t| outer_over_groups(&t.outer, &group_values)).collect();
            return Ok((vec![(String::new(), outer)], values));
        }
        let grouped = !shape.group_by.is_empty();
        // Per aggregate, one accumulator per group: the global group's without keys.
        let mut accs: Vec<Vec<Accumulator>> = thetas.iter().map(|_| Vec::new()).collect();
        let mut values = 0;
        for mut part in parts {
            if grouped {
                // Partition-local ids become global ones.
                let global: Vec<u32> = (0..part.keys.len()).map(|g| keys.adopt(&part.keys, g)).collect::<Result<_>>()?;
                part.gids.iter_mut().for_each(|g| *g = global[*g as usize]);
            }
            for (i, ((accs, theta), (xs, numbers))) in accs.iter_mut().zip(thetas).zip(&part.args).enumerate() {
                if i == 0 {
                    values += numbers.as_ref().map_or(xs.len(), |is| is.iter().filter(|&&is| is).count()) as u64;
                }
                accs.resize(keys.len().max(1), theta.outer.accumulator());
                // Every number, into its group's accumulator: the global one without `gids`.
                let entries = xs.iter().enumerate().filter(|&(k, _)| numbers.as_ref().is_none_or(|is| is[k]));
                Accumulator::fold(accs, entries.map(|(k, &x)| (part.gids.get(k).map_or(0, |&g| g as usize), x)));
            }
        }
        let rendered = if grouped { keys.into_rendered() } else { vec![String::new()] };
        let mut answers = vec![Vec::with_capacity(thetas.len()); rendered.len()];
        for (mut accs, theta) in accs.into_iter().zip(thetas) {
            // An accumulator for every group, and the global one without a partition.
            accs.resize(rendered.len(), theta.outer.accumulator());
            answers.iter_mut().zip(accs).for_each(|(answer, acc)| answer.push(theta.outer.finish(acc, &ctx)));
        }
        let mut groups: Answers = rendered.into_iter().zip(answers).collect();
        // Keys are distinct, so an unstable sort has one outcome.
        groups.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        Ok((groups, values))
    }
}

/// `agg`'s argument for every entry of `sel` — a float column's prefix read
/// in place, anything else read out through the selection.
fn argument<'b>(agg: &'b AggExpr, batch: &'b Batch, sel: &Selection) -> Result<Argument<'b>> {
    let Some(arg) = &agg.arg else {
        // `COUNT(*)` counts every entry.
        return Ok((Cow::Owned(vec![1.0; sel.len()]), None));
    };
    let arg = eval_selected(arg, batch, sel)?;
    let numbers = arg.numbers(sel);
    let xs = match (arg, sel) {
        (Evaluated::Column(Column::Float { values, .. }), Selection::Prefix(n)) => Cow::Borrowed(&values[..*n]),
        (arg, sel) => {
            let mut xs = vec![0.0; sel.len()];
            arg.scatter_f64(sel, None, &mut xs);
            Cow::Owned(xs)
        }
    };
    Ok((xs, numbers))
}

/// A nested plan's inner aggregate per inner group, a group numbered when
/// its first value arrives: the groups' inner values in that order, and
/// how many values there were.
fn fold_nested(parts: &[Partition<'_>], inner: InnerAggregate, mut keys: Keys, scale: f64) -> Result<(Vec<f64>, u64)> {
    // Per inner group: the accumulator and its row count.
    let mut accs: Vec<(f64, u64)> = Vec::new();
    for part in parts {
        let Some((xs, numbers)) = part.args.first() else { continue };
        let mut global = vec![UNSEEN; part.keys.len()];
        let entries = xs.iter().zip(&part.gids).enumerate();
        for (_, (&x, &local)) in entries.filter(|&(k, _)| numbers.as_ref().is_none_or(|is| is[k])) {
            let g = &mut global[local as usize];
            if *g == UNSEEN {
                *g = keys.adopt(&part.keys, local as usize)?;
                accs.resize(keys.len(), (inner.start(), 0));
            }
            let (acc, rows) = &mut accs[*g as usize];
            inner.push(acc, x, 1);
            *rows += 1;
        }
    }
    let values = accs.iter().map(|&(_, rows)| rows).sum();
    Ok((accs.iter().map(|&(acc, rows)| inner.value(acc, rows, scale)).collect(), values))
}
