//! The scan's kernels, one thread, on the benchmark's table: ns per row
//! and per collected value of `collect` (positions built, as the
//! approximate path with a diagnostic asks) and ns per row of
//! `execute_exact` (the same chain and group ids, then every group's
//! accumulators folded in scan order; nothing collected), for the query
//! shapes the workloads are made of. `same bits` says whether
//! `execute_exact` answered, on every group and aggregate, exactly what θ
//! over `collect`'s values gives. `collect` is split four ways from what
//! `scan` reports, medians over the rounds:
//!
//! * `filter` — busy time of the chain operators (`CollectObs::ops`);
//! * `grouping` — what the partition workers spend besides the chain when
//!   the SELECT list is `COUNT(*)` alone: resolving group ids, turning
//!   them into the grouped selection, writing positions and inner codes;
//! * `gather` — what the query's own aggregates add to that;
//! * `merge` — wall time outside the workers: blocks copied together,
//!   keys rendered and sorted.
//!
//! A second table times what a session's set-up does to the table: a
//! 50 000-row `SampleSet::add_from_indices` of the 500 000-row table, the
//! whole table through `Table::to_batch`, and a 20 000-row sample of a
//! 2 000 000-row table. `same bytes` says whether each wrote what the
//! `Value`-based reference below writes, column for column.
//!
//! ```bash
//! cargo run --release -p aqp-exec --example scan_kernels
//! ```

use std::time::Duration;

use aqp_exec::collect::{scan, Collected};
use aqp_exec::theta::PreparedTheta;
use aqp_exec::{execute_exact, ExactResult, UdfRegistry};
use aqp_obs::Clock;
use aqp_sql::logical::LogicalPlan;
use aqp_sql::{parse_query, plan_query};
use aqp_stats::estimator::SampleContext;
use aqp_stats::rng::rng_from_seed;
use aqp_stats::sampling::without_replacement_indices;
use aqp_storage::{Batch, Column, DataType, SampleSet, SamplingStrategy, Table, Value};
use aqp_workload::conviva_sessions_table;

const ROWS: usize = 500_000;
const ROUNDS: usize = 15;
const SETUP_ROUNDS: usize = 5;

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// Whether `exact` is θ over `collected`'s values, bit for bit.
fn same_bits(exact: &ExactResult, collected: &Collected, registry: &UdfRegistry) -> bool {
    let ctx = SampleContext::population(collected.pre_filter_rows);
    let prepare = |a| PreparedTheta::prepare(a, collected.inner_agg.as_ref(), registry).expect("θ prepares");
    let thetas: Vec<PreparedTheta> = collected.agg_exprs.iter().map(prepare).collect();
    exact.groups.len() == collected.groups.len()
        && exact.groups.iter().zip(&collected.groups).all(|((key, vals), g)| {
            let want = g.aggs.iter().zip(&thetas).map(|(data, theta)| theta.estimate(data, &ctx).to_bits());
            *key == g.key && vals.iter().map(|v| v.to_bits()).eq(want)
        })
}

/// Medians over the rounds of one `collect`, in ns: wall, the chain
/// operators, the partition workers; the values collected and the last
/// round's output.
fn collect_ns(plan: &LogicalPlan, table: &Table) -> ([f64; 3], usize, Collected) {
    let clock = Clock::real();
    let mut values = 0;
    let mut last = None;
    // One more round than is kept: the first finds the columns cold.
    let rounds: Vec<[f64; 3]> = (0..=ROUNDS)
        .map(|_| {
            let (out, wall) = clock.time(|| scan(plan, table, 1, &clock, None, true));
            let (collected, obs, _) = out.expect("the plan collects");
            values = collected.groups.iter().flat_map(|g| &g.aggs).map(|a| a.values.len()).sum();
            std::hint::black_box(&collected);
            last = Some(collected);
            let chain: u128 = obs.ops.iter().map(|o| o.busy.as_nanos()).sum();
            let workers: u128 = obs.workers.iter().map(|w| w.busy.as_nanos()).sum();
            [wall.as_nanos() as f64, chain as f64, workers as f64]
        })
        .skip(1)
        .collect();
    ([0, 1, 2].map(|i| median(rounds.iter().map(|r| r[i]).collect())), values, last.expect("one round"))
}

/// The rows at `indices` of `table` as the `Value`-based concat wrote
/// them: every cell of the table through `Column::value`, re-encoded by
/// `from_opt_*` / `from_strs` (a NULL holds the type's zero, the mask is
/// kept when any cell is NULL, the dictionary is in first-seen row
/// order), then gathered.
fn reference(table: &Table, indices: &[usize]) -> Vec<Column> {
    let column = |c: usize| {
        let cells: Vec<Value> = table
            .partitions()
            .iter()
            .map(|p| p.batch().column(c))
            .flat_map(|col| (0..col.len()).map(|i| col.value(i).expect("in range")))
            .collect();
        let mask: Vec<bool> = cells.iter().map(|v| !v.is_null()).collect();
        let validity = mask.contains(&false).then_some(mask);
        let whole = match table.schema().fields()[c].data_type {
            DataType::Int => Column::from_opt_i64s(
                cells.iter().map(|v| if let Value::Int(x) = v { Some(*x) } else { None }).collect(),
            ),
            DataType::Float => Column::from_opt_f64s(
                cells.iter().map(|v| if let Value::Float(x) = v { Some(*x) } else { None }).collect(),
            ),
            DataType::Bool => {
                Column::Bool { values: cells.iter().map(|v| *v == Value::Bool(true)).collect(), validity }
            }
            DataType::Str => {
                let strs: Vec<&str> = cells.iter().filter_map(Value::as_str).collect();
                let Column::Str { dict, codes: dense, .. } = Column::from_strs(&strs) else {
                    unreachable!("from_strs writes a string column")
                };
                let mut dense = dense.into_iter();
                let codes = cells.iter().map(|v| if v.is_null() { 0 } else { dense.next().unwrap_or(0) }).collect();
                Column::Str { dict, codes, validity }
            }
        };
        whole.gather(indices).expect("in range")
    };
    (0..table.schema().len()).map(column).collect()
}

/// Whether `batch` holds `want`, column for column, floats by their bits.
fn same_bytes(batch: &Batch, want: &[Column]) -> bool {
    batch.columns().len() == want.len()
        && batch.columns().iter().zip(want).all(|(a, b)| match (a, b) {
            (Column::Float { values: x, validity: vx }, Column::Float { values: y, validity: vy }) => {
                vx == vy && x.iter().map(|v| v.to_bits()).eq(y.iter().map(|v| v.to_bits()))
            }
            _ => a == b,
        })
}

/// One row of the set-up table: the median ms `step` timed over the
/// rounds, and whether the partitions of its last table hold the
/// reference rows at `indices`, cut into as many partitions.
fn setup_row(what: &str, table: &Table, indices: &[usize], step: impl Fn(&Clock) -> (Table, Duration)) {
    let clock = Clock::real();
    let mut last = None;
    let ms = median(
        (0..SETUP_ROUNDS)
            .map(|_| {
                let (out, took) = step(&clock);
                last = Some(std::hint::black_box(out));
                took.as_secs_f64() * 1e3
            })
            .collect(),
    );
    let got = last.expect("one round");
    let want = Batch::new(table.schema().clone(), reference(table, indices)).expect("the reference is a batch");
    let want = Table::from_batch("reference", want, got.num_partitions()).expect("the reference partitions");
    let same = got.partitions().iter().zip(want.partitions()).all(|(a, b)| same_bytes(a.batch(), b.batch().columns()));
    println!("| {what} | {} | {ms:.2} | {same} |", indices.len());
}

/// The set-up table: a sample of `n` rows of `table`, then (`whole`) all
/// of it.
fn setup_rows(table: &Table, n: usize, whole: bool) {
    let rows = table.num_rows();
    let indices = without_replacement_indices(&mut rng_from_seed(7), n, rows);
    let parts = table.num_partitions();
    setup_row(&format!("`add_from_indices`, {n} of {rows} rows"), table, &indices, |clock| {
        let mut set = SampleSet::new();
        let strategy = SamplingStrategy::WithoutReplacement;
        let (added, took) = clock.time(|| set.add_from_indices(table, &indices, strategy, 7, parts).map(drop));
        added.expect("the sample gathers");
        (set.samples()[0].data.clone(), took)
    });
    if whole {
        let all: Vec<usize> = (0..rows).collect();
        setup_row(&format!("`to_batch`, {rows} rows"), table, &all, |clock| {
            let (batch, took) = clock.time(|| table.to_batch());
            (Table::from_batch("whole", batch.expect("the table reads"), 1).expect("one partition"), took)
        });
    }
}

fn plan(table: &Table, select: &str, rest: &str) -> LogicalPlan {
    let sql = match rest.strip_prefix("NESTED ") {
        Some(rest) => format!("SELECT AVG(v) FROM (SELECT {select} AS v FROM sessions {rest})"),
        None => format!("SELECT {select} FROM sessions {rest}"),
    };
    plan_query(&parse_query(&sql).expect("parses"), table.schema()).expect("plans")
}

fn main() {
    let table = conviva_sessions_table(ROWS, 16, 1);
    let registry = UdfRegistry::with_stock_library();
    // (what, SELECT list, the rest; `NESTED` wraps it in AVG over the groups)
    let shapes = [
        ("global, `bitrate > x`", "AVG(time)", "WHERE bitrate > 2400"),
        ("global, two-conjunct AND", "AVG(time)", "WHERE is_mobile = true AND bitrate > 1600"),
        ("global, dictionary predicate", "AVG(time)", "WHERE site <> 'cdn-east'"),
        ("global, OR of two dictionary predicates", "AVG(time)", "WHERE city = 'NYC' OR city = 'Chicago'"),
        ("global, no filter", "AVG(time)", ""),
        ("global `VARIANCE(bitrate)`", "VARIANCE(bitrate)", ""),
        ("GROUP BY city, 3 aggregates", "AVG(time), SUM(bytes), MAX(bitrate)", "GROUP BY city"),
        ("filtered GROUP BY city (the fallback's shape)", "AVG(time), COUNT(*)", "WHERE bitrate > 1600 GROUP BY city"),
        ("GROUP BY city, `VARIANCE(bitrate), MIN(time)`", "VARIANCE(bitrate), MIN(time)", "GROUP BY city"),
        ("GROUP BY site (dictionary, no NULLs)", "AVG(time)", "GROUP BY site"),
        ("GROUP BY is_mobile (bool)", "AVG(time)", "GROUP BY is_mobile"),
        ("GROUP BY user_id", "AVG(time)", "GROUP BY user_id"),
        ("GROUP BY user_id, `COUNT(*)`", "COUNT(*)", "GROUP BY user_id"),
        ("nested AVG(SUM(bytes)) by user_id", "SUM(bytes)", "NESTED GROUP BY user_id"),
    ];
    println!("one thread, {ROWS} rows in 16 partitions, medians of {ROUNDS} rounds; ns per row unless said");
    println!("| query | collect | per value | filter | grouping | gather | merge | execute_exact | same bits |");
    println!("|---|---|---|---|---|---|---|---|---|");
    for (what, select, rest) in shapes {
        let query = plan(&table, select, rest);
        let ([wall, chain, workers], values, collected) = collect_ns(&query, &table);
        let ([_, count_chain, count_workers], ..) = collect_ns(&plan(&table, "COUNT(*)", rest), &table);
        let grouping = count_workers - count_chain;
        let clock = Clock::real();
        let mut answer = None;
        let exact = median(
            (0..ROUNDS)
                .map(|_| {
                    let (out, took) = clock.time(|| execute_exact(&query, &table, &registry, 1));
                    answer = Some(std::hint::black_box(out.expect("the plan executes")));
                    took.as_nanos() as f64
                })
                .collect(),
        );
        let same = same_bits(&answer.expect("one round"), &collected, &registry);
        let per_row = |ns: f64| format!("{:.2}", ns / ROWS as f64);
        println!(
            "| {what} | {} | {:.2} | {} | {} | {} | {} | {} | {same} |",
            per_row(wall),
            wall / values.max(1) as f64,
            per_row(chain),
            per_row(grouping),
            per_row(workers - chain - grouping),
            per_row(wall - workers),
            per_row(exact),
        );
    }
    println!("\nsample set-up, 16 partitions, medians of {SETUP_ROUNDS} rounds");
    println!("| step | rows out | ms | same bytes |");
    println!("|---|---|---|---|");
    setup_rows(&table, 50_000, true);
    drop(table);
    setup_rows(&conviva_sessions_table(2_000_000, 16, 1), 20_000, false);
}
