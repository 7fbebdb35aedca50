//! The scan's kernels, one thread, on the benchmark's table: ns per row
//! and per collected value of `collect` (positions built, as the
//! approximate path with a diagnostic asks) and ns per row of
//! `execute_exact` (no positions, θ over the values included), for the
//! query shapes the workloads are made of. `collect` is split four ways
//! from what `collect_observed` reports, medians over the rounds:
//!
//! * `filter` — busy time of the chain operators (`CollectObs::ops`);
//! * `grouping` — what the partition workers spend besides the chain when
//!   the SELECT list is `COUNT(*)` alone: resolving group ids, turning
//!   them into the grouped selection, writing positions and inner codes;
//! * `gather` — what the query's own aggregates add to that;
//! * `merge` — wall time outside the workers: blocks copied together,
//!   keys rendered and sorted.
//!
//! ```bash
//! cargo run --release -p aqp-exec --example scan_kernels
//! ```

use aqp_exec::collect::collect_observed;
use aqp_exec::{execute_exact, UdfRegistry};
use aqp_obs::Clock;
use aqp_sql::logical::LogicalPlan;
use aqp_sql::{parse_query, plan_query};
use aqp_storage::Table;
use aqp_workload::conviva_sessions_table;

const ROWS: usize = 500_000;
const ROUNDS: usize = 15;

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// Medians over the rounds of one `collect`, in ns: wall, the chain
/// operators, the partition workers; and the values collected.
fn collect_ns(plan: &LogicalPlan, table: &Table) -> ([f64; 3], usize) {
    let clock = Clock::real();
    let mut values = 0;
    // One more round than is kept: the first finds the columns cold.
    let rounds: Vec<[f64; 3]> = (0..=ROUNDS)
        .map(|_| {
            let (out, wall) = clock.time(|| collect_observed(plan, table, 1, &clock));
            let (collected, obs) = out.expect("the plan collects");
            values = collected.groups.iter().flat_map(|g| &g.aggs).map(|a| a.values.len()).sum();
            std::hint::black_box(&collected);
            let chain: u128 = obs.ops.iter().map(|o| o.busy.as_nanos()).sum();
            let workers: u128 = obs.workers.iter().map(|w| w.busy.as_nanos()).sum();
            [wall.as_nanos() as f64, chain as f64, workers as f64]
        })
        .skip(1)
        .collect();
    ([0, 1, 2].map(|i| median(rounds.iter().map(|r| r[i]).collect())), values)
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
        ("GROUP BY city, 3 aggregates", "AVG(time), SUM(bytes), MAX(bitrate)", "GROUP BY city"),
        ("GROUP BY user_id", "AVG(time)", "GROUP BY user_id"),
        ("nested AVG(SUM(bytes)) by user_id", "SUM(bytes)", "NESTED GROUP BY user_id"),
    ];
    println!("one thread, {ROWS} rows in 16 partitions, medians of {ROUNDS} rounds; ns per row unless said");
    println!("| query | collect | per value | filter | grouping | gather | merge | execute_exact |");
    println!("|---|---|---|---|---|---|---|---|");
    for (what, select, rest) in shapes {
        let query = plan(&table, select, rest);
        let ([wall, chain, workers], values) = collect_ns(&query, &table);
        let ([_, count_chain, count_workers], _) = collect_ns(&plan(&table, "COUNT(*)", rest), &table);
        let grouping = count_workers - count_chain;
        let clock = Clock::real();
        let exact = median(
            (0..ROUNDS)
                .map(|_| {
                    let (out, took) = clock.time(|| execute_exact(&query, &table, &registry, 1));
                    std::hint::black_box(out.expect("the plan executes"));
                    took.as_nanos() as f64
                })
                .collect(),
        );
        let per_row = |ns: f64| format!("{:.2}", ns / ROWS as f64);
        println!(
            "| {what} | {} | {:.2} | {} | {} | {} | {} | {} |",
            per_row(wall),
            wall / values.max(1) as f64,
            per_row(chain),
            per_row(grouping),
            per_row(workers - chain - grouping),
            per_row(wall - workers),
            per_row(exact),
        );
    }
}
