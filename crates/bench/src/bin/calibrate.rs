//! The paper's accuracy figures and the coverage table, through one §3
//! loop ([`aqp_bench::per_query`]).
//!
//! `calibrate [fig3|fig4|table] [--flag value ...]` prints the named
//! section, or all three in that order when none is named:
//!
//! * `fig3` — Fig. 3, estimation accuracy of bootstrap and closed-form
//!   error estimation on the Facebook- and Conviva-calibrated workloads.
//!   Per query the §3 protocol (many samples; δ relative to the true
//!   interval; fail if |δ| > 0.2 on ≥ 5% of samples); output the four
//!   stacked bands Not Applicable / Optimistic / Correct / Pessimistic
//!   plus the §3 drill-downs (MIN/MAX and UDF failure shares). Flags
//!   `--queries --population --sample --seed`. Published: bootstrap too
//!   wide / too narrow for 23.94% / 12.2% of Facebook queries; closed
//!   forms apply to 56.78% of Facebook queries and are incorrect for
//!   24.86% of the total; bootstrap fails for 86.17% of MIN/MAX and
//!   23.19% of UDF queries.
//! * `fig4` — Fig. 4(b)/(c), the diagnostic on one sample scored against
//!   the ideal verdict (the §3 protocol): correct (true accept + true
//!   reject), false negative (wasteful fallback), false positive (bad
//!   error bars shown). Flags `--cf-queries --boot-queries --population
//!   --sample --seed`. Published: closed forms Conviva ≈ 81% correct, 7%
//!   FN, 9% FP, Facebook ≈ 73/3/4; bootstrap Conviva ≈ 89.2/3.6/2.8,
//!   Facebook ≈ 62.8/5.2/3.2; overall < 3.1% FP, < 5.4% FN.
//! * `table` — [`aqp_bench::calibration_table`] at 1 000 runs a cell. No
//!   flags.
//!
//! `--metrics <path>` dumps the metrics snapshot at exit.

use aqp_bench::{calibration_table, per_query, section, tsv_row, Args};
use aqp_diagnostics::ground_truth::evaluate_diagnostic;
use aqp_diagnostics::ground_truth::DiagnosticOutcome::*;
use aqp_diagnostics::DiagnosticConfig;
use aqp_stats::accuracy::AccuracyVerdict::*;
use aqp_stats::accuracy::{evaluate_error_estimator, AccuracyConfig, AccuracyVerdict};
use aqp_stats::error_estimator::EstimationMethod::{Bootstrap, ClosedForm};
use aqp_stats::rng::SeedStream;
use aqp_workload::statquery::QueryCategory;
use aqp_workload::{StatQuery, Workload};

fn main() {
    let args = Args::parse();
    let wants = args.sections("calibrate", &["fig3", "fig4", "table"]);
    let seed: u64 = args.get("seed").unwrap_or(1);
    if wants("fig3") {
        fig3(&args, seed);
    }
    if wants("fig4") {
        fig4(&args, seed);
    }
    if wants("table") {
        println!("{}", section("Calibration — coverage per θ × data family × ξ × α"));
        println!("population 40000, n = 2000; RED: > 3 binomial std errors from α\n");
        print!("{}", calibration_table(1000));
    }
    aqp_bench::maybe_write_metrics(&args);
}

fn fig3(args: &Args, seed: u64) {
    let n_queries: usize = args.get("queries").unwrap_or(150);
    let pop_rows: usize = args.get("population").unwrap_or(300_000);
    let sample_rows: usize = args.get("sample").unwrap_or(20_000);
    println!("{}", section("Fig. 3 — estimation accuracy per workload × technique"));
    println!(
        "{n_queries} queries per workload, population {pop_rows} rows, n = {sample_rows} \
         (paper: n = 10^6 on TB-scale data; bands are functions of n and tail weight)"
    );
    // The paper's protocol: 100 samples per query, |δ| > 0.2 on ≥ 5% of
    // them ⇒ failure. Note the protocol itself has a noise floor: with
    // K = 100 bootstrap resamples the interval-width estimate carries
    // ~9% relative noise, so ~2-3% of runs exceed the band even for a
    // perfectly-calibrated technique, and P(≥5 of 100) ≈ 10-12% of benign
    // queries flunk by luck. The published bands embed the same effect.
    let cfg = AccuracyConfig { sample_rows, runs: 100, truth_runs: 300, ..Default::default() };
    let seeds = SeedStream::new(seed ^ 0xF3);
    println!("\nTSV: workload\ttechnique\tnot_applicable\toptimistic\tcorrect\tpessimistic");
    for workload in [Workload::Facebook, Workload::Conviva] {
        let queries = workload.generate(n_queries, seed);
        for (technique, xi) in [("bootstrap", Bootstrap { k: 100 }), ("closed-form", ClosedForm)] {
            let verdicts = per_query(&queries, pop_rows, seeds, 1, |pop, theta, s| {
                evaluate_error_estimator(pop, theta, &xi, &cfg, s).verdict
            });
            // Percent of the queries in `cats` (all when empty) whose verdict is in `hit`.
            let pct = |cats: &[QueryCategory], hit: &[AccuracyVerdict]| {
                let of = |q: &StatQuery| cats.is_empty() || cats.contains(&q.category());
                let n = queries.iter().filter(|q| of(q)).count();
                let hits = queries.iter().zip(&verdicts).filter(|(q, v)| of(q) && hit.contains(v));
                100.0 * hits.count() as f64 / n.max(1) as f64
            };
            let mut row = vec![format!("{workload:?}"), technique.to_string()];
            let bands = [NotApplicable, Optimistic, Correct, Pessimistic];
            row.extend(bands.map(|v| format!("{:.1}", pct(&[], &[v]))));
            println!("{}", tsv_row(&row));
            if technique == "bootstrap" {
                let mm = pct(&[QueryCategory::Min, QueryCategory::Max], &[Optimistic, Pessimistic]);
                let uf = pct(&[QueryCategory::Udf], &[Optimistic, Pessimistic]);
                println!(
                    "#   drill-down ({workload:?}): MIN/MAX bootstrap failure {mm:.1}% \
                     (paper: 86.17% on FB), UDF failure {uf:.1}% (paper: 23.19%)"
                );
            }
        }
    }
    println!("\nShape checks (from the published Fig. 3):");
    println!("  * closed forms must show a large Not-Applicable band (MIN/MAX/percentile/UDF);");
    println!("  * the bootstrap must have no Not-Applicable band but visible failure bands;");
    println!("  * failures concentrate on extreme-value aggregates and heavy tails.");
}

fn fig4(args: &Args, seed: u64) {
    let cf_queries: usize = args.get("cf-queries").unwrap_or(100);
    let boot_queries: usize = args.get("boot-queries").unwrap_or(250);
    let pop_rows: usize = args.get("population").unwrap_or(120_000);
    let sample_rows: usize = args.get("sample").unwrap_or(10_000);
    println!("{}", section("Fig. 4 — diagnostic accuracy vs the ideal verdict"));
    println!(
        "population {pop_rows}, sample n = {sample_rows}, diagnostic p = 100 (paper settings \
         p=100, k=3, c1=c2=0.2, c3=0.5, rho=0.95)"
    );
    let diag_cfg = DiagnosticConfig::scaled_to(sample_rows, 100);
    let acc_cfg = AccuracyConfig { sample_rows, runs: 40, truth_runs: 250, ..Default::default() };
    let seeds = SeedStream::new(seed ^ 0xF4);
    println!("\nTSV: figure\tworkload\tcorrect_pct\tfalse_neg_pct\tfalse_pos_pct\tqueries");
    let mut overall: Vec<[f64; 3]> = Vec::new();
    for (figure, xi) in [("4b", ClosedForm), ("4c", Bootstrap { k: 100 })] {
        for w in [Workload::Conviva, Workload::Facebook] {
            let queries = match xi {
                ClosedForm => w.generate_closed_form(cf_queries, seed),
                _ => w.generate_bootstrap_only(boot_queries, seed),
            };
            let outcomes = per_query(&queries, pop_rows, seeds, 31, |pop, theta, s| {
                evaluate_diagnostic(pop, theta, &xi, sample_rows, &diag_cfg, &acc_cfg, s).outcome
            });
            let shares = [&[TrueAccept, TrueReject][..], &[FalseNegative], &[FalsePositive]]
                .map(|hit| outcomes.iter().filter(|o| hit.contains(o)).count() as f64);
            let shares = shares.map(|c| 100.0 * c / queries.len() as f64);
            let mut row = vec![figure.to_string(), format!("{w:?}")];
            row.extend(shares.map(|p| format!("{p:.1}")));
            row.push(queries.len().to_string());
            println!("{}", tsv_row(&row));
            overall.push(shares);
        }
    }
    let [correct, fneg, fpos] =
        [0, 1, 2].map(|i| overall.iter().map(|s| s[i]).sum::<f64>() / overall.len() as f64);
    println!(
        "\nOverall: {correct:.1}% correct decisions, {fneg:.1}% false negatives, \
         {fpos:.1}% false positives"
    );
    println!("Paper overall: <5.4% false negatives, <3.1% false positives.");
}
