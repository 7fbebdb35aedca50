//! Fig. 3 — estimation accuracy of bootstrap and closed-form error
//! estimation on the Facebook- and Conviva-calibrated workloads.
//!
//! Per query: the §3 protocol (many samples; δ relative to the true
//! interval; fail if |δ| > 0.2 on ≥ 5% of samples). Output: the four
//! stacked bands of Fig. 3 — Not Applicable / Optimistic / Correct /
//! Pessimistic — plus the §3 drill-downs (MIN/MAX and UDF failure
//! shares).
//!
//! Published reference points:
//! * bootstrap produces too-wide / too-narrow intervals for 23.94% /
//!   12.2% of Facebook queries;
//! * closed forms apply to 56.78% of Facebook queries overall and are
//!   incorrect for 24.86% of the total;
//! * bootstrap fails for 86.17% of MIN/MAX queries and 23.19% of UDF
//!   queries.

use aqp_bench::{section, tsv_row, Args};
use aqp_stats::accuracy::{evaluate_error_estimator, AccuracyConfig, AccuracyVerdict};
use aqp_stats::error_estimator::EstimationMethod;
use aqp_stats::rng::SeedStream;
use aqp_workload::statquery::QueryCategory;
use aqp_workload::Workload;

fn main() {
    let args = Args::parse();
    let n_queries: usize = args.get("queries").unwrap_or(150);
    let pop_rows: usize = args.get("population").unwrap_or(300_000);
    let sample_rows: usize = args.get("sample").unwrap_or(20_000);
    let seed: u64 = args.get("seed").unwrap_or(1);

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
    let cfg = AccuracyConfig {
        sample_rows,
        runs: 100,
        truth_runs: 300,
        ..AccuracyConfig::default()
    };

    println!("\nTSV: workload\ttechnique\tnot_applicable\toptimistic\tcorrect\tpessimistic");
    for workload in [Workload::Facebook, Workload::Conviva] {
        let queries = workload.generate(n_queries, seed);
        for (tech_name, tech) in [
            ("bootstrap", EstimationMethod::Bootstrap { k: 100 }),
            ("closed-form", EstimationMethod::ClosedForm),
        ] {
            let mut counts = [0usize; 4]; // NA, Opt, Correct, Pess
            let mut minmax = (0usize, 0usize); // (fail, total)
            let mut udf = (0usize, 0usize);
            let seeds = SeedStream::new(seed ^ 0xF3);
            let jobs: Vec<(usize, &aqp_workload::StatQuery)> =
                queries.iter().enumerate().collect();
            let verdicts = aqp_exec::parallel::parallel_map(
                jobs,
                aqp_exec::parallel::default_threads(),
                |(qi, q)| {
                    let population = q.population(pop_rows, seeds.seed(qi as u64));
                    let theta = q.theta.instantiate();
                    evaluate_error_estimator(
                        &population,
                        &theta,
                        &tech,
                        &cfg,
                        seeds.derive(qi as u64),
                    )
                    .verdict
                },
            );
            for (q, verdict) in queries.iter().zip(verdicts) {
                let slot = match verdict {
                    AccuracyVerdict::NotApplicable => 0,
                    AccuracyVerdict::Optimistic => 1,
                    AccuracyVerdict::Correct => 2,
                    AccuracyVerdict::Pessimistic => 3,
                };
                counts[slot] += 1;
                let failed = matches!(
                    verdict,
                    AccuracyVerdict::Optimistic | AccuracyVerdict::Pessimistic
                );
                match q.category() {
                    QueryCategory::Min | QueryCategory::Max => {
                        minmax.1 += 1;
                        if failed {
                            minmax.0 += 1;
                        }
                    }
                    QueryCategory::Udf => {
                        udf.1 += 1;
                        if failed {
                            udf.0 += 1;
                        }
                    }
                    _ => {}
                }
            }
            let pct = |c: usize| 100.0 * c as f64 / queries.len() as f64;
            println!(
                "{}",
                tsv_row(&[
                    format!("{workload:?}"),
                    tech_name.to_string(),
                    format!("{:.1}", pct(counts[0])),
                    format!("{:.1}", pct(counts[1])),
                    format!("{:.1}", pct(counts[2])),
                    format!("{:.1}", pct(counts[3])),
                ])
            );
            if tech_name == "bootstrap" {
                let mm = if minmax.1 > 0 { 100.0 * minmax.0 as f64 / minmax.1 as f64 } else { 0.0 };
                let uf = if udf.1 > 0 { 100.0 * udf.0 as f64 / udf.1 as f64 } else { 0.0 };
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

    aqp_bench::maybe_write_metrics(&args);
}
