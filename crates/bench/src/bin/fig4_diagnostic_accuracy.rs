//! Fig. 4(b)/(c) — accuracy of the diagnostic against the ideal verdict.
//!
//! For each query, run (i) the expensive ideal evaluation (does error
//! estimation actually work for this query?) and (ii) the cheap
//! diagnostic on a single sample; score the decision:
//! correct (true-accept + true-reject), false negative (wasteful
//! fallback), false positive (bad error bars shown).
//!
//! Published reference points:
//! * Fig. 4(b) closed forms — Conviva ≈ 81% correct, 7% FN, 9% FP;
//!   Facebook ≈ 73% correct, 3% FN, 4% FP (shares of the applicable set);
//! * Fig. 4(c) bootstrap — Conviva ≈ 89.2% correct, 3.6% FN, 2.8% FP;
//!   Facebook ≈ 62.8% correct, 5.2% FN, 3.2% FP;
//! * overall: 84.57% of Conviva / 68% of Facebook queries accurately
//!   approximable, < 3.1% FP, < 5.4% FN.

use aqp_bench::{section, tsv_row, Args};
use aqp_diagnostics::ground_truth::{evaluate_diagnostic, DiagnosticOutcome};
use aqp_diagnostics::DiagnosticConfig;
use aqp_stats::accuracy::AccuracyConfig;
use aqp_stats::error_estimator::EstimationMethod;
use aqp_stats::rng::SeedStream;
use aqp_workload::Workload;

fn main() {
    let args = Args::parse();
    let xi: String = args.get("xi").unwrap_or_else(|| "both".to_string());
    let cf_queries: usize = args.get("cf-queries").unwrap_or(100);
    let boot_queries: usize = args.get("boot-queries").unwrap_or(250);
    let pop_rows: usize = args.get("population").unwrap_or(120_000);
    let sample_rows: usize = args.get("sample").unwrap_or(10_000);
    let seed: u64 = args.get("seed").unwrap_or(1);

    println!("{}", section("Fig. 4 — diagnostic accuracy vs the ideal verdict"));
    println!(
        "population {pop_rows}, sample n = {sample_rows}, diagnostic p = 100 (paper settings \
         p=100, k=3, c1=c2=0.2, c3=0.5, rho=0.95)"
    );

    let diag_cfg = DiagnosticConfig::scaled_to(sample_rows, 100);
    let acc_cfg =
        AccuracyConfig { sample_rows, runs: 40, truth_runs: 250, ..AccuracyConfig::default() };

    println!("\nTSV: figure\tworkload\tcorrect_pct\tfalse_neg_pct\tfalse_pos_pct\tqueries");
    let run_experiment = |figure: &str,
                              workload: Workload,
                              technique: EstimationMethod,
                              queries: Vec<aqp_workload::StatQuery>| {
        let seeds = SeedStream::new(seed ^ 0xF4);
        let mut correct = 0usize;
        let mut fneg = 0usize;
        let mut fpos = 0usize;
        let jobs: Vec<(usize, &aqp_workload::StatQuery)> = queries.iter().enumerate().collect();
        let outcomes = aqp_exec::parallel::parallel_map(
            jobs,
            aqp_exec::parallel::default_threads(),
            |(qi, q)| {
                let population = q.population(pop_rows, seeds.seed(qi as u64 * 31));
                let theta = q.theta.instantiate();
                evaluate_diagnostic(
                    &population,
                    &theta,
                    &technique,
                    sample_rows,
                    &diag_cfg,
                    &acc_cfg,
                    seeds.derive(qi as u64),
                )
                .outcome
            },
        );
        for outcome in outcomes {
            match outcome {
                DiagnosticOutcome::TrueAccept | DiagnosticOutcome::TrueReject => correct += 1,
                DiagnosticOutcome::FalseNegative => fneg += 1,
                DiagnosticOutcome::FalsePositive => fpos += 1,
            }
        }
        let pct = |c: usize| 100.0 * c as f64 / queries.len() as f64;
        println!(
            "{}",
            tsv_row(&[
                figure.to_string(),
                format!("{workload:?}"),
                format!("{:.1}", pct(correct)),
                format!("{:.1}", pct(fneg)),
                format!("{:.1}", pct(fpos)),
                format!("{}", queries.len()),
            ])
        );
        (pct(correct), pct(fneg), pct(fpos))
    };

    let mut overall: Vec<(f64, f64, f64)> = Vec::new();
    if xi == "both" || xi == "closed-form" {
        for w in [Workload::Conviva, Workload::Facebook] {
            let qs = w.generate_closed_form(cf_queries, seed);
            overall.push(run_experiment("4b", w, EstimationMethod::ClosedForm, qs));
        }
    }
    if xi == "both" || xi == "bootstrap" {
        for w in [Workload::Conviva, Workload::Facebook] {
            let qs = w.generate_bootstrap_only(boot_queries, seed);
            overall.push(run_experiment(
                "4c",
                w,
                EstimationMethod::Bootstrap { k: 100 },
                qs,
            ));
        }
    }

    if !overall.is_empty() {
        let avg_correct = overall.iter().map(|x| x.0).sum::<f64>() / overall.len() as f64;
        let avg_fn = overall.iter().map(|x| x.1).sum::<f64>() / overall.len() as f64;
        let avg_fp = overall.iter().map(|x| x.2).sum::<f64>() / overall.len() as f64;
        println!(
            "\nOverall: {avg_correct:.1}% correct decisions, {avg_fn:.1}% false negatives, \
             {avg_fp:.1}% false positives"
        );
        println!("Paper overall: <5.4% false negatives, <3.1% false positives.");
    }

    aqp_bench::maybe_write_metrics(&args);
}
