//! Fig. 1 — sample sizes different error-estimation techniques demand to
//! reach a target relative error.
//!
//! Protocol: for each of `--queries` (default 100) Conviva-style AVG/SUM
//! queries, compute each technique's confidence-interval half-width on a
//! pilot sample, then extrapolate via the √n law the rows needed for each
//! target relative error. "Ground truth" extrapolates from the *true*
//! interval (brute-force resampling).
//!
//! Paper's shape: Hoeffding needs samples 1–2 orders of magnitude larger
//! than CLT/bootstrap, which both track the ground truth; vertical bars
//! denote the .01/.99 quantiles across queries.

use aqp_bench::{mean, percentile, section, tsv_row, Args};
use aqp_core::required_sample_rows;
use aqp_stats::ci::{symmetric_half_width, Ci};
use aqp_stats::error_estimator::EstimationMethod;
use aqp_stats::estimator::{Aggregate, SampleContext};
use aqp_stats::large_deviation::{Inequality, RangeHint};
use aqp_stats::rng::SeedStream;
use aqp_stats::sampling::{gather, with_replacement_indices};
use aqp_workload::statquery::{DataSpec, ThetaKind};
use aqp_workload::Workload;

const TARGET_ERRORS: &[f64] = &[0.32, 0.16, 0.08, 0.04, 0.02, 0.01];
const TECHNIQUES: &[&str] = &["ground-truth", "closed-form", "bootstrap", "bernstein", "hoeffding"];

fn main() {
    let args = Args::parse();
    let n_queries: usize = args.get("queries").unwrap_or(100);
    let pop_rows: usize = args.get("population").unwrap_or(400_000);
    let pilot_rows: usize = args.get("pilot").unwrap_or(10_000);
    let seed: u64 = args.get("seed").unwrap_or(1);

    println!("{}", section("Fig. 1 — sample size needed vs target relative error"));
    println!(
        "{n_queries} Conviva-style AVG/SUM queries, population {pop_rows} rows, pilot {pilot_rows} rows"
    );

    // Only mean-like queries admit all techniques (Fig. 1's setting).
    let queries: Vec<_> = Workload::Conviva
        .generate_closed_form(n_queries * 2, seed)
        .into_iter()
        .filter(|q| {
            matches!(q.theta, ThetaKind::Builtin(Aggregate::Avg | Aggregate::Sum))
                // Moderate-range data: Hoeffding needs a finite range, and
                // on unbounded heavy tails its range term diverges far past
                // the paper's 1-2 orders of magnitude. Production columns
                // behind Fig. 1 are bounded-ish (times, counters).
                && matches!(
                    q.data,
                    DataSpec::Bounded { .. }
                        | DataSpec::Normal { .. }
                        | DataSpec::Exponential { .. }
                )
        })
        .take(n_queries)
        .collect();
    assert!(!queries.is_empty(), "no eligible queries generated");

    // required[technique][target] = per-query sample sizes.
    let mut required: Vec<Vec<Vec<f64>>> =
        vec![vec![Vec::new(); TARGET_ERRORS.len()]; TECHNIQUES.len()];

    let seeds = SeedStream::new(seed ^ 0xF16);
    for (qi, q) in queries.iter().enumerate() {
        let population = q.population(pop_rows, seeds.seed(qi as u64));
        let pop_max = population.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let pop_min = population.iter().copied().fold(f64::INFINITY, f64::min);
        let theta = q.theta.instantiate();
        let ctx = SampleContext::new(pilot_rows, pop_rows);

        // Pilot sample.
        let mut srng = seeds.derive(1).rng(qi as u64);
        let idx = with_replacement_indices(&mut srng, pilot_rows, pop_rows);
        let sample = gather(&population, &idx);

        // Ground-truth interval at the pilot size (brute force).
        let theta_d = theta.estimate(&population, &SampleContext::population(pop_rows));
        let truth_stream = seeds.derive(2).derive(qi as u64);
        let draws: Vec<f64> = (0..120)
            .map(|r| {
                let mut rng = truth_stream.rng(r);
                let i2 = with_replacement_indices(&mut rng, pilot_rows, pop_rows);
                theta.estimate(&gather(&population, &i2), &ctx)
            })
            .collect();
        let truth_ci =
            Ci::new(theta_d, symmetric_half_width(theta_d, &draws, 0.95), 0.95);

        let range = RangeHint::new(pop_min, pop_max);
        let methods: Vec<Option<Ci>> = vec![
            Some(truth_ci),
            EstimationMethod::ClosedForm.confidence_interval(
                &mut seeds.derive(3).rng(qi as u64),
                &sample,
                &ctx,
                &theta,
                0.95,
            ),
            EstimationMethod::Bootstrap { k: 100 }.confidence_interval(
                &mut seeds.derive(4).rng(qi as u64),
                &sample,
                &ctx,
                &theta,
                0.95,
            ),
            EstimationMethod::LargeDeviation { inequality: Inequality::Bernstein, range }
                .confidence_interval(
                    &mut seeds.derive(5).rng(qi as u64),
                    &sample,
                    &ctx,
                    &theta,
                    0.95,
                ),
            EstimationMethod::LargeDeviation { inequality: Inequality::Hoeffding, range }
                .confidence_interval(
                    &mut seeds.derive(6).rng(qi as u64),
                    &sample,
                    &ctx,
                    &theta,
                    0.95,
                ),
        ];

        for (ti, ci) in methods.iter().enumerate() {
            let Some(ci) = ci else { continue };
            for (ei, &target) in TARGET_ERRORS.iter().enumerate() {
                if let Some(n) = required_sample_rows(ci, pilot_rows, target) {
                    required[ti][ei].push(n as f64);
                }
            }
        }
    }

    println!("\nTSV: target_rel_error\ttechnique\tmean_rows\tq01_rows\tq99_rows");
    for (ei, &target) in TARGET_ERRORS.iter().enumerate() {
        for (ti, name) in TECHNIQUES.iter().enumerate() {
            let xs = &required[ti][ei];
            if xs.is_empty() {
                continue;
            }
            println!(
                "{}",
                tsv_row(&[
                    format!("{target}"),
                    name.to_string(),
                    format!("{:.0}", mean(xs)),
                    format!("{:.0}", percentile(xs, 0.01)),
                    format!("{:.0}", percentile(xs, 0.99)),
                ])
            );
        }
    }

    // Headline ratio: Hoeffding vs ground truth, averaged over targets.
    let mut ratios = Vec::new();
    for (gt, hoef) in required[0].iter().zip(&required[4]) {
        if !gt.is_empty() && !hoef.is_empty() {
            ratios.push(mean(hoef) / mean(gt));
        }
    }
    let mut cf_ratios = Vec::new();
    for (gt, cf) in required[0].iter().zip(&required[1]) {
        if !gt.is_empty() && !cf.is_empty() {
            cf_ratios.push(mean(cf) / mean(gt));
        }
    }
    println!("\nSummary (paper: Hoeffding needs 1–2 orders of magnitude more rows):");
    println!("  Hoeffding / ground-truth sample-size ratio: {:.1}x (mean over targets)", mean(&ratios));
    println!("  closed-form / ground-truth ratio:           {:.2}x", mean(&cf_ratios));
    assert!(mean(&ratios) > 10.0, "Hoeffding ratio should exceed 10x, got {:.1}", mean(&ratios));

    aqp_bench::maybe_write_metrics(&args);
}
