//! A tour of the three error-estimation techniques of §2 on one dataset:
//! closed-form CLT, Poissonized bootstrap, and Hoeffding bounds — showing
//! why Fig. 1 finds large-deviation bounds 1–2 orders of magnitude too
//! conservative, and where each technique's intervals land relative to
//! the true sampling distribution.
//!
//! ```bash
//! cargo run --release --example error_estimation_tour
//! ```

use reliable_aqp::stats::accuracy::{evaluate_error_estimator, AccuracyConfig};
use reliable_aqp::stats::ci::symmetric_half_width;
use reliable_aqp::stats::dist::sample_lognormal;
use reliable_aqp::stats::error_estimator::{EstimationMethod, Theta};
use reliable_aqp::stats::estimator::{Aggregate, SampleContext};
use reliable_aqp::stats::large_deviation::{Inequality, RangeHint};
use reliable_aqp::stats::rng::{rng_from_seed, SeedStream};
use reliable_aqp::stats::sampling::{gather, with_replacement_indices};
use reliable_aqp::stats::ErrorEstimator;

fn main() {
    // Population: lognormal "session minutes".
    let mut rng = rng_from_seed(1);
    let population: Vec<f64> =
        (0..2_000_000).map(|_| sample_lognormal(&mut rng, 1.0, 0.8)).collect();
    let pop_max = population.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let n = 50_000;
    println!("population: 2M lognormal values, sample size n = {n}\n");

    // The true sampling distribution of AVG, by brute force.
    let theta = Aggregate::Avg;
    let pop_ctx = SampleContext::population(population.len());
    let truth_center =
        reliable_aqp::stats::estimator::QueryEstimator::estimate(&theta, &population, &pop_ctx);
    let ctx = SampleContext::new(n, population.len());
    let draws: Vec<f64> = (0..300)
        .map(|i| {
            let mut r = rng_from_seed(1000 + i);
            let idx = with_replacement_indices(&mut r, n, population.len());
            reliable_aqp::stats::estimator::QueryEstimator::estimate(
                &theta,
                &gather(&population, &idx),
                &ctx,
            )
        })
        .collect();
    let true_hw = symmetric_half_width(truth_center, &draws, 0.95);
    println!("ground truth: AVG = {truth_center:.5}, true 95% half-width = {true_hw:.5}\n");

    // One sample, three techniques.
    let mut r = rng_from_seed(7);
    let idx = with_replacement_indices(&mut r, n, population.len());
    let sample = gather(&population, &idx);
    let methods: Vec<(&str, EstimationMethod)> = vec![
        ("closed-form CLT", EstimationMethod::ClosedForm),
        ("bootstrap (K=300)", EstimationMethod::Bootstrap { k: 300 }),
        (
            "Hoeffding bound",
            EstimationMethod::LargeDeviation {
                inequality: Inequality::Hoeffding,
                range: RangeHint::new(0.0, pop_max),
            },
        ),
        (
            "Bernstein bound",
            EstimationMethod::LargeDeviation {
                inequality: Inequality::Bernstein,
                range: RangeHint::new(0.0, pop_max),
            },
        ),
    ];
    println!("{:<20} {:>12} {:>12} {:>10}", "technique", "half-width", "vs truth", "verdict");
    for (name, m) in &methods {
        let ci = m
            .confidence_interval(&mut rng_from_seed(9), &sample, &ctx, &Theta::Builtin(theta), 0.95)
            .expect("applicable");
        let ratio = ci.half_width / true_hw;
        let verdict = if ratio > 1.2 {
            "pessimistic"
        } else if ratio < 0.8 {
            "optimistic"
        } else {
            "accurate"
        };
        println!("{name:<20} {:>12.5} {:>11.1}x {:>10}", ci.half_width, ratio, verdict);
    }

    // The §3 protocol: does each technique stay accurate across many
    // samples?
    println!("\nfull §3-style evaluation (100 samples each):");
    let cfg = AccuracyConfig { sample_rows: n, runs: 100, truth_runs: 600, ..AccuracyConfig::fast() };
    for (name, m) in &methods {
        let report = evaluate_error_estimator(
            &population,
            &Theta::Builtin(theta),
            m,
            &cfg,
            SeedStream::new(11),
        );
        println!(
            "{name:<20} verdict={:?} optimistic-frac={:.2} pessimistic-frac={:.2}",
            report.verdict, report.optimistic_frac, report.pessimistic_frac
        );
    }
}
