//! The replicate kernel of each stock UDF, weighted form against
//! expansion, in ns per value × replicate (the Poisson draw included: both
//! sides run `bootstrap_replicates` on the same stream) at the sizes the
//! engine meets — an answer's job of 16 k values and the diagnostic's
//! subsamples of 160, 80 and 40 — with the largest relative difference
//! between the two sides' replicates.
//!
//! ```bash
//! cargo run --release -p aqp-stats --example udf_kernels
//! ```

use aqp_obs::Clock;
use aqp_stats::bootstrap::bootstrap_replicates;
use aqp_stats::estimator::{udfs, QueryEstimator, SampleContext, Udf};
use aqp_stats::rng::rng_from_seed;
use rand::RngExt;

const K: usize = 100;

/// Median over `rounds` timings of `jobs` bootstrap jobs of K resamples,
/// in ns per value × replicate, and the last job's replicates.
fn time(udf: &Udf, values: &[f64], jobs: usize, rounds: usize) -> (f64, Vec<f64>) {
    let ctx = SampleContext::new(values.len(), values.len() * 100);
    let clock = Clock::real();
    let mut reps = Vec::new();
    let mut ns: Vec<f64> = (0..rounds)
        .map(|_| {
            let mut rng = rng_from_seed(7);
            let ((), took) = clock.time(|| {
                for _ in 0..jobs {
                    let mut replicate = udf.replicator(values, &ctx);
                    reps = bootstrap_replicates(&mut rng, values.len(), K, &mut *replicate);
                }
            });
            took.as_nanos() as f64 / (jobs * K * values.len()) as f64
        })
        .collect();
    ns.sort_by(f64::total_cmp);
    (ns[rounds / 2], std::hint::black_box(reps))
}

fn main() {
    let stock = [
        ("trimmed_mean", udfs::trimmed_mean(0.1, 0.9)),
        ("top_decile_mean", udfs::top_fraction_mean(0.1)),
        ("geo_mean", udfs::geometric_mean()),
        ("cov", udfs::coeff_of_variation()),
        ("frac_above", udfs::frac_above(60.0)),
    ];
    // A skewed positive column, like the benchmark's `time`.
    let mut rng = rng_from_seed(1);
    let column: Vec<f64> = (0..16_384).map(|_| -60.0 * rng.random::<f64>().ln()).collect();
    println!("| UDF | values | expansion ns | weighted ns | ratio | max rel diff |");
    println!("|---|---|---|---|---|---|");
    for (name, weighted) in &stock {
        assert!(weighted.has_weighted_form(), "{name}");
        let plain = weighted.clone();
        let ctx = SampleContext::population(0);
        let opaque = Udf::new(*name, move |xs| plain.estimate(xs, &ctx));
        for n in [16_384usize, 160, 80, 40] {
            let values = &column[..n];
            let jobs = (400_000 / n).clamp(1, 300);
            let (expansion, want) = time(&opaque, values, jobs, 7);
            let (ns, got) = time(weighted, values, jobs, 7);
            let diff = want
                .iter()
                .zip(&got)
                .map(|(a, b)| (a - b).abs() / a.abs().max(b.abs()).max(f64::MIN_POSITIVE))
                .fold(0.0, f64::max);
            println!(
                "| `{name}` | {n} | {expansion:.2} | {ns:.2} | {:.2} | {diff:.1e} |",
                ns / expansion
            );
        }
    }
}
