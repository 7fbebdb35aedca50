//! First the Poisson(1) draw, in ns per weight: `Poisson1::fill` (a
//! lookup by the draw's top byte) against the four-compare sampler it
//! replaced, kept here as the reference, at the fill lengths the engine
//! meets, with whether both drew the same weights from the same streams.
//!
//! Then the replicate kernel of each stock UDF, weighted form against
//! expansion, in ns per value × replicate (the Poisson draw included: both
//! sides run `bootstrap_replicates` on the same stream) at the sizes the
//! engine meets — an answer's job of 16 k values and the diagnostic's
//! subsamples of 160, 80 and 40 — with the largest relative difference
//! between the two sides' replicates.
//!
//! Then the closed-form pass of each aggregate, in ns per value: eight
//! ranges one `closed_form` call each against one `closed_form_lanes`
//! call over all eight (interleaved where the fold is a divide chain —
//! VARIANCE, STDDEV), at the subsample sizes of the benchmark's
//! `closed_form_scan` (45 / 90 / 180 values at `--quick`, 900 at full
//! length) and an answer's 90 k, with whether the lanes gave every
//! range's bits. AVG's rows add the Welford chain its centred σ̂
//! replaced, kept here as the reference, one range at a time, and whether
//! every range's σ̂ is within 1e-12 relative of the chain's.
//!
//! A `false` in a `same draws`, `same bits` or `within 1e-12` column is a
//! broken kernel.
//!
//! ```bash
//! cargo run --release -p aqp-stats --example udf_kernels
//! ```

use aqp_obs::Clock;
use aqp_stats::bootstrap::bootstrap_replicates;
use aqp_stats::closed_form::{closed_form, closed_form_lanes, ClosedForm, LANES};
use aqp_stats::dist::Poisson1;
use aqp_stats::estimator::{udfs, Aggregate, QueryEstimator, SampleContext, Udf};
use aqp_stats::rng::rng_from_seed;
use rand::{Rng, RngExt};

const K: usize = 100;

/// `⌊cdf[k]·2⁵³⌋` of the Poisson(1) CDF accumulated in `f64` from `e⁻¹`:
/// the thresholds `Poisson1` inverts.
fn poisson1_thresholds() -> [u64; 18] {
    let (mut t, mut pk, mut acc) = ([0u64; 18], (-1.0f64).exp(), 0.0);
    for (k, slot) in t.iter_mut().enumerate() {
        acc += pk;
        *slot = (acc * (1u64 << 53) as f64).floor() as u64;
        pk /= (k + 1) as f64;
    }
    t
}

/// The reference draw: four compares on every weight, then a scan of the
/// remaining thresholds on the 1.9 % with k ≥ 4.
fn four_compares<R: Rng>(t: &[u64; 18], rng: &mut R, out: &mut [u32]) {
    for slot in out {
        let m = rng.next_u64() >> 11;
        let k = (m > t[0]) as u32 + (m > t[1]) as u32 + (m > t[2]) as u32 + (m > t[3]) as u32;
        *slot = if k < 4 { k } else { t[4..17].iter().take_while(|&&x| m > x).count() as u32 + 4 };
    }
}

/// The draw table: ns per weight of each sampler over 4 M weights a
/// round, then both over the same 4 M-weight streams, fill for fill.
fn poisson_draws() {
    let t = poisson1_thresholds();
    println!("| weights per fill | four compares ns | table ns | ratio | same draws |");
    println!("|---|---|---|---|---|");
    for n in [40usize, 160, 16_384] {
        let fills = 4_000_000 / n;
        let mut out = vec![0u32; n];
        let mut rng = rng_from_seed(3);
        let reference = ns_per_value(fills, n, || {
            four_compares(&t, &mut rng, &mut out);
            std::hint::black_box(&mut out);
        });
        let table = ns_per_value(fills, n, || {
            Poisson1.fill(&mut rng, &mut out);
            std::hint::black_box(&mut out);
        });
        let (mut a, mut b) = (rng_from_seed(n as u64), rng_from_seed(n as u64));
        let mut want = vec![0u32; n];
        let same = (0..fills).all(|_| {
            four_compares(&t, &mut a, &mut want);
            Poisson1.fill(&mut b, &mut out);
            want == out
        }) && a.next_u64() == b.next_u64();
        println!("| {n} | {reference:.2} | {table:.2} | {:.2} | {same} |", table / reference);
    }
    println!();
}

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
    poisson_draws();
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
    closed_forms();
}

/// Median over seven rounds of `f` run `reps` times, in ns per value of
/// `values` values a run.
fn ns_per_value(reps: usize, values: usize, mut f: impl FnMut()) -> f64 {
    let clock = Clock::real();
    let mut ns: Vec<f64> = (0..7)
        .map(|_| {
            let ((), took) = clock.time(|| (0..reps).for_each(|_| f()));
            took.as_nanos() as f64 / (reps * values) as f64
        })
        .collect();
    ns.sort_by(f64::total_cmp);
    ns[3]
}

/// AVG's σ̂ as a Welford chain made it, beside Σx for θ: a divide per
/// value, in `Moments::push`'s expressions.
fn welford_std_error(values: &[f64]) -> (f64, f64) {
    let (mut sum, mut mean, mut m2, mut n) = (-0.0, 0.0, 0.0, 0.0);
    for &x in values {
        sum += x;
        let n1 = n;
        n += 1.0;
        let delta = x - mean;
        let delta_n = delta / n;
        mean += delta_n;
        m2 += delta * delta_n * n1;
    }
    (sum / n, (m2 / (n - 1.0) / n).sqrt())
}

/// The closed-form table: one range at a time against eight in lockstep.
fn closed_forms() {
    let mut rng = rng_from_seed(2);
    // Like the benchmark's `bitrate`: normal(2500, 600).
    let column: Vec<f64> = (0..LANES * 90_000)
        .map(|_| 2_500.0 + 600.0 * (-2.0 * rng.random::<f64>().ln()).sqrt() * rng.random::<f64>().cos())
        .collect();
    println!();
    println!("| aggregate | values | one range ns | {LANES} lanes ns | ratio | same bits | Welford ns | within 1e-12 |");
    println!("|---|---|---|---|---|---|---|---|");
    for agg in [Aggregate::Avg, Aggregate::Sum, Aggregate::Count, Aggregate::Variance, Aggregate::StdDev] {
        for n in [45usize, 90, 180, 900, 90_000] {
            let ranges: Vec<&[f64]> = column.chunks(n).take(LANES).collect();
            let ctx = SampleContext::new(2 * n, 200 * n);
            let reps = (4_000_000 / (LANES * n)).max(3);
            let one = ns_per_value(reps, LANES * n, || {
                for r in &ranges {
                    std::hint::black_box(closed_form(&agg, std::hint::black_box(r), &ctx));
                }
            });
            let mut together = [ClosedForm::default(); LANES];
            let lanes = ns_per_value(reps, LANES * n, || {
                closed_form_lanes(&agg, std::hint::black_box(&ranges), &ctx, &mut together);
                std::hint::black_box(&together);
            });
            // `Debug` prints a float's shortest round trip: equal text, equal bits.
            let same = ranges.iter().zip(&together).all(|(r, cf)| {
                format!("{:?}", closed_form(&agg, r, &ctx)) == format!("{:?}", Some(cf))
            });
            let welford = match agg {
                Aggregate::Avg => {
                    let ns = ns_per_value(reps, LANES * n, || {
                        for r in &ranges {
                            std::hint::black_box(welford_std_error(std::hint::black_box(r)));
                        }
                    });
                    let within = ranges.iter().zip(&together).all(|(r, cf)| {
                        let (want, got) = (welford_std_error(r).1, cf.std_error.unwrap_or(f64::NAN));
                        (got - want).abs() <= 1e-12 * want
                    });
                    format!("{ns:.2} | {within}")
                }
                _ => "- | -".into(),
            };
            println!("| `{agg}` | {n} | {one:.2} | {lanes:.2} | {:.2} | {same} | {welford} |", lanes / one);
        }
    }
}
