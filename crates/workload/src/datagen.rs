//! Synthetic columnar tables.
//!
//! Two table shapes cover the paper's workload domains:
//!
//! * [`conviva_sessions_table`] — media-access sessions (the Conviva
//!   trace's domain: "0.5 billion records of media accesses by Conviva
//!   users"): Zipf-skewed city/site, lognormal session time, Pareto
//!   buffering, lognormal bytes.
//! * [`facebook_events_table`] — generic events with columns spanning the
//!   tail-weight spectrum, from bounded (dwell fraction) through
//!   lognormal (latency) to infinite-variance Pareto (payload), so every
//!   error-estimation failure mode of §3 is reachable.

use aqp_stats::dist::{sample_exponential, sample_lognormal, sample_normal, sample_pareto, Zipf};
use aqp_stats::rng::rng_from_seed;
use aqp_storage::{Batch, Column, DataType, Field, Schema, Table};
use rand::{Rng, RngExt};

/// US cities weighted by a Zipf law (rank 1 = NYC).
const CITIES: &[&str] = &[
    "NYC", "LA", "Chicago", "Houston", "Phoenix", "Philadelphia", "SanAntonio", "SanDiego",
    "Dallas", "Austin", "SF", "Seattle", "Denver", "Boston", "Portland", "Miami",
];

/// Content-delivery sites, Zipf-ranked.
const SITES: &[&str] = &[
    "cdn-east", "cdn-west", "cdn-eu", "cdn-apac", "origin-1", "origin-2", "edge-9", "edge-17",
];

fn city_column<R: Rng>(rng: &mut R, rows: usize) -> Column {
    let z = Zipf::new(CITIES.len() as u64, 1.1);
    let vals: Vec<&str> = (0..rows).map(|_| CITIES[(z.sample(rng) - 1) as usize]).collect();
    Column::from_strs(&vals)
}

/// The Conviva-style sessions table.
///
/// Columns:
/// * `city` (string, Zipf) — the paper's running-example filter column,
/// * `site` (string, Zipf),
/// * `time` (float) — session seconds, lognormal (benign-moderate tail),
/// * `buffer_ratio` (float) — Pareto α=2.5 (heavy but finite variance),
/// * `bytes` (float) — lognormal with a fat tail (σ=1.5),
/// * `bitrate` (float) — normal, clamped positive (benign),
/// * `user_id` (int) — Zipf over `rows/50` users,
/// * `is_mobile` (bool).
pub fn conviva_sessions_table(rows: usize, partitions: usize, seed: u64) -> Table {
    let mut rng = rng_from_seed(seed);
    let site_z = Zipf::new(SITES.len() as u64, 1.3);
    let user_z = Zipf::new(((rows / 50).max(10)) as u64, 1.05);

    let city = city_column(&mut rng, rows);
    let site_vals: Vec<&str> =
        (0..rows).map(|_| SITES[(site_z.sample(&mut rng) - 1) as usize]).collect();
    let time: Vec<f64> = (0..rows).map(|_| sample_lognormal(&mut rng, 4.0, 0.8)).collect();
    let buffer_ratio: Vec<f64> =
        (0..rows).map(|_| sample_pareto(&mut rng, 0.01, 2.5).min(1.0)).collect();
    let bytes: Vec<f64> = (0..rows).map(|_| sample_lognormal(&mut rng, 13.0, 1.5)).collect();
    let bitrate: Vec<f64> =
        (0..rows).map(|_| sample_normal(&mut rng, 2500.0, 600.0).max(100.0)).collect();
    let user_id: Vec<i64> = (0..rows).map(|_| user_z.sample(&mut rng) as i64).collect();
    let is_mobile: Vec<bool> = (0..rows).map(|_| rng.random::<f64>() < 0.41).collect();

    let schema = Schema::new(vec![
        Field::new("city", DataType::Str),
        Field::new("site", DataType::Str),
        Field::new("time", DataType::Float),
        Field::new("buffer_ratio", DataType::Float),
        Field::new("bytes", DataType::Float),
        Field::new("bitrate", DataType::Float),
        Field::new("user_id", DataType::Int),
        Field::new("is_mobile", DataType::Bool),
    ])
    .expect("static schema is valid");
    let batch = Batch::new(
        schema,
        vec![
            city,
            Column::from_strs(&site_vals),
            Column::from_f64s(time),
            Column::from_f64s(buffer_ratio),
            Column::from_f64s(bytes),
            Column::from_f64s(bitrate),
            Column::from_i64s(user_id),
            Column::from_bools(is_mobile),
        ],
    )
    .expect("columns match schema");
    Table::from_batch("sessions", batch, partitions).expect("partitioning valid")
}

/// The Facebook-style events table.
///
/// Columns sweep the tail spectrum:
/// * `dwell_frac` (float in \[0,1\]) — bounded; every technique behaves,
/// * `latency_ms` (float) — lognormal σ=1.0 (moderate),
/// * `payload_kb` (float) — Pareto α=1.3: infinite variance — MIN/MAX and
///   even mean-estimation get hard,
/// * `score` (float) — normal (benign),
/// * `wait_s` (float) — exponential,
/// * `age_days` (int) — uniform recency,
/// * `country` (string, Zipf),
/// * `user_id` (int, Zipf).
pub fn facebook_events_table(rows: usize, partitions: usize, seed: u64) -> Table {
    let mut rng = rng_from_seed(seed);
    let country_z = Zipf::new(CITIES.len() as u64, 1.4);
    let user_z = Zipf::new(((rows / 40).max(10)) as u64, 1.1);

    let dwell: Vec<f64> = (0..rows)
        .map(|_| {
            let x: f64 = rng.random::<f64>();
            x * x // skewed toward 0 but bounded
        })
        .collect();
    let latency: Vec<f64> = (0..rows).map(|_| sample_lognormal(&mut rng, 3.0, 1.0)).collect();
    let payload: Vec<f64> = (0..rows).map(|_| sample_pareto(&mut rng, 1.0, 1.3)).collect();
    let score: Vec<f64> = (0..rows).map(|_| sample_normal(&mut rng, 50.0, 12.0)).collect();
    let wait: Vec<f64> = (0..rows).map(|_| sample_exponential(&mut rng, 0.2)).collect();
    let age: Vec<i64> = (0..rows).map(|_| rng.random_range(0..365)).collect();
    let country_vals: Vec<&str> =
        (0..rows).map(|_| CITIES[(country_z.sample(&mut rng) - 1) as usize]).collect();
    let user_id: Vec<i64> = (0..rows).map(|_| user_z.sample(&mut rng) as i64).collect();

    let schema = Schema::new(vec![
        Field::new("dwell_frac", DataType::Float),
        Field::new("latency_ms", DataType::Float),
        Field::new("payload_kb", DataType::Float),
        Field::new("score", DataType::Float),
        Field::new("wait_s", DataType::Float),
        Field::new("age_days", DataType::Int),
        Field::new("country", DataType::Str),
        Field::new("user_id", DataType::Int),
    ])
    .expect("static schema is valid");
    let batch = Batch::new(
        schema,
        vec![
            Column::from_f64s(dwell),
            Column::from_f64s(latency),
            Column::from_f64s(payload),
            Column::from_f64s(score),
            Column::from_f64s(wait),
            Column::from_i64s(age),
            Column::from_strs(&country_vals),
            Column::from_i64s(user_id),
        ],
    )
    .expect("columns match schema");
    Table::from_batch("events", batch, partitions).expect("partitioning valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sessions_shape_and_determinism() {
        let t = conviva_sessions_table(5_000, 4, 1);
        assert_eq!(t.num_rows(), 5_000);
        assert_eq!(t.num_partitions(), 4);
        assert_eq!(t.schema().len(), 8);
        let t2 = conviva_sessions_table(5_000, 4, 1);
        assert_eq!(
            t.to_batch().unwrap().column_by_name("time").unwrap().to_f64_vec(),
            t2.to_batch().unwrap().column_by_name("time").unwrap().to_f64_vec()
        );
    }

    #[test]
    fn sessions_city_skew() {
        let t = conviva_sessions_table(20_000, 2, 2);
        let b = t.to_batch().unwrap();
        let aqp_storage::Column::Str { dict, codes, .. } = b.column_by_name("city").unwrap() else {
            panic!("city is a string column");
        };
        let nyc_code = dict.iter().position(|c| c == "NYC").unwrap() as u32;
        let nyc_frac =
            codes.iter().filter(|&&c| c == nyc_code).count() as f64 / codes.len() as f64;
        // Zipf rank 1 dominates.
        assert!(nyc_frac > 0.15, "NYC fraction {nyc_frac}");
    }

    #[test]
    fn buffer_ratio_bounded() {
        let t = conviva_sessions_table(10_000, 2, 3);
        let b = t.to_batch().unwrap();
        let vals = b.column_by_name("buffer_ratio").unwrap().to_f64_vec();
        assert!(vals.iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn events_payload_is_heavy_tailed() {
        let t = facebook_events_table(50_000, 2, 4);
        let b = t.to_batch().unwrap();
        let payload = b.column_by_name("payload_kb").unwrap().to_f64_vec();
        let mean = payload.iter().sum::<f64>() / payload.len() as f64;
        let max = payload.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        // Pareto(1.3): max dwarfs the mean.
        assert!(max > 50.0 * mean, "max {max} vs mean {mean}");
        assert!(payload.iter().all(|&v| v >= 1.0));
    }

    #[test]
    fn events_dwell_bounded() {
        let t = facebook_events_table(5_000, 2, 5);
        let b = t.to_batch().unwrap();
        let vals = b.column_by_name("dwell_frac").unwrap().to_f64_vec();
        assert!(vals.iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn different_seeds_differ() {
        let a = conviva_sessions_table(100, 1, 10);
        let b = conviva_sessions_table(100, 1, 11);
        assert_ne!(
            a.to_batch().unwrap().column_by_name("time").unwrap().to_f64_vec(),
            b.to_batch().unwrap().column_by_name("time").unwrap().to_f64_vec()
        );
    }
}
