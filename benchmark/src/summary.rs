//! Order statistics: percentiles with the "ten samples beyond" rule, and
//! the quartiles the run-to-run spread is judged by.

/// `values` sorted ascending (total order, so a NaN cannot panic).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// 1-based nearest rank of the `p`-th percentile among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    // 99.9 / 100 * 10_000 is 9990.000000000002 in floating point; the
    // nudge keeps such a product from rounding up a whole rank.
    (((p / 100.0 * n as f64) - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p` percent of the samples at or below it. NaN when
/// empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[rank(sorted.len(), p) - 1]
}

/// Median (nearest rank) of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values.to_vec()), 50.0)
}

/// Samples strictly beyond the `p`-th percentile's rank.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// A tail percentile is only as good as the samples beyond it: report
/// the highest of the usual ladder that still has at least ten.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    const LADDER: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 50.0];
    LADDER.into_iter().find(|&p| samples_beyond(n, p) >= 10)
}

/// First quartile, median and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` gives them (the exclusive method),
/// because that is what the spread between runs is judged by. `None`
/// below two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let data = sorted(values.to_vec());
    let m = data.len();
    if m < 2 {
        return None;
    }
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert!(percentile(&[], 50.0).is_nan());
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // 100 samples: p90 leaves exactly ten beyond it, p95 only five.
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert_eq!(samples_beyond(100, 95.0), 5);
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(99), Some(50.0));
        assert_eq!(highest_supported_percentile(200), Some(95.0));
        assert_eq!(highest_supported_percentile(1_000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
        assert_eq!(highest_supported_percentile(19), None);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[4.0, 1.0, 2.0]), Some([1.0, 2.0, 4.0]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
    }
}
