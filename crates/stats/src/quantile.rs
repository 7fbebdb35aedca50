//! Exact and weighted quantiles.
//!
//! PERCENTILE aggregates are prominent in the Conviva workload (§3) and
//! are bootstrap-only (no closed form in the engine). Quantiles of
//! resample distributions also underlie the symmetric-interval
//! construction in [`crate::ci`].

/// Exact `q`-quantile of `xs` (0 ≤ q ≤ 1) using the "nearest-rank with
/// linear interpolation" definition (type-7, the numpy/R default).
///
/// Returns `None` on an empty slice. Copies the input; use
/// [`quantile_sorted`] when the data is already sorted.
pub fn quantile(xs: &[f64], q: f64) -> Option<f64> {
    quantile_mut(&mut xs.to_vec(), q)
}

/// [`quantile`] of a slice it may reorder. The two order statistics the
/// interpolation needs are taken by selection, O(n), not by a full sort:
/// values equal under `total_cmp` have equal bits, so the selected
/// `x₍lo₎` and the smallest value to its right are bit for bit
/// `sorted[lo]` and `sorted[lo + 1]`.
pub(crate) fn quantile_mut(xs: &mut [f64], q: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let pos = q.clamp(0.0, 1.0) * (xs.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let (_, &mut at_lo, right) = xs.select_nth_unstable_by(lo, f64::total_cmp);
    if pos.ceil() as usize == lo {
        return Some(at_lo);
    }
    let at_hi = right.iter().copied().min_by(f64::total_cmp)?;
    let frac = pos - lo as f64;
    Some(at_lo * (1.0 - frac) + at_hi * frac)
}

/// Exact `q`-quantile of an already-sorted slice (type-7 interpolation).
pub fn quantile_sorted(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let q = q.clamp(0.0, 1.0);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        Some(sorted[lo])
    } else {
        let frac = pos - lo as f64;
        Some(sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
    }
}

/// Weighted `q`-quantile: the smallest value `v` such that the cumulative
/// weight of observations ≤ `v` reaches `q` of the total weight. This is
/// the quantile of the *resample* a Poissonized weight vector encodes:
/// `weighted_quantile(xs, ws, q)` equals `quantile(expanded, q)` up to the
/// interpolation convention, where `expanded` repeats `xs[i]` `ws[i]` times.
/// Rows beyond the shorter of `xs` and `ws` are ignored.
pub fn weighted_quantile(xs: &[f64], ws: &[u32], q: f64) -> Option<f64> {
    weighted_quantile_ordered(xs, ws, &argsort(xs), q)
}

/// The indices of `xs` in ascending `total_cmp` order.
pub(crate) fn argsort(xs: &[f64]) -> Vec<u32> {
    let mut order: Vec<u32> = (0..xs.len() as u32).collect();
    order.sort_by(|&a, &b| xs[a as usize].total_cmp(&xs[b as usize]));
    order
}

/// [`weighted_quantile`] given `order = argsort(xs)`, which depends on the
/// values alone: a bootstrap job sorts once and walks the order once per
/// resample. Zero-weight rows add nothing to the running weight, so the
/// walk stops on the row the sort of the weighted rows alone would.
pub(crate) fn weighted_quantile_ordered(
    xs: &[f64],
    ws: &[u32],
    order: &[u32],
    q: f64,
) -> Option<f64> {
    debug_assert_eq!(xs.len(), ws.len(), "values and weights must align");
    let ws = &ws[..ws.len().min(xs.len())];
    let total: u64 = ws.iter().map(|&w| w as u64).sum();
    if total == 0 {
        return None;
    }
    // Nearest-rank on the expanded multiset: rank r = ceil(q * total), min 1.
    let target = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
    let mut acc = 0u64;
    for &i in order {
        acc += ws.get(i as usize).map_or(0, |&w| w as u64);
        if acc >= target {
            return xs.get(i as usize).copied();
        }
    }
    None
}

/// `Σ w·x` and `Σ w` over `rows`. A zero-weight row is absent from the
/// resample even where `x` is infinite or NaN (`0 · ∞` is NaN), so a
/// non-finite sum is taken again over the weighted rows alone.
pub(crate) fn weighted_sum(rows: impl Iterator<Item = (f64, u32)> + Clone) -> (f64, u64) {
    fn fold(rows: impl Iterator<Item = (f64, u32)>) -> (f64, u64) {
        rows.fold((0.0, 0), |(sum, n), (x, w)| (sum + x * w as f64, n + w as u64))
    }
    let (sum, n) = fold(rows.clone());
    if sum.is_finite() {
        (sum, n)
    } else {
        fold(rows.filter(|&(_, w)| w > 0))
    }
}

/// One bootstrap job's values in ascending `total_cmp` order, and each
/// resample's weights gathered into that order: the type-7 quantiles of
/// the multiset the weights encode, and the mean of a band between two of
/// them, without expanding it.
pub(crate) struct SortedJob {
    order: Vec<u32>,
    sorted: Vec<f64>,
    /// `sorted[numbers]` is everything but the NaNs (negative ones sort
    /// first, positive ones last), which no band contains.
    numbers: std::ops::Range<usize>,
    /// The current resample's weights, in sorted order.
    weights: Vec<u32>,
    /// The weight of each run of `CHUNK` sorted rows, and of all of them.
    chunks: Vec<u64>,
    total: u64,
}

const CHUNK: usize = 64;

impl SortedJob {
    pub(crate) fn new(xs: &[f64]) -> Self {
        let order = argsort(xs);
        let sorted: Vec<f64> = order.iter().map(|&i| xs[i as usize]).collect();
        let numbers = sorted.partition_point(|x| x.total_cmp(&f64::NEG_INFINITY).is_lt())
            ..sorted.partition_point(|x| x.total_cmp(&f64::INFINITY).is_le());
        let (weights, chunks) = (vec![0; xs.len()], vec![0; xs.len().div_ceil(CHUNK)]);
        SortedJob { order, sorted, numbers, weights, chunks, total: 0 }
    }

    /// Take the next resample: `ws[i]` copies of `xs[i]`, rows beyond the
    /// shorter of the two ignored. Every slot is rewritten.
    pub(crate) fn load(&mut self, ws: &[u32]) {
        let runs = self.weights.chunks_mut(CHUNK).zip(self.order.chunks(CHUNK));
        for (sum, (slots, rows)) in self.chunks.iter_mut().zip(runs) {
            *sum = 0;
            for (slot, &i) in slots.iter_mut().zip(rows) {
                *slot = ws.get(i as usize).copied().unwrap_or(0);
                *sum += *slot as u64;
            }
        }
        self.total = self.chunks.iter().sum();
    }

    /// [`quantile`] of the resample: the two order statistics are found
    /// through the chunk weights, then row by row inside one chunk.
    pub(crate) fn quantile(&self, q: f64) -> Option<f64> {
        let pos = q.clamp(0.0, 1.0) * self.total.checked_sub(1)? as f64;
        let lo = pos.floor() as u64;
        // Copy `lo` (< total) is in the first row whose weight, added to
        // that of the rows `before` it, exceeds `lo`.
        let (mut row, mut before) = (0, 0u64);
        for &chunk in &self.chunks {
            if before + chunk > lo {
                break;
            }
            before += chunk;
            row += CHUNK;
        }
        while before + self.weights[row] as u64 <= lo {
            before += self.weights[row] as u64;
            row += 1;
        }
        let at_lo = self.sorted[row];
        if pos.ceil() as u64 == lo {
            return Some(at_lo);
        }
        // Copy `lo + 1` is the same row's, or the next weighted row's.
        let at_hi = if lo + 1 < before + self.weights[row] as u64 {
            at_lo
        } else {
            let next = self.weights[row + 1..].iter().position(|&w| w > 0)?;
            self.sorted[row + 1 + next]
        };
        let frac = pos - lo as f64;
        Some(at_lo * (1.0 - frac) + at_hi * frac)
    }

    /// Mean of the resample's copies with `a ≤ x ≤ b`, NaN when none.
    pub(crate) fn band_mean(&self, a: f64, b: f64) -> f64 {
        let numbers = &self.sorted[self.numbers.clone()];
        let from = numbers.partition_point(|&x| x < a);
        let to = numbers.partition_point(|&x| x <= b);
        // No `x >= a` holds of a NaN edge; `x <= b` of one gave `to = 0`.
        let Some(band) = numbers.get(from..to).filter(|_| !a.is_nan()) else { return f64::NAN };
        let weights = &self.weights[self.numbers.start + from..];
        let (sum, n) = weighted_sum(band.iter().copied().zip(weights.iter().copied()));
        if n == 0 {
            f64::NAN
        } else {
            sum / n as f64
        }
    }
}

/// All of several quantiles in one sort.
pub fn quantiles(xs: &[f64], qs: &[f64]) -> Option<Vec<f64>> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    qs.iter().map(|&q| quantile_sorted(&v, q)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(quantile(&[3.0, 1.0, 2.0], 0.5), Some(2.0));
        assert_eq!(quantile(&[4.0, 1.0, 2.0, 3.0], 0.5), Some(2.5));
    }

    #[test]
    fn extremes() {
        let xs = [5.0, 1.0, 9.0];
        assert_eq!(quantile(&xs, 0.0), Some(1.0));
        assert_eq!(quantile(&xs, 1.0), Some(9.0));
    }

    #[test]
    fn empty_is_none() {
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(weighted_quantile(&[], &[], 0.5), None);
    }

    #[test]
    fn interpolation_matches_numpy_type7() {
        // numpy.percentile([1,2,3,4], 25) == 1.75
        assert!((quantile(&[1.0, 2.0, 3.0, 4.0], 0.25).unwrap() - 1.75).abs() < 1e-12);
    }

    #[test]
    fn weighted_matches_expansion() {
        let xs = [10.0, 20.0, 30.0];
        let ws = [1u32, 3, 1];
        // Expanded multiset: [10, 20, 20, 20, 30]; median (nearest-rank) = 20.
        assert_eq!(weighted_quantile(&xs, &ws, 0.5), Some(20.0));
        // 90th percentile rank = ceil(0.9*5)=5 → 30.
        assert_eq!(weighted_quantile(&xs, &ws, 0.9), Some(30.0));
        // 10th percentile rank = ceil(0.5)=1 → 10.
        assert_eq!(weighted_quantile(&xs, &ws, 0.1), Some(10.0));
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "values and weights must align"))]
    fn weighted_length_mismatch_is_no_release_panic() {
        // Release builds truncate to the shorter side.
        assert_eq!(weighted_quantile(&[1.0, 2.0, 3.0], &[1, 1], 1.0), Some(2.0));
        assert_eq!(weighted_quantile(&[1.0, 2.0], &[1, 1, 9], 1.0), Some(2.0));
        assert_eq!(weighted_quantile(&[1.0], &[], 0.5), None);
    }

    #[test]
    fn selection_equals_the_full_sort_bit_for_bit() {
        let nan2 = f64::from_bits(0x7ff8_0000_0000_0001);
        let xs = [2.0, -0.0, f64::NAN, 0.0, 2.0, f64::NEG_INFINITY, -nan2, 7.5, f64::INFINITY, 0.0];
        for n in 1..=xs.len() {
            let mut sorted = xs[..n].to_vec();
            sorted.sort_by(f64::total_cmp);
            for step in 0..=40 {
                let q = step as f64 / 40.0;
                let want = quantile_sorted(&sorted, q).map(f64::to_bits);
                assert_eq!(quantile(&xs[..n], q).map(f64::to_bits), want, "n = {n}, q = {q}");
            }
        }
    }

    #[test]
    fn weighted_all_zero_weights_is_none() {
        assert_eq!(weighted_quantile(&[1.0, 2.0], &[0, 0], 0.5), None);
    }

    #[test]
    fn weighted_ignores_zero_weight_outliers() {
        let xs = [1.0, 1000.0];
        let ws = [5u32, 0];
        assert_eq!(weighted_quantile(&xs, &ws, 1.0), Some(1.0));
    }

    #[test]
    fn multiple_quantiles_single_sort() {
        let qs = quantiles(&[1.0, 2.0, 3.0, 4.0, 5.0], &[0.0, 0.5, 1.0]).unwrap();
        assert_eq!(qs, vec![1.0, 3.0, 5.0]);
    }
}
