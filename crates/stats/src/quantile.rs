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
