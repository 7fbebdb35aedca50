//! Distribution samplers and the normal quantile function.
//!
//! `rand_distr` is outside this workspace's dependency budget, so the
//! samplers the paper's workloads and resamplers need are implemented
//! here: Poisson (with the λ = 1 fast path used by Poissonized
//! resampling, §5.1), normal, lognormal, Pareto, Zipf, and exponential.
//! All take an explicit RNG.

use rand::{Rng, RngExt};

/// Standard-normal quantile function Φ⁻¹(p) (Acklam's rational
/// approximation, |relative error| < 1.15e-9 on (0,1)); NaN for a `p`
/// outside (0, 1).
pub fn normal_quantile(p: f64) -> f64 {
    if !(p > 0.0 && p < 1.0) {
        return f64::NAN;
    }

    // Coefficients for Acklam's approximation.
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383_577_518_672_69e2,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;

    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    }
}

/// Standard-normal CDF Φ(x) via the complementary error function
/// (Abramowitz & Stegun 7.1.26-style approximation, abs error < 7.5e-8).
pub fn normal_cdf(x: f64) -> f64 {
    // erfc-based; Φ(x) = erfc(-x/√2)/2.
    let z = -x / std::f64::consts::SQRT_2;
    0.5 * erfc(z)
}

/// Complementary error function approximation (abs error < 1.2e-7).
fn erfc(x: f64) -> f64 {
    let z = x.abs();
    let t = 1.0 / (1.0 + 0.5 * z);
    let ans = t
        * (-z * z - 1.26551223
            + t * (1.00002368
                + t * (0.37409196
                    + t * (0.09678418
                        + t * (-0.18628806
                            + t * (0.27886807
                                + t * (-1.13520398
                                    + t * (1.48851587
                                        + t * (-0.82215223 + t * 0.17087277)))))))))
        .exp();
    if x >= 0.0 {
        ans
    } else {
        2.0 - ans
    }
}

/// A standard normal draw (polar Box–Muller without caching, branch-light).
pub fn sample_standard_normal<R: Rng>(rng: &mut R) -> f64 {
    loop {
        let u: f64 = rng.random::<f64>() * 2.0 - 1.0;
        let v: f64 = rng.random::<f64>() * 2.0 - 1.0;
        let s = u * u + v * v;
        if s > 0.0 && s < 1.0 {
            return u * ((-2.0 * s.ln()) / s).sqrt();
        }
    }
}

/// A normal draw with the given mean and standard deviation.
pub fn sample_normal<R: Rng>(rng: &mut R, mean: f64, std_dev: f64) -> f64 {
    mean + std_dev * sample_standard_normal(rng)
}

/// Lognormal draw: `exp(N(mu, sigma))`. Heavy right tail — the shape of
/// session times / byte counts in the paper's workloads.
pub fn sample_lognormal<R: Rng>(rng: &mut R, mu: f64, sigma: f64) -> f64 {
    sample_normal(rng, mu, sigma).exp()
}

/// Pareto(scale=x_m, shape=alpha) draw via inversion. For alpha ≤ 1 the
/// mean is infinite; alpha ≤ 2 has infinite variance — the regime where
/// bootstrap/CLT error estimation breaks (§2.3.1).
pub fn sample_pareto<R: Rng>(rng: &mut R, x_m: f64, alpha: f64) -> f64 {
    debug_assert!(x_m > 0.0 && alpha > 0.0);
    let u: f64 = rng.random::<f64>();
    // Guard against u == 0 (would be +inf).
    let u = u.max(f64::MIN_POSITIVE);
    x_m / u.powf(1.0 / alpha)
}

/// Exponential(rate) draw via inversion.
pub fn sample_exponential<R: Rng>(rng: &mut R, rate: f64) -> f64 {
    debug_assert!(rate > 0.0);
    let u: f64 = rng.random::<f64>();
    -(1.0 - u).ln() / rate
}

/// Poisson(λ) draw.
///
/// Uses Knuth's product method for λ ≤ 30 and the normal approximation
/// with continuity correction above (adequate for data generation; the
/// resampling hot path only ever uses λ = 1 via [`Poisson1`]).
pub fn sample_poisson<R: Rng>(rng: &mut R, lambda: f64) -> u32 {
    debug_assert!(lambda >= 0.0);
    if lambda == 0.0 {
        return 0;
    }
    if lambda <= 30.0 {
        let l = (-lambda).exp();
        let mut k = 0u32;
        let mut p = 1.0f64;
        loop {
            p *= rng.random::<f64>();
            if p <= l {
                return k;
            }
            k += 1;
        }
    } else {
        let x = sample_normal(rng, lambda, lambda.sqrt());
        x.round().max(0.0) as u32
    }
}

/// `⌊cdf[k]·2⁵³⌋` for the Poisson(1) CDF `cdf[k] = Σ_{j≤k} e⁻¹/j!`, k ≤ 17
/// (the mass beyond is < 1e-15), accumulated in `f64` from `(-1.0).exp()`
/// (a unit test recomputes it).
const POISSON1_THRESHOLDS: [u64; 18] = [
    0x000b_c5ab_1b16_779c,
    0x0017_8b56_362c_ef38,
    0x001d_6e2b_c3b8_2b06,
    0x001f_6472_f2e6_944b,
    0x001f_e204_beb2_2e9c,
    0x001f_fb21_e774_80ac,
    0x001f_ff51_6e3f_8e59,
    0x001f_ffea_8181_2296,
    0x001f_fffd_a3e9_551e,
    0x001f_ffff_c42d_cc82,
    0x001f_ffff_fa9b_0ba6,
    0x001f_ffff_ff8d_b44c,
    0x001f_ffff_fff7_425a,
    0x001f_ffff_ffff_60f9,
    0x001f_ffff_ffff_f572,
    0x001f_ffff_ffff_ff58,
    0x001f_ffff_ffff_fff6,
    0x001f_ffff_ffff_ffff,
];

/// Specialized Poisson(1) sampler: inversion of the CDF table on one
/// uniform `u = m·2⁻⁵³`, `m` the top 53 bits of one `next_u64` (what
/// `rng.random::<f64>()` draws), returning the first `k` with
/// `u ≤ cdf[k]`, 17 in the astronomically-unlikely tail.
///
/// This is the §5.1 hot path: one draw per (row, resample). The
/// comparison runs on integers: `m·2⁻⁵³` and `cdf[k]·2⁵³` are both exact
/// in `f64`, so `u ≤ cdf[k] ⟺ m ≤ ⌊cdf[k]·2⁵³⌋` and no draw differs from
/// the floating-point scan's.
#[derive(Debug, Clone, Copy, Default)]
pub struct Poisson1;

impl Poisson1 {
    /// The sampler (stateless; the table is a constant).
    pub fn new() -> Self {
        Poisson1
    }

    /// One Poisson(1) draw.
    #[inline]
    pub fn sample<R: Rng>(&self, rng: &mut R) -> u32 {
        const T: [u64; 18] = POISSON1_THRESHOLDS;
        let m = rng.next_u64() >> 11;
        // Branch-free over the first four thresholds: P(K ≥ 4) = 1.9 %.
        let k = (m > T[0]) as u32 + (m > T[1]) as u32 + (m > T[2]) as u32 + (m > T[3]) as u32;
        if k < 4 {
            return k;
        }
        T[4..17].iter().take_while(|&&t| m > t).count() as u32 + 4
    }

    /// Fill `out` with independent Poisson(1) draws.
    pub fn fill<R: Rng>(&self, rng: &mut R, out: &mut [u32]) {
        for slot in out {
            *slot = self.sample(rng);
        }
    }
}

/// Zipf(n, s) sampler over ranks 1..=n via rejection-inversion
/// (Hörmann & Derflinger). Used for categorical skew (city/site
/// popularity) in the synthetic workloads.
#[derive(Debug, Clone)]
pub struct Zipf {
    n: u64,
    s: f64,
    h_n: f64,
}

impl Zipf {
    /// A Zipf distribution over `{1..n}` with exponent `s > 0` (s = 1 is
    /// handled through the logarithmic limit branch). `n >= 1` and `s > 0`
    /// are the caller's to guarantee: the generators pass constants, no
    /// query reaches this.
    pub fn new(n: u64, s: f64) -> Self {
        debug_assert!(n >= 1 && s > 0.0, "Zipf needs n >= 1 and s > 0, got n = {n}, s = {s}");
        let h = |x: f64| -> f64 {
            if (s - 1.0).abs() < 1e-12 {
                (1.0 + x).ln()
            } else {
                ((1.0 + x).powf(1.0 - s) - 1.0) / (1.0 - s)
            }
        };
        let h_n = h(n as f64 + 0.5);
        Zipf { n, s, h_n }
    }

    /// One Zipf draw in `1..=n`.
    ///
    /// Uses rejection-inversion; falls back to clamping at the bounds.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> u64 {
        // Rejection-inversion after Hörmann & Derflinger (1996).
        let s = self.s;
        let h = |x: f64| -> f64 {
            if (s - 1.0).abs() < 1e-12 {
                (1.0 + x).ln()
            } else {
                ((1.0 + x).powf(1.0 - s) - 1.0) / (1.0 - s)
            }
        };
        let h_inv = |x: f64| -> f64 {
            if (s - 1.0).abs() < 1e-12 {
                x.exp() - 1.0
            } else {
                ((1.0 - s) * x + 1.0).powf(1.0 / (1.0 - s)) - 1.0
            }
        };
        let h_half = h(0.5);
        let d = 1.0 - h_inv(h(1.5) - (-s * 1.5f64.ln()).exp());
        loop {
            let u = h_half + rng.random::<f64>() * (self.h_n - h_half);
            let x = h_inv(u);
            let k = (x + 0.5).floor().clamp(1.0, self.n as f64);
            if k - x <= d || u >= h(k + 0.5) - (-s * k.ln()).exp() {
                return k as u64;
            }
        }
    }

    /// Number of categories.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Exponent.
    pub fn s(&self) -> f64 {
        self.s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::rng_from_seed;

    #[test]
    fn normal_quantile_known_values() {
        assert!((normal_quantile(0.5)).abs() < 1e-9);
        assert!((normal_quantile(0.975) - 1.959_963_985).abs() < 1e-6);
        assert!((normal_quantile(0.025) + 1.959_963_985).abs() < 1e-6);
        assert!((normal_quantile(0.995) - 2.575_829_304).abs() < 1e-6);
        // Tails.
        assert!(normal_quantile(1e-10) < -6.0);
        assert!(normal_quantile(1.0 - 1e-10) > 6.0);
    }

    #[test]
    fn normal_quantile_is_nan_outside_the_open_interval() {
        for p in [0.0, 1.0, -0.5, 1.25, f64::NAN, f64::INFINITY] {
            assert!(normal_quantile(p).is_nan(), "{p}");
        }
    }

    #[test]
    fn cdf_and_quantile_are_inverse() {
        for &p in &[0.01, 0.1, 0.25, 0.5, 0.9, 0.99] {
            let x = normal_quantile(p);
            assert!((normal_cdf(x) - p).abs() < 1e-6, "p={p}");
        }
    }

    #[test]
    fn normal_sample_moments() {
        let mut rng = rng_from_seed(1);
        let n = 100_000;
        let xs: Vec<f64> = (0..n).map(|_| sample_normal(&mut rng, 3.0, 2.0)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.03, "mean {mean}");
        assert!((var - 4.0).abs() < 0.1, "var {var}");
    }

    /// The Poisson(1) CDF accumulated in `f64` from `e⁻¹`; with
    /// `poisson1_cdf_scan`, the floating-point definition of the draw.
    fn poisson1_cdf() -> [f64; 18] {
        let mut cdf = [0.0f64; 18];
        let mut pk = (-1.0f64).exp(); // P(K = 0) = e^{-1}
        let mut acc = 0.0;
        for (k, slot) in cdf.iter_mut().enumerate() {
            acc += pk;
            *slot = acc;
            pk /= (k + 1) as f64; // P(K=k+1) = P(K=k) / (k+1) for λ=1
        }
        cdf
    }

    fn poisson1_cdf_scan<R: Rng>(cdf: &[f64; 18], rng: &mut R) -> u32 {
        let u: f64 = rng.random::<f64>();
        cdf.iter().position(|&c| u <= c).unwrap_or(17) as u32
    }

    #[test]
    fn poisson1_table_matches_pmf() {
        let cdf = poisson1_cdf();
        assert!((cdf[0] - (-1.0f64).exp()).abs() < 1e-12);
        assert!((cdf[17] - 1.0).abs() < 1e-12);
        // The constant table is ⌊cdf[k]·2⁵³⌋ of the computed one.
        let two53 = (1u64 << 53) as f64;
        for (k, &c) in cdf.iter().enumerate() {
            assert_eq!(POISSON1_THRESHOLDS[k], (c * two53).floor() as u64, "k = {k}");
        }
        assert!(POISSON1_THRESHOLDS.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn poisson1_thresholds_split_where_the_float_comparison_does() {
        let cdf = poisson1_cdf();
        let unit = 1.0 / (1u64 << 53) as f64;
        for (k, &t) in POISSON1_THRESHOLDS.iter().enumerate() {
            assert!(t as f64 * unit <= cdf[k], "k = {k}: threshold is inside");
            // 2⁵³ itself is not a value of `x >> 11`.
            if t + 1 < 1 << 53 {
                assert!((t + 1) as f64 * unit > cdf[k], "k = {k}: threshold + 1 is outside");
            }
        }
        // Each boundary value of m draws what the CDF scan draws from it.
        struct Fixed(u64);
        impl rand::Rng for Fixed {
            fn next_u64(&mut self) -> u64 {
                self.0
            }
        }
        for &t in &POISSON1_THRESHOLDS {
            for m in [t.saturating_sub(1), t, (t + 1).min((1 << 53) - 1)] {
                for low_bits in [0u64, 0x7ff] {
                    let x = m << 11 | low_bits;
                    assert_eq!(
                        Poisson1.sample(&mut Fixed(x)),
                        poisson1_cdf_scan(&cdf, &mut Fixed(x)),
                        "m = {m:#x}"
                    );
                }
            }
        }
        assert_eq!(Poisson1.sample(&mut Fixed(0)), 0);
        assert_eq!(Poisson1.sample(&mut Fixed(u64::MAX)), 17);
    }

    #[test]
    fn poisson1_draws_equal_the_cdf_scan_draw_for_draw() {
        let cdf = poisson1_cdf();
        let (mut a, mut b) = (rng_from_seed(0xC1), rng_from_seed(0xC1));
        let mut seen = [0u64; 18];
        for i in 0..10_000_000u32 {
            let k = Poisson1.sample(&mut a);
            assert_eq!(k, poisson1_cdf_scan(&cdf, &mut b), "draw {i}");
            seen[k as usize] += 1;
        }
        // The rare path ran, and both generators are at the same point.
        assert!(seen[4..].iter().sum::<u64>() > 100_000 && seen[7] > 0, "{seen:?}");
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn poisson1_sample_mean_and_var_are_one() {
        let p1 = Poisson1::new();
        let mut rng = rng_from_seed(2);
        let n = 200_000;
        let mut sum = 0u64;
        let mut sum_sq = 0u64;
        for _ in 0..n {
            let k = p1.sample(&mut rng) as u64;
            sum += k;
            sum_sq += k * k;
        }
        let mean = sum as f64 / n as f64;
        let var = sum_sq as f64 / n as f64 - mean * mean;
        assert!((mean - 1.0).abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "var {var}");
    }

    #[test]
    fn generic_poisson_agrees_with_lambda() {
        let mut rng = rng_from_seed(3);
        for &lambda in &[0.5, 4.0, 50.0] {
            let n = 50_000;
            let mean = (0..n)
                .map(|_| sample_poisson(&mut rng, lambda) as f64)
                .sum::<f64>()
                / n as f64;
            assert!(
                (mean - lambda).abs() < lambda.max(1.0) * 0.05,
                "lambda {lambda}, mean {mean}"
            );
        }
        assert_eq!(sample_poisson(&mut rng, 0.0), 0);
    }

    #[test]
    fn pareto_tail_behaviour() {
        let mut rng = rng_from_seed(4);
        let n = 100_000;
        let xs: Vec<f64> = (0..n).map(|_| sample_pareto(&mut rng, 1.0, 3.0)).collect();
        assert!(xs.iter().all(|&x| x >= 1.0));
        let mean = xs.iter().sum::<f64>() / n as f64;
        // E[X] = alpha/(alpha-1) = 1.5 for alpha=3.
        assert!((mean - 1.5).abs() < 0.05, "mean {mean}");
        // P(X > 2) = 2^{-3} = 0.125.
        let frac = xs.iter().filter(|&&x| x > 2.0).count() as f64 / n as f64;
        assert!((frac - 0.125).abs() < 0.01, "tail {frac}");
    }

    #[test]
    fn exponential_mean() {
        let mut rng = rng_from_seed(5);
        let n = 100_000;
        let mean = (0..n)
            .map(|_| sample_exponential(&mut rng, 2.0))
            .sum::<f64>()
            / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn lognormal_median() {
        let mut rng = rng_from_seed(6);
        let n = 100_001;
        let mut xs: Vec<f64> = (0..n).map(|_| sample_lognormal(&mut rng, 2.0, 1.0)).collect();
        xs.sort_by(f64::total_cmp);
        let median = xs[n / 2];
        // Median of lognormal(mu, sigma) is e^mu.
        assert!((median - 2.0f64.exp()).abs() / 2.0f64.exp() < 0.03, "median {median}");
    }

    #[test]
    fn zipf_rank_one_dominates() {
        let z = Zipf::new(1000, 1.2);
        let mut rng = rng_from_seed(7);
        let n = 50_000;
        let mut count_one = 0;
        for _ in 0..n {
            let k = z.sample(&mut rng);
            assert!((1..=1000).contains(&k));
            if k == 1 {
                count_one += 1;
            }
        }
        let frac = count_one as f64 / n as f64;
        // For s=1.2, n=1000: P(1) = 1/H ≈ 0.188 (H_{1000,1.2} ≈ 5.33).
        assert!(frac > 0.12 && frac < 0.26, "P(rank 1) = {frac}");
    }

    #[test]
    fn zipf_handles_s_equal_one() {
        let z = Zipf::new(100, 1.0);
        let mut rng = rng_from_seed(8);
        for _ in 0..1000 {
            let k = z.sample(&mut rng);
            assert!((1..=100).contains(&k));
        }
    }
}
