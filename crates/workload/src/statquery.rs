//! Stats-level query workloads for the Fig. 1/3/4 experiments.
//!
//! Each [`StatQuery`] is a (θ, population) pair: an aggregate (or UDF)
//! plus a data-generation spec for the values column it aggregates. The
//! per-workload aggregate mixes are the published §3 numbers; the data
//! palette spans the tail-weight spectrum so that error estimation
//! succeeds and fails at rates comparable to the paper's.

use std::sync::Arc;

use aqp_stats::dist::{
    sample_exponential, sample_lognormal, sample_normal, sample_pareto,
};
use aqp_stats::error_estimator::Theta;
use aqp_stats::estimator::{udfs, Aggregate};
use aqp_stats::rng::{rng_from_seed, SeedStream};
use rand::{Rng, RngExt};
use serde::{Deserialize, Serialize};

/// Which production trace a workload mimics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Workload {
    /// The Facebook trace mix (§3): MIN 33.35%, COUNT 24.67%, AVG 12.20%,
    /// SUM 10.11%, MAX 2.87%, UDF 11.01%, remainder VAR/STDDEV/percentiles.
    Facebook,
    /// The Conviva trace mix (§3): AVG/COUNT/PERCENTILE/MAX ≈ 32.3%
    /// combined, UDF 42.07%, remainder SUM/MIN/VAR/STDDEV.
    Conviva,
}

/// Aggregate family of a generated query (reporting buckets).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum QueryCategory {
    /// AVG
    Avg,
    /// SUM
    Sum,
    /// COUNT
    Count,
    /// MIN
    Min,
    /// MAX
    Max,
    /// VARIANCE or STDDEV
    Variance,
    /// PERCENTILE
    Percentile,
    /// User-defined aggregate
    Udf,
}

/// Named UDF shapes (matching the `aqp-stats` library).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum UdfKind {
    /// Central-band trimmed mean (smooth).
    TrimmedMean,
    /// Mean of the top decile (MAX-like sensitivity).
    TopDecileMean,
    /// Geometric mean (smooth nonlinearity).
    GeoMean,
    /// Coefficient of variation (smooth ratio).
    Cov,
    /// Fraction above a threshold (Bernoulli-smooth).
    FracAbove(
        /// The threshold.
        f64,
    ),
}

/// The θ of a generated query.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ThetaKind {
    /// A built-in aggregate.
    Builtin(Aggregate),
    /// A UDF aggregate.
    Udf(UdfKind),
}

impl ThetaKind {
    /// Instantiate the estimator.
    ///
    /// COUNT is instantiated as SUM over the 0/1 filter-indicator encoding
    /// (identical estimator and closed form: `COUNT = Σ 1(pass) · N/n`).
    pub fn instantiate(&self) -> Theta {
        let udf = match self {
            ThetaKind::Builtin(Aggregate::Count) => return Theta::Builtin(Aggregate::Sum),
            ThetaKind::Builtin(a) => return Theta::Builtin(*a),
            ThetaKind::Udf(UdfKind::TrimmedMean) => udfs::trimmed_mean(0.1, 0.9),
            ThetaKind::Udf(UdfKind::TopDecileMean) => udfs::top_fraction_mean(0.1),
            ThetaKind::Udf(UdfKind::GeoMean) => udfs::geometric_mean(),
            ThetaKind::Udf(UdfKind::Cov) => udfs::coeff_of_variation(),
            ThetaKind::Udf(UdfKind::FracAbove(t)) => udfs::frac_above(*t),
        };
        Theta::Udf(Arc::new(udf))
    }

    /// The reporting bucket.
    pub fn category(&self) -> QueryCategory {
        match self {
            ThetaKind::Builtin(Aggregate::Avg) => QueryCategory::Avg,
            ThetaKind::Builtin(Aggregate::Sum) => QueryCategory::Sum,
            ThetaKind::Builtin(Aggregate::Count) => QueryCategory::Count,
            ThetaKind::Builtin(Aggregate::Min) => QueryCategory::Min,
            ThetaKind::Builtin(Aggregate::Max) => QueryCategory::Max,
            ThetaKind::Builtin(Aggregate::Variance | Aggregate::StdDev) => {
                QueryCategory::Variance
            }
            ThetaKind::Builtin(Aggregate::Percentile(_)) => QueryCategory::Percentile,
            ThetaKind::Udf(_) => QueryCategory::Udf,
        }
    }
}

/// Data-generation spec for a query's values column.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum DataSpec {
    /// Benign: normal.
    Normal {
        /// Mean.
        mean: f64,
        /// Standard deviation.
        sd: f64,
    },
    /// Moderate tail: lognormal.
    Lognormal {
        /// Log-mean.
        mu: f64,
        /// Log-sd.
        sigma: f64,
    },
    /// Heavy tail: Pareto (α ≤ 2 ⇒ infinite variance).
    Pareto {
        /// Shape.
        alpha: f64,
    },
    /// Exponential.
    Exponential {
        /// Rate.
        rate: f64,
    },
    /// Bounded in \[0, hi\] (uniform squared — skewed but bounded).
    Bounded {
        /// Upper bound.
        hi: f64,
    },
    /// Lognormal with a point mass at zero — gives MIN queries an
    /// atom that sampling finds almost surely (the regime where extreme
    /// aggregates *are* estimable).
    ZeroInflatedLognormal {
        /// Probability of an exact zero.
        zero_frac: f64,
        /// Log-sd of the continuous part.
        sigma: f64,
    },
}

impl DataSpec {
    /// Generate a population of `n` values.
    pub fn generate(&self, n: usize, seed: u64) -> Vec<f64> {
        let mut rng = rng_from_seed(seed);
        (0..n)
            .map(|_| match self {
                DataSpec::Normal { mean, sd } => sample_normal(&mut rng, *mean, *sd),
                DataSpec::Lognormal { mu, sigma } => sample_lognormal(&mut rng, *mu, *sigma),
                DataSpec::Pareto { alpha } => sample_pareto(&mut rng, 1.0, *alpha),
                DataSpec::Exponential { rate } => sample_exponential(&mut rng, *rate),
                DataSpec::Bounded { hi } => {
                    let u: f64 = rng.random::<f64>();
                    u * u * hi
                }
                DataSpec::ZeroInflatedLognormal { zero_frac, sigma } => {
                    if rng.random::<f64>() < *zero_frac {
                        0.0
                    } else {
                        sample_lognormal(&mut rng, 1.0, *sigma)
                    }
                }
            })
            .collect()
    }

    /// An approximate median of the distribution — used to set
    /// data-adaptive UDF thresholds (a fixed threshold degenerates to
    /// p ≈ 0 or 1 on most specs, which is not what production
    /// "fraction-above" UDFs look like).
    pub fn typical(&self) -> f64 {
        match self {
            DataSpec::Normal { mean, .. } => *mean,
            DataSpec::Lognormal { mu, .. } => mu.exp(),
            DataSpec::Pareto { alpha } => 2f64.powf(1.0 / alpha),
            DataSpec::Exponential { rate } => std::f64::consts::LN_2 / rate,
            DataSpec::Bounded { hi } => 0.25 * hi, // median of U² · hi
            DataSpec::ZeroInflatedLognormal { .. } => std::f64::consts::E,
        }
    }
}

/// One generated stats-level query.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StatQuery {
    /// Stable id within its workload.
    pub id: usize,
    /// Human-readable label (aggregate + data shape).
    pub name: String,
    /// The aggregate.
    pub theta: ThetaKind,
    /// The population generator.
    pub data: DataSpec,
    /// Filter selectivity. For SUM/COUNT queries the filtered-out rows
    /// contribute zeros to the per-row value vector (the y-encoding of
    /// `aqp_stats::closed_form`); for location-type aggregates the filter
    /// is immaterial at the stats level and selectivity stays 1.
    pub selectivity: f64,
}

impl StatQuery {
    /// Generate the population *value vector* this query aggregates:
    /// the per-row contribution y (zeros where the filter drops the row).
    pub fn population(&self, n: usize, seed: u64) -> Vec<f64> {
        // COUNT aggregates the filter indicator itself.
        let mut values = if matches!(self.theta, ThetaKind::Builtin(Aggregate::Count)) {
            vec![1.0; n]
        } else {
            self.data.generate(n, seed)
        };
        if self.selectivity < 1.0 {
            let mut rng = rng_from_seed(seed ^ 0x5E1);
            for v in &mut values {
                if rng.random::<f64>() >= self.selectivity {
                    *v = 0.0;
                }
            }
        }
        values
    }

    /// Reporting bucket.
    pub fn category(&self) -> QueryCategory {
        self.theta.category()
    }

    /// Whether closed-form estimation applies.
    pub fn closed_form_applicable(&self) -> bool {
        matches!(self.theta, ThetaKind::Builtin(a) if a.closed_form_applicable())
    }
}

impl Workload {
    /// The aggregate mix as (category, cumulative-probability) thresholds.
    fn theta_palette(&self) -> Vec<(f64, ThetaKind)> {
        use Aggregate::*;
        match self {
            // Published Facebook shares; the unlisted 5.79% split between
            // VARIANCE and percentiles.
            Workload::Facebook => vec![
                (0.3335, ThetaKind::Builtin(Min)),
                (0.2467, ThetaKind::Builtin(Count)),
                (0.1220, ThetaKind::Builtin(Avg)),
                (0.1011, ThetaKind::Builtin(Sum)),
                (0.0287, ThetaKind::Builtin(Max)),
                (0.1101, ThetaKind::Udf(UdfKind::TrimmedMean)),
                (0.0300, ThetaKind::Builtin(Variance)),
                (0.0279, ThetaKind::Builtin(Percentile(0.95))),
            ],
            // Conviva: AVG/COUNT/PERCENTILE/MAX combined 32.3%, UDFs
            // 42.07%, remainder SUM/MIN/VARIANCE.
            Workload::Conviva => vec![
                (0.10, ThetaKind::Builtin(Avg)),
                (0.09, ThetaKind::Builtin(Count)),
                (0.083, ThetaKind::Builtin(Percentile(0.99))),
                (0.05, ThetaKind::Builtin(Max)),
                (0.4207, ThetaKind::Udf(UdfKind::TrimmedMean)),
                (0.12, ThetaKind::Builtin(Sum)),
                (0.08, ThetaKind::Builtin(Min)),
                (0.0563, ThetaKind::Builtin(Variance)),
            ],
        }
    }

    /// Sample a UDF variant (the palette key only marks "a UDF"; the
    /// concrete shape varies per query). Production UDFs are mostly
    /// smooth sessionization/ratio logic; extreme-value-like UDFs exist
    /// but are the minority (the paper measures 23.19% bootstrap failure
    /// on UDFs, far below MIN/MAX's 86%).
    fn udf_variant<R: Rng>(rng: &mut R) -> UdfKind {
        match rng.random_range(0..8) {
            0 | 1 => UdfKind::TrimmedMean,
            2 | 3 => UdfKind::GeoMean,
            4 => UdfKind::Cov,
            5 => UdfKind::TopDecileMean,
            _ => UdfKind::FracAbove(10.0),
        }
    }

    /// Sample a data spec; heavy tails appear with workload-tuned
    /// probability.
    fn data_palette<R: Rng>(&self, rng: &mut R, theta: &ThetaKind) -> DataSpec {
        // Extreme-value aggregates: mostly unbounded data (where
        // estimation fails, matching the 86.17% failure share), sometimes
        // atom-at-minimum data (where MIN is trivially estimable).
        if matches!(theta, ThetaKind::Builtin(Aggregate::Min)) && rng.random::<f64>() < 0.15 {
            return DataSpec::ZeroInflatedLognormal { zero_frac: 0.05, sigma: 1.0 };
        }
        let mut heavy_frac = match self {
            Workload::Facebook => 0.12,
            Workload::Conviva => 0.10,
        };
        // Production UDFs and variance aggregates run over session-time /
        // engagement columns, which are rarely the infinite-variance
        // payload columns; pairing them with Pareto data at the generic
        // rate would overstate their failure share far past §3's numbers.
        if matches!(
            theta,
            ThetaKind::Udf(_) | ThetaKind::Builtin(Aggregate::Variance | Aggregate::StdDev)
        ) {
            heavy_frac *= 0.3;
        }
        let x: f64 = rng.random::<f64>();
        if x < heavy_frac {
            DataSpec::Pareto { alpha: 1.1 + rng.random::<f64>() * 0.8 }
        } else if x < heavy_frac + 0.35 {
            DataSpec::Lognormal { mu: 1.0, sigma: 0.4 + rng.random::<f64>() * 0.6 }
        } else if x < heavy_frac + 0.58 {
            DataSpec::Normal { mean: 50.0, sd: 5.0 + rng.random::<f64>() * 15.0 }
        } else if x < heavy_frac + 0.70 {
            DataSpec::Exponential { rate: 0.1 + rng.random::<f64>() }
        } else {
            DataSpec::Bounded { hi: 100.0 }
        }
    }

    /// Generate `n` queries with this workload's mix.
    pub fn generate(&self, n: usize, seed: u64) -> Vec<StatQuery> {
        let seeds = SeedStream::new(seed);
        let mut rng = seeds.rng(0);
        let palette = self.theta_palette();
        (0..n)
            .map(|id| {
                let mut x: f64 = rng.random::<f64>();
                let mut theta = palette.last().expect("non-empty palette").1;
                for (share, t) in &palette {
                    if x < *share {
                        theta = *t;
                        break;
                    }
                    x -= share;
                }
                // Concrete UDF shape varies.
                if matches!(theta, ThetaKind::Udf(_)) {
                    theta = ThetaKind::Udf(Self::udf_variant(&mut rng));
                }
                // SUM/COUNT carry a filter; the per-row encoding zeroes the
                // filtered-out rows (keeping the Poissonized bootstrap's
                // size-variance term at its production magnitude).
                let (data, selectivity) = match theta {
                    ThetaKind::Builtin(Aggregate::Count) => (
                        DataSpec::Bounded { hi: 1.0 },
                        0.02 + rng.random::<f64>() * 0.38,
                    ),
                    ThetaKind::Builtin(Aggregate::Sum) => (
                        self.data_palette(&mut rng, &theta),
                        0.05 + rng.random::<f64>() * 0.45,
                    ),
                    _ => (self.data_palette(&mut rng, &theta), 1.0),
                };
                // Fraction-above UDFs threshold near the data's median.
                if matches!(theta, ThetaKind::Udf(UdfKind::FracAbove(_))) {
                    theta = ThetaKind::Udf(UdfKind::FracAbove(
                        data.typical() * (0.6 + rng.random::<f64>() * 0.8),
                    ));
                }
                let name = format!("{:?}#{id}:{:?}/{:?}", self, theta.category(), data);
                StatQuery { id, name, theta, data, selectivity }
            })
            .collect()
    }

    /// Generate only queries amenable to closed forms (the Fig. 4(b)
    /// "AVG, COUNT, SUM, or VARIANCE" sets).
    pub fn generate_closed_form(&self, n: usize, seed: u64) -> Vec<StatQuery> {
        let mut out = Vec::with_capacity(n);
        let mut s = seed;
        while out.len() < n {
            for q in self.generate(n * 2, s) {
                if q.closed_form_applicable() && out.len() < n {
                    out.push(q);
                }
            }
            s += 1;
        }
        for (i, q) in out.iter_mut().enumerate() {
            q.id = i;
        }
        out
    }

    /// Generate only bootstrap-only queries (the Fig. 4(c) "complex
    /// aggregates" sets).
    pub fn generate_bootstrap_only(&self, n: usize, seed: u64) -> Vec<StatQuery> {
        let mut out = Vec::with_capacity(n);
        let mut s = seed.wrapping_add(7_777);
        while out.len() < n {
            for q in self.generate(n * 2, s) {
                if !q.closed_form_applicable() && out.len() < n {
                    out.push(q);
                }
            }
            s += 1;
        }
        for (i, q) in out.iter_mut().enumerate() {
            q.id = i;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn shares(qs: &[StatQuery]) -> HashMap<QueryCategory, f64> {
        let mut m: HashMap<QueryCategory, usize> = HashMap::new();
        for q in qs {
            *m.entry(q.category()).or_default() += 1;
        }
        m.into_iter().map(|(k, v)| (k, v as f64 / qs.len() as f64)).collect()
    }

    #[test]
    fn facebook_mix_matches_published_shares() {
        let qs = Workload::Facebook.generate(20_000, 1);
        let s = shares(&qs);
        // ±2.5 percentage points of the §3 numbers.
        assert!((s[&QueryCategory::Min] - 0.3335).abs() < 0.025, "{s:?}");
        assert!((s[&QueryCategory::Count] - 0.2467).abs() < 0.025, "{s:?}");
        assert!((s[&QueryCategory::Avg] - 0.1220).abs() < 0.025, "{s:?}");
        assert!((s[&QueryCategory::Sum] - 0.1011).abs() < 0.025, "{s:?}");
        assert!((s[&QueryCategory::Max] - 0.0287).abs() < 0.02, "{s:?}");
        assert!((s[&QueryCategory::Udf] - 0.1101).abs() < 0.025, "{s:?}");
    }

    #[test]
    fn conviva_mix_has_heavy_udf_share() {
        let qs = Workload::Conviva.generate(20_000, 2);
        let s = shares(&qs);
        assert!((s[&QueryCategory::Udf] - 0.4207).abs() < 0.03, "{s:?}");
        let combined = s.get(&QueryCategory::Avg).unwrap_or(&0.0)
            + s.get(&QueryCategory::Count).unwrap_or(&0.0)
            + s.get(&QueryCategory::Percentile).unwrap_or(&0.0)
            + s.get(&QueryCategory::Max).unwrap_or(&0.0);
        assert!((combined - 0.323).abs() < 0.03, "combined {combined}");
    }

    #[test]
    fn closed_form_share_near_published() {
        // §3: 37.21% of Facebook queries amenable to closed forms
        // (COUNT + AVG + SUM + VARIANCE-family minus those inside UDFs).
        let qs = Workload::Facebook.generate(20_000, 3);
        let frac =
            qs.iter().filter(|q| q.closed_form_applicable()).count() as f64 / qs.len() as f64;
        assert!((frac - 0.50).abs() < 0.04, "closed-form share {frac}");
        // (Our share is higher than 37.21% because the published figure
        // also excludes multi-aggregate and nested queries, which the
        // stats-level workload does not model; the SQL-level traces do.)
    }

    #[test]
    fn filtered_generators_filter() {
        let cf = Workload::Conviva.generate_closed_form(100, 4);
        assert_eq!(cf.len(), 100);
        assert!(cf.iter().all(|q| q.closed_form_applicable()));
        let bo = Workload::Conviva.generate_bootstrap_only(250, 5);
        assert_eq!(bo.len(), 250);
        assert!(bo.iter().all(|q| !q.closed_form_applicable()));
    }

    #[test]
    fn data_specs_generate_expected_shapes() {
        let xs = DataSpec::Bounded { hi: 10.0 }.generate(1000, 1);
        assert!(xs.iter().all(|&x| (0.0..=10.0).contains(&x)));
        let xs = DataSpec::Pareto { alpha: 1.2 }.generate(1000, 2);
        assert!(xs.iter().all(|&x| x >= 1.0));
        let xs = DataSpec::ZeroInflatedLognormal { zero_frac: 0.5, sigma: 1.0 }.generate(1000, 3);
        let zeros = xs.iter().filter(|&&x| x == 0.0).count();
        assert!(zeros > 400 && zeros < 600, "zeros {zeros}");
    }

    #[test]
    fn generation_is_deterministic() {
        let a = Workload::Facebook.generate(50, 9);
        let b = Workload::Facebook.generate(50, 9);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name, y.name);
        }
    }

    #[test]
    fn theta_instantiation_works() {
        for q in Workload::Conviva.generate(200, 10) {
            let theta = q.theta.instantiate();
            let ctx = aqp_stats::estimator::SampleContext::population(100);
            let vals: Vec<f64> = (1..=100).map(|i| i as f64).collect();
            let v = theta.estimate(&vals, &ctx);
            assert!(v.is_finite(), "{} produced {v}", q.name);
        }
    }
}
