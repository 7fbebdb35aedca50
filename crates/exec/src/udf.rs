//! The aggregate-UDF registry.
//!
//! §2.3.2 treats UDFs as black boxes: no closed form exists, only the
//! bootstrap applies. The registry maps SQL-level names to concrete
//! [`aqp_stats::estimator::Udf`]s. The stock library mirrors the
//! Conviva-style UDFs shipped with `aqp-stats`.
//!
//! How a UDF's resamples are evaluated is the UDF's own business: one
//! registered with a weighted form (`Udf::with_weighted`, which every
//! stock UDF has) takes the weight column, a bare closure gets each
//! resample expanded into a buffer. Nothing here or in the engine asks
//! which — both arrive through `QueryEstimator::replicator`.

use std::collections::HashMap;
use std::sync::Arc;

use aqp_stats::estimator::{udfs, Udf};

use crate::{ExecError, Result};

/// A registry of named aggregate UDFs.
#[derive(Clone)]
pub struct UdfRegistry {
    udfs: HashMap<String, Arc<Udf>>,
}

impl std::fmt::Debug for UdfRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut names: Vec<&str> = self.udfs.keys().map(String::as_str).collect();
        names.sort_unstable();
        write!(f, "UdfRegistry{names:?}")
    }
}

impl Default for UdfRegistry {
    fn default() -> Self {
        Self::with_stock_library()
    }
}

impl UdfRegistry {
    /// An empty registry.
    pub fn empty() -> Self {
        UdfRegistry { udfs: HashMap::new() }
    }

    /// The stock library:
    ///
    /// * `trimmed_mean` — mean of the central 80% band,
    /// * `top_decile_mean` — mean of the top 10% (MAX-like sensitivity),
    /// * `geo_mean` — geometric mean,
    /// * `cov` — coefficient of variation,
    /// * `frac_above_p90`-style helpers are registered by the workload
    ///   crate with concrete thresholds.
    pub fn with_stock_library() -> Self {
        let mut r = UdfRegistry::empty();
        r.register("trimmed_mean", udfs::trimmed_mean(0.1, 0.9));
        r.register("top_decile_mean", udfs::top_fraction_mean(0.1));
        r.register("geo_mean", udfs::geometric_mean());
        r.register("cov", udfs::coeff_of_variation());
        r
    }

    /// Register (or replace) a UDF under `name` (lowercased).
    pub fn register(&mut self, name: impl Into<String>, udf: Udf) {
        self.udfs.insert(name.into().to_ascii_lowercase(), Arc::new(udf));
    }

    /// Resolve a name.
    pub fn resolve(&self, name: &str) -> Result<Arc<Udf>> {
        self.udfs
            .get(&name.to_ascii_lowercase())
            .cloned()
            .ok_or_else(|| ExecError::UnknownUdf(name.to_owned()))
    }

    /// Registered names, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.udfs.keys().cloned().collect();
        v.sort();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqp_stats::estimator::{QueryEstimator, SampleContext};

    #[test]
    fn stock_library_resolves() {
        let r = UdfRegistry::default();
        for name in ["trimmed_mean", "TOP_DECILE_MEAN", "geo_mean", "cov"] {
            assert!(r.resolve(name).is_ok(), "{name}");
        }
        assert!(r.resolve("nope").is_err());
    }

    #[test]
    fn custom_registration_and_evaluation() {
        let mut r = UdfRegistry::empty();
        r.register("second_moment", Udf::new("second_moment", |xs| {
            xs.iter().map(|x| x * x).sum::<f64>() / xs.len() as f64
        }));
        let udf = r.resolve("second_moment").unwrap();
        let ctx = SampleContext::population(3);
        assert!((udf.estimate(&[1.0, 2.0, 3.0], &ctx) - 14.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn names_listing() {
        let r = UdfRegistry::default();
        let names = r.names();
        assert!(names.contains(&"geo_mean".to_string()));
        assert!(names.windows(2).all(|w| w[0] <= w[1]));
    }
}
