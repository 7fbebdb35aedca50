//! # aqp-bench
//!
//! The benchmark harness regenerating every table and figure of the
//! paper's evaluation. Each section prints a machine-readable TSV block
//! plus an ASCII rendering, and states the paper's published numbers next
//! to the measured ones (EXPERIMENTS.md records the comparison).
//!
//! Two binaries, `calibrate` (§3's evidence) and `latency` (the simulated
//! §5–§7 figures), each `<binary> [section] [--flag value ...]`: no
//! section runs them all (`cargo run --release -p aqp-bench --bin
//! <binary> -- <section>`), and a flag no chosen section reads exits 2
//! ([`Args::sections`]).
//!
//! | section | reproduces |
//! |---|---|
//! | `calibrate fig1` | Fig. 1 — required sample size vs target error per technique |
//! | `calibrate fig3` | Fig. 3 — % correct/optimistic/pessimistic per workload × technique |
//! | `calibrate fig4` | Fig. 4(b)/(c) — diagnostic accuracy vs the ideal verdict |
//! | `calibrate table` | §2.2's guarantee: coverage per θ × data family × ξ × α ([`calibration_table`]) |
//! | `calibrate workload` | §3's workload-composition and failure-rate numbers |
//! | `calibrate audit` | §3's failure rates audited continuously: coverage per (aggregate, verdict) cell and the alert a miscalibrated session fires |
//! | `latency fig7` | Fig. 7(a)/(b) — naive per-query latency decomposition (simulated) |
//! | `latency fig8` | Fig. 8(a)–(f) — speedup CDFs + parallelism/cache sweeps (simulated) |
//! | `latency fig9` | Fig. 9(a)/(b) — optimized per-query latency decomposition (simulated) |
//!
//! Wall-clock timing is not here: `benchmark/` (`BENCHMARK.json`) is the
//! one harness, and the kernel costs are its `per_layer` metrics.

#![deny(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Write as _;

use aqp_stats::accuracy::{evaluate_error_estimator, AccuracyConfig};
use aqp_stats::error_estimator::EstimationMethod::{Bootstrap, ClosedForm};
use aqp_stats::error_estimator::Theta;
use aqp_stats::estimator::Aggregate::{Avg, Count, Sum};
use aqp_stats::rng::SeedStream;
use aqp_workload::statquery::{DataSpec, ThetaKind};
use aqp_workload::StatQuery;

/// Percentile of an unsorted f64 slice (nearest rank).
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty());
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = (q.clamp(0.0, 1.0) * (v.len() - 1) as f64).round() as usize;
    v[pos]
}

/// Mean of a slice.
pub fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len().max(1) as f64
}

/// Render a CDF of `values` as `steps` (value, fraction ≤ value) rows.
pub fn cdf_rows(values: &[f64], steps: usize) -> Vec<(f64, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    (1..=steps)
        .map(|i| {
            let frac = i as f64 / steps as f64;
            let idx = ((frac * v.len() as f64).ceil() as usize).clamp(1, v.len()) - 1;
            (v[idx], frac)
        })
        .collect()
}

/// A fixed-width ASCII bar.
pub fn bar(value: f64, max: f64, width: usize) -> String {
    let filled = if max <= 0.0 {
        0
    } else {
        ((value / max) * width as f64).round().clamp(0.0, width as f64) as usize
    };
    let mut s = String::with_capacity(width);
    for i in 0..width {
        s.push(if i < filled { '#' } else { ' ' });
    }
    s
}

/// Format a TSV row.
pub fn tsv_row(cells: &[String]) -> String {
    cells.join("\t")
}

/// A labelled section header for bench output.
pub fn section(title: &str) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "\n{}", "=".repeat(72));
    let _ = writeln!(s, "{title}");
    let _ = writeln!(s, "{}", "=".repeat(72));
    s
}

/// Tiny `bin [section] [--flag value ...]` argument parser (no external
/// deps). A bad command line exits 2 naming what is wrong.
pub struct Args {
    raw: Vec<String>,
}

impl Args {
    /// Capture the process args.
    pub fn parse() -> Self {
        Args { raw: std::env::args().skip(1).collect() }
    }

    /// Value of `--key`, parsed; `None` when the flag is absent. A flag
    /// with no value, or with one that does not parse, exits 2 naming both.
    pub fn get<T: std::str::FromStr>(&self, key: &str) -> Option<T> {
        self.value(key).unwrap_or_else(|e| exit_usage(&e))
    }

    /// Values of the count flags `(key, default)`, each `default` when
    /// absent; a count of 0 exits 2 naming the flag, as [`get`](Self::get)
    /// an unparsable value.
    pub fn counts<const N: usize>(&self, keys: [(&str, usize); N]) -> [usize; N] {
        keys.map(|(key, default)| self.counted(key, default).unwrap_or_else(|e| exit_usage(&e)))
    }

    fn value<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        let flag = format!("--{key}");
        let Some(i) = self.raw.iter().position(|a| a == &flag) else { return Ok(None) };
        let v = self.raw.get(i + 1).ok_or_else(|| format!("{flag} needs a value"))?;
        v.parse().map(Some).map_err(|_| format!("{flag}: cannot parse `{v}`"))
    }

    fn counted(&self, key: &str, default: usize) -> Result<usize, String> {
        match self.value(key)? {
            Some(0) => Err(format!("--{key} 0: needs at least one")),
            n => Ok(n.unwrap_or(default)),
        }
    }

    /// The sections `bin` runs: a test that holds for the one named by the
    /// leading word, or for every one of `sections` when none is named.
    /// Each section lists the flags it reads; `--metrics` is every one's.
    /// Anything on the command line no chosen section reads — an unknown
    /// section or flag, a stray word, a flag with no value — exits 2 with
    /// the usage line, before any section prints.
    pub fn sections(&self, bin: &str, sections: &[(&str, &[&str])]) -> impl Fn(&str) -> bool {
        let chosen = self.chosen(sections).unwrap_or_else(|e| {
            let names: Vec<&str> = sections.iter().map(|s| s.0).collect();
            exit_usage(&format!("{e}; usage: {bin} [{}] [--flag value ...]", names.join("|")))
        });
        move |s| chosen.as_deref().is_none_or(|c| c == s)
    }

    fn chosen(&self, sections: &[(&str, &[&str])]) -> Result<Option<String>, String> {
        let chosen = self.raw.first().filter(|a| !a.starts_with("--"));
        let named = sections.iter().filter(|s| chosen.is_none_or(|c| c == s.0)).collect::<Vec<_>>();
        if let (Some(c), []) = (chosen, named.as_slice()) {
            return Err(format!("unknown section `{c}`"));
        }
        let reads = |flag: &str| flag == "metrics" || named.iter().any(|s| s.1.contains(&flag));
        let mut rest = self.raw.iter().skip(usize::from(chosen.is_some()));
        while let Some(a) = rest.next() {
            let flag = a.strip_prefix("--").filter(|f| reads(f));
            let flag = flag.ok_or_else(|| format!("no chosen section reads `{a}`"))?;
            rest.next().filter(|v| !v.starts_with("--")).ok_or_else(|| format!("--{flag} needs a value"))?;
        }
        Ok(chosen.cloned())
    }
}

fn exit_usage(message: &str) -> ! {
    eprintln!("{message}");
    std::process::exit(2)
}

/// The §3 loop every accuracy section runs on: query `qi`'s population
/// (`pop_rows` rows, seed `seeds.seed(qi · pop_stride)`), θ and `qi` go to
/// `eval` — in parallel, results in query order.
pub fn per_query<R: Send>(
    queries: &[StatQuery],
    pop_rows: usize,
    seeds: SeedStream,
    pop_stride: u64,
    eval: impl Fn(&[f64], &Theta, u64) -> R + Sync,
) -> Vec<R> {
    let jobs: Vec<(u64, &StatQuery)> = (0..).zip(queries).collect();
    aqp_exec::parallel::parallel_map(jobs, aqp_exec::parallel::default_threads(), |(qi, q)| {
        eval(&q.population(pop_rows, seeds.seed(qi * pop_stride)), &q.theta.instantiate(), qi)
    })
}

/// The coverage table (§2.2: on a share α of samples the interval holds
/// θ(D)): one TSV line per (θ, data family, ξ, α) cell, each one
/// [`evaluate_error_estimator`] call of `runs` samples of 2 000 rows
/// from a 40 000-row population, its true interval from max(250, `runs`)
/// more. The cells of one (θ, family) row share
/// its population and its seed stream, so both ξ see the same samples and
/// one ξ's intervals are nested in α: coverage can only rise along a row.
/// A cell is `RED` when its coverage is more than three binomial standard
/// errors from α ([`covers_at`](aqp_stats::accuracy::AccuracyReport::covers_at)).
///
/// SUM and COUNT filter half the rows (the y-encoding). COUNT has one row,
/// family `indicator`: its values are the filter indicator whatever the
/// family, and its θ is their SUM.
pub fn calibration_table(runs: usize) -> String {
    let families = [
        ("normal", DataSpec::Normal { mean: 50.0, sd: 15.0 }),
        ("lognormal", DataSpec::Lognormal { mu: 1.0, sigma: 1.0 }),
        ("pareto1.3", DataSpec::Pareto { alpha: 1.3 }),
    ];
    let query = |agg, (family, data): (&str, DataSpec), selectivity| StatQuery {
        id: 0,
        name: family.to_string(),
        theta: ThetaKind::Builtin(agg),
        data,
        selectivity,
    };
    let mut queries: Vec<StatQuery> = [(Avg, 1.0), (Sum, 0.5)]
        .into_iter()
        .flat_map(|(agg, sel)| families.map(|family| query(agg, family, sel)))
        .collect();
    queries.push(query(Count, ("indicator", families[0].1), 0.5));
    let (xis, alphas) = ([ClosedForm, Bootstrap { k: 100 }], [0.80, 0.90, 0.95, 0.99]);
    let cfg = AccuracyConfig { sample_rows: 2_000, runs, truth_runs: 250, ..Default::default() };
    let seeds = SeedStream::new(0xCA1);
    let rows = per_query(&queries, 40_000, seeds, 1, |pop, theta, qi| {
        let eval = |xi, alpha| {
            evaluate_error_estimator(pop, theta, xi, &AccuracyConfig { alpha, ..cfg }, seeds.derive(qi))
        };
        xis.iter().flat_map(|xi| alphas.map(|a| (xi, a, eval(xi, a)))).collect::<Vec<_>>()
    });
    let mut out = "TSV: theta\tfamily\txi\talpha\truns\tcoverage\tstd_error\t\
                   rel_half_width\tverdict\tstatus\n"
        .to_string();
    for (q, row) in queries.iter().zip(rows) {
        for (xi, alpha, r) in row {
            let _ = writeln!(
                out,
                "{}\t{}\t{}\t{alpha:.2}\t{}\t{:.3}\t{:.4}\t{:.4}\t{:?}\t{}",
                format!("{:?}", q.category()).to_uppercase(),
                q.name,
                xi.name(),
                r.runs,
                r.coverage(),
                r.coverage_std_error(),
                r.mean_half_width / r.theta_d.abs(),
                r.verdict,
                if r.covers_at(alpha, 3.0) { "ok" } else { "RED" },
            );
        }
    }
    out
}

/// Honour a `--metrics <path>` flag: dump the process-global metrics
/// registry (counters, diagnostic verdicts, latency histograms with
/// p50/p95/p99) as a JSONL artifact. Every binary calls this at exit so
/// CI's bench smoke step can upload the snapshot.
pub fn maybe_write_metrics(args: &Args) {
    let Some(path) = args.get::<String>("metrics") else { return };
    let snapshot = aqp_obs::MetricsRegistry::global().snapshot();
    match std::fs::write(&path, snapshot.to_jsonl()) {
        Ok(()) => eprintln!("metrics snapshot written to {path}"),
        Err(e) => eprintln!("failed writing metrics snapshot to {path}: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_and_mean() {
        let xs = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 1.0), 5.0);
        assert_eq!(percentile(&xs, 0.5), 3.0);
        assert_eq!(mean(&xs), 3.0);
    }

    #[test]
    fn flags_parse_or_name_what_is_wrong() {
        let args = |raw: &[&str]| Args { raw: raw.iter().map(|a| a.to_string()).collect() };
        let a = args(&["fig7", "--queries", "10", "--seed", "ten", "--metrics"]);
        assert_eq!(a.value::<usize>("queries"), Ok(Some(10)));
        assert_eq!(a.value::<usize>("population"), Ok(None));
        assert_eq!(a.value::<u64>("seed"), Err("--seed: cannot parse `ten`".to_string()));
        assert_eq!(a.value::<String>("metrics"), Err("--metrics needs a value".to_string()));
        assert_eq!(args(&["fig7", "--queries", "0"]).counted("queries", 100), Err("--queries 0: needs at least one".to_string()));
        assert_eq!(args(&["fig7"]).counted("queries", 100), Ok(100));
        // Anything no chosen section reads is refused: an unknown section or
        // flag, a flag another section reads, a stray word, a missing value.
        let sections: &[(&str, &[&str])] = &[("fig7", &["queries"]), ("table", &[])];
        let chosen = |raw: &[&str]| args(raw).chosen(sections);
        assert_eq!(chosen(&["fig7", "--queries", "10", "--metrics", "m"]), Ok(Some("fig7".to_string())));
        assert_eq!(chosen(&["--queries", "10"]), Ok(None));
        assert_eq!(chosen(&["fig9"]), Err("unknown section `fig9`".to_string()));
        assert_eq!(chosen(&["fig7", "--part", "plan"]), Err("no chosen section reads `--part`".to_string()));
        assert_eq!(chosen(&["table", "--queries", "5"]), Err("no chosen section reads `--queries`".to_string()));
        assert_eq!(chosen(&["fig7", "table"]), Err("no chosen section reads `table`".to_string()));
        assert_eq!(chosen(&["fig7", "--queries", "--seed"]), Err("--queries needs a value".to_string()));
    }

    #[test]
    fn cdf_monotone() {
        let xs = [3.0, 1.0, 2.0, 10.0];
        let rows = cdf_rows(&xs, 4);
        assert_eq!(rows.len(), 4);
        assert!(rows.windows(2).all(|w| w[0].0 <= w[1].0 && w[0].1 <= w[1].1));
        assert_eq!(rows.last().unwrap().0, 10.0);
    }

    #[test]
    fn bars_clamp() {
        assert_eq!(bar(5.0, 10.0, 10), "#####     ");
        assert_eq!(bar(20.0, 10.0, 4), "####");
        assert_eq!(bar(0.0, 10.0, 3), "   ");
    }
}
