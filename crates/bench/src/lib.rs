//! # aqp-bench
//!
//! The benchmark harness regenerating every table and figure of the
//! paper's evaluation. Each `fig*` binary prints a machine-readable TSV
//! block plus an ASCII rendering, and states the paper's published
//! numbers next to the measured ones (EXPERIMENTS.md records the
//! comparison).
//!
//! Binaries (`cargo run --release -p aqp-bench --bin <name>`):
//!
//! | binary | reproduces |
//! |---|---|
//! | `fig1_sample_sizes` | Fig. 1 — required sample size vs target error per technique |
//! | `fig3_estimation_accuracy` | Fig. 3 — % correct/optimistic/pessimistic per workload × technique |
//! | `fig4_diagnostic_accuracy` | Fig. 4(b)/(c) — diagnostic accuracy vs the ideal verdict |
//! | `fig7_baseline_latency` | Fig. 7(a)/(b) — naive per-query latency decomposition |
//! | `fig8_optimizations` | Fig. 8(a)–(f) — speedup CDFs + parallelism/cache sweeps |
//! | `fig9_optimized_latency` | Fig. 9(a)/(b) — optimized per-query latency decomposition |
//! | `table_workload_stats` | §3's workload-composition and failure-rate numbers |
//! | `table_audit_coverage` | §3's failure rates audited continuously: coverage per (aggregate, verdict) cell and the alert a miscalibrated session fires |
//!
//! Wall-clock timing is not here: `benchmark/` (`BENCHMARK.json`) is the
//! one harness, and the kernel costs are its `per_layer` metrics.

#![deny(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Write as _;

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

/// Tiny `--key value` argument parser (no external deps).
pub struct Args {
    raw: Vec<String>,
}

impl Default for Args {
    fn default() -> Self {
        Self::parse()
    }
}

impl Args {
    /// Capture the process args.
    pub fn parse() -> Self {
        Args { raw: std::env::args().skip(1).collect() }
    }

    /// Value of `--key`, parsed.
    pub fn get<T: std::str::FromStr>(&self, key: &str) -> Option<T> {
        let flag = format!("--{key}");
        self.raw
            .iter()
            .position(|a| a == &flag)
            .and_then(|i| self.raw.get(i + 1))
            .and_then(|v| v.parse().ok())
    }

    /// Whether a bare `--flag` is present.
    pub fn has(&self, key: &str) -> bool {
        self.raw.iter().any(|a| a == &format!("--{key}"))
    }
}

/// Honour a `--metrics <path>` flag: dump the process-global metrics
/// registry (counters, diagnostic verdicts, latency histograms with
/// p50/p95/p99) as a JSONL artifact. Every `fig*` binary calls this at
/// exit so CI's bench smoke step can upload the snapshot.
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
