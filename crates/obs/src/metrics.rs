//! A lock-cheap metrics registry: counters, gauges, and fixed-bucket
//! latency histograms with deterministic snapshots.
//!
//! Handles ([`Counter`], [`Gauge`], [`Histogram`]) are `Arc`-backed and
//! cheap to clone; after the one-time registration lookup every update
//! is a single atomic operation, safe to perform from worker threads.
//!
//! Naming convention: `aqp.<crate>.<name>` (e.g.
//! `aqp.stats.bootstrap_resamples`, `aqp.exec.worker_ms`). Histograms
//! record milliseconds and carry a `_ms` suffix.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Duration;

use crate::json::{push_f64, push_str_lit};

/// Default latency histogram bucket upper bounds, in milliseconds.
///
/// Spans 50µs .. 30s, roughly logarithmic; a final implicit overflow
/// bucket catches everything slower.
pub const DEFAULT_LATENCY_BUCKETS_MS: &[f64] = &[
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1_000.0, 2_500.0,
    5_000.0, 10_000.0, 30_000.0,
];

/// A monotonically increasing counter.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Increment by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increment by `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-write-wins floating-point gauge.
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Default for Gauge {
    fn default() -> Self {
        Gauge(Arc::new(AtomicU64::new(0f64.to_bits())))
    }
}

impl Gauge {
    /// Set the gauge.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// A fixed-bucket latency histogram (milliseconds).
///
/// Bucket boundaries are upper bounds; an implicit overflow bucket
/// catches observations beyond the last boundary. Recording is one
/// atomic increment plus one atomic add — no locks.
#[derive(Debug, Clone)]
pub struct Histogram {
    /// Upper bounds in milliseconds, strictly increasing.
    boundaries: Arc<Vec<f64>>,
    /// One count per boundary, plus the trailing overflow bucket.
    counts: Arc<Vec<AtomicU64>>,
    /// Total observed time in nanoseconds.
    sum_ns: Arc<AtomicU64>,
}

impl Histogram {
    fn new(boundaries: &[f64]) -> Self {
        let counts = (0..=boundaries.len()).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            boundaries: Arc::new(boundaries.to_vec()),
            counts: Arc::new(counts),
            sum_ns: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Record one observation.
    pub fn record(&self, d: Duration) {
        self.record_ms(d.as_secs_f64() * 1e3);
    }

    /// Record one observation given directly in milliseconds.
    pub fn record_ms(&self, ms: f64) {
        let idx = self.boundaries.partition_point(|&b| b < ms);
        self.counts[idx].fetch_add(1, Ordering::Relaxed);
        let ns = (ms * 1e6).max(0.0) as u64;
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// A point-in-time snapshot of this histogram.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let counts: Vec<u64> = self.counts.iter().map(|c| c.load(Ordering::Relaxed)).collect();
        let count: u64 = counts.iter().sum();
        let sum_ms = self.sum_ns.load(Ordering::Relaxed) as f64 / 1e6;
        let buckets: Vec<(f64, u64)> = self
            .boundaries
            .iter()
            .copied()
            .chain(std::iter::once(f64::INFINITY))
            .zip(counts)
            .collect();
        let pct = |q: f64| percentile_from_buckets(&buckets, count, q);
        HistogramSnapshot {
            count,
            sum_ms,
            p50: pct(0.50),
            p95: pct(0.95),
            p99: pct(0.99),
            buckets,
        }
    }
}

/// Estimate the `q`-quantile from cumulative bucket counts by linear
/// interpolation within the containing bucket. Deterministic for a
/// given set of counts; the overflow bucket clamps to the last finite
/// boundary.
fn percentile_from_buckets(buckets: &[(f64, u64)], total: u64, q: f64) -> f64 {
    if total == 0 {
        return 0.0;
    }
    let target = (q * total as f64).max(1.0);
    let mut cum = 0u64;
    let mut lower = 0.0f64;
    let last_finite = buckets
        .iter()
        .rev()
        .map(|&(b, _)| b)
        .find(|b| b.is_finite())
        .unwrap_or(0.0);
    for &(upper, n) in buckets {
        let next = cum + n;
        if (next as f64) >= target && n > 0 {
            if !upper.is_finite() {
                return last_finite;
            }
            let frac = (target - cum as f64) / n as f64;
            return lower + frac.clamp(0.0, 1.0) * (upper - lower);
        }
        cum = next;
        if upper.is_finite() {
            lower = upper;
        }
    }
    last_finite
}

/// Snapshot of one histogram: totals, interpolated percentiles, and the
/// raw bucket counts (`(upper_bound_ms, count)`; the final bound is
/// `+inf` for the overflow bucket).
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Sum of all observations, in milliseconds.
    pub sum_ms: f64,
    /// Median (interpolated).
    pub p50: f64,
    /// 95th percentile (interpolated).
    pub p95: f64,
    /// 99th percentile (interpolated).
    pub p99: f64,
    /// `(upper_bound_ms, count)` per bucket, overflow last.
    pub buckets: Vec<(f64, u64)>,
}

impl HistogramSnapshot {
    /// Mean observation in milliseconds (0 when empty).
    pub fn mean_ms(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ms / self.count as f64
        }
    }
}

#[derive(Debug, Default)]
struct Inner {
    counters: BTreeMap<String, Counter>,
    gauges: BTreeMap<String, Gauge>,
    histograms: BTreeMap<String, Histogram>,
}

/// The registry: a named family of counters, gauges, and histograms.
///
/// Registration (`counter`/`gauge`/`histogram`) takes a short mutex;
/// callers are expected to cache the returned handle so the hot path
/// never touches the lock.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    inner: Mutex<Inner>,
}

impl MetricsRegistry {
    /// An empty registry (for isolated tests; production code usually
    /// shares [`MetricsRegistry::global`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// The process-wide shared registry.
    pub fn global() -> Arc<MetricsRegistry> {
        static GLOBAL: OnceLock<Arc<MetricsRegistry>> = OnceLock::new();
        Arc::clone(GLOBAL.get_or_init(|| Arc::new(MetricsRegistry::new())))
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        // A poisoned metrics mutex only means another thread panicked
        // mid-registration; the map itself is still structurally sound.
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Get or create the counter `name`.
    pub fn counter(&self, name: &str) -> Counter {
        self.lock().counters.entry(name.to_string()).or_default().clone()
    }

    /// Get or create the gauge `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        self.lock().gauges.entry(name.to_string()).or_default().clone()
    }

    /// Get or create the histogram `name` with the default latency
    /// buckets.
    pub fn histogram(&self, name: &str) -> Histogram {
        self.histogram_with(name, DEFAULT_LATENCY_BUCKETS_MS)
    }

    /// Get or create the histogram `name` with explicit bucket upper
    /// bounds (milliseconds, strictly increasing). If the histogram
    /// already exists its original boundaries are kept.
    pub fn histogram_with(&self, name: &str, boundaries_ms: &[f64]) -> Histogram {
        self.lock()
            .histograms
            .entry(name.to_string())
            .or_insert_with(|| Histogram::new(boundaries_ms))
            .clone()
    }

    /// A deterministic (name-sorted) snapshot of every metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.lock();
        MetricsSnapshot {
            counters: inner.counters.iter().map(|(k, v)| (k.clone(), v.get())).collect(),
            gauges: inner.gauges.iter().map(|(k, v)| (k.clone(), v.get())).collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }
}

/// A point-in-time, name-sorted view of a [`MetricsRegistry`].
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// `(name, value)` for every counter, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` for every gauge, sorted by name.
    pub gauges: Vec<(String, f64)>,
    /// `(name, snapshot)` for every histogram, sorted by name.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl MetricsSnapshot {
    /// Look up a counter value by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|&(_, v)| v)
    }

    /// Look up a gauge value by name.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges
            .iter()
            .find(|(k, _)| k == name)
            .map(|&(_, v)| v)
    }

    /// Look up a histogram snapshot by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v)
    }

    /// Export as JSONL: one JSON object per metric per line, in sorted
    /// name order (deterministic for a fixed set of values).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            out.push_str("{\"type\":\"counter\",\"name\":");
            push_str_lit(&mut out, name);
            out.push_str(&format!(",\"value\":{v}}}\n"));
        }
        for (name, v) in &self.gauges {
            out.push_str("{\"type\":\"gauge\",\"name\":");
            push_str_lit(&mut out, name);
            out.push_str(",\"value\":");
            push_f64(&mut out, *v);
            out.push_str("}\n");
        }
        for (name, h) in &self.histograms {
            out.push_str("{\"type\":\"histogram\",\"name\":");
            push_str_lit(&mut out, name);
            out.push_str(&format!(",\"count\":{}", h.count));
            out.push_str(",\"sum_ms\":");
            push_f64(&mut out, h.sum_ms);
            for (label, v) in [("p50", h.p50), ("p95", h.p95), ("p99", h.p99)] {
                out.push_str(&format!(",\"{label}\":"));
                push_f64(&mut out, v);
            }
            out.push_str(",\"buckets\":[");
            for (i, (le, n)) in h.buckets.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str("{\"le\":");
                push_f64(&mut out, *le);
                out.push_str(&format!(",\"count\":{n}}}"));
            }
            out.push_str("]}\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_round_trip() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("aqp.test.c");
        c.inc();
        c.add(4);
        // A second lookup yields the same underlying counter.
        assert_eq!(reg.counter("aqp.test.c").get(), 5);
        let g = reg.gauge("aqp.test.g");
        g.set(2.5);
        assert_eq!(reg.gauge("aqp.test.g").get(), 2.5);
    }

    #[test]
    fn histogram_bucket_boundaries_are_upper_inclusive_edges() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram_with("h", &[1.0, 10.0, 100.0]);
        // On the boundary -> that bucket; just above -> next bucket.
        h.record_ms(1.0);
        h.record_ms(1.0001);
        h.record_ms(10.0);
        h.record_ms(99.9);
        h.record_ms(100.1); // overflow
        let s = h.snapshot();
        let counts: Vec<u64> = s.buckets.iter().map(|&(_, n)| n).collect();
        assert_eq!(counts, vec![1, 2, 1, 1]);
        assert_eq!(s.count, 5);
    }

    #[test]
    fn histogram_percentiles_interpolate_and_clamp() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram_with("h", &[10.0, 20.0]);
        for _ in 0..100 {
            h.record_ms(5.0); // all in the first bucket
        }
        let s = h.snapshot();
        // Median of 100 identical first-bucket entries: halfway by
        // interpolation, and in any case within the bucket.
        assert!(s.p50 > 0.0 && s.p50 <= 10.0, "{}", s.p50);
        assert!(s.p99 <= 10.0);
        // Overflow-only data clamps to the last finite boundary.
        let h2 = reg.histogram_with("h2", &[10.0, 20.0]);
        h2.record_ms(500.0);
        let s2 = h2.snapshot();
        assert_eq!(s2.p50, 20.0);
        assert_eq!(s2.p99, 20.0);
    }

    #[test]
    fn empty_histogram_snapshot_is_zero() {
        let reg = MetricsRegistry::new();
        let s = reg.histogram("h").snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.p50, 0.0);
        assert_eq!(s.mean_ms(), 0.0);
    }

    #[test]
    fn snapshot_is_name_sorted_and_deterministic() {
        let reg = MetricsRegistry::new();
        reg.counter("b").inc();
        reg.counter("a").add(2);
        reg.gauge("z").set(1.0);
        let s1 = reg.snapshot();
        let s2 = reg.snapshot();
        assert_eq!(s1.counters, vec![("a".to_string(), 2), ("b".to_string(), 1)]);
        assert_eq!(s1.counters, s2.counters);
        assert_eq!(s1.to_jsonl(), s2.to_jsonl());
    }

    #[test]
    fn jsonl_shape() {
        let reg = MetricsRegistry::new();
        reg.counter("aqp.x.n").add(3);
        reg.histogram_with("aqp.x.lat_ms", &[1.0]).record_ms(0.5);
        let j = reg.snapshot().to_jsonl();
        let lines: Vec<&str> = j.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0], "{\"type\":\"counter\",\"name\":\"aqp.x.n\",\"value\":3}");
        assert!(lines[1].starts_with("{\"type\":\"histogram\",\"name\":\"aqp.x.lat_ms\",\"count\":1"));
        assert!(lines[1].contains("\"buckets\":[{\"le\":1,\"count\":1},{\"le\":null,\"count\":0}]"));
    }

    #[test]
    fn jsonl_escapes_hostile_metric_names() {
        let reg = MetricsRegistry::new();
        reg.counter("aqp.\"weird\\name\"\n.hits").add(1);
        reg.gauge("g\tauge").set(1.0);
        let j = reg.snapshot().to_jsonl();
        // One object per line: escaped newlines must not split a record.
        assert_eq!(j.lines().count(), 2);
        assert!(j.contains(r#""name":"aqp.\"weird\\name\"\n.hits""#), "{j}");
        assert!(j.contains(r#""name":"g\tauge""#), "{j}");
        assert!(
            j.chars().all(|c| c == '\n' || (c as u32) >= 0x20),
            "raw control characters leaked into JSONL"
        );
    }

    #[test]
    fn concurrent_counter_increments_are_lossless() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("hits");
        std::thread::scope(|s| {
            for _ in 0..8 {
                let c = c.clone();
                s.spawn(move || {
                    for _ in 0..10_000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), 80_000);
    }
}
