//! Always-on flight recorder: a bounded ring buffer of completed query
//! traces, dumped with a metrics snapshot whenever something fires.
//!
//! The paper's thesis is *knowing when you're wrong*; the flight
//! recorder makes sure every "we were wrong" moment ships with its own
//! post-hoc evidence. The session records every completed
//! [`QueryTrace`] into the ring (oldest evicted first, bounded memory),
//! and when an SLO alert, an audit alert, or a degraded execution
//! fires, [`FlightRecorder::dump_with_context`] freezes the retained
//! traces plus the caller's [`MetricsSnapshot`] into a bit-stable JSONL
//! artifact — appended to the configured file and kept in memory for
//! dashboards.
//!
//! Determinism: the dump bytes are a pure function of the retained
//! traces, the snapshot, and the dump ordinal. Under the mock clock the
//! whole artifact is therefore bit-identical across processes for the
//! same seed, which CI verifies with a byte diff.

use std::collections::VecDeque;
use std::io::Write;
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};

use crate::json::push_str_lit;
use crate::metrics::{Counter, Gauge, MetricsRegistry, MetricsSnapshot};
use crate::name;
use crate::trace::QueryTrace;

/// Configuration for the always-on flight recorder.
#[derive(Debug, Clone)]
pub struct FlightRecorderConfig {
    /// How many completed traces to retain; the oldest is evicted when
    /// the ring is full.
    pub capacity: usize,
    /// Where dump artifacts are appended (one JSONL block per dump).
    /// `None` keeps dumps in memory only (see
    /// [`FlightRecorder::last_dump`]); write failures never fail the
    /// query — they are counted on `aqp.obs.recorder_dump_write_errors`.
    pub path: Option<PathBuf>,
}

impl Default for FlightRecorderConfig {
    fn default() -> Self {
        FlightRecorderConfig { capacity: 32, path: None }
    }
}

impl FlightRecorderConfig {
    /// A recorder of `capacity` traces that appends dumps to `path`.
    pub fn at(capacity: usize, path: impl Into<PathBuf>) -> Self {
        FlightRecorderConfig { capacity, path: Some(path.into()) }
    }
}

/// Meter handles registered once at construction.
#[derive(Debug)]
struct Meters {
    retained: Gauge,
    evictions: Counter,
    dumps: Counter,
    dump_errors: Counter,
}

/// State behind the ring lock.
#[derive(Debug)]
struct Inner {
    /// Sequence number assigned to the next recorded trace.
    next_seq: u64,
    /// Sequence number assigned to the next dump.
    next_dump: u64,
    /// Retained traces, oldest first.
    ring: VecDeque<(u64, QueryTrace)>,
    /// The artifact produced by the most recent dump.
    last_dump: Option<String>,
}

/// A bounded ring of the last N completed query traces, dumpable to a
/// bit-stable JSONL artifact at alert time.
#[derive(Debug)]
pub struct FlightRecorder {
    capacity: usize,
    path: Option<PathBuf>,
    meters: Meters,
    inner: Mutex<Inner>,
}

impl FlightRecorder {
    /// Build a recorder and register its meters on `metrics`.
    pub fn new(cfg: FlightRecorderConfig, metrics: &MetricsRegistry) -> Self {
        FlightRecorder {
            capacity: cfg.capacity.max(1),
            path: cfg.path,
            meters: Meters {
                retained: metrics.gauge(name::OBS_RECORDER_RETAINED),
                evictions: metrics.counter(name::OBS_RECORDER_EVICTIONS),
                dumps: metrics.counter(name::OBS_RECORDER_DUMPS),
                dump_errors: metrics.counter(name::OBS_RECORDER_DUMP_ERRORS),
            },
            inner: Mutex::new(Inner {
                next_seq: 0,
                next_dump: 0,
                ring: VecDeque::new(),
                last_dump: None,
            }),
        }
    }

    /// The ring lock, recovering from poisoning: a panicking recorder
    /// thread must never wedge the query path.
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Record one completed trace, evicting the oldest when full.
    pub fn record(&self, trace: QueryTrace) {
        let mut inner = self.lock();
        let seq = inner.next_seq;
        inner.next_seq += 1;
        inner.ring.push_back((seq, trace));
        while inner.ring.len() > self.capacity {
            inner.ring.pop_front();
            self.meters.evictions.inc();
        }
        self.meters.retained.set(inner.ring.len() as f64);
    }

    /// Number of traces currently retained.
    pub fn retained(&self) -> usize {
        self.lock().ring.len()
    }

    /// The artifact produced by the most recent [`FlightRecorder::dump`].
    pub fn last_dump(&self) -> Option<String> {
        self.lock().last_dump.clone()
    }

    /// Freeze the retained traces plus `snapshot` into a JSONL artifact
    /// for `reason`, append it to the configured path (if any), and
    /// return it. Never fails: I/O errors only increment
    /// `aqp.obs.recorder_dump_write_errors`. The `context` key/value
    /// pairs are frozen into one `{"context":{...}}` line right after
    /// the header, so a dump carries *why* it fired (workload class,
    /// objective, trigger) alongside the evidence; an empty `context`
    /// emits no extra line.
    pub fn dump_with_context(
        &self,
        reason: &str,
        snapshot: &MetricsSnapshot,
        context: &[(&str, &str)],
    ) -> String {
        let mut inner = self.lock();
        let dump = inner.next_dump;
        inner.next_dump += 1;
        let mut out = String::new();
        out.push_str("{\"recorder\":\"aqp-flight-recorder/v1\",\"dump\":");
        out.push_str(&dump.to_string());
        out.push_str(",\"reason\":");
        push_str_lit(&mut out, reason);
        out.push_str(",\"retained\":");
        out.push_str(&inner.ring.len().to_string());
        out.push_str(",\"traces_recorded\":");
        out.push_str(&inner.next_seq.to_string());
        out.push_str("}\n");
        if !context.is_empty() {
            out.push_str("{\"context\":{");
            for (i, (k, v)) in context.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                push_str_lit(&mut out, k);
                out.push(':');
                push_str_lit(&mut out, v);
            }
            out.push_str("}}\n");
        }
        out.push_str(&snapshot.to_jsonl());
        for (seq, trace) in &inner.ring {
            out.push_str("{\"trace_seq\":");
            out.push_str(&seq.to_string());
            out.push_str(",\"spans\":");
            out.push_str(&trace.spans.len().to_string());
            out.push_str("}\n");
            out.push_str(&trace.to_jsonl());
        }
        inner.last_dump = Some(out.clone());
        drop(inner);
        self.meters.dumps.inc();
        if let Some(path) = &self.path {
            if let Err(_e) = append_artifact(path, &out) {
                self.meters.dump_errors.inc();
            }
        }
        out
    }
}

/// Append one dump artifact to `path`, creating parent directories.
fn append_artifact(path: &std::path::Path, artifact: &str) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    let mut file = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
    file.write_all(artifact.as_bytes())?;
    file.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::Clock;
    use crate::trace::TraceRecorder;

    fn trace(label: &str, clock: &Clock) -> QueryTrace {
        let rec = TraceRecorder::new(clock.clone());
        rec.in_span(label, || {
            clock.advance(std::time::Duration::from_millis(2));
        });
        rec.finish()
    }

    #[test]
    fn ring_evicts_oldest_and_stays_bounded() {
        let metrics = MetricsRegistry::new();
        let clock = Clock::mock();
        let fr = FlightRecorder::new(
            FlightRecorderConfig { capacity: 3, path: None },
            &metrics,
        );
        for i in 0..10 {
            fr.record(trace(&format!("q{i}"), &clock));
            assert!(fr.retained() <= 3, "ring grew past capacity at i={i}");
        }
        assert_eq!(fr.retained(), 3);
        let snap = metrics.snapshot();
        assert_eq!(snap.counter(name::OBS_RECORDER_EVICTIONS), Some(7));
        assert_eq!(snap.gauge(name::OBS_RECORDER_RETAINED), Some(3.0));
        // Oldest evicted first: the retained traces are q7, q8, q9.
        let dump = fr.dump_with_context("test", &snap, &[]);
        assert!(!dump.contains("\"name\":\"q6\""), "{dump}");
        assert!(dump.contains("\"name\":\"q7\""), "{dump}");
        assert!(dump.contains("\"name\":\"q9\""), "{dump}");
    }

    #[test]
    fn dump_is_bit_stable_and_ordered_oldest_first() {
        let build = || {
            let clock = Clock::mock();
            let metrics = MetricsRegistry::new();
            metrics.counter("aqp.test.recorder_dump").add(5);
            let fr = FlightRecorder::new(
                FlightRecorderConfig { capacity: 4, path: None },
                &metrics,
            );
            for i in 0..6 {
                fr.record(trace(&format!("q{i}"), &clock));
            }
            fr.dump_with_context("bit-stable", &metrics.snapshot(), &[])
        };
        let a = build();
        let b = build();
        assert_eq!(a, b, "same inputs must yield byte-identical dumps");
        // trace_seq lines appear in ascending (oldest-first) order.
        let seqs: Vec<&str> = a
            .lines()
            .filter(|l| l.starts_with("{\"trace_seq\":"))
            .collect();
        assert_eq!(seqs.len(), 4);
        let order: Vec<u64> = seqs
            .iter()
            .map(|l| {
                l.trim_start_matches("{\"trace_seq\":")
                    .split(',')
                    .next()
                    .unwrap()
                    .parse()
                    .unwrap()
            })
            .collect();
        assert_eq!(order, vec![2, 3, 4, 5]);
        assert!(b.lines().next().unwrap().contains("\"dump\":0"));
    }

    #[test]
    fn dump_with_context_freezes_alert_context_after_the_header() {
        let metrics = MetricsRegistry::new();
        let clock = Clock::mock();
        let fr = FlightRecorder::new(
            FlightRecorderConfig { capacity: 2, path: None },
            &metrics,
        );
        fr.record(trace("q0", &clock));
        let plain = fr.dump_with_context("no-ctx", &metrics.snapshot(), &[]);
        assert!(!plain.contains("\"context\""), "{plain}");
        let dump = fr.dump_with_context(
            "slo:page:latency",
            &metrics.snapshot(),
            &[("class", "dashboards"), ("objective", "latency_ms<500")],
        );
        let mut lines = dump.lines();
        assert!(lines.next().expect("header").starts_with("{\"recorder\":"));
        assert_eq!(
            lines.next().expect("context line"),
            "{\"context\":{\"class\":\"dashboards\",\"objective\":\"latency_ms<500\"}}"
        );
    }

    #[test]
    fn dump_appends_to_the_configured_path_and_counts_errors() {
        let metrics = MetricsRegistry::new();
        let clock = Clock::mock();
        let dir = std::env::temp_dir().join("aqp_obs_recorder_test");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("dumps.jsonl");
        let fr = FlightRecorder::new(FlightRecorderConfig::at(8, &path), &metrics);
        fr.record(trace("q0", &clock));
        let first = fr.dump_with_context("one", &metrics.snapshot(), &[]);
        let second = fr.dump_with_context("two", &metrics.snapshot(), &[]);
        let on_disk = std::fs::read_to_string(&path).expect("dump file");
        assert_eq!(on_disk, format!("{first}{second}"));
        assert_eq!(fr.last_dump().as_deref(), Some(second.as_str()));
        assert_eq!(metrics.snapshot().counter(name::OBS_RECORDER_DUMPS), Some(2));
        let _ = std::fs::remove_dir_all(&dir);

        // An unwritable path only bumps the error counter.
        let bad = FlightRecorder::new(
            FlightRecorderConfig::at(2, "/dev/null/not/a/dir/x.jsonl"),
            &metrics,
        );
        bad.record(trace("q1", &clock));
        bad.dump_with_context("fails", &metrics.snapshot(), &[]);
        assert_eq!(
            metrics.snapshot().counter(name::OBS_RECORDER_DUMP_ERRORS),
            Some(1)
        );
    }

    #[test]
    fn capacity_zero_is_clamped_to_one() {
        let metrics = MetricsRegistry::new();
        let clock = Clock::mock();
        let fr = FlightRecorder::new(
            FlightRecorderConfig { capacity: 0, path: None },
            &metrics,
        );
        fr.record(trace("a", &clock));
        fr.record(trace("b", &clock));
        assert_eq!(fr.retained(), 1);
    }
}
