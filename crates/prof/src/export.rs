//! Bit-stable telemetry exporters in formats standard tooling consumes:
//! chrome://tracing trace-event JSON from a [`QueryTrace`] and
//! pprof-style folded stacks (flamegraph-ready text) from a
//! [`CumulativeProfile`](crate::contprof::CumulativeProfile).
//!
//! Determinism: every exporter is a pure function of its input — span
//! order is the trace's recording order and folded stacks follow the
//! cumulative profile's `BTreeMap` order — so two processes observing
//! the same mock-clock workload emit byte-identical artifacts
//! (`tests/golden/profile_seed7.*` pin one workload's).

use aqp_obs::json::{push_f64, push_str_lit};
use aqp_obs::QueryTrace;

use crate::contprof::CumulativeProfile;

/// Render `trace` as chrome://tracing trace-event JSON (the "JSON array
/// format" with complete `"ph":"X"` events; load it at
/// `chrome://tracing` or <https://ui.perfetto.dev>).
///
/// Timestamps and durations are microseconds (fractional, preserving
/// the clock's nanosecond resolution). Stage and operator spans share
/// `tid` 1 and nest by time containment; each `worker` span gets its
/// own tid (`2 + worker index`) so parallel workers render as separate
/// rows instead of overlapping. Span attributes become `args`.
pub fn chrome_trace(trace: &QueryTrace) -> String {
    let mut out = String::new();
    out.push_str("{\"traceEvents\":[");
    for (i, span) in trace.spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let tid = if span.name == "worker" {
            2 + span
                .attrs
                .iter()
                .find(|(k, _)| k == "worker")
                .and_then(|(_, v)| v.parse::<u64>().ok())
                .unwrap_or(0)
        } else {
            1
        };
        out.push_str("{\"name\":");
        push_str_lit(&mut out, &span.name);
        out.push_str(",\"ph\":\"X\",\"ts\":");
        push_f64(&mut out, span.start_ns as f64 / 1e3);
        out.push_str(",\"dur\":");
        push_f64(&mut out, span.duration().as_nanos() as f64 / 1e3);
        out.push_str(",\"pid\":1,\"tid\":");
        out.push_str(&tid.to_string());
        if !span.attrs.is_empty() {
            out.push_str(",\"args\":{");
            for (j, (k, v)) in span.attrs.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                push_str_lit(&mut out, k);
                out.push(':');
                push_str_lit(&mut out, v);
            }
            out.push('}');
        }
        out.push('}');
    }
    out.push_str("]}\n");
    out
}

/// Render the cumulative profile as pprof-style folded stacks — one
/// `class;Op;Op;... <self_ns>` line per `(class, path)` cell, in
/// deterministic `(class, path)` order — the input format of
/// `flamegraph.pl` and every inferno-compatible renderer. The workload
/// class is the root frame, so one flamegraph slices the whole fleet by
/// class.
pub fn folded_stacks(cum: &CumulativeProfile) -> String {
    let mut out = String::new();
    for (class, path, counters) in cum.iter() {
        out.push_str(class);
        out.push(';');
        out.push_str(path);
        out.push(' ');
        out.push_str(&counters.self_ns.to_string());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contprof::CumulativeProfile;
    use crate::OpProfile;
    use aqp_obs::{Clock, TraceRecorder};
    use std::time::Duration;

    fn sample_trace() -> QueryTrace {
        let clock = Clock::mock();
        let rec = TraceRecorder::new(clock.clone());
        let stage = rec.start("scan_collect");
        let t0 = clock.now();
        clock.advance(Duration::from_millis(3));
        let sp = rec.record_span("op:Scan", t0, clock.now());
        rec.attr(sp, "node_id", 1);
        rec.attr(sp, "rows_in", 10);
        rec.attr(sp, "rows_out", 10);
        let w = rec.record_span("worker", t0, clock.now());
        rec.attr(w, "worker", 3);
        rec.end(stage);
        rec.finish()
    }

    #[test]
    fn chrome_trace_is_valid_shaped_and_deterministic() {
        let trace = sample_trace();
        let a = chrome_trace(&trace);
        assert_eq!(a, chrome_trace(&trace));
        assert!(a.starts_with("{\"traceEvents\":[{"));
        assert!(a.ends_with("]}\n"));
        assert!(a.contains("\"name\":\"scan_collect\""));
        assert!(a.contains("\"ph\":\"X\""));
        // op:Scan: 3ms → 3000µs on tid 1; the worker rides tid 2+3.
        assert!(a.contains("\"dur\":3000,\"pid\":1,\"tid\":1"), "{a}");
        assert!(a.contains("\"tid\":5"), "{a}");
        assert!(a.contains("\"args\":{\"node_id\":\"1\""), "{a}");
    }

    #[test]
    fn folded_stacks_are_sorted_class_rooted_lines() {
        let clock = Clock::mock();
        let mut cum = CumulativeProfile::new();
        let forest = |ms: u64| {
            let rec = TraceRecorder::new(clock.clone());
            let stage = rec.start("scan_collect");
            let t = clock.now();
            clock.advance(Duration::from_millis(ms));
            let sp = rec.record_span("op:Scan", t, clock.now());
            rec.attr(sp, "node_id", 0);
            rec.end(stage);
            vec![OpProfile::from_trace(&rec.finish()).expect("tree")]
        };
        cum.observe("zeta", &forest(2));
        cum.observe("alpha", &forest(1));
        let folded = folded_stacks(&cum);
        assert_eq!(folded, "alpha;Scan 1000000\nzeta;Scan 2000000\n");
    }
}
