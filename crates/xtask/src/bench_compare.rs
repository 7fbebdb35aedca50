//! `xtask bench-compare` — diff two benchmark-trajectory documents
//! (`BENCH_aqp.json`, written by `cargo run -p aqp-bench --bin
//! bench_trajectory`) and flag regressions beyond a threshold.
//!
//! A metric's name encodes which direction is "worse": latencies and
//! required-sample-size metrics regress *upward*, speedups and coverage
//! regress *downward*, and plain counters are direction-neutral — drift
//! beyond the threshold is reported but never fails the run. Exits
//! nonzero on any directional regression unless `--warn-only` is given.

use std::collections::BTreeMap;
use std::process::ExitCode;

/// Which movement of a metric counts as a regression.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Direction {
    /// Larger values are worse (latencies, required sample rows).
    HigherWorse,
    /// Smaller values are worse (speedups, coverage percentages).
    LowerWorse,
    /// No regression direction (structural counters); drift only warns.
    Neutral,
}

fn direction(name: &str) -> Direction {
    if name.contains("per_sec") || name.contains("throughput") {
        // Throughput regresses downward; checked before the `_s` suffix
        // rule so `rows_per_sec`-style names never read as latencies.
        Direction::LowerWorse
    } else if name.ends_with("_s") || name.ends_with("_ms") || name.contains("mean_rows") {
        Direction::HigherWorse
    } else if name.contains("speedup") || name.contains("coverage") {
        Direction::LowerWorse
    } else {
        Direction::Neutral
    }
}

/// Entry point for the `bench-compare` subcommand.
pub fn run(args: &[String]) -> ExitCode {
    let mut paths: Vec<&String> = Vec::new();
    let mut threshold = 0.2f64;
    let mut warn_only = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--threshold" if i + 1 < args.len() => {
                match args[i + 1].parse::<f64>() {
                    Ok(t) if t > 0.0 => threshold = t,
                    _ => {
                        eprintln!("xtask bench-compare: --threshold wants a positive fraction");
                        return ExitCode::from(2);
                    }
                }
                i += 2;
            }
            "--warn-only" => {
                warn_only = true;
                i += 1;
            }
            flag if flag.starts_with('-') => {
                eprintln!("xtask bench-compare: unknown flag `{flag}`");
                return ExitCode::from(2);
            }
            _ => {
                paths.push(&args[i]);
                i += 1;
            }
        }
    }
    let [old_path, new_path] = paths.as_slice() else {
        eprintln!(
            "usage: cargo run -p xtask -- bench-compare <old.json> <new.json> \
             [--threshold FRAC] [--warn-only]"
        );
        return ExitCode::from(2);
    };

    let old = match load(old_path) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("xtask bench-compare: {old_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let new = match load(new_path) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("xtask bench-compare: {new_path}: {e}");
            return ExitCode::FAILURE;
        }
    };

    let report = compare(&old, &new, threshold);
    for line in &report.lines {
        println!("{line}");
    }
    println!(
        "bench-compare: {} metric(s) compared, {} regression(s), {} drift warning(s) \
         (threshold {:.0}%)",
        report.compared,
        report.regressions,
        report.warnings,
        threshold * 100.0
    );
    if report.regressions > 0 && !warn_only {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// The outcome of a comparison, pre-rendered for printing.
struct Report {
    lines: Vec<String>,
    compared: usize,
    regressions: usize,
    warnings: usize,
}

/// Compare two metric maps under `threshold` (a relative fraction).
fn compare(old: &BTreeMap<String, f64>, new: &BTreeMap<String, f64>, threshold: f64) -> Report {
    let mut report = Report { lines: Vec::new(), compared: 0, regressions: 0, warnings: 0 };
    for (name, &was) in old {
        let Some(&now) = new.get(name) else {
            report.warnings += 1;
            report.lines.push(format!("WARN  {name}: missing from the new trajectory"));
            continue;
        };
        report.compared += 1;
        let denom = was.abs().max(f64::MIN_POSITIVE);
        let change = (now - was) / denom;
        let regressed = match direction(name) {
            Direction::HigherWorse => change > threshold,
            Direction::LowerWorse => -change > threshold,
            Direction::Neutral => false,
        };
        if regressed {
            report.regressions += 1;
            report.lines.push(format!(
                "FAIL  {name}: {was} -> {now} ({:+.1}%)",
                change * 100.0
            ));
        } else if change.abs() > threshold {
            report.warnings += 1;
            report.lines.push(format!(
                "WARN  {name}: {was} -> {now} ({:+.1}%) — large but non-regressive drift",
                change * 100.0
            ));
        }
    }
    for name in new.keys() {
        if !old.contains_key(name) {
            report.lines.push(format!("NOTE  {name}: new metric (no baseline)"));
        }
    }
    report
}

fn load(path: &str) -> Result<BTreeMap<String, f64>, String> {
    let src = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    parse_metrics(&src)
}

/// Extract the flat `"metrics"` object of a trajectory document. The
/// format is the canonical output of `bench_trajectory` — string keys
/// mapped to plain JSON numbers, no nesting — so a split-based parse is
/// exact, not approximate.
fn parse_metrics(src: &str) -> Result<BTreeMap<String, f64>, String> {
    let at = src.find("\"metrics\"").ok_or("no \"metrics\" object")?;
    let rest = &src[at..];
    let open = rest.find('{').ok_or("malformed \"metrics\" object")?;
    let body = &rest[open + 1..];
    let close = body.find('}').ok_or("unterminated \"metrics\" object")?;
    let mut map = BTreeMap::new();
    for pair in body[..close].split(',') {
        let pair = pair.trim();
        if pair.is_empty() {
            continue;
        }
        let (k, v) = pair.split_once(':').ok_or_else(|| format!("bad entry `{pair}`"))?;
        let key = k.trim().trim_matches('"').to_string();
        let value: f64 =
            v.trim().parse().map_err(|_| format!("non-numeric value in `{pair}`"))?;
        map.insert(key, value);
    }
    Ok(map)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics(entries: &[(&str, f64)]) -> BTreeMap<String, f64> {
        entries.iter().map(|&(k, v)| (k.to_string(), v)).collect()
    }

    #[test]
    fn parses_the_canonical_document() {
        let doc = "{\n  \"schema\": \"aqp-bench-trajectory/v1\",\n  \"seed\": 1,\n  \
                   \"metrics\": {\n    \"fig7.qset1.p50_s\": 19.5,\n    \"profile.ops\": 6\n  }\n}\n";
        let m = parse_metrics(doc).expect("parse");
        assert_eq!(m.len(), 2);
        assert_eq!(m["fig7.qset1.p50_s"], 19.5);
        assert_eq!(m["profile.ops"], 6.0);
    }

    #[test]
    fn latency_regression_fails_speedup_gain_does_not() {
        let old = metrics(&[("fig7.qset1.p50_s", 10.0), ("fig8.qset1.speedup_p50", 3.0)]);
        let new = metrics(&[("fig7.qset1.p50_s", 12.5), ("fig8.qset1.speedup_p50", 4.0)]);
        let r = compare(&old, &new, 0.2);
        assert_eq!(r.regressions, 1);
        assert!(r.lines.iter().any(|l| l.starts_with("FAIL") && l.contains("p50_s")));
    }

    #[test]
    fn speedup_and_coverage_regress_downward() {
        let old = metrics(&[("fig8.qset2.speedup_p50", 30.0), ("audit.coverage_pct", 96.0)]);
        let new = metrics(&[("fig8.qset2.speedup_p50", 20.0), ("audit.coverage_pct", 70.0)]);
        let r = compare(&old, &new, 0.2);
        assert_eq!(r.regressions, 2);
    }

    #[test]
    fn throughput_regresses_downward_despite_the_s_suffix() {
        // `..._per_sec` ends with `_s` lexically but is a throughput:
        // dropping is a regression, rising is fine.
        let old = metrics(&[("profile.scan_rows_per_sec", 1e6), ("contprof.throughput", 5.0)]);
        let new = metrics(&[("profile.scan_rows_per_sec", 2e6), ("contprof.throughput", 2.0)]);
        let r = compare(&old, &new, 0.2);
        assert_eq!(r.regressions, 1);
        assert!(r.lines.iter().any(|l| l.starts_with("FAIL") && l.contains("throughput")));
    }

    #[test]
    fn neutral_counters_only_warn() {
        let old = metrics(&[("profile.ops", 6.0)]);
        let new = metrics(&[("profile.ops", 12.0)]);
        let r = compare(&old, &new, 0.2);
        assert_eq!(r.regressions, 0);
        assert_eq!(r.warnings, 1);
    }

    #[test]
    fn small_moves_are_silent() {
        let old = metrics(&[("fig9.qset1.p95_s", 3.7)]);
        let new = metrics(&[("fig9.qset1.p95_s", 3.9)]);
        let r = compare(&old, &new, 0.2);
        assert_eq!(r.regressions + r.warnings, 0);
        assert!(r.lines.is_empty());
    }

    #[test]
    fn missing_metrics_warn() {
        let old = metrics(&[("fig7.qset1.p50_s", 10.0), ("gone.p50_s", 1.0)]);
        let new = metrics(&[("fig7.qset1.p50_s", 10.0), ("added.p50_s", 1.0)]);
        let r = compare(&old, &new, 0.2);
        assert_eq!(r.warnings, 1);
        assert!(r.lines.iter().any(|l| l.contains("new metric")));
    }
}
