//! Many runs and their comparison: `--runs N --out FILE` repeats a
//! workload in child processes and records every run with the median and
//! quartiles per metric; `--compare A.json B.json` judges B against A with
//! the bounds of the manifest.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::Command;

use aqp_obs::json::push_str_lit;

use crate::json::{self, Value};
use crate::spec::{self, Workload, END_TO_END};
use crate::summary::{median, quartiles};

/// One child run, as read back from its result line.
struct ChildRun {
    seed: u64,
    correct: bool,
    attempted: f64,
    failed: f64,
    metrics: Vec<(String, f64)>,
}

/// Run one workload once in a process of its own (so `setup_s` and
/// `peak_rss_mb` are that workload's alone) and read its result line.
fn run_child(workload: Workload, seed: u64, seconds: f64, quick: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload.name(), "--seed", &seed.to_string()]);
    cmd.args(["--seconds", &seconds.to_string()]);
    if quick {
        cmd.arg("--quick");
    }
    // `output` waits for the child to end.
    let out = cmd
        .output()
        .map_err(|e| format!("starting the child run: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or("");
    let v = json::parse(line).map_err(|e| {
        format!(
            "{} seed {seed}: no result line ({e}); exit {:?}; stderr: {}",
            workload.name(),
            out.status.code(),
            String::from_utf8_lossy(&out.stderr).trim()
        )
    })?;
    let field = |key: &str| {
        v.get(key)
            .ok_or_else(|| format!("result line lacks `{key}`"))
    };
    let metrics = field("metrics")?
        .as_object()
        .ok_or("`metrics` is not an object")?
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect();
    Ok(ChildRun {
        seed,
        correct: field("correct")?.as_bool().unwrap_or(false),
        attempted: field("attempted")?.as_f64().unwrap_or(0.0),
        failed: field("failed")?.as_f64().unwrap_or(0.0),
        metrics,
    })
}

/// `--runs N --out FILE`: `runs` runs of each workload with seeds
/// `first_seed`, `first_seed + 1`, …; writes every run and the per-metric
/// median and quartiles to `out`. `Ok(false)` if any run was incorrect.
pub fn run_many(
    workloads: &[Workload],
    runs: usize,
    first_seed: u64,
    seconds: f64,
    quick: bool,
    out: &str,
) -> Result<bool, String> {
    let mut all_correct = true;
    let mut doc = String::from("{\n  \"runs\": [\n");
    let mut summary = String::new();
    let mut first_run = true;
    for (wi, &workload) in workloads.iter().enumerate() {
        let mut per_metric: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for k in 0..runs {
            let run = run_child(workload, first_seed + k as u64, seconds, quick)?;
            all_correct &= run.correct;
            println!(
                "{} seed {}: correct {} attempted {} failed {}",
                workload.name(),
                run.seed,
                run.correct,
                run.attempted,
                run.failed
            );
            if !first_run {
                doc.push_str(",\n");
            }
            first_run = false;
            doc.push_str("    {\"workload\": ");
            push_str_lit(&mut doc, workload.name());
            let _ = write!(
                doc,
                ", \"seed\": {}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
                run.seed, run.correct, run.attempted, run.failed
            );
            for (i, (name, value)) in run.metrics.iter().enumerate() {
                if i > 0 {
                    doc.push_str(", ");
                }
                push_str_lit(&mut doc, name);
                let _ = write!(doc, ": {value}");
                per_metric.entry(name.clone()).or_default().push(*value);
            }
            doc.push_str("}}");
        }
        // Manifest order, not the map's.
        if wi > 0 {
            summary.push_str(",\n");
        }
        summary.push_str("    ");
        push_str_lit(&mut summary, workload.name());
        summary.push_str(": {");
        println!("{} over {runs} runs:", workload.name());
        let mut first_metric = true;
        for m in END_TO_END {
            let Some(values) = per_metric.get(m.name) else {
                continue;
            };
            // A single run is its own median, with no spread to show.
            let [q1, q2, q3] = quartiles(values).unwrap_or([values[0]; 3]);
            println!(
                "  {:<20} median {:>14.6} {:<6} quartiles [{:.6}, {:.6}] spread {:.2}% of the median",
                m.name,
                q2,
                m.unit,
                q1,
                q3,
                (q3 - q1) / q2.abs() * 100.0
            );
            if !first_metric {
                summary.push_str(", ");
            }
            first_metric = false;
            push_str_lit(&mut summary, m.name);
            let _ = write!(
                summary,
                ": {{\"unit\": \"{}\", \"median\": {q2}, \"q1\": {q1}, \"q3\": {q3}, \
                 \"min\": {}, \"max\": {}, \"runs\": {}}}",
                m.unit,
                values.iter().copied().fold(f64::INFINITY, f64::min),
                values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
                values.len()
            );
        }
        summary.push('}');
    }
    doc.push_str("\n  ],\n  \"summary\": {\n");
    doc.push_str(&summary);
    doc.push_str("\n  }\n}\n");
    std::fs::write(out, doc).map_err(|e| format!("writing {out}: {e}"))?;
    println!("wrote {out}");
    Ok(all_correct)
}

/// Median and quartile range of one metric in one `--out` file.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stat {
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Stat {
    /// Interquartile range as a share of the median.
    fn spread(&self) -> f64 {
        (self.q3 - self.q1) / self.median.abs()
    }
}

/// How B stands against A on one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound.
    Same,
    /// Better by more than the bound and clear of A's quartile range.
    Better,
    /// Worse by more than the bound and clear of A's quartile range.
    Regression,
    /// The runs of one side spread wider than the bound: no verdict.
    Unresolved,
}

/// Judge `b` against `a` for a metric with direction `better` and
/// regression bound `bound`.
///
/// A regression (or a gain) needs both a median that moved by more than
/// the bound and quartile ranges that do not reach each other's median;
/// when either side's own spread exceeds the bound, a move of that size is
/// within what the runs do unprovoked, and the metric is unresolved.
pub fn judge(better: spec::Better, bound: f64, a: Stat, b: Stat) -> Verdict {
    let worse_by = better.worsening(a.median, b.median);
    let apart = (b.median < a.q1 || b.median > a.q3) && (a.median < b.q1 || a.median > b.q3);
    if a.spread() > bound || b.spread() > bound {
        Verdict::Unresolved
    } else if worse_by > bound && apart {
        Verdict::Regression
    } else if worse_by < -bound && apart {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// Judge a metric that repeats exactly per seed from the worsening of B
/// against A on each seed both sets ran: there is no run-to-run spread to
/// allow for, so the median worsening alone decides.
pub fn judge_per_seed(bound: f64, worsenings: &[f64]) -> Verdict {
    let worse_by = median(worsenings);
    if worse_by > bound {
        Verdict::Regression
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// An `--out` file: (whole document, its `summary`).
fn read_out_file(path: &str) -> Result<(Value, Value), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let summary = doc
        .get("summary")
        .cloned()
        .ok_or_else(|| format!("{path}: no `summary` (not a --out file?)"))?;
    Ok((doc, summary))
}

/// The values of `metric` on `workload` by seed, from the `runs` of an
/// `--out` file.
fn by_seed(doc: &Value, workload: &str, metric: &str) -> BTreeMap<u64, f64> {
    let runs = doc.get("runs").and_then(Value::as_array);
    runs.into_iter()
        .flatten()
        .filter(|run| run.get("workload").and_then(Value::as_str) == Some(workload))
        .filter_map(|run| {
            let seed = run.get("seed")?.as_f64()? as u64;
            Some((seed, run.get("metrics")?.get(metric)?.as_f64()?))
        })
        .collect()
}

fn stat_of(summary: &Value, workload: &str, metric: &str) -> Option<Stat> {
    let m = summary.get(workload)?.get(metric)?;
    Some(Stat {
        q1: m.get("q1")?.as_f64()?,
        median: m.get("median")?.as_f64()?,
        q3: m.get("q3")?.as_f64()?,
    })
}

/// `--compare A.json B.json`: one row per workload and end-to-end metric
/// both files hold. `Ok(false)` if any row is a regression.
pub fn compare_files(a_path: &str, b_path: &str) -> Result<bool, String> {
    let ((a_doc, a), (b_doc, b)) = (read_out_file(a_path)?, read_out_file(b_path)?);
    let mut regressions = 0;
    let mut rows = 0;
    for workload in Workload::ALL {
        for m in END_TO_END {
            let name = workload.name();
            let (Some(sa), Some(sb)) = (stat_of(&a, name, m.name), stat_of(&b, name, m.name))
            else {
                continue;
            };
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            // A metric that repeats per seed is compared on the seeds both
            // sets ran; with no seed in common it is judged like the rest.
            let (va, vb) = (by_seed(&a_doc, name, m.name), by_seed(&b_doc, name, m.name));
            let per_seed: Vec<f64> = va
                .iter()
                .filter(|_| m.repeats_per_seed)
                .filter_map(|(seed, &x)| Some(m.better.worsening(x, *vb.get(seed)?)))
                .collect();
            let (verdict, worse_by, how) = if per_seed.is_empty() {
                (
                    judge(m.better, bound, sa, sb),
                    m.better.worsening(sa.median, sb.median),
                    String::new(),
                )
            } else {
                (
                    judge_per_seed(bound, &per_seed),
                    median(&per_seed),
                    format!(" (median over {} common seeds)", per_seed.len()),
                )
            };
            regressions += usize::from(verdict == Verdict::Regression);
            rows += 1;
            println!(
                "{name:<20} {:<20} A {:>12.5} [{:.5}, {:.5}]  B {:>12.5} [{:.5}, {:.5}]  \
                 {:+.2}% worse{how} (bound {:.0}%)  {verdict:?}",
                m.name,
                sa.median,
                sa.q1,
                sa.q3,
                sb.median,
                sb.q1,
                sb.q3,
                worse_by * 100.0,
                bound * 100.0
            );
        }
    }
    if rows == 0 {
        return Err("the two files share no workload and metric".to_string());
    }
    println!("{rows} rows, {regressions} regression(s)");
    Ok(regressions == 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Better::{Higher, Lower};

    fn stat(q1: f64, median: f64, q3: f64) -> Stat {
        Stat { q1, median, q3 }
    }

    #[test]
    fn regression_needs_a_moved_median_and_separated_quartiles() {
        let a = stat(98.0, 100.0, 102.0);
        // 20 % slower, tight runs: a regression at a 10 % bound.
        assert_eq!(
            judge(Lower, 0.1, a, stat(118.0, 120.0, 122.0)),
            Verdict::Regression
        );
        // 5 % slower: within the bound.
        assert_eq!(
            judge(Lower, 0.1, a, stat(104.0, 105.0, 106.0)),
            Verdict::Same
        );
        // 20 % faster.
        assert_eq!(
            judge(Lower, 0.1, a, stat(79.0, 80.0, 81.0)),
            Verdict::Better
        );
        // Direction matters: more queries per second is better.
        assert_eq!(
            judge(Higher, 0.1, a, stat(118.0, 120.0, 122.0)),
            Verdict::Better
        );
        assert_eq!(
            judge(Higher, 0.1, a, stat(79.0, 80.0, 81.0)),
            Verdict::Regression
        );
    }

    #[test]
    fn wide_spread_is_unresolved_and_overlap_is_no_regression() {
        let a = stat(98.0, 100.0, 102.0);
        // B's own runs spread 25 % of their median: no verdict at 10 %.
        assert_eq!(
            judge(Lower, 0.1, a, stat(105.0, 120.0, 135.0)),
            Verdict::Unresolved
        );
        // The median moved by 26 %, but B's runs were bimodal and its
        // lower quartile reaches A's median: not a regression.
        assert_eq!(
            judge(Lower, 0.25, a, stat(99.0, 126.0, 127.0)),
            Verdict::Same
        );
    }

    #[test]
    fn per_seed_metrics_are_judged_on_common_seeds() {
        // Three seeds, each 30 % worse: a regression however wide the
        // values spread across the seeds.
        assert_eq!(
            judge_per_seed(0.25, &[0.3, 0.31, 0.29]),
            Verdict::Regression
        );
        assert_eq!(judge_per_seed(0.25, &[0.3, 0.0, 0.0]), Verdict::Same);
        assert_eq!(judge_per_seed(0.25, &[-0.3, -0.4, -0.5]), Verdict::Better);
        let doc = json::parse(
            r#"{"runs": [
                {"workload": "bootstrap_udf", "seed": 4, "metrics": {"approx_share": 0.5}},
                {"workload": "bootstrap_udf", "seed": 5, "metrics": {"approx_share": 0.6}},
                {"workload": "groupby_fanout", "seed": 4, "metrics": {"approx_share": 0.3}}]}"#,
        )
        .unwrap();
        let values = by_seed(&doc, "bootstrap_udf", "approx_share");
        assert_eq!(values.into_iter().collect::<Vec<_>>(), [(4, 0.5), (5, 0.6)]);
    }

    #[test]
    fn reads_its_own_summary_format() {
        let doc = r#"{"runs": [], "summary": {"closed_form_scan": {"latency_p50_ms":
            {"unit": "ms", "median": 11.5, "q1": 11.0, "q3": 12.0, "min": 10.0, "max": 13.0, "runs": 10}}}}"#;
        let summary = json::parse(doc).unwrap().get("summary").cloned().unwrap();
        assert_eq!(
            stat_of(&summary, "closed_form_scan", "latency_p50_ms"),
            Some(stat(11.0, 11.5, 12.0))
        );
        assert_eq!(stat_of(&summary, "closed_form_scan", "setup_s"), None);
        assert_eq!(stat_of(&summary, "bootstrap_udf", "latency_p50_ms"), None);
    }
}
