//! One run of one workload: generate the input, compute the exact
//! answers, then time whole passes over the list — each on a session of
//! its own with a freshly drawn sample, each between two readings of the
//! machine's speed — check every answer against the oracle and report the
//! end-to-end metrics. The traced run (`traced.rs`) shares the
//! preparation, the oracle and the pass.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use aqp_core::{AnswerMode, AqpSession};
use aqp_exec::engine::execute_exact;
use aqp_exec::result::ExactResult;
use aqp_exec::UdfRegistry;
use aqp_obs::Clock;
use aqp_sql::{parse_query, plan_query};
use aqp_stats::rng::SeedStream;
use aqp_storage::Table;

use crate::oracle::{answer_hash, judge, list_hash, Fnv, Verdict};
use crate::procfs;
use crate::reference::{factor, Reference};
use crate::spec::{MetricSpec, Workload, END_TO_END};
use crate::summary::{highest_supported_percentile, median, percentile, sorted};
use crate::workloads::{
    generate_table, query_list, session_config, set_up, BenchQuery, Observers, Scale, SetupTimes,
    Sizing,
};

/// Timed passes a full-scale run makes at least, however short
/// `--seconds` is, and the passes whose answers the quality metrics are
/// computed from.
///
/// Which queries the diagnostic refuses depends on the sample drawn: on
/// one table, `approx_share` of `bootstrap_udf` ranged from 0.37 to 0.67
/// over eight sample seeds. A refused query costs the exact path on top,
/// so latency moves with it. Every pass therefore sets up a session of its
/// own with a sample of its own, and a run reports what the system does
/// over five draws, not over one. The count is fixed so that the quality
/// metrics stay a function of code and seed alone, however many passes
/// the clock allows.
pub const QUALITY_PASSES: usize = 5;

/// What one invocation was asked to do.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Which workload.
    pub workload: Workload,
    /// Seed of the table, the samples and the query parameters.
    pub seed: u64,
    /// How long to measure.
    pub seconds: f64,
    /// Input scale.
    pub scale: Scale,
}

/// The outcome of a run: the verdict, the metrics, and the human-readable
/// report printed above the result line.
#[derive(Debug)]
pub struct RunReport {
    /// Every check passed.
    pub correct: bool,
    /// `execute` calls made.
    pub attempted: u64,
    /// `execute` calls that returned an error.
    pub failed: u64,
    /// Metric values, in manifest order.
    pub metrics: Vec<(&'static MetricSpec, f64)>,
    /// The report.
    pub text: String,
}

impl RunReport {
    /// Close a report: the violations (at most twenty spelled out), the
    /// verdict line and the metric table.
    pub fn finish(
        mut text: String,
        violations: &[String],
        attempted: u64,
        failed: u64,
        metrics: Vec<(&'static MetricSpec, f64)>,
    ) -> RunReport {
        for v in violations.iter().take(20) {
            let _ = writeln!(text, "VIOLATION {v}");
        }
        let correct = violations.is_empty();
        let _ = writeln!(
            text,
            "attempted {attempted} / failed {failed} / correct {correct}"
        );
        for (m, value) in &metrics {
            let _ = writeln!(text, "  {:<34} {:>16.6} {}", m.name, value, m.unit);
        }
        RunReport {
            correct,
            attempted,
            failed,
            metrics,
            text,
        }
    }

    /// The result line: one JSON object with exactly the keys `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn result_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (m, value)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            // JSON has no infinity; a latency pool poisoned by a failed
            // query reads as the largest number there is.
            let value = if value.is_finite() { *value } else { f64::MAX };
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// Everything a run needs before the first session.
pub struct Prepared {
    /// The workload.
    pub workload: Workload,
    /// Its sizes.
    pub sizing: Sizing,
    /// The one clock every time in the report is read from.
    pub clock: Clock,
    /// The base table.
    pub table: Table,
    /// Seconds `generate_table` took.
    pub datagen_s: f64,
    /// The query list.
    pub list: Vec<BenchQuery>,
    /// The run's seed.
    pub seed: u64,
}

/// One session and the sample(s) drawn for it.
pub struct Replica {
    /// The session's seed (samples, resamples and diagnostics derive
    /// from it).
    pub seed: u64,
    /// The session, set up.
    pub session: AqpSession,
    /// Step times of its set-up.
    pub times: SetupTimes,
}

/// Generate the input.
pub fn prepare(args: &RunArgs) -> Prepared {
    let clock = Clock::real();
    let sizing = Sizing::of(args.workload, args.scale);
    let (table, datagen) = clock.time(|| generate_table(&sizing, args.seed));
    Prepared {
        workload: args.workload,
        sizing,
        clock,
        table,
        datagen_s: datagen.as_secs_f64(),
        list: query_list(args.workload, args.seed),
        seed: args.seed,
    }
}

impl Prepared {
    /// Set up session number `replica` of this run: the same table, a
    /// session seed and samples of its own.
    pub fn set_up(&self, replica: u64) -> Result<Replica, String> {
        let seed = SeedStream::new(self.seed).seed(0x5E55_0000 + replica);
        let (session, times) = set_up(
            &self.table,
            &self.sizing,
            session_config(seed, Observers::of(self.workload)),
            &self.clock,
        )?;
        Ok(Replica {
            seed,
            session,
            times,
        })
    }
}

/// The exact answer of one query over the base table.
pub struct Exact {
    /// `execute_exact`'s result, or why there is none.
    pub result: Result<ExactResult, String>,
    /// Seconds `execute_exact` took.
    pub seconds: f64,
}

/// The oracle: `execute_exact` over the base table for every query of the
/// list, at `threads` threads.
pub fn exact_answers(p: &Prepared, threads: usize) -> Vec<Exact> {
    let registry = UdfRegistry::default();
    p.list
        .iter()
        .map(|q| {
            let plan = parse_query(&q.sql)
                .and_then(|parsed| plan_query(&parsed, p.table.schema()))
                .map_err(|e| e.to_string());
            match plan {
                Ok(plan) => {
                    let (r, d) = p
                        .clock
                        .time(|| execute_exact(&plan, &p.table, &registry, threads));
                    Exact {
                        result: r.map_err(|e| e.to_string()),
                        seconds: d.as_secs_f64(),
                    }
                }
                Err(e) => Exact {
                    result: Err(e),
                    seconds: f64::NAN,
                },
            }
        })
        .collect()
}

/// What a pass established about one query.
pub struct Checked {
    /// The answer's fingerprint (`None` if `execute` failed).
    pub hash: Option<u64>,
    /// The answer's mode (`None` if `execute` failed).
    pub mode: Option<AnswerMode>,
    /// The oracle's findings.
    pub verdict: Verdict,
    /// Rows of the sample the session chose.
    pub sample_rows: usize,
    /// Spans in the answer's trace.
    pub trace_spans: usize,
}

/// One pass over the list on one session.
pub struct Pass {
    /// One entry per query, in list order.
    pub checked: Vec<Checked>,
    /// `execute` latency per query in milliseconds; infinite for a failed
    /// query, which is slower than any limit.
    pub latencies_ms: Vec<f64>,
    /// CPU seconds the process used during the pass.
    pub cpu_s: f64,
    /// `execute` calls that failed.
    pub failed: u64,
    /// Everything that makes the run incorrect, in list order.
    pub violations: Vec<String>,
}

/// Execute every query of the list once on `session`, timing each
/// `execute` call, and check each answer against `exact` outside the
/// timed call.
pub fn pass(p: &Prepared, session: &AqpSession, exact: &[Exact]) -> Result<Pass, String> {
    let mut out = Pass {
        checked: Vec::with_capacity(p.list.len()),
        latencies_ms: Vec::with_capacity(p.list.len()),
        cpu_s: 0.0,
        failed: 0,
        violations: Vec::new(),
    };
    let cpu_before = procfs::cpu_seconds()?;
    for (i, (q, exact)) in p.list.iter().zip(exact).enumerate() {
        let (answer, took) = p.clock.time(|| session.execute(&q.sql));
        let mut verdict = Verdict::default();
        match (&answer, &exact.result) {
            (Ok(a), Ok(e)) => verdict = judge(a, e),
            (Err(e), _) => {
                out.failed += 1;
                verdict.violations.push(format!("execute failed: {e}"));
            }
            (_, Err(e)) => verdict.violations.push(format!("oracle failed: {e}")),
        }
        out.violations.extend(
            verdict
                .violations
                .iter()
                .map(|v| format!("query {i} `{}`: {v}", q.sql)),
        );
        out.latencies_ms.push(match answer {
            Ok(_) => took.as_secs_f64() * 1e3,
            Err(_) => f64::INFINITY,
        });
        let answer = answer.ok();
        out.checked.push(Checked {
            hash: answer.as_ref().map(answer_hash),
            mode: answer.as_ref().map(|a| a.mode),
            verdict,
            sample_rows: answer.as_ref().map_or(0, |a| a.sample_rows),
            trace_spans: answer.as_ref().map_or(0, |a| a.trace.spans.len()),
        });
    }
    out.cpu_s = procfs::cpu_seconds()? - cpu_before;
    Ok(out)
}

impl Pass {
    /// Completed queries per second of the time spent in `execute`.
    fn queries_per_s(&self) -> f64 {
        self.latencies_ms.len() as f64 / (self.latencies_ms.iter().sum::<f64>() / 1e3)
    }

    fn cpu_ms_per_query(&self) -> f64 {
        self.cpu_s * 1e3 / self.latencies_ms.len() as f64
    }

    /// Fingerprint of all answers of the pass.
    fn answers_hash(&self) -> u64 {
        let mut h = Fnv::new();
        for c in &self.checked {
            h.write(&c.hash.unwrap_or(0).to_le_bytes());
        }
        h.finish()
    }
}

/// The answer-quality figures over the passes given (a run's first
/// [`QUALITY_PASSES`]).
pub struct Quality<'a> {
    passes: &'a [Pass],
}

impl<'a> Quality<'a> {
    /// Over the first [`QUALITY_PASSES`] of `passes`.
    pub fn of(passes: &'a [Pass]) -> Quality<'a> {
        Quality {
            passes: &passes[..passes.len().min(QUALITY_PASSES)],
        }
    }

    fn checked(&self) -> impl Iterator<Item = &Checked> {
        self.passes.iter().flat_map(|p| &p.checked)
    }

    fn answers(&self) -> f64 {
        self.checked().count() as f64
    }

    /// Mean over the answers of the share of cells answered
    /// approximately with accepted bars (a failed query has none).
    pub fn approx_share(&self) -> f64 {
        self.checked()
            .map(|c| c.verdict.approx_share())
            .sum::<f64>()
            / self.answers()
    }

    /// Mean, over the answers that have reliable CIs, of the share of
    /// them that contain the exact value. Per answer, so that one query
    /// with 10^4 groups does not outvote the rest of the list.
    pub fn ci_coverage(&self) -> f64 {
        let per_answer: Vec<f64> = self
            .checked()
            .map(|c| &c.verdict)
            .filter(|v| v.reliable_cells > 0)
            .map(|v| v.covered_cells as f64 / v.reliable_cells as f64)
            .collect();
        per_answer.iter().sum::<f64>() / per_answer.len() as f64
    }

    /// Mean over those answers of the answer's median relative
    /// half-width. The mean, because a list has a dozen kinds of reliable
    /// answer whose widths differ eightfold: their median jumped from one
    /// kind to the next with the seed (21 % spread on
    /// `paper_mix_observed` against 5 % for the mean).
    pub fn ci_rel_halfwidth_p50(&self) -> f64 {
        let per_answer: Vec<f64> = self
            .checked()
            .map(|c| &c.verdict)
            .filter(|v| !v.rel_half_widths.is_empty())
            .map(|v| median(&v.rel_half_widths))
            .collect();
        per_answer.iter().sum::<f64>() / per_answer.len() as f64
    }

    /// Share of the answers in `mode`.
    pub fn mode_share(&self, mode: AnswerMode) -> f64 {
        self.checked().filter(|c| c.mode == Some(mode)).count() as f64 / self.answers()
    }

    /// Fingerprint of all answers of these passes.
    pub fn answers_hash(&self) -> u64 {
        let mut h = Fnv::new();
        for p in self.passes {
            h.write(&p.answers_hash().to_le_bytes());
        }
        h.finish()
    }
}

/// Answer modes differ several-fold in latency, and which mode a query
/// gets is fixed per seed but not across seeds. A percentile whose rank
/// sits within five points of the share of fully approximate answers
/// would land on either side of that cliff depending on the seed.
pub fn percentile_clear_of_mode_boundary(approximate_share: f64, p: f64) -> bool {
    (p / 100.0 - approximate_share).abs() >= 0.05
}

/// The header both kinds of run print: sizes, set-ups, list fingerprint,
/// the mode histogram by query kind and the answer-quality figures of
/// `passes` (all on the same list).
pub fn describe(p: &Prepared, setups: &[SetupTimes], passes: &[Pass], text: &mut String) {
    let _ = writeln!(
        text,
        "workload {}  seed {}  base rows {}  uniform samples {:?}  stratified {:?}",
        p.workload.name(),
        p.seed,
        p.sizing.rows,
        p.sizing.uniform,
        p.sizing.stratified
    );
    let _ = writeln!(
        text,
        "datagen {:.3} s; set-ups (s): {}",
        p.datagen_s,
        setups
            .iter()
            .map(|s| format!("{:.3}", s.total_s()))
            .collect::<Vec<_>>()
            .join(" ")
    );
    let quality = Quality::of(passes);
    let _ = writeln!(
        text,
        "queries {}  query hash {:016x}  answer hash {:016x} (first {} passes)",
        p.list.len(),
        list_hash(p.list.iter().map(|q| q.sql.as_str())),
        quality.answers_hash(),
        quality.passes.len()
    );
    let mut by_kind: BTreeMap<&str, BTreeMap<String, usize>> = BTreeMap::new();
    for pass in quality.passes {
        for (q, c) in p.list.iter().zip(&pass.checked) {
            let mode = c.mode.map_or("failed".to_string(), |m| format!("{m:?}"));
            *by_kind.entry(&q.kind).or_default().entry(mode).or_default() += 1;
        }
    }
    let _ = writeln!(text, "answer modes of those passes, by query kind:");
    for (kind, modes) in &by_kind {
        let modes: Vec<String> = modes.iter().map(|(m, c)| format!("{m} x{c}")).collect();
        let _ = writeln!(text, "  {kind:<44} {}", modes.join(", "));
    }
    let approximate = quality.mode_share(AnswerMode::Approximate);
    for pct in [50.0, 90.0] {
        if approximate < 1.0 && !percentile_clear_of_mode_boundary(approximate, pct) {
            let _ = writeln!(
                text,
                "warning: p{pct} sits within 5 points of the approximate/fallback boundary \
                 ({approximate:.3} of the answers are fully approximate); it may not repeat \
                 across seeds"
            );
        }
    }
    let _ = writeln!(
        text,
        "answer quality: approx_share {:.4}  ci_coverage {:.4}  ci_rel_halfwidth_p50 {:.5}",
        quality.approx_share(),
        quality.ci_coverage(),
        quality.ci_rel_halfwidth_p50()
    );
}

/// Close the interval since `batch` with a new batch of reference slices
/// and return the speed factor of what ran in between.
pub fn next_factor(reference: &mut Reference, batch: &mut f64) -> f64 {
    let before = std::mem::replace(batch, reference.batch());
    factor(before, *batch)
}

/// `setup_s`, `queries_per_s`, `latency_p50_ms`, `latency_p90_ms` and
/// `cpu_ms_per_query` of a run, with the times of each pass and each
/// set-up divided by its speed factor (all ones: as the clock read them).
fn time_figures(
    passes: &[Pass],
    setups: &[SetupTimes],
    pass_speeds: &[f64],
    setup_speeds: &[f64],
) -> [f64; 5] {
    let by_speed = passes.iter().zip(pass_speeds);
    let pool_ms = sorted(
        by_speed
            .clone()
            .flat_map(|(p, speed)| p.latencies_ms.iter().map(move |ms| ms / speed))
            .collect(),
    );
    let setup_s: Vec<f64> = setups
        .iter()
        .zip(setup_speeds)
        .map(|(t, speed)| t.total_s() / speed)
        .collect();
    let queries_per_s: Vec<f64> = by_speed
        .clone()
        .map(|(p, speed)| p.queries_per_s() * speed)
        .collect();
    let cpu_ms: Vec<f64> = by_speed
        .map(|(p, speed)| p.cpu_ms_per_query() / speed)
        .collect();
    [
        median(&setup_s),
        median(&queries_per_s),
        percentile(&pool_ms, 50.0),
        percentile(&pool_ms, 90.0),
        median(&cpu_ms),
    ]
}

/// The untraced run: the end-to-end metrics.
pub fn run(args: &RunArgs) -> Result<RunReport, String> {
    let p = prepare(args);
    let oracle_threads = std::thread::available_parallelism().map_or(1, usize::from);
    let exact = exact_answers(&p, oracle_threads);

    // Every set-up and every timed pass sits between two batches of the
    // reference loop; `setup_speeds` and `pass_speeds` are how much slower
    // than the reference machine this one ran meanwhile.
    let mut reference = Reference::new(&p.clock);
    let mut batch = reference.batch();
    // The first session, and one untimed pass on it: the warm-up, and the
    // answers the first timed pass must repeat bit for bit.
    let mut replica = p.set_up(0)?;
    let mut setups = vec![replica.times];
    let mut setup_speeds = vec![next_factor(&mut reference, &mut batch)];
    let warm_up = pass(&p, &replica.session, &exact)?;
    let mut violations = warm_up.violations.clone();

    // Whole timed passes over the whole list, so every query weighs the
    // same; the first on the warm session, every later one on a session
    // set up for it (see `QUALITY_PASSES`). Latencies are pooled over the
    // passes; throughput and CPU cost are taken per pass and the run
    // reports their median.
    let min_passes = if args.scale == Scale::Quick {
        1
    } else {
        QUALITY_PASSES
    };
    let mut passes: Vec<Pass> = Vec::new();
    let mut pass_speeds: Vec<f64> = Vec::new();
    let started = p.clock.now();
    batch = reference.batch();
    loop {
        if !passes.is_empty() {
            // Drop the previous session first so sessions do not stack up
            // in `peak_rss_mb`.
            drop(replica);
            replica = p.set_up(passes.len() as u64)?;
            setups.push(replica.times);
            setup_speeds.push(next_factor(&mut reference, &mut batch));
        }
        let timed = pass(&p, &replica.session, &exact)?;
        pass_speeds.push(next_factor(&mut reference, &mut batch));
        if passes.is_empty() {
            for (i, (a, b)) in warm_up.checked.iter().zip(&timed.checked).enumerate() {
                if a.hash != b.hash {
                    violations.push(format!(
                        "query {i} `{}`: answer differs from the warm-up pass",
                        p.list[i].sql
                    ));
                }
            }
        }
        violations.extend(timed.violations.iter().cloned());
        passes.push(timed);
        let elapsed = p.clock.now().duration_since(started).as_secs_f64();
        if passes.len() >= min_passes && elapsed >= args.seconds {
            break;
        }
    }
    let wall_s = p.clock.now().duration_since(started).as_secs_f64();
    let n_run = (p.list.len() * (1 + passes.len())) as u64;
    let failed = warm_up.failed + passes.iter().map(|p| p.failed).sum::<u64>();
    let [setup_s, queries_per_s, p50_ms, p90_ms, cpu_ms] =
        time_figures(&passes, &setups, &pass_speeds, &setup_speeds);
    let timed_queries = passes.len() * p.list.len();
    let quality = Quality::of(&passes);

    let values: [(&str, f64); 9] = [
        ("setup_s", setup_s),
        ("queries_per_s", queries_per_s),
        ("latency_p50_ms", p50_ms),
        ("latency_p90_ms", p90_ms),
        ("cpu_ms_per_query", cpu_ms),
        ("peak_rss_mb", procfs::peak_rss_mb()?),
        ("approx_share", quality.approx_share()),
        ("ci_coverage", quality.ci_coverage()),
        ("ci_rel_halfwidth_p50", quality.ci_rel_halfwidth_p50()),
    ];
    assert_eq!(
        values.len(),
        END_TO_END.len(),
        "a measured metric is not in the manifest"
    );
    let metrics: Vec<(&MetricSpec, f64)> = END_TO_END
        .iter()
        .map(|m| {
            let value = values.iter().find(|(name, _)| *name == m.name);
            (
                m,
                value
                    .expect("every end-to-end metric of the manifest is measured")
                    .1,
            )
        })
        .collect();
    for (m, v) in &metrics {
        if !v.is_finite() {
            violations.push(format!("metric {} is {v}", m.name));
        }
    }

    let mut text = String::new();
    describe(&p, &setups, &passes, &mut text);
    let _ = writeln!(
        text,
        "timed: {} passes, {} queries in {wall_s:.3} s wall with their set-ups and checks; \
         highest percentile with ten samples beyond it: {}",
        passes.len(),
        timed_queries,
        highest_supported_percentile(timed_queries).map_or("none".to_string(), |p| format!("p{p}"))
    );
    let _ = writeln!(
        text,
        "queries/s by pass, as the clock read them: {}",
        passes
            .iter()
            .map(|s| format!("{:.2}", s.queries_per_s()))
            .collect::<Vec<_>>()
            .join(" ")
    );
    let _ = writeln!(
        text,
        "speed factor by pass (1 = reference speed, 2 = half of it): {}",
        pass_speeds
            .iter()
            .map(|f| format!("{f:.2}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    let [setup_s, queries_per_s, p50_ms, p90_ms, cpu_ms] = time_figures(
        &passes,
        &setups,
        &vec![1.0; passes.len()],
        &vec![1.0; setups.len()],
    );
    let _ = writeln!(
        text,
        "as the clock read them: set-up {setup_s:.4} s, {queries_per_s:.3} queries/s, p50 \
         {p50_ms:.3} ms, p90 {p90_ms:.3} ms, {cpu_ms:.3} CPU ms/query"
    );
    let mut by_kind_ms: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for pass in &passes {
        for (q, ms) in p.list.iter().zip(&pass.latencies_ms) {
            by_kind_ms.entry(&q.kind).or_default().push(*ms);
        }
    }
    let _ = writeln!(text, "latency by query kind (ms): samples, median, maximum");
    for (kind, ms) in by_kind_ms {
        let ms = sorted(ms);
        let _ = writeln!(
            text,
            "  {kind:<44} {:>5} {:>10.3} {:>10.3}",
            ms.len(),
            percentile(&ms, 50.0),
            percentile(&ms, 100.0)
        );
    }
    Ok(RunReport::finish(text, &violations, n_run, failed, metrics))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_boundary_check() {
        // 93 % approximate: p50 is deep inside the approximate queries,
        // p90 is three points from the cliff.
        assert!(percentile_clear_of_mode_boundary(0.93, 50.0));
        assert!(!percentile_clear_of_mode_boundary(0.93, 90.0));
        assert!(percentile_clear_of_mode_boundary(0.0, 50.0));
        assert!(percentile_clear_of_mode_boundary(1.0, 90.0));
        assert!(!percentile_clear_of_mode_boundary(0.52, 50.0));
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let report = RunReport::finish(
            String::new(),
            &[],
            7,
            0,
            vec![(&END_TO_END[0], 1.5), (&END_TO_END[2], f64::INFINITY)],
        );
        assert!(report.correct);
        let v = crate::json::parse(&report.result_line()).unwrap();
        let keys: Vec<&str> = v
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let m = v.get("metrics").unwrap();
        assert_eq!(
            m.get("setup_s").unwrap().get("value").unwrap().as_f64(),
            Some(1.5)
        );
        assert_eq!(
            m.get("setup_s").unwrap().get("unit").unwrap().as_str(),
            Some("s")
        );
        assert!(
            m.get("latency_p50_ms")
                .unwrap()
                .get("value")
                .unwrap()
                .as_f64()
                .unwrap()
                > 1e300
        );
        assert!(!RunReport::finish(String::new(), &["x".into()], 1, 0, Vec::new()).correct);
    }

    #[test]
    fn quick_run_is_correct_and_repeats() {
        let args = RunArgs {
            workload: Workload::ClosedFormScan,
            seed: 3,
            seconds: 0.0,
            scale: Scale::Quick,
        };
        let a = run(&args).unwrap();
        assert!(a.correct, "{}", a.text);
        assert_eq!(a.failed, 0);
        assert_eq!(a.metrics.len(), END_TO_END.len());
        // Answers are a function of (code, seed) alone: the fingerprint
        // line repeats exactly.
        let b = run(&args).unwrap();
        let fingerprint = |r: &RunReport| {
            r.text
                .lines()
                .find(|l| l.starts_with("queries "))
                .map(str::to_string)
        };
        assert!(fingerprint(&a).is_some());
        assert_eq!(fingerprint(&a), fingerprint(&b));
    }
}
