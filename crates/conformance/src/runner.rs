//! Case execution, canonical `[expect]` rendering, the differential
//! exact oracle, and the corpus driver (verify / bless / drift).

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use aqp_core::{AnswerMode, AqpAnswer, AqpSession, SessionConfig};
use aqp_obs::{Clock, ObsHandle};
use aqp_storage::Table;

use crate::case::{CaseFile, CaseSpec, TableKind};

/// Memoizes generated workload tables across cases: most cases share
/// `(kind, rows, partitions, table_seed)`, and data generation is the
/// dominant per-case cost.
#[derive(Default)]
pub struct TableCache {
    tables: BTreeMap<(TableKind, usize, usize, u64), Table>,
}

impl TableCache {
    /// A fresh cache.
    pub fn new() -> Self {
        TableCache::default()
    }

    /// The (cached) table for `spec`.
    pub fn get(&mut self, spec: &CaseSpec) -> Table {
        let key = (spec.table, spec.rows, spec.partitions, spec.table_seed);
        self.tables
            .entry(key)
            .or_insert_with(|| match spec.table {
                TableKind::Sessions => {
                    aqp_workload::conviva_sessions_table(spec.rows, spec.partitions, spec.table_seed)
                }
                TableKind::Events => {
                    aqp_workload::facebook_events_table(spec.rows, spec.partitions, spec.table_seed)
                }
            })
            .clone()
    }
}

/// Coverage tally from the differential oracle: how many
/// claimed-reliable CIs the case produced and how many contained the
/// exact answer.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OracleTally {
    /// CIs the system claimed reliable (approximate mode, diagnostic
    /// accepted or absent, matching exact group found).
    pub reliable: usize,
    /// Of those, CIs containing the exact answer.
    pub covered: usize,
    /// Sum of nominal confidences over the counted CIs (so corpus-wide
    /// nominal coverage is `confidence_sum / reliable`).
    pub confidence_sum: f64,
}

/// What running one case produced.
#[derive(Debug, Clone)]
pub struct CaseOutcome {
    /// Canonical `[expect]` body for the run.
    pub rendered: String,
    /// Just the `result` lines (cross-case `answers_match` compares
    /// these, so metric/plan differences between variants don't mask
    /// the answer-equality invariant).
    pub result_lines: String,
    /// Differential-oracle tally.
    pub oracle: OracleTally,
}

fn mode_str(mode: &AnswerMode) -> &'static str {
    match mode {
        AnswerMode::Approximate => "Approximate",
        AnswerMode::ApproximateUnchecked => "ApproximateUnchecked",
        AnswerMode::ExactFallback => "ExactFallback",
        AnswerMode::PartialFallback => "PartialFallback",
        AnswerMode::Exact => "Exact",
    }
}

/// Root-first `;`-joined operator path (the `aqp-prof` path idiom).
/// Plans are linear chains, so one path is the whole shape; operator
/// names are the `describe()` text up to the first `[`.
fn plan_path(plan: &str) -> String {
    let mut names: Vec<&str> = Vec::new();
    for line in plan.lines() {
        let t = line.trim_start();
        if t.is_empty() {
            continue;
        }
        let name = t.split(['[', ' ']).next().unwrap_or(t);
        names.push(name);
    }
    names.join(";")
}

fn bits(x: f64) -> String {
    format!("{:x}", x.to_bits())
}

/// Group keys use the `\u{1f}` unit separator internally; render it as
/// `|` so case files stay grep-able.
fn render_key(key: &str) -> String {
    key.replace('\u{1f}', "|")
}

fn build_session(spec: &CaseSpec, obs: ObsHandle) -> Result<AqpSession, String> {
    let config = SessionConfig {
        seed: spec.seed,
        threads: 1,
        bootstrap_k: spec.bootstrap_k,
        diagnostic_p: spec.diagnostic_p,
        run_diagnostics: spec.diagnostics,
        default_confidence: spec.confidence,
        obs,
        audit: spec.audit.then(|| aqp_audit::AuditConfig {
            sample_rate: 1.0,
            seed: spec.seed ^ 0xA0D1,
            ..Default::default()
        }),
        faults: spec.fault.as_ref().map(|f| f.to_config()),
        ..Default::default()
    };
    let session = AqpSession::new(config);
    Ok(session)
}

fn prepare(
    spec: &CaseSpec,
    table: Table,
    with_samples: bool,
) -> Result<(AqpSession, ObsHandle), String> {
    let obs = ObsHandle::isolated(Clock::mock());
    let session = build_session(spec, obs.clone())?;
    session
        .register_table(table)
        .map_err(|e| format!("register_table: {e}"))?;
    if with_samples {
        let name = spec.table.table_name();
        if spec.sample_rows > 0 {
            session
                .build_samples(name, &[spec.sample_rows], spec.sample_seed)
                .map_err(|e| format!("build_samples: {e}"))?;
        }
        if let Some((col, rows)) = &spec.stratify {
            session
                .build_stratified_sample(name, col, *rows, spec.sample_seed)
                .map_err(|e| format!("build_stratified_sample: {e}"))?;
        }
    }
    Ok((session, obs))
}

/// Exact answers per `(group key, aggregate position)` from the oracle
/// run. Both runs name a result by its SELECT expression (`AVG(bitrate)`)
/// and keep the select-list order; matching by position also tells apart
/// two aggregates of one list that render alike.
fn oracle_truth(spec: &CaseSpec, table: Table) -> Result<BTreeMap<(String, usize), f64>, String> {
    // Same table, no samples, no faults, no audit: the session plans an
    // exact query and the estimate IS the exact answer.
    let mut exact_spec = spec.clone();
    exact_spec.sample_rows = 0;
    exact_spec.stratify = None;
    exact_spec.fault = None;
    exact_spec.audit = false;
    let (session, _obs) = prepare(&exact_spec, table, false)?;
    let ans = session
        .execute(&spec.sql)
        .map_err(|e| format!("oracle execute: {e}"))?;
    if ans.mode != AnswerMode::Exact {
        return Err(format!("oracle ran in mode {}, not Exact", mode_str(&ans.mode)));
    }
    let mut truth = BTreeMap::new();
    for g in &ans.groups {
        for (i, a) in g.aggs.iter().enumerate() {
            truth.insert((g.key.clone(), i), a.estimate);
        }
    }
    Ok(truth)
}

fn render_answer(
    ans: &AqpAnswer,
    truth: &BTreeMap<(String, usize), f64>,
    tally: &mut OracleTally,
    result_lines: &mut String,
    out: &mut String,
) {
    out.push_str(&format!("mode = {}\n", mode_str(&ans.mode)));
    out.push_str(&format!("fell_back = {}\n", if ans.fell_back { "yes" } else { "no" }));
    out.push_str(&format!("sample_rows = {}\n", ans.sample_rows));
    out.push_str(&format!("population_rows = {}\n", ans.population_rows));
    out.push_str(&format!("plan = {}\n", plan_path(&ans.plan)));
    match &ans.degraded {
        Some(d) => out.push_str(&format!(
            "degraded = lost={}/{} planned={} effective={} widen={}\n",
            d.lost_partitions,
            d.total_partitions,
            d.planned_rows,
            d.effective_rows,
            bits(d.widen_factor),
        )),
        None => out.push_str("degraded = none\n"),
    }
    for g in &ans.groups {
        for (i, a) in g.aggs.iter().enumerate() {
            let ci = match &a.ci {
                Some(c) => format!("{},{},{}", bits(c.center), bits(c.half_width), bits(c.confidence)),
                None => "-".to_string(),
            };
            let verdict = match &a.diagnostic {
                Some(d) if d.accepted => "ok",
                Some(_) => "rejected",
                None => "-",
            };
            let exact = truth.get(&(g.key.clone(), i));
            let truth_s = match exact {
                Some(t) => bits(*t),
                None => "none".to_string(),
            };
            let covered = match (exact, &a.ci) {
                (Some(t), Some(c)) => {
                    let inside = c.contains(*t);
                    // The oracle's coverage statistic counts exactly the
                    // CIs the system stands behind: an approximate (or
                    // partially approximate) answer whose diagnostic ran
                    // and accepted the error bars. Unchecked CIs
                    // (diagnostics off) are rendered but make no claim.
                    let claimed = matches!(
                        ans.mode,
                        AnswerMode::Approximate | AnswerMode::PartialFallback
                    ) && a.diagnostic.as_ref().map(|d| d.accepted).unwrap_or(false);
                    if claimed {
                        tally.reliable += 1;
                        tally.confidence_sum += c.confidence;
                        if inside {
                            tally.covered += 1;
                        }
                    }
                    if inside {
                        "yes"
                    } else {
                        "no"
                    }
                }
                _ => "n/a",
            };
            let line = format!(
                "result key=\"{}\" agg=\"{}\" est={} ci={} verdict={} truth={} covered={}\n",
                render_key(&g.key),
                a.name,
                bits(a.estimate),
                ci,
                verdict,
                truth_s,
                covered,
            );
            result_lines.push_str(&line);
            out.push_str(&line);
        }
    }
}

/// Execute one case end to end: approximate run, differential exact
/// oracle, metric-delta capture, canonical rendering.
pub fn run_case(spec: &CaseSpec, cache: &mut TableCache) -> Result<CaseOutcome, String> {
    let table = cache.get(spec);
    let truth = oracle_truth(spec, table.clone())?;

    let (session, obs) = prepare(spec, table, true)?;
    let before = obs.metrics.snapshot();
    let executed = session.execute(&spec.sql);
    let after = obs.metrics.snapshot();

    let mut out = String::new();
    let mut result_lines = String::new();
    let mut tally = OracleTally::default();
    match &executed {
        Ok(ans) => render_answer(ans, &truth, &mut tally, &mut result_lines, &mut out),
        Err(e) => {
            let line = format!("error = {e}\n");
            result_lines.push_str(&line);
            out.push_str(&line);
        }
    }

    // Nonzero counter deltas, name-sorted (snapshots are name-sorted).
    let before_counters: BTreeMap<&str, u64> =
        before.counters.iter().map(|(k, v)| (k.as_str(), *v)).collect();
    for (name, v) in &after.counters {
        let delta = v - before_counters.get(name.as_str()).copied().unwrap_or(0);
        if delta > 0 {
            out.push_str(&format!("metric {name} = {delta}\n"));
        }
    }

    Ok(CaseOutcome { rendered: out, result_lines, oracle: tally })
}

/// What the corpus driver should do with each case.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CorpusMode {
    /// Re-run and byte-compare the re-rendered `[expect]` body against
    /// the committed one; fail on any difference.
    Verify,
    /// Rewrite the `[expect]` body in place (or under `out` when
    /// re-recording for drift detection), preserving the preamble.
    Bless {
        /// Alternate output directory (`None` = in place).
        out: Option<PathBuf>,
    },
}

/// Per-case verdict in a corpus run.
#[derive(Debug, Clone)]
pub struct CaseStatus {
    /// Case name (file stem).
    pub name: String,
    /// Pass/fail.
    pub pass: bool,
    /// Short human-readable detail (first differing line on failure).
    pub detail: String,
}

/// Corpus-wide report.
#[derive(Debug, Clone)]
pub struct CorpusReport {
    /// Per-case statuses, name-sorted.
    pub cases: Vec<CaseStatus>,
    /// `answers_match` checks: `(case, target, ok)`.
    pub matches: Vec<(String, String, bool)>,
    /// Aggregated oracle tally.
    pub oracle: OracleTally,
    /// Empirical CI coverage (`covered / reliable`).
    pub empirical: f64,
    /// Mean nominal confidence over counted CIs.
    pub nominal: f64,
    /// Overall pass (all cases + matches + coverage bound).
    pub pass: bool,
}

/// Allowed deviation of empirical corpus coverage from nominal
/// (the ISSUE's "within 2 points of nominal" acceptance bar).
pub const COVERAGE_TOLERANCE: f64 = 0.02;

impl CorpusReport {
    /// Deterministic text rendering (the CI job byte-diffs this across
    /// two processes, so no timing, paths, or float formatting that
    /// could wobble).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("corpus cases = {}\n", self.cases.len()));
        for c in &self.cases {
            if c.pass {
                out.push_str(&format!("PASS {}\n", c.name));
            } else {
                out.push_str(&format!("FAIL {} :: {}\n", c.name, c.detail));
            }
        }
        for (a, b, ok) in &self.matches {
            out.push_str(&format!(
                "MATCH {a} == {b} :: {}\n",
                if *ok { "ok" } else { "MISMATCH" }
            ));
        }
        out.push_str(&format!(
            "oracle reliable_cis = {} covered = {} empirical = {:x} nominal = {:x}\n",
            self.oracle.reliable,
            self.oracle.covered,
            self.empirical.to_bits(),
            self.nominal.to_bits(),
        ));
        out.push_str(&format!(
            "oracle empirical_pct = {:.2} nominal_pct = {:.2} tolerance_pct = {:.0}\n",
            self.empirical * 100.0,
            self.nominal * 100.0,
            COVERAGE_TOLERANCE * 100.0,
        ));
        out.push_str(&format!("RESULT: {}\n", if self.pass { "PASS" } else { "FAIL" }));
        out
    }
}

fn first_diff(expected: &str, actual: &str) -> String {
    for (i, (e, a)) in expected.lines().zip(actual.lines()).enumerate() {
        if e != a {
            return format!("line {}: expected {:?}, got {:?}", i + 1, e, a);
        }
    }
    let (el, al) = (expected.lines().count(), actual.lines().count());
    if el != al {
        return format!("expected {el} lines, got {al}");
    }
    "trailing bytes differ".to_string()
}

/// Load, run, and score every `.case` file under `dir` (name-sorted).
///
/// In `Verify` mode a case passes when its re-rendered `[expect]` body
/// is byte-identical to the committed one. In `Bless` mode the body is
/// rewritten (in place, or under `out`) and a case only fails if it
/// cannot be executed at all. `answers_match` invariants and the
/// corpus-wide oracle coverage bound are checked in both modes.
pub fn run_corpus(dir: &Path, mode: &CorpusMode) -> Result<CorpusReport, String> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("read_dir {}: {e}", dir.display()))?
        .filter_map(|r| r.ok().map(|d| d.path()))
        .filter(|p| p.extension().map(|e| e == "case").unwrap_or(false))
        .collect();
    entries.sort();
    if entries.is_empty() {
        return Err(format!("no .case files under {}", dir.display()));
    }

    let mut cache = TableCache::new();
    let mut cases = Vec::new();
    let mut matches = Vec::new();
    let mut oracle = OracleTally::default();
    let mut results_by_name: BTreeMap<String, String> = BTreeMap::new();
    let mut match_specs: Vec<(String, String)> = Vec::new();

    for path in &entries {
        let name = path
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("<non-utf8>")
            .to_string();
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("read {}: {e}", path.display()))?;
        let case = match CaseFile::parse(&name, &text) {
            Ok(c) => c,
            Err(e) => {
                cases.push(CaseStatus { name, pass: false, detail: format!("parse: {e}") });
                continue;
            }
        };
        let outcome = match run_case(&case.spec, &mut cache) {
            Ok(o) => o,
            Err(e) => {
                cases.push(CaseStatus { name, pass: false, detail: format!("run: {e}") });
                continue;
            }
        };
        oracle.reliable += outcome.oracle.reliable;
        oracle.covered += outcome.oracle.covered;
        oracle.confidence_sum += outcome.oracle.confidence_sum;
        results_by_name.insert(name.clone(), outcome.result_lines.clone());
        if let Some(target) = &case.spec.answers_match {
            match_specs.push((name.clone(), target.clone()));
        }

        match mode {
            CorpusMode::Verify => {
                let pass = case.expect == outcome.rendered;
                let detail = if pass {
                    String::new()
                } else if case.expect.is_empty() {
                    "unblessed (no [expect] section); run bless".to_string()
                } else {
                    first_diff(&case.expect, &outcome.rendered)
                };
                cases.push(CaseStatus { name, pass, detail });
            }
            CorpusMode::Bless { out } => {
                let target = match out {
                    Some(d) => d.join(path.file_name().unwrap_or_default()),
                    None => path.clone(),
                };
                if let Some(parent) = target.parent() {
                    std::fs::create_dir_all(parent)
                        .map_err(|e| format!("mkdir {}: {e}", parent.display()))?;
                }
                let bytes = case.render_with_expect(&outcome.rendered);
                std::fs::write(&target, bytes)
                    .map_err(|e| format!("write {}: {e}", target.display()))?;
                cases.push(CaseStatus { name, pass: true, detail: String::new() });
            }
        }
    }

    for (name, target) in match_specs {
        let ok = match (results_by_name.get(&name), results_by_name.get(&target)) {
            (Some(a), Some(b)) => a == b,
            _ => false,
        };
        matches.push((name, target, ok));
    }

    let empirical = if oracle.reliable > 0 {
        oracle.covered as f64 / oracle.reliable as f64
    } else {
        0.0
    };
    let nominal = if oracle.reliable > 0 {
        oracle.confidence_sum / oracle.reliable as f64
    } else {
        0.0
    };
    let coverage_ok =
        oracle.reliable > 0 && (empirical - nominal).abs() <= COVERAGE_TOLERANCE + 1e-12;
    let pass = cases.iter().all(|c| c.pass)
        && matches.iter().all(|(_, _, ok)| *ok)
        && coverage_ok;

    Ok(CorpusReport { cases, matches, oracle, empirical, nominal, pass })
}
