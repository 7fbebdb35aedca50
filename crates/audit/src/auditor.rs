//! The auditor: sampling decisions, score ingestion, sliding windows,
//! alerting, metrics, and the JSONL audit log.

use std::fmt::Display;
use std::sync::Mutex;

use aqp_obs::{name, Counter, Gauge, Histogram, LazySink, ObsHandle};

use crate::config::AuditConfig;
use crate::sampler::AuditSampler;
use crate::score::{AuditKey, AuditScore, AuditedAggregate};
use crate::window::{ConfusionCounts, SlidingWindow};

/// One audited query, borrowed for the duration of an
/// [`Auditor::ingest`]: what identifies it, and every group-aggregate
/// result it served paired with replayed truth and already scored (the
/// session scores once and lends the same pairs to every observer).
#[derive(Debug, Clone, Copy)]
pub struct QueryAudit<'a> {
    /// The query's ordinal among considered queries (from
    /// [`Auditor::should_audit`]).
    pub ordinal: u64,
    /// The SQL text (or a rendered description) of the query.
    pub sql: &'a str,
    /// Wall-clock cost of the full-data replay, in milliseconds.
    pub replay_ms: f64,
    /// Every group-aggregate result with its truth and its score.
    pub scored: &'a [(AuditedAggregate<'a>, AuditScore)],
}

/// A fired threshold alert: a window's CI coverage dropped below the
/// configured floor.
#[derive(Debug, Clone, PartialEq)]
pub struct Alert {
    /// `"ALL"` or an `agg:family` key.
    pub key: String,
    /// The window's coverage when the alert fired.
    pub coverage: f64,
    /// The configured floor it crossed.
    pub threshold: f64,
    /// Coverage verdicts in the window at firing time.
    pub window_len: u64,
    /// Cumulative scored-result ordinal at firing time.
    pub at_result: u64,
}

impl std::fmt::Display for Alert {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "coverage alert [{}]: {:.3} < {:.2} over last {} audited results (at result {})",
            self.key, self.coverage, self.threshold, self.window_len, self.at_result
        )
    }
}

/// Cumulative (since-start) statistics for one key.
#[derive(Debug, Clone, Copy, Default)]
struct CumStats {
    scored: u64,
    hits: u64,
    misses: u64,
    ratio_sum: f64,
    ratio_n: u64,
    confusion: ConfusionCounts,
}

impl CumStats {
    fn push(&mut self, s: &AuditScore) {
        self.scored += 1;
        match s.covered {
            Some(true) => self.hits += 1,
            Some(false) => self.misses += 1,
            None => {}
        }
        if let Some(r) = s.error_ratio {
            self.ratio_sum += r;
            self.ratio_n += 1;
        }
        if let Some(o) = s.outcome {
            self.confusion.add(o);
        }
    }

    fn coverage(&self) -> Option<f64> {
        let n = self.hits + self.misses;
        (n > 0).then(|| self.hits as f64 / n as f64)
    }

    fn mean_error_ratio(&self) -> Option<f64> {
        (self.ratio_n > 0).then(|| self.ratio_sum / self.ratio_n as f64)
    }
}

#[derive(Debug)]
struct KeyState {
    window: SlidingWindow,
    cum: CumStats,
    /// Alert re-arm latch: fire once per downward crossing.
    armed: bool,
}

impl KeyState {
    fn new(window: usize) -> Self {
        KeyState { window: SlidingWindow::new(window), cum: CumStats::default(), armed: true }
    }
}

#[derive(Debug)]
struct State {
    considered: u64,
    audited: u64,
    overall: KeyState,
    /// Sorted by key; a key is allocated only when it is first seen.
    per_key: Vec<(AuditKey, KeyState)>,
    alerts: Vec<Alert>,
    sink: LazySink,
}

/// Cached metric handles (registered once; updates are lock-free).
#[derive(Debug)]
struct Meters {
    considered: Counter,
    audited: Counter,
    scored: Counter,
    hits: Counter,
    misses: Counter,
    true_accepts: Counter,
    true_rejects: Counter,
    false_positives: Counter,
    false_negatives: Counter,
    alerts: Counter,
    window_coverage: Gauge,
    replay_ms: Histogram,
}

impl Meters {
    fn new(obs: &ObsHandle) -> Self {
        let m = &obs.metrics;
        Meters {
            considered: m.counter(name::AUDIT_CONSIDERED),
            audited: m.counter(name::AUDIT_AUDITED),
            scored: m.counter(name::AUDIT_RESULTS_SCORED),
            hits: m.counter(name::AUDIT_COVERAGE_HITS),
            misses: m.counter(name::AUDIT_COVERAGE_MISSES),
            true_accepts: m.counter(name::AUDIT_TRUE_ACCEPTS),
            true_rejects: m.counter(name::AUDIT_TRUE_REJECTS),
            false_positives: m.counter(name::AUDIT_FALSE_POSITIVES),
            false_negatives: m.counter(name::AUDIT_FALSE_NEGATIVES),
            alerts: m.counter(name::AUDIT_ALERTS_FIRED),
            window_coverage: m.gauge(name::AUDIT_WINDOW_COVERAGE),
            replay_ms: m.histogram(name::AUDIT_REPLAY_MS),
        }
    }
}

/// The continuous accuracy auditor.
///
/// Thread-safe: `should_audit` and `ingest` take an internal lock, so a
/// session shared across threads audits a consistent, deterministic
/// subset of its queries.
#[derive(Debug)]
pub struct Auditor {
    cfg: AuditConfig,
    sampler: AuditSampler,
    meters: Meters,
    state: Mutex<State>,
}

impl Auditor {
    /// Build an auditor. The JSONL log (if configured) opens lazily on
    /// the first audit; open/write failures disable the log and count
    /// on `aqp.audit.log_write_errors` instead of failing queries.
    pub fn new(cfg: AuditConfig, obs: &ObsHandle) -> Self {
        let sampler = AuditSampler::new(cfg.seed, cfg.sample_rate);
        let sink = LazySink::new(cfg.log.clone(), &obs.metrics, name::AUDIT_LOG_ERRORS);
        let state = State {
            considered: 0,
            audited: 0,
            overall: KeyState::new(cfg.window),
            per_key: Vec::new(),
            alerts: Vec::new(),
            sink,
        };
        let meters = Meters::new(obs);
        Auditor { cfg, sampler, meters, state: Mutex::new(state) }
    }

    /// The configuration this auditor runs under.
    pub fn config(&self) -> &AuditConfig {
        &self.cfg
    }

    /// Register one completed approximate query and decide whether to
    /// audit it. Returns the query's audit ordinal when selected; the
    /// caller then replays the query and calls [`Auditor::ingest`].
    pub fn should_audit(&self) -> Option<u64> {
        let mut st = self.lock();
        let ordinal = st.considered;
        st.considered += 1;
        self.meters.considered.inc();
        if self.sampler.selects(ordinal) {
            st.audited += 1;
            self.meters.audited.inc();
            Some(ordinal)
        } else {
            None
        }
    }

    /// Fold one audited query's scored results into windows and metrics,
    /// append to the audit log, and return any alerts that fired.
    pub fn ingest(&self, audit: QueryAudit<'_>) -> Vec<Alert> {
        use aqp_diagnostics::DiagnosticOutcome as O;
        let mut guard = self.lock();
        let st = &mut *guard;
        self.meters.replay_ms.record_ms(audit.replay_ms);
        let mut fired = Vec::new();
        for (a, s) in audit.scored {
            self.meters.scored.inc();
            match s.covered {
                Some(true) => self.meters.hits.inc(),
                Some(false) => self.meters.misses.inc(),
                None => {}
            }
            match s.outcome {
                Some(O::TrueAccept) => self.meters.true_accepts.inc(),
                Some(O::TrueReject) => self.meters.true_rejects.inc(),
                Some(O::FalsePositive) => self.meters.false_positives.inc(),
                Some(O::FalseNegative) => self.meters.false_negatives.inc(),
                None => {}
            }
            let probe = |(k, _): &(AuditKey, KeyState)| {
                (k.agg.as_str(), k.family.as_str()).cmp(&(a.agg, a.family))
            };
            let i = st.per_key.binary_search_by(probe).unwrap_or_else(|i| {
                let key = AuditKey { agg: a.agg.to_string(), family: a.family.to_string() };
                st.per_key.insert(i, (key, KeyState::new(self.cfg.window)));
                i
            });
            st.overall.cum.push(s);
            st.overall.window.push(s.covered);
            let (key, ks) = &mut st.per_key[i];
            ks.cum.push(s);
            ks.window.push(s.covered);

            st.sink.write_line(|| audit_line(&audit, a, s));

            let at_result = st.overall.cum.scored;
            let overall = self.check_alert(&"ALL", &mut st.overall, at_result);
            let per_key = self.check_alert(&*key, ks, at_result);
            for alert in overall.into_iter().chain(per_key) {
                self.meters.alerts.inc();
                st.sink.write_line(|| alert_line(&alert));
                st.alerts.push(alert.clone());
                fired.push(alert);
            }
        }
        if let Some(c) = st.overall.window.coverage() {
            self.meters.window_coverage.set(c);
        }
        st.sink.flush();
        fired
    }

    /// Evaluate the coverage alert for one key, honoring the re-arm
    /// latch (one alert per downward crossing). The key is rendered only
    /// when an alert fires.
    fn check_alert(&self, key: &dyn Display, ks: &mut KeyState, at_result: u64) -> Option<Alert> {
        let verdicts = ks.window.coverage_verdicts();
        let coverage = ks.window.coverage()?;
        if verdicts < self.cfg.min_window_for_alert as u64 {
            return None;
        }
        if coverage < self.cfg.coverage_alert_below {
            if ks.armed {
                ks.armed = false;
                return Some(Alert {
                    key: key.to_string(),
                    coverage,
                    threshold: self.cfg.coverage_alert_below,
                    window_len: verdicts,
                    at_result,
                });
            }
        } else {
            ks.armed = true;
        }
        None
    }

    /// A deterministic snapshot of everything the auditor knows:
    /// per-key and overall coverage, error ratios, confusion cells, and
    /// the alert history. Contains no timing data, so a seeded run
    /// renders bit-identically on repeat.
    pub fn report(&self) -> AuditReport {
        let st = self.lock();
        let summarize = |name: &str, ks: &KeyState| KeySummary {
            key: name.to_string(),
            scored: ks.cum.scored,
            coverage: ks.cum.coverage(),
            window_coverage: ks.window.coverage(),
            mean_error_ratio: ks.cum.mean_error_ratio(),
            confusion: ks.cum.confusion,
        };
        AuditReport {
            considered: st.considered,
            audited: st.audited,
            overall: summarize("ALL", &st.overall),
            keys: st
                .per_key
                .iter()
                .map(|(k, ks)| summarize(&k.to_string(), ks))
                .collect(),
            alerts: st.alerts.clone(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        // Poisoning only means a panic elsewhere mid-update; the maps
        // remain structurally sound.
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }
}

/// Per-key summary inside an [`AuditReport`].
#[derive(Debug, Clone)]
pub struct KeySummary {
    /// `"ALL"` or `agg:family`.
    pub key: String,
    /// Cumulative scored results.
    pub scored: u64,
    /// Cumulative CI coverage rate.
    pub coverage: Option<f64>,
    /// Coverage over the current sliding window.
    pub window_coverage: Option<f64>,
    /// Cumulative mean `|error| / half_width` ratio.
    pub mean_error_ratio: Option<f64>,
    /// Cumulative confusion cells.
    pub confusion: ConfusionCounts,
}

/// Snapshot of the auditor's scorekeeping (see [`Auditor::report`]).
#[derive(Debug, Clone)]
pub struct AuditReport {
    /// Approximate queries considered for sampling.
    pub considered: u64,
    /// Queries actually audited.
    pub audited: u64,
    /// Overall summary across every key.
    pub overall: KeySummary,
    /// Per `agg:family` summaries, key-sorted.
    pub keys: Vec<KeySummary>,
    /// Every alert fired, in firing order.
    pub alerts: Vec<Alert>,
}

impl AuditReport {
    /// Render the coverage/confusion table plus alert history.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "audit: considered={} audited={} scored={}\n",
            self.considered, self.audited, self.overall.scored
        ));
        let width = self
            .keys
            .iter()
            .map(|k| k.key.len())
            .chain(std::iter::once(3))
            .max()
            .unwrap_or(3)
            .max(3);
        out.push_str(&format!(
            "{:<width$}  {:>6}  {:>8}  {:>8}  {:>9}  {:>5} {:>5} {:>5} {:>5}\n",
            "key", "n", "coverage", "window", "err-ratio", "TA", "TR", "FP", "FN"
        ));
        let fmt_opt = |v: Option<f64>| match v {
            Some(v) => format!("{v:.3}"),
            None => "-".to_string(),
        };
        for k in std::iter::once(&self.overall).chain(self.keys.iter()) {
            out.push_str(&format!(
                "{:<width$}  {:>6}  {:>8}  {:>8}  {:>9}  {:>5} {:>5} {:>5} {:>5}\n",
                k.key,
                k.scored,
                fmt_opt(k.coverage),
                fmt_opt(k.window_coverage),
                fmt_opt(k.mean_error_ratio),
                k.confusion.true_accepts,
                k.confusion.true_rejects,
                k.confusion.false_positives,
                k.confusion.false_negatives,
            ));
        }
        if self.alerts.is_empty() {
            out.push_str("alerts: none\n");
        } else {
            out.push_str(&format!("alerts ({}):\n", self.alerts.len()));
            for a in &self.alerts {
                out.push_str(&format!("  {a}\n"));
            }
        }
        out
    }
}

fn outcome_str(o: aqp_diagnostics::DiagnosticOutcome) -> &'static str {
    match o {
        aqp_diagnostics::DiagnosticOutcome::TrueAccept => "true_accept",
        aqp_diagnostics::DiagnosticOutcome::TrueReject => "true_reject",
        aqp_diagnostics::DiagnosticOutcome::FalsePositive => "false_positive",
        aqp_diagnostics::DiagnosticOutcome::FalseNegative => "false_negative",
    }
}

/// One JSONL line per scored result.
fn audit_line(audit: &QueryAudit<'_>, a: &AuditedAggregate<'_>, s: &AuditScore) -> String {
    use aqp_obs::json::{push_f64, push_str_lit};
    let mut out = String::new();
    out.push_str("{\"type\":\"audit\",\"query\":");
    out.push_str(&audit.ordinal.to_string());
    out.push_str(",\"sql\":");
    push_str_lit(&mut out, audit.sql);
    out.push_str(",\"agg\":");
    push_str_lit(&mut out, a.agg);
    out.push_str(",\"column\":");
    push_str_lit(&mut out, a.column);
    out.push_str(",\"family\":");
    push_str_lit(&mut out, a.family);
    out.push_str(",\"estimate\":");
    push_f64(&mut out, a.estimate);
    if let Some(ci) = &a.ci {
        out.push_str(",\"ci_lo\":");
        push_f64(&mut out, ci.lo());
        out.push_str(",\"ci_hi\":");
        push_f64(&mut out, ci.hi());
        out.push_str(",\"confidence\":");
        push_f64(&mut out, ci.confidence);
    }
    out.push_str(",\"truth\":");
    push_f64(&mut out, a.truth);
    out.push_str(",\"covered\":");
    match s.covered {
        Some(c) => out.push_str(if c { "true" } else { "false" }),
        None => out.push_str("null"),
    }
    out.push_str(",\"rel_error\":");
    match s.rel_error {
        Some(v) => push_f64(&mut out, v),
        None => out.push_str("null"),
    }
    out.push_str(",\"error_ratio\":");
    match s.error_ratio {
        Some(v) => push_f64(&mut out, v),
        None => out.push_str("null"),
    }
    out.push_str(",\"diag_accepted\":");
    match a.diagnostic_accepted {
        Some(d) => out.push_str(if d { "true" } else { "false" }),
        None => out.push_str("null"),
    }
    out.push_str(",\"outcome\":");
    match s.outcome {
        Some(o) => push_str_lit(&mut out, outcome_str(o)),
        None => out.push_str("null"),
    }
    out.push_str(",\"replay_ms\":");
    push_f64(&mut out, audit.replay_ms);
    out.push('}');
    out
}

/// One JSONL line per fired alert.
fn alert_line(a: &Alert) -> String {
    use aqp_obs::json::{push_f64, push_str_lit};
    let mut out = String::new();
    out.push_str("{\"type\":\"audit_alert\",\"key\":");
    push_str_lit(&mut out, &a.key);
    out.push_str(",\"coverage\":");
    push_f64(&mut out, a.coverage);
    out.push_str(",\"threshold\":");
    push_f64(&mut out, a.threshold);
    out.push_str(&format!(
        ",\"window\":{},\"at_result\":{}}}",
        a.window_len, a.at_result
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqp_obs::Clock;
    use aqp_stats::ci::Ci;

    fn obs() -> ObsHandle {
        ObsHandle::isolated(Clock::mock())
    }

    fn agg<'a>(
        name: &'a str,
        family: &'a str,
        estimate: f64,
        hw: f64,
        accepted: bool,
        truth: f64,
    ) -> AuditedAggregate<'a> {
        AuditedAggregate {
            agg: name,
            column: "x",
            family,
            estimate,
            ci: Some(Ci::new(estimate, hw, 0.95)),
            diagnostic_accepted: Some(accepted),
            truth,
        }
    }

    /// Score `aggs` as the session does and ingest them as query `ordinal`.
    fn ingest(
        a: &Auditor,
        ordinal: u64,
        sql: &str,
        replay_ms: f64,
        aggs: Vec<AuditedAggregate<'_>>,
    ) -> Vec<Alert> {
        let scores: Vec<_> = aggs.iter().map(crate::score).collect();
        let scored: Vec<_> = aggs.into_iter().zip(scores).collect();
        a.ingest(QueryAudit { ordinal, sql, replay_ms, scored: &scored })
    }

    fn cfg() -> AuditConfig {
        AuditConfig {
            sample_rate: 1.0,
            window: 10,
            min_window_for_alert: 4,
            coverage_alert_below: 0.9,
            ..Default::default()
        }
    }

    #[test]
    fn sampling_counts_and_metrics() {
        let o = obs();
        let a = Auditor::new(AuditConfig { sample_rate: 1.0, ..Default::default() }, &o);
        assert_eq!(a.should_audit(), Some(0));
        assert_eq!(a.should_audit(), Some(1));
        let snap = o.metrics.snapshot();
        assert_eq!(snap.counter(name::AUDIT_CONSIDERED), Some(2));
        assert_eq!(snap.counter(name::AUDIT_AUDITED), Some(2));
    }

    #[test]
    fn ingest_scores_and_alerts_on_sustained_misses() {
        let o = obs();
        let a = Auditor::new(cfg(), &o);
        // 5 misses in a row: alert must fire once min_window (4) is met,
        // and only once while it stays below threshold.
        let mut fired = Vec::new();
        for i in 0..5 {
            let ord = a.should_audit().unwrap();
            let aggs = vec![agg("MAX", "pareto", 10.0, 0.5, true, 20.0)];
            fired.extend(ingest(&a, ord, &format!("q{i}"), 1.0, aggs));
        }
        assert_eq!(fired.len(), 2, "{fired:?}"); // ALL + MAX:pareto, once each
        assert!(fired.iter().any(|al| al.key == "ALL"));
        assert!(fired.iter().any(|al| al.key == "MAX:pareto"));
        let snap = o.metrics.snapshot();
        assert_eq!(snap.counter(name::AUDIT_COVERAGE_MISSES), Some(5));
        assert_eq!(snap.counter(name::AUDIT_ALERTS_FIRED), Some(2));
        assert_eq!(snap.counter(name::AUDIT_FALSE_POSITIVES), Some(5));
        let rep = a.report();
        assert_eq!(rep.overall.coverage, Some(0.0));
        assert_eq!(rep.alerts.len(), 2);
        assert!(rep.render_table().contains("MAX:pareto"));
    }

    #[test]
    fn alert_rearms_after_recovery() {
        let o = obs();
        let mut c = cfg();
        c.window = 4; // small window so coverage can recover
        let a = Auditor::new(c, &o);
        let push = |covered: bool| {
            let ord = a.should_audit().unwrap();
            let truth = if covered { 10.2 } else { 30.0 };
            ingest(&a, ord, "q", 0.1, vec![agg("AVG", "normal", 10.0, 1.0, true, truth)])
        };
        let mut total = 0;
        for _ in 0..4 {
            total += push(false).len();
        }
        assert!(total >= 1);
        let before = total;
        // Recover: window fills with hits, latch re-arms.
        for _ in 0..4 {
            total += push(true).len();
        }
        assert_eq!(total, before, "no alerts while healthy");
        // Degrade again: a second crossing fires again.
        for _ in 0..4 {
            total += push(false).len();
        }
        assert!(total > before);
    }

    #[test]
    fn report_is_deterministic_and_timing_free() {
        let build = || {
            let o = obs();
            let a = Auditor::new(cfg(), &o);
            for i in 0..6 {
                let ord = a.should_audit().unwrap();
                // replay_ms varies run to run in production; the
                // report must not depend on it.
                let aggs = vec![agg("AVG", "lognormal", 5.0, 1.0, true, 5.1 + i as f64 * 0.01)];
                ingest(&a, ord, &format!("q{i}"), i as f64 * 17.3, aggs);
            }
            a.report().render_table()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn audit_log_lines_escape_and_rotate() {
        let dir = std::env::temp_dir().join(format!("aqp-audit-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("audit.jsonl");
        let _ = std::fs::remove_file(&path);
        let o = obs();
        let mut c = cfg();
        c.log = Some(crate::AuditLogConfig { path: path.clone(), max_bytes: 1 << 20, max_rotations: 1 });
        let a = Auditor::new(c, &o);
        let ord = a.should_audit().unwrap();
        let sql = "SELECT \"weird\\name\"\n\tFROM t";
        ingest(&a, ord, sql, 0.5, vec![agg("AVG", "normal", 1.0, 0.5, true, 1.1)]);
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.contains("\\\"weird\\\\name\\\"\\n\\tFROM"), "{body}");
        assert!(body.contains("\"outcome\":\"true_accept\""));
        assert_eq!(o.metrics.snapshot().counter(name::AUDIT_LOG_ERRORS), Some(0));
    }

    #[test]
    fn unwritable_log_disables_itself_without_failing_queries() {
        let o = obs();
        let mut c = cfg();
        c.log = Some(crate::AuditLogConfig::at("/nonexistent-dir/audit.jsonl"));
        let a = Auditor::new(c, &o);
        let ord = a.should_audit().unwrap();
        let alerts = ingest(&a, ord, "q", 0.1, vec![agg("AVG", "normal", 1.0, 0.5, true, 1.1)]);
        assert!(alerts.is_empty());
        assert_eq!(o.metrics.snapshot().counter(name::AUDIT_LOG_ERRORS), Some(1));
        // Subsequent ingests do not retry (one error counted).
        let ord = a.should_audit().unwrap();
        ingest(&a, ord, "q", 0.1, vec![]);
        assert_eq!(o.metrics.snapshot().counter(name::AUDIT_LOG_ERRORS), Some(1));
    }
}
