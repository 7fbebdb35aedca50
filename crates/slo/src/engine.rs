//! The SLO engine: multi-window burn-rate evaluation over good/bad
//! event streams, error-budget accounting and hysteresis-latched alerts.
//!
//! Objectives are reduced to event streams: a latency objective turns
//! every query into a good/bad event (bad = over the threshold), a
//! coverage objective turns every audited group-aggregate into one
//! (bad = CI miss). With allowance `a = 1 − target`, the burn rate
//! over a window is `bad_fraction / a` — 1.0 means the error budget is
//! being spent exactly at the sustainable rate. Alerts follow the
//! multiwindow multi-burn-rate recipe: page when *both* fast windows
//! (5m and 1h) burn above the page threshold, warn when both slow
//! windows (6h and 3d) burn above the warn threshold, each latched
//! with a re-arm hysteresis so one sustained episode fires once.
//!
//! Everything is timestamped by the session's `aqp_obs::Clock`; under
//! the mock clock the full alert sequence is a pure function of
//! (seed, event sequence).
//!
//! The windows and thresholds are constants: they are the recipe's, no
//! caller has ever set another, and the SLO goldens pin them.

use std::collections::VecDeque;
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

use aqp_audit::AuditScore;
use aqp_obs::json::{push_f64, push_str_lit};
use aqp_obs::{name, Counter, LazySink, ObsHandle, Timestamp};

use crate::config::{Objective, ObjectiveKind, SloConfig};

const NS_PER_S: u64 = 1_000_000_000;
/// Short window of the fast (page) pair: 5 minutes.
const FAST_SHORT_NS: u64 = 5 * 60 * NS_PER_S;
/// Long window of the fast (page) pair: 1 hour.
const FAST_LONG_NS: u64 = 60 * 60 * NS_PER_S;
/// Short window of the slow (warn) pair: 6 hours.
const SLOW_SHORT_NS: u64 = 6 * 60 * 60 * NS_PER_S;
/// Long window of the slow (warn) pair, also the error-budget accounting
/// period: 3 days.
const SLOW_LONG_NS: u64 = 3 * 24 * 60 * 60 * NS_PER_S;
/// Granularity of the good/bad event buckets: 1 minute.
const BUCKET_NS: u64 = 60 * NS_PER_S;
/// Page when `min(burn_5m, burn_1h)` is at or above this (~14× too fast).
const PAGE_BURN: f64 = 14.4;
/// Warn when `min(burn_6h, burn_3d)` is at or above this.
const WARN_BURN: f64 = 6.0;
/// Re-arm a latched alert once the pair burn drops below this.
const CLEAR_BELOW: f64 = 1.0;
/// Events required in the 1h window before alerts may latch: burn rates
/// over a near-empty window are meaningless.
const MIN_EVENTS: u64 = 20;

/// Alert severity, by window pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// The fast (5m/1h) pair burned above the page threshold.
    Page,
    /// The slow (6h/3d) pair burned above the warn threshold.
    Warn,
}

impl Severity {
    /// Stable lowercase name for logs and dashboards.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Page => "page",
            Severity::Warn => "warn",
        }
    }
}

/// One latched burn-rate alert.
#[derive(Debug, Clone)]
pub struct SloAlert {
    /// Severity (which window pair latched).
    pub severity: Severity,
    /// Objective id, e.g. `interactive/latency_p95_le_40ms`.
    pub objective: String,
    /// Workload class of the objective.
    pub class: String,
    /// Burn rate over the pair's short window at latch time.
    pub burn_short: f64,
    /// Burn rate over the pair's long window at latch time.
    pub burn_long: f64,
    /// The threshold the pair crossed.
    pub threshold: f64,
    /// Remaining error-budget fraction over the 3d accounting window.
    pub budget_remaining: f64,
    /// 1-based SLO event ordinal (across all objectives) at latch time.
    pub at_event: u64,
}

impl std::fmt::Display for SloAlert {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} {}: burn {:.1}/{:.1} >= {:.1}, budget {:.0}% at event {}",
            self.severity.as_str().to_uppercase(),
            self.objective,
            self.burn_short,
            self.burn_long,
            self.threshold,
            self.budget_remaining * 100.0,
            self.at_event
        )
    }
}

/// One time bucket of good/bad event counts.
#[derive(Debug, Clone)]
struct Bucket {
    start_ns: u64,
    good: u64,
    bad: u64,
}

/// Live state of one objective.
#[derive(Debug)]
struct ObjectiveState {
    objective: Objective,
    id: String,
    allowance: f64,
    buckets: VecDeque<Bucket>,
    events: u64,
    bad: u64,
    page_armed: bool,
    warn_armed: bool,
    burn_fast: f64,
    burn_slow: f64,
    budget_remaining: f64,
}

impl ObjectiveState {
    fn new(objective: Objective) -> Self {
        let id = objective.id();
        let allowance = objective.allowance();
        ObjectiveState {
            objective,
            id,
            allowance,
            buckets: VecDeque::new(),
            events: 0,
            bad: 0,
            page_armed: true,
            warn_armed: true,
            burn_fast: 0.0,
            burn_slow: 0.0,
            budget_remaining: 1.0,
        }
    }

    /// Record one event into the bucket for `now_ns`, evicting buckets
    /// that fell out of the 3-day retention horizon.
    fn record(&mut self, bad: bool, now_ns: u64) {
        self.events += 1;
        if bad {
            self.bad += 1;
        }
        let start_ns = now_ns - now_ns % BUCKET_NS;
        match self.buckets.back_mut() {
            Some(b) if b.start_ns == start_ns => {
                if bad {
                    b.bad += 1;
                } else {
                    b.good += 1;
                }
            }
            _ => self.buckets.push_back(Bucket {
                start_ns,
                good: u64::from(!bad),
                bad: u64::from(bad),
            }),
        }
        let horizon = now_ns.saturating_sub(SLOW_LONG_NS);
        while let Some(front) = self.buckets.front() {
            if front.start_ns.saturating_add(BUCKET_NS) <= horizon {
                self.buckets.pop_front();
            } else {
                break;
            }
        }
    }

    /// `(bad, total)` event counts over the trailing `window_ns`.
    fn window_counts(&self, now_ns: u64, window_ns: u64) -> (u64, u64) {
        let horizon = now_ns.saturating_sub(window_ns);
        let mut bad = 0;
        let mut total = 0;
        for b in self.buckets.iter().rev() {
            if b.start_ns.saturating_add(BUCKET_NS) <= horizon {
                break;
            }
            bad += b.bad;
            total += b.good + b.bad;
        }
        (bad, total)
    }

    /// Burn rate over the trailing `window_ns`: `bad_fraction /
    /// allowance`, 0 when the window is empty.
    fn burn(&self, now_ns: u64, window_ns: u64) -> f64 {
        let (bad, total) = self.window_counts(now_ns, window_ns);
        if total == 0 {
            0.0
        } else {
            (bad as f64 / total as f64) / self.allowance
        }
    }
}

/// Meter handles registered once at construction.
#[derive(Debug)]
struct Meters {
    events: Counter,
    bad: Counter,
    page_alerts: Counter,
    warn_alerts: Counter,
}

/// State behind the engine lock.
#[derive(Debug)]
struct State {
    events: u64,
    objectives: Vec<ObjectiveState>,
    alerts: Vec<SloAlert>,
    sink: LazySink,
}

/// The fleet-level SLO engine. Thread-safe; the session calls it
/// inline after each query and each audit ingest.
#[derive(Debug)]
pub struct SloEngine {
    cfg: SloConfig,
    meters: Meters,
    state: Mutex<State>,
}

impl SloEngine {
    /// Build an engine from `cfg`, registering its meters on `obs`.
    pub fn new(cfg: SloConfig, obs: &ObsHandle) -> Self {
        let metrics = &obs.metrics;
        let sink = LazySink::new(cfg.log.clone(), metrics, name::SLO_LOG_ERRORS);
        let objectives = cfg.objectives.iter().cloned().map(ObjectiveState::new).collect();
        SloEngine {
            meters: Meters {
                events: metrics.counter(name::SLO_EVENTS),
                bad: metrics.counter(name::SLO_EVENTS_BAD),
                page_alerts: metrics.counter(name::SLO_PAGE_ALERTS),
                warn_alerts: metrics.counter(name::SLO_WARN_ALERTS),
            },
            state: Mutex::new(State {
                events: 0,
                objectives,
                alerts: Vec::new(),
                sink,
            }),
            cfg,
        }
    }

    /// The workload class of `sql` under this engine's class rules.
    pub fn classify<'a>(&'a self, sql: &str) -> &'a str {
        self.cfg.classify(sql)
    }

    /// The engine lock, recovering from poisoning: a panic elsewhere
    /// mid-update leaves the buckets structurally sound.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Observe one completed query's latency for every latency
    /// objective of `class`. Returns the alerts latched by this event.
    pub fn observe_latency(&self, class: &str, latency: Duration, now: Timestamp) -> Vec<SloAlert> {
        let ms = latency.as_secs_f64() * 1e3;
        let mut st = self.lock();
        let mut fired = Vec::new();
        let events: Vec<(usize, bool)> = st
            .objectives
            .iter()
            .enumerate()
            .filter_map(|(idx, o)| match o.objective.kind {
                ObjectiveKind::Latency { threshold_ms, .. } if o.objective.class == class => {
                    Some((idx, ms > threshold_ms))
                }
                _ => None,
            })
            .collect();
        for (idx, bad) in events {
            fired.extend(self.observe_event(&mut st, idx, bad, now));
        }
        st.sink.flush();
        fired
    }

    /// Observe one audited query's per-aggregate scores for every
    /// coverage objective of `class`: each score with a coverage verdict
    /// is one event, bad on a miss. Returns the alerts latched by them.
    pub fn observe_audit(
        &self,
        class: &str,
        scores: impl IntoIterator<Item = AuditScore>,
        now: Timestamp,
    ) -> Vec<SloAlert> {
        let mut st = self.lock();
        let mut fired = Vec::new();
        let coverage_idxs: Vec<usize> = st
            .objectives
            .iter()
            .enumerate()
            .filter(|(_, o)| {
                o.objective.class == class
                    && matches!(o.objective.kind, ObjectiveKind::Coverage { .. })
            })
            .map(|(idx, _)| idx)
            .collect();
        for covered in scores.into_iter().filter_map(|s| s.covered) {
            for &idx in &coverage_idxs {
                fired.extend(self.observe_event(&mut st, idx, !covered, now));
            }
        }
        st.sink.flush();
        fired
    }

    /// Record one good/bad event for objective `idx` and evaluate its
    /// burn rates, latches, and budget.
    fn observe_event(&self, st: &mut State, idx: usize, bad: bool, now: Timestamp) -> Vec<SloAlert> {
        st.events += 1;
        let at_event = st.events;
        self.meters.events.inc();
        if bad {
            self.meters.bad.inc();
        }
        let now_ns = now.nanos();
        let mut fired = Vec::new();
        let Some(o) = st.objectives.get_mut(idx) else {
            return fired;
        };
        o.record(bad, now_ns);
        let fast_short = o.burn(now_ns, FAST_SHORT_NS);
        let fast_long = o.burn(now_ns, FAST_LONG_NS);
        let slow_short = o.burn(now_ns, SLOW_SHORT_NS);
        let slow_long = o.burn(now_ns, SLOW_LONG_NS);
        o.burn_fast = fast_short.min(fast_long);
        o.burn_slow = slow_short.min(slow_long);
        o.budget_remaining = (1.0 - slow_long).max(0.0);
        let (_, eligible) = o.window_counts(now_ns, FAST_LONG_NS);
        let enough = eligible >= MIN_EVENTS;
        if enough && o.burn_fast >= PAGE_BURN {
            if o.page_armed {
                o.page_armed = false;
                fired.push(SloAlert {
                    severity: Severity::Page,
                    objective: o.id.clone(),
                    class: o.objective.class.clone(),
                    burn_short: fast_short,
                    burn_long: fast_long,
                    threshold: PAGE_BURN,
                    budget_remaining: o.budget_remaining,
                    at_event,
                });
            }
        } else if o.burn_fast < CLEAR_BELOW {
            o.page_armed = true;
        }
        if enough && o.burn_slow >= WARN_BURN {
            if o.warn_armed {
                o.warn_armed = false;
                fired.push(SloAlert {
                    severity: Severity::Warn,
                    objective: o.id.clone(),
                    class: o.objective.class.clone(),
                    burn_short: slow_short,
                    burn_long: slow_long,
                    threshold: WARN_BURN,
                    budget_remaining: o.budget_remaining,
                    at_event,
                });
            }
        } else if o.burn_slow < CLEAR_BELOW {
            o.warn_armed = true;
        }
        for alert in &fired {
            match alert.severity {
                Severity::Page => self.meters.page_alerts.inc(),
                Severity::Warn => self.meters.warn_alerts.inc(),
            }
            st.sink.write_line(|| alert_line(alert));
        }
        st.alerts.extend(fired.iter().cloned());
        fired
    }

    /// A deterministic snapshot of everything the engine knows:
    /// per-objective burns/budgets/latches and the alert history. Contains no wall-clock data beyond what the
    /// (mockable) session clock produced, so a seeded run renders
    /// bit-identically on repeat.
    pub fn report(&self) -> SloReport {
        let st = self.lock();
        SloReport {
            events: st.events,
            objectives: st
                .objectives
                .iter()
                .map(|o| ObjectiveStatus {
                    id: o.id.clone(),
                    class: o.objective.class.clone(),
                    events: o.events,
                    bad: o.bad,
                    burn_fast: o.burn_fast,
                    burn_slow: o.burn_slow,
                    budget_remaining: o.budget_remaining,
                    page_latched: !o.page_armed,
                    warn_latched: !o.warn_armed,
                })
                .collect(),
            alerts: st.alerts.clone(),
        }
    }
}

/// Per-objective summary inside an [`SloReport`].
#[derive(Debug, Clone)]
pub struct ObjectiveStatus {
    /// Objective id.
    pub id: String,
    /// Workload class.
    pub class: String,
    /// Events observed for this objective.
    pub events: u64,
    /// Events that consumed budget.
    pub bad: u64,
    /// `min(burn_5m, burn_1h)` at the last observation.
    pub burn_fast: f64,
    /// `min(burn_6h, burn_3d)` at the last observation.
    pub burn_slow: f64,
    /// Remaining budget fraction over the 3d window, floored at 0.
    pub budget_remaining: f64,
    /// Whether the page latch is currently held.
    pub page_latched: bool,
    /// Whether the warn latch is currently held.
    pub warn_latched: bool,
}

/// Snapshot of the engine's scorekeeping (see [`SloEngine::report`]).
#[derive(Debug, Clone)]
pub struct SloReport {
    /// SLO events observed across all objectives.
    pub events: u64,
    /// Per-objective status, in declaration order.
    pub objectives: Vec<ObjectiveStatus>,
    /// Every alert latched, in firing order.
    pub alerts: Vec<SloAlert>,
}

impl SloReport {
    /// Render the burn/budget table and the alert history.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "slo: events={} objectives={}\n",
            self.events,
            self.objectives.len()
        ));
        let width = self
            .objectives
            .iter()
            .map(|o| o.id.len())
            .chain(std::iter::once("objective".len()))
            .max()
            .unwrap_or(9);
        out.push_str(&format!(
            "{:<width$}  {:>6}  {:>6}  {:>10}  {:>10}  {:>6}  {:>7}\n",
            "objective", "n", "bad", "burn(fast)", "burn(slow)", "budget", "latched"
        ));
        for o in &self.objectives {
            let latched = match (o.page_latched, o.warn_latched) {
                (true, true) => "P+W",
                (true, false) => "P",
                (false, true) => "W",
                (false, false) => "-",
            };
            out.push_str(&format!(
                "{:<width$}  {:>6}  {:>6}  {:>10.2}  {:>10.2}  {:>5.0}%  {:>7}\n",
                o.id,
                o.events,
                o.bad,
                o.burn_fast,
                o.burn_slow,
                o.budget_remaining * 100.0,
                latched
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

/// The JSONL record of one latched alert.
fn alert_line(a: &SloAlert) -> String {
    let mut out = String::from("{\"slo_alert\":{\"severity\":");
    push_str_lit(&mut out, a.severity.as_str());
    out.push_str(",\"objective\":");
    push_str_lit(&mut out, &a.objective);
    out.push_str(",\"class\":");
    push_str_lit(&mut out, &a.class);
    out.push_str(",\"burn_short\":");
    push_f64(&mut out, a.burn_short);
    out.push_str(",\"burn_long\":");
    push_f64(&mut out, a.burn_long);
    out.push_str(",\"threshold\":");
    push_f64(&mut out, a.threshold);
    out.push_str(",\"budget_remaining\":");
    push_f64(&mut out, a.budget_remaining);
    out.push_str(",\"at_event\":");
    out.push_str(&a.at_event.to_string());
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqp_obs::Clock;

    fn obs() -> ObsHandle {
        ObsHandle::isolated(Clock::mock())
    }

    fn cfg() -> SloConfig {
        SloConfig::new().with_latency(SloConfig::DEFAULT_CLASS, 0.95, 10.0)
    }

    fn ts(secs: u64) -> Timestamp {
        Timestamp::from_nanos(secs * 1_000_000_000)
    }

    #[test]
    fn healthy_stream_never_alerts_and_keeps_full_budget() {
        let obs = obs();
        let engine = SloEngine::new(cfg(), &obs);
        for i in 0..200 {
            let fired =
                engine.observe_latency("default", Duration::from_millis(5), ts(i));
            assert!(fired.is_empty(), "alert on a healthy stream at {i}");
        }
        let report = engine.report();
        assert_eq!(report.events, 200);
        assert_eq!(report.objectives[0].bad, 0);
        assert!((report.objectives[0].budget_remaining - 1.0).abs() < 1e-12);
        assert!(report.alerts.is_empty());
        let snap = obs.metrics.snapshot();
        assert_eq!(snap.counter(name::SLO_EVENTS), Some(200));
        assert_eq!(snap.counter(name::SLO_EVENTS_BAD), Some(0));
    }

    #[test]
    fn sustained_burn_pages_once_then_rearms_after_recovery() {
        let obs = obs();
        let engine = SloEngine::new(cfg(), &obs);
        // Warm up with good events, then a fully-bad episode: the bad
        // fraction climbs past 0.72, i.e. burn ≥ 14.4 at 5% allowance.
        let mut pages = 0;
        for i in 0..20 {
            pages += engine
                .observe_latency("default", Duration::from_millis(5), ts(i))
                .len();
        }
        for i in 20..140 {
            let fired = engine.observe_latency("default", Duration::from_millis(50), ts(i));
            pages += fired.iter().filter(|a| a.severity == Severity::Page).count();
        }
        assert_eq!(pages, 1, "a sustained episode must latch exactly one page");
        assert!(engine.report().objectives[0].page_latched);
        // Recovery: events far enough in the future that the bad
        // episode leaves every window → burn drops to 0 → re-arm.
        let far = 8 * 24 * 3600;
        for i in 0..10 {
            engine.observe_latency("default", Duration::from_millis(5), ts(far + i));
        }
        assert!(!engine.report().objectives[0].page_latched, "latch must re-arm");
        // A second episode fires a second page.
        let fired: usize = (0..60)
            .map(|i| {
                engine
                    .observe_latency("default", Duration::from_millis(50), ts(far + 10 + i))
                    .len()
            })
            .sum();
        assert!(fired >= 1, "second episode must page again");
        let snap = obs.metrics.snapshot();
        assert!(snap.counter(name::SLO_PAGE_ALERTS).unwrap_or(0) >= 2);
    }

    #[test]
    fn min_events_guard_suppresses_noisy_early_alerts() {
        let obs = obs();
        let engine = SloEngine::new(cfg(), &obs);
        // A handful of bad events right away: burn is 20 but the fast
        // window holds fewer than min_events events.
        for i in 0..10 {
            let fired = engine.observe_latency("default", Duration::from_millis(50), ts(i));
            assert!(fired.is_empty(), "alert with only {} events", i + 1);
        }
    }

    #[test]
    fn coverage_objective_consumes_budget_on_misses() {
        let obs = obs();
        let engine =
            SloEngine::new(SloConfig::new().with_coverage("default", 0.9), &obs);
        let hit = AuditScore {
            covered: Some(true),
            rel_error: Some(0.01),
            error_ratio: Some(0.5),
            outcome: None,
        };
        let miss = AuditScore {
            covered: Some(false),
            rel_error: Some(0.5),
            error_ratio: Some(3.0),
            outcome: None,
        };
        for i in 0..30 {
            engine.observe_audit("default", [hit], ts(i));
        }
        let before = engine.report().objectives[0].budget_remaining;
        for i in 30..60 {
            engine.observe_audit("default", [miss], ts(i));
        }
        let report = engine.report();
        let after = report.objectives[0].budget_remaining;
        assert!(after < before, "misses must consume budget ({before} -> {after})");
        assert_eq!(report.objectives[0].bad, 30);
        // A score without a coverage verdict is no event.
        engine.observe_audit("default", [AuditScore { covered: None, ..miss }], ts(60));
        assert_eq!(engine.report().objectives[0].events, 60);
    }

    #[test]
    fn alert_sequence_and_report_are_deterministic() {
        let run = || {
            let obs = obs();
            let engine = SloEngine::new(
                cfg().with_coverage(SloConfig::DEFAULT_CLASS, 0.9),
                &obs,
            );
            for i in 0..150u64 {
                let lat = if i % 3 == 0 { 50 } else { 5 };
                engine.observe_latency("default", Duration::from_millis(lat), ts(i));
                let covered = i % 4 != 0;
                engine.observe_audit(
                    "default",
                    [AuditScore {
                        covered: Some(covered),
                        rel_error: Some(if covered { 0.02 } else { 0.4 }),
                        error_ratio: None,
                        outcome: None,
                    }],
                    ts(i),
                );
            }
            engine.report().render_table()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn alerts_reach_the_jsonl_log() {
        let dir = std::env::temp_dir().join("aqp_slo_engine_log_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create log dir");
        let path = dir.join("slo.jsonl");
        let obs = obs();
        let engine = SloEngine::new(
            cfg().with_log(crate::SloLogConfig::at(&path)),
            &obs,
        );
        for i in 0..80 {
            engine.observe_latency("default", Duration::from_millis(50), ts(i));
        }
        let log = std::fs::read_to_string(&path).expect("slo log");
        assert!(log.contains("\"slo_alert\""), "{log}");
        assert!(log.contains("\"severity\":\"page\""), "{log}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unwritable_log_disables_itself_and_counts_errors() {
        let obs = obs();
        let engine = SloEngine::new(
            cfg().with_log(crate::SloLogConfig::at("/dev/null/nope/slo.jsonl")),
            &obs,
        );
        for i in 0..80 {
            engine.observe_latency("default", Duration::from_millis(50), ts(i));
        }
        let snap = obs.metrics.snapshot();
        assert_eq!(snap.counter(name::SLO_LOG_ERRORS), Some(1));
        assert!(snap.counter(name::SLO_PAGE_ALERTS).unwrap_or(0) >= 1);
    }

    #[test]
    fn classes_route_events_to_their_own_objectives() {
        let obs = obs();
        let engine = SloEngine::new(
            SloConfig::new()
                .with_class("interactive", "AVG(")
                .with_latency("interactive", 0.95, 10.0)
                .with_latency(SloConfig::DEFAULT_CLASS, 0.95, 100.0),
            &obs,
        );
        let class = engine.classify("SELECT AVG(time) FROM sessions");
        assert_eq!(class, "interactive");
        for i in 0..30 {
            engine.observe_latency(class, Duration::from_millis(50), ts(i));
        }
        let report = engine.report();
        let interactive = &report.objectives[0];
        let default = &report.objectives[1];
        assert_eq!(interactive.events, 30);
        assert_eq!(interactive.bad, 30, "50ms > 10ms threshold");
        assert_eq!(default.events, 0, "default class saw nothing");
    }
}
