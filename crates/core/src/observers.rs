//! The observer seam: who hears about a query, in what order, and what
//! they hand each other.
//!
//! A session has four optional observers — the accuracy auditor, the SLO
//! engine with its flight recorder, the continuous profiler and the
//! introspection pipeline — each built from its `SessionConfig` field or
//! not at all. [`AqpSession`](crate::AqpSession) drives them through four
//! calls and never looks inside:
//!
//! * [`before`](Observers::before) a query runs, so a `_telemetry.*`
//!   query reads tables synced to the latest fold;
//! * [`finished`](Observers::finished) with the answer and its wall time:
//!   profiler → SLO latency objectives (alerts dump the recorder) →
//!   introspection fold, which receives those alerts;
//! * [`wants_audit`](Observers::wants_audit) then
//!   [`audited`](Observers::audited) around a full-data replay: the seam
//!   pairs each served result with its truth and scores it once, and lends
//!   that one slice to introspection, the auditor and the SLO engine, which
//!   only fold it; the auditor's alerts go on to the SLO engine, every
//!   alert to the recorder and to introspection;
//! * [`degraded_fallback`](Observers::degraded_fallback) when injected
//!   faults force an exact answer.
//!
//! It is a struct and not a trait: there are exactly four observers, in a
//! fixed order, and data flows between them (audit → SLO → recorder →
//! introspect), so an interface would need a type to carry that flow and
//! would have one implementation.

use std::time::Duration;

use aqp_audit::{AuditReport, AuditedAggregate, Auditor, QueryAudit};
use aqp_exec::result::GroupResult;
use aqp_introspect::{AlertRow, Introspector, QueryRecord};
use aqp_obs::{name, FlightRecorder, ObsHandle, Timestamp};
use aqp_prof::contprof::{ContProfConfig, CumulativeProfile};
use aqp_slo::{SloAlert, SloEngine, SloReport};
use aqp_storage::Catalog;
use parking_lot::Mutex;

use crate::answer::AqpAnswer;
use crate::session::SessionConfig;
use crate::Result;

/// The burn-rate engine plus the always-on flight recorder.
struct SloRuntime {
    engine: SloEngine,
    recorder: FlightRecorder,
}

/// The class-routing config plus the fleet-cumulative profile every
/// query folds into.
struct ContProfRuntime {
    config: ContProfConfig,
    cumulative: Mutex<CumulativeProfile>,
}

/// The session's observers; see the module docs.
pub(crate) struct Observers {
    obs: ObsHandle,
    auditor: Option<Auditor>,
    slo: Option<SloRuntime>,
    contprof: Option<ContProfRuntime>,
    introspect: Option<Introspector>,
}

impl Observers {
    /// Build the observers `config` switches on. An observer that is off
    /// is never constructed, so it registers no metric.
    pub(crate) fn new(config: &SessionConfig) -> Self {
        let obs = &config.obs;
        Observers {
            auditor: config.audit.clone().map(|cfg| Auditor::new(cfg, obs)),
            slo: config.slo.clone().map(|cfg| SloRuntime {
                recorder: FlightRecorder::new(cfg.recorder.clone(), &obs.metrics),
                engine: SloEngine::new(cfg, obs),
            }),
            contprof: config.contprof.clone().map(|config| ContProfRuntime {
                config,
                cumulative: Mutex::new(CumulativeProfile::new()),
            }),
            introspect: config.introspect.clone().map(|cfg| Introspector::new(cfg, obs)),
            obs: obs.clone(),
        }
    }

    pub(crate) fn audit_report(&self) -> Option<AuditReport> {
        self.auditor.as_ref().map(|a| a.report())
    }

    pub(crate) fn slo_report(&self) -> Option<SloReport> {
        self.slo.as_ref().map(|s| s.engine.report())
    }

    pub(crate) fn flight_recorder(&self) -> Option<&FlightRecorder> {
        self.slo.as_ref().map(|s| &s.recorder)
    }

    pub(crate) fn cumulative_profile(&self) -> Option<CumulativeProfile> {
        self.contprof.as_ref().map(|cp| cp.cumulative.lock().clone())
    }

    /// Before a query runs: one over the reserved `_telemetry` namespace
    /// first materializes every reservoir that changed since the last
    /// sync (and rebuilds its uniform sample), so the answer —
    /// approximate or exact — sees current data.
    pub(crate) fn before(&self, sql: &str, catalog: &Catalog) -> Result<()> {
        if let Some(intr) = self.introspect.as_ref().filter(|i| i.is_introspection_query(sql)) {
            intr.count_served();
            intr.sync_into(catalog)?;
        }
        Ok(())
    }

    /// A query finished after `elapsed` on the session clock. A failed
    /// query still spends latency budget; only answers are recorded and
    /// folded, each with the operator profile it carries.
    pub(crate) fn finished(&self, sql: &str, answer: &Result<AqpAnswer>, elapsed: Duration) {
        let obs = &self.obs;
        let answer = answer.as_ref().ok();
        if let (Some(cp), Some(a)) = (&self.contprof, answer) {
            let started = obs.clock.now();
            let class = cp.config.classify(sql);
            if let Some(root) = &a.profile {
                cp.cumulative.lock().observe(class, root);
            }
            obs.metrics.counter(name::PROF_CONTPROF_QUERIES).inc();
            obs.metrics.histogram(name::PROF_CONTPROF_EVAL_MS).record_ms(self.ms_since(started));
        }

        let mut latency_alerts = Vec::new();
        if let Some(slo) = &self.slo {
            let started = obs.clock.now();
            if let Some(a) = answer {
                slo.recorder.record(a.trace.clone());
            }
            let alerts = slo.engine.observe_latency(slo.engine.classify(sql), elapsed, started);
            self.dump_alerts(slo, &alerts, "latency");
            latency_alerts = alert_rows(&alerts, "latency");
            obs.metrics.histogram(name::SLO_EVAL_MS).record_ms(self.ms_since(started));
        }

        if let (Some(intr), Some(a)) = (self.folding(sql), answer) {
            let started = obs.clock.now();
            intr.fold_query(&QueryRecord {
                sql,
                trace: &a.trace,
                mode: a.mode.label(),
                wall_ms: elapsed.as_secs_f64() * 1e3,
                sample_rows: a.sample_rows as u64,
                population_rows: a.population_rows as u64,
                groups: a.groups.len() as u64,
                fell_back: a.fell_back,
                degraded: a.degraded.is_some(),
                profile: a.profile.as_ref(),
                slo_alerts: &latency_alerts,
            });
            obs.metrics.histogram(name::INTROSPECT_EVAL_MS).record_ms(self.ms_since(started));
        }
    }

    /// Register one completed approximate query with the auditor's
    /// deterministic sampler: `Some(ordinal)` asks the session for
    /// full-data truth and a call to [`audited`](Observers::audited).
    pub(crate) fn wants_audit(&self) -> Option<u64> {
        self.auditor.as_ref()?.should_audit()
    }

    /// Query `ordinal` was replayed at full data: pair every `served`
    /// result with its `truth` (groups the sample invented or the replay
    /// lacks are skipped), score each pair — here and nowhere else — and
    /// lend the one scored slice to every observer, which only folds it.
    /// Infallible by design — an audit must never fail or alter the query
    /// it audits.
    pub(crate) fn audited(
        &self,
        sql: &str,
        ordinal: u64,
        replay_ms: f64,
        served: &[GroupResult],
        truth: &[(String, Vec<f64>)],
    ) {
        let Some(auditor) = &self.auditor else { return };
        let truth_of: std::collections::HashMap<&str, &Vec<f64>> =
            truth.iter().map(|(k, v)| (k.as_str(), v)).collect();
        let mut scored = Vec::new();
        for g in served {
            let Some(vals) = truth_of.get(g.key.as_str()) else { continue };
            for (a, &truth) in g.aggs.iter().zip(vals.iter()) {
                let (agg, column) = split_agg_name(&a.name);
                let aggregate = AuditedAggregate {
                    agg,
                    column,
                    family: auditor.config().family_of(column),
                    estimate: a.estimate,
                    ci: a.ci,
                    diagnostic_accepted: a.diagnostic.as_ref().map(|d| d.accepted),
                    truth,
                };
                let score = aqp_audit::score(&aggregate);
                scored.push((aggregate, score));
            }
        }
        // `_telemetry.audit` rows land before the audit's alert rows.
        let intr = self.folding(sql);
        if let Some(intr) = intr {
            intr.fold_audit(ordinal, sql, &scored);
        }
        let audit_alerts = auditor.ingest(QueryAudit { ordinal, sql, replay_ms, scored: &scored });
        if let Some(intr) = intr {
            let rows: Vec<AlertRow> = audit_alerts
                .iter()
                .map(|a| (a.key.clone(), "warn".to_string(), "audit".to_string()))
                .collect();
            intr.fold_slo_alerts(sql, &rows);
        }
        let Some(slo) = &self.slo else { return };
        let started = self.obs.clock.now();
        let class = slo.engine.classify(sql);
        let scores = scored.iter().map(|(_, score)| *score);
        let (slo_alerts, _drift) = slo.engine.observe_audit(class, scores, started);
        for alert in &audit_alerts {
            slo.recorder.dump_with_context(
                &format!("audit:{}", alert.key),
                &self.obs.metrics.snapshot(),
                &[("class", class), ("trigger", "audit"), ("alert", alert.key.as_str())],
            );
        }
        self.dump_alerts(slo, &slo_alerts, "audit_score");
        if let Some(intr) = intr {
            intr.fold_slo_alerts(sql, &alert_rows(&slo_alerts, "audit_score"));
        }
        self.obs.metrics.histogram(name::SLO_EVAL_MS).record_ms(self.ms_since(started));
    }

    /// Injected faults lost more of the sample than the recovery policy
    /// tolerates and the session is about to answer exactly: freeze the
    /// evidence.
    pub(crate) fn degraded_fallback(&self) {
        if let Some(slo) = &self.slo {
            slo.recorder.dump_with_context(
                "exec:degraded",
                &self.obs.metrics.snapshot(),
                &[("trigger", "degraded_exact_fallback")],
            );
        }
    }

    /// Milliseconds on the session clock since `started` (what the
    /// `*_eval_ms` histograms record).
    fn ms_since(&self, started: Timestamp) -> f64 {
        self.obs.clock.now().duration_since(started).as_secs_f64() * 1e3
    }

    /// The introspection pipeline, when it is on and `sql` passes its
    /// recursion guard.
    fn folding(&self, sql: &str) -> Option<&Introspector> {
        self.introspect.as_ref().filter(|intr| intr.should_fold(sql))
    }

    /// Every latched SLO alert freezes the flight recorder, with what
    /// fired and what `trigger`ed it as context.
    fn dump_alerts(&self, slo: &SloRuntime, alerts: &[SloAlert], trigger: &str) {
        for alert in alerts {
            let severity = alert.severity.as_str();
            slo.recorder.dump_with_context(
                &format!("slo:{severity}:{}", alert.objective),
                &self.obs.metrics.snapshot(),
                &[
                    ("class", alert.class.as_str()),
                    ("objective", alert.objective.as_str()),
                    ("severity", severity),
                    ("trigger", trigger),
                ],
            );
        }
    }
}

/// SLO alerts as `_telemetry.slo_alerts` rows.
fn alert_rows(alerts: &[SloAlert], trigger: &str) -> Vec<AlertRow> {
    alerts
        .iter()
        .map(|a| (a.objective.clone(), a.severity.as_str().to_string(), trigger.to_string()))
        .collect()
}

/// Split a display name like `AVG(time)` into `("AVG", "time")`
/// (`COUNT(*)` → `("COUNT", "*")`; names without parens keep an empty
/// column).
fn split_agg_name(name: &str) -> (&str, &str) {
    match name.split_once('(') {
        Some((f, rest)) => (f, rest.strip_suffix(')').unwrap_or(rest)),
        None => (name, ""),
    }
}
