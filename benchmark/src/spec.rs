//! The names this benchmark fixes: workloads, metrics, units, directions
//! and bounds. `BENCHMARK.json` at the repository root is rendered from
//! these tables (`--manifest`), and later issues cite these names.

use aqp_obs::json::push_str_lit;

/// How long one run measures, in seconds (`run_seconds` of the manifest).
pub const RUN_SECONDS: u64 = 20;

/// The command of the manifest; the driver appends
/// `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
pub const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--quiet",
    "--release",
    "--offline",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

/// The directory that holds the benchmark and nothing else.
pub const PATHS: &[&str] = &["benchmark"];

/// One of the four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed-form error bars over a scan-bound list.
    ClosedFormScan,
    /// Bootstrap-only aggregates: error estimation and diagnostics bound.
    BootstrapUdf,
    /// GROUP BY lists: grouping, per-cell jobs and the exact merge.
    GroupbyFanout,
    /// The paper's query mix with every observer hook switched on.
    PaperMixObserved,
}

impl Workload {
    /// All workloads, in manifest order.
    pub const ALL: [Workload; 4] = [
        Workload::ClosedFormScan,
        Workload::BootstrapUdf,
        Workload::GroupbyFanout,
        Workload::PaperMixObserved,
    ];

    /// The fixed name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ClosedFormScan => "closed_form_scan",
            Workload::BootstrapUdf => "bootstrap_udf",
            Workload::GroupbyFanout => "groupby_fanout",
            Workload::PaperMixObserved => "paper_mix_observed",
        }
    }

    /// Why the workload exists (one line, at most 200 characters).
    pub fn why(self) -> &'static str {
        match self {
            Workload::ClosedFormScan => {
                "Global AVG/SUM/COUNT/VARIANCE with closed-form error bars: time is scan+filter \
                 over the sample and the bootstrap is idle, so scan work shows here and weight \
                 generation must not."
            }
            Workload::BootstrapUdf => {
                "UDF, percentile, multi-aggregate and nested queries: K=100 Poissonized \
                 replicates plus the p=100 x 3-level diagnostic dominate and the scan is small, \
                 so bootstrap work shows here."
            }
            Workload::GroupbyFanout => {
                "GROUP BY over 2 to 5000 groups, most on a stratified sample: string keys, tiny \
                 per-cell jobs and an exact group-by merged per rejected cell, so grouping cost \
                 shows here."
            }
            Workload::PaperMixObserved => {
                "QSet-1/QSet-2 mix (37.5% closed-form), a third with error clauses, audit, SLO, \
                 contprof and introspect on: exact fallback, pilot sample selection and \
                 observers carry weight."
            }
        }
    }

    /// Look a workload up by its fixed name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The manifest's spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// How much worse `new` is than `old`, as a share of `old`
    /// (negative = better).
    pub fn worsening(self, old: f64, new: f64) -> f64 {
        let delta = match self {
            Better::Lower => new - old,
            Better::Higher => old - new,
        };
        delta / old.abs()
    }
}

/// One metric of the manifest.
#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    /// The fixed name.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Relative worsening of the median that counts as a regression
    /// (end-to-end metrics only; per-layer metrics explain, they do not
    /// gate).
    pub bound: Option<f64>,
    /// A function of code and seed alone: the value repeats exactly for
    /// one seed, so two sets of runs are compared seed by seed.
    pub repeats_per_seed: bool,
    /// What the number means (printed by `--help`; not in the manifest).
    pub meaning: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    meaning: &'static str,
) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: Some(bound),
        repeats_per_seed: false,
        meaning,
    }
}

const fn quality(
    name: &'static str,
    better: Better,
    bound: f64,
    meaning: &'static str,
) -> MetricSpec {
    MetricSpec {
        repeats_per_seed: true,
        ..e2e(name, "ratio", better, bound, meaning)
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    meaning: &'static str,
) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: None,
        repeats_per_seed: false,
        meaning,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees, per workload, with tracing off.
pub const END_TO_END: &[MetricSpec] = &[
    e2e("setup_s", "s", Lower, 0.25,
        "register_table + every sample build (the offline cost), at reference speed; median of the set-ups of one run (one per timed pass), input generation excluded"),
    e2e("queries_per_s", "1/s", Higher, 0.25,
        "completed queries per second of time spent in execute, at reference speed: each timed pass over the list gives one figure, the run reports their median"),
    e2e("latency_p50_ms", "ms", Lower, 0.25,
        "median AqpSession::execute latency at reference speed, pooled over the timed passes"),
    e2e("latency_p90_ms", "ms", Lower, 0.25,
        "90th percentile of the pool; p90 is the highest percentile with ten samples beyond it at >= 100 timed queries, and a run times 135 or more; a failed query counts as slower than any limit"),
    e2e("cpu_ms_per_query", "ms", Lower, 0.25,
        "user+sys CPU from /proc/self/stat per query of a pass, median over the timed passes, so latency bought with more cores shows"),
    e2e("peak_rss_mb", "MB", Lower, 0.15,
        "VmHWM when the run ends"),
    quality("approx_share", Higher, 0.25,
        "mean over the answers of the first five passes of the share of result cells answered from the sample with accepted error bars; refusals and failures count against it"),
    quality("ci_coverage", Higher, 0.15,
        "mean over those answers of the share of their reliable CIs (CI present, diagnostic accepted) that contain the exact value: a gross-miscalibration tripwire"),
    quality("ci_rel_halfwidth_p50", Lower, 0.25,
        "mean over those answers of the median half-width / |estimate| of their reliable CIs: accuracy delivered for the time spent"),
];

/// Single layers, from the traced run; they explain, they do not gate.
pub const PER_LAYER: &[MetricSpec] = &[
    layer("sql.parse_us", "us", Lower, "parse_query, p50 over the list"),
    layer("sql.plan_us", "us", Lower, "plan_query, p50"),
    layer("sql.rewrite_us", "us", Lower, "plan clone + rewrite_for_error_estimation, p50"),
    layer("sql.share", "ratio", Lower, "sum(parse+plan+rewrite) / sum(execute)"),
    layer("storage.register_ms", "ms", Lower, "register_table, median of the set-ups"),
    layer("storage.build_uniform_s", "s", Lower, "build_samples, median of the set-ups"),
    layer("storage.build_stratified_s", "s", Lower, "build_stratified_sample (0 when the workload has none)"),
    layer("storage.sample_rows_total", "count", Lower, "rows held by all samples"),
    layer("workload.datagen_s", "s", Lower, "input generation, reported so set-up is not confused with it"),
    layer("exec.collect_ms", "ms", Lower, "collect over the chosen sample, p50"),
    layer("exec.collect_rows_per_s", "rows/s", Higher, "sample rows scanned / collect time, sums over the list"),
    layer("exec.point_estimate_ms", "ms", Lower, "PreparedTheta::prepare + estimate per cell, p50"),
    layer("exec.approx_nodiag_ms", "ms", Lower, "execute_approx without a diagnostic config, p50"),
    layer("exec.approx_ms", "ms", Lower, "execute_approx with the session's diagnostic config, p50"),
    layer("exec.error_estimation_ms", "ms", Lower, "approx_nodiag - collect - point_estimate per query, p50"),
    layer("exec.values_per_query", "count", Lower, "values materialised by collect, mean over the list"),
    layer("exec.groups_per_query", "count", Lower, "groups produced by collect, mean"),
    layer("exec.resamples_per_query", "count", Lower, "bootstrap resamples drawn by execute_approx (error bars + diagnostic), mean"),
    layer("exec.collect_speedup_2t", "ratio", Higher, "sum(collect at 1 thread) / sum(collect at 2 threads)"),
    layer("exec.exact_ms", "ms", Lower, "execute_exact over the base table, p50"),
    layer("exec.exact_rows_per_s", "rows/s", Higher, "base rows / exact time, sums"),
    layer("exec.exact_vs_approx_speedup", "ratio", Higher, "sum(exact) / sum(approx)"),
    layer("exec.baseline_ms", "ms", Lower, "execute_baseline (one re-scan per subquery, paper section 5.2), p50 of the first queries; 0 when not measured"),
    layer("exec.baseline_speedup", "ratio", Higher, "sum(execute_baseline) / sum(execute_approx) on those queries; 0 when not measured"),
    layer("stats.closed_form_ns_per_value", "ns", Lower, "closed_form_ci(AVG) on the values collect returned"),
    layer("stats.bootstrap_ns_per_value_rep", "ns", Lower, "bootstrap_ci(AVG, K=100) per value and replicate"),
    layer("stats.poisson_ns_per_draw", "ns", Lower, "Poisson1::fill per weight"),
    layer("diagnostics.ms", "ms", Lower, "approx - approx_nodiag per query, p50"),
    layer("diagnostics.share", "ratio", Lower, "sum(diagnostics) / sum(execute)"),
    layer("diagnostics.accept_share", "ratio", Higher, "accepted / judged cells in execute_approx"),
    layer("diagnostics.kernel_closed_form_ms", "ms", Lower, "run_diagnostic with closed-form xi on the collected values, p50"),
    layer("diagnostics.kernel_bootstrap_ms", "ms", Lower, "run_diagnostic with bootstrap xi (K=100), p50"),
    layer("core.execute_ms", "ms", Lower, "AqpSession::execute inside a benchmark-side span, p50"),
    layer("core.self_ms", "ms", Lower, "execute - sql - approx - exact (if it fell back) per query, p50: sample pick, pilot, gate merge, trace graft, observers"),
    layer("core.self_share", "ratio", Lower, "sum(self) / sum(execute)"),
    layer("core.exact_fallback_share", "ratio", Lower, "queries answered ExactFallback / attempted"),
    layer("core.partial_fallback_share", "ratio", Lower, "queries answered PartialFallback / attempted"),
    layer("core.tracing_overhead_share", "ratio", Lower, "execute p50 with benchmark-side spans / without - 1"),
    layer("audit.overhead_share", "ratio", Lower, "sum(latency, audit on) / sum(all off) - 1; observer metrics are 0 where not measured"),
    layer("audit.replayed_share", "ratio", Lower, "audited / considered queries"),
    layer("slo.overhead_share", "ratio", Lower, "sum(latency, SLO on) / sum(all off) - 1"),
    layer("prof.contprof_overhead_share", "ratio", Lower, "sum(latency, contprof on) / sum(all off) - 1"),
    layer("introspect.overhead_share", "ratio", Lower, "sum(latency, introspect on) / sum(all off) - 1"),
    layer("observers.overhead_share", "ratio", Lower, "sum(latency, all four on) / sum(all off) - 1"),
    layer("obs.spans_per_query", "count", Lower, "spans in AqpAnswer::trace, mean"),
];

fn push_metric(out: &mut String, m: &MetricSpec, last: bool) {
    out.push_str("    {\"name\": ");
    push_str_lit(out, m.name);
    out.push_str(", \"unit\": ");
    push_str_lit(out, m.unit);
    out.push_str(", \"better\": ");
    push_str_lit(out, m.better.as_str());
    if let Some(bound) = m.bound {
        out.push_str(&format!(", \"bound\": {bound}"));
    }
    out.push_str(if last { "}\n" } else { "},\n" });
}

fn push_str_array(out: &mut String, items: &[&str]) {
    out.push('[');
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        push_str_lit(out, item);
    }
    out.push(']');
}

/// The text of `BENCHMARK.json`.
pub fn manifest_json() -> String {
    let mut out = String::from("{\n  \"command\": ");
    push_str_array(&mut out, COMMAND);
    out.push_str(",\n  \"paths\": ");
    push_str_array(&mut out, PATHS);
    out.push_str(&format!(
        ",\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n"
    ));
    for (i, w) in Workload::ALL.iter().enumerate() {
        out.push_str("    {\"name\": ");
        push_str_lit(&mut out, w.name());
        out.push_str(", \"why\": ");
        push_str_lit(&mut out, w.why());
        out.push_str(if i + 1 == Workload::ALL.len() {
            "}\n"
        } else {
            "},\n"
        });
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        push_metric(&mut out, m, i + 1 == END_TO_END.len());
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        push_metric(&mut out, m, i + 1 == PER_LAYER.len());
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};

    fn name_ok(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for w in Workload::ALL {
            assert!(name_ok(w.name()), "{}", w.name());
            assert!(seen.insert(w.name()), "duplicate {}", w.name());
            assert!(
                w.why().len() <= 200 && !w.why().contains('\n'),
                "{}",
                w.name()
            );
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name_ok(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{}: {}", m.name, m.unit);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
        }
        for m in END_TO_END {
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}", m.name);
        }
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let widest = END_TO_END
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest), "setup_s takes the largest bound");
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    #[test]
    fn manifest_is_well_formed_and_committed() {
        let text = manifest_json();
        assert!(text.len() <= 64 * 1024);
        let v = json::parse(&text).unwrap();
        let keys: Vec<&str> = v
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let e2e = v.get("end_to_end").and_then(Value::as_array).unwrap();
        assert_eq!(e2e.len(), END_TO_END.len());
        for m in e2e {
            let keys: Vec<&str> = m
                .as_object()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["name", "unit", "better", "bound"]);
        }
        // `--manifest` must print exactly what is committed at the root.
        let committed = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        assert_eq!(std::fs::read_to_string(committed).unwrap(), text);
    }

    #[test]
    fn worsening_respects_direction() {
        assert!((Lower.worsening(100.0, 110.0) - 0.1).abs() < 1e-12);
        assert!((Higher.worsening(100.0, 90.0) - 0.1).abs() < 1e-12);
        assert!(Higher.worsening(100.0, 120.0) < 0.0);
    }
}
