//! The traced run: replay every timed query stage by stage through the
//! engine's public functions, each call inside a benchmark-side span, and
//! derive the per-layer metrics from those spans.
//!
//! The program is not instrumented; layers are timed from outside, around
//! the calls into them. `AqpSession::execute` cannot be opened up that way,
//! so its stages are re-run next to it with the arguments the session
//! would pass: `parse_query` -> `plan_query` ->
//! `rewrite_for_error_estimation` -> `collect` -> `PreparedTheta::estimate`
//! -> `execute_approx` without and with a diagnostic config ->
//! `execute_exact` (the oracle, here at one thread) -> `execute`.
//! What `execute` takes beyond the sum of those is `core.self_*`.

use std::fmt::Write as _;
use std::path::PathBuf;

use aqp_core::{AnswerMode, AqpSession};
use aqp_diagnostics::{run_diagnostic, DiagnosticConfig};
use aqp_exec::baseline::execute_baseline;
use aqp_exec::collect::collect;
use aqp_exec::engine::{execute_approx, ApproxOptions, MethodChoice};
use aqp_exec::theta::PreparedTheta;
use aqp_exec::UdfRegistry;
use aqp_obs::{name, Clock, MetricsRegistry};
use aqp_sql::logical::{DiagnosticWeights, ErrorMethod, LogicalPlan, ResampleSpec};
use aqp_sql::rewriter::{rewrite_for_error_estimation, ResamplePlacement};
use aqp_sql::{parse_query, plan_query, Query};
use aqp_stats::bootstrap::bootstrap_ci;
use aqp_stats::closed_form::closed_form_ci;
use aqp_stats::dist::Poisson1;
use aqp_stats::error_estimator::{EstimationMethod, Theta};
use aqp_stats::estimator::{Aggregate, SampleContext};
use aqp_stats::rng::SeedStream;
use aqp_storage::sample::Sample;

use crate::reference::Reference;
use crate::run::{
    describe, exact_answers, next_factor, pass, prepare, Pass, Prepared, Quality, Replica, RunArgs,
    RunReport,
};
use crate::spec::{MetricSpec, Workload, PER_LAYER};
use crate::summary::median;
use crate::workloads::{session_config, set_up, Observers, SetupTimes, TABLE};

/// Bootstrap replicates, diagnostic subsamples per level and confidence
/// of every workload's session (see `workloads::session_config`).
const BOOTSTRAP_K: usize = 100;
const DIAGNOSTIC_P: usize = 100;
const CONFIDENCE: f64 = 0.95;

/// `execute_baseline` re-scans the sample once per subquery, a few
/// seconds per query: the first three of a list are enough for a ratio.
const BASELINE_QUERIES: usize = 3;

/// Set-ups of a traced run; the `storage.*` metrics are their medians.
const SETUPS: usize = 3;

/// The kernels are timed on the first dozen queries of a list: the
/// bootstrap diagnostic alone takes as long as the query it belongs to.
const KERNEL_QUERIES: usize = 12;

/// One benchmark-side span.
struct Span {
    name: &'static str,
    query: usize,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// Spans stay in memory and are written out when the run ends.
struct Tracer {
    clock: Clock,
    spans: Vec<Span>,
}

impl Tracer {
    /// Open a span; returns its id.
    fn open(&mut self, name: &'static str, query: usize, parent: Option<usize>) -> usize {
        let now = self.clock.now().nanos();
        self.spans.push(Span {
            name,
            query,
            parent,
            start_ns: now,
            end_ns: now,
        });
        self.spans.len() - 1
    }

    /// Close span `id`; returns its length in seconds.
    fn close(&mut self, id: usize) -> f64 {
        let span = &mut self.spans[id];
        span.end_ns = self.clock.now().nanos();
        (span.end_ns - span.start_ns) as f64 / 1e9
    }

    /// Run `f` inside a child span of `parent`.
    fn child<T>(
        &mut self,
        name: &'static str,
        query: usize,
        parent: usize,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.open(name, query, Some(parent));
        let out = f();
        (out, self.close(id))
    }

    fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"query\": {}, \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                s.name, s.query, s.start_ns, s.end_ns
            );
        }
        out
    }
}

/// The stages timed per query and pass.
#[derive(Clone, Copy)]
enum St {
    Parse,
    Plan,
    Rewrite,
    Collect,
    Collect2t,
    PointEstimate,
    ApproxNoDiag,
    Approx,
    Execute,
    ExecutePlain,
    /// `AqpAnswer::timings.total()`: the program's own clock, read only to
    /// print how far it is from the outside one.
    ExecuteInProgram,
    KernelClosedForm,
    KernelBootstrap,
    KernelPoisson,
    DiagClosedForm,
    DiagBootstrap,
}
const STAGES: usize = St::DiagBootstrap as usize + 1;

/// Seconds per stage for one query in one pass.
type Times = [f64; STAGES];

/// What a staged replay counts; the same in every pass.
#[derive(Clone, Copy, Default)]
struct Counts {
    sample_rows: usize,
    values: usize,
    groups: usize,
    resamples: u64,
    diag_judged: usize,
    diag_accepted: usize,
    kernel_values: usize,
}

/// The sample the session runs `query` on, given the rows it reported.
fn chosen_sample(session: &AqpSession, query: &Query, rows: usize) -> Result<Sample, String> {
    session
        .catalog()
        .with_samples(TABLE, |set| {
            let stratified = (query.group_by.len() == 1 && !query.is_nested())
                .then(|| set.stratified_on(&query.group_by[0]))
                .flatten();
            Ok(stratified
                .or_else(|| set.uniform_samples().find(|s| s.meta.rows == rows))
                .or_else(|| set.largest())
                .cloned())
        })
        .map_err(|e| e.to_string())?
        .ok_or_else(|| "the session holds no sample".to_string())
}

/// The plan rewrite and executor options `AqpSession::execute` uses on
/// `sample`, without (`.0`) and with (`.1`) the diagnostic.
fn approx_options(sample: &Sample, seed: u64) -> (ApproxOptions, ApproxOptions) {
    let group_contexts = sample.meta.strata.as_ref().map(|st| {
        st.groups
            .iter()
            .map(|g| (g.key.clone(), (g.sample_rows, g.population_rows)))
            .collect()
    });
    let without = ApproxOptions {
        method: MethodChoice::Auto,
        bootstrap_k: BOOTSTRAP_K,
        alpha: CONFIDENCE,
        diagnostic: None,
        seed,
        threads: 1,
        group_contexts,
        ..ApproxOptions::default()
    };
    let with = ApproxOptions {
        diagnostic: Some(DiagnosticConfig::scaled_to(sample.meta.rows, DIAGNOSTIC_P)),
        ..without.clone()
    };
    (without, with)
}

fn rewrite(
    plan: &LogicalPlan,
    query: &Query,
    diagnostic: &DiagnosticConfig,
    seed: u64,
) -> LogicalPlan {
    let spec = ResampleSpec {
        bootstrap_k: BOOTSTRAP_K,
        diagnostic: Some(DiagnosticWeights {
            subsample_rows: diagnostic.subsample_rows.clone(),
            p: diagnostic.p,
        }),
        seed,
    };
    let method = if query.closed_form_applicable() {
        ErrorMethod::ClosedForm
    } else {
        ErrorMethod::Bootstrap
    };
    rewrite_for_error_estimation(
        plan.clone(),
        spec,
        method,
        CONFIDENCE,
        ResamplePlacement::PushedDown,
    )
}

/// Replay query `i` stage by stage.
fn replay(
    p: &Prepared,
    r: &Replica,
    tracer: &mut Tracer,
    i: usize,
    sample_rows: usize,
    with_kernels: bool,
    bare_first: bool,
) -> Result<(Times, Counts), String> {
    let sql = p.list[i].sql.as_str();
    let registry = UdfRegistry::default();
    let population = p.table.num_rows();
    let mut t: Times = [0.0; STAGES];
    let mut c = Counts::default();
    let root = tracer.open("query", i, None);

    let (parsed, s) = tracer.child("sql.parse", i, root, || parse_query(sql));
    t[St::Parse as usize] = s;
    let parsed = parsed.map_err(|e| e.to_string())?;
    let (plan, s) = tracer.child("sql.plan", i, root, || {
        plan_query(&parsed, p.table.schema())
    });
    t[St::Plan as usize] = s;
    let plan = plan.map_err(|e| e.to_string())?;

    let sample = chosen_sample(&r.session, &parsed, sample_rows)?;
    let (opts_nodiag, opts) = approx_options(&sample, r.seed);
    let diagnostic = opts.diagnostic.clone().expect("set by approx_options");
    let (rewritten, s) = tracer.child("sql.rewrite", i, root, || {
        rewrite(&plan, &parsed, &diagnostic, r.seed)
    });
    t[St::Rewrite as usize] = s;

    let (collected, s) = tracer.child("exec.collect", i, root, || {
        collect(&rewritten, &sample.data, 1)
    });
    t[St::Collect as usize] = s;
    let collected = collected.map_err(|e| e.to_string())?;
    let (again, s) = tracer.child("exec.collect_2t", i, root, || {
        collect(&rewritten, &sample.data, 2)
    });
    t[St::Collect2t as usize] = s;
    drop(again);
    c.sample_rows = collected.pre_filter_rows;
    c.groups = collected.groups.len();
    c.values = collected
        .groups
        .iter()
        .flat_map(|g| &g.aggs)
        .map(|a| a.values.len())
        .sum();

    let ctx = SampleContext::new(collected.pre_filter_rows, population);
    let (estimates, s) = tracer.child("exec.point_estimate", i, root, || {
        let thetas: Result<Vec<PreparedTheta>, _> = collected
            .agg_exprs
            .iter()
            .map(|a| PreparedTheta::prepare(a, collected.inner_agg.as_ref(), &registry))
            .collect();
        thetas.map(|thetas| {
            collected
                .groups
                .iter()
                .map(|g| {
                    g.aggs
                        .iter()
                        .zip(&thetas)
                        .map(|(d, th)| th.estimate(d, &ctx))
                        .sum::<f64>()
                })
                .sum::<f64>()
        })
    });
    t[St::PointEstimate as usize] = s;
    std::hint::black_box(estimates.map_err(|e| e.to_string())?);

    let (nodiag, s) = tracer.child("exec.approx_nodiag", i, root, || {
        execute_approx(
            &rewritten,
            &sample.data,
            population,
            &registry,
            &opts_nodiag,
        )
    });
    t[St::ApproxNoDiag as usize] = s;
    drop(nodiag.map_err(|e| e.to_string())?);

    let resamples = MetricsRegistry::global().counter(name::STATS_BOOTSTRAP_RESAMPLES);
    let before = resamples.get();
    let (approx, s) = tracer.child("exec.approx", i, root, || {
        execute_approx(&rewritten, &sample.data, population, &registry, &opts)
    });
    t[St::Approx as usize] = s;
    let approx = approx.map_err(|e| e.to_string())?;
    c.resamples = resamples.get() - before;
    for d in approx
        .groups
        .iter()
        .flat_map(|g| &g.aggs)
        .filter_map(|a| a.diagnostic.as_ref())
    {
        c.diag_judged += 1;
        c.diag_accepted += usize::from(d.accepted);
    }

    // `execute` inside a span and bare; the difference is what the
    // benchmark's own tracing costs. Which goes first alternates by query
    // and by pass, so that neither always finds the caches warm.
    let bare = || -> Result<f64, String> {
        let (answer, d) = p.clock.time(|| r.session.execute(sql));
        answer.map(|_| d.as_secs_f64()).map_err(|e| e.to_string())
    };
    if bare_first {
        t[St::ExecutePlain as usize] = bare()?;
    }
    let (answer, s) = tracer.child("core.execute", i, root, || r.session.execute(sql));
    t[St::Execute as usize] = s;
    t[St::ExecuteInProgram as usize] = answer
        .map_err(|e| e.to_string())?
        .timings
        .total()
        .as_secs_f64();
    if !bare_first {
        t[St::ExecutePlain as usize] = bare()?;
    }

    // The statistics kernels on their own, on the values `collect`
    // returned for this query (first cell), with theta = AVG throughout so
    // the figures compare across workloads.
    let first_cell = collected
        .groups
        .first()
        .and_then(|g| g.aggs.first())
        .map(|a| &a.values);
    if let Some(values) = first_cell.filter(|_| with_kernels) {
        if !values.is_empty() {
            c.kernel_values = values.len();
            let seeds = SeedStream::new(r.seed).derive(i as u64);
            let avg = Aggregate::Avg;
            let (ci, s) = tracer.child("stats.closed_form", i, root, || {
                closed_form_ci(&avg, values, &ctx, CONFIDENCE)
            });
            t[St::KernelClosedForm as usize] = s;
            std::hint::black_box(ci);
            let mut rng = seeds.rng(1);
            let (ci, s) = tracer.child("stats.bootstrap", i, root, || {
                bootstrap_ci(&mut rng, values, &ctx, &avg, BOOTSTRAP_K, CONFIDENCE)
            });
            t[St::KernelBootstrap as usize] = s;
            std::hint::black_box(ci);
            let mut weights = vec![0u32; values.len()];
            let (_, s) = tracer.child("stats.poisson", i, root, || {
                Poisson1::new().fill(&mut rng, &mut weights);
            });
            t[St::KernelPoisson as usize] = s;
            std::hint::black_box(&weights);
            let theta = Theta::Builtin(avg);
            let (report, s) = tracer.child("diagnostics.closed_form", i, root, || {
                run_diagnostic(
                    values,
                    &ctx,
                    &theta,
                    &EstimationMethod::ClosedForm,
                    &diagnostic,
                    seeds,
                )
            });
            t[St::DiagClosedForm as usize] = s;
            std::hint::black_box(report.accepted);
            let xi = EstimationMethod::Bootstrap { k: BOOTSTRAP_K };
            let (report, s) = tracer.child("diagnostics.bootstrap", i, root, || {
                run_diagnostic(values, &ctx, &theta, &xi, &diagnostic, seeds)
            });
            t[St::DiagBootstrap as usize] = s;
            std::hint::black_box(report.accepted);
        }
    }
    tracer.close(root);
    Ok((t, c))
}

/// `execute_baseline` against `execute_approx` on the first queries of
/// the list: (p50 baseline ms, sum(baseline) / sum(approx)).
fn baseline_speedup(
    p: &Prepared,
    r: &Replica,
    tracer: &mut Tracer,
    warm_up: &Pass,
    approx_s: &[f64],
) -> Result<(f64, f64), String> {
    let registry = UdfRegistry::default();
    let mut baseline_s = Vec::new();
    for (i, q) in p.list.iter().enumerate().take(BASELINE_QUERIES) {
        let sql = q.sql.as_str();
        let parsed = parse_query(sql).map_err(|e| e.to_string())?;
        let plan = plan_query(&parsed, p.table.schema()).map_err(|e| e.to_string())?;
        let sample = chosen_sample(&r.session, &parsed, warm_up.checked[i].sample_rows)?;
        let (_, opts) = approx_options(&sample, r.seed);
        let root = tracer.open("query.baseline", i, None);
        let (result, s) = tracer.child("exec.baseline", i, root, || {
            execute_baseline(&plan, &sample.data, p.table.num_rows(), &registry, &opts)
        });
        tracer.close(root);
        drop(result.map_err(|e| e.to_string())?);
        baseline_s.push((s, approx_s[i]));
    }
    let base: f64 = baseline_s.iter().map(|(b, _)| b).sum();
    let approx: f64 = baseline_s.iter().map(|(_, a)| a).sum();
    let p50 = median(&baseline_s.iter().map(|(b, _)| b * 1e3).collect::<Vec<_>>());
    Ok((p50, base / approx))
}

/// What each observer hook costs, measured as the paper mix is deployed:
/// six sessions (all off, each hook alone, all on), the six interleaved
/// per query. Returns `(metric, value)` pairs.
fn observer_overheads(p: &Prepared, r: &Replica) -> Result<Vec<(&'static str, f64)>, String> {
    let off = Observers::NONE;
    let configs: [(&str, Observers); 5] = [
        ("off", off),
        ("audit.overhead_share", Observers { audit: true, ..off }),
        ("slo.overhead_share", Observers { slo: true, ..off }),
        (
            "prof.contprof_overhead_share",
            Observers {
                contprof: true,
                ..off
            },
        ),
        (
            "introspect.overhead_share",
            Observers {
                introspect: true,
                ..off
            },
        ),
    ];
    let mut sessions: Vec<AqpSession> = Vec::new();
    for (_, observers) in configs {
        let (s, _) = set_up(
            &p.table,
            &p.sizing,
            session_config(r.seed, observers),
            &p.clock,
        )?;
        sessions.push(s);
    }
    // The run's own session is the all-on configuration, already warm;
    // warm the others alike.
    for s in &sessions {
        for q in &p.list {
            s.execute(&q.sql).map_err(|e| e.to_string())?;
        }
    }
    let mut sums = vec![0.0f64; sessions.len() + 1];
    for (n, q) in p.list.iter().enumerate() {
        let sql = q.sql.as_str();
        // Rotate which configuration goes first.
        for k in 0..=sessions.len() {
            let slot = (k + n) % (sessions.len() + 1);
            let session = sessions.get(slot).unwrap_or(&r.session);
            let (r, d) = p.clock.time(|| session.execute(sql));
            r.map_err(|e| e.to_string())?;
            sums[slot] += d.as_secs_f64();
        }
    }
    let base = sums[0];
    let mut out: Vec<(&'static str, f64)> = Vec::new();
    for (slot, (label, _)) in configs.iter().enumerate().skip(1) {
        out.push((label, sums[slot] / base - 1.0));
    }
    out.push((
        "observers.overhead_share",
        sums[sessions.len()] / base - 1.0,
    ));
    let audit = r
        .session
        .audit_report()
        .ok_or("the observed session has no auditor")?;
    out.push((
        "audit.replayed_share",
        audit.audited as f64 / audit.considered.max(1) as f64,
    ));
    Ok(out)
}

fn trace_path(workload: Workload) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("{}.trace.jsonl", workload.name()))
}

/// The traced run: the per-layer metrics.
pub fn run(args: &RunArgs) -> Result<RunReport, String> {
    // Like the end-to-end times, every time below is taken between two
    // batches of the reference loop and divided by the speed factor they
    // give (see `reference.rs`), so both kinds of run report milliseconds
    // at reference speed.
    let mut reference = Reference::new(&Clock::real());
    let mut batch = reference.batch();
    let mut p = prepare(args);
    p.datagen_s /= next_factor(&mut reference, &mut batch);
    // One thread: the oracle's `execute_exact` is the `exec.exact` layer.
    let mut exact = exact_answers(&p, 1);
    let speed = next_factor(&mut reference, &mut batch);
    for e in &mut exact {
        e.seconds /= speed;
    }
    // The same session three times over, for the medians of the set-up
    // steps; the last one is kept.
    let mut r = p.set_up(0)?;
    let mut setups = vec![r.times.at_speed(next_factor(&mut reference, &mut batch))];
    for _ in 1..SETUPS {
        drop(r);
        r = p.set_up(0)?;
        setups.push(r.times.at_speed(next_factor(&mut reference, &mut batch)));
    }
    let setup_median =
        |step: fn(&SetupTimes) -> f64| median(&setups.iter().map(step).collect::<Vec<_>>());
    // The untimed first pass: warm-up, oracle check, and which sample and
    // mode each query gets.
    let warm_up = pass(&p, &r.session, &exact)?;
    let mut violations = warm_up.violations.clone();
    let mut n_run = p.list.len() as u64;
    let mut tracer = Tracer {
        clock: p.clock.clone(),
        spans: Vec::new(),
    };

    // Whole staged passes, at least one, for three fifths of the time:
    // the baseline executor and the observer sessions below take the
    // rest.
    let mut passes: Vec<Vec<Option<(Times, Counts)>>> = Vec::new();
    let started = p.clock.now();
    batch = reference.batch();
    loop {
        let mut pass = Vec::with_capacity(p.list.len());
        for i in 0..p.list.len() {
            n_run += 2;
            match replay(
                &p,
                &r,
                &mut tracer,
                i,
                warm_up.checked[i].sample_rows,
                i < KERNEL_QUERIES,
                (i + passes.len()) % 2 == 1,
            ) {
                Ok(tc) => pass.push(Some(tc)),
                Err(e) => {
                    violations.push(format!("query {i} `{}`: staged replay: {e}", p.list[i].sql));
                    pass.push(None);
                }
            }
        }
        let speed = next_factor(&mut reference, &mut batch);
        for (times, _) in pass.iter_mut().flatten() {
            for t in times {
                *t /= speed;
            }
        }
        passes.push(pass);
        if p.clock.now().duration_since(started).as_secs_f64() >= 0.6 * args.seconds {
            break;
        }
    }

    // Per query: the median over the passes of each stage, and the counts.
    let mut rows: Vec<(usize, Times, Counts)> = Vec::new();
    for i in 0..p.list.len() {
        let seen: Vec<&(Times, Counts)> =
            passes.iter().filter_map(|pass| pass[i].as_ref()).collect();
        let Some(first) = seen.first() else { continue };
        let mut t: Times = [0.0; STAGES];
        for (st, cell) in t.iter_mut().enumerate() {
            *cell = median(&seen.iter().map(|(times, _)| times[st]).collect::<Vec<_>>());
        }
        rows.push((i, t, first.1));
    }
    if rows.is_empty() {
        return Err(format!("no query could be replayed: {violations:?}"));
    }

    let col = |st: St| -> Vec<f64> { rows.iter().map(|(_, t, _)| t[st as usize]).collect() };
    let sum = |st: St| -> f64 { col(st).iter().sum() };
    let p50_ms = |st: St| median(&col(st)) * 1e3;
    // The kernels ran on the first queries only.
    let kernel_p50_ms = |st: St| {
        let ran: Vec<f64> = rows
            .iter()
            .filter(|(_, _, c)| c.kernel_values > 0)
            .map(|(_, t, _)| t[st as usize])
            .collect();
        median(&ran) * 1e3
    };
    let count_sum = |f: fn(&Counts) -> f64| -> f64 { rows.iter().map(|(_, _, c)| f(c)).sum() };
    let n = rows.len() as f64;
    let fell_back = |i: usize| {
        matches!(
            warm_up.checked[i].mode,
            Some(AnswerMode::ExactFallback | AnswerMode::PartialFallback)
        )
    };
    let exact_s: Vec<f64> = rows.iter().map(|(i, _, _)| exact[*i].seconds).collect();
    let sql_s = |t: &Times| t[St::Parse as usize] + t[St::Plan as usize] + t[St::Rewrite as usize];
    let error_estimation: Vec<f64> = rows
        .iter()
        .map(|(_, t, _)| {
            t[St::ApproxNoDiag as usize] - t[St::Collect as usize] - t[St::PointEstimate as usize]
        })
        .collect();
    let diagnostics: Vec<f64> = rows
        .iter()
        .map(|(_, t, _)| t[St::Approx as usize] - t[St::ApproxNoDiag as usize])
        .collect();
    let core_self: Vec<f64> = rows
        .iter()
        .map(|(i, t, _)| {
            let exact = if fell_back(*i) {
                exact[*i].seconds
            } else {
                0.0
            };
            t[St::Execute as usize] - sql_s(t) - t[St::Approx as usize] - exact
        })
        .collect();
    let execute_sum = sum(St::Execute);
    let modes = Quality::of(std::slice::from_ref(&warm_up));

    let mut values: Vec<(&'static str, f64)> = vec![
        ("sql.parse_us", p50_ms(St::Parse) * 1e3),
        ("sql.plan_us", p50_ms(St::Plan) * 1e3),
        ("sql.rewrite_us", p50_ms(St::Rewrite) * 1e3),
        (
            "sql.share",
            rows.iter().map(|(_, t, _)| sql_s(t)).sum::<f64>() / execute_sum,
        ),
        ("storage.register_ms", setup_median(|s| s.register_s) * 1e3),
        ("storage.build_uniform_s", setup_median(|s| s.uniform_s)),
        (
            "storage.build_stratified_s",
            setup_median(|s| s.stratified_s),
        ),
        (
            "storage.sample_rows_total",
            r.session
                .catalog()
                .with_samples(TABLE, |set| {
                    Ok(set.samples().iter().map(|s| s.meta.rows).sum::<usize>())
                })
                .map_err(|e| e.to_string())? as f64,
        ),
        ("workload.datagen_s", p.datagen_s),
        ("exec.collect_ms", p50_ms(St::Collect)),
        (
            "exec.collect_rows_per_s",
            count_sum(|c| c.sample_rows as f64) / sum(St::Collect),
        ),
        ("exec.point_estimate_ms", p50_ms(St::PointEstimate)),
        ("exec.approx_nodiag_ms", p50_ms(St::ApproxNoDiag)),
        ("exec.approx_ms", p50_ms(St::Approx)),
        ("exec.error_estimation_ms", median(&error_estimation) * 1e3),
        ("exec.values_per_query", count_sum(|c| c.values as f64) / n),
        ("exec.groups_per_query", count_sum(|c| c.groups as f64) / n),
        (
            "exec.resamples_per_query",
            count_sum(|c| c.resamples as f64) / n,
        ),
        (
            "exec.collect_speedup_2t",
            sum(St::Collect) / sum(St::Collect2t),
        ),
        ("exec.exact_ms", median(&exact_s) * 1e3),
        (
            "exec.exact_rows_per_s",
            p.table.num_rows() as f64 * n / exact_s.iter().sum::<f64>(),
        ),
        (
            "exec.exact_vs_approx_speedup",
            exact_s.iter().sum::<f64>() / sum(St::Approx),
        ),
        (
            "stats.closed_form_ns_per_value",
            sum(St::KernelClosedForm) * 1e9 / count_sum(|c| c.kernel_values as f64),
        ),
        (
            "stats.bootstrap_ns_per_value_rep",
            sum(St::KernelBootstrap) * 1e9
                / (count_sum(|c| c.kernel_values as f64) * BOOTSTRAP_K as f64),
        ),
        (
            "stats.poisson_ns_per_draw",
            sum(St::KernelPoisson) * 1e9 / count_sum(|c| c.kernel_values as f64),
        ),
        ("diagnostics.ms", median(&diagnostics) * 1e3),
        (
            "diagnostics.share",
            diagnostics.iter().sum::<f64>() / execute_sum,
        ),
        (
            "diagnostics.accept_share",
            count_sum(|c| c.diag_accepted as f64) / count_sum(|c| c.diag_judged as f64),
        ),
        (
            "diagnostics.kernel_closed_form_ms",
            kernel_p50_ms(St::DiagClosedForm),
        ),
        (
            "diagnostics.kernel_bootstrap_ms",
            kernel_p50_ms(St::DiagBootstrap),
        ),
        ("core.execute_ms", p50_ms(St::Execute)),
        ("core.self_ms", median(&core_self) * 1e3),
        (
            "core.self_share",
            core_self.iter().sum::<f64>() / execute_sum,
        ),
        (
            "core.exact_fallback_share",
            modes.mode_share(AnswerMode::ExactFallback),
        ),
        (
            "core.partial_fallback_share",
            modes.mode_share(AnswerMode::PartialFallback),
        ),
        (
            "core.tracing_overhead_share",
            p50_ms(St::Execute) / p50_ms(St::ExecutePlain) - 1.0,
        ),
        (
            "obs.spans_per_query",
            rows.iter()
                .map(|(i, _, _)| warm_up.checked[*i].trace_spans as f64)
                .sum::<f64>()
                / n,
        ),
    ];
    if matches!(
        p.workload,
        Workload::ClosedFormScan | Workload::BootstrapUdf
    ) {
        let approx_s: Vec<f64> = rows
            .iter()
            .map(|(_, t, _)| t[St::Approx as usize])
            .collect();
        batch = reference.batch();
        let (p50, speedup) = baseline_speedup(&p, &r, &mut tracer, &warm_up, &approx_s)?;
        let speed = next_factor(&mut reference, &mut batch);
        values.push(("exec.baseline_ms", p50 / speed));
        values.push(("exec.baseline_speedup", speedup / speed));
    }
    if Observers::of(p.workload) == Observers::ALL {
        let overheads = observer_overheads(&p, &r)?;
        n_run += (overheads.len() as u64 + 1) * p.list.len() as u64;
        values.extend(overheads);
    }

    // Every per-layer metric is printed by every workload; one that a
    // workload does not measure, or that is undefined on it (no reliable
    // CI, no cell judged), reads 0.
    let metrics: Vec<(&MetricSpec, f64)> = PER_LAYER
        .iter()
        .map(|m| {
            let v = values
                .iter()
                .find(|(name, _)| *name == m.name)
                .map_or(0.0, |(_, v)| *v);
            (m, if v.is_finite() { v } else { 0.0 })
        })
        .collect();
    for (name, _) in &values {
        assert!(
            PER_LAYER.iter().any(|m| m.name == *name),
            "`{name}` is not in the manifest"
        );
    }

    let mut text = String::new();
    describe(&p, &setups, std::slice::from_ref(&warm_up), &mut text);
    let _ = writeln!(
        text,
        "traced: {} staged passes over {} queries; setup steps (s): {}",
        passes.len(),
        rows.len(),
        setups
            .iter()
            .map(|s: &SetupTimes| format!(
                "{:.3}+{:.3}+{:.3}",
                s.register_s, s.uniform_s, s.stratified_s
            ))
            .collect::<Vec<_>>()
            .join(" ")
    );
    let _ = writeln!(
        text,
        "AqpAnswer::timings sums to {:.3} ms at the median against {:.3} ms measured around \
         execute (not a metric source)",
        p50_ms(St::ExecuteInProgram),
        p50_ms(St::Execute)
    );
    let path = trace_path(p.workload);
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(&path, tracer.to_jsonl()));
    let _ = match written {
        Ok(()) => writeln!(
            text,
            "trace: {} spans written to {}",
            tracer.spans.len(),
            path.display()
        ),
        Err(e) => writeln!(text, "trace: NOT written to {}: {e}", path.display()),
    };
    Ok(RunReport::finish(
        text,
        &violations,
        n_run,
        warm_up.failed,
        metrics,
    ))
}
