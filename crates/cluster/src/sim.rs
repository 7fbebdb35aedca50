//! The scheduler simulation.
//!
//! ## Single jobs ([`simulate_job`])
//!
//! ```text
//!   dispatch + driver result handling (serial, per launched task)
//! + waves over bounded slots of max(per-task time)       — §6.1 parallelism
//! + reduce (base + per-task + machines × result-streams) — §6.1 aggregation
//! ```
//!
//! Per-task time = launch overhead + scan time (cache-tier-weighted,
//! §6.2) + CPU inflated by the executor-memory spill factor (input
//! caching squeezes working memory, §6.2) — multiplied by a sampled
//! lognormal straggler factor (§6.3). Straggler mitigation launches 10%
//! clones (extra dispatch) and resolves each task at the faster of two
//! draws.
//!
//! **Piggyback** jobs (the consolidated error/diagnostic passes of
//! §5.3.1) ride the tasks of an already-dispatched scan: they pay no
//! dispatch, no per-task launch overhead, and no driver-result cost —
//! only their CPU waves and their own many-to-one reduce.
//!
//! ## Naive subquery sequences ([`simulate_jobs`])
//!
//! The §5.2 rewrite executes hundreds to tens of thousands of subqueries.
//! Their latency is modeled analytically as
//!
//! ```text
//!   Σ launched-tasks × (dispatch + driver-result)   — serial through the scheduler
//! + Σ task work × E[straggle] / slots               — parallel execution
//! + Σ per-job stage barrier                         — multi-task jobs pay a full
//!                                                     barrier; single-task
//!                                                     subqueries a reduced one
//! ```
//!
//! which is what makes 30,000 diagnostic subqueries cost minutes while
//! the consolidated pass costs seconds.

use rand::{Rng, RngExt};

use aqp_stats::dist::sample_lognormal;
use aqp_stats::rng::SeedStream;

use crate::config::{ClusterConfig, PhysicalTuning};
use crate::task::Job;

/// Seconds to read `input_mb` given the cache tier mix.
fn scan_seconds(input_mb: f64, tuning: &PhysicalTuning, cfg: &ClusterConfig) -> f64 {
    let f = tuning.cache_fraction.clamp(0.0, 1.0);
    input_mb * (f / cfg.mem_mb_s + (1.0 - f) / cfg.disk_mb_s)
}

/// Executor-memory spill factor (≥ 1) applied to CPU time.
///
/// Per machine: the input cache claims `cache_fraction × total_input /
/// machines` MB; execution demands `exec_mem_demand_mb` plus this job's
/// per-machine share of its intermediate data. The fraction of demand
/// that does not fit runs at the disk/memory speed ratio — producing the
/// Fig. 8(d) U-shape as caching rises.
fn spill_multiplier(job: &Job, tuning: &PhysicalTuning, cfg: &ClusterConfig) -> f64 {
    let machines = tuning.parallelism.min(cfg.machines).max(1) as f64;
    let f = tuning.cache_fraction.clamp(0.0, 1.0);
    let cache_per_machine = f * cfg.total_input_mb / cfg.machines as f64;
    let available = (cfg.ram_mb_per_machine - cache_per_machine).max(0.0);
    let demand = cfg.exec_mem_demand_mb + job.intermediate_mb / machines;
    if demand <= available || demand == 0.0 {
        return 1.0;
    }
    let spilled = ((demand - available) / demand).clamp(0.0, 1.0);
    1.0 + spilled * (cfg.mem_mb_s / cfg.disk_mb_s - 1.0) * 0.5
}

/// Clamp a configured straggler mean multiplier into a sane range.
///
/// A straggler *slows tasks down*, so the multiplier can never be below
/// 1: values in (0, 1) would make the busy span of a straggling task end
/// before its fault-free span does, and non-finite or non-positive
/// values (`NaN`, `±inf`, `0`, negatives — all representable in a
/// hand-written config) would push `ln()` to `-inf`/`NaN` and make the
/// sampled span end before it starts. The ceiling keeps the lognormal
/// mean — and hence every sampled latency — finite.
fn clamp_straggler_mult(m: f64) -> f64 {
    if m.is_nan() { 1.0 } else { m.clamp(1.0, 1e6) }
}

/// Expected straggler slowdown factor (used by the analytic sequence
/// model).
fn expected_straggle(cfg: &ClusterConfig) -> f64 {
    1.0 + cfg.straggler_prob.clamp(0.0, 1.0) * (clamp_straggler_mult(cfg.straggler_mean_mult) - 1.0)
}

/// Cached global-registry counters for the simulator
/// (`aqp.cluster.*`).
fn sim_counters() -> &'static (aqp_obs::Counter, aqp_obs::Counter, aqp_obs::Counter) {
    use std::sync::OnceLock;
    static C: OnceLock<(aqp_obs::Counter, aqp_obs::Counter, aqp_obs::Counter)> = OnceLock::new();
    C.get_or_init(|| {
        let reg = aqp_obs::MetricsRegistry::global();
        (
            reg.counter(aqp_obs::name::CLUSTER_JOBS),
            reg.counter(aqp_obs::name::CLUSTER_TASKS),
            reg.counter(aqp_obs::name::CLUSTER_STRAGGLER_TASKS),
        )
    })
}

/// Simulate one job, returning its latency in seconds.
pub fn simulate_job<R: Rng>(
    job: &Job,
    tuning: &PhysicalTuning,
    cfg: &ClusterConfig,
    rng: &mut R,
) -> f64 {
    if job.tasks.is_empty() {
        return 0.0;
    }
    let (jobs_c, tasks_c, stragglers_c) = sim_counters();
    jobs_c.inc();
    tasks_c.add(job.tasks.len() as u64);
    let machines = tuning.parallelism.min(cfg.machines).max(1);
    let slots = cfg.slots(tuning.parallelism);
    let spill = spill_multiplier(job, tuning, cfg);

    let clone_factor = if tuning.straggler_mitigation { 1.1 } else { 1.0 };
    let launched = (job.num_tasks() as f64 * clone_factor).ceil();

    // Serial scheduler + driver costs (skipped for piggyback passes).
    let serial_s = if job.piggyback {
        0.0
    } else {
        launched * (cfg.dispatch_ms_per_task + cfg.driver_result_ms_per_task) / 1000.0
    };
    let overhead_s = if job.piggyback { 0.0 } else { cfg.task_overhead_ms / 1000.0 };

    // Per-task completion times. Scheduled tasks draw sampled straggler
    // multipliers; piggyback passes are fine-grained accumulations
    // interleaved with the host scan, so they see only the expected
    // slowdown.
    let task_times: Vec<f64> = job
        .tasks
        .iter()
        .map(|t| {
            let nominal =
                overhead_s + scan_seconds(t.input_mb, tuning, cfg) + t.cpu_ms * spill / 1000.0;
            if job.piggyback {
                return nominal * expected_straggle(cfg);
            }
            let draw = |rng: &mut R| {
                if rng.random::<f64>() < cfg.straggler_prob {
                    let sigma = 0.6f64;
                    let mu = clamp_straggler_mult(cfg.straggler_mean_mult).ln() - 0.5 * sigma * sigma;
                    (nominal * sample_lognormal(rng, mu, sigma).max(1.0), true)
                } else {
                    (nominal, false)
                }
            };
            let (first, straggled) = draw(rng);
            if straggled {
                stragglers_c.inc();
            }
            if tuning.straggler_mitigation {
                first.min(draw(rng).0)
            } else {
                first
            }
        })
        .collect();

    // Waves over the available slots.
    let mut compute_s = 0.0;
    for wave in task_times.chunks(slots.max(1)) {
        compute_s += wave.iter().copied().fold(0.0f64, f64::max);
    }

    // Many-to-one reduce.
    let reduce_s = (cfg.reduce_base_ms
        + launched * cfg.reduce_ms_per_task
        + machines as f64 * job.result_streams as f64 * cfg.stream_result_ms)
        / 1000.0;

    serial_s + compute_s + reduce_s
}

/// Analytic latency of a back-to-back subquery sequence (the §5.2 naive
/// plans). Deterministic given the config (stragglers enter in
/// expectation); the `seeds` argument is kept for interface symmetry.
pub fn simulate_jobs(
    jobs: &[Job],
    tuning: &PhysicalTuning,
    cfg: &ClusterConfig,
    _seeds: SeedStream,
) -> f64 {
    let (jobs_c, tasks_c, _) = sim_counters();
    jobs_c.add(jobs.len() as u64);
    tasks_c.add(jobs.iter().map(|j| j.tasks.len() as u64).sum());
    let machines = tuning.parallelism.min(cfg.machines).max(1) as f64;
    let slots = cfg.slots(tuning.parallelism) as f64;
    let straggle = expected_straggle(cfg);
    let clone_factor = if tuning.straggler_mitigation { 1.1 } else { 1.0 };

    let mut serial_s = 0.0;
    let mut work_s = 0.0;
    let mut barrier_s = 0.0;
    for job in jobs {
        let spill = spill_multiplier(job, tuning, cfg);
        let launched = job.num_tasks() as f64 * clone_factor;
        serial_s +=
            launched * (cfg.dispatch_ms_per_task + cfg.driver_result_ms_per_task) / 1000.0;
        let task_work: f64 = job
            .tasks
            .iter()
            .map(|t| {
                cfg.task_overhead_ms / 1000.0
                    + scan_seconds(t.input_mb, tuning, cfg)
                    + t.cpu_ms * spill / 1000.0
            })
            .sum();
        work_s += task_work * straggle / slots;
        // Stage barrier: full for multi-task stages; tiny single-task
        // subqueries amortize theirs in the driver loop.
        let barrier_scale = if job.num_tasks() > 1 { 1.0 } else { 0.1 };
        barrier_s += barrier_scale
            * (cfg.reduce_base_ms
                + launched * cfg.reduce_ms_per_task
                + machines * job.result_streams as f64 * cfg.stream_result_ms)
            / 1000.0;
    }
    serial_s + work_s + barrier_s
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqp_stats::rng::rng_from_seed;
    use crate::task::Task;

    fn cfg() -> ClusterConfig {
        ClusterConfig::default()
    }

    fn no_straggle(mut c: ClusterConfig) -> ClusterConfig {
        c.straggler_prob = 0.0;
        c
    }

    #[test]
    fn empty_job_is_free() {
        let empty = Job { tasks: vec![], intermediate_mb: 0.0, result_streams: 1, piggyback: false };
        let mut rng = rng_from_seed(1);
        assert_eq!(simulate_job(&empty, &PhysicalTuning::tuned(), &cfg(), &mut rng), 0.0);
    }

    #[test]
    fn more_parallelism_helps_for_scan_heavy_work() {
        let c = no_straggle(cfg());
        let work = Job::split(20_000.0, 60_000.0, 400, 100.0);
        let mut lat = Vec::new();
        for m in [1usize, 5, 20] {
            let t = PhysicalTuning { parallelism: m, cache_fraction: 0.35, straggler_mitigation: false };
            let mut rng = rng_from_seed(2);
            lat.push(simulate_job(&work, &t, &c, &mut rng));
        }
        assert!(lat[0] > lat[1] && lat[1] > lat[2], "{lat:?}");
    }

    #[test]
    fn stream_heavy_piggyback_pays_for_parallelism() {
        // A consolidated diagnostic pass: moderate CPU, 300 result streams.
        let c = no_straggle(cfg());
        let job = Job::cpu_only(2_000.0, 200).with_streams(300).piggyback();
        let lat_at = |m: usize| {
            let t = PhysicalTuning { parallelism: m, cache_fraction: 0.35, straggler_mitigation: false };
            let mut rng = rng_from_seed(3);
            simulate_job(&job, &t, &c, &mut rng)
        };
        // The many-to-one term makes 100 machines worse than 20 for this
        // shape (Fig. 8(c)'s rising tail).
        assert!(lat_at(100) > lat_at(20), "100: {} vs 20: {}", lat_at(100), lat_at(20));
    }

    #[test]
    fn driver_serialization_scales_with_task_count() {
        let c = no_straggle(cfg());
        let t = PhysicalTuning { parallelism: 100, cache_fraction: 1.0, straggler_mitigation: false };
        let many = Job { tasks: vec![Task::cpu(1.0); 10_000], intermediate_mb: 0.0, result_streams: 1, piggyback: false };
        let few = Job { tasks: vec![Task::cpu(1.0); 10], intermediate_mb: 0.0, result_streams: 1, piggyback: false };
        let mut rng = rng_from_seed(3);
        let t_many = simulate_job(&many, &t, &c, &mut rng);
        let t_few = simulate_job(&few, &t, &c, &mut rng);
        assert!(t_many > 10.0 * t_few, "many {t_many} few {t_few}");
        // At least the serial driver cost.
        assert!(t_many > 10_000.0 * c.driver_result_ms_per_task / 1000.0);
    }

    #[test]
    fn piggyback_skips_serial_costs() {
        let c = no_straggle(cfg());
        let t = PhysicalTuning { parallelism: 100, cache_fraction: 1.0, straggler_mitigation: false };
        let normal = Job::cpu_only(10.0, 200);
        let pig = Job::cpu_only(10.0, 200).piggyback();
        let mut rng = rng_from_seed(4);
        let tn = simulate_job(&normal, &t, &c, &mut rng);
        let tp = simulate_job(&pig, &t, &c, &mut rng);
        assert!(tp < tn * 0.5, "piggyback {tp} vs normal {tn}");
    }

    #[test]
    fn caching_exhibits_u_shape() {
        let c = no_straggle(cfg());
        let job = Job::split(20_000.0, 40_000.0, 313, 800.0);
        let lat_at = |frac: f64| {
            let t = PhysicalTuning { parallelism: 20, cache_fraction: frac, straggler_mitigation: false };
            let mut rng = rng_from_seed(5);
            simulate_job(&job, &t, &c, &mut rng)
        };
        let l0 = lat_at(0.0);
        let l40 = lat_at(0.4);
        let l100 = lat_at(1.0);
        assert!(l40 < l0, "l40 {l40} vs l0 {l0}");
        assert!(l40 < l100, "l40 {l40} vs l100 {l100}");
    }

    #[test]
    fn straggler_mitigation_reduces_tail_latency() {
        let mut c = cfg();
        c.straggler_prob = 0.2;
        let job = Job::split(5_000.0, 5_000.0, 200, 10.0);
        let avg = |mitigate: bool| {
            let t = PhysicalTuning { parallelism: 100, cache_fraction: 0.35, straggler_mitigation: mitigate };
            let mut total = 0.0;
            for s in 0..30 {
                let mut rng = rng_from_seed(100 + s);
                total += simulate_job(&job, &t, &c, &mut rng);
            }
            total / 30.0
        };
        let with = avg(true);
        let without = avg(false);
        assert!(with < without, "with {with} vs without {without}");
    }

    #[test]
    fn subquery_sequences_pay_serial_and_barrier_costs() {
        let c = no_straggle(cfg());
        let t = PhysicalTuning { parallelism: 100, cache_fraction: 1.0, straggler_mitigation: false };
        // 1000 single-task subqueries.
        let tiny = Job::cpu_only(1.0, 1);
        let jobs: Vec<Job> = vec![tiny; 1000];
        let total = simulate_jobs(&jobs, &t, &c, SeedStream::new(5));
        let serial_floor =
            1000.0 * (c.dispatch_ms_per_task + c.driver_result_ms_per_task) / 1000.0;
        assert!(total > serial_floor, "total {total} vs floor {serial_floor}");
        // Multi-task jobs pay full barriers.
        let multi = Job::cpu_only(10.0, 8);
        let jobs: Vec<Job> = vec![multi; 100];
        let total_multi = simulate_jobs(&jobs, &t, &c, SeedStream::new(6));
        assert!(total_multi > 100.0 * c.reduce_base_ms / 1000.0);
    }

    #[test]
    fn sequence_model_is_deterministic() {
        let jobs = vec![Job::split(100.0, 100.0, 4, 1.0); 20];
        let t = PhysicalTuning::tuned();
        let a = simulate_jobs(&jobs, &t, &cfg(), SeedStream::new(7));
        let b = simulate_jobs(&jobs, &t, &cfg(), SeedStream::new(8));
        assert_eq!(a, b); // seeds don't matter: analytic model
    }

    #[test]
    fn scan_time_decreases_with_cache_fraction() {
        let c = no_straggle(cfg());
        let job = Job::split(10_000.0, 0.0, 100, 0.0);
        let mut last = f64::MAX;
        for step in 0..=10 {
            let f = step as f64 / 10.0;
            let t = PhysicalTuning { parallelism: 100, cache_fraction: f, straggler_mitigation: false };
            let mut rng = rng_from_seed(9);
            let lat = simulate_job(&job, &t, &c, &mut rng);
            assert!(lat <= last + 1e-9, "scan-only latency rose at f={f}: {lat} > {last}");
            last = lat;
        }
    }

    #[test]
    fn latency_monotone_in_cpu_work() {
        let c = no_straggle(cfg());
        let t = PhysicalTuning::tuned();
        let mut last = 0.0;
        for cpu in [0.0, 1_000.0, 10_000.0, 100_000.0] {
            let job = Job::split(1_000.0, cpu, 64, 0.0);
            let mut rng = rng_from_seed(10);
            let lat = simulate_job(&job, &t, &c, &mut rng);
            assert!(lat >= last, "latency fell as cpu grew: {lat} < {last}");
            last = lat;
        }
    }

    #[test]
    fn pathological_straggler_mult_never_shrinks_latency() {
        // Regression: extreme or non-finite slowdown factors used to push
        // the lognormal mean to -inf/NaN, letting a straggler's busy span
        // end before it starts. The clamp keeps every draw ≥ the
        // fault-free time and every latency finite.
        let job = Job::split(1_000.0, 1_000.0, 64, 10.0);
        let t = PhysicalTuning { parallelism: 20, cache_fraction: 0.35, straggler_mitigation: false };
        let baseline = {
            let mut c = cfg();
            c.straggler_prob = 0.0;
            let mut rng = rng_from_seed(11);
            simulate_job(&job, &t, &c, &mut rng)
        };
        for mult in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN, 0.0, -3.0, 0.25, 1e308] {
            let mut c = cfg();
            c.straggler_prob = 1.0;
            c.straggler_mean_mult = mult;
            let mut rng = rng_from_seed(11);
            let lat = simulate_job(&job, &t, &c, &mut rng);
            assert!(lat.is_finite(), "non-finite latency for mult {mult}");
            assert!(
                lat >= baseline - 1e-9,
                "straggling finished before fault-free for mult {mult}: {lat} < {baseline}"
            );
            let e = expected_straggle(&c);
            assert!(e.is_finite() && e >= 1.0, "expected straggle {e} for mult {mult}");
        }
    }

    #[test]
    fn determinism_under_seed() {
        let job = Job::split(1_000.0, 1_000.0, 64, 10.0);
        let t = PhysicalTuning::tuned();
        let a = {
            let mut rng = rng_from_seed(7);
            simulate_job(&job, &t, &cfg(), &mut rng)
        };
        let b = {
            let mut rng = rng_from_seed(7);
            simulate_job(&job, &t, &cfg(), &mut rng)
        };
        assert_eq!(a, b);
    }
}
