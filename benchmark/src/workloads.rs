//! The four workloads: input sizes, session set-up and seeded query
//! lists.
//!
//! Everything a run feeds the engine derives from `--seed`: the table,
//! the sample seeds and the query parameters. What does *not* vary with
//! the seed is the shape of each list — how many queries of which kind —
//! because answer modes differ several-fold in latency and a list whose
//! kind histogram moved with the seed would move every percentile with it.

use aqp_audit::AuditConfig;
use aqp_core::{AqpSession, ContProfConfig, IntrospectConfig, SessionConfig};
use aqp_obs::{Clock, FlightRecorderConfig};
use aqp_slo::SloConfig;
use aqp_stats::rng::SeedStream;
use aqp_storage::Table;
use aqp_workload::conviva_sessions_table;

use crate::spec::Workload;

/// The table every workload queries.
pub const TABLE: &str = "sessions";

/// Partitions of the base table (and, through it, of every sample).
const PARTITIONS: usize = 16;

/// Input scale. `Quick` is a smoke test for CI: a fifth of the rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes every reported number is measured at.
    Full,
    /// A fifth of the rows and sample rows.
    Quick,
}

/// Rows of the base table and of the samples a workload builds.
#[derive(Debug, Clone, PartialEq)]
pub struct Sizing {
    /// Base-table rows.
    pub rows: usize,
    /// Uniform sample sizes.
    pub uniform: Vec<usize>,
    /// Stratified sample: (column, rows per stratum).
    pub stratified: Option<(&'static str, usize)>,
}

impl Sizing {
    /// The sizes of `workload` at `scale`.
    ///
    /// The driver gives 92 runs, their set-ups and two builds less than an
    /// hour, so a run has about half a minute: twenty seconds measured,
    /// the rest for input generation, the oracle and the warm-up pass. At
    /// least five whole passes must fit (see `run::QUALITY_PASSES`), so a
    /// pass over a list has to stay under four seconds. Two million base
    /// rows fit none of this on the two-core runner: 1.2 s to generate,
    /// 2.9 s per `build_samples`, 0.3 s per exact query.
    pub fn of(workload: Workload, scale: Scale) -> Sizing {
        let (rows, uniform, stratified): (usize, &[usize], _) = match workload {
            // Two and a half base rows per sample row: a refused query
            // costs three to four times an accepted one, and the fallbacks
            // take two fifths of a pass.
            Workload::ClosedFormScan => (500_000, &[200_000], None),
            // A small sample keeps a query over K=100 replicates and 300
            // diagnostic subsamples near 130 ms, and a small base table
            // keeps the exact fallback, which two fifths of these queries
            // take, a tenth of that, so that the list measures the
            // bootstrap whichever way the verdicts fall.
            Workload::BootstrapUdf => (100_000, &[20_000], None),
            // Nearly every query of these two runs the exact path over the
            // base table as well.
            Workload::GroupbyFanout => (250_000, &[50_000], Some(("city", 3_125))),
            Workload::PaperMixObserved => (250_000, &[12_500, 25_000, 50_000], None),
        };
        let div = match scale {
            Scale::Full => 1,
            Scale::Quick => 5,
        };
        Sizing {
            rows: rows / div,
            uniform: uniform.iter().map(|n| n / div).collect(),
            stratified: stratified.map(|(col, n)| (col, n / div)),
        }
    }
}

/// Generate the base table for `seed`.
pub fn generate_table(sizing: &Sizing, seed: u64) -> Table {
    conviva_sessions_table(sizing.rows, PARTITIONS, SeedStream::new(seed).seed(0xDA7A))
}

/// Which observer hooks a session carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Observers {
    /// Continuous accuracy auditing at a 10 % sample rate.
    pub audit: bool,
    /// SLO engine and flight recorder.
    pub slo: bool,
    /// Continuous profiling.
    pub contprof: bool,
    /// Self-hosted telemetry tables.
    pub introspect: bool,
}

impl Observers {
    /// Every hook off (the `SessionConfig` default).
    pub const NONE: Observers = Observers {
        audit: false,
        slo: false,
        contprof: false,
        introspect: false,
    };
    /// Every hook on, sinks in memory.
    pub const ALL: Observers = Observers {
        audit: true,
        slo: true,
        contprof: true,
        introspect: true,
    };

    /// The hooks `workload` runs with.
    pub fn of(workload: Workload) -> Observers {
        match workload {
            Workload::PaperMixObserved => Observers::ALL,
            _ => Observers::NONE,
        }
    }
}

/// The session configuration of every workload: one worker thread (two
/// made queries/s swing several times wider on a two-core shared runner),
/// the paper's K = 100 and p = 100, 95 % confidence.
pub fn session_config(seed: u64, observers: Observers) -> SessionConfig {
    SessionConfig {
        seed,
        threads: 1,
        bootstrap_k: 100,
        diagnostic_p: 100,
        default_confidence: 0.95,
        audit: observers.audit.then(|| AuditConfig {
            seed,
            ..AuditConfig::default()
        }),
        slo: observers.slo.then(|| {
            SloConfig::new()
                .with_class("dashboards", "GROUP BY")
                .with_latency(SloConfig::DEFAULT_CLASS, 0.9, 2_000.0)
                .with_coverage(SloConfig::DEFAULT_CLASS, 0.9)
                .with_recorder(FlightRecorderConfig {
                    capacity: 32,
                    path: None,
                })
        }),
        contprof: observers
            .contprof
            .then(|| ContProfConfig::new().with_class("dashboards", "GROUP BY")),
        introspect: observers.introspect.then(|| {
            IntrospectConfig::new()
                .with_seed(seed)
                .with_class("dashboards", "GROUP BY")
        }),
        ..SessionConfig::default()
    }
}

/// Wall time of one set-up, by step.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// `register_table`.
    pub register_s: f64,
    /// `build_samples` (all uniform sizes).
    pub uniform_s: f64,
    /// `build_stratified_sample` (0 when the workload has none).
    pub stratified_s: f64,
}

impl SetupTimes {
    /// The whole set-up.
    pub fn total_s(&self) -> f64 {
        self.register_s + self.uniform_s + self.stratified_s
    }

    /// The same times on a machine `factor` times faster (see
    /// `reference.rs`).
    pub fn at_speed(&self, factor: f64) -> SetupTimes {
        SetupTimes {
            register_s: self.register_s / factor,
            uniform_s: self.uniform_s / factor,
            stratified_s: self.stratified_s / factor,
        }
    }
}

/// Create a session over `table` and build its samples, timing each step.
/// The same arguments give the same session, so a run can set up several
/// times and keep any one of them.
pub fn set_up(
    table: &Table,
    sizing: &Sizing,
    config: SessionConfig,
    clock: &Clock,
) -> Result<(AqpSession, SetupTimes), String> {
    let sample_seed = SeedStream::new(config.seed).seed(0x5A3F);
    let session = AqpSession::new(config);
    let mut times = SetupTimes::default();
    let (r, d) = clock.time(|| session.register_table(table.clone()));
    r.map_err(|e| format!("register_table: {e}"))?;
    times.register_s = d.as_secs_f64();
    let (r, d) = clock.time(|| session.build_samples(TABLE, &sizing.uniform, sample_seed));
    r.map_err(|e| format!("build_samples: {e}"))?;
    times.uniform_s = d.as_secs_f64();
    if let Some((column, per_stratum)) = sizing.stratified {
        let (r, d) =
            clock.time(|| session.build_stratified_sample(TABLE, column, per_stratum, sample_seed));
        r.map_err(|e| format!("build_stratified_sample: {e}"))?;
        times.stratified_s = d.as_secs_f64();
    }
    Ok((session, times))
}

/// One query of a list.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchQuery {
    /// What kind of query this is (its SELECT list, or a label): the
    /// unit the mode histogram is printed by.
    pub kind: String,
    /// The SQL the engine receives.
    pub sql: String,
}

/// How much of the table a filter keeps. The diagnostic judges error bars
/// on subsamples a hundredth of the sample and smaller, so the width of
/// the filter decides how many values those hold and, with the aggregate,
/// which way the verdict leans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Width {
    /// 70 to 90 % of the rows: benign bootstrap-only aggregates are
    /// accepted nine times in ten even on a 20 k-row sample.
    Broad,
    /// 33 to 66 % of the rows: closed-form aggregates over benign columns
    /// are accepted seven times in eight.
    Wide,
    /// 5 to 16 % of the rows — the selectivities of the
    /// `aqp_workload::traces` filter palette ("production OLAP filters are
    /// selective"). The subsamples hold a handful of values and nearly
    /// every query is refused.
    Narrow,
}

/// Which column(s) a filter constrains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Column {
    City,
    Mobile,
    Time,
    Site,
    Bitrate,
}

/// The filter kinds, in the order lists cycle through them.
const FILTER_KINDS: [Column; 5] = [
    Column::City,
    Column::Mobile,
    Column::Time,
    Column::Site,
    Column::Bitrate,
];

/// Cities by falling share of the rows (Zipf(1.1): NYC 33 %, LA 15 %,
/// Chicago 10 %, ... Miami 1.6 %) and sites likewise (Zipf(1.3): cdn-east
/// 46 %, cdn-west 19 %, cdn-eu 11 %, ... edge-17 3 %).
const CITIES: [&str; 16] = [
    "NYC",
    "LA",
    "Chicago",
    "Houston",
    "Phoenix",
    "Philadelphia",
    "SanAntonio",
    "SanDiego",
    "Dallas",
    "Austin",
    "SF",
    "Seattle",
    "Denver",
    "Boston",
    "Portland",
    "Miami",
];
const SITES: [&str; 8] = [
    "cdn-east", "cdn-west", "cdn-eu", "cdn-apac", "origin-1", "origin-2", "edge-9", "edge-17",
];

/// Seeded `WHERE` clauses over the columns the `aqp_workload::traces`
/// palette filters on. The seed draws every threshold and category, so no
/// two queries of a list select the same rows and their verdicts are not
/// copies of one another; the draws of one (width, column) pair come from
/// one range, so a list of several dozen is the same amount of work on
/// every seed.
struct Filters {
    seeds: SeedStream,
    drawn: u64,
}

impl Filters {
    fn new(seed: u64) -> Filters {
        Filters {
            seeds: SeedStream::new(seed),
            drawn: 0,
        }
    }

    /// The next seeded number in `lo..hi`.
    fn draw(&mut self, lo: u64, hi: u64) -> u64 {
        self.drawn += 1;
        lo + self.seeds.seed(self.drawn) % (hi - lo)
    }

    fn pick<'a>(&mut self, alternatives: &[&'a str]) -> &'a str {
        alternatives[self.draw(0, alternatives.len() as u64) as usize]
    }

    /// A `WHERE` clause of `width` over `column`. The share of the rows it
    /// keeps is in brackets, from the generator's distributions: 41 %
    /// mobile, time lognormal(4, 0.8), bitrate normal(2500, 600).
    fn where_clause(&mut self, width: Width, column: Column) -> String {
        let predicate = match (width, column) {
            // [75 .. 83 %]
            (Width::Broad, Column::City) => {
                format!("city <> 'LA' AND city <> '{}'", self.pick(&CITIES[2..]))
            }
            // [74 .. 85 %]
            (Width::Broad, Column::Mobile) => {
                format!("is_mobile = false OR bitrate > {}", self.draw(2_300, 2_700))
            }
            // [86 .. 70 %]
            (Width::Broad, Column::Time) => format!("time > {}", self.draw(23, 36)),
            // [76 .. 89 %]
            (Width::Broad, Column::Site) => format!(
                "site <> '{}' AND site <> '{}'",
                self.pick(&SITES[1..4]),
                self.pick(&SITES[4..])
            ),
            // [86 .. 70 %]
            (Width::Broad, Column::Bitrate) => format!("bitrate > {}", self.draw(1_850, 2_200)),
            // [35 .. 48 %]
            (Width::Wide, Column::City) => {
                format!("city = 'NYC' OR city = '{}'", self.pick(&CITIES[1..]))
            }
            // [34 .. 40 %] mobile, [50 .. 58 %] not
            (Width::Wide, Column::Mobile) => format!(
                "is_mobile = {} AND bitrate > {}",
                self.pick(&["true", "false"]),
                self.draw(1_300, 1_900)
            ),
            // [65 .. 38 %]
            (Width::Wide, Column::Time) => format!("time > {}", self.draw(40, 70)),
            // [49 .. 65 %]
            (Width::Wide, Column::Site) => {
                format!("site = 'cdn-east' OR site = '{}'", self.pick(&SITES[1..]))
            }
            // [66 .. 40 %]
            (Width::Wide, Column::Bitrate) => format!("bitrate > {}", self.draw(2_250, 2_650)),
            // [7 .. 13 %]
            (Width::Narrow, Column::City) => format!(
                "city = '{}' OR city = '{}'",
                self.pick(&CITIES[2..5]),
                self.pick(&CITIES[8..])
            ),
            // [13 %]
            (Width::Narrow, Column::Mobile) => format!(
                "is_mobile = true AND city = 'NYC' AND bitrate > {}",
                self.draw(1_300, 1_500)
            ),
            // [10 .. 5.5 %]
            (Width::Narrow, Column::Time) => format!("time > {}", self.draw(150, 200)),
            // [11 .. 16 %]
            (Width::Narrow, Column::Site) => format!(
                "site = '{}' OR site = '{}'",
                self.pick(&SITES[2..4]),
                self.pick(&SITES[5..])
            ),
            // [10.5 .. 5.7 %]
            (Width::Narrow, Column::Bitrate) => format!("bitrate > {}", self.draw(3_250, 3_450)),
        };
        format!("WHERE {predicate}")
    }
}

fn closed_form_scan(seed: u64) -> Vec<BenchQuery> {
    // Aggregate x column pairs whose closed-form bars the diagnostic
    // accepts on this data seven times in eight ...
    const ACCEPTED: [&str; 6] = [
        "AVG(time)",
        "COUNT(*)",
        "SUM(bitrate)",
        "AVG(bitrate)",
        "VARIANCE(bitrate)",
        "SUM(time)",
    ];
    // ... and two it refuses every time (second moments of heavy tails).
    // Which of the accepted kind it refuses is noise that differs from
    // seed to seed: 0 to 28 % of them. A refused query goes on to scan the
    // base table and costs three to four times as much, so on a list of
    // the accepted kind alone the 90th percentile would report the sample
    // scan on one seed and the base-table scan on the next. Every fifth
    // query is therefore of the refused kind: between a fifth and two
    // fifths of the list falls back on every seed, p50 is always a sample
    // scan and p90 always a fallback.
    const REFUSED: [&str; 2] = ["VARIANCE(time)", "STDDEV(bytes)"];
    let mut filters = Filters::new(seed);
    let mut accepted = 0;
    (0..60)
        .map(|i| {
            let agg = if i % 5 == 2 {
                REFUSED[(i / 5) % REFUSED.len()]
            } else {
                accepted += 1;
                ACCEPTED[(accepted - 1) % ACCEPTED.len()]
            };
            // Stride 1 against the aggregates' stride: every (aggregate,
            // column) pair comes up before any repeats.
            let filter =
                filters.where_clause(Width::Wide, FILTER_KINDS[(i + i / 6) % FILTER_KINDS.len()]);
            BenchQuery {
                kind: agg.to_string(),
                sql: format!("SELECT {agg} FROM {TABLE} {filter}"),
            }
        })
        .collect()
}

fn nested_sql(filter: &str) -> String {
    format!("SELECT AVG(s) FROM (SELECT SUM(bytes) AS s FROM {TABLE} {filter} GROUP BY user_id)")
}

const NESTED_KIND: &str = "nested AVG(SUM(bytes))";

fn bootstrap_udf(seed: u64) -> Vec<BenchQuery> {
    // (SELECT list, filter width), nine to a round. The first five lean
    // towards acceptance under broad filters, the percentiles and the
    // nested query are refused, the three-aggregate query is answered in
    // part. Trimmed means are the slowest kind by half; at two in nine
    // they hold the 90th percentile on every seed.
    const ROUND: [(&str, Width); 9] = [
        ("trimmed_mean(bitrate)", Width::Broad),
        ("geo_mean(time)", Width::Broad),
        ("PERCENTILE(time, 50)", Width::Wide),
        ("cov(bitrate)", Width::Broad),
        (NESTED_KIND, Width::Wide),
        ("trimmed_mean(time)", Width::Broad),
        ("AVG(time), PERCENTILE(time, 50), COUNT(*)", Width::Wide),
        ("geo_mean(bitrate)", Width::Broad),
        ("PERCENTILE(time, 90)", Width::Wide),
    ];
    let mut filters = Filters::new(seed);
    (0..27)
        .map(|i| {
            let (select, width) = ROUND[i % ROUND.len()];
            let filter =
                filters.where_clause(width, FILTER_KINDS[(i + i / 9) % FILTER_KINDS.len()]);
            let sql = if select == NESTED_KIND {
                nested_sql(&filter)
            } else {
                format!("SELECT {select} FROM {TABLE} {filter}")
            };
            BenchQuery {
                kind: select.to_string(),
                sql,
            }
        })
        .collect()
}

fn groupby_fanout(seed: u64) -> Vec<BenchQuery> {
    let mut filters = Filters::new(seed);
    // (group column, SELECT aggregates, filter kind). `city` (16 groups)
    // is served from the stratified sample, `site` has 8 groups,
    // `is_mobile` 2. A filter never constrains the column it is paired
    // with, so every query keeps its full fan-out. The reported
    // percentiles must not sit next to a cliff in the list's costs: one
    // query in 24 groups by `user_id` (rows / 50 groups, several times the
    // cost of any other; a second one would put that cliff at the 92nd
    // percentile), and four unfiltered three-aggregate queries over `city`
    // cost alike and more than the rest, so the 90th percentile lands
    // among them on every seed.
    let shapes: [(&str, &str, Option<Column>); 24] = [
        ("city", "AVG(time)", None),
        ("site", "AVG(time), COUNT(*)", None),
        ("city", "COUNT(*), AVG(bitrate)", Some(Column::Time)),
        ("city", "AVG(time), SUM(bitrate), COUNT(*)", None),
        ("is_mobile", "AVG(bitrate), SUM(time), COUNT(*)", None),
        ("site", "AVG(time)", Some(Column::City)),
        ("city", "SUM(bitrate)", None),
        ("user_id", "AVG(time)", None),
        ("site", "AVG(bitrate), COUNT(*)", Some(Column::Time)),
        ("city", "AVG(bitrate), SUM(time), COUNT(*)", None),
        ("city", "AVG(time), COUNT(*)", Some(Column::Mobile)),
        ("site", "VARIANCE(bitrate), COUNT(*)", None),
        ("city", "AVG(bitrate)", Some(Column::Site)),
        ("is_mobile", "AVG(time), COUNT(*)", Some(Column::Bitrate)),
        ("city", "VARIANCE(bitrate), AVG(time), COUNT(*)", None),
        ("city", "SUM(time)", Some(Column::Bitrate)),
        ("site", "COUNT(*), SUM(bitrate)", Some(Column::Mobile)),
        ("site", "AVG(bitrate)", Some(Column::Bitrate)),
        ("city", "COUNT(*)", Some(Column::Time)),
        ("city", "SUM(time), SUM(bitrate), AVG(time)", None),
        ("site", "SUM(time), AVG(time)", Some(Column::City)),
        ("city", "VARIANCE(bitrate)", Some(Column::Mobile)),
        ("site", "AVG(time), COUNT(*)", Some(Column::Time)),
        ("site", "SUM(time)", None),
    ];
    shapes
        .into_iter()
        .map(|(column, aggs, filter)| {
            let filter = filter
                .map(|k| format!(" {}", filters.where_clause(Width::Wide, k)))
                .unwrap_or_default();
            BenchQuery {
                kind: format!("{column}: {aggs}"),
                sql: format!("SELECT {column}, {aggs} FROM {TABLE}{filter} GROUP BY {column}"),
            }
        })
        .collect()
}

fn paper_mix_observed(seed: u64) -> Vec<BenchQuery> {
    // The SELECT lists of `aqp_workload::traces`: QSet-1 (closed forms
    // apply) and QSet-2 (bootstrap only), 12 + 20 = 37.5 % closed-form
    // against the paper's 37.21 %, each kind the same number of times for
    // every seed. The traces themselves draw kind and filter at random;
    // thirty-two queries of theirs are a different amount of work on
    // every seed.
    const CLOSED_FORM: [&str; 5] = [
        "AVG(time)",
        "SUM(bytes)",
        "COUNT(*)",
        "VARIANCE(bitrate)",
        "STDDEV(time)",
    ];
    const BOOTSTRAP_ONLY: [&str; 5] = [
        "MAX(bytes)",
        "PERCENTILE(time, 95)",
        "MIN(time)",
        "trimmed_mean(time)",
        "AVG(time), MAX(time), COUNT(*)",
    ];
    let mut filters = Filters::new(seed);
    let (mut closed, mut bootstrap) = (0, 0);
    (0..32)
        .map(|i| {
            // The traces' selective filters on every other query; wide
            // ones, under which the benign kinds are approximated, on the
            // rest.
            let width = if i % 2 == 0 {
                Width::Wide
            } else {
                Width::Narrow
            };
            let filter = filters.where_clause(width, FILTER_KINDS[i % FILTER_KINDS.len()]);
            let (kind, mut sql) = if matches!(i % 8, 0 | 3 | 5) {
                closed += 1;
                let select = CLOSED_FORM[(closed - 1) % CLOSED_FORM.len()];
                (select, format!("SELECT {select} FROM {TABLE} {filter}"))
            } else {
                bootstrap += 1;
                // Every fourth bootstrap-only query is nested. These five
                // and the three trimmed means are the slowest quarter of
                // the list and cost alike, so the 90th percentile lands
                // among them on every seed, not on the step down to the
                // next kind.
                if bootstrap % 4 == 0 {
                    (NESTED_KIND, nested_sql(&filter))
                } else {
                    let select = BOOTSTRAP_ONLY[(bootstrap - 1) % BOOTSTRAP_ONLY.len()];
                    (select, format!("SELECT {select} FROM {TABLE} {filter}"))
                }
            };
            // Every third query states an error bound, so the pilot and
            // the sample ladder are exercised.
            if i % 3 == 2 {
                let percent = [2, 5, 10][(i / 3) % 3];
                sql = format!("{sql} WITHIN {percent}% ERROR AT CONFIDENCE 95%");
            }
            BenchQuery {
                kind: kind.to_string(),
                sql,
            }
        })
        .collect()
}

/// The query list of `workload` for `seed`.
pub fn query_list(workload: Workload, seed: u64) -> Vec<BenchQuery> {
    let seed = SeedStream::new(seed).seed(0x0115);
    match workload {
        Workload::ClosedFormScan => closed_form_scan(seed),
        Workload::BootstrapUdf => bootstrap_udf(seed),
        Workload::GroupbyFanout => groupby_fanout(seed),
        Workload::PaperMixObserved => paper_mix_observed(seed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqp_sql::parse_query;

    #[test]
    fn lists_repeat_per_seed_and_differ_across_seeds() {
        for w in Workload::ALL {
            let a = query_list(w, 1);
            assert_eq!(a, query_list(w, 1), "{}", w.name());
            assert_ne!(a, query_list(w, 2), "{}", w.name());
        }
    }

    #[test]
    fn list_shape_does_not_depend_on_the_seed() {
        for w in Workload::ALL {
            let kinds =
                |seed| -> Vec<String> { query_list(w, seed).into_iter().map(|q| q.kind).collect() };
            let first = kinds(1);
            for seed in 2..8 {
                assert_eq!(first, kinds(seed), "{} seed {seed}", w.name());
            }
        }
    }

    #[test]
    fn every_query_parses_and_lands_in_its_estimation_class() {
        for seed in 1..4 {
            let scan = query_list(Workload::ClosedFormScan, seed);
            for q in &scan {
                assert!(
                    parse_query(&q.sql).unwrap().closed_form_applicable(),
                    "{}",
                    q.sql
                );
            }
            // A fifth of the list is of the kind the diagnostic refuses.
            let refused = |q: &&BenchQuery| q.kind == "VARIANCE(time)" || q.kind == "STDDEV(bytes)";
            assert_eq!((scan.len(), scan.iter().filter(refused).count()), (60, 12));
            let udf = query_list(Workload::BootstrapUdf, seed);
            for q in &udf {
                assert!(
                    !parse_query(&q.sql).unwrap().closed_form_applicable(),
                    "{}",
                    q.sql
                );
            }
            // The slowest kind holds more than the slowest tenth.
            let trimmed = udf.iter().filter(|q| q.kind.starts_with("trimmed_mean"));
            assert_eq!((udf.len(), trimmed.count()), (27, 6));
            for q in query_list(Workload::GroupbyFanout, seed) {
                assert_eq!(parse_query(&q.sql).unwrap().group_by.len(), 1, "{}", q.sql);
            }
            let mix = query_list(Workload::PaperMixObserved, seed);
            let parsed: Vec<_> = mix.iter().map(|q| parse_query(&q.sql).unwrap()).collect();
            assert_eq!(parsed.len(), 32);
            assert_eq!(
                parsed.iter().filter(|q| q.closed_form_applicable()).count(),
                12
            );
            assert_eq!(
                parsed.iter().filter(|q| q.error_clause.is_some()).count(),
                10
            );
            assert_eq!(parsed.iter().filter(|q| q.is_nested()).count(), 5);
        }
    }

    #[test]
    fn quick_scale_is_a_fifth() {
        for w in Workload::ALL {
            let (full, quick) = (Sizing::of(w, Scale::Full), Sizing::of(w, Scale::Quick));
            assert_eq!(full.rows, 5 * quick.rows);
            assert_eq!(full.uniform.len(), quick.uniform.len());
        }
    }
}
