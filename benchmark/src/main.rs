//! `aqp-benchmark` — wall-clock end-to-end and per-layer benchmark of
//! `AqpSession::execute` on four named workloads.
//!
//! ```text
//! aqp-benchmark --workload <name> --seed <n> [--seconds <s>] [--trace 0|1] [--quick]
//! aqp-benchmark --workload <name|all> --runs <N> --out <FILE> [--seed <n>] [--quick]
//! aqp-benchmark --compare <A.json> <B.json>
//! aqp-benchmark --manifest
//! ```
//!
//! A run prints a report and, as the last line of standard output, one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`. See
//! `README.md` next to this crate.

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod compare;
mod json;
mod oracle;
mod procfs;
mod reference;
mod run;
mod spec;
mod summary;
mod traced;
mod workloads;

use std::process::ExitCode;

use run::RunArgs;
use spec::Workload;
use workloads::Scale;

const USAGE: &str = "usage:
  aqp-benchmark --workload <name> --seed <n> [--seconds <s>] [--trace 0|1] [--quick]
      one run; --trace 1 (or --traced) replays each query stage by stage and
      prints the per-layer metrics instead of the end-to-end ones
  aqp-benchmark --workload <name|all> --runs <N> --out <FILE> [--seed <n>] [--seconds <s>] [--quick]
      N runs per workload, each in its own process, with seeds n, n+1, ...;
      FILE gets every run plus median and quartiles per metric
  aqp-benchmark --compare <A.json> <B.json>
      judge B against A with the bounds of BENCHMARK.json
  aqp-benchmark --manifest
      print BENCHMARK.json
workloads: closed_form_scan bootstrap_udf groupby_fanout paper_mix_observed";

/// The parsed command line.
#[derive(Debug, Default)]
struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    traced: bool,
    quick: bool,
    runs: Option<usize>,
    out: Option<String>,
    compare: Option<(String, String)>,
    manifest: bool,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        seed: 1,
        ..Cli::default()
    };
    let mut it = args.iter();
    let value = |it: &mut std::slice::Iter<'_, String>, flag: &str| -> Result<String, String> {
        it.next()
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workload" => cli.workload = Some(value(&mut it, arg)?),
            "--seed" => {
                cli.seed = value(&mut it, arg)?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value(&mut it, arg)?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=3_600.0).contains(&s) {
                    return Err("--seconds must lie in 0..=3600".into());
                }
                cli.seconds = Some(s);
            }
            "--trace" => {
                cli.traced = match value(&mut it, arg)?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                };
            }
            "--traced" => cli.traced = true,
            "--quick" => cli.quick = true,
            "--runs" => {
                let n: usize = value(&mut it, arg)?
                    .parse()
                    .map_err(|e| format!("--runs: {e}"))?;
                if !(1..=1_000).contains(&n) {
                    return Err("--runs must lie in 1..=1000".into());
                }
                cli.runs = Some(n);
            }
            "--out" => cli.out = Some(value(&mut it, arg)?),
            "--compare" => cli.compare = Some((value(&mut it, arg)?, value(&mut it, arg)?)),
            "--manifest" => cli.manifest = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(cli)
}

fn workloads_named(name: &str) -> Result<Vec<Workload>, String> {
    if name == "all" {
        return Ok(Workload::ALL.to_vec());
    }
    Workload::from_name(name)
        .map(|w| vec![w])
        .ok_or_else(|| format!("unknown workload `{name}`"))
}

fn dispatch(cli: Cli) -> Result<bool, String> {
    if cli.manifest {
        print!("{}", spec::manifest_json());
        return Ok(true);
    }
    if let Some((a, b)) = &cli.compare {
        return compare::compare_files(a, b);
    }
    let name = cli.workload.as_deref().ok_or("--workload is required")?;
    let scale = if cli.quick { Scale::Quick } else { Scale::Full };
    // A quick run makes one pass and stops.
    let seconds = cli.seconds.unwrap_or(if cli.quick {
        0.0
    } else {
        spec::RUN_SECONDS as f64
    });
    if let Some(runs) = cli.runs {
        let out = cli.out.as_deref().ok_or("--runs needs --out <FILE>")?;
        return compare::run_many(
            &workloads_named(name)?,
            runs,
            cli.seed,
            seconds,
            cli.quick,
            out,
        );
    }
    let workload = Workload::from_name(name)
        .ok_or_else(|| format!("unknown workload `{name}` (`all` needs --runs and --out)"))?;
    let args = RunArgs {
        workload,
        seed: cli.seed,
        seconds,
        scale,
    };
    let report = if cli.traced {
        traced::run(&args)?
    } else {
        run::run(&args)?
    };
    print!("{}", report.text);
    println!("{}", report.result_line());
    Ok(report.correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        for (title, metrics) in [
            ("end-to-end metrics", spec::END_TO_END),
            ("per-layer metrics", spec::PER_LAYER),
        ] {
            println!("{title}:");
            for m in metrics {
                println!(
                    "  {} [{}, {} is better]: {}",
                    m.name,
                    m.unit,
                    m.better.as_str(),
                    m.meaning
                );
            }
        }
        return ExitCode::from(if args.is_empty() { 2 } else { 0 });
    }
    match parse_cli(&args).and_then(dispatch) {
        Ok(true) => ExitCode::SUCCESS,
        // The report has been printed; incorrect output is still a failure.
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("aqp-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &[&str]) -> Result<Cli, String> {
        parse_cli(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_driver_command_line() {
        let c = cli(&[
            "--workload",
            "bootstrap_udf",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(c.workload.as_deref(), Some("bootstrap_udf"));
        assert_eq!((c.seed, c.seconds, c.traced), (7, Some(10.0), true));
        assert!(!cli(&["--workload", "x", "--trace", "0"]).unwrap().traced);
        assert!(cli(&["--traced"]).unwrap().traced);
    }

    #[test]
    fn rejects_bad_input() {
        for bad in [
            &["--seed"][..],
            &["--seed", "x"],
            &["--trace", "2"],
            &["--seconds", "-1"],
            &["--seconds", "nan"],
            &["--runs", "0"],
            &["--compare", "a.json"],
            &["--frobnicate"],
        ] {
            assert!(cli(bad).is_err(), "{bad:?}");
        }
        assert!(workloads_named("nope").is_err());
        assert_eq!(workloads_named("all").unwrap().len(), 4);
    }
}
