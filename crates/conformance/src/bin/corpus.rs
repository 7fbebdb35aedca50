//! Corpus driver CLI (normally invoked as `cargo xtask corpus ...`).
//!
//! ```text
//! corpus verify [--dir DIR] [--report PATH]   re-run + byte-compare every case
//! corpus bless  [--dir DIR] [--out DIR]       re-record [expect] bodies
//! corpus drift  [--dir DIR]                   bless to a scratch dir, diff against committed
//! ```
//!
//! `drift` says how far each case moved, not just that it did: `DRIFT
//! <case> floats=<n> max_rel=<r> other=<m>` counts the hex-float tokens
//! (`est=`, `ci=`, `truth=` bits) that differ, the largest relative
//! difference among them, and every other differing token. A
//! rounding-only re-bless reads `other=0` with a `max_rel` near machine
//! epsilon; a changed mode, verdict, plan or metric shows in `other`.
//!
//! `--bless` is accepted as an alias for `bless` (the ISSUE's spelling).
//! Exit status: 0 on pass, 1 on any case failure, answers_match
//! mismatch, oracle coverage outside tolerance, or drift.

#![deny(unsafe_code)]

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use aqp_conformance::{run_corpus, CorpusMode};

fn default_corpus_dir() -> PathBuf {
    // crates/conformance -> workspace root -> tests/corpus.
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/corpus")
}

fn default_scratch_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/corpus-rebless")
}

fn usage() -> String {
    "usage: corpus <verify|bless|drift> [--dir DIR] [--out DIR] [--report PATH]".to_string()
}

fn main() -> ExitCode {
    match real_main() {
        Ok(pass) => {
            if pass {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("corpus: {e}");
            ExitCode::FAILURE
        }
    }
}

fn real_main() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut mode_arg: Option<String> = None;
    let mut dir = default_corpus_dir();
    let mut out: Option<PathBuf> = None;
    let mut report_path: Option<PathBuf> = None;

    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "verify" | "bless" | "drift" => mode_arg = Some(a.clone()),
            "--bless" => mode_arg = Some("bless".to_string()),
            "--dir" => {
                dir = PathBuf::from(it.next().ok_or_else(|| format!("--dir needs a value\n{}", usage()))?)
            }
            "--out" => {
                out = Some(PathBuf::from(
                    it.next().ok_or_else(|| format!("--out needs a value\n{}", usage()))?,
                ))
            }
            "--report" => {
                report_path = Some(PathBuf::from(
                    it.next()
                        .ok_or_else(|| format!("--report needs a value\n{}", usage()))?,
                ))
            }
            other => return Err(format!("unknown argument {other:?}\n{}", usage())),
        }
    }

    let mode_arg = mode_arg.ok_or_else(usage)?;
    match mode_arg.as_str() {
        "verify" => {
            let report = run_corpus(&dir, &CorpusMode::Verify)?;
            let text = report.render();
            print!("{text}");
            if let Some(p) = report_path {
                std::fs::write(&p, &text).map_err(|e| format!("write {}: {e}", p.display()))?;
            }
            Ok(report.pass)
        }
        "bless" => {
            let report = run_corpus(&dir, &CorpusMode::Bless { out: out.clone() })?;
            print!("{}", report.render());
            match &out {
                Some(d) => println!("blessed {} cases into {}", report.cases.len(), d.display()),
                None => println!("blessed {} cases in place under {}", report.cases.len(), dir.display()),
            }
            Ok(report.pass)
        }
        "drift" => {
            let scratch = default_scratch_dir();
            // Clear stale re-records so removed cases cannot mask drift.
            if scratch.exists() {
                std::fs::remove_dir_all(&scratch)
                    .map_err(|e| format!("clear {}: {e}", scratch.display()))?;
            }
            let report = run_corpus(&dir, &CorpusMode::Bless { out: Some(scratch.clone()) })?;
            if !report.pass {
                print!("{}", report.render());
            }
            let drifted = diff_dirs(&dir, &scratch)?;
            for name in &drifted {
                let text = |d: &Path| std::fs::read_to_string(d.join(name)).unwrap_or_default();
                let moved = Drift::between(&text(&dir), &text(&scratch));
                println!("DRIFT {name} floats={} max_rel={:.1e} other={}", moved.floats, moved.max_rel, moved.other);
            }
            if drifted.is_empty() {
                println!("no bless drift across {} cases", report.cases.len());
            }
            Ok(report.pass && drifted.is_empty())
        }
        other => Err(format!("unknown mode {other:?}\n{}", usage())),
    }
}

/// How far a re-recorded case is from the committed one, token by token
/// (tokens are what whitespace, `=` and `,` separate).
#[derive(Debug, PartialEq)]
struct Drift {
    /// Differing pairs of hex-float tokens (16 hex digits: an `f64`'s bits).
    floats: usize,
    /// The largest `|a − b| / max(|a|, |b|)` among them; infinite when one
    /// side is not finite.
    max_rel: f64,
    /// Every other differing token, tokens without a partner included.
    other: usize,
}

impl Drift {
    fn between(committed: &str, rerecorded: &str) -> Drift {
        let tokens = |text| -> Vec<&str> {
            str::split(text, |c: char| c.is_whitespace() || c == '=' || c == ',')
                .filter(|t| !t.is_empty())
                .collect()
        };
        let float = |t: &str| {
            (t.len() == 16).then(|| u64::from_str_radix(t, 16).ok()).flatten().map(f64::from_bits)
        };
        let (a, b) = (tokens(committed), tokens(rerecorded));
        let mut drift = Drift { floats: 0, max_rel: 0.0, other: a.len().abs_diff(b.len()) };
        for (ta, tb) in a.iter().zip(&b).filter(|(ta, tb)| ta != tb) {
            match (float(ta), float(tb)) {
                (Some(x), Some(y)) => {
                    let rel = (x - y).abs() / x.abs().max(y.abs());
                    drift.floats += 1;
                    drift.max_rel = drift.max_rel.max(if rel.is_nan() { f64::INFINITY } else { rel });
                }
                _ => drift.other += 1,
            }
        }
        drift
    }
}

/// Names of `.case` files whose bytes differ between the committed
/// corpus and the re-recorded scratch dir (either direction).
fn diff_dirs(committed: &Path, rerecorded: &Path) -> Result<Vec<String>, String> {
    let list = |d: &Path| -> Result<Vec<String>, String> {
        let mut names: Vec<String> = std::fs::read_dir(d)
            .map_err(|e| format!("read_dir {}: {e}", d.display()))?
            .filter_map(|r| r.ok().map(|e| e.path()))
            .filter(|p| p.extension().map(|e| e == "case").unwrap_or(false))
            .filter_map(|p| p.file_name().and_then(|n| n.to_str()).map(String::from))
            .collect();
        names.sort();
        Ok(names)
    };
    let a = list(committed)?;
    let b = list(rerecorded)?;
    let mut drifted = Vec::new();
    for name in a.iter().chain(b.iter()) {
        if drifted.contains(name) {
            continue;
        }
        let (pa, pb) = (committed.join(name), rerecorded.join(name));
        let ba = std::fs::read(&pa).ok();
        let bb = std::fs::read(&pb).ok();
        if ba != bb {
            drifted.push(name.clone());
        }
    }
    drifted.sort();
    drifted.dedup();
    Ok(drifted)
}

#[cfg(test)]
mod tests {
    use super::Drift;

    const COMMITTED: &str = "[expect]\nmode = Approximate\nresult key=\"\" agg=\"GEO_MEAN(time)\" \
        est=404b5067d26cd3e1 ci=404b5067d26cd3e1,3ff7162d7bed5ea0,3fee666666666666 verdict=ok\n\
        metric aqp.exec.approx_queries = 1\n";

    #[test]
    fn drift_tells_rounding_from_a_changed_verdict() {
        assert_eq!(Drift::between(COMMITTED, COMMITTED), Drift { floats: 0, max_rel: 0.0, other: 0 });

        // The half-width moved by three units in the last place.
        let rounding = COMMITTED.replace("3ff7162d7bed5ea0", "3ff7162d7bed5ea3");
        let moved = Drift::between(COMMITTED, &rounding);
        assert_eq!((moved.floats, moved.other), (1, 0));
        assert!(moved.max_rel > 0.0 && moved.max_rel < 1e-15, "{}", moved.max_rel);

        // A rejected cell: the mode and verdict change, the bars go, and a
        // fallback metric line appears.
        let verdict = COMMITTED
            .replace("mode = Approximate", "mode = ExactFallback")
            .replace("3ff7162d7bed5ea0", "0000000000000000")
            .replace("verdict=ok", "verdict=rejected")
            + "metric aqp.core.fallbacks = 1\n";
        let moved = Drift::between(COMMITTED, &verdict);
        assert_eq!(moved.floats, 1);
        assert_eq!(moved.max_rel, 1.0);
        assert_eq!(moved.other, 2 + 3, "mode, verdict, and the three tokens of the new line");

        // NaN against a number is as far as it gets; a missing file is all `other`.
        let nan = COMMITTED.replace("3ff7162d7bed5ea0", "7ff8000000000000");
        assert_eq!(Drift::between(COMMITTED, &nan).max_rel, f64::INFINITY);
        assert_eq!(Drift::between(COMMITTED, "").floats, 0);
        assert!(Drift::between(COMMITTED, "").other > 10);
    }
}
