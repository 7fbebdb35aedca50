//! Tier-1 enforcement of the workspace invariants: `cargo run -p xtask
//! -- analyze` must pass on the repository and must fail on code that
//! violates the rules, exercised end-to-end against the fixture corpus
//! in `crates/xtask/fixtures/`.
//!
//! Fixture format (`*.fix`): header prose, then `//@` directives with
//! embedded files. `//@ file: <rel>` starts a file whose content is the
//! following lines; `//@ expect: <rule>` / `//@ forbid: <rule>` assert
//! that a rule fires / stays silent on the materialized tree; the
//! `-text` variants assert on raw output substrings (for file:line
//! coordinates and exemption checks).

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// The two whole-workspace semantic rules; the corpus must carry at
/// least two positive and two negative fixtures for each.
const SEMANTIC_RULES: [&str; 2] = ["lock-order", "determinism-taint"];

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn run_analyze(extra: &[&str]) -> Output {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    Command::new(cargo)
        .current_dir(repo_root())
        .args(["run", "-p", "xtask", "--offline", "--quiet", "--", "analyze"])
        .args(extra)
        .output()
        .expect("spawning cargo run -p xtask")
}

#[test]
fn workspace_is_analyze_clean() {
    let out = run_analyze(&[]);
    assert!(
        out.status.success(),
        "analyze failed:\n{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("aqp-analyze: OK"), "unexpected output: {stdout}");
}

/// The observer seam stays a seam: `session.rs` drives its observers
/// through `observers.rs` and names none of their machinery itself.
#[test]
fn session_names_no_observer_machinery() {
    let path = repo_root().join("crates/core/src/session.rs");
    let source = std::fs::read_to_string(path).expect("session.rs is readable");
    let code = source.split("#[cfg(test)]").next().unwrap_or(&source);
    for banned in [
        "SloEngine",
        "Introspector",
        "Auditor::",
        "FlightRecorder::new",
        "CumulativeProfile::new",
        "fold_query",
        "observe_latency",
        "dump_with_context",
    ] {
        assert!(!code.contains(banned), "session.rs names `{banned}`; it belongs in observers.rs");
    }
}

/// The stock library has no expanding UDF: every name the stock registry
/// resolves, and every UDF kind `aqp_workload` instantiates (`frac_above`
/// among them), accepts a weight column — so a sixth stock UDF added
/// without a weighted form cannot quietly bring tuple duplication back.
#[test]
fn the_stock_library_has_no_expanding_udf() {
    use reliable_aqp::exec::UdfRegistry;
    use reliable_aqp::workload::statquery::{OwnedTheta, ThetaKind, UdfKind};
    let registry = UdfRegistry::with_stock_library();
    let names = registry.names();
    assert!(names.len() >= 4, "{names:?}");
    for name in names {
        let udf = registry.resolve(&name).expect("a listed name resolves");
        assert!(udf.has_weighted_form(), "stock UDF {name} has no weighted form (Udf::with_weighted)");
    }
    let kinds = [
        UdfKind::TrimmedMean,
        UdfKind::TopDecileMean,
        UdfKind::GeoMean,
        UdfKind::Cov,
        UdfKind::FracAbove(0.5),
    ];
    for kind in kinds {
        let OwnedTheta::Udf(udf) = ThetaKind::Udf(kind).instantiate() else {
            panic!("{kind:?} instantiates a UDF");
        };
        assert!(udf.has_weighted_form(), "workload UDF {kind:?} has no weighted form");
    }
}

/// An approximate run is stated once: `AqpSession::approx_options` builds
/// the one `ApproxOptions` (and in it the one diagnostic ladder), every
/// other options value in `session.rs` is a struct-update of it, and the
/// §5.3 plan annotation is rewritten in one place, from that value.
#[test]
fn an_approximate_run_is_stated_once() {
    let non_test = |rel: &str| {
        let source = std::fs::read_to_string(repo_root().join(rel)).expect(rel);
        source.split("#[cfg(test)]").next().unwrap_or_default().to_owned()
    };
    let session = non_test("crates/core/src/session.rs");
    // A struct expression, as opposed to the builder's `-> ApproxOptions {`.
    let literals: Vec<&str> = session
        .split("ApproxOptions {")
        .skip(1)
        .zip(session.split("ApproxOptions {"))
        .filter(|(_, before)| !before.trim_end().ends_with("->"))
        .map(|(body, _)| body.split("};").next().unwrap_or(body))
        .collect();
    let updates = literals.iter().filter(|l| l.contains("..self.approx_options(")).count();
    assert_eq!(
        (literals.len() - updates, session.matches("DiagnosticConfig::scaled_to").count()),
        (1, 1),
        "session.rs states an approximate run in more than one place ({} literals, {updates} \
         struct-updates of the builder's value)",
        literals.len()
    );
    let struct_body = session.split("pub struct SessionConfig {").nth(1).unwrap_or_default();
    let struct_body = struct_body.split("\n}").next().unwrap_or_default();
    assert!(!struct_body.contains("pilot_rows"), "SessionConfig::pilot_rows reached no rendered byte");

    let mut rewrites = Vec::new();
    for dir in ["crates/core/src", "crates/exec/src"] {
        for entry in std::fs::read_dir(repo_root().join(dir)).expect(dir) {
            let rel = format!("{dir}/{}", entry.expect(dir).file_name().to_string_lossy());
            let calls = non_test(&rel).matches("rewrite_for_error_estimation(").count();
            rewrites.extend(vec![rel; calls]);
        }
    }
    assert_eq!(rewrites, ["crates/core/src/session.rs"], "the plan annotation has one author");
}

/// `(repo-relative path, non-test code)` of every source file under
/// `crates/*/src` and `src/`: the lines above the file's `#[cfg(test)]
/// mod`, comment lines dropped.
fn library_sources() -> Vec<(String, String)> {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        for entry in std::fs::read_dir(dir).expect("readable source dir") {
            let path = entry.expect("readable dir entry").path();
            if path.is_dir() {
                walk(&path, out);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
    let root = repo_root();
    let mut files = Vec::new();
    walk(&root.join("src"), &mut files);
    for krate in std::fs::read_dir(root.join("crates")).expect("crates/ exists") {
        walk(&krate.expect("readable dir entry").path().join("src"), &mut files);
    }
    files.sort();
    files
        .iter()
        .map(|path| {
            let source = std::fs::read_to_string(path).expect("readable source");
            let lines: Vec<&str> = source.lines().collect();
            let end = (0..lines.len())
                .find(|&i| {
                    lines[i].trim() == "#[cfg(test)]"
                        && lines.get(i + 1).is_some_and(|l| l.trim_start().starts_with("mod "))
                })
                .unwrap_or(lines.len());
            let code: Vec<&str> =
                lines[..end].iter().copied().filter(|l| !l.trim_start().starts_with("//")).collect();
            let rel = path.strip_prefix(&root).expect("under the repo").to_string_lossy().into_owned();
            (rel, code.join("\n"))
        })
        .collect()
}

/// Metric names are stated once, in `aqp_obs::name`: no library code
/// registers a series from a string literal (so a typo cannot fork one),
/// and every constant there is `aqp.<crate>.<snake_case>` (so dashboards
/// can group series by crate).
#[test]
fn no_metric_is_registered_from_a_literal() {
    for (rel, code) in library_sources() {
        for call in [".counter(", ".gauge(", ".histogram(", ".histogram_with("] {
            for (at, _) in code.match_indices(call) {
                let arg = code[at + call.len()..].trim_start();
                assert!(
                    !arg.starts_with('"'),
                    "{rel}: `{call}{}` registers a literal; use an aqp_obs::name constant",
                    arg.lines().next().unwrap_or_default()
                );
            }
        }
    }

    let obs = std::fs::read_to_string(repo_root().join("crates/obs/src/lib.rs")).expect("obs lib.rs");
    let module = obs.split("pub mod name {").nth(1).expect("aqp_obs::name exists");
    let module = module.split("\n}").next().unwrap_or(module);
    let names: Vec<&str> = module
        .lines()
        .filter(|l| l.trim_start().starts_with("pub const "))
        .map(|l| l.split('"').nth(1).unwrap_or_else(|| panic!("no literal on `{l}`")))
        .collect();
    assert!(!names.is_empty(), "found no constant in aqp_obs::name");
    let snake = |s: &str| {
        s.starts_with(|c: char| c.is_ascii_lowercase())
            && s.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
    };
    for name in names {
        let segments: Vec<&str> = name.split('.').collect();
        assert!(
            segments.len() >= 3
                && segments[0] == "aqp"
                && repo_root().join("crates").join(segments[1]).is_dir()
                && segments[1..].iter().all(|s| snake(s)),
            "`{name}` is not aqp.<crate>.<snake_case>"
        );
    }
}

/// `panic-freedom` is a token rule over the library code of the crates
/// `PANIC_FREE_CRATES` lists, and it is enough: that code names no
/// workspace crate outside the list, so no call from it lands in code the
/// rule does not read. (The call-graph rule that used to look for such
/// calls could, for that reason, no longer fire.)
#[test]
fn panic_free_crates_name_no_workspace_crate_outside_the_set() {
    let rules = std::fs::read_to_string(repo_root().join("crates/xtask/src/rules.rs")).expect("rules.rs");
    let list = rules.split("pub const PANIC_FREE_CRATES: &[&str] = &[").nth(1).expect("the constant exists");
    let list = list.split("];").next().unwrap_or_default();
    let panic_free: Vec<&str> = list.split('"').skip(1).step_by(2).collect();
    assert!(panic_free.len() >= 12 && panic_free.contains(&"exec"), "{panic_free:?}");

    // The library names of every other workspace crate, the facade included.
    let mut outside = vec!["reliable_aqp".to_owned()];
    for krate in std::fs::read_dir(repo_root().join("crates")).expect("crates/ exists") {
        let dir = krate.expect("readable dir entry").file_name().to_string_lossy().into_owned();
        if !panic_free.contains(&dir.as_str()) {
            outside.push(if dir == "xtask" { dir } else { format!("aqp_{dir}") });
        }
    }
    assert!(outside.iter().any(|c| c == "aqp_workload"), "{outside:?}");
    for (rel, code) in library_sources() {
        let krate = rel.strip_prefix("crates/").and_then(|r| r.split('/').next()).unwrap_or_default();
        if !panic_free.contains(&krate) {
            continue;
        }
        for line in code.lines() {
            for name in &outside {
                assert!(
                    !line.contains(name.as_str()),
                    "{rel}: `{}` names {name}, whose code panic-freedom does not read",
                    line.trim()
                );
            }
        }
    }
}

/// Error bars only widen: a half-width is set where an interval is built
/// and changed by `Ci::widen` alone, which multiplies by at least 1 — so
/// no library line outside `stats/src/ci.rs` assigns to the field. (The
/// degraded-run oracles in `fault_matrix.rs` and `properties.rs` check the
/// widening itself.)
#[test]
fn only_ci_rs_assigns_to_a_half_width() {
    for (rel, code) in library_sources() {
        if rel == "crates/stats/src/ci.rs" {
            continue;
        }
        for line in code.lines() {
            for (at, field) in line.match_indices(".half_width") {
                let after = &line[at + field.len()..];
                if after.starts_with(|c: char| c.is_alphanumeric() || c == '_') {
                    continue; // a longer name
                }
                let after = after.trim_start();
                let compound = ["+=", "-=", "*=", "/="].iter().any(|op| after.starts_with(op));
                let plain = after.starts_with('=') && !after.starts_with("==") && !after.starts_with("=>");
                assert!(!compound && !plain, "{rel}: `{}` assigns to a half-width; use Ci::widen", line.trim());
            }
        }
    }
}

/// Delays and retries live in `crates/faults`: anywhere else a real sleep
/// stalls a worker for time the mock clock cannot steer, and a hand-rolled
/// retry loop is recovery policy `aqp_faults::resolve` does not know of.
#[test]
fn no_real_sleep_or_ad_hoc_retry_outside_the_fault_layer() {
    for (rel, code) in library_sources() {
        if rel.starts_with("crates/faults/") {
            continue;
        }
        for line in code.lines() {
            assert!(!line.contains("sleep("), "{rel}: `{}` sleeps; charge the Clock", line.trim());
            let words: Vec<String> = line
                .split(|c: char| !c.is_alphanumeric() && c != '_')
                .map(str::to_ascii_lowercase)
                .collect();
            let header = words.iter().position(|w| matches!(w.as_str(), "for" | "while" | "loop"));
            let retries = header.is_some_and(|at| {
                words[at..].iter().any(|w| {
                    w.contains("retry") || w.contains("retries") || w.contains("attempt")
                })
            });
            assert!(!retries, "{rel}: `{}` retries by hand; use aqp_faults::resolve", line.trim());
        }
    }
}

// ---------------------------------------------------------------------
// Fixture corpus
// ---------------------------------------------------------------------

#[derive(Default)]
struct Fixture {
    name: String,
    expect_rules: Vec<String>,
    forbid_rules: Vec<String>,
    expect_text: Vec<String>,
    forbid_text: Vec<String>,
    files: Vec<(String, String)>,
}

fn parse_fixture(name: &str, src: &str) -> Fixture {
    let mut fx = Fixture { name: name.to_string(), ..Fixture::default() };
    for line in src.lines() {
        if let Some(rest) = line.strip_prefix("//@ ") {
            let (kind, value) = rest.split_once(':').unwrap_or_else(|| {
                panic!("{name}: malformed directive `{line}`");
            });
            let value = value.trim().to_string();
            match kind.trim() {
                "file" => fx.files.push((value, String::new())),
                "expect" => fx.expect_rules.push(value),
                "forbid" => fx.forbid_rules.push(value),
                "expect-text" => fx.expect_text.push(value),
                "forbid-text" => fx.forbid_text.push(value),
                other => panic!("{name}: unknown directive kind `{other}`"),
            }
        } else if let Some((_, content)) = fx.files.last_mut() {
            content.push_str(line);
            content.push('\n');
        }
        // Prose before the first `//@ file:` is fixture documentation.
    }
    let has_assertion = !fx.expect_rules.is_empty() || !fx.forbid_rules.is_empty();
    assert!(
        !fx.files.is_empty() && has_assertion,
        "{name}: a fixture needs at least one file and one expect/forbid"
    );
    fx
}

fn materialize(fx: &Fixture, dir: &Path) {
    for (rel, content) in &fx.files {
        let path = dir.join(rel);
        std::fs::create_dir_all(path.parent().expect("fixture paths have parents"))
            .expect("mkdir fixture");
        std::fs::write(path, content).expect("write fixture");
    }
}

fn load_corpus() -> Vec<Fixture> {
    let dir = repo_root().join("crates/xtask/fixtures");
    let mut names: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("crates/xtask/fixtures exists")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "fix"))
        .collect();
    names.sort();
    names
        .iter()
        .map(|p| {
            let name = p.file_stem().expect("stem").to_string_lossy().into_owned();
            let src = std::fs::read_to_string(p).expect("readable fixture");
            parse_fixture(&name, &src)
        })
        .collect()
}

#[test]
fn fixture_corpus_drives_every_rule() {
    let corpus = load_corpus();
    assert!(corpus.len() >= 10, "fixture corpus shrank to {} cases", corpus.len());

    for fx in &corpus {
        let dir = std::env::temp_dir()
            .join(format!("aqp-analyze-fix-{}-{}", std::process::id(), fx.name));
        let _ = std::fs::remove_dir_all(&dir);
        materialize(fx, &dir);

        let out = run_analyze(&["--root", dir.to_str().expect("utf-8 temp path")]);
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        std::fs::remove_dir_all(&dir).expect("cleanup fixture");

        if fx.expect_rules.is_empty() {
            assert!(
                out.status.success(),
                "{}: clean fixture was rejected:\n{stdout}",
                fx.name
            );
        } else {
            assert!(
                !out.status.success(),
                "{}: violating fixture was accepted:\n{stdout}",
                fx.name
            );
        }
        for rule in &fx.expect_rules {
            assert!(
                stdout.contains(&format!("[{rule}]")),
                "{}: missing [{rule}] finding in:\n{stdout}",
                fx.name
            );
        }
        for rule in &fx.forbid_rules {
            assert!(
                !stdout.contains(&format!("[{rule}]")),
                "{}: forbidden [{rule}] finding in:\n{stdout}",
                fx.name
            );
        }
        for text in &fx.expect_text {
            assert!(stdout.contains(text), "{}: missing `{text}` in:\n{stdout}", fx.name);
        }
        for text in &fx.forbid_text {
            assert!(!stdout.contains(text), "{}: forbidden `{text}` in:\n{stdout}", fx.name);
        }
    }

    // Structural floor: every semantic rule is demonstrated by at least
    // two positive and two negative fixtures.
    for rule in SEMANTIC_RULES {
        let pos = corpus.iter().filter(|f| f.expect_rules.iter().any(|r| r == rule)).count();
        let neg = corpus.iter().filter(|f| f.forbid_rules.iter().any(|r| r == rule)).count();
        assert!(pos >= 2, "only {pos} positive fixture(s) for {rule}");
        assert!(neg >= 2, "only {neg} negative fixture(s) for {rule}");
    }
}
