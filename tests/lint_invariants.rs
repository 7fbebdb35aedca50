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

/// The dataflow-shaped rule; the corpus must carry at least two positive
/// and two negative fixtures for it.
const DATAFLOW_RULE: &str = "determinism-taint";

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
    use reliable_aqp::stats::Theta;
    use reliable_aqp::workload::statquery::{ThetaKind, UdfKind};
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
        let Theta::Udf(udf) = ThetaKind::Udf(kind).instantiate() else {
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

    // Every source file of the two crates, submodules' too.
    let rewrites: Vec<String> = library_sources()
        .into_iter()
        .filter(|(rel, _)| rel.starts_with("crates/core/src/") || rel.starts_with("crates/exec/src/"))
        .flat_map(|(rel, code)| vec![rel; code.matches("rewrite_for_error_estimation(").count()])
        .collect();
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

/// Every `Mutex` / `RwLock` declared in library code, and why it is a leaf:
/// code holding it takes no other lock. One lock takes others, and its
/// reason names them; each of those is a leaf that never takes it back, so
/// no acquisition order can cycle.
const LOCKS: &[(&str, &str, &str)] = &[
    ("crates/audit/src/auditor.rs", "state", "coverage windows and the audit log; its guard touches atomics and its own sink"),
    ("crates/core/src/observers.rs", "cumulative", "the fleet profile; held for one observe or one clone"),
    ("crates/core/src/session.rs", "registry", "the UDF registry; held for one register or one clone"),
    (
        "crates/introspect/src/pipeline.rs",
        "state",
        "the one lock that takes others: obs::metrics (the every-Nth-fold snapshot in fold_query) and \
         storage::catalog (sync_into); both are leaves and neither ever takes it",
    ),
    ("crates/obs/src/metrics.rs", "inner", "name → handle maps; held for one lookup or one snapshot"),
    ("crates/obs/src/recorder.rs", "inner", "the flight recorder's ring; held to push or to render a dump"),
    ("crates/obs/src/trace.rs", "state", "one query's spans; held for one span edit"),
    ("crates/slo/src/engine.rs", "state", "burn windows and the alert history; its guard touches atomics and its own sink"),
    ("crates/storage/src/catalog.rs", "inner", "tables and samples; no closure run under it names the catalog"),
];

/// `code` with the contents of string and char literals and of `//`
/// comments blanked, so braces and calls inside them are not code.
fn blank_literals(code: &str) -> String {
    let s: Vec<char> = code.chars().collect();
    let mut out = s.clone();
    let mut i = 0;
    while i < s.len() {
        // Blank `from..to`; scanning resumes after `to`.
        let (from, to) = match (s[i], s.get(i + 1).copied(), s.get(i + 2).copied()) {
            ('"', ..) => {
                let mut j = i + 1;
                while j < s.len() && s[j] != '"' {
                    j += if s[j] == '\\' { 2 } else { 1 };
                }
                (i + 1, j.min(s.len()))
            }
            ('\'', Some('\\'), _) => (i + 1, (i + 2..s.len()).find(|&j| s[j] == '\'').unwrap_or(s.len())),
            ('\'', Some(_), Some('\'')) => (i + 1, i + 2),
            ('/', Some('/'), _) => (i, (i..s.len()).find(|&j| s[j] == '\n').unwrap_or(s.len())),
            _ => {
                i += 1;
                continue;
            }
        };
        out[from..to].iter_mut().filter(|c| **c != '\n').for_each(|c| *c = ' ');
        i = to + 1;
    }
    out.into_iter().collect()
}

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Byte index of the bracket closing the one enclosing `from` — or, with
/// `at_semicolon`, of the first `;` at depth 0, whichever comes first.
fn close_of(code: &str, from: usize, at_semicolon: bool) -> usize {
    let mut depth = 0i32;
    for (i, c) in code[from..].char_indices() {
        match c {
            '(' | '[' | '{' => depth += 1,
            ')' | ']' | '}' if depth == 0 => return from + i,
            ')' | ']' | '}' => depth -= 1,
            ';' if depth == 0 && at_semicolon => return from + i,
            _ => {}
        }
    }
    code.len()
}

/// The lock check of one file's library code (literals blanked): where a
/// guard is bound by `let`, nothing until the end of its block or its
/// `drop` acquires again — no second `.lock()` / `.read()` / `.write()`,
/// and no `self.m(..)` when a fn named `m` in this file acquires — and no
/// closure handed to the catalog's `with_samples[_mut]` names a `catalog`.
fn guard_findings(rel: &str, code: &str) -> Vec<String> {
    const ACQUIRE: [&str; 3] = [".lock()", ".read()", ".write()"];
    let acquires = |s: &str| ACQUIRE.iter().any(|a| s.contains(a));
    let mut acquiring = Vec::new();
    for (at, _) in code.match_indices("fn ") {
        if code[..at].ends_with(is_ident_char) {
            continue;
        }
        let name: String = code[at + 3..].chars().take_while(|&c| is_ident_char(c)).collect();
        let Some(open) = code[at..].find(['{', ';']).map(|o| at + o) else { continue };
        if code[open..].starts_with('{') && acquires(&code[open..close_of(code, open + 1, false)]) {
            acquiring.push(name);
        }
    }

    let mut out = Vec::new();
    for (at, _) in ACQUIRE.iter().flat_map(|a| code.match_indices(a)) {
        let start = code[..at].rfind([';', '{', '}']).map_or(0, |s| s + 1);
        let Some(binding) = code[start..at].trim_start().strip_prefix("let ") else { continue };
        let guard: String =
            binding.trim_start_matches("mut ").chars().take_while(|&c| is_ident_char(c)).collect();
        let held_from = close_of(code, at, true);
        let block_end = close_of(code, (held_from + 1).min(code.len()), false);
        let region = &code[held_from..block_end];
        let region = region.split(&format!("drop({guard})")).next().unwrap_or(region);
        if acquires(region) {
            out.push(format!("{rel}: a second lock is taken while `{guard}` is held"));
        }
        for (s, _) in region.match_indices("self.") {
            let callee: String = region[s + 5..].chars().take_while(|&c| is_ident_char(c)).collect();
            let is_call = region[s + 5 + callee.len()..].starts_with('(');
            if !region[..s].ends_with(is_ident_char) && is_call && acquiring.contains(&callee) {
                out.push(format!("{rel}: `self.{callee}(..)`, which locks, runs while `{guard}` is held"));
            }
        }
    }
    for call in ["with_samples(", "with_samples_mut("] {
        for (at, _) in code.match_indices(call) {
            let open = at + call.len();
            let args = &code[open..close_of(code, open, false)];
            if args.split(|c: char| !is_ident_char(c)).any(|w| w == "catalog") {
                out.push(format!("{rel}: a closure run under the catalog's lock names `catalog`"));
            }
        }
    }
    out
}

/// Every lock in library code is in [`LOCKS`], and every entry is a lock.
#[test]
fn every_lock_is_in_the_inventory() {
    let mut declared = Vec::new();
    for (rel, code) in library_sources() {
        for line in blank_literals(&code).lines() {
            for (at, _) in line.match_indices("Mutex<").chain(line.match_indices("RwLock<")) {
                if line[..at].ends_with(is_ident_char) {
                    continue;
                }
                // `name: [Arc<|OnceLock<]Mutex<…>`: the name before the first colon.
                let before = line[..at].split(':').next().unwrap_or_default();
                let field = before.rsplit(|c: char| !is_ident_char(c)).find(|w| !w.is_empty());
                declared.push((rel.clone(), field.unwrap_or_default().to_owned()));
            }
        }
    }
    declared.sort();
    let mut listed: Vec<(String, String)> =
        LOCKS.iter().map(|(file, field, _)| (file.to_string(), field.to_string())).collect();
    listed.sort();
    assert_eq!(declared, listed, "a lock was added or removed: give LOCKS an entry with why it is a leaf");
}

/// Guards are leaves where they are taken (see [`guard_findings`]), and the
/// check sees the three deadlocks it exists for.
#[test]
fn every_guard_is_held_as_a_leaf() {
    let findings: Vec<String> = library_sources()
        .iter()
        .flat_map(|(rel, code)| guard_findings(rel, &blank_literals(code)))
        .collect();
    assert!(findings.is_empty(), "{findings:#?}");

    let planted = [
        "fn counter(&self) -> u64 { self.lock().n }\n\
         fn snapshot(&self) -> u64 { let inner = self.lock(); let n = self.counter(\"x\"); inner.n + n }",
        "fn sync(&self, catalog: &Catalog) { catalog.with_samples_mut(t, |set| { let _ = catalog.table(t)?; Ok(()) }); }",
        "fn retained(&self) -> usize { self.lock().ring.len() }\n\
         fn record(&self) { let mut inner = self.lock(); let _ = self.retained(); inner.seq += 1; }",
        "fn twice(&self) { let g = self.a.lock(); let h = self.b.lock(); }",
    ];
    for code in planted {
        assert_eq!(guard_findings("planted", &blank_literals(code)).len(), 1, "{code}");
    }
    let released = "fn f(&self) { let g = self.a.lock(); drop(g); let h = self.a.lock(); }";
    assert!(guard_findings("released", released).is_empty());
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
    assert!(corpus.len() >= 6, "fixture corpus shrank to {} cases", corpus.len());

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

    // Structural floor: the dataflow rule is demonstrated by at least two
    // positive and two negative fixtures.
    let pos = corpus.iter().filter(|f| f.expect_rules.iter().any(|r| r == DATAFLOW_RULE)).count();
    let neg = corpus.iter().filter(|f| f.forbid_rules.iter().any(|r| r == DATAFLOW_RULE)).count();
    assert!(pos >= 2, "only {pos} positive fixture(s) for {DATAFLOW_RULE}");
    assert!(neg >= 2, "only {neg} negative fixture(s) for {DATAFLOW_RULE}");
}
