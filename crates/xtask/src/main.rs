//! `xtask` — workspace invariant checking and corpus tooling.
//!
//! Subcommands:
//!
//! * `analyze` (alias `lint`) — lexes every `.rs` file in the
//!   repository (skipping `target/`, `third_party/`, and VCS metadata),
//!   builds the item/call/lock index, and enforces the token rules of
//!   `src/rules.rs` plus the semantic rules of `src/semrules.rs`, with
//!   per-(rule, file) finding budgets read from
//!   `crates/xtask/lint.toml`. Also verifies `docs/METRICS.md` and
//!   `docs/LINTS.md` are current. Exits nonzero when any unallowlisted
//!   finding remains, printing `file:line: [rule] token — hint` for
//!   each. `--report PATH` additionally writes a bit-stable findings
//!   JSON; `--check-budget` fails when `lint.toml` budgets grew
//!   relative to `crates/xtask/lint-budget.baseline` (refresh the
//!   baseline with `--update-budget-baseline` when budgets shrink).
//! * `corpus` — run the golden query-conformance corpus driver
//!   (`crates/conformance`): `verify` re-runs every `tests/corpus/*.case`
//!   and byte-compares the re-rendered `[expect]` body, `bless`
//!   re-records it, `drift` re-records under `target/corpus-rebless`
//!   and fails on any byte difference against the committed corpus.
//! * `metrics-inventory` / `lints-inventory` — regenerate (or `--check`)
//!   `docs/METRICS.md` from the metric constants in `aqp_obs::name` and
//!   `docs/LINTS.md` from the rule catalog in `rules::RULES`; both are
//!   one [`GeneratedDoc`] each, run and checked by the same code.

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod index;
mod lexer;
mod lints_inventory;
mod metrics_inventory;
mod rules;
mod semrules;

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use config::AllowEntry;
use index::WorkspaceIndex;
use rules::Finding;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.split_first() {
        Some((cmd, rest)) => match cmd.as_str() {
            "analyze" | "lint" => analyze_cmd(rest),
            "corpus" => corpus_cmd(rest),
            other => match GENERATED_DOCS.iter().find(|d| d.command == other) {
                Some(doc) => doc.run(rest),
                None => {
                    eprintln!("xtask: unknown command `{other}`");
                    usage()
                }
            },
        },
        None => usage(),
    }
}

/// Parse `analyze`'s flags and run it.
fn analyze_cmd(args: &[String]) -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut cfg_path: Option<PathBuf> = None;
    let mut report: Option<PathBuf> = None;
    let mut check_budget = false;
    let mut update_baseline = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--root" if i + 1 < args.len() => {
                root = Some(PathBuf::from(&args[i + 1]));
                i += 2;
            }
            "--config" if i + 1 < args.len() => {
                cfg_path = Some(PathBuf::from(&args[i + 1]));
                i += 2;
            }
            "--report" if i + 1 < args.len() => {
                report = Some(PathBuf::from(&args[i + 1]));
                i += 2;
            }
            "--check-budget" => {
                check_budget = true;
                i += 1;
            }
            "--update-budget-baseline" => {
                update_baseline = true;
                i += 1;
            }
            extra => {
                eprintln!("xtask: unexpected argument `{extra}`");
                return usage();
            }
        }
    }
    let root = root.unwrap_or_else(default_root);
    let cfg_path = cfg_path.unwrap_or_else(|| root.join("crates/xtask/lint.toml"));
    let baseline_path = root.join(BUDGET_BASELINE);
    if update_baseline {
        return match update_budget_baseline(&cfg_path, &baseline_path) {
            Ok(msg) => {
                println!("{msg}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("xtask: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if check_budget {
        return match budget_check(&cfg_path, &baseline_path) {
            Ok(problems) if problems.is_empty() => {
                println!("aqp-analyze: budget OK — lint.toml is within the committed baseline");
                ExitCode::SUCCESS
            }
            Ok(problems) => {
                for p in &problems {
                    println!("{p}");
                }
                println!(
                    "aqp-analyze: {} budget violation(s) — budgets only shrink; fix the \
                     findings instead of raising lint.toml",
                    problems.len()
                );
                ExitCode::FAILURE
            }
            Err(e) => {
                eprintln!("xtask: {e}");
                ExitCode::FAILURE
            }
        };
    }
    match analyze(&root, &cfg_path, report.as_deref()) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("xtask: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn usage() -> ExitCode {
    eprintln!("usage: cargo run -p xtask -- <command>");
    eprintln!("commands:");
    eprintln!("  analyze [--root PATH] [--config PATH] [--report PATH]");
    eprintln!("          [--check-budget] [--update-budget-baseline]   (alias: lint)");
    eprintln!("  corpus <verify|bless|drift> [--dir DIR] [--out DIR] [--report PATH]");
    for doc in &GENERATED_DOCS {
        eprintln!("  {} [--root PATH] [--check]", doc.command);
    }
    ExitCode::from(2)
}

/// A document rendered from the code and committed: one subcommand
/// regenerates it (or, with `--check`, reports whether it is current) and
/// one `docs` rule of `analyze` fails while it is stale.
pub struct GeneratedDoc {
    /// The subcommand that regenerates the document.
    pub command: &'static str,
    /// The `analyze` rule that fires when the document is stale.
    pub rule: &'static str,
    /// Repo-relative source of truth; a tree without it has no such document.
    pub source: &'static str,
    /// Repo-relative path of the generated document.
    pub target: &'static str,
    /// What a stale document is out of date with.
    pub truth: &'static str,
    /// The stale finding's hint.
    pub hint: &'static str,
    /// Render the document for the repo under a root.
    pub render: fn(&Path) -> Result<String, String>,
}

/// Every generated document.
const GENERATED_DOCS: [GeneratedDoc; 2] = [metrics_inventory::DOC, lints_inventory::DOC];

impl GeneratedDoc {
    /// `Some(reason)` when the document under `root` is not what the code
    /// renders.
    fn staleness(&self, root: &Path) -> Option<String> {
        let expected = match (self.render)(root) {
            Ok(md) => md,
            Err(e) => return Some(e),
        };
        match std::fs::read_to_string(root.join(self.target)) {
            Ok(current) if current == expected => None,
            Ok(_) => Some(format!("out of date with {}", self.truth)),
            Err(_) => Some("missing".to_string()),
        }
    }

    /// `<command> [--root PATH] [--check]`.
    fn run(&self, args: &[String]) -> ExitCode {
        let Self { command, target, .. } = self;
        let mut root: Option<PathBuf> = None;
        let mut check = false;
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--root" if i + 1 < args.len() => {
                    root = Some(PathBuf::from(&args[i + 1]));
                    i += 2;
                }
                "--check" => {
                    check = true;
                    i += 1;
                }
                other => {
                    eprintln!("xtask {command}: unexpected argument `{other}`");
                    eprintln!("usage: cargo run -p xtask -- {command} [--root PATH] [--check]");
                    return ExitCode::from(2);
                }
            }
        }
        let root = root.unwrap_or_else(default_root);
        if check {
            return match self.staleness(&root) {
                None => {
                    println!("{command}: {target} is current");
                    ExitCode::SUCCESS
                }
                Some(reason) => {
                    println!("{command}: {target} is {reason} — {}", self.hint);
                    ExitCode::FAILURE
                }
            };
        }
        let path = root.join(target);
        let written = (self.render)(&root).and_then(|md| {
            std::fs::create_dir_all(path.parent().unwrap_or(&root))
                .and_then(|()| std::fs::write(&path, md))
                .map_err(|e| format!("writing {target}: {e}"))
        });
        match written {
            Ok(()) => {
                println!("{command}: wrote {target}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("xtask {command}: {e}");
                ExitCode::FAILURE
            }
        }
    }
}

/// Run the golden-corpus driver (`crates/conformance`). Delegated to a
/// release-mode `cargo run` so xtask itself stays a leaf crate that
/// builds without the AQP engine (keeping `cargo xtask analyze` fast).
fn corpus_cmd(args: &[String]) -> ExitCode {
    let status = std::process::Command::new(env!("CARGO"))
        .current_dir(default_root())
        .args(["run", "--release", "-q", "-p", "aqp-conformance", "--bin", "corpus", "--"])
        .args(args)
        .status();
    match status {
        Ok(s) if s.success() => ExitCode::SUCCESS,
        Ok(_) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("xtask corpus: failed to launch cargo: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The repo root when run via `cargo run -p xtask`.
fn default_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(Path::parent)
        .map(Path::to_path_buf)
        .unwrap_or_else(|| PathBuf::from("."))
}

/// Run the analysis; `Ok(true)` means clean (exit 0).
fn analyze(root: &Path, cfg_path: &Path, report: Option<&Path>) -> Result<bool, String> {
    let allow = match std::fs::read_to_string(cfg_path) {
        Ok(src) => config::parse(&src)?,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(format!("reading {}: {e}", cfg_path.display())),
    };

    let mut source_paths = Vec::new();
    let mut manifests = Vec::new();
    walk(root, root, &mut source_paths, &mut manifests)
        .map_err(|e| format!("walking {}: {e}", root.display()))?;
    source_paths.sort();
    manifests.sort();

    let mut sources: Vec<(String, String)> = Vec::with_capacity(source_paths.len());
    for rel in &source_paths {
        let src = std::fs::read_to_string(root.join(rel))
            .map_err(|e| format!("reading {rel}: {e}"))?;
        sources.push((rel.clone(), src));
    }

    let idx = WorkspaceIndex::build(&sources);
    let mut findings: Vec<Finding> = Vec::new();
    for f in &idx.files {
        findings.extend(rules::check_file(f));
    }
    semrules::check(&idx, &mut findings);
    for rel in &manifests {
        let src = std::fs::read_to_string(root.join(rel))
            .map_err(|e| format!("reading {rel}: {e}"))?;
        findings.extend(rules::check_manifest(rel, &src));
    }

    // Generated docs must match what the code declares. Guarded on the
    // respective source existing so synthetic fixture trees are exempt.
    for doc in &GENERATED_DOCS {
        if !root.join(doc.source).is_file() {
            continue;
        }
        if let Some(reason) = doc.staleness(root) {
            findings.push(Finding {
                file: doc.target.to_string(),
                line: 1,
                rule: doc.rule,
                token: reason,
                hint: doc.hint,
            });
        }
    }

    findings.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.rule, a.token.as_str())
            .cmp(&(b.file.as_str(), b.line, b.rule, b.token.as_str()))
    });
    let (violations, suppressed, nags) = apply_allowlist(findings, &allow);

    if let Some(path) = report {
        let json = render_report(&violations, &suppressed, source_paths.len(), manifests.len());
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("creating {}: {e}", dir.display()))?;
        }
        std::fs::write(path, json).map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("aqp-analyze: wrote {}", path.display());
    }

    for v in &violations {
        println!("{v}");
    }
    for n in &nags {
        println!("note: {n}");
    }
    if violations.is_empty() {
        println!(
            "aqp-analyze: OK — {} sources + {} manifests scanned, {} finding(s) allowlisted",
            source_paths.len(),
            manifests.len(),
            suppressed.len()
        );
        Ok(true)
    } else {
        println!(
            "aqp-analyze: {} violation(s) across {} sources + {} manifests ({} allowlisted)",
            violations.len(),
            source_paths.len(),
            manifests.len(),
            suppressed.len()
        );
        Ok(false)
    }
}

/// Render the machine-readable findings document. Deterministic: the
/// findings arrive sorted and nothing time- or environment-dependent is
/// written, so two runs on the same tree are bit-identical.
fn render_report(
    violations: &[Finding],
    suppressed: &[Finding],
    sources: usize,
    manifests: usize,
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": 1,\n");
    out.push_str(&format!("  \"sources\": {sources},\n"));
    out.push_str(&format!("  \"manifests\": {manifests},\n"));
    out.push_str(&format!("  \"violations\": {},\n", violations.len()));
    out.push_str(&format!("  \"allowlisted\": {},\n", suppressed.len()));
    out.push_str("  \"rules\": [");
    for (i, r) in rules::RULES.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!("\"{}\"", r.name));
    }
    out.push_str("],\n");
    out.push_str("  \"findings\": [");
    let all = violations
        .iter()
        .map(|f| (f, false))
        .chain(suppressed.iter().map(|f| (f, true)));
    let mut first = true;
    for (f, allowlisted) in all {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!(
            "\n    {{\"file\": \"{}\", \"line\": {}, \"rule\": \"{}\", \"token\": \"{}\", \
             \"allowlisted\": {}}}",
            json_escape(&f.file),
            f.line,
            f.rule,
            json_escape(&f.token),
            allowlisted
        ));
    }
    if !first {
        out.push_str("\n  ");
    }
    out.push_str("]\n}\n");
    out
}

/// Escape a string for embedding in a JSON document.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Repo-relative path of the committed budget baseline.
const BUDGET_BASELINE: &str = "crates/xtask/lint-budget.baseline";

/// Compare the active allowlist against the committed baseline; returns
/// one message per grown or new budget. Removed/shrunk entries are fine
/// (budgets only shrink).
fn budget_check(cfg_path: &Path, baseline_path: &Path) -> Result<Vec<String>, String> {
    let read = |p: &Path| -> Result<Vec<AllowEntry>, String> {
        match std::fs::read_to_string(p) {
            Ok(src) => config::parse(&src),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Vec::new()),
            Err(e) => Err(format!("reading {}: {e}", p.display())),
        }
    };
    let current = read(cfg_path)?;
    if !baseline_path.exists() {
        return Err(format!(
            "no budget baseline at {} — commit one with `analyze --update-budget-baseline`",
            baseline_path.display()
        ));
    }
    let baseline = read(baseline_path)?;
    let mut problems = Vec::new();
    for c in &current {
        match baseline.iter().find(|b| b.rule == c.rule && b.file == c.file) {
            None => problems.push(format!(
                "budget [{} / {}] is new (max = {}) — not in the committed baseline",
                c.rule, c.file, c.max
            )),
            Some(b) if c.max > b.max => problems.push(format!(
                "budget [{} / {}] grew: baseline max = {}, now {}",
                c.rule, c.file, b.max, c.max
            )),
            Some(_) => {}
        }
    }
    Ok(problems)
}

/// Copy the active allowlist to the committed baseline.
fn update_budget_baseline(cfg_path: &Path, baseline_path: &Path) -> Result<String, String> {
    let src = match std::fs::read_to_string(cfg_path) {
        Ok(src) => src,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => String::new(),
        Err(e) => return Err(format!("reading {}: {e}", cfg_path.display())),
    };
    config::parse(&src)?; // refuse to baseline an unparseable config
    std::fs::write(baseline_path, &src)
        .map_err(|e| format!("writing {}: {e}", baseline_path.display()))?;
    Ok(format!("aqp-analyze: baselined {} budgets", baseline_path.display()))
}

/// Split findings into (violations, suppressed, shrink-nags).
///
/// A budget suppresses up to `max` findings for its (rule, file) pair.
/// Over-budget pairs report *all* their findings (the allowlist must
/// shrink, never grow). Under-budget pairs and unused entries produce
/// nags so stale budgets get tightened.
fn apply_allowlist(
    findings: Vec<Finding>,
    allow: &[AllowEntry],
) -> (Vec<Finding>, Vec<Finding>, Vec<String>) {
    let mut counts: HashMap<(String, String), usize> = HashMap::new();
    for f in &findings {
        *counts.entry((f.rule.to_string(), f.file.clone())).or_insert(0) += 1;
    }
    let budget_of = |f: &Finding| {
        allow
            .iter()
            .find(|a| a.rule == f.rule && a.file == f.file)
            .map(|a| a.max)
    };

    let mut violations = Vec::new();
    let mut suppressed = Vec::new();
    for f in findings {
        let count = counts[&(f.rule.to_string(), f.file.clone())];
        match budget_of(&f) {
            Some(max) if count <= max => suppressed.push(f),
            _ => violations.push(f),
        }
    }

    let mut nags = Vec::new();
    for a in allow {
        let actual = counts.get(&(a.rule.clone(), a.file.clone())).copied().unwrap_or(0);
        if actual == 0 {
            nags.push(format!(
                "allowlist entry [{} / {}] is unused — delete it",
                a.rule, a.file
            ));
        } else if actual < a.max {
            nags.push(format!(
                "allowlist budget [{} / {}] can shrink: max = {} but only {} finding(s)",
                a.rule, a.file, a.max, actual
            ));
        } else if actual > a.max {
            nags.push(format!(
                "allowlist budget [{} / {}] exceeded: max = {} but {} finding(s) — \
                 fix the new ones; budgets only shrink",
                a.rule, a.file, a.max, actual
            ));
        }
    }
    (violations, suppressed, nags)
}

/// Directories never scanned: build output, vendored stand-ins (they
/// emulate foreign APIs, including the forbidden ones), and VCS/tooling
/// metadata. The analyzer's own fixture corpus uses the `.fix`
/// extension, so it is skipped by construction.
const SKIP_DIRS: &[&str] = &["target", "third_party", ".git", ".github", ".claude"];

/// Recursively collect repo-relative `.rs` and `Cargo.toml` paths.
fn walk(
    root: &Path,
    dir: &Path,
    sources: &mut Vec<String>,
    manifests: &mut Vec<String>,
) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            walk(root, &path, sources, manifests)?;
        } else if let Ok(rel) = path.strip_prefix(root) {
            let rel = rel.to_string_lossy().replace('\\', "/");
            if name.ends_with(".rs") {
                sources.push(rel);
            } else if name == "Cargo.toml" {
                manifests.push(rel);
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(rule: &'static str, file: &str) -> Finding {
        Finding {
            file: file.into(),
            line: 1,
            rule,
            token: "tok".into(),
            hint: "hint",
        }
    }

    fn entry(rule: &str, file: &str, max: usize) -> AllowEntry {
        AllowEntry {
            rule: rule.into(),
            file: file.into(),
            max,
            reason: "test".into(),
        }
    }

    #[test]
    fn allowlist_suppresses_within_budget() {
        let allow = vec![entry("rng-discipline", "a.rs", 2)];
        let findings = vec![finding("rng-discipline", "a.rs"), finding("rng-discipline", "a.rs")];
        let (viol, supp, nags) = apply_allowlist(findings, &allow);
        assert!(viol.is_empty());
        assert_eq!(supp.len(), 2);
        assert!(nags.is_empty(), "{nags:?}");
    }

    #[test]
    fn over_budget_reports_everything() {
        let allow = vec![entry("panic-freedom", "a.rs", 1)];
        let findings = vec![finding("panic-freedom", "a.rs"), finding("panic-freedom", "a.rs")];
        let (viol, supp, nags) = apply_allowlist(findings, &allow);
        assert_eq!(viol.len(), 2);
        assert!(supp.is_empty());
        assert_eq!(nags.len(), 1);
        assert!(nags[0].contains("exceeded"));
    }

    #[test]
    fn under_budget_and_unused_entries_nag() {
        let allow = vec![entry("nan-safety", "a.rs", 3), entry("nan-safety", "b.rs", 1)];
        let findings = vec![finding("nan-safety", "a.rs")];
        let (viol, supp, nags) = apply_allowlist(findings, &allow);
        assert!(viol.is_empty());
        assert_eq!(supp.len(), 1);
        assert_eq!(nags.len(), 2);
        assert!(nags.iter().any(|n| n.contains("can shrink")));
        assert!(nags.iter().any(|n| n.contains("unused")));
    }

    #[test]
    fn unallowlisted_findings_are_violations() {
        let (viol, supp, _) = apply_allowlist(vec![finding("nan-safety", "a.rs")], &[]);
        assert_eq!(viol.len(), 1);
        assert!(supp.is_empty());
    }

    #[test]
    fn report_json_is_deterministic_and_escaped() {
        let v = vec![finding("nan-safety", "a\"b.rs")];
        let s = vec![finding("rng-discipline", "c.rs")];
        let one = render_report(&v, &s, 10, 2);
        let two = render_report(&v, &s, 10, 2);
        assert_eq!(one, two);
        assert!(one.contains("\\\"b.rs"), "{one}");
        assert!(one.contains("\"allowlisted\": true"), "{one}");
        assert!(one.contains("\"allowlisted\": false"), "{one}");
        assert!(one.contains("\"schema\": 1"), "{one}");
        // Empty report stays valid JSON too.
        let empty = render_report(&[], &[], 0, 0);
        assert!(empty.contains("\"findings\": []"), "{empty}");
    }

    #[test]
    fn budget_check_flags_growth_and_new_entries() {
        let dir = std::env::temp_dir().join(format!("aqp-budget-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        let cfg = dir.join("lint.toml");
        let base = dir.join("baseline");
        let entry = |rule: &str, file: &str, max: usize| {
            format!("[[allow]]\nrule = \"{rule}\"\nfile = \"{file}\"\nmax = {max}\nreason = \"r\"\n")
        };
        std::fs::write(&base, entry("nan-safety", "a.rs", 2)).expect("write baseline");

        // Same budget: clean. Shrunk: clean. Grown / new: flagged.
        std::fs::write(&cfg, entry("nan-safety", "a.rs", 2)).expect("write cfg");
        assert!(budget_check(&cfg, &base).expect("check").is_empty());
        std::fs::write(&cfg, entry("nan-safety", "a.rs", 1)).expect("write cfg");
        assert!(budget_check(&cfg, &base).expect("check").is_empty());
        std::fs::write(&cfg, entry("nan-safety", "a.rs", 3)).expect("write cfg");
        let p = budget_check(&cfg, &base).expect("check");
        assert_eq!(p.len(), 1);
        assert!(p[0].contains("grew"), "{p:?}");
        std::fs::write(&cfg, entry("panic-freedom", "b.rs", 1)).expect("write cfg");
        let p = budget_check(&cfg, &base).expect("check");
        assert_eq!(p.len(), 1);
        assert!(p[0].contains("new"), "{p:?}");

        // A missing baseline is an error, not a silent pass.
        let missing = dir.join("nope");
        assert!(budget_check(&cfg, &missing).is_err());
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
}
