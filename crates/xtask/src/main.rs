//! `xtask` — workspace invariant checking and corpus tooling.
//!
//! Subcommands:
//!
//! * `analyze` (alias `lint`) — lexes every `.rs` file in the
//!   repository (skipping `target/`, `third_party/`, and VCS metadata),
//!   builds the item/call/lock index, and enforces the token rules of
//!   `src/rules.rs` plus the semantic rules of `src/semrules.rs`. Also
//!   verifies `docs/METRICS.md` and `docs/LINTS.md` are current. Exits
//!   nonzero when any finding remains, printing `file:line: [rule] token
//!   — hint` for each. There is no allowlist: a sanctioned exception is
//!   an edit to its rule, with the reason beside it.
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

mod index;
mod lexer;
mod lints_inventory;
mod metrics_inventory;
mod rules;
mod semrules;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

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

/// `analyze [--root PATH]`.
fn analyze_cmd(args: &[String]) -> ExitCode {
    let root = match args {
        [] => default_root(),
        [flag, path] if flag == "--root" => PathBuf::from(path),
        _ => {
            eprintln!("xtask analyze: unexpected arguments `{}`", args.join(" "));
            return usage();
        }
    };
    match analyze(&root) {
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
    eprintln!("  analyze [--root PATH]   (alias: lint)");
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
fn analyze(root: &Path) -> Result<bool, String> {
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
    for f in &findings {
        println!("{f}");
    }
    let scanned = format!("{} sources + {} manifests", sources.len(), manifests.len());
    if findings.is_empty() {
        println!("aqp-analyze: OK — {scanned} scanned");
    } else {
        println!("aqp-analyze: {} violation(s) across {scanned}", findings.len());
    }
    Ok(findings.is_empty())
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
