//! The token-level lint rules: each takes a lexed file and appends
//! findings. The semantic (index-backed) rules live in `semrules.rs`;
//! [`RULES`] catalogs both families for the generated `docs/LINTS.md`.
//!
//! Rule families (README.md has the rationale; there is no allowlist — an
//! exception is part of its rule, like `RNG_CONSTRUCTION_SITE`):
//!
//! * `rng-discipline` — every random stream must derive from an explicit
//!   seed through `aqp_stats::rng`; entropy-based constructors and raw
//!   reseeding are forbidden.
//! * `nan-safety` — float comparisons must be total: no
//!   `partial_cmp(..).unwrap()/expect(..)` and no `sort_by`-family call
//!   built on `partial_cmp`; use `f64::total_cmp`.
//! * `panic-freedom` — library code of the AQP pipeline crates must not
//!   contain `panic!`, `unreachable!`, `todo!`, `unimplemented!`,
//!   `assert!`, `assert_eq!`, `assert_ne!`, or `.unwrap()`; return typed
//!   errors (or `.expect` with an invariant message where infallibility
//!   is provable, `debug_assert!` where the caller guarantees it).
//! * `crate-hygiene` — crate roots carry `#![deny(unsafe_code)]` and
//!   `#![warn(missing_docs)]`; manifests route every dependency through
//!   `[workspace.dependencies]`.

use crate::index::FileTokens;
use crate::lexer::matching_close;
use std::path::Path;

/// Crates whose library code must be panic-free (the request path). Their
/// library code names no workspace crate outside this set
/// (`tests/lint_invariants.rs`), so a token rule over these twelve sees
/// every panic site a query can reach inside the workspace.
pub const PANIC_FREE_CRATES: &[&str] = &[
    "exec", "core", "stats", "storage", "obs", "prof", "faults", "slo", "introspect", "diagnostics",
    "sql", "audit",
];

/// One lint finding.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Repo-relative path of the offending file.
    pub file: String,
    /// 1-based line number.
    pub line: u32,
    /// Rule family name.
    pub rule: &'static str,
    /// The offending token or construct.
    pub token: String,
    /// How to fix it.
    pub hint: &'static str,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] `{}` — {}",
            self.file, self.line, self.rule, self.token, self.hint
        )
    }
}

/// One entry of the rule catalog rendered into `docs/LINTS.md`.
pub struct RuleInfo {
    /// Rule family name as it appears in findings.
    pub name: &'static str,
    /// Analysis tier: `token`, `semantic`, `manifest`, or `docs`.
    pub tier: &'static str,
    /// Where the rule applies.
    pub scope: &'static str,
    /// What it enforces and why.
    pub summary: &'static str,
    /// What it has caught in this repository, as far as any PR wrote down.
    pub caught: &'static str,
}

/// Every rule the analyzer enforces, in catalog order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        name: "rng-discipline",
        tier: "token",
        scope: "all sources; `seed_from_u64` is sanctioned in crates/stats/src/rng.rs",
        summary: "Random streams must derive from an explicit seed via \
                  `aqp_stats::rng`; entropy constructors (`thread_rng`, \
                  `from_entropy`, `rand::rng()`) and raw `seed_from_u64` \
                  reseeding are forbidden so every answer is reproducible \
                  from its recorded seed.",
        caught: "nothing recorded",
    },
    RuleInfo {
        name: "nan-safety",
        tier: "token",
        scope: "all sources",
        summary: "Float comparisons must be total: no \
                  `partial_cmp(..).unwrap()/expect(..)` and no \
                  `sort_by`-family comparator built on `partial_cmp`; use \
                  `f64::total_cmp` so NaN cannot panic or destabilize an \
                  ordering.",
        caught: "nothing recorded",
    },
    RuleInfo {
        name: "panic-freedom",
        tier: "token",
        scope: "library code of exec, core, stats, storage, obs, prof, faults, slo, introspect, diagnostics, \
                sql, audit",
        summary: "Pipeline library code must not contain `panic!`, \
                  `unreachable!`, `todo!`, `unimplemented!`, `assert!`, \
                  `assert_eq!`, `assert_ne!`, or `.unwrap()`; return typed \
                  errors, `.expect(\"<invariant>\")` where infallibility is \
                  provable, or `debug_assert!` where the caller guarantees \
                  the precondition.",
        caught: "PR 24, once it counted `assert!`: twelve in `stats`, five of \
                 them reachable from `AqpSession::execute` / `build_samples` \
                 (a 100 % or 150 % confidence, `default_confidence: 1.0`, a \
                 zero-row table); before that nothing recorded — \
                 `diagnostics`, `sql` and `audit` joined the set with zero \
                 findings (PRs 17, 22)",
    },
    RuleInfo {
        name: "crate-hygiene",
        tier: "token + manifest",
        scope: "crate roots and member manifests",
        summary: "Crate roots carry `#![deny(unsafe_code)]` and \
                  `#![warn(missing_docs)]`; every member dependency routes \
                  through `[workspace.dependencies]` so versions are pinned \
                  in one place.",
        caught: "nothing recorded",
    },
    RuleInfo {
        name: "lock-order",
        tier: "semantic",
        scope: "non-test fns of all workspace crates",
        summary: "Builds the lock acquisition graph over every \
                  `Mutex`/`RwLock` field and fails on a guard held across a \
                  call that can acquire another lock, same-lock re-entry, \
                  and acquisition-order cycles — the deadlock guard for a \
                  session shared across threads.",
        caught: "nothing recorded: every lock is a leaf by its model, and \
                 nothing else checks that (ROADMAP 7(b))",
    },
    RuleInfo {
        name: "determinism-taint",
        tier: "semantic",
        scope: "clocks: everywhere outside crates/obs; thread ids and hash \
                iteration: library code outside #[cfg(test)]",
        summary: "Flags dataflow from non-seeded sources into exported \
                  values: raw `Instant`/`SystemTime` (subsumes the old \
                  `timing-discipline` rule), OS thread ids, and iteration \
                  over `HashMap`/`HashSet` unless the result is \
                  order-insensitive, collected into a BTree container, or \
                  re-sorted.",
        caught: "PR 6: `Catalog::table_names` returned hash-ordered names \
                 (sorted then; the function had no caller and went at PR 24)",
    },
    RuleInfo {
        name: "metrics-docs",
        tier: "docs",
        scope: "docs/METRICS.md",
        summary: "The generated metrics inventory must match the constants \
                  in `aqp_obs::name`; regenerate with `cargo run -p xtask \
                  -- metrics-inventory`.",
        caught: "nothing recorded",
    },
    RuleInfo {
        name: "lints-docs",
        tier: "docs",
        scope: "docs/LINTS.md",
        summary: "The generated rule catalog must match this table; \
                  regenerate with `cargo run -p xtask -- lints-inventory`.",
        caught: "nothing recorded",
    },
];

/// Run all token-level source rules on one lexed file.
pub fn check_file(f: &FileTokens) -> Vec<Finding> {
    let mut out = Vec::new();
    rng_discipline(f, &mut out);
    nan_safety(f, &mut out);
    if f.is_lib && PANIC_FREE_CRATES.contains(&f.krate.as_str()) {
        panic_freedom(f, &mut out);
    }
    if is_crate_root(&f.rel) {
        crate_root_attrs(f, &mut out);
    }
    out
}

/// Convenience for tests: lex + check in one step.
#[cfg(test)]
pub fn check_source(rel: &str, src: &str) -> Vec<Finding> {
    check_file(&FileTokens::new(rel, src))
}

/// The one file that may call `seed_from_u64`: `rng_from_seed` wraps
/// `StdRng::seed_from_u64` there so seed provenance stays auditable.
const RNG_CONSTRUCTION_SITE: &str = "crates/stats/src/rng.rs";

/// `rng-discipline`: forbid entropy constructors everywhere and raw
/// `seed_from_u64` outside [`RNG_CONSTRUCTION_SITE`].
fn rng_discipline(f: &FileTokens, out: &mut Vec<Finding>) {
    let toks = &f.toks;
    for (i, t) in toks.iter().enumerate() {
        let Some(id) = t.ident() else { continue };
        match id {
            "thread_rng" | "from_entropy" | "from_os_rng" => out.push(Finding {
                file: f.rel.clone(),
                line: t.line,
                rule: "rng-discipline",
                token: id.into(),
                hint: "entropy-based RNG construction breaks reproducibility; derive a \
                       stream from an explicit seed via aqp_stats::rng::SeedStream",
            }),
            "seed_from_u64" if f.rel != RNG_CONSTRUCTION_SITE => out.push(Finding {
                file: f.rel.clone(),
                line: t.line,
                rule: "rng-discipline",
                token: id.into(),
                hint: "raw reseeding outside crates/stats/src/rng.rs loses the seed \
                       provenance; use aqp_stats::rng::{rng_from_seed, SeedStream}",
            }),
            // `rand::rng()` — the rand 0.9+ name for thread_rng.
            "rand"
                if toks[i + 1..].len() >= 4
                    && toks[i + 1].is_punct(':')
                    && toks[i + 2].is_punct(':')
                    && toks[i + 3].ident() == Some("rng")
                    && toks[i + 4].is_punct('(') =>
            {
                out.push(Finding {
                    file: f.rel.clone(),
                    line: t.line,
                    rule: "rng-discipline",
                    token: "rand::rng()".into(),
                    hint: "the thread-local generator is seeded from OS entropy; \
                           derive a stream from an explicit seed via aqp_stats::rng",
                });
            }
            _ => {}
        }
    }
}

/// `nan-safety`: `partial_cmp` chained into `unwrap`/`expect`, and
/// `sort_by`-family comparators built on `partial_cmp`.
fn nan_safety(f: &FileTokens, out: &mut Vec<Finding>) {
    const SORT_FAMILY: &[&str] = &[
        "sort_by",
        "sort_unstable_by",
        "sort_by_cached_key",
        "min_by",
        "max_by",
        "binary_search_by",
    ];
    let toks = &f.toks;
    for (i, t) in toks.iter().enumerate() {
        let Some(id) = t.ident() else { continue };
        if id == "partial_cmp" {
            if let Some(j) = matching_close(toks, i + 1) {
                if j + 2 < toks.len()
                    && toks[j + 1].is_punct('.')
                    && matches!(toks[j + 2].ident(), Some("unwrap") | Some("expect"))
                {
                    out.push(Finding {
                        file: f.rel.clone(),
                        line: t.line,
                        rule: "nan-safety",
                        token: format!(
                            "partial_cmp(..).{}",
                            toks[j + 2].ident().unwrap_or_default()
                        ),
                        hint: "panics on NaN; use f64::total_cmp (or handle the None arm)",
                    });
                }
            }
        } else if SORT_FAMILY.contains(&id) {
            if let Some(j) = matching_close(toks, i + 1) {
                let arg_has_partial_cmp = toks[i + 1..j]
                    .iter()
                    .any(|t| t.ident() == Some("partial_cmp"));
                // The chained-unwrap case above already reports inside the
                // comparator; only flag sorts that dodge it some other way
                // (unwrap_or, matches on Option, ...).
                let already_reported = toks[i + 1..j].iter().any(|t| {
                    matches!(t.ident(), Some("unwrap") | Some("expect"))
                });
                if arg_has_partial_cmp && !already_reported {
                    out.push(Finding {
                        file: f.rel.clone(),
                        line: t.line,
                        rule: "nan-safety",
                        token: format!("{id}(.. partial_cmp ..)"),
                        hint: "float ordering via partial_cmp is not total under NaN; \
                               sort with f64::total_cmp",
                    });
                }
            }
        }
    }
}

/// `panic-freedom` for library code of the pipeline crates.
fn panic_freedom(f: &FileTokens, out: &mut Vec<Finding>) {
    let toks = &f.toks;
    for (i, t) in toks.iter().enumerate() {
        let Some(id) = t.ident() else { continue };
        if f.in_test(t.line) {
            continue;
        }
        let is_macro = i + 1 < toks.len() && toks[i + 1].is_punct('!');
        match id {
            "panic" | "unreachable" | "todo" | "unimplemented" | "assert" | "assert_eq" | "assert_ne"
                if is_macro =>
            {
                out.push(Finding {
                    file: f.rel.clone(),
                    line: t.line,
                    rule: "panic-freedom",
                    token: format!("{id}!"),
                    hint: "library code on the query path must not abort; return a \
                           typed error (e.g. ExecError), or debug_assert! what the \
                           caller guarantees",
                });
            }
            "unwrap"
                if i > 0
                    && toks[i - 1].is_punct('.')
                    && i + 2 < toks.len()
                    && toks[i + 1].is_punct('(')
                    && toks[i + 2].is_punct(')') =>
            {
                out.push(Finding {
                    file: f.rel.clone(),
                    line: t.line,
                    rule: "panic-freedom",
                    token: ".unwrap()".into(),
                    hint: "propagate the error (`?`) or use .expect(\"<invariant>\") \
                           to document why this cannot fail",
                });
            }
            _ => {}
        }
    }
}

/// Crate roots: `src/lib.rs` of the repo or of any `crates/*` member.
pub fn is_crate_root(rel: &str) -> bool {
    let comps: Vec<&str> = Path::new(rel).iter().filter_map(|c| c.to_str()).collect();
    comps.as_slice() == ["src", "lib.rs"]
        || (comps.len() == 4 && comps[0] == "crates" && comps[2] == "src" && comps[3] == "lib.rs")
}

/// `crate-hygiene` (source half): required crate-root attributes, found
/// as token sequences (`# ! [ deny ( unsafe_code ) ]`) so strings and
/// comments can never satisfy or fake them.
fn crate_root_attrs(f: &FileTokens, out: &mut Vec<Finding>) {
    let toks = &f.toks;
    let has_inner_attr = |outer: &str, inner: &str| {
        toks.iter().enumerate().any(|(i, t)| {
            i >= 3
                && t.is_ident(outer)
                && toks[i - 3].is_punct('#')
                && toks[i - 2].is_punct('!')
                && toks[i - 1].is_punct('[')
                && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
                && toks.get(i + 2).is_some_and(|n| n.is_ident(inner))
                && toks.get(i + 3).is_some_and(|n| n.is_punct(')'))
        })
    };
    for (outer, inner, token) in [
        ("deny", "unsafe_code", "deny(unsafe_code)"),
        ("warn", "missing_docs", "warn(missing_docs)"),
    ] {
        if !has_inner_attr(outer, inner) {
            out.push(Finding {
                file: f.rel.clone(),
                line: 1,
                rule: "crate-hygiene",
                token: token.into(),
                hint: "every crate root must carry #![deny(unsafe_code)] and \
                       #![warn(missing_docs)]",
            });
        }
    }
}

/// `crate-hygiene` (manifest half): every `[dependencies]` /
/// `[dev-dependencies]` / `[build-dependencies]` entry of a member crate
/// must route through `[workspace.dependencies]` (`workspace = true`).
pub fn check_manifest(rel: &str, src: &str) -> Vec<Finding> {
    let mut out = Vec::new();
    let mut in_dep_section = false;
    for (idx, raw) in src.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if line.starts_with('[') {
            in_dep_section = matches!(
                line,
                "[dependencies]" | "[dev-dependencies]" | "[build-dependencies]"
            );
            continue;
        }
        if !in_dep_section {
            continue;
        }
        let Some((key, value)) = line.split_once('=') else { continue };
        let key = key.trim();
        let value = value.trim();
        let routed = key.ends_with(".workspace") && value == "true"
            || value.contains("workspace = true")
            || value.contains("workspace=true");
        if !routed {
            out.push(Finding {
                file: rel.into(),
                line: idx as u32 + 1,
                rule: "crate-hygiene",
                token: key.split('.').next().unwrap_or(key).into(),
                hint: "declare the version/path once under [workspace.dependencies] \
                       and use `<name>.workspace = true` here",
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_on(rel: &str, src: &str) -> Vec<Finding> {
        check_source(rel, src)
    }

    #[test]
    fn rng_rule_hits_entropy_constructors() {
        let f = rules_on("crates/workload/src/x.rs", "let mut r = thread_rng();");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "rng-discipline");
        let f = rules_on("crates/workload/src/x.rs", "let r = rand::rng();");
        assert_eq!(f.len(), 1, "{f:?}");
        let f = rules_on("src/x.rs", "let r = StdRng::seed_from_u64(42);");
        assert_eq!(f.len(), 1);
        // The sanctioned site may reseed, and nothing else there is exempt.
        let site = "pub fn rng_from_seed(s: u64) -> StdRng { StdRng::seed_from_u64(s) }";
        assert!(rules_on(RNG_CONSTRUCTION_SITE, site).is_empty());
        assert_eq!(rules_on(RNG_CONSTRUCTION_SITE, "let r = thread_rng();").len(), 1);
    }

    #[test]
    fn rng_rule_ignores_comments_and_strings() {
        let f = rules_on(
            "src/x.rs",
            "// thread_rng is forbidden\nlet s = \"from_entropy\"; /* seed_from_u64 */",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    // Regression for the retired scanner's blind spots: raw strings and
    // multi-line strings must behave exactly like plain literals.
    #[test]
    fn rng_rule_ignores_raw_and_multiline_strings() {
        let f = rules_on("src/x.rs", "let s = r#\"thread_rng() from_entropy\"#;");
        assert!(f.is_empty(), "{f:?}");
        let f = rules_on("src/x.rs", "let s = \"line one\nthread_rng()\nline three\";");
        assert!(f.is_empty(), "{f:?}");
        // `//` inside a string must not swallow real code after it.
        let f = rules_on("src/x.rs", "let u = \"https://x\"; let r = thread_rng();");
        assert_eq!(f.len(), 1, "{f:?}");
    }

    #[test]
    fn nan_rule_hits_chained_unwrap_and_sorts() {
        let f = rules_on("src/x.rs", "v.sort_by(|a, b| a.partial_cmp(b).unwrap());");
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "nan-safety");
        assert!(f[0].token.contains("unwrap"));
        let f = rules_on(
            "src/x.rs",
            "v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(Ordering::Equal));",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].token.starts_with("sort_by"));
        let f = rules_on("src/x.rs", "let o = x.partial_cmp(&y).expect(\"no NaN\");");
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn nan_rule_allows_propagated_option() {
        let f = rules_on("src/x.rs", "let o = x.partial_cmp(&y)?; let p = a.partial_cmp(&b).map(flip);");
        assert!(f.is_empty(), "{f:?}");
        let f = rules_on("src/x.rs", "v.sort_by(f64::total_cmp);");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn panic_rule_applies_only_to_pipeline_lib_code() {
        let src = "fn f(o: Option<u32>) -> u32 { o.unwrap() }";
        assert_eq!(rules_on("crates/exec/src/engine.rs", src).len(), 1);
        assert_eq!(rules_on("crates/stats/src/ci.rs", "fn g() { panic!(\"x\") }").len(), 1);
        let asserts = "fn g(a: u8) { assert!(a > 0); assert_eq!(a, 1); assert_ne!(a, 2); debug_assert!(a < 9); }";
        let f = rules_on("crates/stats/src/ci.rs", asserts);
        assert_eq!(f.iter().map(|x| x.token.as_str()).collect::<Vec<_>>(), ["assert!", "assert_eq!", "assert_ne!"]);
        // Same code in a bench, a test tree, or a non-pipeline crate: clean.
        assert!(rules_on("crates/exec/benches/b.rs", src).is_empty());
        assert!(rules_on("tests/properties.rs", src).is_empty());
        assert!(rules_on("crates/bench/src/util.rs", src).is_empty());
    }

    #[test]
    fn panic_rule_exempts_cfg_test_modules() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n  #[test]\n  fn t() { Some(1).unwrap(); panic!(\"boom\") }\n}";
        let f = rules_on("crates/core/src/session.rs", src);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn panic_rule_allows_expect_with_message() {
        let f = rules_on(
            "crates/exec/src/parallel.rs",
            "let v = handle.join().expect(\"worker panicked\");",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn hygiene_rule_requires_crate_root_attrs() {
        let f = rules_on("crates/exec/src/lib.rs", "//! Docs.\n#![deny(unsafe_code)]\n");
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].token, "warn(missing_docs)");
        let f = rules_on(
            "src/lib.rs",
            "//! Docs.\n#![deny(unsafe_code)]\n#![warn(missing_docs)]\n",
        );
        assert!(f.is_empty(), "{f:?}");
        // A string mentioning the attribute must not satisfy the rule.
        let f = rules_on("crates/x/src/lib.rs", "const S: &str = \"#![deny(unsafe_code)] #![warn(missing_docs)]\";");
        assert_eq!(f.len(), 2, "{f:?}");
        // Non-root files carry no attribute obligation.
        let f = rules_on("crates/exec/src/engine.rs", "fn ok() {}");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn manifest_rule_requires_workspace_deps() {
        let bad = "[package]\nname = \"x\"\n[dependencies]\nrand = \"0.8\"\nserde = { version = \"1\", features = [\"derive\"] }\n";
        let f = check_manifest("crates/x/Cargo.toml", bad);
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f.iter().all(|f| f.rule == "crate-hygiene"));
        let good = "[dependencies]\nrand.workspace = true\nserde = { workspace = true, features = [\"derive\"] }\n";
        assert!(check_manifest("crates/x/Cargo.toml", good).is_empty());
    }

    #[test]
    fn rule_catalog_is_complete_and_unique() {
        let names: Vec<&str> = RULES.iter().map(|r| r.name).collect();
        for required in [
            "rng-discipline",
            "nan-safety",
            "panic-freedom",
            "crate-hygiene",
            "lock-order",
            "determinism-taint",
            "metrics-docs",
            "lints-docs",
        ] {
            assert!(names.contains(&required), "catalog misses {required}");
        }
        let mut dedup = names.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "duplicate rule names");
    }
}
