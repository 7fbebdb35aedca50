//! `xtask lints-inventory` — regenerate `docs/LINTS.md` from the rule
//! catalog in `src/rules.rs`.
//!
//! Every rule the analyzer enforces is declared in [`crate::rules::RULES`]
//! with its tier, scope, and rationale. This subcommand renders that
//! catalog as a markdown table, so the contributor-facing rule list can
//! never silently drift from the code: `analyze` fails (rule
//! `lints-docs`) when `docs/LINTS.md` is stale. The subcommand's flags
//! and the staleness check are [`GeneratedDoc`]'s, shared with
//! `metrics-inventory` → `docs/METRICS.md`.

use crate::rules::RULES;
use crate::GeneratedDoc;

/// Repo-relative path of the source of truth (the compiled-in catalog).
const SOURCE: &str = "crates/xtask/src/rules.rs";

/// The `lints-inventory` subcommand and the `lints-docs` rule.
pub const DOC: GeneratedDoc = GeneratedDoc {
    command: "lints-inventory",
    rule: "lints-docs",
    source: SOURCE,
    target: "docs/LINTS.md",
    truth: "the rules::RULES catalog",
    hint: "regenerate with `cargo run -p xtask -- lints-inventory`",
    render: |_root| Ok(render()),
};

/// Render the full catalog document.
fn render() -> String {
    let mut out = String::new();
    out.push_str("# Lint rule catalog\n\n");
    out.push_str(
        "<!-- Generated by `cargo run -p xtask -- lints-inventory`. Do not edit by hand;\n     \
         `cargo run -p xtask -- analyze` fails when this file is stale. -->\n\n",
    );
    out.push_str(&format!(
        "Every rule `cargo run -p xtask -- analyze` enforces is declared in\n\
         `rules::RULES` ({SOURCE}) and listed here. Every rule reads one\n\
         file at a time: token rules match the lexed token stream of one\n\
         source file, manifest rules one `Cargo.toml`. Locks are checked by\n\
         `tests/lint_invariants.rs` (an inventory of every lock and a guard\n\
         check per file), not here.\n\
         There is no allowlist: a sanctioned exception is part of its rule\n\
         (see Scope). The last column is what each rule has caught in this\n\
         repository, as far as any PR wrote down. {} rules.\n\n",
        RULES.len()
    ));
    out.push_str("| Rule | Tier | Scope | Enforces | Caught |\n|---|---|---|---|---|\n");
    for r in RULES {
        out.push_str(&format!(
            "| `{}` | {} | {} | {} | {} |\n",
            r.name,
            r.tier,
            r.scope.replace('|', "\\|"),
            r.summary.replace('|', "\\|"),
            r.caught.replace('|', "\\|")
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_lists_every_rule_once() {
        let md = render();
        for r in RULES {
            assert!(
                md.contains(&format!("| `{}` |", r.name)),
                "missing {} in:\n{md}",
                r.name
            );
        }
        assert!(md.contains("Generated by"), "missing generation marker");
    }

    #[test]
    fn committed_catalog_is_current() {
        let root = crate::default_root();
        if !root.join(SOURCE).exists() {
            return; // fixture-less environments skip
        }
        assert_eq!(DOC.staleness(&root), None, "run `cargo run -p xtask -- lints-inventory`");
    }
}
