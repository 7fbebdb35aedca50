//! A lightweight item/expression index over the lexed workspace.
//!
//! The semantic rules (`semrules.rs`) need more than a token stream:
//! which `fn` a token belongs to, which functions call which, where
//! `Mutex`/`RwLock` guards are acquired and how long they are plausibly
//! held, and which bindings have hash-ordered types. This module builds
//! that index with name-based resolution — deliberately *not* a type
//! checker. The heuristics favour precision (few false positives) and
//! determinism (all containers are ordered); where the approximation
//! gets a case wrong, the exception is written into the rule.

use crate::lexer::{cfg_test_line_ranges, lex, matching_close, SpannedTok};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

/// One lexed file plus derived per-file facts.
pub struct FileTokens {
    /// Repo-relative path with forward slashes.
    pub rel: String,
    /// The token stream.
    pub toks: Vec<SpannedTok>,
    /// 1-based inclusive line ranges of `#[cfg(test)]` items.
    pub test_ranges: Vec<(u32, u32)>,
    /// The workspace crate this file belongs to (`"<name>"` for
    /// `crates/<name>/…`, `"root"` for the top-level `src/`, the first
    /// path component otherwise).
    pub krate: String,
    /// Whether this is library code (under a `src/` tree, not under
    /// `tests`/`benches`/`examples`).
    pub is_lib: bool,
}

impl FileTokens {
    /// Lex `src` as the file at repo-relative path `rel`.
    pub fn new(rel: &str, src: &str) -> FileTokens {
        let toks = lex(src);
        let test_ranges = cfg_test_line_ranges(&toks);
        let comps: Vec<&str> = Path::new(rel).iter().filter_map(|c| c.to_str()).collect();
        let krate = if comps.len() >= 2 && comps[0] == "crates" {
            comps[1].to_string()
        } else if comps.first() == Some(&"src") {
            "root".to_string()
        } else {
            comps.first().unwrap_or(&"").to_string()
        };
        let in_test_tree =
            comps.iter().any(|c| matches!(*c, "tests" | "benches" | "examples"));
        let is_lib = !in_test_tree
            && (comps.first() == Some(&"src")
                || (comps.len() >= 3 && comps[0] == "crates" && comps[2] == "src"));
        FileTokens { rel: rel.to_string(), toks, test_ranges, krate, is_lib }
    }

    /// Is `line` inside a `#[cfg(test)]` region?
    pub fn in_test(&self, line: u32) -> bool {
        self.test_ranges.iter().any(|&(s, e)| line >= s && line <= e)
    }
}

/// A `fn` item: its name and the token range of its body.
pub struct FnItem {
    /// The function name.
    pub name: String,
    /// Index into [`WorkspaceIndex::files`].
    pub file: usize,
    /// Token range of the body: `(open_brace, close_brace)` inclusive.
    pub body: (usize, usize),
    /// Inside a `#[cfg(test)]` region or a test tree.
    pub in_test: bool,
}

/// A call site inside some function body.
pub struct Call {
    /// Token index of the callee identifier (within its file).
    pub tok: usize,
    /// Callee name.
    pub name: String,
    /// 1-based line.
    pub line: u32,
    /// `true` for `.name(…)` method syntax.
    pub is_method: bool,
}

/// A `Mutex`/`RwLock` guard acquisition site.
pub struct LockAcq {
    /// Lock class: `(crate, field)` of the acquired lock.
    pub class: (String, String),
    /// Token index of the `lock`/`read`/`write` identifier.
    pub tok: usize,
    /// 1-based line.
    pub line: u32,
    /// Acquisition method (`lock`, `read`, or `write`).
    pub op: String,
    /// Token index (exclusive) up to which the guard is considered
    /// held: end of statement for temporaries, end of the enclosing
    /// block (or `drop(guard)`) for `let`-bound guards.
    pub held_until: usize,
}

/// Per-function derived facts.
#[derive(Default)]
pub struct FnFacts {
    /// Call sites in body order.
    pub calls: Vec<Call>,
    /// Lock acquisitions in body order.
    pub acquires: Vec<LockAcq>,
}

/// The whole-workspace index the semantic rules run on.
pub struct WorkspaceIndex {
    /// Every scanned source file.
    pub files: Vec<FileTokens>,
    /// Every `fn` item, in (file, token) order.
    pub fns: Vec<FnItem>,
    /// Facts for `fns[i]`.
    pub facts: Vec<FnFacts>,
    /// Function ids by name (ordered for deterministic iteration).
    pub by_name: BTreeMap<String, Vec<usize>>,
    /// `(crate, field)` pairs declared as `Mutex<…>`/`RwLock<…>`
    /// (directly or behind `Arc`/`OnceLock`).
    #[cfg_attr(not(test), allow(dead_code))]
    pub lock_fields: BTreeSet<(String, String)>,
    /// Per-file sets of identifiers with hash-ordered types
    /// (`HashMap`/`HashSet` fields, params, and `let` bindings).
    pub hash_names: Vec<BTreeSet<String>>,
}

/// Keywords that look like calls when followed by `(`.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "in", "as", "move", "let", "else",
    "break", "continue", "unsafe", "await", "ref", "mut", "box", "yield", "fn",
];

impl WorkspaceIndex {
    /// Build the index from `(rel_path, source)` pairs.
    pub fn build(sources: &[(String, String)]) -> WorkspaceIndex {
        let files: Vec<FileTokens> =
            sources.iter().map(|(rel, src)| FileTokens::new(rel, src)).collect();

        let mut lock_fields = BTreeSet::new();
        let mut hash_names = Vec::with_capacity(files.len());
        for f in &files {
            for field in lock_field_names(&f.toks) {
                lock_fields.insert((f.krate.clone(), field));
            }
            hash_names.push(hash_typed_names(&f.toks));
        }

        let mut fns = Vec::new();
        for (fi, f) in files.iter().enumerate() {
            extract_fns(fi, f, &mut fns);
        }
        let mut by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for (i, item) in fns.iter().enumerate() {
            by_name.entry(item.name.clone()).or_default().push(i);
        }

        let mut facts: Vec<FnFacts> = (0..fns.len()).map(|_| FnFacts::default()).collect();
        for (fi, f) in files.iter().enumerate() {
            collect_facts(fi, f, &fns, &lock_fields, &mut facts);
        }

        WorkspaceIndex { files, fns, facts, by_name, lock_fields, hash_names }
    }

    /// The innermost function whose body contains token `tok` of file
    /// `file`, if any.
    pub fn innermost_fn(&self, file: usize, tok: usize) -> Option<usize> {
        self.fns
            .iter()
            .enumerate()
            .filter(|(_, f)| f.file == file && f.body.0 <= tok && tok <= f.body.1)
            .min_by_key(|(_, f)| f.body.1 - f.body.0)
            .map(|(i, _)| i)
    }

    /// Resolve a call site. Method calls (`x.name(…)`) only resolve to
    /// a definition in the same file: inherent methods in this codebase
    /// live beside their callers, and widening further would let std
    /// method names (`.collect()`, `.min()`, …) alias unrelated free
    /// fns in other crates — exactly the false edges a name-based call
    /// graph must not grow. Free calls use the full [`resolve`] chain.
    ///
    /// [`resolve`]: WorkspaceIndex::resolve
    pub fn resolve_call(&self, caller_file: usize, c: &Call) -> Option<usize> {
        if c.is_method {
            let ids = self.by_name.get(&c.name)?;
            let same_file: Vec<usize> =
                ids.iter().copied().filter(|&i| self.fns[i].file == caller_file).collect();
            return if same_file.len() == 1 { Some(same_file[0]) } else { None };
        }
        self.resolve(caller_file, &c.name)
    }

    /// Resolve a call by name: same file first, then same crate, then
    /// a globally unique definition. Ambiguity at a level falls through
    /// only when that level has *no* candidate; two same-file or
    /// same-crate candidates stay unresolved (precision over recall).
    pub fn resolve(&self, caller_file: usize, name: &str) -> Option<usize> {
        let ids = self.by_name.get(name)?;
        let krate = &self.files[caller_file].krate;
        let same_file: Vec<usize> =
            ids.iter().copied().filter(|&i| self.fns[i].file == caller_file).collect();
        match same_file.len() {
            1 => return Some(same_file[0]),
            0 => {}
            _ => return None,
        }
        let same_crate: Vec<usize> = ids
            .iter()
            .copied()
            .filter(|&i| &self.files[self.fns[i].file].krate == krate)
            .collect();
        match same_crate.len() {
            1 => return Some(same_crate[0]),
            0 => {}
            _ => return None,
        }
        if ids.len() == 1 {
            Some(ids[0])
        } else {
            None
        }
    }
}

/// Find struct fields / statics declared with a lock type: walks back
/// from every `Mutex<`/`RwLock<` to the `name :` that introduces it,
/// skipping `Arc`, `OnceLock`, path segments, and `<` nesting.
fn lock_field_names(toks: &[SpannedTok]) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for (i, t) in toks.iter().enumerate() {
        let Some(id) = t.ident() else { continue };
        if !matches!(id, "Mutex" | "RwLock") {
            continue;
        }
        if !toks.get(i + 1).is_some_and(|n| n.is_punct('<')) {
            continue;
        }
        let mut k = i;
        while k > 0 {
            k -= 1;
            let skippable = toks[k].is_punct(':')
                || toks[k].is_punct('<')
                || matches!(
                    toks[k].ident(),
                    Some("Arc" | "OnceLock" | "std" | "sync" | "parking_lot" | "collections")
                );
            if !skippable {
                break;
            }
        }
        if let Some(name) = toks[k].ident() {
            // Must actually be `name :` — the token after the name is a
            // colon (the start of the type annotation we walked back
            // through).
            if toks.get(k + 1).is_some_and(|n| n.is_punct(':')) {
                out.insert(name.to_string());
            }
        }
    }
    out
}

/// Identifiers with hash-ordered types in this file: `name: HashMap<…>`
/// annotations (fields, params, lets) and `let [mut] name = HashMap::…`
/// initialisations.
fn hash_typed_names(toks: &[SpannedTok]) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for (i, t) in toks.iter().enumerate() {
        let Some(id) = t.ident() else { continue };
        if !matches!(id, "HashMap" | "HashSet") {
            continue;
        }
        // Annotation form: walk back over path segments / colons.
        let mut k = i;
        while k > 0 {
            k -= 1;
            let skippable = toks[k].is_punct(':')
                || matches!(toks[k].ident(), Some("std" | "collections"));
            if !skippable {
                break;
            }
        }
        if let Some(name) = toks[k].ident() {
            if toks.get(k + 1).is_some_and(|n| n.is_punct(':'))
                && !matches!(name, "std" | "collections")
            {
                out.insert(name.to_string());
                continue;
            }
        }
        // Initialisation form: `let [mut] name = [&]HashMap::new()` —
        // scan back a few tokens for `let`.
        let lo = i.saturating_sub(6);
        if let Some(let_at) = (lo..i).rev().find(|&k| toks[k].is_ident("let")) {
            let mut n = let_at + 1;
            if toks.get(n).is_some_and(|t| t.is_ident("mut")) {
                n += 1;
            }
            if let Some(name) = toks.get(n).and_then(|t| t.ident()) {
                out.insert(name.to_string());
            }
        }
    }
    out
}

/// Extract every `fn` item of file `fi` into `fns`.
fn extract_fns(fi: usize, f: &FileTokens, fns: &mut Vec<FnItem>) {
    let toks = &f.toks;
    let in_test_tree = !f.is_lib
        && Path::new(&f.rel)
            .iter()
            .filter_map(|c| c.to_str())
            .any(|c| matches!(c, "tests" | "benches" | "examples"));
    let mut i = 0;
    while i + 1 < toks.len() {
        if !toks[i].is_ident("fn") {
            i += 1;
            continue;
        }
        let Some(name) = toks[i + 1].ident() else {
            i += 1;
            continue;
        };
        // Find the body `{` (or `;` for bodyless trait/extern decls),
        // skipping the parenthesised parameter list.
        let mut j = i + 2;
        let mut paren = 0usize;
        let mut body_open = None;
        while j < toks.len() {
            if toks[j].is_punct('(') {
                paren += 1;
            } else if toks[j].is_punct(')') {
                paren = paren.saturating_sub(1);
            } else if paren == 0 && toks[j].is_punct('{') {
                body_open = Some(j);
                break;
            } else if paren == 0 && toks[j].is_punct(';') {
                break;
            }
            j += 1;
        }
        let Some(open) = body_open else {
            i = j.max(i + 2);
            continue;
        };
        let mut depth = 0usize;
        let mut close = toks.len() - 1;
        let mut k = open;
        while k < toks.len() {
            if toks[k].is_punct('{') {
                depth += 1;
            } else if toks[k].is_punct('}') {
                depth -= 1;
                if depth == 0 {
                    close = k;
                    break;
                }
            }
            k += 1;
        }
        fns.push(FnItem {
            name: name.to_string(),
            file: fi,
            body: (open, close),
            in_test: in_test_tree || f.in_test(toks[i].line),
        });
        // Continue scanning *inside* the body too: nested fns get their
        // own (inner) items and sites are attributed to the innermost.
        i += 2;
    }
}

/// Collect call sites and lock acquisitions for every fn of file `fi`.
fn collect_facts(
    fi: usize,
    f: &FileTokens,
    fns: &[FnItem],
    lock_fields: &BTreeSet<(String, String)>,
    facts: &mut [FnFacts],
) {
    let toks = &f.toks;
    let owner_of = |tok: usize| -> Option<usize> {
        fns.iter()
            .enumerate()
            .filter(|(_, it)| it.file == fi && it.body.0 <= tok && tok <= it.body.1)
            .min_by_key(|(_, it)| it.body.1 - it.body.0)
            .map(|(i, _)| i)
    };
    for (i, t) in toks.iter().enumerate() {
        let Some(id) = t.ident() else { continue };
        if !toks.get(i + 1).is_some_and(|n| n.is_punct('(')) {
            continue;
        }
        if NON_CALL_KEYWORDS.contains(&id) {
            continue;
        }
        // `fn name(` is a definition, not a call.
        if i > 0 && toks[i - 1].is_ident("fn") {
            continue;
        }
        let Some(owner) = owner_of(i) else { continue };
        let is_method = i > 0 && toks[i - 1].is_punct('.');

        // Lock acquisition: `.lock()` / `.read()` / `.write()` with an
        // empty argument list on a receiver field declared as a lock.
        if is_method
            && matches!(id, "lock" | "read" | "write")
            && toks.get(i + 2).is_some_and(|n| n.is_punct(')'))
        {
            if let Some(recv) = toks.get(i.wrapping_sub(2)).and_then(|t| t.ident()) {
                let class = (f.krate.clone(), recv.to_string());
                if lock_fields.contains(&class) {
                    let held_until = held_span(toks, i, fns[owner].body.1);
                    facts[owner].acquires.push(LockAcq {
                        class,
                        tok: i,
                        line: t.line,
                        op: id.to_string(),
                        held_until,
                    });
                    continue; // an acquisition is not also a call edge
                }
            }
        }

        facts[owner].calls.push(Call {
            tok: i,
            name: id.to_string(),
            line: t.line,
            is_method,
        });
    }
}

/// Guard-preserving adapters: the value after the call is still the
/// guard (e.g. `std`'s `lock().unwrap_or_else(|p| p.into_inner())`).
const GUARD_ADAPTERS: &[&str] = &["unwrap", "expect", "unwrap_or_else"];

/// How far the guard acquired at `op_tok` (`.lock` etc.) is held.
///
/// * The guard is *consumed in place* (`self.x.lock().counters…`): held
///   until the end of the statement.
/// * The guard is bound (`let g = self.x.lock();`): held until the end
///   of the enclosing block, or an explicit `drop(g)`.
pub(crate) fn held_span(toks: &[SpannedTok], op_tok: usize, body_close: usize) -> usize {
    // End of this statement: the `;` at relative depth 0, or wherever
    // the enclosing expression closes.
    let mut depth = 0i32;
    let mut stmt_end = body_close;
    let mut k = op_tok;
    while k <= body_close {
        let t = &toks[k];
        if t.is_punct('(') || t.is_punct('{') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct('}') || t.is_punct(']') {
            depth -= 1;
            if depth < 0 {
                stmt_end = k;
                break;
            }
        } else if depth == 0 && t.is_punct(';') {
            stmt_end = k;
            break;
        }
        k += 1;
    }

    // Walk the method chain after `.lock()`'s closing paren. If the
    // chain continues past the guard-preserving adapters, the guard is
    // a consumed temporary.
    let mut n = match matching_close(toks, op_tok + 1) {
        Some(close) => close + 1,
        None => return stmt_end,
    };
    while n + 2 < toks.len() && toks[n].is_punct('.') {
        let Some(m) = toks[n + 1].ident() else { break };
        if GUARD_ADAPTERS.contains(&m) {
            match matching_close(toks, n + 2) {
                Some(close) => n = close + 1,
                None => return stmt_end,
            }
        } else {
            return stmt_end; // chain consumes the guard
        }
    }
    if n < stmt_end && !toks[n].is_punct(';') && !toks[n].is_punct('?') {
        // Something else follows the guard expression inside this
        // statement (an operator, a match, …): treat as statement-local.
        // Exception below handles `let g = …;`.
        if !toks[n].is_punct(')') && !toks[n].is_punct('}') {
            return stmt_end;
        }
    }

    // Is the statement a `let` binding of the guard? Find the statement
    // start and check its first tokens.
    let mut s = op_tok;
    let mut d = 0i32;
    while s > 0 {
        s -= 1;
        let t = &toks[s];
        if t.is_punct('}') {
            // At depth 0 a `}` going backwards ends a preceding block
            // statement: a statement boundary, not expression nesting.
            if d == 0 {
                s += 1;
                break;
            }
            d += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            d += 1;
        } else if t.is_punct('(') || t.is_punct('{') || t.is_punct('[') {
            if d == 0 {
                s += 1;
                break;
            }
            d -= 1;
        } else if d == 0 && t.is_punct(';') {
            s += 1;
            break;
        }
    }
    if !toks.get(s).is_some_and(|t| t.is_ident("let")) {
        return stmt_end;
    }
    let mut g = s + 1;
    if toks.get(g).is_some_and(|t| t.is_ident("mut")) {
        g += 1;
    }
    let guard_name = toks.get(g).and_then(|t| t.ident()).unwrap_or("");

    // Held until the enclosing block closes or `drop(guard)`.
    let mut depth = 0i32;
    let mut k = stmt_end;
    while k <= body_close {
        let t = &toks[k];
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            if depth < 0 {
                return k;
            }
        } else if depth == 0
            && t.is_ident("drop")
            && toks.get(k + 1).is_some_and(|n| n.is_punct('('))
            && toks.get(k + 2).is_some_and(|n| n.is_ident(guard_name))
        {
            return k;
        }
        k += 1;
    }
    body_close
}

#[cfg(test)]
mod tests {
    use super::*;

    fn index_of(files: &[(&str, &str)]) -> WorkspaceIndex {
        let sources: Vec<(String, String)> =
            files.iter().map(|(r, s)| (r.to_string(), s.to_string())).collect();
        WorkspaceIndex::build(&sources)
    }

    #[test]
    fn finds_lock_fields_through_wrappers() {
        let idx = index_of(&[(
            "crates/obs/src/metrics.rs",
            "struct R { inner: Mutex<Inner> }\n\
             struct C { inner2: Arc<RwLock<CatalogInner>> }\n\
             static CACHE: OnceLock<Mutex<u32>> = OnceLock::new();\n",
        )]);
        let got: Vec<String> =
            idx.lock_fields.iter().map(|(_, f)| f.clone()).collect();
        assert_eq!(got, vec!["CACHE", "inner", "inner2"]);
    }

    #[test]
    fn extracts_fns_and_calls() {
        let idx = index_of(&[(
            "crates/core/src/a.rs",
            "fn outer() { helper(); x.method(); }\nfn helper() {}\n",
        )]);
        assert_eq!(idx.fns.len(), 2);
        let outer = &idx.facts[0];
        let names: Vec<&str> = outer.calls.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, vec!["helper", "method"]);
        assert!(!outer.calls[0].is_method);
        assert!(outer.calls[1].is_method);
        assert_eq!(idx.resolve(0, "helper"), Some(1));
    }

    #[test]
    fn resolution_prefers_same_file_then_same_crate() {
        let idx = index_of(&[
            ("crates/obs/src/metrics.rs", "fn lock() {}\nfn user() { s.lock2(); }"),
            ("crates/obs/src/trace.rs", "fn lock() {}"),
            ("crates/core/src/only.rs", "fn unique_fn() {}"),
        ]);
        // `lock` is defined in two obs files: same-file resolution wins
        // from metrics.rs, and stays unresolved from an unrelated file.
        assert_eq!(idx.resolve(0, "lock"), Some(0));
        assert_eq!(idx.resolve(2, "lock"), None);
        // A globally unique name resolves from anywhere.
        assert_eq!(idx.resolve(0, "unique_fn"), Some(3));
    }

    #[test]
    fn acquisition_held_spans() {
        let src = "\
struct S { inner: Mutex<u32> }
impl S {
    fn temp(&self) { self.inner.lock().unwrap(); after(); }
    fn bound(&self) { let g = self.inner.lock(); use_it(&g); }
    fn dropped(&self) { let g = self.inner.lock(); drop(g); after(); }
}";
        let idx = index_of(&[("crates/obs/src/m.rs", src)]);
        let all: Vec<&LockAcq> = idx.facts.iter().flat_map(|f| &f.acquires).collect();
        assert_eq!(all.len(), 3);
        let f = &idx.files[0];
        // Temporary: held only to the end of its statement (the `;`).
        assert!(f.toks[all[0].held_until].is_punct(';'));
        // Let-bound: held to the closing brace of the method body.
        assert!(f.toks[all[1].held_until].is_punct('}'));
        // Dropped: held until the `drop` call.
        assert!(f.toks[all[2].held_until].is_ident("drop"));
        // The call after the drop is outside the held span.
        let dropped_fn = idx
            .facts
            .iter()
            .find(|ff| ff.acquires.iter().any(|a| a.held_until < 1000 && f.toks[a.held_until].is_ident("drop")))
            .expect("dropped fn");
        let after = dropped_fn.calls.iter().find(|c| c.name == "after").expect("after call");
        assert!(after.tok > dropped_fn.acquires[0].held_until);
    }

    #[test]
    fn hash_typed_names_found() {
        let idx = index_of(&[(
            "crates/storage/src/c.rs",
            "struct I { tables: HashMap<String, u32>, names: Vec<String> }\n\
             fn f(m: std::collections::HashMap<u32, u32>) { let mut local = HashSet::new(); }\n",
        )]);
        let names: Vec<&String> = idx.hash_names[0].iter().collect();
        assert_eq!(names, vec!["local", "m", "tables"]);
    }

    #[test]
    fn test_regions_mark_fns() {
        let idx = index_of(&[(
            "crates/core/src/a.rs",
            "fn lib() {}\n#[cfg(test)]\nmod t {\n  fn inner() {}\n}\n",
        )]);
        assert_eq!(idx.fns.len(), 2);
        assert!(!idx.fns[0].in_test);
        assert!(idx.fns[1].in_test);
    }
}
