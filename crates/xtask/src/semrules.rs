//! The semantic rules: structural properties proved over the
//! [`WorkspaceIndex`] rather than over single tokens.
//!
//! * `lock-order` — builds the lock acquisition graph (which guards are
//!   held across which calls, and which locks those calls can
//!   transitively acquire) and fails on guards held across locking
//!   calls, same-lock re-entry, and acquisition-order cycles. This is
//!   the deadlock guard for the multi-tenant service work.
//! * `determinism-taint` — flags dataflow from non-seeded sources into
//!   values that can reach answers, CIs, or exported traces: raw
//!   `Instant`/`SystemTime` (subsuming the old `timing-discipline`
//!   rule), thread ids, and iteration over `HashMap`/`HashSet` in
//!   library code unless the result is demonstrably order-insensitive
//!   or re-sorted.

use crate::index::{LockAcq, WorkspaceIndex};
use crate::lexer::{matching_close, SpannedTok};
use crate::rules::Finding;
use std::collections::{BTreeMap, BTreeSet};

/// Run every semantic rule; append findings.
pub fn check(idx: &WorkspaceIndex, out: &mut Vec<Finding>) {
    lock_order(idx, out);
    determinism_taint(idx, out);
}

/// Pretty `crate::field` form of a lock class.
fn class_name(class: &(String, String)) -> String {
    format!("{}::{}", class.0, class.1)
}

/// `true` when the fn signature ending at body-open token `body_open`
/// declares a guard return type (`-> … *Guard* …`).
fn signature_returns_guard(toks: &[SpannedTok], body_open: usize) -> bool {
    let mut start = body_open;
    while start > 0 && !toks[start].is_ident("fn") {
        start -= 1;
    }
    for i in start..body_open.saturating_sub(1) {
        if toks[i].is_punct('-') && toks[i + 1].is_punct('>') {
            return toks[i + 2..body_open]
                .iter()
                .any(|t| t.ident().is_some_and(|id| id.contains("Guard")));
        }
    }
    false
}

// ---------------------------------------------------------------------
// lock-order
// ---------------------------------------------------------------------

fn lock_order(idx: &WorkspaceIndex, out: &mut Vec<Finding>) {
    // A fn "returns a guard" when one of its acquisitions is still held
    // at the end of its body AND its signature declares a guard return
    // type (the `fn lock(&self) -> MutexGuard` helper pattern); calls
    // to it count as acquisitions at the call site. Helpers that merely
    // hold a lock internally (`with_samples(&self, f: F)`) release on
    // return — they are covered by the may-acquire analysis instead.
    let returns_guard: Vec<Option<(String, String)>> = idx
        .fns
        .iter()
        .enumerate()
        .map(|(i, item)| {
            if !signature_returns_guard(&idx.files[item.file].toks, item.body.0) {
                return None;
            }
            idx.facts[i]
                .acquires
                .iter()
                .find(|a| a.held_until >= item.body.1)
                .map(|a| a.class.clone())
        })
        .collect();

    // Transitive "may acquire" sets per fn (direct + via calls).
    let mut may_acquire: Vec<BTreeSet<(String, String)>> = idx
        .fns
        .iter()
        .enumerate()
        .map(|(i, _)| {
            idx.facts[i].acquires.iter().map(|a| a.class.clone()).collect()
        })
        .collect();
    loop {
        let mut changed = false;
        for i in 0..idx.fns.len() {
            let mut add: Vec<(String, String)> = Vec::new();
            for c in &idx.facts[i].calls {
                if let Some(g) = idx.resolve_call(idx.fns[i].file, c) {
                    for cls in &may_acquire[g] {
                        if !may_acquire[i].contains(cls) {
                            add.push(cls.clone());
                        }
                    }
                }
            }
            for cls in add {
                may_acquire[i].insert(cls);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // Acquisition-order edges (for cycle detection), with one sample
    // site per edge.
    type LockClass = (String, String);
    let mut edges: BTreeMap<(LockClass, LockClass), (String, u32)> = BTreeMap::new();

    for (i, item) in idx.fns.iter().enumerate() {
        if item.in_test {
            continue;
        }
        let file = &idx.files[item.file];
        let facts = &idx.facts[i];

        // Effective acquisitions: direct ones plus guard-returning calls.
        let mut acqs: Vec<LockAcq> = Vec::new();
        for a in &facts.acquires {
            acqs.push(LockAcq {
                class: a.class.clone(),
                tok: a.tok,
                line: a.line,
                op: a.op.clone(),
                held_until: a.held_until,
            });
        }
        for c in &facts.calls {
            if let Some(g) = idx.resolve_call(item.file, c) {
                if let Some(cls) = &returns_guard[g] {
                    acqs.push(LockAcq {
                        class: cls.clone(),
                        tok: c.tok,
                        line: c.line,
                        op: c.name.clone(),
                        held_until: crate::index::held_span(&file.toks, c.tok, item.body.1),
                    });
                }
            }
        }
        acqs.sort_by_key(|a| a.tok);

        for a in &acqs {
            // Direct nesting: another acquisition inside the held span.
            for b in &acqs {
                if b.tok <= a.tok || b.tok >= a.held_until {
                    continue;
                }
                if b.class == a.class {
                    if a.op != "read" || b.op != "read" {
                        out.push(Finding {
                            file: file.rel.clone(),
                            line: b.line,
                            rule: "lock-order",
                            token: format!(
                                "{} re-acquired while held",
                                class_name(&a.class)
                            ),
                            hint: "re-entrant acquisition of the same lock deadlocks; \
                                   drop the guard (or restructure) before locking again",
                        });
                    }
                } else {
                    edges
                        .entry((a.class.clone(), b.class.clone()))
                        .or_insert_with(|| (file.rel.clone(), b.line));
                }
            }
            // Calls inside the held span that can acquire other locks.
            for c in &facts.calls {
                if c.tok <= a.tok || c.tok >= a.held_until {
                    continue;
                }
                let Some(g) = idx.resolve_call(item.file, c) else { continue };
                // The guard-returning call that produced this
                // acquisition is the acquisition itself, not a nested
                // one.
                if c.tok == a.tok {
                    continue;
                }
                for cls in &may_acquire[g] {
                    if *cls == a.class {
                        out.push(Finding {
                            file: file.rel.clone(),
                            line: c.line,
                            rule: "lock-order",
                            token: format!(
                                "{} held across `{}` which can re-acquire it",
                                class_name(&a.class),
                                c.name
                            ),
                            hint: "calling back into the lock's own owner while holding \
                                   its guard deadlocks; drop the guard first",
                        });
                    } else {
                        edges
                            .entry((a.class.clone(), cls.clone()))
                            .or_insert_with(|| (file.rel.clone(), c.line));
                        out.push(Finding {
                            file: file.rel.clone(),
                            line: c.line,
                            rule: "lock-order",
                            token: format!(
                                "{} held across `{}` which may acquire {}",
                                class_name(&a.class),
                                c.name,
                                class_name(cls)
                            ),
                            hint: "holding one lock while a callee takes another pins a \
                                   global acquisition order; drop the guard before the \
                                   call or allowlist the site with the documented order",
                        });
                    }
                }
            }
        }
    }

    // Cycles in the acquisition-order graph.
    let nodes: BTreeSet<(String, String)> = edges
        .keys()
        .flat_map(|(a, b)| [a.clone(), b.clone()])
        .collect();
    for start in &nodes {
        // A deterministic DFS from each node; report a cycle only from
        // its smallest node so each cycle is reported once.
        let mut stack = vec![(start.clone(), vec![start.clone()])];
        let mut seen: BTreeSet<(String, String)> = BTreeSet::new();
        while let Some((node, path)) = stack.pop() {
            for ((from, to), site) in &edges {
                if from != &node {
                    continue;
                }
                if to == start && path.len() > 1 {
                    if path.iter().min() == Some(start) {
                        let cycle: Vec<String> =
                            path.iter().chain([start]).map(class_name).collect();
                        out.push(Finding {
                            file: site.0.clone(),
                            line: site.1,
                            rule: "lock-order",
                            token: format!("acquisition cycle: {}", cycle.join(" -> ")),
                            hint: "two call paths take these locks in opposite orders; \
                                   establish a single global order (or merge the locks)",
                        });
                    }
                } else if !path.contains(to) && seen.insert(to.clone()) {
                    let mut p = path.clone();
                    p.push(to.clone());
                    stack.push((to.clone(), p));
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// determinism-taint
// ---------------------------------------------------------------------

/// Iterator heads that expose hash ordering.
const HASH_ITER_HEADS: &[&str] =
    &["iter", "iter_mut", "keys", "values", "values_mut", "into_iter", "drain", "into_keys", "into_values"];

/// Chain terminals whose result is independent of iteration order.
const ORDER_INSENSITIVE: &[&str] =
    &["sum", "count", "min", "max", "all", "any", "product", "len", "fold"];

fn determinism_taint(idx: &WorkspaceIndex, out: &mut Vec<Finding>) {
    for (fi, f) in idx.files.iter().enumerate() {
        let in_obs = f.rel.starts_with("crates/obs/");
        let toks = &f.toks;
        for (i, t) in toks.iter().enumerate() {
            let Some(id) = t.ident() else { continue };
            // (a) Raw clocks, everywhere but the Clock implementation
            // itself (the old `timing-discipline` scope, unchanged).
            if matches!(id, "Instant" | "SystemTime") && !in_obs {
                out.push(Finding {
                    file: f.rel.clone(),
                    line: t.line,
                    rule: "determinism-taint",
                    token: id.into(),
                    hint: "raw std::time clocks cannot be mocked and taint anything \
                           derived from them; measure through aqp_obs::Clock instead",
                });
                continue;
            }
            if !f.is_lib || f.in_test(t.line) {
                continue;
            }
            // (b) Thread ids: `thread::current().id()` / `ThreadId`.
            if id == "ThreadId" && !in_obs {
                out.push(Finding {
                    file: f.rel.clone(),
                    line: t.line,
                    rule: "determinism-taint",
                    token: id.into(),
                    hint: "OS thread ids differ across runs; key by a deterministic \
                           worker index instead",
                });
                continue;
            }
            if id == "current"
                && toks.get(i.wrapping_sub(2)).is_some_and(|p| p.is_ident("thread"))
                && chain_has(toks, i, "id")
            {
                out.push(Finding {
                    file: f.rel.clone(),
                    line: t.line,
                    rule: "determinism-taint",
                    token: "thread::current().id()".into(),
                    hint: "OS thread ids differ across runs; key by a deterministic \
                           worker index instead",
                });
                continue;
            }
            // (c) Hash-ordered iteration in library code.
            if idx.hash_names[fi].contains(id) {
                if let Some(head) = toks.get(i + 2).and_then(|t| t.ident()) {
                    if toks[i + 1].is_punct('.')
                        && HASH_ITER_HEADS.contains(&head)
                        && toks.get(i + 3).is_some_and(|t| t.is_punct('('))
                        && !hash_iteration_is_ordered(idx, fi, i)
                    {
                        out.push(Finding {
                            file: f.rel.clone(),
                            line: t.line,
                            rule: "determinism-taint",
                            token: format!("{id}.{head}()"),
                            hint: "HashMap/HashSet iteration order is nondeterministic and \
                                   taints anything exported from it; use BTreeMap/BTreeSet \
                                   or sort the collected result before it escapes",
                        });
                    }
                }
                // `for pat in [&[mut]] name { … }` — direct loop over
                // the collection.
                if let Some(prev) = previous_meaningful(toks, i) {
                    let direct_loop = toks.get(i + 1).is_some_and(|n| n.is_punct('{'))
                        && is_for_in_context(toks, i, prev);
                    if direct_loop {
                        out.push(Finding {
                            file: f.rel.clone(),
                            line: t.line,
                            rule: "determinism-taint",
                            token: format!("for … in {id}"),
                            hint: "HashMap/HashSet iteration order is nondeterministic and \
                                   taints anything exported from it; use BTreeMap/BTreeSet \
                                   or sort the collected result before it escapes",
                        });
                    }
                }
            }
        }
    }
}

/// Does the method chain starting at the receiver ident `i` stay
/// order-insensitive (terminal reduction, BTree collect) or get
/// re-sorted afterwards?
fn hash_iteration_is_ordered(idx: &WorkspaceIndex, fi: usize, recv: usize) -> bool {
    let toks = &idx.files[fi].toks;
    // Walk the chain: recv . m1 ( … ) . m2 ( … ) …
    let mut n = recv + 1;
    let mut last_method = String::new();
    let mut collect_open: Option<usize> = None;
    while n + 1 < toks.len() && toks[n].is_punct('.') {
        let Some(m) = toks[n + 1].ident() else { break };
        last_method = m.to_string();
        // Skip a turbofish: `collect::<BTreeMap<_, _>>`.
        let mut p = n + 2;
        let mut saw_btree = false;
        if toks.get(p).is_some_and(|t| t.is_punct(':')) {
            while p < toks.len() && !toks[p].is_punct('(') {
                if matches!(toks[p].ident(), Some("BTreeMap" | "BTreeSet" | "String")) {
                    saw_btree = true;
                }
                p += 1;
            }
        }
        if !toks.get(p).is_some_and(|t| t.is_punct('(')) {
            break;
        }
        if m == "collect" {
            if saw_btree {
                return true;
            }
            collect_open = Some(p);
        }
        match matching_close(toks, p) {
            Some(close) => n = close + 1,
            None => break,
        }
    }
    if ORDER_INSENSITIVE.contains(&last_method.as_str()) {
        return true;
    }
    // A collect whose type comes from a `let x: BTreeMap<…> = …` /
    // `let mut v = …; v.sort…()` pattern: find the let binding this
    // statement assigns and look for an ordering fact in the same fn.
    if collect_open.is_some() || !last_method.is_empty() {
        // Statement start: scan back for `let [mut] name`.
        let mut s = recv;
        let mut d = 0i32;
        while s > 0 {
            s -= 1;
            let t = &toks[s];
            if t.is_punct('}') {
                // At depth 0 a `}` going backwards is the end of a
                // preceding block statement, i.e. a statement boundary.
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
        if toks.get(s).is_some_and(|t| t.is_ident("let")) {
            let mut g = s + 1;
            if toks.get(g).is_some_and(|t| t.is_ident("mut")) {
                g += 1;
            }
            if let Some(name) = toks.get(g).and_then(|t| t.ident()) {
                // Annotated as a BTree type?
                let until_eq: Vec<&SpannedTok> = toks[g..recv]
                    .iter()
                    .take_while(|t| !t.is_punct('='))
                    .collect();
                if until_eq
                    .iter()
                    .any(|t| matches!(t.ident(), Some("BTreeMap" | "BTreeSet")))
                {
                    return true;
                }
                // Re-sorted later in the same fn?
                if let Some(owner) = idx.innermost_fn(fi, recv) {
                    let body = idx.fns[owner].body;
                    let mut k = recv;
                    while k + 2 <= body.1 {
                        if toks[k].is_ident(name)
                            && toks[k + 1].is_punct('.')
                            && toks
                                .get(k + 2)
                                .and_then(|t| t.ident())
                                .is_some_and(|m| m.starts_with("sort"))
                        {
                            return true;
                        }
                        k += 1;
                    }
                }
            }
        }
    }
    false
}

/// Does a `.m()` appear later in the chain at `i` (receiver ident)?
fn chain_has(toks: &[SpannedTok], i: usize, method: &str) -> bool {
    let mut n = i + 1;
    let mut hops = 0;
    while n + 1 < toks.len() && hops < 8 {
        if toks[n].is_punct('.') {
            if toks[n + 1].is_ident(method) {
                return true;
            }
            n += 2;
        } else if toks[n].is_punct('(') {
            match matching_close(toks, n) {
                Some(c) => n = c + 1,
                None => return false,
            }
        } else {
            return false;
        }
        hops += 1;
    }
    false
}

/// Last token before `i` (they are adjacent in the stream).
fn previous_meaningful(toks: &[SpannedTok], i: usize) -> Option<&SpannedTok> {
    if i == 0 {
        None
    } else {
        Some(&toks[i - 1])
    }
}

/// Is ident `i` the iterated expression of a `for … in` header? `prev`
/// is the preceding token; accepts `in name`, `in &name`, `in &mut
/// name`.
fn is_for_in_context(toks: &[SpannedTok], i: usize, prev: &SpannedTok) -> bool {
    let mut k = i;
    if prev.is_punct('&') {
        k = i - 1;
        if k > 0 && toks[k - 1].is_ident("mut") {
            k -= 1;
        }
    } else if prev.is_ident("mut") && k >= 2 && toks[k - 2].is_punct('&') {
        k -= 2;
    }
    k > 0 && toks[k - 1].is_ident("in")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::WorkspaceIndex;

    fn run(files: &[(&str, &str)]) -> Vec<Finding> {
        let sources: Vec<(String, String)> =
            files.iter().map(|(r, s)| (r.to_string(), s.to_string())).collect();
        let idx = WorkspaceIndex::build(&sources);
        let mut out = Vec::new();
        check(&idx, &mut out);
        out
    }

    fn rules_of(f: &[Finding]) -> Vec<&'static str> {
        f.iter().map(|x| x.rule).collect()
    }

    #[test]
    fn lock_order_flags_guard_held_across_locking_call() {
        let f = run(&[(
            "crates/obs/src/metrics.rs",
            "struct R { inner: Mutex<u32>, other: Mutex<u32> }\n\
             impl R {\n\
               fn second(&self) -> u32 { *self.other.lock() }\n\
               fn bad(&self) { let g = self.inner.lock(); self.second(); }\n\
             }\n",
        )]);
        assert!(
            f.iter().any(|x| x.rule == "lock-order" && x.token.contains("held across")),
            "{f:?}"
        );
    }

    #[test]
    fn lock_order_allows_sequential_acquisition() {
        let f = run(&[(
            "crates/obs/src/metrics.rs",
            "struct R { inner: Mutex<u32>, other: Mutex<u32> }\n\
             impl R {\n\
               fn ok(&self) { let a = *self.inner.lock(); let b = *self.other.lock(); }\n\
               fn ok2(&self) { self.inner.lock().do_thing(); self.other.lock().do_thing(); }\n\
             }\n",
        )]);
        assert!(rules_of(&f).iter().all(|r| *r != "lock-order"), "{f:?}");
    }

    #[test]
    fn lock_order_flags_reentry_and_cycles() {
        let f = run(&[(
            "crates/core/src/session.rs",
            "struct S { a: Mutex<u32>, b: Mutex<u32> }\n\
             impl S {\n\
               fn reenter(&self) { let g = self.a.lock(); let h = self.a.lock(); }\n\
               fn ab(&self) { let g = self.a.lock(); let h = self.b.lock(); }\n\
               fn ba(&self) { let g = self.b.lock(); let h = self.a.lock(); }\n\
             }\n",
        )]);
        assert!(f.iter().any(|x| x.token.contains("re-acquired")), "{f:?}");
        assert!(f.iter().any(|x| x.token.contains("acquisition cycle")), "{f:?}");
    }

    #[test]
    fn taint_flags_hash_iteration_and_clocks() {
        let f = run(&[(
            "crates/storage/src/catalog.rs",
            "struct I { tables: HashMap<String, u32> }\n\
             impl I {\n\
               fn names(&self) -> Vec<String> { self.tables.keys().cloned().collect() }\n\
             }\n",
        )]);
        assert!(
            f.iter().any(|x| x.rule == "determinism-taint" && x.token.contains("keys")),
            "{f:?}"
        );
        let f = run(&[("crates/exec/src/a.rs", "fn t() { let x = Instant::now(); }")]);
        assert!(f.iter().any(|x| x.rule == "determinism-taint" && x.token == "Instant"));
    }

    #[test]
    fn taint_allows_sorted_and_reduced_iteration() {
        let f = run(&[(
            "crates/storage/src/catalog.rs",
            "struct I { tables: HashMap<String, u32> }\n\
             impl I {\n\
               fn names(&self) -> Vec<String> {\n\
                 let mut v: Vec<String> = self.tables.keys().cloned().collect();\n\
                 v.sort();\n\
                 v\n\
               }\n\
               fn total(&self) -> u32 { self.tables.values().sum() }\n\
               fn count(&self) -> usize { self.tables.keys().count() }\n\
             }\n",
        )]);
        assert!(rules_of(&f).iter().all(|r| *r != "determinism-taint"), "{f:?}");
    }
}
