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
//! * `widen-only-ci` — in `exec`/`stats`/`faults`, assignments to
//!   half-width-like bindings (and the half-width argument of
//!   `Ci::new`) must be provably non-narrowing: fresh computations,
//!   additions, `max`, or multiplication by a `widen` factor. Anything
//!   else (subtraction, division, `min`, unknown factors) fails unless
//!   allowlisted with a justification.
//! * `panic-reachability` — extends panic-freedom from textual matches
//!   to call-graph reachability: a library fn of a panic-free crate
//!   calling (transitively) into a function that can panic is caught
//!   even when the panic lives in another crate.

use crate::index::{LockAcq, WorkspaceIndex};
use crate::lexer::{matching_close, SpannedTok};
use crate::rules::{Finding, PANIC_FREE_CRATES};
use std::collections::{BTreeMap, BTreeSet};

/// Run every semantic rule; append findings.
pub fn check(idx: &WorkspaceIndex, out: &mut Vec<Finding>) {
    lock_order(idx, out);
    determinism_taint(idx, out);
    widen_only_ci(idx, out);
    panic_reachability(idx, out);
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

// ---------------------------------------------------------------------
// widen-only-ci
// ---------------------------------------------------------------------

/// Crates whose half-width arithmetic is checked.
const WIDEN_CRATES: &[&str] = &["exec", "stats", "faults"];

/// Does an identifier name a half-width-like quantity?
fn hw_like(name: &str) -> bool {
    name.contains("half_width")
        || name.starts_with("ci_")
        || name.contains("margin")
        || name == "hw"
        || name.ends_with("_hw")
}

fn widen_only_ci(idx: &WorkspaceIndex, out: &mut Vec<Finding>) {
    for f in idx.files.iter() {
        if !f.is_lib || !WIDEN_CRATES.contains(&f.krate.as_str()) {
            continue;
        }
        let toks = &f.toks;
        for (i, t) in toks.iter().enumerate() {
            if f.in_test(t.line) {
                continue;
            }
            let Some(id) = t.ident() else { continue };
            if !hw_like(id) {
                continue;
            }
            // Compound assignment: `hw -= …`, `hw /= …` always narrow;
            // `hw *= x` narrows unless x is widen-ish.
            if let (Some(op), Some(eq)) = (toks.get(i + 1), toks.get(i + 2)) {
                if eq.is_punct('=') {
                    let bad = (op.is_punct('-') || op.is_punct('/'))
                        || (op.is_punct('*') && !widenish_operand(toks, i + 3));
                    if (op.is_punct('-') || op.is_punct('/') || op.is_punct('*')) && bad {
                        out.push(widen_finding(f, t.line, id, "compound assignment narrows"));
                        continue;
                    }
                }
            }
            // Plain assignment `id = expr;` / `let id = expr;` (`==`
            // and `=>` excluded).
            let is_assign = toks.get(i + 1).is_some_and(|n| n.is_punct('='))
                && !toks.get(i + 2).is_some_and(|n| n.is_punct('=') || n.is_punct('>'));
            if !is_assign {
                continue;
            }
            let expr = expr_range(toks, i + 2);
            if let Some(reason) = narrowing_reason(toks, expr.0, expr.1) {
                out.push(widen_finding(f, t.line, id, reason));
            }
        }
        // The half-width argument of `Ci::new(center, hw, confidence)`.
        for (i, t) in toks.iter().enumerate() {
            if f.in_test(t.line) || !t.is_ident("Ci") {
                continue;
            }
            if !(toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
                && toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
                && toks.get(i + 3).is_some_and(|t| t.is_ident("new"))
                && toks.get(i + 4).is_some_and(|t| t.is_punct('(')))
            {
                continue;
            }
            let Some(close) = matching_close(toks, i + 4) else { continue };
            // Second top-level comma-separated argument.
            let mut depth = 0i32;
            let mut arg_starts = vec![i + 5];
            for (k, tk) in toks.iter().enumerate().take(close).skip(i + 5) {
                if tk.is_punct('(') || tk.is_punct('[') || tk.is_punct('{') {
                    depth += 1;
                } else if tk.is_punct(')') || tk.is_punct(']') || tk.is_punct('}') {
                    depth -= 1;
                } else if depth == 0 && tk.is_punct(',') {
                    arg_starts.push(k + 1);
                }
            }
            if arg_starts.len() < 3 {
                continue;
            }
            let (s, e) = (arg_starts[1], arg_starts[2] - 1);
            if let Some(reason) = narrowing_reason(toks, s, e) {
                out.push(widen_finding(f, toks[i].line, "Ci::new(.., half_width, ..)", reason));
            }
        }
    }
}

fn widen_finding(f: &crate::index::FileTokens, line: u32, token: &str, reason: &str) -> Finding {
    Finding {
        file: f.rel.clone(),
        line,
        rule: "widen-only-ci",
        token: format!("{token} ({reason})"),
        hint: "half-width updates must be provably non-narrowing (fresh computation, \
               +, max, or a x>=1 widen factor); narrowing needs an allowlist entry \
               whose reason justifies it",
    }
}

/// Token range `(start, end_exclusive)` of the expression starting at
/// `start`: up to the `;`/`,` at relative depth 0 or the enclosing
/// close.
fn expr_range(toks: &[SpannedTok], start: usize) -> (usize, usize) {
    let mut depth = 0i32;
    let mut k = start;
    while k < toks.len() {
        let t = &toks[k];
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth -= 1;
            if depth < 0 {
                return (start, k);
            }
        } else if depth == 0 && (t.is_punct(';') || t.is_punct(',')) {
            return (start, k);
        }
        k += 1;
    }
    (start, toks.len())
}

/// `Some(reason)` when the expression can narrow a half-width it reads.
///
/// Fresh computations (no half-width-like *value* read) pass; so do
/// additions, `max`, and multiplications by widen-ish factors.
fn narrowing_reason(toks: &[SpannedTok], s: usize, e: usize) -> Option<&'static str> {
    let reads_hw = (s..e).any(|k| {
        let Some(id) = toks[k].ident() else { return false };
        hw_like(id) && !toks.get(k + 1).is_some_and(|n| n.is_punct('('))
    });
    if !reads_hw {
        return None;
    }
    for k in s..e {
        let t = &toks[k];
        if t.is_punct('-') {
            // `->` (return types in closures) is not a subtraction.
            if toks.get(k + 1).is_some_and(|n| n.is_punct('>')) {
                continue;
            }
            return Some("subtraction can narrow");
        }
        if t.is_punct('/') {
            return Some("division can narrow");
        }
        if t.is_ident("min") && k > 0 && toks[k - 1].is_punct('.') {
            return Some("min can narrow");
        }
        if t.is_ident("clamp") && k > 0 && toks[k - 1].is_punct('.') {
            return Some("clamp can narrow");
        }
        if t.is_punct('*') {
            // Deref (`*guard`) has no left operand expression; treat a
            // `*` preceded by an operator/opening token as a deref.
            let prev_is_operand = k > 0
                && (toks[k - 1].ident().is_some()
                    || toks[k - 1].is_punct(')')
                    || toks[k - 1].num_like());
            if !prev_is_operand {
                continue;
            }
            if !widenish_operand(toks, k + 1) && !widenish_before(toks, k) {
                return Some("multiplication by an unproven factor");
            }
        }
    }
    None
}

trait NumLike {
    fn num_like(&self) -> bool;
}
impl NumLike for SpannedTok {
    fn num_like(&self) -> bool {
        self.num().is_some()
    }
}

/// Is the operand starting at `k` provably >= 1 or a widen factor?
fn widenish_operand(toks: &[SpannedTok], k: usize) -> bool {
    let Some(t) = toks.get(k) else { return false };
    if let Some(n) = t.num() {
        return num_at_least_one(n);
    }
    // An identifier chain ending in a widen-ish name: `d.widen_factor`,
    // `sum.widen_factor()`, `widen`.
    let mut j = k;
    let mut last = "";
    while let Some(id) = toks.get(j).and_then(|t| t.ident()) {
        last = id;
        if toks.get(j + 1).is_some_and(|n| n.is_punct('.')) {
            j += 2;
        } else {
            break;
        }
    }
    last.contains("widen")
}

/// Is the operand ending just before the `*` at `k` widen-ish?
fn widenish_before(toks: &[SpannedTok], k: usize) -> bool {
    if k == 0 {
        return false;
    }
    let t = &toks[k - 1];
    if let Some(n) = t.num() {
        return num_at_least_one(n);
    }
    t.ident().is_some_and(|id| id.contains("widen"))
}

/// Parse a numeric literal's text and check `>= 1`.
fn num_at_least_one(text: &str) -> bool {
    let clean: String = text
        .trim_end_matches(|c: char| c.is_ascii_alphabetic())
        .replace('_', "");
    clean.parse::<f64>().map(|v| v >= 1.0).unwrap_or(false)
}

// ---------------------------------------------------------------------
// panic-reachability
// ---------------------------------------------------------------------

/// Is `fns[i]` library code of a panic-free crate (directly covered by
/// the textual `panic-freedom` rule)?
fn in_panic_free_scope(idx: &WorkspaceIndex, i: usize) -> bool {
    let f = &idx.files[idx.fns[i].file];
    f.is_lib && PANIC_FREE_CRATES.contains(&f.krate.as_str()) && !idx.fns[i].in_test
}

fn panic_reachability(idx: &WorkspaceIndex, out: &mut Vec<Finding>) {
    // Direct panic sites per fn: panic-family macros and `.unwrap()`.
    let mut direct: Vec<bool> = vec![false; idx.fns.len()];
    for (fi, f) in idx.files.iter().enumerate() {
        let toks = &f.toks;
        for (i, t) in toks.iter().enumerate() {
            let Some(id) = t.ident() else { continue };
            let is_panic_macro = matches!(id, "panic" | "unreachable" | "todo" | "unimplemented")
                && toks.get(i + 1).is_some_and(|n| n.is_punct('!'));
            let is_unwrap = id == "unwrap"
                && i > 0
                && toks[i - 1].is_punct('.')
                && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
                && toks.get(i + 2).is_some_and(|n| n.is_punct(')'));
            if !is_panic_macro && !is_unwrap {
                continue;
            }
            if f.in_test(t.line) {
                continue;
            }
            if let Some(owner) = idx.innermost_fn(fi, i) {
                if !idx.fns[owner].in_test {
                    direct[owner] = true;
                }
            }
        }
    }

    // Transitive may-panic over resolvable calls.
    let mut may_panic = direct.clone();
    let mut why: Vec<Option<usize>> = vec![None; idx.fns.len()];
    loop {
        let mut changed = false;
        for i in 0..idx.fns.len() {
            if may_panic[i] {
                continue;
            }
            for c in &idx.facts[i].calls {
                if let Some(g) = idx.resolve_call(idx.fns[i].file, c) {
                    if may_panic[g] {
                        may_panic[i] = true;
                        why[i] = Some(g);
                        changed = true;
                        break;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }
    if std::env::var("AQP_ANALYZE_DEBUG").is_ok() {
        for (i, item) in idx.fns.iter().enumerate() {
            if !may_panic[i] { continue; }
            let f = &idx.files[item.file];
            let mut chain = format!("{}::{} ({}:{})", f.krate, item.name, f.rel, item.line);
            let mut cur = i;
            while let Some(g) = why[cur] {
                let gi = &idx.fns[g];
                let gf = &idx.files[gi.file];
                chain.push_str(&format!(" -> {}::{} ({}:{})", gf.krate, gi.name, gf.rel, gi.line));
                cur = g;
            }
            eprintln!("may-panic: {chain}");
        }
    }

    // Findings: a panic-free-scope fn calling a may-panic fn that is
    // *not* itself in panic-free scope (those already carry their own
    // direct findings, so reporting the caller too would double-count).
    for (i, item) in idx.fns.iter().enumerate() {
        if !in_panic_free_scope(idx, i) {
            continue;
        }
        let file = &idx.files[item.file];
        for c in &idx.facts[i].calls {
            if file.in_test(c.line) {
                continue;
            }
            let Some(g) = idx.resolve_call(item.file, c) else { continue };
            if !may_panic[g] || in_panic_free_scope(idx, g) || idx.fns[g].in_test {
                continue;
            }
            let target = &idx.fns[g];
            let tfile = &idx.files[target.file];
            out.push(Finding {
                file: file.rel.clone(),
                line: c.line,
                rule: "panic-reachability",
                token: format!(
                    "`{}` ({}:{}) can panic",
                    c.name, tfile.rel, target.line
                ),
                hint: "library code on the query path must not abort, even through \
                       helpers in other crates; make the callee return a typed error \
                       or allowlist the call with the invariant that protects it",
            });
        }
    }
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

    #[test]
    fn widen_only_flags_narrowing_assignments() {
        let f = run(&[(
            "crates/stats/src/ci.rs",
            "fn f(mut half_width: f64, cap: f64) -> f64 {\n\
               half_width = half_width * 0.5;\n\
               half_width\n\
             }\n",
        )]);
        assert!(rules_of(&f).contains(&"widen-only-ci"), "{f:?}");
        let f = run(&[(
            "crates/exec/src/e.rs",
            "fn g(hw: f64, cap: f64) -> f64 { let ci_half = hw.min(cap); ci_half }\n",
        )]);
        assert!(rules_of(&f).contains(&"widen-only-ci"), "{f:?}");
    }

    #[test]
    fn widen_only_allows_widening_and_fresh_values() {
        let f = run(&[(
            "crates/exec/src/e.rs",
            "fn g(c: Ci, d: Deg, draws: &[f64]) -> f64 {\n\
               let half_width = c.half_width * d.widen_factor;\n\
               let ci_hw = half_width.max(0.0);\n\
               let hw = compute_from(draws);\n\
               half_width + ci_hw + hw\n\
             }\n",
        )]);
        assert!(rules_of(&f).iter().all(|r| *r != "widen-only-ci"), "{f:?}");
    }

    #[test]
    fn panic_reachability_crosses_crates() {
        let f = run(&[
            (
                "crates/core/src/session.rs",
                "pub fn run() { helper_parse(); }\n",
            ),
            (
                "crates/workload/src/parser.rs",
                "pub fn helper_parse() { inner_parse(); }\n\
                 fn inner_parse() { panic!(\"boom\"); }\n",
            ),
        ]);
        assert!(
            f.iter().any(|x| x.rule == "panic-reachability" && x.token.contains("helper_parse")),
            "{f:?}"
        );
    }

    #[test]
    fn panic_reachability_ignores_clean_and_test_callees() {
        let f = run(&[
            ("crates/core/src/session.rs", "pub fn run() { helper_ok(); }\n"),
            (
                "crates/workload/src/parser.rs",
                "pub fn helper_ok() { let x = 1; }\n\
                 #[cfg(test)]\nmod t { fn boom() { panic!(\"x\"); } }\n",
            ),
        ]);
        assert!(rules_of(&f).iter().all(|r| *r != "panic-reachability"), "{f:?}");
    }
}
