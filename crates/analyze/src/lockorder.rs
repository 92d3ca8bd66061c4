//! Static lock discipline over the workspace call graph.
//!
//! Two lints, both built on the same per-function lock facts:
//!
//! * **static-lock-order** — every acquisition of a tracked lock class
//!   is recorded together with the set of classes already held at that
//!   point; holding `a` while acquiring `b` (directly, or anywhere in a
//!   transitively called fn) contributes the directed edge `a → b` to a
//!   lock-class order graph. A cycle in that graph is a potential
//!   deadlock and is reported with the witness call chains for its
//!   edges. This is the static complement of the runtime `lock-audit`
//!   cycle detector in `crates/sync`: the runtime detector certifies
//!   the interleavings the tests actually run, this pass covers the
//!   paths no test runs.
//! * **blocking-while-locked** — a call that can block (a condvar wait,
//!   or any fn that transitively reaches one: `JobQueue::wait*`/
//!   `drain`, barrier waits) made while a tracked guard is live. A condvar wait is exempt from
//!   the guard passed to the wait itself — parking *releases* that
//!   mutex — which is exactly the rule the runtime audit enforces.
//!
//! Lock classes come from `crates/sync` construction sites:
//! `TrackedMutex::new("class", …)` / `TrackedRwLock::new` /
//! `TrackedCondvar::new` bind the class string to the nearest field or
//! `let` name, and `.lock()`/`.read()`/`.write()` on a receiver whose
//! last path segment matches a bound name acquires that class. A name
//! bound to several classes acquires all of them — the usual
//! over-approximation bargain. Guard liveness is structural: a
//! `let g = x.lock();` guard lives to the end of its enclosing block
//! (or an explicit `drop(g)`), a chained temporary to the end of its
//! statement, and a fn whose *tail expression* is an acquisition (e.g.
//! `JobQueue::lock`) is a guard constructor — its callers inherit the
//! acquisition at the call site.
//!
//! `crates/sync` itself is outside the fact scan: the tracked
//! primitives' own `inner` fields would otherwise alias user binding
//! names, and the runtime audit already owns that layer. Likewise
//! `vendor/` (its `rayon.*` classes) is outside the call graph
//! entirely and stays covered by the runtime detector.
//!
//! Calls made *inside a `spawn(…)` argument* run on another thread:
//! the spawning fn returns immediately, so neither the spawned code's
//! acquisitions nor its parking propagate to the caller. Those call
//! sites are cut from both fixpoints (the spawned fn's own body is
//! still analyzed in its own right).

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

use crate::callgraph::Graph;
use crate::items::FileIndex;
use crate::lexer::{Tok, Token};
use crate::report::{Finding, Waived};
use crate::waiver_on;

pub const ORDER_LINT: &str = "static-lock-order";
pub const BLOCKING_LINT: &str = "blocking-while-locked";

/// Files whose lock facts are scanned. The tracked-primitive layer is
/// excluded (see module docs).
fn facts_scope(rel: &Path) -> bool {
    !rel.starts_with("crates/sync/src")
}

const ACQUIRE_METHODS: &[&str] = &["lock", "read", "write"];
const WAIT_METHODS: &[&str] = &["wait", "wait_timeout", "wait_while"];

/// Binding/field names → lock classes, split by primitive kind.
#[derive(Debug, Default)]
struct Registry {
    lock: BTreeMap<String, BTreeSet<String>>,
    condvar: BTreeMap<String, BTreeSet<String>>,
}

/// One acquisition event inside a fn body.
#[derive(Debug)]
struct Acq {
    tok: usize,
    line: u32,
    classes: BTreeSet<String>,
    /// The acquisition is the fn's tail expression — the guard is
    /// returned, making the fn a guard constructor.
    tail: bool,
}

/// A live-guard interval inside a fn body.
#[derive(Debug)]
struct GuardSpan {
    start: usize,
    end: usize,
    classes: BTreeSet<String>,
    binding: Option<String>,
}

/// A condvar wait site.
#[derive(Debug)]
struct WaitSite {
    tok: usize,
    line: u32,
    cv: BTreeSet<String>,
    /// Classes of the guard passed to the wait — released while parked.
    excluded: BTreeSet<String>,
}

#[derive(Debug, Default)]
struct FnFacts {
    guards: Vec<GuardSpan>,
    acqs: Vec<Acq>,
    waits: Vec<WaitSite>,
    /// Call indices that are condvar wait sites (so the interprocedural
    /// blocking rule does not double-report them).
    wait_calls: BTreeSet<usize>,
    /// Call indices inside a `spawn(…)` argument — they run on another
    /// thread and contribute nothing to the spawning fn.
    detached: BTreeSet<usize>,
}

impl FnFacts {
    fn held_at(&self, tok: usize) -> BTreeSet<String> {
        let mut held = BTreeSet::new();
        for g in &self.guards {
            if g.start < tok && tok < g.end {
                held.extend(g.classes.iter().cloned());
            }
        }
        held
    }
}

/// How a fn comes to acquire a class / block: directly at a line, or by
/// calling another node. Ordered so fixpoint tie-breaks are stable.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum Via {
    Direct { line: u32 },
    Call { next: usize },
}

pub fn run(files: &[FileIndex], graph: &Graph) -> (Vec<Finding>, Vec<Waived>) {
    let registry = build_registry(files);
    if registry.lock.is_empty() && registry.condvar.is_empty() {
        return (Vec::new(), Vec::new());
    }
    let depths: Vec<Vec<u32>> = files.iter().map(|f| depth_map(&f.lexed.tokens)).collect();

    // Phase 1: per-fn direct facts; collect guard constructors.
    let mut facts: Vec<FnFacts> = Vec::with_capacity(graph.nodes.len());
    for node in &graph.nodes {
        let file = &files[node.file];
        if !facts_scope(&file.rel) {
            facts.push(FnFacts::default());
            continue;
        }
        facts.push(direct_facts(file, node.f, &registry, &depths[node.file]));
    }
    let ctor_classes: Vec<BTreeSet<String>> = facts
        .iter()
        .map(|f| {
            f.acqs
                .iter()
                .filter(|a| a.tail)
                .flat_map(|a| a.classes.iter().cloned())
                .collect()
        })
        .collect();

    // Phase 2: client-side acquisitions through guard constructors.
    for (id, node) in graph.nodes.iter().enumerate() {
        let file = &files[node.file];
        if !facts_scope(&file.rel) {
            continue;
        }
        let mut extra: Vec<(Acq, Option<GuardSpan>)> = Vec::new();
        for (ci, targets) in &node.edges {
            if facts[id].detached.contains(ci) {
                continue;
            }
            let classes: BTreeSet<String> = targets
                .iter()
                .filter(|&&t| t != id)
                .flat_map(|&t| ctor_classes[t].iter().cloned())
                .collect();
            if classes.is_empty() {
                continue;
            }
            let call = &file.fns[node.f].calls[*ci];
            extra.push(classify_acquisition(
                file,
                node.f,
                call.tok,
                call.line,
                classes,
                &depths[node.file],
            ));
        }
        for (acq, guard) in extra {
            if let Some(g) = guard {
                facts[id].guards.push(g);
            }
            facts[id].acqs.push(acq);
        }
    }

    // Only now that every guard span exists (including the phase-2
    // client-side ones) can wait exclusions be resolved and explicit
    // drops applied: `let state = self.lock(); … cv.wait(state)` needs
    // the ctor guard to know the wait releases `queue.state`.
    for (id, node) in graph.nodes.iter().enumerate() {
        let file = &files[node.file];
        if !facts_scope(&file.rel) {
            continue;
        }
        let body = file.fns[node.f].body.clone();
        finish_spans(&mut facts[id], body, &file.lexed.tokens);
    }

    // Transitive acquisition sets with shortest-witness via pointers.
    let acq_star = propagate_acqs(graph, &facts);
    // Transitive can-block with shortest-witness via pointers.
    let blocked = propagate_blocking(graph, &facts);

    let mut findings = Vec::new();
    let mut waived = Vec::new();
    let mut emit = |file: &FileIndex, line: u32, lint: &str, message: String| {
        let rel = file.rel.to_string_lossy().replace('\\', "/");
        match waiver_on(&file.lexed, line, lint) {
            Some(justification) => waived.push(Waived {
                file: rel,
                line,
                lint: lint.to_string(),
                justification,
            }),
            None => findings.push(Finding {
                file: rel,
                line,
                lint: lint.to_string(),
                message,
                excerpt: file.excerpt(line),
            }),
        }
    };

    // ---- static-lock-order: build the class order graph. ----
    // (a, b) → witness: (file idx, line, text); smallest witness wins.
    let mut edges: BTreeMap<(String, String), (usize, u32, String)> = BTreeMap::new();
    let mut add_edge =
        |a: &str, b: &str, fi: usize, line: u32, text: String, files: &[FileIndex]| {
            if a == b {
                return; // reentrancy is the runtime audit's job; name
                        // aliasing makes the static self-edge too noisy.
            }
            let key = (a.to_string(), b.to_string());
            let cand = (fi, line, text);
            let improve = match edges.get(&key) {
                Some(old) => {
                    let ord_old = (
                        files[old.0].rel.to_string_lossy().replace('\\', "/"),
                        old.1,
                        old.2.as_str(),
                    );
                    let ord_new = (
                        files[cand.0].rel.to_string_lossy().replace('\\', "/"),
                        cand.1,
                        cand.2.as_str(),
                    );
                    ord_new < ord_old
                }
                None => true,
            };
            if improve {
                edges.insert(key, cand);
            }
        };

    for (id, node) in graph.nodes.iter().enumerate() {
        let file = &files[node.file];
        let qual = &file.fns[node.f].qual;
        // Intra-fn: acquisition while holding.
        for acq in &facts[id].acqs {
            let held = facts[id].held_at(acq.tok);
            for a in &held {
                for b in &acq.classes {
                    let text = format!(
                        "`{qual}` acquires `{b}` while holding `{a}` ({}:{})",
                        file.rel.to_string_lossy().replace('\\', "/"),
                        acq.line
                    );
                    add_edge(a, b, node.file, acq.line, text, files);
                }
            }
        }
        // Interprocedural: call out while holding, callee acquires. A
        // condvar wait site is not a real call into a workspace fn that
        // happens to share the method name — skip it here; the wait
        // rules below own it.
        for (ci, targets) in &node.edges {
            if facts[id].wait_calls.contains(ci) || facts[id].detached.contains(ci) {
                continue;
            }
            let call = &file.fns[node.f].calls[*ci];
            let held = facts[id].held_at(call.tok);
            if held.is_empty() {
                continue;
            }
            for &t in targets {
                if t == id {
                    continue;
                }
                for b in acq_star[t].keys() {
                    let (chain, dfile, dline) = acq_chain(graph, files, &acq_star, t, b);
                    for a in &held {
                        let text = format!(
                            "`{qual}` holds `{a}` and calls {chain}, which acquires `{b}` \
                             ({dfile}:{dline})"
                        );
                        add_edge(a, b, node.file, call.line, text, files);
                    }
                }
            }
        }
    }

    for cycle in find_cycles(&edges) {
        let (fi, line, _) = &edges[&(cycle[0].clone(), cycle[1].clone())];
        let file = &files[*fi];
        let ring = cycle.join("` → `");
        let witnesses: Vec<String> = cycle
            .windows(2)
            .map(|w| edges[&(w[0].clone(), w[1].clone())].2.clone())
            .collect();
        emit(
            file,
            *line,
            ORDER_LINT,
            format!(
                "lock-class order cycle `{ring}`: {} — a thread on each chain can deadlock",
                witnesses.join("; ")
            ),
        );
    }

    // ---- blocking-while-locked. ----
    for (id, node) in graph.nodes.iter().enumerate() {
        let file = &files[node.file];
        let qual = &file.fns[node.f].qual;
        for w in &facts[id].waits {
            let mut held = facts[id].held_at(w.tok);
            for x in &w.excluded {
                held.remove(x);
            }
            if held.is_empty() {
                continue;
            }
            let cv = w.cv.iter().cloned().collect::<Vec<_>>().join("`/`");
            let held_s = held.into_iter().collect::<Vec<_>>().join("`, `");
            emit(
                file,
                w.line,
                BLOCKING_LINT,
                format!(
                    "`{qual}` waits on condvar `{cv}` while holding `{held_s}` — only the \
                     guard passed to the wait is released while parked"
                ),
            );
        }
        for (ci, targets) in &node.edges {
            if facts[id].wait_calls.contains(ci) || facts[id].detached.contains(ci) {
                continue;
            }
            let call = &file.fns[node.f].calls[*ci];
            let held = facts[id].held_at(call.tok);
            if held.is_empty() {
                continue;
            }
            let best = targets
                .iter()
                .filter(|&&t| t != id)
                .filter_map(|&t| blocked[t].as_ref().map(|b| (b.0, t)))
                .min();
            let Some((_, t)) = best else { continue };
            let (chain, cv, dfile, dline) = block_chain(graph, files, &facts, &blocked, t);
            let held_s = held.into_iter().collect::<Vec<_>>().join("`, `");
            emit(
                file,
                call.line,
                BLOCKING_LINT,
                format!(
                    "`{qual}` holds `{held_s}` across a call to {chain}, which can park on \
                     condvar `{cv}` ({dfile}:{dline}) — narrow the guard scope"
                ),
            );
        }
    }

    (findings, waived)
}

/// Scan non-test code for `Tracked*::new("class", …)` constructions and
/// bind each class to the nearest preceding field/`let` name.
fn build_registry(files: &[FileIndex]) -> Registry {
    let mut reg = Registry::default();
    for file in files {
        if !crate::callgraph::in_graph(&file.rel) {
            continue;
        }
        let t = &file.lexed.tokens;
        for i in 0..t.len() {
            let Tok::Ident(kind) = &t[i].tok else {
                continue;
            };
            let is_lock = kind == "TrackedMutex" || kind == "TrackedRwLock";
            let is_cv = kind == "TrackedCondvar";
            if (!is_lock && !is_cv) || file.in_test_code(i) {
                continue;
            }
            let path_new = punct(t, i + 1, ':')
                && punct(t, i + 2, ':')
                && ident(t, i + 3) == Some("new")
                && punct(t, i + 4, '(');
            if !path_new {
                continue;
            }
            let Some(Tok::Str(class)) = t.get(i + 5).map(|x| &x.tok) else {
                continue;
            };
            let Some(name) = binding_before(t, i) else {
                continue;
            };
            let map = if is_lock {
                &mut reg.lock
            } else {
                &mut reg.condvar
            };
            map.entry(name).or_default().insert(class.clone());
        }
    }
    reg
}

/// Backward scan (capped, stopping at `;`) for the field or `let` name
/// a construction is being assigned to: the nearest ident followed by a
/// single `:`, or the ident after a `let`.
fn binding_before(t: &[Token], site: usize) -> Option<String> {
    let floor = site.saturating_sub(64);
    let mut k = site;
    while k > floor {
        k -= 1;
        match &t[k].tok {
            Tok::Punct(';') => return None,
            Tok::Ident(name) if name == "let" => {
                if let Some(Tok::Ident(n)) = t.get(k + 1).map(|x| &x.tok) {
                    if n != "mut" {
                        return Some(n.clone());
                    } else if let Some(Tok::Ident(n2)) = t.get(k + 2).map(|x| &x.tok) {
                        return Some(n2.clone());
                    }
                }
            }
            Tok::Ident(name)
                if !crate::items::is_keyword(name)
                    && punct(t, k + 1, ':')
                    && !punct(t, k + 2, ':')
                    && !punct(t, k.wrapping_sub(1), ':') =>
            {
                return Some(name.clone());
            }
            _ => {}
        }
    }
    None
}

/// Brace depth per token: tokens inside `{…}` carry depth+1, the braces
/// themselves the outer depth.
fn depth_map(t: &[Token]) -> Vec<u32> {
    let mut out = Vec::with_capacity(t.len());
    let mut d = 0u32;
    for tok in t {
        if matches!(tok.tok, Tok::Punct('}')) {
            d = d.saturating_sub(1);
        }
        out.push(d);
        if matches!(tok.tok, Tok::Punct('{')) {
            d += 1;
        }
    }
    out
}

fn ident(t: &[Token], i: usize) -> Option<&str> {
    match t.get(i).map(|x| &x.tok) {
        Some(Tok::Ident(s)) => Some(s.as_str()),
        _ => None,
    }
}

fn punct(t: &[Token], i: usize, c: char) -> bool {
    matches!(t.get(i).map(|x| &x.tok), Some(Tok::Punct(p)) if *p == c)
}

/// Direct lock facts for fn `gi` of `file`.
fn direct_facts(file: &FileIndex, gi: usize, reg: &Registry, depths: &[u32]) -> FnFacts {
    let f = &file.fns[gi];
    let t = &file.lexed.tokens;
    let mut facts = FnFacts::default();

    // Calls inside a `spawn(…)` argument run on the spawned thread.
    let spawn_spans: Vec<(usize, usize)> = f
        .calls
        .iter()
        .filter(|c| !c.is_macro && c.name == "spawn")
        .filter_map(|c| matching_close(t, c.tok + 1).map(|close| (c.tok + 1, close)))
        .collect();
    for (ci, call) in f.calls.iter().enumerate() {
        if spawn_spans
            .iter()
            .any(|&(o, c)| o < call.tok && call.tok < c)
        {
            facts.detached.insert(ci);
        }
    }

    for (ci, call) in f.calls.iter().enumerate() {
        if call.is_macro || facts.detached.contains(&ci) {
            continue;
        }
        let Some(recv) = &call.recv else { continue };
        if ACQUIRE_METHODS.contains(&call.name.as_str()) {
            if let Some(classes) = reg.lock.get(recv) {
                let (acq, guard) =
                    classify_acquisition(file, gi, call.tok, call.line, classes.clone(), depths);
                if let Some(g) = guard {
                    facts.guards.push(g);
                }
                facts.acqs.push(acq);
            }
        } else if WAIT_METHODS.contains(&call.name.as_str()) {
            if let Some(cv) = reg.condvar.get(recv) {
                // The guard passed to the wait: first argument ident.
                let arg = punct(t, call.tok + 1, '(')
                    .then(|| ident(t, call.tok + 2))
                    .flatten();
                facts.waits.push(WaitSite {
                    tok: call.tok,
                    line: call.line,
                    cv: cv.clone(),
                    excluded: arg.map(str::to_string).into_iter().collect::<BTreeSet<_>>(),
                });
                facts.wait_calls.insert(ci);
            }
        }
    }

    facts
}

/// Decide binding and liveness for one acquisition at `tok`.
fn classify_acquisition(
    file: &FileIndex,
    gi: usize,
    tok: usize,
    line: u32,
    classes: BTreeSet<String>,
    depths: &[u32],
) -> (Acq, Option<GuardSpan>) {
    let f = &file.fns[gi];
    let t = &file.lexed.tokens;
    let body_end = f.body.end;
    let close = matching_close(t, tok + 1).unwrap_or(tok + 1);
    let depth = depths[tok];

    // `… .lock();` — is the whole statement a guard binding?
    if punct(t, close + 1, ';') {
        if let Some(binding) = binding_of_statement(t, tok) {
            // Block-scoped: the guard lives until the enclosing block
            // closes (possibly the fn body end).
            let mut end = body_end;
            for (j, d) in depths.iter().enumerate().take(body_end).skip(close + 1) {
                if *d < depth {
                    end = j;
                    break;
                }
            }
            return (
                Acq {
                    tok,
                    line,
                    classes: classes.clone(),
                    tail: false,
                },
                Some(GuardSpan {
                    start: tok,
                    end,
                    classes,
                    binding: Some(binding),
                }),
            );
        }
    }

    // Temporary (chained / in-expression) guard: lives to the end of
    // its statement. A scan that falls off the fn body is a tail
    // expression — the fn returns the guard.
    let mut end = body_end;
    let mut tail = true;
    for (j, d) in depths.iter().enumerate().take(body_end).skip(close + 1) {
        if *d < depth || (punct(t, j, ';') && *d == depth) {
            end = j;
            tail = false;
            break;
        }
    }
    (
        Acq {
            tok,
            line,
            classes: classes.clone(),
            tail,
        },
        Some(GuardSpan {
            start: tok,
            end,
            classes,
            binding: None,
        }),
    )
}

/// For `name = <recv chain>.lock()`: walk back over the receiver chain
/// from the method name and return the assigned binding, if the shape
/// matches a plain (re)binding.
fn binding_of_statement(t: &[Token], name_tok: usize) -> Option<String> {
    let mut j = name_tok.checked_sub(1)?; // the '.'
    if !punct(t, j, '.') {
        return None;
    }
    loop {
        j = j.checked_sub(1)?;
        match &t[j].tok {
            Tok::Ident(_) => {}
            Tok::Punct('.') => {}
            Tok::Punct(']') => {
                // Step back over an index expression.
                let mut depth = 0usize;
                loop {
                    match &t[j].tok {
                        Tok::Punct(']') => depth += 1,
                        Tok::Punct('[') => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    j = j.checked_sub(1)?;
                }
            }
            Tok::Punct('=') => {
                // `=` must not be part of `==`, `+=`, `=>` etc.
                if punct(t, j.wrapping_sub(1), '=')
                    || punct(t, j + 1, '=')
                    || punct(t, j.wrapping_sub(1), '!')
                    || punct(t, j.wrapping_sub(1), '<')
                    || punct(t, j.wrapping_sub(1), '>')
                    || punct(t, j.wrapping_sub(1), '+')
                    || punct(t, j.wrapping_sub(1), '-')
                {
                    return None;
                }
                let name = ident(t, j.wrapping_sub(1))?;
                if crate::items::is_keyword(name) {
                    return None;
                }
                return Some(name.to_string());
            }
            _ => return None,
        }
    }
}

/// `open` sits on `(`: the index of the matching `)`.
fn matching_close(t: &[Token], open: usize) -> Option<usize> {
    if !punct(t, open, '(') {
        return None;
    }
    let mut depth = 0usize;
    for (j, tok) in t.iter().enumerate().skip(open) {
        match tok.tok {
            Tok::Punct('(') => depth += 1,
            Tok::Punct(')') => {
                depth -= 1;
                if depth == 0 {
                    return Some(j);
                }
            }
            _ => {}
        }
    }
    None
}

/// Shrink bound guards at explicit `drop(binding)` calls and turn wait
/// exclusions from binding names into class sets.
fn finish_spans(facts: &mut FnFacts, body: std::ops::Range<usize>, t: &[Token]) {
    for g in &mut facts.guards {
        let Some(binding) = &g.binding else { continue };
        for j in g.start..g.end.min(body.end) {
            if ident(t, j) == Some("drop")
                && punct(t, j + 1, '(')
                && ident(t, j + 2) == Some(binding)
                && punct(t, j + 3, ')')
            {
                g.end = j;
                break;
            }
        }
    }
    let spans: Vec<(usize, usize, Option<String>, BTreeSet<String>)> = facts
        .guards
        .iter()
        .map(|g| (g.start, g.end, g.binding.clone(), g.classes.clone()))
        .collect();
    for w in &mut facts.waits {
        let names: BTreeSet<String> = std::mem::take(&mut w.excluded);
        for name in names {
            for (start, end, binding, classes) in &spans {
                if binding.as_deref() == Some(name.as_str()) && *start < w.tok && w.tok < *end {
                    w.excluded.extend(classes.iter().cloned());
                }
            }
        }
    }
}

/// Fixpoint: per node, every class it may acquire (directly or through
/// any call chain), with the shortest witness route.
fn propagate_acqs(graph: &Graph, facts: &[FnFacts]) -> Vec<BTreeMap<String, (u32, Via)>> {
    let mut acq: Vec<BTreeMap<String, (u32, Via)>> = facts
        .iter()
        .map(|f| {
            let mut m: BTreeMap<String, (u32, Via)> = BTreeMap::new();
            for a in &f.acqs {
                for c in &a.classes {
                    let cand = (0u32, Via::Direct { line: a.line });
                    let improve = match m.get(c) {
                        Some(old) => cand < *old,
                        None => true,
                    };
                    if improve {
                        m.insert(c.clone(), cand);
                    }
                }
            }
            m
        })
        .collect();
    let rev = reverse_edges(graph, facts);
    let mut work: BTreeSet<usize> = (0..graph.nodes.len())
        .filter(|&i| !acq[i].is_empty())
        .collect();
    while let Some(&u) = work.iter().next() {
        work.remove(&u);
        let snapshot: Vec<(String, u32)> =
            acq[u].iter().map(|(c, (s, _))| (c.clone(), *s)).collect();
        for &v in &rev[u] {
            if v == u {
                continue;
            }
            let mut changed = false;
            for (c, s) in &snapshot {
                let cand = (s + 1, Via::Call { next: u });
                if cand.0 > 32 {
                    continue;
                }
                let improve = match acq[v].get(c) {
                    Some(old) => cand < *old,
                    None => true,
                };
                if improve {
                    acq[v].insert(c.clone(), cand);
                    changed = true;
                }
            }
            if changed {
                work.insert(v);
            }
        }
    }
    acq
}

/// Fixpoint: per node, whether it can transitively park on a condvar,
/// with the shortest witness route. `None` = cannot block.
fn propagate_blocking(graph: &Graph, facts: &[FnFacts]) -> Vec<Option<(u32, Via)>> {
    let mut blocked: Vec<Option<(u32, Via)>> = facts
        .iter()
        .map(|f| {
            f.waits
                .iter()
                .map(|w| (0u32, Via::Direct { line: w.line }))
                .min()
        })
        .collect();
    let rev = reverse_edges(graph, facts);
    let mut work: BTreeSet<usize> = (0..graph.nodes.len())
        .filter(|&i| blocked[i].is_some())
        .collect();
    while let Some(&u) = work.iter().next() {
        work.remove(&u);
        let Some((s, _)) = blocked[u].clone() else {
            continue;
        };
        for &v in &rev[u] {
            if v == u {
                continue;
            }
            let cand = (s + 1, Via::Call { next: u });
            if cand.0 > 32 {
                continue;
            }
            let improve = match &blocked[v] {
                Some(old) => cand < *old,
                None => true,
            };
            if improve {
                blocked[v] = Some(cand);
                work.insert(v);
            }
        }
    }
    blocked
}

fn reverse_edges(graph: &Graph, facts: &[FnFacts]) -> Vec<Vec<usize>> {
    let mut rev: Vec<Vec<usize>> = vec![Vec::new(); graph.nodes.len()];
    for (id, node) in graph.nodes.iter().enumerate() {
        for (ci, targets) in &node.edges {
            if facts[id].detached.contains(ci) {
                continue;
            }
            for &t in targets {
                rev[t].push(id);
            }
        }
    }
    for r in &mut rev {
        r.sort_unstable();
        r.dedup();
    }
    rev
}

/// Render the acquisition route of class `b` starting at node `t`:
/// a `` `f` → `g` `` chain plus the file:line of the direct site.
fn acq_chain(
    graph: &Graph,
    files: &[FileIndex],
    acq: &[BTreeMap<String, (u32, Via)>],
    t: usize,
    b: &str,
) -> (String, String, u32) {
    let mut quals = Vec::new();
    let mut cur = t;
    for _ in 0..32 {
        quals.push(graph.fn_info(files, cur).qual.clone());
        match &acq[cur][b].1 {
            Via::Direct { line } => {
                let rel = graph
                    .file(files, cur)
                    .rel
                    .to_string_lossy()
                    .replace('\\', "/");
                return (format!("`{}`", quals.join("` → `")), rel, *line);
            }
            Via::Call { next } => cur = *next,
        }
    }
    (format!("`{}`", quals.join("` → `")), String::new(), 0)
}

/// Render the blocking route starting at node `t`: the call chain, the
/// condvar class(es) at the parking site, and its file:line.
fn block_chain(
    graph: &Graph,
    files: &[FileIndex],
    facts: &[FnFacts],
    blocked: &[Option<(u32, Via)>],
    t: usize,
) -> (String, String, String, u32) {
    let mut quals = Vec::new();
    let mut cur = t;
    for _ in 0..32 {
        quals.push(graph.fn_info(files, cur).qual.clone());
        match blocked[cur].as_ref().map(|(_, v)| v) {
            Some(Via::Direct { line }) => {
                let file = graph.file(files, cur);
                let rel = file.rel.to_string_lossy().replace('\\', "/");
                let cv: BTreeSet<String> = facts[cur]
                    .waits
                    .iter()
                    .filter(|w| w.line == *line)
                    .flat_map(|w| w.cv.iter().cloned())
                    .collect();
                let cv = cv.into_iter().collect::<Vec<_>>().join("`/`");
                return (format!("`{}`", quals.join("` → `")), cv, rel, *line);
            }
            Some(Via::Call { next }) => cur = *next,
            None => break,
        }
    }
    (
        format!("`{}`", quals.join("` → `")),
        String::new(),
        String::new(),
        0,
    )
}

/// Elementary cycles of the class order graph, one per strongly
/// connected component: the lexicographically smallest class in the
/// component, around a shortest cycle back to itself. Returned as the
/// class ring `[s, x, …, s]`.
fn find_cycles(edges: &BTreeMap<(String, String), (usize, u32, String)>) -> Vec<Vec<String>> {
    let mut adj: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for (a, b) in edges.keys() {
        adj.entry(a).or_default().push(b);
        adj.entry(b).or_default();
    }
    let reach = |from: &str| -> BTreeSet<&str> {
        let mut seen = BTreeSet::new();
        let mut stack = vec![from];
        while let Some(u) = stack.pop() {
            for &v in adj.get(u).into_iter().flatten() {
                if seen.insert(v) {
                    stack.push(v);
                }
            }
        }
        seen
    };
    let classes: Vec<&str> = adj.keys().copied().collect();
    let closures: BTreeMap<&str, BTreeSet<&str>> = classes.iter().map(|&c| (c, reach(c))).collect();

    let mut done: BTreeSet<&str> = BTreeSet::new();
    let mut cycles = Vec::new();
    for &s in &classes {
        if done.contains(s) || !closures[s].contains(s) {
            continue;
        }
        // The SCC of s: nodes that reach s and are reached by s.
        let scc: BTreeSet<&str> = classes
            .iter()
            .copied()
            .filter(|&c| closures[s].contains(c) && closures[c].contains(s))
            .collect();
        done.extend(scc.iter().copied());
        // Shortest cycle s → … → s inside the SCC (BFS).
        let mut parent: BTreeMap<&str, &str> = BTreeMap::new();
        let mut queue: std::collections::VecDeque<&str> = std::collections::VecDeque::new();
        queue.push_back(s);
        let mut back_from: Option<&str> = None;
        'bfs: while let Some(u) = queue.pop_front() {
            for &v in adj.get(u).into_iter().flatten() {
                if !scc.contains(v) {
                    continue;
                }
                if v == s {
                    back_from = Some(u);
                    break 'bfs;
                }
                if !parent.contains_key(v) {
                    parent.insert(v, u);
                    queue.push_back(v);
                }
            }
        }
        let Some(mut cur) = back_from else { continue };
        let mut ring = vec![s.to_string()];
        let mut rev = Vec::new();
        while cur != s {
            rev.push(cur.to_string());
            cur = parent[cur];
        }
        rev.reverse();
        ring.extend(rev);
        ring.push(s.to_string());
        cycles.push(ring);
    }
    cycles
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items::index_file;
    use std::path::PathBuf;

    fn analyze(sources: &[(&str, &str)]) -> (Vec<Finding>, Vec<Waived>) {
        let files: Vec<FileIndex> = sources
            .iter()
            .map(|(rel, src)| index_file(&PathBuf::from(rel), src))
            .collect();
        let graph = Graph::build(&files);
        run(&files, &graph)
    }

    const REL: &str = "crates/core/src/pipeline/seeded.rs";

    fn two_lock_struct() -> &'static str {
        "
            struct Pair { a: TrackedMutex<u32>, b: TrackedMutex<u32> }
            impl Pair {
                fn new() -> Self {
                    Pair {
                        a: TrackedMutex::new(\"seed.a\", 0),
                        b: TrackedMutex::new(\"seed.b\", 0),
                    }
                }
        "
    }

    #[test]
    fn inverted_two_lock_order_is_a_cycle_with_both_witnesses() {
        let src = format!(
            "{}
                pub fn ab(&self) {{
                    let ga = self.a.lock();
                    let gb = self.b.lock();
                    drop((ga, gb));
                }}
                pub fn ba(&self) {{
                    let gb = self.b.lock();
                    self.take_a();
                    drop(gb);
                }}
                fn take_a(&self) {{
                    let ga = self.a.lock();
                    drop(ga);
                }}
            }}",
            two_lock_struct()
        );
        let (findings, _) = analyze(&[(REL, &src)]);
        let cycles: Vec<&Finding> = findings.iter().filter(|f| f.lint == ORDER_LINT).collect();
        assert_eq!(cycles.len(), 1, "{findings:?}");
        let msg = &cycles[0].message;
        assert!(msg.contains("`seed.a` → `seed.b` → `seed.a`"), "{msg}");
        assert!(msg.contains("Pair::ab"), "{msg}");
        assert!(msg.contains("Pair::ba"), "{msg}");
        assert!(msg.contains("Pair::take_a"), "{msg}");
    }

    #[test]
    fn consistent_order_produces_no_cycle() {
        let src = format!(
            "{}
                pub fn ab(&self) {{
                    let ga = self.a.lock();
                    let gb = self.b.lock();
                    drop((ga, gb));
                }}
                pub fn ab_again(&self) {{
                    let ga = self.a.lock();
                    let gb = self.b.lock();
                    drop((ga, gb));
                }}
            }}",
            two_lock_struct()
        );
        let (findings, _) = analyze(&[(REL, &src)]);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn block_scope_and_explicit_drop_end_a_guard() {
        let src = format!(
            "{}
                pub fn scoped(&self) {{
                    {{ let ga = self.a.lock(); drop(ga); }}
                    let gb = self.b.lock();
                    drop(gb);
                }}
                pub fn dropped(&self) {{
                    let gb = self.b.lock();
                    drop(gb);
                    let ga = self.a.lock();
                    drop(ga);
                }}
            }}",
            two_lock_struct()
        );
        let (findings, _) = analyze(&[(REL, &src)]);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn guard_constructor_helpers_count_as_client_acquisitions() {
        let src = "
            struct Q { state: TrackedMutex<u32>, aux: TrackedMutex<u32> }
            impl Q {
                fn mk() -> Self {
                    Q {
                        state: TrackedMutex::new(\"q.state\", 0),
                        aux: TrackedMutex::new(\"q.aux\", 0),
                    }
                }
                fn lock(&self) -> Guard<u32> { self.state.lock() }
                pub fn forward(&self) {
                    let s = self.lock();
                    let x = self.aux.lock();
                    drop((s, x));
                }
                pub fn backward(&self) {
                    let x = self.aux.lock();
                    let s = self.lock();
                    drop((s, x));
                }
            }
        ";
        let (findings, _) = analyze(&[(REL, src)]);
        let cycles: Vec<&Finding> = findings.iter().filter(|f| f.lint == ORDER_LINT).collect();
        assert_eq!(cycles.len(), 1, "{findings:?}");
        assert!(
            cycles[0].message.contains("`q.aux`"),
            "{}",
            cycles[0].message
        );
        assert!(
            cycles[0].message.contains("`q.state`"),
            "{}",
            cycles[0].message
        );
    }

    #[test]
    fn condvar_wait_holding_only_its_own_mutex_is_fine() {
        let src = "
            struct W { state: TrackedMutex<u32>, ready: TrackedCondvar }
            impl W {
                fn mk() -> Self {
                    W {
                        state: TrackedMutex::new(\"w.state\", 0),
                        ready: TrackedCondvar::new(\"w.ready\"),
                    }
                }
                pub fn park(&self) {
                    let mut s = self.state.lock();
                    s = self.ready.wait(s);
                    drop(s);
                }
            }
        ";
        let (findings, _) = analyze(&[(REL, src)]);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn condvar_wait_holding_an_unrelated_lock_fires() {
        let src = "
            struct W { state: TrackedMutex<u32>, aux: TrackedMutex<u32>, ready: TrackedCondvar }
            impl W {
                fn mk() -> Self {
                    W {
                        state: TrackedMutex::new(\"w.state\", 0),
                        aux: TrackedMutex::new(\"w.aux\", 0),
                        ready: TrackedCondvar::new(\"w.ready\"),
                    }
                }
                pub fn park(&self) {
                    let a = self.aux.lock();
                    let mut s = self.state.lock();
                    s = self.ready.wait(s);
                    drop((a, s));
                }
            }
        ";
        let (findings, _) = analyze(&[(REL, src)]);
        let blocking: Vec<&Finding> = findings
            .iter()
            .filter(|f| f.lint == BLOCKING_LINT)
            .collect();
        assert_eq!(blocking.len(), 1, "{findings:?}");
        assert!(
            blocking[0].message.contains("`w.aux`"),
            "{}",
            blocking[0].message
        );
        assert!(
            !blocking[0].message.contains("`w.state`"),
            "{}",
            blocking[0].message
        );
    }

    #[test]
    fn calling_a_transitively_blocking_fn_while_locked_fires_with_chain() {
        let src = "
            struct W { state: TrackedMutex<u32>, aux: TrackedMutex<u32>, ready: TrackedCondvar }
            impl W {
                fn mk() -> Self {
                    W {
                        state: TrackedMutex::new(\"w.state\", 0),
                        aux: TrackedMutex::new(\"w.aux\", 0),
                        ready: TrackedCondvar::new(\"w.ready\"),
                    }
                }
                fn settle(&self) {
                    let mut s = self.state.lock();
                    s = self.ready.wait(s);
                    drop(s);
                }
                pub fn bad(&self) {
                    let a = self.aux.lock();
                    self.settle();
                    drop(a);
                }
                pub fn good(&self) {
                    {
                        let a = self.aux.lock();
                        drop(a);
                    }
                    self.settle();
                }
            }
        ";
        let (findings, _) = analyze(&[(REL, src)]);
        let blocking: Vec<&Finding> = findings
            .iter()
            .filter(|f| f.lint == BLOCKING_LINT)
            .collect();
        assert_eq!(blocking.len(), 1, "{findings:?}");
        let msg = &blocking[0].message;
        assert!(msg.contains("`W::bad`"), "{msg}");
        assert!(msg.contains("`W::settle`"), "{msg}");
        assert!(msg.contains("`w.aux`"), "{msg}");
    }

    #[test]
    fn spawned_thread_work_does_not_block_the_spawner() {
        let src = "
            struct W { state: TrackedMutex<u32>, aux: TrackedMutex<u32>, ready: TrackedCondvar }
            impl W {
                fn mk() -> Self {
                    W {
                        state: TrackedMutex::new(\"w.state\", 0),
                        aux: TrackedMutex::new(\"w.aux\", 0),
                        ready: TrackedCondvar::new(\"w.ready\"),
                    }
                }
                fn settle(&self) {
                    let mut s = self.state.lock();
                    s = self.ready.wait(s);
                    drop(s);
                }
                pub fn launch(&self) {
                    let a = self.aux.lock();
                    spawn(move || { self.settle(); });
                    drop(a);
                }
            }
        ";
        let (findings, _) = analyze(&[(REL, src)]);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn waivers_move_lock_findings_to_the_waived_list() {
        let src = format!(
            "{}
                pub fn ab(&self) {{
                    let ga = self.a.lock();
                    // analyze:allow(static-lock-order): seeded inversion for the fixture
                    let gb = self.b.lock();
                    drop((ga, gb));
                }}
                pub fn ba(&self) {{
                    let gb = self.b.lock();
                    // analyze:allow(static-lock-order): seeded inversion for the fixture
                    let ga = self.a.lock();
                    drop((ga, gb));
                }}
            }}",
            two_lock_struct()
        );
        let (findings, waived) = analyze(&[(REL, &src)]);
        assert!(findings.is_empty(), "{findings:?}");
        assert!(!waived.is_empty());
        assert!(waived[0].justification.contains("seeded inversion"));
    }

    #[test]
    fn sync_and_vendor_sources_contribute_no_facts() {
        let src = "
            struct T { inner: TrackedMutex<u32>, other: TrackedMutex<u32> }
            impl T {
                fn mk() -> Self {
                    T {
                        inner: TrackedMutex::new(\"t.inner\", 0),
                        other: TrackedMutex::new(\"t.other\", 0),
                    }
                }
                pub fn ab(&self) { let a = self.inner.lock(); let b = self.other.lock(); drop((a, b)); }
                pub fn ba(&self) { let b = self.other.lock(); let a = self.inner.lock(); drop((a, b)); }
            }
        ";
        for rel in ["crates/sync/src/lib.rs", "vendor/rayon/src/pool.rs"] {
            let (findings, _) = analyze(&[(rel, src)]);
            assert!(findings.is_empty(), "{rel}: {findings:?}");
        }
    }
}
