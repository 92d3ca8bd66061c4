//! Static lock discipline over the workspace call graph: the
//! **lock-nesting** lint.
//!
//! The rule is the one the runtime `lock-audit` build enforces in
//! `crates/sync`: no tracked lock is acquired while another is held. A
//! thread that never nests cannot close a lock-order cycle, and when it
//! parks on a condvar it holds only the guard it passed to the wait.
//! Every acquisition made while a tracked guard is live is a finding:
//!
//! * directly — `let gb = self.b.lock();` while `ga` is live;
//! * through a guard constructor — a fn whose *tail expression* is an
//!   acquisition (e.g. `JobQueue::lock`) — whose callers acquire its
//!   class at the call site;
//! * through a call to any fn that may acquire a tracked lock somewhere
//!   down its call chain, reported with the shortest witness chain.
//!
//! A same-class nesting is a nesting: two guards of one class held by
//! one thread are no more ordered than two classes.
//!
//! Lock classes come from `TrackedMutex::new("class", …)` construction
//! sites, which bind the class string to the nearest field or `let`
//! name; `.lock()` on a receiver whose last path segment matches a bound
//! name acquires that class. A name bound to several classes acquires
//! all of them — the usual over-approximation bargain. Guard liveness is
//! structural: a `let g = x.lock();` guard lives to the end of its
//! enclosing block (or an explicit `drop(g)`), a chained temporary to
//! the end of its statement.
//!
//! A condvar wait, `g = cv.wait(g)`, releases the mutex while parked and
//! is no workspace call: the call graph resolves a `wait` through a
//! receiver bound by `TrackedCondvar::new` to nothing, so it is neither
//! an acquisition nor a call into a same-named fn (`JobQueue::wait`).
//!
//! `crates/sync/src` and `vendor/` are outside the call graph (see
//! [`crate::callgraph::in_graph`]), so neither contributes facts: the
//! tracked primitives' own `inner` fields would otherwise alias user
//! binding names, and the runtime audit already owns that layer. The
//! `rayon.*` classes of `vendor/rayon` stay covered by the runtime
//! check alone.
//!
//! Calls made *inside a `spawn(…)` argument* run on another thread:
//! the spawning fn returns immediately, so the spawned code's
//! acquisitions do not happen under the spawner's guards. Those call
//! sites are cut from the fixpoint and from the findings (the spawned
//! fn's own body is still analyzed in its own right).

use std::collections::{BTreeMap, BTreeSet};

use crate::callgraph::{constructions, ident, punct, Graph};
use crate::items::FileIndex;
use crate::lexer::{Tok, Token};
use crate::report::{Finding, Waived};
use crate::waiver_on;

pub const LINT: &str = "lock-nesting";

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

#[derive(Debug, Default)]
struct FnFacts {
    guards: Vec<GuardSpan>,
    acqs: Vec<Acq>,
    /// Call indices inside a `spawn(…)` argument — they run on another
    /// thread and contribute nothing to the spawning fn.
    detached: BTreeSet<usize>,
}

impl FnFacts {
    /// Classes of the guards live at `tok`.
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

/// How a fn comes to acquire a tracked lock: directly, at a line, or by
/// calling another node. Ordered so fixpoint tie-breaks are stable.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum Via {
    Direct { line: u32, class: String },
    Call { next: usize },
}

pub fn run(files: &[FileIndex], graph: &Graph) -> (Vec<Finding>, Vec<Waived>) {
    let registry = build_registry(files);
    if registry.is_empty() {
        return (Vec::new(), Vec::new());
    }
    let depths: Vec<Vec<u32>> = files.iter().map(|f| depth_map(&f.lexed.tokens)).collect();

    // Phase 1: per-fn direct facts; collect guard constructors.
    let mut facts: Vec<FnFacts> = graph
        .nodes
        .iter()
        .map(|node| direct_facts(&files[node.file], node.f, &registry, &depths[node.file]))
        .collect();
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

    // Phase 2: client-side acquisitions through guard constructors,
    // then explicit drops once every guard span exists.
    for (id, node) in graph.nodes.iter().enumerate() {
        let file = &files[node.file];
        let mut extra: Vec<(Acq, GuardSpan)> = Vec::new();
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
            facts[id].guards.push(guard);
            facts[id].acqs.push(acq);
        }
        let body_end = file.fns[node.f].body.end;
        end_at_drops(&mut facts[id], body_end, &file.lexed.tokens);
    }

    let may = may_acquire(graph, &facts);

    let mut findings = Vec::new();
    let mut waived = Vec::new();
    for (id, node) in graph.nodes.iter().enumerate() {
        let file = &files[node.file];
        let f = &file.fns[node.f];
        // One finding per site, keyed by token: a guard-constructor call
        // is both an acquisition and a call edge.
        let mut sites: BTreeMap<usize, (u32, String)> = BTreeMap::new();
        for acq in &facts[id].acqs {
            let held = facts[id].held_at(acq.tok);
            if held.is_empty() {
                continue;
            }
            sites.entry(acq.tok).or_insert_with(|| {
                (
                    acq.line,
                    format!(
                        "`{}` acquires {} while holding {} — no tracked lock may be acquired \
                         while another is held",
                        f.qual,
                        class_list(&acq.classes),
                        class_list(&held)
                    ),
                )
            });
        }
        for (ci, targets) in &node.edges {
            if facts[id].detached.contains(ci) {
                continue;
            }
            let call = &f.calls[*ci];
            let held = facts[id].held_at(call.tok);
            if held.is_empty() {
                continue;
            }
            let best = targets
                .iter()
                .filter(|&&c| c != id)
                .filter_map(|&c| may[c].as_ref().map(|w| (w, c)))
                .min();
            let Some((_, callee)) = best else { continue };
            let (chain, class, site) = witness(graph, files, &may, id, callee);
            sites.entry(call.tok).or_insert_with(|| {
                (
                    call.line,
                    format!(
                        "{chain} acquires `{class}` ({site}) while holding {} — release it \
                         before the call",
                        class_list(&held)
                    ),
                )
            });
        }
        let rel = file.rel.to_string_lossy().replace('\\', "/");
        for (line, message) in sites.into_values() {
            match waiver_on(&file.lexed, line, LINT) {
                Some(justification) => waived.push(Waived {
                    file: rel.clone(),
                    line,
                    lint: LINT.to_string(),
                    justification,
                }),
                None => findings.push(Finding {
                    file: rel.clone(),
                    line,
                    lint: LINT.to_string(),
                    message,
                    excerpt: file.excerpt(line),
                }),
            }
        }
    }

    (findings, waived)
}

fn class_list(classes: &BTreeSet<String>) -> String {
    format!(
        "`{}`",
        classes.iter().cloned().collect::<Vec<_>>().join("`, `")
    )
}

/// Bind each `TrackedMutex::new("class", …)` construction's class to the
/// field or `let` name it is assigned to.
fn build_registry(files: &[FileIndex]) -> BTreeMap<String, BTreeSet<String>> {
    let mut reg: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for (name, fi, i) in constructions(files, "TrackedMutex") {
        if let Some(Tok::Str(class)) = files[fi].lexed.tokens.get(i + 5).map(|x| &x.tok) {
            reg.entry(name).or_default().insert(class.clone());
        }
    }
    reg
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

/// Direct lock facts for fn `gi` of `file`.
fn direct_facts(
    file: &FileIndex,
    gi: usize,
    reg: &BTreeMap<String, BTreeSet<String>>,
    depths: &[u32],
) -> FnFacts {
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
        if call.is_macro || call.name != "lock" || facts.detached.contains(&ci) {
            continue;
        }
        let Some(classes) = call.recv.as_ref().and_then(|r| reg.get(r)) else {
            continue;
        };
        let (acq, guard) =
            classify_acquisition(file, gi, call.tok, call.line, classes.clone(), depths);
        facts.guards.push(guard);
        facts.acqs.push(acq);
    }

    facts
}

/// Decide binding and liveness for one acquisition at `tok`. A
/// `let g = ….lock();` guard lives until its enclosing block closes;
/// a temporary (chained / in-expression) guard to the end of its
/// statement. A temporary whose scan falls off the fn body is a tail
/// expression — the fn returns the guard.
fn classify_acquisition(
    file: &FileIndex,
    gi: usize,
    tok: usize,
    line: u32,
    classes: BTreeSet<String>,
    depths: &[u32],
) -> (Acq, GuardSpan) {
    let t = &file.lexed.tokens;
    let body_end = file.fns[gi].body.end;
    let close = matching_close(t, tok + 1).unwrap_or(tok + 1);
    let depth = depths[tok];
    let binding = if punct(t, close + 1, ';') {
        binding_of_statement(t, tok)
    } else {
        None
    };
    let mut end = body_end;
    let mut tail = binding.is_none();
    for (j, d) in depths.iter().enumerate().take(body_end).skip(close + 1) {
        let ends_statement = binding.is_none() && punct(t, j, ';') && *d == depth;
        if *d < depth || ends_statement {
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
        GuardSpan {
            start: tok,
            end,
            classes,
            binding,
        },
    )
}

/// For `name = <recv chain>.method(…)`: walk back over the receiver
/// chain from the method name and return the assigned binding, if the
/// shape matches a plain (re)binding.
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

/// Shrink bound guards at explicit `drop(binding)` calls.
fn end_at_drops(facts: &mut FnFacts, body_end: usize, t: &[Token]) {
    for g in &mut facts.guards {
        let Some(binding) = &g.binding else { continue };
        for j in g.start..g.end.min(body_end) {
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
}

/// Fixpoint: per node, the shortest route to a tracked-lock acquisition,
/// directly or through any call chain. `None` = acquires nothing.
fn may_acquire(graph: &Graph, facts: &[FnFacts]) -> Vec<Option<(u32, Via)>> {
    let mut may: Vec<Option<(u32, Via)>> = facts
        .iter()
        .map(|f| {
            f.acqs
                .iter()
                .flat_map(|a| {
                    a.classes.iter().map(|c| {
                        (
                            0u32,
                            Via::Direct {
                                line: a.line,
                                class: c.clone(),
                            },
                        )
                    })
                })
                .min()
        })
        .collect();
    let mut callers: Vec<Vec<usize>> = vec![Vec::new(); graph.nodes.len()];
    for (id, node) in graph.nodes.iter().enumerate() {
        for (ci, targets) in &node.edges {
            if facts[id].detached.contains(ci) {
                continue;
            }
            for &t in targets {
                if t != id {
                    callers[t].push(id);
                }
            }
        }
    }
    for c in &mut callers {
        c.sort_unstable();
        c.dedup();
    }
    let mut work: BTreeSet<usize> = (0..graph.nodes.len())
        .filter(|&i| may[i].is_some())
        .collect();
    while let Some(u) = work.pop_first() {
        let Some((steps, _)) = may[u] else { continue };
        let cand = (steps + 1, Via::Call { next: u });
        if cand.0 > 32 {
            continue;
        }
        for &v in &callers[u] {
            if may[v].as_ref().is_none_or(|old| cand < *old) {
                may[v] = Some(cand.clone());
                work.insert(v);
            }
        }
    }
    may
}

/// Render the route from `caller` through `callee` down to the
/// acquisition site: the `` `f` → `g` `` chain, the acquired class, and
/// the site's `file:line`.
fn witness(
    graph: &Graph,
    files: &[FileIndex],
    may: &[Option<(u32, Via)>],
    caller: usize,
    callee: usize,
) -> (String, String, String) {
    let mut quals = vec![graph.fn_info(files, caller).qual.clone()];
    let mut cur = callee;
    let (line, class) = loop {
        quals.push(graph.fn_info(files, cur).qual.clone());
        match &may[cur] {
            Some((_, Via::Call { next })) => cur = *next,
            Some((_, Via::Direct { line, class })) => break (*line, class.as_str()),
            None => break (0, ""),
        }
    };
    let rel = graph
        .file(files, cur)
        .rel
        .to_string_lossy()
        .replace('\\', "/");
    (
        format!("`{}`", quals.join("` → `")),
        class.to_string(),
        format!("{rel}:{line}"),
    )
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

    fn messages(findings: &[Finding]) -> Vec<&str> {
        assert!(findings.iter().all(|f| f.lint == LINT), "{findings:?}");
        findings.iter().map(|f| f.message.as_str()).collect()
    }

    #[test]
    fn nestings_are_reported_directly_and_through_calls() {
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
        let msgs = messages(&findings);
        assert_eq!(msgs.len(), 2, "{findings:?}");
        assert!(
            msgs[0].contains("`Pair::ab` acquires `seed.b` while holding `seed.a`"),
            "{}",
            msgs[0]
        );
        assert!(
            msgs[1].contains("`Pair::ba` → `Pair::take_a` acquires `seed.a`"),
            "{}",
            msgs[1]
        );
        assert!(msgs[1].contains("while holding `seed.b`"), "{}", msgs[1]);
    }

    #[test]
    fn a_consistent_order_is_still_a_nesting() {
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
        let msgs = messages(&findings);
        assert_eq!(msgs.len(), 2, "{findings:?}");
        assert!(msgs
            .iter()
            .all(|m| m.contains("`seed.b` while holding `seed.a`")));
    }

    #[test]
    fn same_class_nesting_is_reported() {
        let src = "
            struct Twin { left: TrackedMutex<u32>, right: TrackedMutex<u32> }
            impl Twin {
                fn new() -> Self {
                    Twin {
                        left: TrackedMutex::new(\"twin.side\", 0),
                        right: TrackedMutex::new(\"twin.side\", 0),
                    }
                }
                pub fn both(&self) {
                    let l = self.left.lock();
                    let r = self.right.lock();
                    drop((l, r));
                }
            }
        ";
        let (findings, _) = analyze(&[(REL, src)]);
        let msgs = messages(&findings);
        assert_eq!(msgs.len(), 1, "{findings:?}");
        assert!(
            msgs[0].contains("acquires `twin.side` while holding `twin.side`"),
            "{}",
            msgs[0]
        );
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
        let msgs = messages(&findings);
        // One finding per site: `self.lock()` in `backward` is both an
        // acquisition and a call, and is reported once.
        assert_eq!(msgs.len(), 2, "{findings:?}");
        assert!(
            msgs[0].contains("`Q::forward` acquires `q.aux` while holding `q.state`"),
            "{}",
            msgs[0]
        );
        assert!(
            msgs[1].contains("`Q::backward` acquires `q.state` while holding `q.aux`"),
            "{}",
            msgs[1]
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
    fn a_waited_guard_is_not_held_across_a_same_named_workspace_fn() {
        // `self.ready.wait(s)` is the condvar's wait, not `Jobs::wait`,
        // which locks. Holding the guard across `jobs.wait(id)` is a call
        // into `Jobs::wait` under it.
        let src = "
            struct Jobs { table: TrackedMutex<u32> }
            impl Jobs {
                fn mk() -> Self { Jobs { table: TrackedMutex::new(\"jobs.table\", 0) } }
                pub fn wait(&self, id: u32) -> u32 {
                    let t = self.table.lock();
                    *t + id
                }
            }
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
                pub fn stall(&self, jobs: &Jobs) {
                    let s = self.state.lock();
                    let _ = jobs.wait(*s);
                    drop(s);
                }
            }
        ";
        let (findings, _) = analyze(&[(REL, src)]);
        let msgs = messages(&findings);
        assert_eq!(msgs.len(), 1, "{findings:?}");
        assert!(
            msgs[0].contains("`W::stall` → `Jobs::wait` acquires `jobs.table`"),
            "{}",
            msgs[0]
        );
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
        let msgs = messages(&findings);
        // Reported where the waited mutex is taken under `w.aux`.
        assert_eq!(msgs.len(), 1, "{findings:?}");
        assert!(
            msgs[0].contains("`W::park` acquires `w.state` while holding `w.aux`"),
            "{}",
            msgs[0]
        );
    }

    #[test]
    fn calling_a_fn_that_locks_while_locked_fires_with_chain() {
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
        let msgs = messages(&findings);
        assert_eq!(msgs.len(), 1, "{findings:?}");
        assert!(
            msgs[0].contains("`W::bad` → `W::settle` acquires `w.state`"),
            "{}",
            msgs[0]
        );
        assert!(msgs[0].contains("while holding `w.aux`"), "{}", msgs[0]);
    }

    #[test]
    fn spawned_thread_work_does_not_nest_in_the_spawner() {
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
                    // analyze:allow(lock-nesting): seeded nesting for the fixture
                    let gb = self.b.lock();
                    drop((ga, gb));
                }}
                pub fn ba(&self) {{
                    let gb = self.b.lock();
                    // analyze:allow(lock-nesting): seeded nesting for the fixture
                    let ga = self.a.lock();
                    drop((ga, gb));
                }}
            }}",
            two_lock_struct()
        );
        let (findings, waived) = analyze(&[(REL, &src)]);
        assert!(findings.is_empty(), "{findings:?}");
        assert_eq!(waived.len(), 2, "{waived:?}");
        assert!(waived[0].justification.contains("seeded nesting"));
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
