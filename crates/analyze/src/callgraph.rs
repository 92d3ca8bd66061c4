//! The workspace call graph: every in-graph, non-test fn as a node,
//! every call site resolved to candidate definitions as edges.
//!
//! Resolution is deliberately an over-approximation (this feeds lints
//! with a waiver escape hatch — extra edges are safe, missing edges are
//! not), but it is sharper than the bare name matching the taint pass
//! started with:
//!
//! * `A::b(…)` path calls bind to fns whose qualified name ends in
//!   `A::b`; a qualifier that matches *nothing* resolves to nothing —
//!   the caller named a type, and the workspace doesn't define that
//!   method on it (`VecDeque::new(…)` must not reach `MpcSystem::new`);
//! * `Self::b(…)` / `self.b(…)` bind inside the caller's own impl, and
//!   only there (an unmatched self-call is a derive/trait method, not a
//!   license to connect every same-named fn);
//! * `x.b(…)` method calls prefer methods (fns inside an `impl`) over
//!   same-named free fns — unless `b` is a ubiquitous std
//!   collection/iterator name ([`STD_METHODS`]): `list.drain(..)` is
//!   `Vec::drain`, and wiring it to `JobQueue::drain` would hang every
//!   lock class on a vector call;
//! * `x.wait(…)` / `x.wait_timeout(…)` through a receiver bound by
//!   `TrackedCondvar::new` is the condvar's own wait and resolves to
//!   nothing: `self.inner.job_done.wait(state)` is not `JobQueue::wait`;
//! * free calls `b(…)` prefer same-file definitions (a nested helper
//!   shadows a workspace-wide name);
//! * otherwise, when a preference leaves no candidate, resolution falls
//!   back to every fn with that base name — never to silence.
//!
//! Macro invocations resolve to nothing (they are not fns), and `drop`
//! is special-cased to nothing: `drop(guard)` is a scope edge, not a
//! call edge, and resolving it to every `Drop::drop` impl in the
//! workspace would wire unrelated lock classes together.
//!
//! The graph is also a user-facing artifact: `cargo xtask analyze
//! --callgraph-json <path>` serializes it with the same stable-order,
//! byte-identical discipline as the findings report.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::path::Path;

use crate::items::{Call, FileIndex, FnInfo};
use crate::lexer::{Tok, Token};
use crate::report::json_str;

/// Files whose fns participate in the call graph. Vendored shims and
/// tooling are excluded: `vendor/` is pinned deterministic by its own
/// proptests and `xtask`/test trees never produce results. The tracked
/// sync layer (`crates/sync/src`) is excluded too — it *is* the runtime
/// audit: its deliberate abort-on-violation panics and internal std
/// locks would otherwise thread through every interprocedural chain in
/// the workspace.
pub fn in_graph(rel: &Path) -> bool {
    let s = rel.to_string_lossy();
    (s.starts_with("crates/") || s.starts_with("src/"))
        && !s.starts_with("crates/sync/src")
        && !rel.components().any(|c| {
            matches!(
                c.as_os_str().to_str(),
                Some("tests") | Some("benches") | Some("examples") | Some("fixtures")
            )
        })
}

/// Method names that are overwhelmingly std collection/iterator calls.
/// A method call through a non-`self` receiver with one of these names
/// resolves to nothing: the odds it means the same-named workspace
/// method are dwarfed by the noise of connecting every `.len()` to
/// `LruStore::len`. (`self.len()` and `Type::len(…)` still resolve —
/// those forms carry real evidence.)
pub const STD_METHODS: &[&str] = &[
    "all",
    "any",
    "as_ref",
    "as_str",
    "clear",
    "clone",
    "cloned",
    "collect",
    "contains",
    "contains_key",
    "copied",
    "count",
    "drain",
    "entry",
    "enumerate",
    "extend",
    "filter",
    "filter_map",
    "find",
    "first",
    "flat_map",
    "flatten",
    "fold",
    "for_each",
    "from",
    "get",
    "get_mut",
    "insert",
    "into",
    "into_iter",
    "is_empty",
    "iter",
    "iter_mut",
    "last",
    "len",
    "lock",
    "map",
    "max",
    "min",
    "new",
    "next",
    "or_default",
    "or_insert",
    "peekable",
    "pop",
    "position",
    "push",
    "read",
    "remove",
    "rev",
    "skip",
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "split",
    "sum",
    "take",
    "to_owned",
    "to_string",
    "unwrap_or",
    "write",
    "zip",
];

/// The condvar waits: through a receiver bound by `TrackedCondvar::new`
/// they are the condvar's own, not a same-named workspace fn.
const CONDVAR_WAITS: &[&str] = &["wait", "wait_timeout"];

/// Every `ty::new(…)` construction in non-test, in-graph code, as
/// `(binding, file, token)`: the field or `let` name it is assigned to,
/// the file's index and the token index of `ty`.
pub(crate) fn constructions<'a>(
    files: &'a [FileIndex],
    ty: &'a str,
) -> impl Iterator<Item = (String, usize, usize)> + 'a {
    files
        .iter()
        .enumerate()
        .filter(|(_, file)| in_graph(&file.rel))
        .flat_map(move |(fi, file)| {
            let t = &file.lexed.tokens;
            (0..t.len()).filter_map(move |i| {
                let path_new = ident(t, i) == Some(ty)
                    && punct(t, i + 1, ':')
                    && punct(t, i + 2, ':')
                    && ident(t, i + 3) == Some("new")
                    && punct(t, i + 4, '(');
                if !path_new || file.in_test_code(i) {
                    return None;
                }
                binding_before(t, i).map(|name| (name, fi, i))
            })
        })
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

pub(crate) fn ident(t: &[Token], i: usize) -> Option<&str> {
    match t.get(i).map(|x| &x.tok) {
        Some(Tok::Ident(s)) => Some(s.as_str()),
        _ => None,
    }
}

pub(crate) fn punct(t: &[Token], i: usize, c: char) -> bool {
    matches!(t.get(i).map(|x| &x.tok), Some(Tok::Punct(p)) if *p == c)
}

/// One node: fn `f` of `files[file]`, plus its resolved outgoing edges.
#[derive(Debug)]
pub struct Node {
    pub file: usize,
    pub f: usize,
    /// `(call index into `FnInfo::calls`, callee node ids)` — one entry
    /// per call site that resolved to at least one workspace fn.
    pub edges: Vec<(usize, Vec<usize>)>,
}

/// The resolved workspace call graph.
#[derive(Debug)]
pub struct Graph {
    pub nodes: Vec<Node>,
}

impl Graph {
    /// Build the graph over every in-graph, non-test fn.
    pub fn build(files: &[FileIndex]) -> Graph {
        let mut nodes: Vec<Node> = Vec::new();
        let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (fi, file) in files.iter().enumerate() {
            if !in_graph(&file.rel) {
                continue;
            }
            for (gi, f) in file.fns.iter().enumerate() {
                if f.is_test {
                    continue;
                }
                by_name.entry(&f.name).or_default().push(nodes.len());
                nodes.push(Node {
                    file: fi,
                    f: gi,
                    edges: Vec::new(),
                });
            }
        }
        let condvars: BTreeSet<String> = constructions(files, "TrackedCondvar")
            .map(|(name, _, _)| name)
            .collect();
        let mut edges: Vec<Vec<(usize, Vec<usize>)>> = Vec::with_capacity(nodes.len());
        for node in &nodes {
            let caller = &files[node.file].fns[node.f];
            let mut out = Vec::new();
            for (ci, call) in caller.calls.iter().enumerate() {
                let targets = resolve(call, caller, node.file, &nodes, &by_name, &condvars, files);
                if !targets.is_empty() {
                    out.push((ci, targets));
                }
            }
            edges.push(out);
        }
        for (node, out) in nodes.iter_mut().zip(edges) {
            node.edges = out;
        }
        Graph { nodes }
    }

    pub fn fn_info<'a>(&self, files: &'a [FileIndex], id: usize) -> &'a FnInfo {
        let n = &self.nodes[id];
        &files[n.file].fns[n.f]
    }

    pub fn file<'a>(&self, files: &'a [FileIndex], id: usize) -> &'a FileIndex {
        &files[self.nodes[id].file]
    }

    /// Multi-source BFS from `roots`. Returns, per node, the BFS parent
    /// (`None` for unreached nodes and for the roots themselves) and a
    /// reached flag — the substrate for every shortest-witness-chain.
    pub fn reach(&self, roots: impl Iterator<Item = usize>) -> (Vec<bool>, Vec<Option<usize>>) {
        let mut reached = vec![false; self.nodes.len()];
        let mut parent: Vec<Option<usize>> = vec![None; self.nodes.len()];
        let mut queue = VecDeque::new();
        for r in roots {
            if !reached[r] {
                reached[r] = true;
                queue.push_back(r);
            }
        }
        while let Some(id) = queue.pop_front() {
            for (_, targets) in &self.nodes[id].edges {
                for &t in targets {
                    if !reached[t] {
                        reached[t] = true;
                        parent[t] = Some(id);
                        queue.push_back(t);
                    }
                }
            }
        }
        (reached, parent)
    }

    /// Render the BFS parent chain `root → … → id` (capped for sanity).
    pub fn chain_to(&self, files: &[FileIndex], parent: &[Option<usize>], id: usize) -> String {
        let mut quals = Vec::new();
        let mut cur = Some(id);
        while let Some(c) = cur {
            quals.push(self.fn_info(files, c).qual.clone());
            cur = parent[c];
            if quals.len() > 6 {
                quals.push("…".to_string());
                break;
            }
        }
        quals.reverse();
        format!("`{}`", quals.join("` → `"))
    }

    /// Serialize the graph with stable ordering: nodes in (file, fn)
    /// order — `files` itself is sorted by path — edge target lists
    /// sorted and deduplicated. Byte-identical across runs.
    pub fn to_json(&self, files: &[FileIndex]) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str("  \"version\": 1,\n");
        let _ = writeln!(s, "  \"functions\": {},", self.nodes.len());
        s.push_str("  \"nodes\": [");
        for (id, node) in self.nodes.iter().enumerate() {
            let f = &files[node.file].fns[node.f];
            let mut callees: Vec<usize> = node
                .edges
                .iter()
                .flat_map(|(_, ts)| ts.iter().copied())
                .collect();
            callees.sort_unstable();
            callees.dedup();
            s.push_str(if id > 0 { ",\n    " } else { "\n    " });
            let _ = write!(
                s,
                "{{\"id\": {}, \"qual\": {}, \"file\": {}, \"line\": {}, \"calls\": [",
                id,
                json_str(&f.qual),
                json_str(&files[node.file].rel.to_string_lossy().replace('\\', "/")),
                f.line,
            );
            for (i, c) in callees.iter().enumerate() {
                if i > 0 {
                    s.push_str(", ");
                }
                let _ = write!(s, "{c}");
            }
            s.push_str("]}");
        }
        s.push_str(if self.nodes.is_empty() {
            "]\n"
        } else {
            "\n  ]\n"
        });
        s.push_str("}\n");
        s
    }
}

/// All candidate callee nodes for one call site.
fn resolve(
    call: &Call,
    caller: &FnInfo,
    caller_file: usize,
    nodes: &[Node],
    by_name: &BTreeMap<&str, Vec<usize>>,
    condvars: &BTreeSet<String>,
    files: &[FileIndex],
) -> Vec<usize> {
    if call.is_macro || call.name == "drop" {
        return Vec::new();
    }
    let Some(cands) = by_name.get(call.name.as_str()) else {
        return Vec::new();
    };
    let qual_of = |id: usize| -> &str {
        let n = &nodes[id];
        &files[n.file].fns[n.f].qual
    };
    // The caller's own scope prefix (`Type` for `Type::method`).
    let caller_prefix = caller.qual.rsplit_once("::").map(|(p, _)| p).unwrap_or("");

    let prefer = |pred: &dyn Fn(usize) -> bool| -> Vec<usize> {
        cands.iter().copied().filter(|&id| pred(id)).collect()
    };
    if let Some(q) = &call.path_qual {
        // Qualified calls carry the strongest evidence, so they never
        // fall back: an unmatched `Q::name` names a foreign type
        // (`VecDeque::new`), and an unmatched `Self::name` is a
        // derive/trait-provided method, not ours.
        return if q == "Self" || q == "self" {
            let suffix = format!("{caller_prefix}::{}", call.name);
            prefer(&|id| qual_of(id) == suffix)
        } else {
            let suffix = format!("{q}::{}", call.name);
            prefer(&|id| {
                let qq = qual_of(id);
                qq == suffix || qq.ends_with(&format!("::{suffix}"))
            })
        };
    }
    let preferred: Vec<usize> = if let Some(r) = &call.recv {
        if r == "self" && !caller_prefix.is_empty() {
            // Same reasoning as `Self::name`: bind inside the caller's
            // own impl or not at all.
            let suffix = format!("{caller_prefix}::{}", call.name);
            return prefer(&|id| qual_of(id) == suffix);
        }
        if STD_METHODS.contains(&call.name.as_str())
            || (CONDVAR_WAITS.contains(&call.name.as_str()) && condvars.contains(r))
        {
            // `x.len()`, `list.drain(..)`, `cv.wait(g)` … — treat as the
            // std call.
            return Vec::new();
        }
        // Any other method call: prefer fns that live inside an
        // impl/mod scope over top-level free fns of the same name.
        prefer(&|id| qual_of(id).contains("::"))
    } else {
        // Free call: a same-file definition shadows the workspace.
        prefer(&|id| nodes[id].file == caller_file)
    };
    if preferred.is_empty() {
        cands.clone()
    } else {
        preferred
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items::index_file;
    use std::path::PathBuf;

    fn graph(sources: &[(&str, &str)]) -> (Vec<FileIndex>, Graph) {
        let files: Vec<FileIndex> = sources
            .iter()
            .map(|(rel, src)| index_file(&PathBuf::from(rel), src))
            .collect();
        let g = Graph::build(&files);
        (files, g)
    }

    fn callees_of(files: &[FileIndex], g: &Graph, caller: &str) -> Vec<String> {
        let id = g
            .nodes
            .iter()
            .position(|n| files[n.file].fns[n.f].qual == caller)
            .unwrap_or_else(|| panic!("no node {caller}"));
        let mut out: Vec<String> = g.nodes[id]
            .edges
            .iter()
            .flat_map(|(_, ts)| ts.iter())
            .map(|&t| g.fn_info(files, t).qual.clone())
            .collect();
        out.sort();
        out.dedup();
        out
    }

    #[test]
    fn free_call_prefers_same_file_shadow() {
        let a = "
            fn helper() {}
            pub fn caller() { helper(); }
        ";
        let b = "pub fn helper() {}";
        let (files, g) = graph(&[("crates/a/src/lib.rs", a), ("crates/b/src/lib.rs", b)]);
        assert_eq!(callees_of(&files, &g, "caller"), vec!["helper"]);
        let id = g
            .nodes
            .iter()
            .position(|n| files[n.file].fns[n.f].qual == "caller")
            .unwrap();
        let (_, targets) = &g.nodes[id].edges[0];
        assert_eq!(targets.len(), 1, "same-file helper wins: {targets:?}");
        assert_eq!(g.nodes[targets[0]].file, g.nodes[id].file);
    }

    #[test]
    fn free_call_with_no_local_definition_falls_back_to_workspace() {
        let a = "pub fn caller() { remote(); }";
        let b = "pub fn remote() {}";
        let (files, g) = graph(&[("crates/a/src/lib.rs", a), ("crates/b/src/lib.rs", b)]);
        assert_eq!(callees_of(&files, &g, "caller"), vec!["remote"]);
    }

    #[test]
    fn method_call_prefers_methods_over_free_fns() {
        let src = "
            pub fn poll() {}
            struct Q;
            impl Q { pub fn poll(&self) {} }
            pub fn caller(q: &Q) { q.poll(); }
        ";
        let (files, g) = graph(&[("crates/a/src/lib.rs", src)]);
        assert_eq!(callees_of(&files, &g, "caller"), vec!["Q::poll"]);
    }

    #[test]
    fn self_call_binds_to_the_callers_own_impl() {
        let src = "
            struct A;
            impl A { fn step(&self) {} pub fn go(&self) { self.step(); } }
            struct B;
            impl B { fn step(&self) {} }
        ";
        let (files, g) = graph(&[("crates/a/src/lib.rs", src)]);
        assert_eq!(callees_of(&files, &g, "A::go"), vec!["A::step"]);
    }

    #[test]
    fn path_call_binds_by_type_qualifier_across_crates() {
        let a = "pub fn caller() { QueueState::take_next(); }";
        let b = "
            pub struct QueueState;
            impl QueueState { pub fn take_next() {} }
            pub struct Other;
            impl Other { pub fn take_next() {} }
        ";
        let (files, g) = graph(&[("crates/a/src/lib.rs", a), ("crates/b/src/lib.rs", b)]);
        assert_eq!(
            callees_of(&files, &g, "caller"),
            vec!["QueueState::take_next"]
        );
    }

    #[test]
    fn macros_and_drop_resolve_to_nothing() {
        let src = "
            pub struct P;
            impl Drop for P { fn drop(&mut self) {} }
            pub fn println() {}
            pub fn caller(p: P) { println!(\"x\"); drop(p); }
        ";
        let (files, g) = graph(&[("crates/a/src/lib.rs", src)]);
        assert!(callees_of(&files, &g, "caller").is_empty());
    }

    #[test]
    fn reach_produces_shortest_chains() {
        let src = "
            pub fn root() { mid(); }
            fn mid() { leaf(); }
            fn leaf() {}
        ";
        let (files, g) = graph(&[("crates/a/src/lib.rs", src)]);
        let root = g
            .nodes
            .iter()
            .position(|n| files[n.file].fns[n.f].qual == "root")
            .unwrap();
        let (reached, parent) = g.reach(std::iter::once(root));
        assert!(reached.iter().all(|&r| r));
        let leaf = g
            .nodes
            .iter()
            .position(|n| files[n.file].fns[n.f].qual == "leaf")
            .unwrap();
        assert_eq!(g.chain_to(&files, &parent, leaf), "`root` → `mid` → `leaf`");
    }

    #[test]
    fn json_is_stable_and_lists_every_node() {
        let src = "pub fn a() { b(); } pub fn b() {}";
        let (files, g) = graph(&[("crates/a/src/lib.rs", src)]);
        let one = g.to_json(&files);
        let two = Graph::build(&files).to_json(&files);
        assert_eq!(one, two);
        assert!(one.contains("\"functions\": 2,"));
        assert!(one.contains("\"qual\": \"a\""));
        assert!(one.contains("\"calls\": [1]"), "{one}");
    }

    #[test]
    fn vendor_and_test_code_stay_outside_the_graph() {
        let src = "pub fn f() {}";
        let test_src = "#[cfg(test)] mod t { pub fn g() {} }";
        let (files, g) = graph(&[
            ("vendor/rayon/src/lib.rs", src),
            ("crates/a/tests/t.rs", src),
            ("crates/a/src/lib.rs", test_src),
        ]);
        assert!(g.nodes.is_empty(), "{:?}", files.len());
    }

    #[test]
    fn the_tracked_sync_layer_stays_outside_the_graph() {
        // crates/sync is the runtime audit; pulling its abort panics
        // and internal locks into the graph would taint every chain.
        let (files, g) = graph(&[
            ("crates/sync/src/lib.rs", "pub fn before_acquire() {}"),
            (
                "crates/a/src/lib.rs",
                "pub fn caller() { before_acquire(); }",
            ),
        ]);
        assert_eq!(g.nodes.len(), 1);
        assert!(callees_of(&files, &g, "caller").is_empty());
    }

    #[test]
    fn foreign_qualified_calls_resolve_to_nothing() {
        // `VecDeque::new` names a std type; falling back to every
        // workspace `new` would make constructors universal hubs.
        let src = "
            pub struct Sys;
            impl Sys { pub fn new() -> Sys { Sys } }
            pub fn caller() { let _q = std::collections::VecDeque::new(); }
        ";
        let (files, g) = graph(&[("crates/a/src/lib.rs", src)]);
        assert!(callees_of(&files, &g, "caller").is_empty());
    }

    #[test]
    fn std_named_method_calls_resolve_to_nothing() {
        // `list.drain(..)` is `Vec::drain`, not the workspace `drain`;
        // but `self.drain()` and `Q::drain(…)` still carry evidence.
        let src = "
            pub struct Q;
            impl Q {
                pub fn drain(&self) {}
                pub fn reap(&self) { self.drain(); }
            }
            pub fn caller(list: &mut Vec<u32>, q: &Q) {
                list.drain(..);
                Q::drain(q);
            }
        ";
        let (files, g) = graph(&[("crates/a/src/lib.rs", src)]);
        assert_eq!(callees_of(&files, &g, "caller"), vec!["Q::drain"]);
        assert_eq!(callees_of(&files, &g, "Q::reap"), vec!["Q::drain"]);
    }

    #[test]
    fn condvar_waits_resolve_to_nothing_while_queue_waits_still_bind() {
        // `job_done` is bound by `TrackedCondvar::new`, so its waits are
        // the condvar's; `queue` is not, so `queue.wait(id)` is the
        // workspace `JobQueue::wait`.
        let src = "
            pub struct JobQueue { inner: Inner }
            struct Inner { job_done: TrackedCondvar }
            impl JobQueue {
                pub fn wait(&self, id: u32) -> u32 { id }
                pub fn wait_timeout(&self, id: u32, ms: u64) -> u32 { id }
                pub fn drain(&self, state: u32) {
                    let state = self.inner.job_done.wait(state);
                    let _ = self.inner.job_done.wait_timeout(state, 5);
                }
            }
            fn inner() -> Inner { Inner { job_done: TrackedCondvar::new(\"queue.job_done\") } }
            pub fn client(queue: &JobQueue) { let _ = queue.wait(7); }
        ";
        let (files, g) = graph(&[("crates/a/src/lib.rs", src)]);
        assert!(callees_of(&files, &g, "JobQueue::drain").is_empty());
        assert_eq!(callees_of(&files, &g, "client"), vec!["JobQueue::wait"]);
    }

    #[test]
    fn unmatched_self_calls_resolve_to_nothing() {
        // `self.clone()` on a derived impl must not bind to every
        // workspace `clone`.
        let src = "
            pub struct Other;
            impl Other { pub fn clone(&self) -> u32 { 0 } }
            #[derive(Clone)]
            pub struct A;
            impl A { pub fn go(&self) { let _ = self.clone(); } }
        ";
        let (files, g) = graph(&[("crates/a/src/lib.rs", src)]);
        assert!(callees_of(&files, &g, "A::go").is_empty());
    }
}
