//! Determinism taint: which nondeterminism sources can result-producing
//! code reach?
//!
//! Every guarantee in this reproduction — spanner edges, TZ sketches,
//! MPC round counts, the cross-backend bit-identity — depends on
//! results being a pure function of `(input, seed, config)`. This pass
//! seeds the call graph with known nondeterminism *sources*:
//!
//! * iteration over `HashMap`/`HashSet` (`iter`, `keys`, `values`,
//!   `drain`, `retain`, `into_iter`, … and `for _ in &map`) — std's
//!   `RandomState` is seeded per process, so visit order varies run to
//!   run;
//! * `RandomState` itself;
//! * `Instant::now` / `SystemTime` — host-clock reads;
//! * `thread::current` — thread identity (ids vary per run);
//! * pointer formatting (`{:p}`) — addresses vary under ASLR;
//!
//! then walks the over-approximate call graph forward from the
//! *result-producing roots* (every non-test fn in `crates/core`,
//! `crates/mpc-runtime`, `crates/net`, `crates/graph`) and reports any
//! reachable, unwaived source site, with one shortest call chain as
//! evidence. Waive a site that is genuinely order-insensitive (e.g. the
//! iteration feeds a sort, or only observability) with
//! `// analyze:allow(determinism-taint): why order cannot leak`.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

use crate::callgraph::Graph;
use crate::items::{is_keyword, FileIndex};
use crate::lexer::Tok;
use crate::report::{Finding, Waived};
use crate::waiver_on;

pub const LINT: &str = "determinism-taint";

pub use crate::callgraph::in_graph;

/// Hash-container methods whose callback/visit order follows the
/// container's internal (randomly seeded) order.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "into_keys",
    "into_values",
    "drain",
    "retain",
];

/// Result-producing root scopes: the serving pipeline, the MPC
/// runtime and its network cost models, and graph/spanner construction.
pub fn is_root_file(rel: &Path) -> bool {
    [
        "crates/core/src",
        "crates/mpc-runtime/src",
        "crates/net/src",
        "crates/graph/src",
    ]
    .iter()
    .any(|p| rel.starts_with(p))
}

struct Seed {
    line: u32,
    desc: String,
}

/// Run the pass over a pre-indexed workspace and its call graph.
pub fn run(files: &[FileIndex], graph: &Graph) -> (Vec<Finding>, Vec<Waived>) {
    // Union of hash-typed struct fields across the workspace: field
    // resolution is by name, matching the call graph's precision.
    let hash_fields: BTreeSet<&str> = files
        .iter()
        .filter(|f| in_graph(&f.rel))
        .flat_map(|f| f.hash_fields.iter().map(String::as_str))
        .collect();

    // Multi-source BFS from the roots, keeping a parent pointer so each
    // finding can show one shortest call chain as evidence.
    let roots = graph
        .nodes
        .iter()
        .enumerate()
        .filter(|(_, n)| is_root_file(&files[n.file].rel))
        .map(|(id, _)| id);
    let (reached, parent) = graph.reach(roots);

    let mut findings = Vec::new();
    let mut waived = Vec::new();
    for (id, node) in graph.nodes.iter().enumerate() {
        if !reached[id] {
            continue;
        }
        let file = &files[node.file];
        let f = &file.fns[node.f];
        for seed in seeds_in(file, node.f, &hash_fields) {
            match waiver_on(&file.lexed, seed.line, LINT) {
                Some(justification) => waived.push(Waived {
                    file: file.rel.to_string_lossy().replace('\\', "/"),
                    line: seed.line,
                    lint: LINT.to_string(),
                    justification,
                }),
                None => {
                    let chain = graph.chain_to(files, &parent, id);
                    let message = if parent[id].is_none() {
                        format!("{} — in result-producing code (`{}`)", seed.desc, f.qual)
                    } else {
                        format!("{} — reachable via {}", seed.desc, chain)
                    };
                    findings.push(Finding {
                        file: file.rel.to_string_lossy().replace('\\', "/"),
                        line: seed.line,
                        lint: LINT.to_string(),
                        message,
                        excerpt: file.excerpt(seed.line),
                    });
                }
            }
        }
    }
    (findings, waived)
}

/// Every nondeterminism source site inside fn `gi` of `file`.
fn seeds_in(file: &FileIndex, gi: usize, hash_fields: &BTreeSet<&str>) -> Vec<Seed> {
    let f = &file.fns[gi];
    let t = &file.lexed.tokens;
    let mut seeds = Vec::new();

    // Names with *known* hashiness in this fn: `let`-bound locals and
    // declared parameters (hash-typed or not — a known-`Vec` local must
    // shadow a same-named hash field elsewhere in the workspace).
    let mut known: BTreeMap<&str, bool> = BTreeMap::new();
    collect_lets(t, f.body.clone(), &mut known);
    collect_params(t, f.sig.clone(), &mut known);

    let ident = |i: usize| match t.get(i).map(|x| &x.tok) {
        Some(Tok::Ident(s)) => Some(s.as_str()),
        _ => None,
    };
    let punct =
        |i: usize, c: char| matches!(t.get(i).map(|x| &x.tok), Some(Tok::Punct(p)) if *p == c);

    // Is the name at token `j` a hash container? Resolution order:
    // a `self.`-qualified field against this file's declarations, then
    // fn-local knowledge, then the workspace-wide hash-field name union.
    let is_hashy = |j: usize, name: &str| -> bool {
        let self_field = punct(j.wrapping_sub(1), '.') && ident(j.wrapping_sub(2)) == Some("self");
        if self_field {
            if let Some(&h) = file.fields.get(name) {
                return h;
            }
        } else if let Some(&h) = known.get(name) {
            return h;
        }
        hash_fields.contains(name)
    };

    for i in f.body.clone() {
        let line = t[i].line;
        match &t[i].tok {
            Tok::Ident(name) => {
                // `recv.iter()` — hash-ordered iteration via a method.
                if ITER_METHODS.contains(&name.as_str())
                    && punct(i + 1, '(')
                    && punct(i.wrapping_sub(1), '.')
                {
                    if let Some(recv) = ident(i.wrapping_sub(2)) {
                        if !is_keyword(recv) && is_hashy(i.wrapping_sub(2), recv) {
                            seeds.push(Seed {
                                line,
                                desc: format!(
                                    "`{recv}.{name}()` iterates a HashMap/HashSet (visit order is \
                                     randomly seeded per process)"
                                ),
                            });
                        }
                    }
                }
                // `for x in &map { … }` — iteration without a method.
                else if name == "in" {
                    let mut j = i + 1;
                    while punct(j, '&') || ident(j) == Some("mut") {
                        j += 1;
                    }
                    // `for x in &self.field { … }` — step onto the field.
                    if ident(j) == Some("self") && punct(j + 1, '.') && ident(j + 2).is_some() {
                        j += 2;
                    }
                    if let Some(recv) = ident(j) {
                        if punct(j + 1, '{') && !is_keyword(recv) && is_hashy(j, recv) {
                            seeds.push(Seed {
                                line: t[j].line,
                                desc: format!(
                                    "`for … in {recv}` iterates a HashMap/HashSet (visit order is \
                                     randomly seeded per process)"
                                ),
                            });
                        }
                    }
                } else if name == "RandomState" {
                    seeds.push(Seed {
                        line,
                        desc: "`RandomState` is seeded from the OS per construction".to_string(),
                    });
                } else if name == "Instant"
                    && punct(i + 1, ':')
                    && punct(i + 2, ':')
                    && ident(i + 3) == Some("now")
                {
                    seeds.push(Seed {
                        line,
                        desc: "`Instant::now()` reads the host clock".to_string(),
                    });
                } else if name == "SystemTime" {
                    seeds.push(Seed {
                        line,
                        desc: "`SystemTime` reads the host clock".to_string(),
                    });
                } else if name == "thread"
                    && punct(i + 1, ':')
                    && punct(i + 2, ':')
                    && ident(i + 3) == Some("current")
                {
                    seeds.push(Seed {
                        line,
                        desc: "`thread::current()` exposes run-varying thread identity".to_string(),
                    });
                }
            }
            Tok::Str(s) if s.contains("{:p}") => {
                seeds.push(Seed {
                    line,
                    desc: "`{:p}` formats a pointer (addresses vary under ASLR)".to_string(),
                });
            }
            _ => {}
        }
    }
    seeds
}

/// `let [mut] name … ;` statements: record `name` with whether the
/// statement (type annotation or initializer) mentions a hash
/// container. A known binding shadows same-named struct fields from
/// elsewhere in the workspace — `true` wins if a name is re-bound.
fn collect_lets<'a>(
    t: &'a [crate::lexer::Token],
    body: std::ops::Range<usize>,
    out: &mut BTreeMap<&'a str, bool>,
) {
    let mut i = body.start;
    while i < body.end {
        let is_let = matches!(&t[i].tok, Tok::Ident(s) if s == "let");
        if !is_let {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        if matches!(&t.get(j).map(|x| &x.tok), Some(Tok::Ident(s)) if *s == "mut") {
            j += 1;
        }
        let name = match t.get(j).map(|x| &x.tok) {
            Some(Tok::Ident(n)) if !is_keyword(n) => Some(n.as_str()),
            _ => None, // destructuring patterns: give up on this stmt
        };
        // With an explicit annotation (`let x: Vec<_> = …`) the type
        // alone decides: the initializer may contain nested closures
        // whose own hash locals must not taint `x`. Without one, scan
        // the whole statement (over-approximate toward hashy).
        let annotated = matches!(t.get(j + 1).map(|x| &x.tok), Some(Tok::Punct(':')))
            && !matches!(t.get(j + 2).map(|x| &x.tok), Some(Tok::Punct(':')));
        let (mut pd, mut sd, mut bd) = (0i32, 0i32, 0i32);
        let mut hashy = false;
        let mut in_type = annotated;
        let mut k = j;
        while k < body.end {
            match &t[k].tok {
                Tok::Punct('(') => pd += 1,
                Tok::Punct(')') => pd -= 1,
                Tok::Punct('[') => sd += 1,
                Tok::Punct(']') => sd -= 1,
                Tok::Punct('{') => bd += 1,
                Tok::Punct('}') => bd -= 1,
                Tok::Punct(';') if pd <= 0 && sd <= 0 && bd <= 0 => break,
                Tok::Punct('=') if pd <= 0 && sd <= 0 && bd <= 0 => in_type = false,
                Tok::Ident(s) if (s == "HashMap" || s == "HashSet") && (!annotated || in_type) => {
                    hashy = true;
                }
                _ => {}
            }
            k += 1;
        }
        if let Some(n) = name {
            let e = out.entry(n).or_insert(false);
            *e = *e || hashy;
        }
        // Resume just past the name, not past the whole statement:
        // closures in the initializer can hold nested `let`s of their
        // own (`let out = iter.map(|x| { let mut m: BTreeMap … })`).
        i = j + 1;
    }
}

/// Parameters `name: Type` in the signature: record each with whether
/// its declared type mentions a hash container.
fn collect_params<'a>(
    t: &'a [crate::lexer::Token],
    sig: std::ops::Range<usize>,
    out: &mut BTreeMap<&'a str, bool>,
) {
    // Param names sit before a single `:` at paren depth 1, preceded by
    // `(` or `,`; the type runs to the next top-level `,` or the
    // closing `)`.
    let (mut pd, mut ad, mut sd) = (0i32, 0i32, 0i32);
    let mut i = sig.start;
    while i < sig.end {
        match &t[i].tok {
            Tok::Punct('(') => pd += 1,
            Tok::Punct(')') => pd -= 1,
            Tok::Punct('[') => sd += 1,
            Tok::Punct(']') => sd -= 1,
            Tok::Punct('<') => ad += 1,
            Tok::Punct('>')
                if !matches!(
                    t.get(i.wrapping_sub(1)).map(|x| &x.tok),
                    Some(Tok::Punct('-'))
                ) =>
            {
                ad -= 1
            }
            Tok::Punct(':')
                if pd == 1
                    && ad <= 0
                    && sd == 0
                    && !matches!(t.get(i + 1).map(|x| &x.tok), Some(Tok::Punct(':')))
                    && !matches!(
                        t.get(i.wrapping_sub(1)).map(|x| &x.tok),
                        Some(Tok::Punct(':'))
                    ) =>
            {
                let name = match (i > sig.start).then(|| &t[i - 1].tok) {
                    Some(Tok::Ident(n)) if !is_keyword(n) => {
                        let before = t.get(i.wrapping_sub(2)).map(|x| &x.tok);
                        let at_param_start = i - 1 == sig.start
                            || matches!(before, Some(Tok::Punct('(')) | Some(Tok::Punct(',')))
                            || matches!(before, Some(Tok::Ident(m)) if m == "mut");
                        at_param_start.then_some(n.as_str())
                    }
                    _ => None,
                };
                // Scan the type up to the next top-level `,` or `)`.
                let (mut tpd, mut tad, mut tsd) = (0i32, 0i32, 0i32);
                let mut hashy = false;
                let mut k = i + 1;
                while k < sig.end {
                    match &t[k].tok {
                        Tok::Punct('(') => tpd += 1,
                        Tok::Punct(')') if tpd == 0 => break,
                        Tok::Punct(')') => tpd -= 1,
                        Tok::Punct('[') => tsd += 1,
                        Tok::Punct(']') => tsd -= 1,
                        Tok::Punct('<') => tad += 1,
                        Tok::Punct('>')
                            if !matches!(
                                t.get(k.wrapping_sub(1)).map(|x| &x.tok),
                                Some(Tok::Punct('-'))
                            ) =>
                        {
                            tad -= 1
                        }
                        Tok::Punct(',') if tpd == 0 && tad <= 0 && tsd == 0 => break,
                        Tok::Ident(s) if s == "HashMap" || s == "HashSet" => hashy = true,
                        _ => {}
                    }
                    k += 1;
                }
                if let Some(n) = name {
                    let e = out.entry(n).or_insert(false);
                    *e = *e || hashy;
                }
                i = k;
                continue;
            }
            _ => {}
        }
        i += 1;
    }
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

    const ROOT: &str = "crates/core/src/pipeline/seeded.rs";

    #[test]
    fn hashmap_iteration_in_root_code_fires() {
        let src = "
            use std::collections::HashMap;
            pub fn serve() {
                let mut jobs: HashMap<u64, u32> = HashMap::new();
                for (k, v) in jobs.iter() { drop((k, v)); }
            }
        ";
        let (findings, _) = analyze(&[(ROOT, src)]);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("jobs.iter()"));
        assert!(findings[0].message.contains("result-producing"));
    }

    #[test]
    fn vec_iteration_does_not_fire() {
        let src = "
            pub fn serve(rows: Vec<u32>) {
                let sums: Vec<u32> = rows.iter().map(|r| r + 1).collect();
                for s in sums.iter() { drop(s); }
            }
        ";
        let (findings, _) = analyze(&[(ROOT, src)]);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn taint_propagates_through_the_call_graph_with_a_chain() {
        let helper = "
            use std::collections::HashSet;
            pub fn pick(s: &HashSet<u32>) -> Option<u32> {
                s.iter().next().copied()
            }
            pub fn middle(s: &HashSet<u32>) -> Option<u32> { pick(s) }
        ";
        let root = "
            pub fn build_spanner() { let _ = middle(&Default::default()); }
        ";
        let (findings, _) = analyze(&[("crates/util/src/lib.rs", helper), (ROOT, root)]);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(
            findings[0].message.contains("build_spanner"),
            "{}",
            findings[0].message
        );
        assert!(
            findings[0].message.contains("pick"),
            "{}",
            findings[0].message
        );
    }

    #[test]
    fn unreachable_helper_code_is_not_reported() {
        let helper = "
            use std::collections::HashSet;
            pub fn orphan(s: &HashSet<u32>) -> usize { s.iter().count() }
        ";
        let (findings, _) = analyze(&[("crates/util/src/lib.rs", helper)]);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn struct_fields_taint_method_receivers() {
        let src = "
            use std::collections::HashMap;
            struct State { jobs: HashMap<u64, u32> }
            impl State {
                pub fn reap(&mut self) {
                    for id in self.jobs.keys() { drop(id); }
                }
            }
        ";
        let (findings, _) = analyze(&[(ROOT, src)]);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("jobs.keys()"));
    }

    #[test]
    fn for_loop_over_borrowed_map_fires() {
        let src = "
            use std::collections::HashMap;
            pub fn serve(m: HashMap<u32, u32>) {
                for kv in &m { drop(kv); }
            }
        ";
        let (findings, _) = analyze(&[(ROOT, src)]);
        assert_eq!(findings.len(), 1, "{findings:?}");
    }

    #[test]
    fn clock_thread_id_and_pointer_format_fire() {
        let src = "
            pub fn observe() {
                let t = Instant::now();
                let id = std::thread::current().id();
                let key = format!(\"{:p}\", &t);
                drop((t, id, key));
            }
        ";
        let (findings, _) = analyze(&[(ROOT, src)]);
        let msgs: Vec<&str> = findings.iter().map(|f| f.message.as_str()).collect();
        assert_eq!(findings.len(), 3, "{msgs:?}");
    }

    #[test]
    fn known_vec_bindings_shadow_samenamed_hash_fields_elsewhere() {
        // Some other file declares a hash field named `edges`; here
        // `edges` is a known Vec local/param/field — no finding.
        let other = "
            use std::collections::HashSet;
            struct Acc { edges: HashSet<u64> }
        ";
        let src = "
            pub struct Graph { edges: Vec<u32> }
            impl Graph {
                pub fn scan(&self, edges: &[u32]) {
                    for e in edges.iter() { drop(e); }
                    for e in self.edges.iter() { drop(e); }
                    let edges = vec![1u32];
                    for e in edges.iter() { drop(e); }
                }
            }
        ";
        let (findings, _) = analyze(&[
            ("crates/core/src/other.rs", other),
            ("crates/graph/src/lib.rs", src),
        ]);
        assert!(findings.is_empty(), "{findings:?}");
        // …while an unknown receiver with that name still fires.
        let cross = "
            pub fn merge(acc: &Acc) {
                for e in acc.edges.iter() { drop(e); }
            }
        ";
        let (findings, _) = analyze(&[
            ("crates/core/src/other.rs", other),
            ("crates/graph/src/lib.rs", cross),
        ]);
        assert_eq!(findings.len(), 1, "{findings:?}");
    }

    #[test]
    fn lets_nested_in_closure_initializers_are_still_known() {
        let other = "
            use std::collections::HashMap;
            struct S { map: HashMap<u64, u64> }
        ";
        let src = "
            use std::collections::BTreeMap;
            pub fn fold(shards: Vec<Vec<u64>>) -> Vec<Vec<u64>> {
                let folded: Vec<Vec<u64>> = shards
                    .into_iter()
                    .map(|shard| {
                        let mut map: BTreeMap<u64, u64> = BTreeMap::new();
                        for rec in shard { *map.entry(rec).or_insert(0) += 1; }
                        map.into_iter().map(|(k, _)| k).collect()
                    })
                    .collect();
                folded
            }
        ";
        let (findings, _) = analyze(&[("crates/core/src/other.rs", other), (ROOT, src)]);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn annotated_vec_let_is_not_tainted_by_hash_locals_in_its_initializer() {
        let src = "
            use std::collections::HashSet;
            pub fn assign(ids: Vec<u32>) {
                let results: Vec<u32> = ids
                    .iter()
                    .map(|&v| {
                        let seen: HashSet<u32> = HashSet::from([v]);
                        seen.len() as u32
                    })
                    .collect();
                for r in results.iter() { drop(r); }
                for r in results { drop(r); }
            }
        ";
        let (findings, _) = analyze(&[(ROOT, src)]);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn for_loop_over_self_hash_field_fires() {
        let src = "
            use std::collections::HashMap;
            struct State { jobs: HashMap<u64, u32> }
            impl State {
                pub fn reap(&self) {
                    for kv in &self.jobs { drop(kv); }
                }
            }
        ";
        let (findings, _) = analyze(&[(ROOT, src)]);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(
            findings[0].message.contains("for … in jobs"),
            "{}",
            findings[0].message
        );
    }

    #[test]
    fn waiver_moves_the_site_to_the_waived_list() {
        let src = "
            use std::collections::HashMap;
            pub fn serve(m: &HashMap<u32, u32>) -> u64 {
                // analyze:allow(determinism-taint): summed — order cannot leak
                m.values().map(|v| *v as u64).sum()
            }
        ";
        let (findings, waived) = analyze(&[(ROOT, src)]);
        assert!(findings.is_empty(), "{findings:?}");
        assert_eq!(waived.len(), 1);
        assert!(waived[0].justification.contains("order cannot leak"));
    }

    #[test]
    fn test_fns_are_neither_roots_nor_graph_nodes() {
        let src = "
            use std::collections::HashMap;
            #[cfg(test)]
            mod tests {
                pub fn helper(m: &std::collections::HashMap<u32, u32>) {
                    for kv in m.iter() { drop(kv); }
                }
            }
        ";
        let (findings, _) = analyze(&[(ROOT, src)]);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn btreemap_iteration_is_fine() {
        let src = "
            use std::collections::BTreeMap;
            pub fn serve(m: &BTreeMap<u32, u32>) {
                for kv in m.iter() { drop(kv); }
            }
        ";
        let (findings, _) = analyze(&[(ROOT, src)]);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn vendor_and_test_paths_are_outside_the_graph() {
        let src = "
            use std::collections::HashMap;
            pub fn anything(m: &HashMap<u32, u32>) {
                for kv in m.iter() { drop(kv); }
            }
        ";
        for rel in [
            "vendor/rayon/src/lib.rs",
            "crates/core/tests/prop.rs",
            "xtask/src/main.rs",
        ] {
            let (findings, _) = analyze(&[(rel, src)]);
            assert!(findings.is_empty(), "{rel}: {findings:?}");
        }
    }
}
