//! Panic-path audit for the serving stack.
//!
//! The job-queue front door (`pipeline/{service,queue,shard}.rs`) is
//! the code that runs on behalf of *other* tenants' requests: a panic
//! there doesn't just fail one computation, it can poison a lock or
//! take down a worker thread that the whole queue depends on. The
//! network cost models (`crates/net`) are held to the same rule, so
//! pricing a run never panics. Every potential panic site on those
//! paths must either be refactored to a typed error or carry an
//! explicit justification:
//!
//! * `.unwrap()` / `.expect(…)` (the `_or`/`_or_else`/`_or_default`
//!   variants are fine — they don't panic);
//! * `panic!` / `unreachable!` / `todo!` / `unimplemented!`
//!   (`assert!`-family macros are deliberately allowed: they state
//!   invariants, and the repo's tests run with debug assertions on);
//! * indexing (`x[i]`, `&x[a..b]`) — out-of-bounds panics;
//! * integer `/` and `%` — division by a runtime-zero divisor panics
//!   (division by a nonzero *literal* is provably fine and skipped).
//!
//! On top of the per-file audit, the pass walks the workspace call
//! graph: any function *reachable* from a serving-stack entry point is
//! also audited, wherever it lives, because its panic unwinds through
//! the serving thread all the same. Outside the serving files the site
//! kinds are deliberately narrower — bare `.unwrap()` and the
//! `panic!`-family macros only. `.expect(…)` documents its invariant
//! and indexing/division are ubiquitous in the engine's hot loops;
//! flagging those workspace-wide would drown the signal. Each
//! reachability finding prints the shortest witness call chain from an
//! entry point.
//!
//! Waive with `// analyze:allow(panic-path): why this cannot fire /
//! why dying is correct` on the site or the line above.

use std::path::Path;

use crate::callgraph::Graph;
use crate::items::{is_keyword, FileIndex};
use crate::lexer::Tok;
use crate::report::{Finding, Waived};
use crate::waiver_on;

pub const LINT: &str = "panic-path";

/// The serving-stack scope this audit applies to.
pub fn in_scope(rel: &Path) -> bool {
    let s = rel.to_string_lossy();
    s == "crates/core/src/pipeline/service.rs"
        || s == "crates/core/src/pipeline/queue.rs"
        || s == "crates/core/src/pipeline/shard.rs"
        || s.starts_with("crates/net/src")
}

pub fn run(files: &[FileIndex], graph: &Graph) -> (Vec<Finding>, Vec<Waived>) {
    let mut findings = Vec::new();
    let mut waived = Vec::new();
    let mut emit =
        |file: &FileIndex, line: u32, message: String| match waiver_on(&file.lexed, line, LINT) {
            Some(justification) => waived.push(Waived {
                file: file.rel.to_string_lossy().replace('\\', "/"),
                line,
                lint: LINT.to_string(),
                justification,
            }),
            None => findings.push(Finding {
                file: file.rel.to_string_lossy().replace('\\', "/"),
                line,
                lint: LINT.to_string(),
                message,
                excerpt: file.excerpt(line),
            }),
        };

    // Per-file audit of the serving files themselves: every site kind.
    for file in files {
        if !in_scope(&file.rel) {
            continue;
        }
        for f in &file.fns {
            if f.is_test {
                continue;
            }
            for (line, what) in sites_in(file, f.body.clone(), false) {
                emit(
                    file,
                    line,
                    format!("{what} in `{}` on the serving path", f.qual),
                );
            }
        }
    }

    // Interprocedural: everything a serving entry point can reach,
    // audited with the narrower site kinds (see module docs).
    let roots = (0..graph.nodes.len()).filter(|&i| in_scope(&graph.file(files, i).rel));
    let (reached, parent) = graph.reach(roots);
    for (id, node) in graph.nodes.iter().enumerate() {
        if !reached[id] {
            continue;
        }
        let file = &files[node.file];
        if in_scope(&file.rel) {
            continue; // the per-file audit above already covers it
        }
        let f = &file.fns[node.f];
        let sites = sites_in(file, f.body.clone(), true);
        if sites.is_empty() {
            continue;
        }
        let chain = graph.chain_to(files, &parent, id);
        for (line, what) in sites {
            emit(
                file,
                line,
                format!(
                    "{what} in `{}`, reachable from the serving stack via {chain}",
                    f.qual
                ),
            );
        }
    }
    (findings, waived)
}

/// Scan a body token range for potential panic sites. With
/// `reached_only`, restrict to the kinds audited outside the serving
/// files: bare `.unwrap()` and the panic-family macros.
fn sites_in(
    file: &FileIndex,
    body: std::ops::Range<usize>,
    reached_only: bool,
) -> Vec<(u32, String)> {
    let t = &file.lexed.tokens;
    let mut out = Vec::new();
    let ident = |i: usize| match t.get(i).map(|x| &x.tok) {
        Some(Tok::Ident(s)) => Some(s.as_str()),
        _ => None,
    };
    let punct =
        |i: usize, c: char| matches!(t.get(i).map(|x| &x.tok), Some(Tok::Punct(p)) if *p == c);
    // An expression can end with an ident, a close-paren/bracket, or a
    // literal — the predecessors that make `[` indexing and `/` binary.
    let expr_end = |i: usize| match t.get(i).map(|x| &x.tok) {
        Some(Tok::Ident(s)) => !is_keyword(s),
        Some(Tok::Punct(')')) | Some(Tok::Punct(']')) | Some(Tok::Num { .. }) => true,
        _ => false,
    };
    let float_at =
        |i: usize| matches!(t.get(i).map(|x| &x.tok), Some(Tok::Num { float, .. }) if *float);

    for i in body {
        let line = t[i].line;
        match &t[i].tok {
            Tok::Ident(name)
                if (name == "unwrap" || (name == "expect" && !reached_only))
                    && punct(i.wrapping_sub(1), '.')
                    && punct(i + 1, '(') =>
            {
                out.push((line, format!("`.{name}()` can panic")));
            }
            Tok::Ident(name)
                if matches!(
                    name.as_str(),
                    "panic" | "unreachable" | "todo" | "unimplemented"
                ) && punct(i + 1, '!') =>
            {
                out.push((line, format!("`{name}!` aborts the worker")));
            }
            Tok::Punct('[') if !reached_only && expr_end(i.wrapping_sub(1)) => {
                // `#[attr]` / `vec![…]` / slice patterns have non-expression
                // predecessors and never land here.
                out.push((line, "indexing/slicing can panic out of bounds".to_string()));
            }
            Tok::Punct(op @ ('/' | '%')) if !reached_only && expr_end(i.wrapping_sub(1)) => {
                // Float arithmetic can't trap; neither can a nonzero
                // literal divisor. An `as f64`/`as f32` cast on either
                // side also proves the division is float.
                if float_at(i.wrapping_sub(1)) || float_at(i + 1) {
                    continue;
                }
                let float_cast_before = ident(i.wrapping_sub(1))
                    .is_some_and(|s| s == "f64" || s == "f32")
                    && ident(i.wrapping_sub(2)) == Some("as");
                let float_cast_after = ident(i + 2) == Some("as")
                    && ident(i + 3).is_some_and(|s| s == "f64" || s == "f32");
                if float_cast_before || float_cast_after {
                    continue;
                }
                if let Some(v) = t.get(i + 1).and_then(|x| x.tok.int_value()) {
                    if v != 0 {
                        continue;
                    }
                }
                out.push((line, format!("integer `{op}` can panic on a zero divisor")));
            }
            _ => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items::index_file;
    use std::path::PathBuf;

    const SCOPE: &str = "crates/core/src/pipeline/queue.rs";

    fn analyze(sources: &[(&str, &str)]) -> (Vec<Finding>, Vec<Waived>) {
        let files: Vec<FileIndex> = sources
            .iter()
            .map(|(rel, src)| index_file(&PathBuf::from(rel), src))
            .collect();
        let graph = Graph::build(&files);
        run(&files, &graph)
    }

    fn findings(rel: &str, src: &str) -> Vec<Finding> {
        analyze(&[(rel, src)]).0
    }

    #[test]
    fn unwrap_expect_and_panic_macros_fire() {
        let src = "
            pub fn pop(v: Vec<u32>) -> u32 {
                let x = v.first().unwrap();
                let y: u32 = \"7\".parse().expect(\"digits\");
                if *x > y { panic!(\"order\"); }
                *x
            }
        ";
        let got = findings(SCOPE, src);
        assert_eq!(got.len(), 3, "{got:?}");
        assert!(got.iter().all(|f| f.lint == "panic-path"));
        assert!(got[0].message.contains("`pop`"));
    }

    #[test]
    fn non_panicking_variants_do_not_fire() {
        let src = "
            pub fn pop(v: Vec<u32>) -> u32 {
                let a = v.first().copied().unwrap_or(0);
                let b = v.last().copied().unwrap_or_else(|| 1);
                let c = v.get(9).copied().unwrap_or_default();
                a + b + c
            }
        ";
        assert!(findings(SCOPE, src).is_empty());
    }

    #[test]
    fn indexing_fires_but_attrs_macros_and_patterns_do_not() {
        let src = "
            pub fn shard(ring: &Vec<u32>, i: usize) -> u32 {
                #[allow(unused)]
                let v = vec![1, 2, 3];
                let [a, b] = [i, i];
                let _ = (a, b, v);
                ring[i]
            }
        ";
        let got = findings(SCOPE, src);
        assert_eq!(got.len(), 1, "{got:?}");
        assert!(got[0].message.contains("indexing"));
    }

    #[test]
    fn division_by_runtime_value_fires_but_literals_do_not() {
        let src = "
            pub fn avg(total: u64, n: u64) -> u64 {
                let half = total / 2;
                let frac = 0.5 / 0.1;
                let _ = frac;
                half + total % n
            }
        ";
        let got = findings(SCOPE, src);
        assert_eq!(got.len(), 1, "{got:?}");
        assert!(got[0].message.contains("zero divisor"));
    }

    #[test]
    fn float_casts_on_either_side_of_a_division_do_not_fire() {
        let src = "
            pub fn rate(hits: u64, total: u64, span: f64) -> f64 {
                let a = hits as f64 / total as f64;
                let b = span / hits as f64;
                a + b
            }
        ";
        assert!(
            findings(SCOPE, src).is_empty(),
            "{:?}",
            findings(SCOPE, src)
        );
    }

    #[test]
    fn division_by_literal_zero_always_fires() {
        let src = "pub fn bad(x: u64) -> u64 { x / 0 }";
        assert_eq!(findings(SCOPE, src).len(), 1);
    }

    #[test]
    fn waivers_and_test_code_are_exempt() {
        let src = "
            pub fn pop(v: Vec<u32>) -> u32 {
                // analyze:allow(panic-path): queue invariant — lane checked non-empty
                v.first().unwrap().to_owned()
            }
            #[cfg(test)]
            mod tests {
                #[test]
                fn t() { Vec::<u32>::new().first().unwrap(); }
            }
        ";
        let (got, waived) = analyze(&[(SCOPE, src)]);
        assert!(got.is_empty(), "{got:?}");
        assert_eq!(waived.len(), 1);
        assert!(waived[0].justification.contains("lane checked non-empty"));
    }

    #[test]
    fn reachable_bare_unwrap_fires_with_a_witness_chain() {
        let entry = "
            pub fn execute(job: Job) {
                stage_one(job);
            }
        ";
        let engine = "
            pub fn stage_one(job: Job) {
                stage_two(job);
            }
            pub fn stage_two(job: Job) {
                job.payload.first().unwrap();
            }
            pub fn never_called(job: Job) {
                job.payload.first().unwrap();
            }
        ";
        let (got, _) = analyze(&[(SCOPE, entry), ("crates/core/src/engine.rs", engine)]);
        assert_eq!(got.len(), 1, "{got:?}");
        let f = &got[0];
        assert_eq!(f.file, "crates/core/src/engine.rs");
        assert!(f.message.contains("`stage_two`"), "{}", f.message);
        assert!(
            f.message.contains(
                "reachable from the serving stack via `execute` → `stage_one` → `stage_two`"
            ),
            "{}",
            f.message
        );
    }

    #[test]
    fn reached_code_is_only_audited_for_the_hard_kinds() {
        let entry = "pub fn execute(job: Job) { helper(job); }";
        let engine = "
            pub fn helper(job: Job) -> u32 {
                let v = job.payload.first().expect(\"non-empty payload\");
                let w = job.ring[0];
                *v / job.denominator + w
            }
        ";
        let (got, _) = analyze(&[(SCOPE, entry), ("crates/core/src/engine.rs", engine)]);
        assert!(got.is_empty(), "{got:?}");
    }

    #[test]
    fn reachable_sites_honor_waivers() {
        let entry = "pub fn execute(job: Job) { helper(job); }";
        let engine = "
            pub fn helper(job: Job) {
                // analyze:allow(panic-path): payload validated at enqueue time
                job.payload.first().unwrap();
            }
        ";
        let (got, waived) = analyze(&[(SCOPE, entry), ("crates/core/src/engine.rs", engine)]);
        assert!(got.is_empty(), "{got:?}");
        assert_eq!(waived.len(), 1);
        assert!(waived[0].justification.contains("validated at enqueue"));
    }

    #[test]
    fn only_serving_stack_files_are_in_scope() {
        let src = "pub fn f(v: Vec<u32>) -> u32 { v[0] }";
        for rel in [
            "crates/core/src/engine.rs",
            "crates/graph/src/lib.rs",
            "crates/core/src/pipeline/distance.rs",
        ] {
            assert!(
                findings(rel, src).is_empty(),
                "{rel} should be out of scope"
            );
        }
        for rel in [
            "crates/net/src/model.rs",
            "crates/core/src/pipeline/shard.rs",
        ] {
            assert_eq!(findings(rel, src).len(), 1, "{rel} should be in scope");
        }
    }
}
