//! Token/item-aware static analysis for this workspace, driven by
//! `cargo xtask analyze`.
//!
//! Three layers:
//!
//! 1. [`lexer`] — a hand-rolled Rust lexer (no `syn` offline) that gets
//!    strings, raw strings, nested block comments, char-vs-lifetime and
//!    raw identifiers right, and keeps per-line comment text for waiver
//!    and `SAFETY:` lookups.
//! 2. [`items`] — a scope-stack walk over the tokens producing each
//!    fn's qualified name, body range, test-ness and call sites (with
//!    receiver/path context), plus hash-typed struct fields.
//! 3. [`callgraph`] — one whole-workspace call graph resolving those
//!    call sites to workspace fn definitions, shared by every
//!    interprocedural pass and exportable as JSON
//!    (`cargo xtask analyze --callgraph-json`).
//! 4. The passes: [`taint`] (determinism taint), [`panics`]
//!    (panic-path audit of the serving stack plus whole-program
//!    reachability), [`lockorder`] (lock nesting: no tracked lock
//!    acquired while another is held), [`lints`] (the four per-file
//!    lints), and
//!    [`waivers`] (unused-waiver hygiene over the run's own ledger).
//!
//! Output is a [`report::Report`]: sorted findings, visible waivers,
//! and the list of files that could not be read — serializable to
//! stable JSON for the checked-in `analyze-baseline.json` workflow.
//! [`Options`] narrows the *reported view* (`--only` by lint, `--files`
//! by glob); the analysis itself always runs workspace-wide so
//! interprocedural facts never depend on the filter.

pub mod callgraph;
pub mod items;
pub mod lexer;
pub mod lints;
pub mod lockorder;
pub mod panics;
pub mod report;
pub mod taint;
pub mod waivers;

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

use items::{index_file, FileIndex};
use report::Report;

/// If `line` (or the line above) carries an `analyze:allow(<lint>)`
/// comment, return the justification text after it.
pub fn waiver_on(lexed: &lexer::Lexed, line: u32, lint: &str) -> Option<String> {
    let needle = format!("analyze:allow({lint})");
    for l in [line, line.saturating_sub(1)] {
        let comment = lexed.comment_on(l);
        if let Some(pos) = comment.find(&needle) {
            let rest = comment[pos + needle.len()..].trim_start_matches(':').trim();
            return Some(rest.to_string());
        }
    }
    None
}

/// Walk `root`, returning workspace-relative `.rs` paths in sorted
/// order. Skips build products (`target`, `.git`) and every `fixtures`
/// directory (those hold deliberate violations for the self-tests).
pub fn collect_rs_files(root: &Path) -> Vec<PathBuf> {
    fn walk(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if name == "target" || name == ".git" || name == "fixtures" {
                    continue;
                }
                walk(root, &path, out);
            } else if name.ends_with(".rs") {
                if let Ok(rel) = path.strip_prefix(root) {
                    out.push(rel.to_path_buf());
                }
            }
        }
    }
    let mut files = Vec::new();
    walk(root, root, &mut files);
    files.sort();
    files
}

/// A narrowed *view* of a run: the analysis is always workspace-wide,
/// only the reported findings/waivers are filtered.
#[derive(Debug, Default, Clone)]
pub struct Options {
    /// Keep only these lints (`--only determinism-taint,panic-path`).
    pub only: Option<BTreeSet<String>>,
    /// Keep only findings in files matching any of these globs
    /// (`--files 'crates/net/**'`). `*` matches within one path
    /// segment, `**` across segments, `?` one character.
    pub files: Option<Vec<String>>,
}

/// Match `path` (workspace-relative, `/`-separated) against a glob.
pub fn glob_match(pattern: &str, path: &str) -> bool {
    fn go(p: &[char], t: &[char]) -> bool {
        let Some(&c) = p.first() else {
            return t.is_empty();
        };
        match c {
            '*' if p.get(1) == Some(&'*') => {
                let rest = &p[2..];
                // `**/` may also match nothing ("**/q.rs" ~ "q.rs").
                if go(rest, t) || (rest.first() == Some(&'/') && go(&rest[1..], t)) {
                    return true;
                }
                (0..t.len()).any(|k| go(rest, &t[k + 1..]))
            }
            '*' => {
                let rest = &p[1..];
                if go(rest, t) {
                    return true;
                }
                t.iter()
                    .take_while(|&&x| x != '/')
                    .enumerate()
                    .any(|(k, _)| go(rest, &t[k + 1..]))
            }
            '?' => t.first().is_some_and(|&x| x != '/') && go(&p[1..], &t[1..]),
            _ => t.first() == Some(&c) && go(&p[1..], &t[1..]),
        }
    }
    let p: Vec<char> = pattern.chars().collect();
    let t: Vec<char> = path.chars().collect();
    go(&p, &t)
}

/// Analyze in-memory sources (the unit-test and fixture entry point:
/// paths are virtual and decide each pass's scope).
pub fn analyze_sources(sources: &[(PathBuf, String)]) -> Report {
    analyze_sources_with(sources, &Options::default())
}

/// [`analyze_sources`] with a report filter.
pub fn analyze_sources_with(sources: &[(PathBuf, String)], opts: &Options) -> Report {
    let files: Vec<FileIndex> = sources
        .iter()
        .map(|(rel, src)| index_file(rel, src))
        .collect();
    let graph = callgraph::Graph::build(&files);
    let mut report = Report {
        files_scanned: files.len(),
        ..Report::default()
    };
    for file in &files {
        let (f, w) = lints::run(file);
        report.findings.extend(f);
        report.waived.extend(w);
    }
    for (f, w) in [
        taint::run(&files, &graph),
        panics::run(&files, &graph),
        lockorder::run(&files, &graph),
    ] {
        report.findings.extend(f);
        report.waived.extend(w);
    }
    // Waiver hygiene judges the complete, unfiltered ledger.
    let (f, w) = waivers::run(&files, &report.waived);
    report.findings.extend(f);
    report.waived.extend(w);

    if let Some(only) = &opts.only {
        report.findings.retain(|f| only.contains(&f.lint));
        report.waived.retain(|w| only.contains(&w.lint));
    }
    if let Some(globs) = &opts.files {
        report
            .findings
            .retain(|f| globs.iter().any(|g| glob_match(g, &f.file)));
        report
            .waived
            .retain(|w| globs.iter().any(|g| glob_match(g, &w.file)));
    }
    report.normalize();
    report
}

/// Analyze the workspace rooted at `root`. Unreadable / non-UTF8 files
/// are counted in [`Report::skipped_files`], not silently dropped: a
/// tree the analyzer cannot read is not a tree it can declare clean.
pub fn run(root: &Path) -> Report {
    run_with(root, &Options::default())
}

/// [`run`] with a report filter.
pub fn run_with(root: &Path, opts: &Options) -> Report {
    let (sources, skipped) = read_workspace(root);
    let mut report = analyze_sources_with(&sources, opts);
    report.files_scanned = sources.len() + skipped.len();
    report.skipped_files = skipped;
    report.normalize();
    report
}

/// The workspace call graph as stable JSON (`--callgraph-json`).
pub fn callgraph_json(root: &Path) -> String {
    let (sources, _) = read_workspace(root);
    let files: Vec<FileIndex> = sources
        .iter()
        .map(|(rel, src)| index_file(rel, src))
        .collect();
    callgraph::Graph::build(&files).to_json(&files)
}

fn read_workspace(root: &Path) -> (Vec<(PathBuf, String)>, Vec<String>) {
    let mut sources = Vec::new();
    let mut skipped = Vec::new();
    for rel in collect_rs_files(root) {
        match fs::read_to_string(root.join(&rel)) {
            Ok(content) => sources.push((rel, content)),
            Err(_) => skipped.push(rel.to_string_lossy().replace('\\', "/")),
        }
    }
    (sources, skipped)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn waiver_extracts_justification_from_line_or_line_above() {
        let lexed = lexer::lex(
            "// analyze:allow(raw-sync): bootstrap path\nlet m = 1;\nlet n = 2; // analyze:allow(panic-path)\n",
        );
        assert_eq!(
            waiver_on(&lexed, 2, "raw-sync").as_deref(),
            Some("bootstrap path")
        );
        assert_eq!(waiver_on(&lexed, 3, "panic-path").as_deref(), Some(""));
        assert!(waiver_on(&lexed, 2, "panic-path").is_none());
    }

    #[test]
    fn analyze_sources_merges_all_passes() {
        let sources = vec![
            (
                PathBuf::from("crates/core/src/pipeline/queue.rs"),
                "pub fn f(v: Vec<u32>) -> u32 { let m = Mutex::new(0); let _ = m; v[0] }"
                    .to_string(),
            ),
            (
                PathBuf::from("crates/net/src/virtualfile.rs"),
                "pub fn g() { let t = Instant::now(); let _ = t; }".to_string(),
            ),
        ];
        let report = analyze_sources(&sources);
        let lints: Vec<&str> = report.findings.iter().map(|f| f.lint.as_str()).collect();
        // raw-sync + panic-path (indexing) from the first file;
        // wall-clock + determinism-taint from the second.
        assert!(lints.contains(&"raw-sync"), "{lints:?}");
        assert!(lints.contains(&"panic-path"), "{lints:?}");
        assert!(lints.contains(&"wall-clock"), "{lints:?}");
        assert!(lints.contains(&"determinism-taint"), "{lints:?}");
        // Findings are sorted by (file, line, lint).
        let mut sorted = report.findings.clone();
        sorted.sort();
        assert_eq!(sorted, report.findings);
    }

    #[test]
    fn glob_patterns_match_like_unix_paths() {
        assert!(glob_match("crates/net/**", "crates/net/src/pool.rs"));
        assert!(glob_match(
            "**/queue.rs",
            "crates/core/src/pipeline/queue.rs"
        ));
        assert!(glob_match("**/queue.rs", "queue.rs"));
        assert!(glob_match("crates/*/src/lib.rs", "crates/sync/src/lib.rs"));
        assert!(glob_match(
            "**/sh?rd.rs",
            "crates/core/src/pipeline/shard.rs"
        ));
        // `*` stays inside one segment; `?` never matches `/`.
        assert!(!glob_match("crates/*/lib.rs", "crates/sync/src/lib.rs"));
        assert!(!glob_match("a?b", "a/b"));
        assert!(!glob_match(
            "**/queue.rs",
            "crates/core/src/pipeline/shard.rs"
        ));
    }

    #[test]
    fn only_and_files_filters_narrow_the_report() {
        let sources = vec![
            (
                PathBuf::from("crates/core/src/pipeline/queue.rs"),
                "pub fn f(v: Vec<u32>) -> u32 { let m = Mutex::new(0); let _ = m; v[0] }"
                    .to_string(),
            ),
            (
                PathBuf::from("crates/net/src/virtualfile.rs"),
                "pub fn g() { let t = Instant::now(); let _ = t; }".to_string(),
            ),
        ];
        let only = Options {
            only: Some(["panic-path".to_string()].into_iter().collect()),
            files: None,
        };
        let report = analyze_sources_with(&sources, &only);
        assert!(!report.findings.is_empty());
        assert!(report.findings.iter().all(|f| f.lint == "panic-path"));

        let files = Options {
            only: None,
            files: Some(vec!["crates/net/**".to_string()]),
        };
        let report = analyze_sources_with(&sources, &files);
        assert!(!report.findings.is_empty());
        assert!(report
            .findings
            .iter()
            .all(|f| f.file.starts_with("crates/net/")));
    }

    #[test]
    fn workspace_is_clean() {
        // The real tree: every finding must be fixed or waived. This is
        // the same discipline the old xtask test enforced, now across
        // all eight lints.
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(Path::parent)
            .expect("crates/analyze sits two levels under the workspace root")
            .to_path_buf();
        let report = run(&root);
        assert!(
            report.files_scanned > 30,
            "scanned {}",
            report.files_scanned
        );
        assert!(
            report.skipped_files.is_empty(),
            "unreadable files: {:?}",
            report.skipped_files
        );
        assert!(
            report.findings.is_empty(),
            "workspace should be lint-clean:\n{}",
            report
                .findings
                .iter()
                .map(|f| format!("{}:{}: [{}] {}", f.file, f.line, f.lint, f.message))
                .collect::<Vec<_>>()
                .join("\n")
        );
    }

    #[test]
    fn report_json_is_byte_identical_across_runs() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(Path::parent)
            .unwrap()
            .to_path_buf();
        let a = run(&root).to_json(&Default::default());
        let b = run(&root).to_json(&Default::default());
        assert_eq!(a, b);
    }
}
