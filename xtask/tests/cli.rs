//! End-to-end tests of the `cargo xtask analyze` CLI: the exit-code
//! contract (0 clean / 1 new findings / 2 unreadable files) and the
//! byte-stability of `--format json`.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::sync::atomic::{AtomicU32, Ordering};

fn xtask() -> Command {
    Command::new(env!("CARGO_BIN_EXE_xtask"))
}

/// A fresh scratch tree under the target-adjacent temp dir.
fn scratch(name: &str) -> PathBuf {
    static N: AtomicU32 = AtomicU32::new(0);
    let dir = std::env::temp_dir().join(format!(
        "xtask-cli-{name}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create scratch tree");
    dir
}

fn write(root: &Path, rel: &str, content: &str) {
    let path = root.join(rel);
    fs::create_dir_all(path.parent().unwrap()).unwrap();
    fs::write(path, content).unwrap();
}

fn analyze(root: &Path, extra: &[&str]) -> Output {
    xtask()
        .arg("analyze")
        .arg("--root")
        .arg(root)
        .arg("--no-baseline")
        .args(extra)
        .output()
        .expect("run xtask")
}

#[test]
fn clean_tree_exits_zero() {
    let root = scratch("clean");
    write(
        &root,
        "crates/core/src/lib.rs",
        "pub fn ok() -> u32 { 1 }\n",
    );
    let out = analyze(&root, &[]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("analyze: ok"), "{text}");
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn violation_exits_one_and_names_the_site() {
    let root = scratch("dirty");
    write(
        &root,
        "crates/core/src/jobs.rs",
        "use std::collections::HashMap;\n\
         pub fn serve(m: &HashMap<u32, u32>) -> Vec<u32> {\n\
             m.values().copied().collect()\n\
         }\n",
    );
    let out = analyze(&root, &[]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("crates/core/src/jobs.rs:3"), "{text}");
    assert!(text.contains("determinism-taint"), "{text}");
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn unreadable_file_exits_two_even_when_otherwise_clean() {
    let root = scratch("nonutf8");
    write(&root, "crates/core/src/lib.rs", "pub fn ok() {}\n");
    fs::create_dir_all(root.join("crates/core/src")).unwrap();
    fs::write(
        root.join("crates/core/src/bad.rs"),
        [0xff, 0xfe, b'f', b'n'],
    )
    .unwrap();
    let out = analyze(&root, &[]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("bad.rs"), "{err}");
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn json_output_is_byte_identical_across_runs() {
    let root = scratch("json");
    write(
        &root,
        "crates/net/src/lib.rs",
        "pub fn f(v: Vec<u32>) -> u32 { v[0] }\n\
         pub fn g(v: Vec<u32>) -> u32 { v.first().copied().unwrap_or(0) }\n",
    );
    let a = analyze(&root, &["--format", "json"]);
    let b = analyze(&root, &["--format", "json"]);
    assert_eq!(a.status.code(), Some(1));
    assert_eq!(a.stdout, b.stdout, "JSON must be deterministic");
    let json = String::from_utf8(a.stdout).unwrap();
    assert!(json.contains("\"lint\": \"panic-path\""), "{json}");
    assert!(json.contains("\"baselined\": false"), "{json}");
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn baseline_suppresses_known_findings_and_write_baseline_creates_it() {
    let root = scratch("baseline");
    write(
        &root,
        "crates/net/src/lib.rs",
        "pub fn f(v: Vec<u32>) -> u32 { v[0] }\n",
    );
    let baseline = root.join("analyze-baseline.json");

    // Unbaselined: the finding is new → exit 1.
    let out = xtask()
        .args(["analyze", "--root"])
        .arg(&root)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "{out:?}");

    // Write the baseline, then the same tree is clean.
    let out = xtask()
        .args(["analyze", "--root"])
        .arg(&root)
        .arg("--write-baseline")
        .output()
        .unwrap();
    assert!(baseline.is_file(), "{out:?}");
    let out = xtask()
        .args(["analyze", "--root"])
        .arg(&root)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "{out:?}");

    // A *new* finding still fails against the old baseline.
    write(
        &root,
        "crates/net/src/more.rs",
        "pub fn g(v: Vec<u32>) -> u32 { v[1] }\n",
    );
    let out = xtask()
        .args(["analyze", "--root"])
        .arg(&root)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn only_filter_narrows_the_report_and_the_exit_code() {
    let root = scratch("only");
    // One panic-path site and one determinism-taint site.
    write(
        &root,
        "crates/net/src/lib.rs",
        "use std::collections::HashMap;\n\
         pub fn f(v: Vec<u32>) -> u32 { v[0] }\n\
         pub fn serve(m: &HashMap<u32, u32>) -> Vec<u32> {\n\
             m.values().copied().collect()\n\
         }\n",
    );
    let out = analyze(&root, &["--only", "panic-path"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("panic-path"), "{text}");
    assert!(!text.contains("determinism-taint"), "{text}");

    // Filtering to a lint with no findings exits clean.
    let out = analyze(&root, &["--only", "raw-sync"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn files_filter_narrows_by_glob() {
    let root = scratch("files");
    write(
        &root,
        "crates/net/src/lib.rs",
        "pub fn f(v: Vec<u32>) -> u32 { v[0] }\n",
    );
    write(
        &root,
        "crates/core/src/pipeline/queue.rs",
        "pub fn g(v: Vec<u32>) -> u32 { v[0] }\n",
    );
    let out = analyze(&root, &["--files", "crates/net/**"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("crates/net/src/lib.rs"), "{text}");
    assert!(!text.contains("queue.rs"), "{text}");
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn callgraph_json_is_byte_identical_and_lists_workspace_fns() {
    let root = scratch("callgraph");
    write(
        &root,
        "crates/core/src/lib.rs",
        "pub fn entry() { helper(); }\nfn helper() {}\n",
    );
    let a = analyze(&root, &["--callgraph-json", "-"]);
    let b = analyze(&root, &["--callgraph-json", "-"]);
    assert_eq!(a.status.code(), Some(0), "{a:?}");
    assert_eq!(a.stdout, b.stdout, "call graph JSON must be deterministic");
    let json = String::from_utf8(a.stdout).unwrap();
    assert!(json.contains("\"functions\": 2,"), "{json}");
    assert!(json.contains("\"qual\": \"entry\""), "{json}");

    // Writing to a file produces the same bytes (minus the report text
    // that shares stdout in `-` mode the file variant avoids).
    let path = root.join("callgraph.json");
    let out = xtask()
        .arg("analyze")
        .arg("--root")
        .arg(&root)
        .arg("--no-baseline")
        .arg("--callgraph-json")
        .arg(&path)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let written = fs::read_to_string(&path).unwrap();
    assert!(
        json.starts_with(&written) || json.contains(&written),
        "{written}"
    );
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn lock_nesting_flows_through_the_cli() {
    let root = scratch("lockorder");
    write(
        &root,
        "crates/core/src/pipeline/seeded.rs",
        "pub struct P { a: TrackedMutex<u32>, b: TrackedMutex<u32> }\n\
         impl P {\n\
             pub fn mk() -> Self { P { a: TrackedMutex::new(\"cli.a\", 0), b: TrackedMutex::new(\"cli.b\", 0) } }\n\
             pub fn ab(&self) { let x = self.a.lock(); let y = self.b.lock(); drop((x, y)); }\n\
             pub fn ba(&self) { let y = self.b.lock(); let x = self.a.lock(); drop((x, y)); }\n\
         }\n",
    );
    let out = analyze(&root, &["--only", "lock-nesting"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("lock-nesting"), "{text}");
    assert!(text.contains("cli.a"), "{text}");
    let _ = fs::remove_dir_all(&root);
}
