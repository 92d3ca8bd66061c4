//! Fixture discipline: every lint has a fixture proving it fires and a
//! fixture proving its waiver suppresses it. Fixtures are real source
//! text under `crates/analyze/fixtures/` (never compiled, excluded from
//! the workspace scan) analyzed under *virtual* paths, which is what
//! decides each pass's scope.

use std::path::{Path, PathBuf};

use spanner_analyze::{analyze_sources, report::Report};

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("fixture {} unreadable: {e}", path.display()))
}

fn analyze_at(rel: &str, name: &str) -> Report {
    analyze_sources(&[(PathBuf::from(rel), fixture(name))])
}

fn analyze_many(parts: &[(&str, &str)]) -> Report {
    let sources: Vec<(PathBuf, String)> = parts
        .iter()
        .map(|(rel, name)| (PathBuf::from(rel), fixture(name)))
        .collect();
    analyze_sources(&sources)
}

fn lints_fired(rel: &str, name: &str) -> Vec<String> {
    analyze_at(rel, name)
        .findings
        .into_iter()
        .map(|f| f.lint)
        .collect()
}

#[test]
fn raw_sync_fires_in_pipeline_code() {
    let fired = lints_fired("crates/core/src/pipeline/seeded.rs", "raw_sync.rs");
    assert!(fired.contains(&"raw-sync".to_string()), "fired: {fired:?}");
}

#[test]
fn net_crate_is_in_scope_for_every_executor_lint() {
    // The network cost-model crate is held to the same discipline as
    // pipeline code: tracked locks only…
    let fired = lints_fired("crates/net/src/seeded.rs", "raw_sync.rs");
    assert!(fired.contains(&"raw-sync".to_string()), "fired: {fired:?}");
    // …no thread creation outside the sanctioned nurseries…
    let fired = lints_fired("crates/net/src/seeded.rs", "stray_spawn.rs");
    assert!(
        fired.contains(&"stray-spawn".to_string()),
        "fired: {fired:?}"
    );
    // …and no wall-clock reads feeding the predicted seconds.
    let fired = lints_fired("crates/net/src/seeded.rs", "wall_clock.rs");
    assert!(
        fired.contains(&"wall-clock".to_string()),
        "fired: {fired:?}"
    );
}

#[test]
fn raw_sync_ignores_code_outside_the_pipeline() {
    let fired = lints_fired("crates/graph/src/seeded.rs", "raw_sync.rs");
    assert!(!fired.contains(&"raw-sync".to_string()), "fired: {fired:?}");
}

#[test]
fn stray_spawn_fires_outside_nurseries_and_not_inside() {
    let fired = lints_fired("crates/core/src/seeded.rs", "stray_spawn.rs");
    assert!(
        fired.contains(&"stray-spawn".to_string()),
        "fired: {fired:?}"
    );
    for rel in [
        "vendor/rayon/src/seeded.rs",
        "vendor/interleave/src/seeded.rs",
        "xtask/src/seeded.rs",
        "tests/seeded.rs",
    ] {
        let fired = lints_fired(rel, "stray_spawn.rs");
        assert!(
            !fired.contains(&"stray-spawn".to_string()),
            "{rel} fired: {fired:?}"
        );
    }
}

#[test]
fn wall_clock_fires_in_model_code() {
    for rel in [
        "crates/mpc-runtime/src/seeded.rs",
        "crates/core/src/pipeline/clique.rs",
        "crates/core/src/pipeline/pram_cost.rs",
    ] {
        let fired = lints_fired(rel, "wall_clock.rs");
        assert!(
            fired.contains(&"wall-clock".to_string()),
            "{rel} fired: {fired:?}"
        );
    }
    let fired = lints_fired("crates/core/src/pipeline/service.rs", "wall_clock.rs");
    assert!(
        !fired.contains(&"wall-clock".to_string()),
        "fired: {fired:?}"
    );
}

#[test]
fn unsafe_comment_fires_without_safety() {
    let fired = lints_fired("crates/graph/src/seeded.rs", "unsafe_no_safety.rs");
    assert!(
        fired.contains(&"unsafe-comment".to_string()),
        "fired: {fired:?}"
    );
}

#[test]
fn determinism_taint_fires_on_every_seeded_source() {
    let report = analyze_at("crates/core/src/pipeline/seeded.rs", "determinism_taint.rs");
    let taint: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.lint == "determinism-taint")
        .collect();
    // keys() + for-in + values() (through the call graph) + Instant +
    // thread::current + {:p}.
    assert!(taint.len() >= 6, "taint findings: {taint:#?}");
    // The helper reached only through the call graph reports a chain.
    assert!(
        taint
            .iter()
            .any(|f| f.message.contains("deep_helper") || f.message.contains("reachable via")),
        "no call-graph evidence in: {taint:#?}"
    );
}

#[test]
fn determinism_taint_waivers_suppress_and_stay_visible() {
    let report = analyze_at(
        "crates/core/src/pipeline/seeded.rs",
        "determinism_taint_waived.rs",
    );
    let fired: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.lint == "determinism-taint")
        .collect();
    assert!(fired.is_empty(), "waived fixture still fired: {fired:#?}");
    let waived: Vec<_> = report
        .waived
        .iter()
        .filter(|w| w.lint == "determinism-taint")
        .collect();
    assert_eq!(waived.len(), 3, "{waived:#?}");
    assert!(waived.iter().all(|w| !w.justification.is_empty()));
}

#[test]
fn panic_path_fires_on_every_seeded_site() {
    let report = analyze_at("crates/core/src/pipeline/queue.rs", "panic_path.rs");
    let sites: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.lint == "panic-path")
        .collect();
    // unwrap + expect + indexing + division + panic! (at least).
    assert!(sites.len() >= 5, "panic-path findings: {sites:#?}");
    for needle in ["unwrap", "expect", "indexing", "divisor", "panic!"] {
        assert!(
            sites.iter().any(|f| f.message.contains(needle)),
            "no {needle} finding in: {sites:#?}"
        );
    }
}

#[test]
fn panic_path_waivers_suppress_and_stay_visible() {
    let report = analyze_at("crates/core/src/pipeline/queue.rs", "panic_path_waived.rs");
    let fired: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.lint == "panic-path")
        .collect();
    assert!(fired.is_empty(), "waived fixture still fired: {fired:#?}");
    let waived: Vec<_> = report
        .waived
        .iter()
        .filter(|w| w.lint == "panic-path")
        .collect();
    assert_eq!(waived.len(), 4, "{waived:#?}");
}

#[test]
fn panic_path_ignores_out_of_scope_files() {
    let fired = lints_fired("crates/core/src/engine.rs", "panic_path.rs");
    assert!(
        !fired.contains(&"panic-path".to_string()),
        "fired: {fired:?}"
    );
}

#[test]
fn fully_waived_fixture_is_clean_under_the_widest_scope() {
    // clique.rs is in scope for raw-sync (pipeline dir), stray-spawn
    // (non-nursery), wall-clock (model code) and determinism-taint
    // (root scope) at once.
    let report = analyze_at("crates/core/src/pipeline/clique.rs", "waived.rs");
    assert!(
        report.findings.is_empty(),
        "waived fixture still fired: {:#?}",
        report.findings
    );
    assert!(report.waived.len() >= 4, "{:#?}", report.waived);
}

#[test]
fn lock_nesting_fires_in_both_orders_of_a_seeded_inversion() {
    let report = analyze_at("crates/core/src/pipeline/seeded.rs", "lock_order.rs");
    let nestings: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.lint == "lock-nesting")
        .collect();
    assert_eq!(nestings.len(), 2, "{:#?}", report.findings);
    assert!(
        nestings[0]
            .message
            .contains("`Pair::ab` acquires `fix.b` while holding `fix.a`"),
        "{:#?}",
        nestings[0]
    );
    assert!(
        nestings[1]
            .message
            .contains("`Pair::ba` acquires `fix.a` while holding `fix.b`"),
        "{:#?}",
        nestings[1]
    );
}

#[test]
fn lock_nesting_fires_through_a_call_with_the_chain() {
    let report = analyze_at(
        "crates/core/src/pipeline/seeded.rs",
        "blocking_while_locked.rs",
    );
    let nestings: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.lint == "lock-nesting")
        .collect();
    assert_eq!(nestings.len(), 1, "{:#?}", report.findings);
    assert_eq!(nestings[0].excerpt, "self.settle();");
    let msg = &nestings[0].message;
    assert!(msg.contains("`Gate::stall` → `Gate::settle`"), "{msg}");
    assert!(msg.contains("`fix.state`"), "{msg}");
    assert!(msg.contains("while holding `fix.aux`"), "{msg}");
}

#[test]
fn lock_nesting_waiver_suppresses_it() {
    let report = analyze_at(
        "crates/core/src/pipeline/seeded.rs",
        "lock_nesting_waived.rs",
    );
    assert!(report.findings.is_empty(), "{:#?}", report.findings);
    let waived: Vec<_> = report
        .waived
        .iter()
        .filter(|w| w.lint == "lock-nesting")
        .collect();
    assert_eq!(waived.len(), 1, "{:#?}", report.waived);
    assert!(waived[0].justification.contains("firing fixture"));
}

#[test]
fn panic_path_reaches_across_files_with_a_witness_chain() {
    let report = analyze_many(&[
        ("crates/core/src/pipeline/queue.rs", "panic_reach_entry.rs"),
        ("crates/graph/src/seeded_helper.rs", "panic_reach_helper.rs"),
    ]);
    let sites: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.lint == "panic-path")
        .collect();
    assert_eq!(sites.len(), 1, "{:#?}", report.findings);
    let msg = &sites[0].message;
    assert!(msg.contains("reachable from the serving stack"), "{msg}");
    assert!(msg.contains("`execute` → `helper_step`"), "{msg}");
    assert_eq!(sites[0].file, "crates/graph/src/seeded_helper.rs");
}

#[test]
fn unreached_helper_stays_clean() {
    // The same helper without the serving-stack entry: nothing reaches
    // it, so the bare unwrap is out of scope.
    let report = analyze_at("crates/graph/src/seeded_helper.rs", "panic_reach_helper.rs");
    assert!(report.findings.is_empty(), "{:#?}", report.findings);
}

#[test]
fn reachable_panic_waiver_suppresses_it() {
    let report = analyze_many(&[
        ("crates/core/src/pipeline/queue.rs", "panic_reach_entry.rs"),
        (
            "crates/graph/src/seeded_helper.rs",
            "panic_reach_helper_waived.rs",
        ),
    ]);
    assert!(report.findings.is_empty(), "{:#?}", report.findings);
    assert!(
        report.waived.iter().any(|w| w.lint == "panic-path"),
        "{:#?}",
        report.waived
    );
}

#[test]
fn unused_waiver_fires_on_a_stale_marker() {
    let report = analyze_at("crates/core/src/pipeline/seeded.rs", "unused_waiver.rs");
    let stale: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.lint == "unused-waiver")
        .collect();
    assert_eq!(stale.len(), 1, "{:#?}", report.findings);
    assert!(
        stale[0].message.contains("no longer suppresses"),
        "{}",
        stale[0].message
    );
}

#[test]
fn meta_waiver_keeps_a_stale_marker() {
    let report = analyze_at(
        "crates/core/src/pipeline/seeded.rs",
        "unused_waiver_waived.rs",
    );
    assert!(report.findings.is_empty(), "{:#?}", report.findings);
    assert!(
        report.waived.iter().any(|w| w.lint == "unused-waiver"),
        "{:#?}",
        report.waived
    );
}
