//! Smoke sizes of every workload: the same code paths and checks at
//! tiny n, so the harness cannot rot silently. Also pins the reported
//! metric names to the ones `BENCHMARK.json` declares.

use std::collections::BTreeSet;

use perfbench::{Config, Outcome, Scale, WORKLOADS};

fn smoke(workload: &str, trace: bool, seed: u64) -> Outcome {
    perfbench::run(&Config {
        workload: workload.to_string(),
        seed,
        seconds: 0.0,
        trace,
        scale: Scale::Smoke,
    })
    .expect("known workload")
}

/// Metric names declared in one section of `BENCHMARK.json`.
fn declared(section: &str) -> BTreeSet<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let end = text[start..].find(']').map_or(text.len(), |i| start + i);
    text[start..end]
        .split("\"name\": \"")
        .skip(1)
        .map(|rest| rest.split('"').next().expect("closing quote").to_string())
        .collect()
}

fn names(outcome: &Outcome) -> BTreeSet<String> {
    outcome.metrics.iter().map(|m| m.name.clone()).collect()
}

fn assert_clean(workload: &str, outcome: &Outcome) {
    assert!(
        outcome.correct(),
        "{workload}: checks failed: {:?}",
        outcome.violations
    );
    assert_eq!(outcome.failed, 0, "{workload}: failed operations");
    assert!(outcome.attempted >= 1, "{workload}: nothing attempted");
}

#[test]
fn every_workload_reports_every_end_to_end_metric_and_passes_its_checks() {
    let expected = declared("end_to_end");
    for workload in WORKLOADS {
        let outcome = smoke(workload, false, 7);
        assert_clean(workload, &outcome);
        assert_eq!(names(&outcome), expected, "{workload}");
        for m in &outcome.metrics {
            assert!(m.value > 0.0, "{workload}: {} is {}", m.name, m.value);
        }
    }
}

#[test]
fn traced_run_reports_every_per_layer_metric_with_a_bit_identical_replay() {
    let outcome = smoke("serve-mixed", true, 7);
    assert_clean("trace", &outcome);
    assert_eq!(names(&outcome), declared("per_layer"));
    assert_eq!(outcome.value("mpc.gather_rounds"), Some(1.0));
}

#[test]
fn deterministic_metrics_repeat_for_a_seed() {
    for workload in ["spanner-seq", "mpc-sublinear", "mpc-apsp"] {
        let a = smoke(workload, false, 11);
        let b = smoke(workload, false, 11);
        for name in ["spanner_edges", "stretch_mean"] {
            let value = a.value(name);
            assert!(value.is_some(), "{workload}: no metric {name}");
            assert_eq!(value, b.value(name), "{workload}: {name}");
        }
        let mut keys = vec!["stretch_max"];
        if workload != "spanner-seq" {
            keys.extend(["mpc_rounds", "comm_words"]);
        }
        for key in keys {
            let value = a.meta_value(key);
            assert!(value.is_some(), "{workload}: no metadata {key}");
            assert_eq!(value, b.meta_value(key), "{workload}: {key}");
        }
    }
}

#[test]
fn unknown_workloads_are_rejected() {
    let err = perfbench::run(&Config {
        workload: "nope".into(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        scale: Scale::Smoke,
    });
    assert!(err.is_err());
}
