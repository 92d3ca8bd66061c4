//! **E9 — Section 6 / Theorem 1.1**: measured MPC rounds.
//!
//! Two measurements on the simulator (rounds counted by executing the
//! communication, memory constraints enforced):
//!
//! 1. primitive costs (sort / find-min aggregation / segmented
//!    broadcast) as the machine memory `S` shrinks — the `O(1/γ)`
//!    (= `O(log_S N)`) scaling;
//! 2. end-to-end distributed spanner runs: total rounds, rounds per
//!    grow iteration next to the rounds of one sample sort at that `S`
//!    (Lemma 6.1's `O(1/γ)` unit, so their ratio is the lemma's constant),
//!    and the bit-for-bit agreement with the sequential reference.

use mpc_runtime::{comm, primitives, Dist, MpcConfig, MpcSystem, NetworkModel};
use spanner_bench::table::{f2, Table};
use spanner_bench::workloads;
use spanner_core::pipeline::{Algorithm, Backend, MpcStats, RunReport, SpannerRequest};
use spanner_core::TradeoffParams;
use spanner_graph::Graph;

/// One run of the Section 5 algorithm on `backend`.
fn run_on(g: &Graph, params: TradeoffParams, backend: Backend) -> RunReport {
    SpannerRequest::new(g, Algorithm::General(params))
        .on(backend)
        .seed(0xE9)
        .run()
        .expect("the deployment fits the run")
}

fn mpc_stats(report: &RunReport) -> &MpcStats {
    report.stats.mpc().expect("mpc stats")
}

/// Rounds of one sample sort of `g`'s edge records under `cfg`, keyed by
/// a word pair like the driver's relabel sort. A sort's rounds depend on
/// the deployment and the key width, not on the data.
fn sort_rounds(g: &Graph, cfg: MpcConfig) -> u64 {
    let records: Vec<(u64, u64, u64, u64)> = g
        .edges()
        .iter()
        .enumerate()
        .map(|(id, e)| (e.u as u64, e.v as u64, e.w, id as u64))
        .collect();
    let mut sys = MpcSystem::new(cfg);
    let d = Dist::distribute(&mut sys, records).unwrap();
    primitives::sort_by_key(&mut sys, d, "sort", |r| (r.0, r.1)).unwrap();
    sys.rounds()
}

fn main() {
    println!("# E9 — Section 6 implementation layer (measured rounds)\n");

    println!("## Primitive round costs vs machine memory S (N = 65536 words)\n");
    let n_records: usize = 65_536;
    let mut t = Table::new(&[
        "S (words)",
        "machines P",
        "log_S N",
        "sort rounds",
        "find-min rounds",
        "scan rounds",
        "route rounds",
    ]);
    for s in [512usize, 1024, 2048, 4096, 16384] {
        let cfg = MpcConfig::explicit(s, n_records.div_ceil(s) * 2, 8);
        let data: Vec<u64> = (0..n_records as u64)
            .map(|i| primitives::splitmix64(i) % 10_000)
            .collect();

        let mut sys = MpcSystem::new(cfg);
        let d = Dist::distribute(&mut sys, data.clone()).unwrap();
        sys.reset_metrics();
        let sorted = primitives::sort_by_key(&mut sys, d, "sort", |&x| x).unwrap();
        let sort_rounds = sys.rounds();

        sys.reset_metrics();
        let _ = primitives::aggregate_by_key(
            &mut sys,
            sorted.clone(),
            "min",
            |&x| x % 97,
            |&x| x,
            |a, b| *a.min(b),
        )
        .unwrap();
        let min_rounds = sys.rounds();

        sys.reset_metrics();
        let per: Vec<u64> = vec![1; sys.machines()];
        let _ = comm::machine_scan(&mut sys, per, 0, "scan", |a, b| a + b).unwrap();
        let scan_rounds = sys.rounds();

        sys.reset_metrics();
        let p = sys.machines();
        let _ = comm::route(&mut sys, sorted, "route", move |&x, _| {
            (primitives::splitmix64(x) % p as u64) as usize
        })
        .unwrap();
        let route_rounds = sys.rounds();

        t.row(vec![
            s.to_string(),
            cfg.num_machines.to_string(),
            f2((n_records as f64).ln() / (s as f64).ln()),
            sort_rounds.to_string(),
            min_rounds.to_string(),
            scan_rounds.to_string(),
            route_rounds.to_string(),
        ]);
    }
    t.print();

    println!("\n## End-to-end distributed runs (k=8, t=3; er n=2048)\n");
    let g = workloads::default_er(2048);
    let params = TradeoffParams::new(8, 3);
    let seq = run_on(&g, params, Backend::Sequential).result;
    let input_words = 4 * g.m() + 2 * g.n() + 64;
    let mut t2 = Table::new(&[
        "S (words)",
        "P",
        "rounds",
        "iters",
        "rounds/iter",
        "sort rounds",
        "rounds/iter ÷ sort",
        "peak mem (w)",
        "cap (w)",
        "spanner",
        "matches seq",
    ]);
    for s in [1024usize, 2048, 4096, 8192] {
        let cfg = MpcConfig::explicit(s, input_words.div_ceil(s).max(2), 8);
        let run = run_on(&g, params, Backend::mpc_deployment(cfg));
        let metrics = &mpc_stats(&run).metrics;
        let per_iter = metrics.rounds as f64 / run.result.iterations.max(1) as f64;
        let sort = sort_rounds(&g, cfg);
        t2.row(vec![
            s.to_string(),
            cfg.num_machines.to_string(),
            metrics.rounds.to_string(),
            run.result.iterations.to_string(),
            f2(per_iter),
            sort.to_string(),
            f2(per_iter / sort as f64),
            metrics.peak_machine_words.to_string(),
            cfg.capacity().to_string(),
            run.result.size().to_string(),
            (run.result.edges == seq.edges).to_string(),
        ]);
    }
    t2.print();

    println!("\n## Rounds by primitive (S = 2048 run above)\n");
    let cfg = MpcConfig::explicit(2048, input_words.div_ceil(2048).max(2), 8);
    let run = run_on(&g, params, Backend::mpc_deployment(cfg));
    let mut t3 = Table::new(&["primitive", "rounds"]);
    for (op, rounds) in &mpc_stats(&run).metrics.rounds_by_op {
        t3.row(vec![op.to_string(), rounds.to_string()]);
    }
    t3.print();

    println!("\n## Predicted wall-clock under network models (S = 4096)\n");
    let cfg = MpcConfig::explicit(4096, input_words.div_ceil(4096).max(2), 8);
    let run = run_on(&g, params, Backend::mpc_deployment(cfg));
    assert_eq!(
        run.result.edges, seq.edges,
        "the MPC driver must rebuild the sequential spanner bit for bit"
    );
    let metrics = &mpc_stats(&run).metrics;
    let mut t4 = Table::new(&["S (words)", "P", "rounds", "network", "predicted"]);
    for model in [
        NetworkModel::FullMesh {
            latency_s: 100e-6,
            bytes_per_sec: 10e9,
        },
        NetworkModel::FullMesh {
            latency_s: 2e-3,
            bytes_per_sec: 1e9,
        },
    ] {
        t4.row(vec![
            "4096".to_string(),
            cfg.num_machines.to_string(),
            metrics.rounds.to_string(),
            model.label(),
            format!("{:.4}s", metrics.predicted_seconds(model)),
        ]);
    }
    t4.print();
    println!("\n(simulated seconds: each round charged latency + critical-link bytes/bandwidth;");
    println!(" the run is asserted bit-identical to the sequential reference)");
}
