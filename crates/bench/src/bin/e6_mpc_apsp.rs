//! **E6 — Corollary 1.4**: approximate APSP in near-linear-memory MPC.
//!
//! Runs the full Section 7 pipeline *in-model* through the distance
//! stage (construction through the simulator + the gather-to-one-machine
//! round, charged as exactly "+1") and measures the empirical
//! approximation ratio against exact Dijkstra, next to the `O(log^s n)`
//! guarantee.

use spanner_apsp::{apsp_request, measure_distance_oracle};
use spanner_bench::table::{f2, Table};
use spanner_core::pipeline::{Backend, MpcDeployment, NetworkModel};
use spanner_graph::generators::{Family, WeightModel};

fn main() {
    println!("# E6 — Corollary 1.4 (MPC APSP, near-linear regime)\n");
    let mut t = Table::new(&[
        "n",
        "m",
        "k",
        "t",
        "mpc rounds",
        "gather rounds",
        "oracle edges",
        "edges/(n·loglog n)",
        "approx avg",
        "approx max",
        "guarantee",
    ]);
    for n in [256usize, 512, 1024] {
        let g = Family::ErdosRenyi { n, avg_deg: 12.0 }.generate(WeightModel::PowersOfTwo(8), 0xE6);
        let request = apsp_request(&g)
            .on(Backend::mpc_deployment(MpcDeployment::NearLinear))
            .seed(0x6E);
        let params = request
            .plan()
            .expect("valid request")
            .spanner
            .schedule
            .expect("the APSP regime resolves to a schedule");
        let oracle = request.build().expect("in-model APSP");
        let stats = oracle.stats();
        let metrics = &stats.execution.mpc().expect("mpc stats").metrics;
        let rep = measure_distance_oracle(&g, &oracle, 24, 6);
        let loglog = (n as f64).log2().log2();
        t.row(vec![
            n.to_string(),
            g.m().to_string(),
            params.k.to_string(),
            params.t.to_string(),
            metrics.rounds.to_string(),
            stats
                .gather_rounds
                .expect("mpc pays the gather")
                .to_string(),
            oracle.size().to_string(),
            f2(oracle.size() as f64 / (n as f64 * loglog)),
            f2(rep.avg_ratio),
            f2(rep.max_ratio),
            f2(rep.guarantee),
        ]);
    }
    t.print();
    println!("\n(guarantee = 2·k^s with k = ceil(log2 n), s = log(2t+1)/log(t+1);");
    println!(" mpc rounds include the single gather round)");

    // Price the largest build under two cluster shapes: predicted
    // wall-clock next to the round count.
    println!("\n## Predicted cluster latency (FullMesh)\n");
    let n = 1024usize;
    let g = Family::ErdosRenyi { n, avg_deg: 12.0 }.generate(WeightModel::PowersOfTwo(8), 0xE6);
    let oracle = apsp_request(&g)
        .on(Backend::mpc_deployment(MpcDeployment::NearLinear))
        .seed(0x6E)
        .build()
        .expect("in-model APSP");
    let metrics = &oracle.stats().execution.mpc().expect("mpc stats").metrics;
    let mut t = Table::new(&["n", "network", "rounds", "predicted wall-clock"]);
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
        t.row(vec![
            n.to_string(),
            model.label(),
            metrics.rounds.to_string(),
            format!("{:.4}s", metrics.predicted_seconds(model)),
        ]);
    }
    t.print();
    println!("\n(predictions are simulated seconds from the network model,");
    println!(" priced from the run's metrics, gather round included)");
}
