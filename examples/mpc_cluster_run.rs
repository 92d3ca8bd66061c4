//! Scenario: running the spanner construction on the *simulated MPC
//! cluster* — what a MapReduce/Spark job of the paper's algorithm would
//! cost, in the model's own currency (rounds, per-machine memory,
//! traffic) and in predicted wall-clock on a concrete network.
//!
//! Shows the Theorem 1.1 accounting live through the pipeline: **one**
//! `SpannerRequest`, re-targeted at deployments with shrinking machine
//! memory by swapping only the `Backend`. The example asserts that every
//! deployment builds the sequential reference's spanner, then prices
//! each run's measured rounds and traffic under a `FullMesh` network
//! model (`metrics.predicted_seconds(model)`), and one run under several
//! cluster shapes.
//!
//! ```sh
//! cargo run --release --example mpc_cluster_run
//! ```

use mpc_spanners::core::TradeoffParams;
use mpc_spanners::graph::generators::{connected_erdos_renyi, WeightModel};
use mpc_spanners::mpc::MpcConfig;
use mpc_spanners::pipeline::{Algorithm, Backend, NetworkModel, SpannerRequest};

fn main() {
    let g = connected_erdos_renyi(4000, 0.003, WeightModel::Uniform(1, 100), 3);
    let params = TradeoffParams::new(8, 3);
    let request = SpannerRequest::new(&g, Algorithm::General(params)).seed(11);
    let plan = request.plan().expect("valid request");
    println!(
        "input: n = {}, m = {}; algorithm: {}, {} grow iterations planned\n",
        g.n(),
        g.m(),
        plan.algorithm,
        plan.iterations,
    );

    // The sequential reference — the answer every deployment must match.
    let reference = request.run().expect("sequential run").result;
    println!("reference spanner: {} edges\n", reference.size());

    // A 100 us / 10 GB/s full mesh — a decent-switch cluster shape.
    let model = NetworkModel::FullMesh {
        latency_s: 100e-6,
        bytes_per_sec: 10e9,
    };
    let input_words = 4 * g.m() + 2 * g.n() + 64;
    let deployment = |s: usize| MpcConfig::explicit(s, input_words.div_ceil(s).max(2), 8);
    println!(
        "{:>8} {:>6} {:>8} {:>12} {:>14} {:>12} {:>7}",
        "S(words)", "P", "rounds", "rounds/iter", "peak mem", "predicted", "match"
    );
    for s in [2048usize, 4096, 8192, 16384] {
        // The same request, unmodified, on the MPC simulator.
        let run = request
            .clone()
            .on(Backend::mpc_deployment(deployment(s)))
            .run()
            .expect("constraints hold on this deployment");
        assert_eq!(
            run.result.edges, reference.edges,
            "every deployment must build the sequential spanner"
        );
        let stats = run.stats.mpc().expect("mpc backend reports mpc stats");
        let (metrics, config) = (&stats.metrics, &stats.config);
        println!(
            "{:>8} {:>6} {:>8} {:>12.1} {:>9}/{:<6} {:>10.4}s {:>7}",
            s,
            config.num_machines,
            metrics.rounds,
            metrics.rounds as f64 / run.result.iterations.max(1) as f64,
            metrics.peak_machine_words,
            config.capacity(),
            metrics.predicted_seconds(model),
            run.result.edges == reference.edges,
        );
    }

    // One run, priced under several cluster shapes: the rounds and the
    // traffic are fixed, only the network changes.
    let run = request
        .clone()
        .on(Backend::mpc_deployment(deployment(4096)))
        .run()
        .expect("constraints hold on this deployment");
    let metrics = &run.stats.mpc().expect("mpc stats").metrics;
    println!("\nS=4096: {}", metrics.summary());
    for model in [
        model,
        NetworkModel::FullMesh {
            latency_s: 2e-3,
            bytes_per_sec: 1e9,
        },
        NetworkModel::Switched {
            bisection_bytes_per_sec: 1e9,
        },
    ] {
        println!(
            "  predicted under {:<20} {:.6}s",
            model.label(),
            metrics.predicted_seconds(model)
        );
    }
    println!("\nSmaller machines => more machines, deeper aggregation trees, more rounds");
    println!("(the O(1/gamma) factor of Theorem 1.1) — same spanner, bit for bit;");
    println!("predictions are the model's simulated seconds.");
}
