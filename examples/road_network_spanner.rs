//! Scenario: sparsifying a *road-network-like* graph for distance
//! workloads ("reduce communication and memory for distance-related
//! computation on denser graphs at the expense of accuracy", paper
//! §1.2).
//!
//! A random geometric graph with Euclidean weights stands in for the
//! road network. We sweep the sparsity parameter `k` of the Appendix B
//! unweighted algorithm on the connectivity topology *and* the weighted
//! general algorithm on the true weights — all through the pipeline's
//! request/report API, with inline verification — and print the
//! operating curve: spanner size vs worst-case detour.
//!
//! ```sh
//! cargo run --release --example road_network_spanner
//! ```

use mpc_spanners::core::unweighted_ok::UnweightedOkConfig;
use mpc_spanners::core::TradeoffParams;
use mpc_spanners::graph::generators::geometric_euclidean;
use mpc_spanners::pipeline::{Algorithm, SpannerRequest, Verification};
use rayon::prelude::*;

fn main() {
    let g = geometric_euclidean(2000, 0.045, 12345);
    println!(
        "road network: n = {}, m = {} (Euclidean weights, avg degree {:.1})\n",
        g.n(),
        g.m(),
        2.0 * g.m() as f64 / g.n() as f64
    );

    println!("weighted spanners (Section 5, t = log k):");
    let ks = [2u32, 4, 8, 16];
    let reports: Vec<_> = ks
        .par_iter()
        .map(|&k| {
            SpannerRequest::new(&g, Algorithm::General(TradeoffParams::log_k(k)))
                .seed(5)
                .verification(Verification::Enforce)
                .run()
        })
        .collect();
    for (&k, report) in ks.iter().zip(reports) {
        let report = report.expect("guarantee must hold");
        let v = report.verification.as_ref().expect("verification ran");
        println!(
            "  k={k:>2}: kept {:>5} / {} edges ({:>4.1}%), worst detour {:>5.2}x (bound {:>6.1}x)",
            report.size(),
            g.m(),
            100.0 * report.size() as f64 / g.m() as f64,
            v.max_edge_stretch.max(1.0),
            report.result.stretch_bound,
        );
    }

    println!("\nunweighted topology spanners (Appendix B, O(k) stretch):");
    let topo = g.unweighted_copy();
    for k in [2u32, 3, 4] {
        let report = SpannerRequest::new(
            &topo,
            Algorithm::UnweightedOk {
                k,
                config: UnweightedOkConfig::default(),
            },
        )
        .seed(5)
        .verification(Verification::Enforce)
        .run()
        .expect("guarantee must hold");
        let v = report.verification.as_ref().expect("verification ran");
        let stats = report
            .result
            .decomposition
            .as_ref()
            .expect("appendix B fills its stats");
        println!(
            "  k={k}: kept {:>5} edges, hop stretch {:>4.1} (bound {:>5.1}), sparse/dense = {}/{}",
            report.size(),
            v.max_edge_stretch,
            report.result.stretch_bound,
            stats.sparse,
            stats.dense_assigned,
        );
    }
}
