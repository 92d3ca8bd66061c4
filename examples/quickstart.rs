//! Quickstart: one `SpannerRequest` per point on the paper's
//! round/stretch trade-off, planned, run concurrently and verified
//! through the unified pipeline, with predicted vs measured side by
//! side.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use mpc_spanners::core::TradeoffParams;
use mpc_spanners::graph::generators::{connected_erdos_renyi, WeightModel};
use mpc_spanners::pipeline::{Algorithm, SpannerRequest, Verification};
use rayon::prelude::*;

fn main() {
    // A weighted graph: G(n, p) plus a connectivity backbone, weights
    // spanning three orders of magnitude.
    let g = connected_erdos_renyi(2000, 0.008, WeightModel::PowersOfTwo(10), 7);
    println!("input graph: n = {}, m = {}", g.n(), g.m());

    let k = 16u32;
    let requests = [
        ("Section 4  (t=1, fastest)", Algorithm::ClusterMerging { k }),
        (
            "Section 5  (t=log k)     ",
            Algorithm::General(TradeoffParams::log_k(k)),
        ),
        ("Section 3  (two-phase)   ", Algorithm::SqrtK { k }),
        ("Baswana-Sen baseline     ", Algorithm::BaswanaSen { k }),
    ];

    // One request per algorithm, run concurrently on the rayon pool
    // (results in input order); `Verification::Enforce` turns any
    // violated guarantee into an Err.
    let reports: Vec<_> = requests
        .par_iter()
        .map(|&(_, algorithm)| {
            SpannerRequest::new(&g, algorithm)
                .seed(42)
                .verification(Verification::Enforce)
                .run()
        })
        .collect();

    for ((label, _), report) in requests.iter().zip(reports) {
        let report = report.expect("every guarantee must hold");
        let verified = report.verification.as_ref().expect("verification ran");
        println!(
            "{label}: {:>4}/{:<4} iterations (measured/planned) | {:>5} edges ({:>4.1}% of m) | stretch {:>6.2} (bound {:>7.2})",
            report.result.iterations,
            report.plan.iterations,
            report.size(),
            100.0 * report.size() as f64 / g.m() as f64,
            verified.max_edge_stretch,
            report.result.stretch_bound,
        );
    }
    println!("\nThe trade-off of Theorem 1.1: fewer iterations <-> more stretch.");
}
