//! Predicted cluster time on real pipeline runs: a run's `Metrics`
//! priced under a `NetworkModel` (`Metrics::predicted_seconds`) must
//! follow the model's laws, and the Section 7 oracle must price its
//! gather on top of the spanner build it collects.
//!
//! The closed form itself (the prediction equals the sum of the
//! per-round costs) is pinned in mpc-runtime's unit tests.

use mpc_spanners::core::TradeoffParams;
use mpc_spanners::graph::generators::{connected_erdos_renyi, WeightModel};
use mpc_spanners::pipeline::{
    Algorithm, Backend, DistanceRequest, MpcDeployment, NetworkModel, QueryEngine, SpannerRequest,
};

fn mesh(latency_s: f64, bytes_per_sec: f64) -> NetworkModel {
    NetworkModel::FullMesh {
        latency_s,
        bytes_per_sec,
    }
}

/// Integration pin of the model laws on a real run: FullMesh predicted
/// wall-clock grows with latency and shrinks with bandwidth.
#[test]
fn full_mesh_prediction_is_monotone_on_a_real_run() {
    let g = connected_erdos_renyi(300, 0.03, WeightModel::Uniform(1, 16), 2);
    let run = SpannerRequest::new(&g, Algorithm::General(TradeoffParams::new(4, 2)))
        .seed(7)
        .on(Backend::mpc())
        .run()
        .unwrap();
    let metrics = &run.stats.mpc().unwrap().metrics;
    let base = metrics.predicted_seconds(mesh(1e-4, 1e9));
    assert!(base > 0.0, "a real run costs simulated time");
    assert!(
        metrics.predicted_seconds(mesh(1e-3, 1e9)) > base,
        "higher latency must predict a slower cluster"
    );
    assert!(
        metrics.predicted_seconds(mesh(1e-4, 1e10)) < base,
        "higher bandwidth must predict a faster cluster"
    );
}

/// The MPC oracle's metrics are the spanner run's plus its one
/// `apsp.collect` gather round, so it predicts a slower cluster than
/// the spanner build alone.
#[test]
fn oracle_prices_the_gather_on_top_of_the_spanner_run() {
    let g = connected_erdos_renyi(400, 0.025, WeightModel::Uniform(1, 32), 9);
    let request = SpannerRequest::new(&g, Algorithm::General(TradeoffParams::new(5, 2)))
        .seed(0xACE)
        .on(Backend::mpc_deployment(MpcDeployment::NearLinear));
    let spanner_run = request.run().unwrap();
    let oracle = DistanceRequest::from_spanner_request(request)
        .engine(QueryEngine::Dijkstra)
        .build()
        .unwrap();
    assert_eq!(oracle.spanner_edges(), &spanner_run.result.edges[..]);

    let built = &spanner_run.stats.mpc().unwrap().metrics;
    let stats = oracle.stats();
    let served = &stats.execution.mpc().unwrap().metrics;
    assert_eq!(stats.gather_rounds, Some(1));
    assert_eq!(served.rounds, built.rounds + 1);
    assert_eq!(served.rounds_by_op.get("apsp.collect"), Some(&1));
    let model = mesh(250e-6, 2e9);
    assert!(
        served.predicted_seconds(model) > built.predicted_seconds(model),
        "the gather round must be priced into the oracle's prediction"
    );
}
