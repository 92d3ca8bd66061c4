//! The facade contract: `mpc_spanners::{graph, mpc, core, apsp}` must
//! re-export the four library crates of the workspace — plus
//! `mpc_spanners::pipeline`, the unified front door — and the names the
//! crate-root rustdoc advertises must resolve *through the facade
//! paths*. A build failure here means a re-export was dropped or
//! renamed — a breaking change for every downstream `use
//! mpc_spanners::...`.

use mpc_spanners::core::TradeoffParams;
use mpc_spanners::graph::generators::{connected_erdos_renyi, WeightModel};
use mpc_spanners::graph::verify::verify_spanner;
use mpc_spanners::graph::Graph;
use mpc_spanners::mpc::{MpcConfig, MpcSystem};

/// Each facade module aliases the same crate the workspace exposes
/// directly, so types must be interchangeable across the two paths.
#[test]
fn facade_types_are_the_workspace_types() {
    // A `Graph` built via the facade path is accepted by functions named
    // via the underlying crates, and vice versa — they are one type.
    let g: Graph = connected_erdos_renyi(64, 0.1, WeightModel::Uniform(1, 8), 3);
    let g2: spanner_graph::Graph = g;
    let general = spanner_core::pipeline::Algorithm::General(TradeoffParams::new(4, 2));
    let r = mpc_spanners::pipeline::SpannerRequest::new(&g2, general)
        .seed(7)
        .run()
        .expect("valid request")
        .result;
    assert!(verify_spanner(&g2, &r.edges).all_edges_spanned);

    // The Corollary 1.4/1.5 request resolves through `apsp` and builds
    // the pipeline's oracle type.
    let oracle: spanner_core::pipeline::DistanceOracle = mpc_spanners::apsp::apsp_request(&g2)
        .seed(7)
        .build()
        .expect("valid request");
    let rep = mpc_spanners::apsp::measure_distance_oracle(&g2, &oracle, 8, 13);
    assert!(rep.max_ratio >= 1.0 - 1e-9);

    let cfg: mpc_runtime::MpcConfig = MpcConfig::explicit(512, 4, 8);
    let _sys: MpcSystem = mpc_spanners::mpc::MpcSystem::new(cfg);
}

/// `mpc_spanners::pipeline` is the same module as
/// `spanner_core::pipeline`, and the advertised request flow works
/// through the facade path.
#[test]
fn pipeline_reexport_resolves_and_runs() {
    use mpc_spanners::pipeline::{Algorithm, Backend, SpannerRequest, Verification};

    let g = connected_erdos_renyi(80, 0.1, WeightModel::Uniform(1, 8), 7);
    let request: spanner_core::pipeline::SpannerRequest =
        SpannerRequest::new(&g, Algorithm::General(TradeoffParams::new(4, 2)))
            .seed(3)
            .verification(Verification::Enforce);
    let plan = request.plan().expect("valid request");
    let report = request.run().expect("guarantees hold");
    assert!(report.result.iterations <= plan.iterations);

    let mpc = request.on(Backend::mpc()).run().expect("mpc run");
    assert_eq!(mpc.result.edges, report.result.edges);
}

/// `mpc_spanners::pipeline::service` (and its re-exported names at the
/// `pipeline` root) resolve through the facade and serve a job — the
/// long-lived front door the crate-root rustdoc advertises.
#[test]
fn service_reexport_resolves_and_serves() {
    use mpc_spanners::pipeline::{Algorithm, SpannerService};

    let g = connected_erdos_renyi(60, 0.1, WeightModel::Uniform(1, 8), 5);
    let service: spanner_core::pipeline::service::SpannerService =
        SpannerService::with_budget(64 << 20);
    let handle = service.register(g);
    let report = service
        .spanner(&handle, Algorithm::General(TradeoffParams::new(4, 2)))
        .seed(3)
        .run()
        .expect("job runs");
    assert!(verify_spanner(handle.graph(), &report.result.edges).all_edges_spanned);
    assert_eq!(service.stats().misses, 1);
}

/// `mpc_spanners::pipeline::{shard, queue}` (and their names at the
/// `pipeline` root) resolve through the facade: the sharded tier and
/// its async front door serve a job end to end.
#[test]
fn sharded_and_queue_reexports_resolve_and_serve() {
    use std::sync::Arc;

    use mpc_spanners::pipeline::{
        Algorithm, ClientId, JobQueue, JobSpec, Priority, ShardedService,
    };

    let g = connected_erdos_renyi(60, 0.1, WeightModel::Uniform(1, 8), 5);
    let tier: Arc<spanner_core::pipeline::shard::ShardedService> = Arc::new(ShardedService::new(2));
    let handle = tier.register(g);
    let queue: spanner_core::pipeline::queue::JobQueue = JobQueue::with_defaults(Arc::clone(&tier));
    let id = queue.submit(
        JobSpec::spanner(&handle, Algorithm::General(TradeoffParams::new(4, 2)))
            .seed(3)
            .priority(Priority::Interactive)
            .client(ClientId(1)),
    );
    let output = queue.wait(id).expect("job resolves");
    let report = output.spanner().expect("spanner job");
    assert!(verify_spanner(handle.graph(), &report.result.edges).all_edges_spanned);
    assert_eq!(tier.stats().misses, 1);
}
