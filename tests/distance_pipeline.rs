//! The distance-serving stage's contract:
//!
//! 1. **Soundness everywhere** — a `DistanceRequest` never
//!    underestimates and respects the composed `σ·(2λ−1)` bound across
//!    {Sequential, Mpc(NearLinear)} × {Dijkstra, Sketches} × random
//!    seeds, and connected pairs never answer INFINITY
//!    (property-tested).
//! 2. **Batched queries are pure fan-out** — `query_batch` is
//!    bit-identical to one-by-one `query` at 1 and N threads.
//! 3. **Builds are shared** — service oracle jobs agreeing on
//!    (graph, version, algorithm, backend, seed, engine) receive the
//!    same `Arc`'d oracle from the store, even when submitted
//!    concurrently; different keys do not.
//! 4. **Collection is charged per model** — on the Congested Clique the
//!    oracle pays Corollary 1.5's Lenzen dissemination of the spanner,
//!    as MPC pays the Section 7 gather.
//! 5. **Serving hooks** — per-request deadlines and job cancellation
//!    produce typed errors instead of hung or silently-dropped work.

use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;
use rayon::prelude::*;

use mpc_spanners::apsp::apsp_request;
use mpc_spanners::core::TradeoffParams;
use mpc_spanners::graph::edge::INFINITY;
use mpc_spanners::graph::generators::{self, Family, WeightModel};
use mpc_spanners::graph::shortest_paths::dijkstra;
use mpc_spanners::graph::Graph;
use mpc_spanners::pipeline::{
    Algorithm, Backend, CancelToken, DistanceRequest, MpcDeployment, PipelineError, QueryEngine,
    SpannerRequest, SpannerService,
};

fn serving_backends() -> [Backend; 2] {
    [
        Backend::Sequential,
        Backend::mpc_deployment(MpcDeployment::NearLinear),
    ]
}

fn engines() -> [QueryEngine; 2] {
    [QueryEngine::Dijkstra, QueryEngine::Sketches { levels: 2 }]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Soundness of every backend × engine combination: answers are
    /// finite for connected pairs, never below the exact distance, and
    /// never above the composed guarantee.
    #[test]
    fn distance_answers_are_sound_across_backends_and_engines(
        n in 40usize..100,
        avg_deg in 4.0f64..9.0,
        seed in 0u64..500,
    ) {
        let g = Family::ErdosRenyi { n, avg_deg }.generate(WeightModel::Uniform(1, 16), seed ^ 0xD15);
        let params = TradeoffParams::new(4, 2);
        for backend in serving_backends() {
            for engine in engines() {
                let request = DistanceRequest::new(&g, Algorithm::General(params))
                    .on(backend)
                    .engine(engine)
                    .seed(seed);
                let plan = request.plan().expect("valid request");
                let oracle = request.build().unwrap_or_else(|e| {
                    panic!("{} × {:?} failed: {e}", backend.name(), engine)
                });
                prop_assert_eq!(oracle.stretch_bound(), plan.stretch_bound);
                for s in [0u32, (n as u32) / 2] {
                    let exact = dijkstra(&g, s).dist;
                    let approx = oracle.distances_from(s);
                    for v in 0..n {
                        if exact[v] == INFINITY {
                            prop_assert_eq!(approx[v], INFINITY);
                            continue;
                        }
                        prop_assert!(
                            approx[v] != INFINITY,
                            "{} × {:?}: connected pair ({s},{v}) dropped",
                            backend.name(), engine
                        );
                        prop_assert!(approx[v] >= exact[v], "underestimate at ({s},{v})");
                        prop_assert!(
                            approx[v] as f64 <= oracle.stretch_bound() * exact[v].max(1) as f64 + 1e-9,
                            "{} × {:?}: ({s},{v}) {} > {} · {}",
                            backend.name(), engine, approx[v], oracle.stretch_bound(), exact[v]
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn query_batch_is_bit_identical_to_serial_queries_at_any_thread_count() {
    let g = generators::connected_erdos_renyi(120, 0.08, WeightModel::Uniform(1, 16), 7);
    let queries: Vec<(u32, u32)> = (0..200u32)
        .map(|i| ((i * 7) % 120, (i * 31 + 5) % 120))
        .collect();
    for engine in engines() {
        let oracle = DistanceRequest::new(&g, Algorithm::General(TradeoffParams::new(4, 2)))
            .engine(engine)
            .seed(3)
            .build()
            .expect("build");
        let serial: Vec<_> = queries.iter().map(|&(u, v)| oracle.query(u, v)).collect();
        for threads in [1usize, 8] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("pool");
            let batched = pool.install(|| oracle.query_batch(&queries));
            assert_eq!(
                batched, serial,
                "{engine:?} at {threads} threads diverged from one-by-one queries"
            );
        }
    }
}

#[test]
fn repeated_batch_entries_share_one_oracle_build() {
    let g = generators::connected_erdos_renyi(90, 0.09, WeightModel::Uniform(1, 8), 11);
    let service = SpannerService::new();
    let handle = service.register(g);
    let make = || {
        service
            .oracle(&handle, Algorithm::General(TradeoffParams::new(4, 2)))
            .engine(QueryEngine::Sketches { levels: 2 })
            .seed(42)
    };
    let jobs = [
        make(),
        make().seed(43),                      // different seed → its own build
        make(),                               // duplicate of slot 0
        make().engine(QueryEngine::Dijkstra), // different engine → its own build
        make(),                               // duplicate of slot 0
    ];
    // Built concurrently: a duplicate either finds its key's oracle in
    // the store or follows the build in flight for it, so each distinct
    // key is built exactly once.
    let oracles: Vec<_> = jobs.par_iter().map(|job| job.build()).collect();
    assert_eq!(oracles.len(), 5);
    let stats = service.stats();
    assert_eq!(stats.misses, 3, "one build per distinct key");
    assert_eq!(stats.store_len, 3, "one stored oracle per distinct key");
    let first = oracles[0].as_ref().expect("build ok");
    for dup in [2usize, 4] {
        assert!(
            Arc::ptr_eq(first, oracles[dup].as_ref().expect("build ok")),
            "slot {dup} must share slot 0's build"
        );
    }
    for distinct in [1usize, 3] {
        assert!(
            !Arc::ptr_eq(first, oracles[distinct].as_ref().expect("build ok")),
            "slot {distinct} must not share slot 0's build"
        );
    }
    // Shared or not, every slot answers identically for its key.
    assert_eq!(
        oracles[0].as_ref().unwrap().query(1, 50),
        first.query(1, 50)
    );
}

/// Corollary 1.5 is the Corollary 1.4 request on the Congested Clique:
/// the same spanner as the sequential oracle at one repetition, and the
/// Lenzen dissemination of its `4·|E_S|` words charged as the
/// collection step, in `gather_rounds` and in the execution rounds.
#[test]
fn congested_clique_oracle_pays_the_lenzen_dissemination() {
    let g = generators::connected_erdos_renyi(96, 0.1, WeightModel::PowersOfTwo(5), 23);
    let seed = 77u64;
    let clique = Backend::CongestedClique { repetitions: 1 };
    let oracle = apsp_request(&g)
        .on(clique)
        .seed(seed)
        .build()
        .expect("clique build");
    let sequential = apsp_request(&g)
        .seed(seed)
        .build()
        .expect("sequential build");
    assert_eq!(oracle.spanner_edges(), sequential.spanner_edges());

    let n = g.n();
    let dissemination = (4 * oracle.spanner_edges().len()).div_ceil(n - 1) as u64 + 2;
    let stats = oracle.stats();
    assert_eq!(stats.gather_rounds, Some(dissemination));
    let construction = apsp_request(&g)
        .on(clique)
        .seed(seed)
        .spanner_request()
        .run()
        .expect("clique run")
        .stats;
    assert_eq!(
        stats.execution.model_rounds(),
        Some(construction.model_rounds().expect("clique rounds") + dissemination),
        "execution rounds are the construction plus the dissemination"
    );
    assert!(
        stats.execution.communication_words() > construction.communication_words(),
        "the dissemination's words are charged too"
    );
}

#[test]
fn deadline_and_cancellation_produce_typed_errors() {
    let g = generators::connected_erdos_renyi(100, 0.08, WeightModel::Uniform(1, 8), 5);
    let params = TradeoffParams::new(4, 2);

    // A deadline no spanner construction can meet.
    let err = SpannerRequest::new(&g, Algorithm::General(params))
        .seed(1)
        .deadline(Duration::ZERO)
        .run()
        .expect_err("zero deadline must be exceeded");
    assert!(
        matches!(err, PipelineError::DeadlineExceeded { .. }),
        "{err}"
    );

    // A generous deadline changes nothing.
    let relaxed = SpannerRequest::new(&g, Algorithm::General(params))
        .seed(1)
        .deadline(Duration::from_secs(3600))
        .run()
        .expect("relaxed deadline passes");
    let unconstrained = SpannerRequest::new(&g, Algorithm::General(params))
        .seed(1)
        .run()
        .expect("no deadline");
    assert_eq!(relaxed.result.edges, unconstrained.result.edges);

    // A fired token fails every job that carries it with Cancelled.
    let service = SpannerService::new();
    let handle = service.register(g.clone());
    let token = CancelToken::new();
    token.cancel();
    let job = |s: u64, token: &CancelToken| {
        service
            .spanner(&handle, Algorithm::General(params))
            .seed(s)
            .cancel(token.clone())
    };
    let reports: Vec<_> = (0..4u64).map(|s| job(s, &token).run()).collect();
    for report in &reports {
        assert!(matches!(report, Err(PipelineError::Cancelled)));
    }
    // An un-fired token is a no-op.
    let unfired = CancelToken::new();
    assert!((0..4u64).all(|s| job(s, &unfired).run().is_ok()));

    // The distance stage inherits both hooks.
    let err = DistanceRequest::new(&g, Algorithm::General(params))
        .deadline(Duration::ZERO)
        .build()
        .expect_err("zero build deadline must be exceeded");
    assert!(matches!(err, PipelineError::DeadlineExceeded { .. }));
    let cancelled = service
        .oracle(&handle, Algorithm::General(params))
        .cancel(token)
        .build();
    assert!(matches!(cancelled, Err(PipelineError::Cancelled)));
}

#[test]
fn sketch_oracle_serves_multi_component_graphs_without_dropouts() {
    // End-to-end version of the component-landmark regression: a
    // disconnected host graph, served through the full pipeline stage.
    let mut edges = Vec::new();
    for v in 0..40u32 {
        edges.push(mpc_spanners::graph::edge::Edge::new(
            v,
            (v + 1) % 41,
            1 + (v as u64 % 4),
        ));
    }
    for v in 41..52u32 {
        edges.push(mpc_spanners::graph::edge::Edge::new(v, v + 1, 2));
    }
    let g = Graph::from_edges(53, edges);
    for seed in 0..10u64 {
        let oracle = DistanceRequest::new(&g, Algorithm::General(TradeoffParams::new(3, 1)))
            .engine(QueryEngine::Sketches { levels: 2 })
            .seed(seed)
            .build()
            .expect("build");
        let exact = dijkstra(&g, 45).dist;
        for v in 41..=52u32 {
            let est = oracle.query(45, v);
            assert!(
                est != INFINITY,
                "seed {seed}: dropped connected pair (45,{v})"
            );
            assert!(est >= exact[v as usize]);
        }
        assert_eq!(
            oracle.query(0, 45),
            INFINITY,
            "cross-component stays INFINITY"
        );
    }
}
