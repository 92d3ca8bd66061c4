//! Scenario: the **serving tier** — one long-lived service (a one-shard
//! `ShardedService`, i.e. one `SpannerService` store, with a `JobQueue`
//! in front) serving heavy query traffic from many concurrent users.
//!
//! The paper's headline application (§1.2, §7) is build-once /
//! query-many: an expensive parallel preprocessing, then millions of
//! cheap approximate-distance queries. This example runs that shape end
//! to end:
//!
//! 1. register two workloads (a road-style grid, a social-style
//!    power-law graph) — handles are `Arc`'d, fingerprint-deduped and
//!    versioned;
//! 2. warm oracles into the memory-budgeted artifact store — submit N
//!    jobs at `Priority::Batch` to the queue, wait N;
//! 3. serve query batches from several client threads — all traffic
//!    hits the store;
//! 4. re-register a mutated road network (a closed bridge): the version
//!    bump invalidates its artifacts, and the next jobs transparently
//!    rebuild against the new topology. All six clients ask for the new
//!    oracle at once, and they share one build: the first to miss
//!    builds, the rest follow that build and get its `Arc`;
//! 5. print the `ServiceStats` counters a dashboard would scrape.
//!
//! ```sh
//! cargo run --release --example service_frontend
//! ```

use std::sync::{Arc, Barrier};
use std::time::Instant;

use mpc_spanners::graph::edge::Edge;
use mpc_spanners::graph::generators::{chung_lu_power_law, grid, WeightModel};
use mpc_spanners::graph::Graph;
use mpc_spanners::pipeline::{
    Algorithm, CorollarySetting, JobId, JobQueue, JobSpec, Priority, QueryEngine, ShardedService,
};

fn apsp_algorithm() -> Algorithm {
    Algorithm::Corollary {
        setting: CorollarySetting::ApspRegime,
        k: 0, // ignored: ApspRegime derives k = ⌈log n⌉
    }
}

fn main() {
    // One shard: a single service's registry and store.
    let service = Arc::new(ShardedService::with_budget(1, 64 << 20));

    // -- 1. register the workloads ------------------------------------
    let road = grid(40, 40, WeightModel::Uniform(1, 9), 7);
    let social = chung_lu_power_law(2000, 12.0, 2.5, WeightModel::Uniform(1, 10), 99);
    let road_handle = service.register(road);
    let social_handle = service.register(social);
    println!(
        "registered {} graphs: road (n={}, m={}), social (n={}, m={})",
        service.registered(),
        road_handle.graph().n(),
        road_handle.graph().m(),
        social_handle.graph().n(),
        social_handle.graph().m(),
    );

    // -- 2. warm-up: submit N at batch priority, wait N ---------------
    let queue = JobQueue::with_defaults(Arc::clone(&service));
    let warmup = [
        JobSpec::oracle(&road_handle, apsp_algorithm()).seed(7),
        JobSpec::oracle(&social_handle, apsp_algorithm())
            .engine(QueryEngine::Sketches { levels: 2 })
            .seed(7),
    ];
    let t0 = Instant::now();
    let ids: Vec<JobId> = warmup
        .into_iter()
        .map(|spec| queue.submit(spec.priority(Priority::Batch)))
        .collect();
    for &id in &ids {
        queue.wait(id).expect("warm-up builds succeed");
    }
    let warmed = service.stats();
    println!(
        "warmed {} oracles in {:.2?} ({} artifacts, {:.1} MiB in store)",
        ids.len(),
        t0.elapsed(),
        warmed.store_len,
        warmed.store_used_bytes as f64 / (1 << 20) as f64,
    );

    // -- 3. serve concurrent traffic ----------------------------------
    let clients = 6usize;
    let batches_per_client = 20usize;
    let queries_per_batch = 256usize;
    let t0 = Instant::now();
    let service_ref = &*service;
    let (road_ref, social_ref) = (&road_handle, &social_handle);
    std::thread::scope(|scope| {
        for client in 0..clients {
            scope.spawn(move || {
                for b in 0..batches_per_client {
                    let (handle, engine, n) = if (client + b) % 2 == 0 {
                        (road_ref, QueryEngine::Dijkstra, road_ref.graph().n() as u32)
                    } else {
                        (
                            social_ref,
                            QueryEngine::Sketches { levels: 2 },
                            social_ref.graph().n() as u32,
                        )
                    };
                    let oracle = service_ref
                        .oracle(handle, apsp_algorithm())
                        .engine(engine)
                        .seed(7)
                        .build()
                        .expect("served from the store");
                    let queries: Vec<(u32, u32)> = (0..queries_per_batch as u32)
                        .map(|i| {
                            let x = i.wrapping_mul(2654435761) ^ client as u32;
                            (x % n, (x >> 8) % n)
                        })
                        .collect();
                    let answers = oracle.query_batch(&queries);
                    assert_eq!(answers.len(), queries.len());
                }
            });
        }
    });
    let served = clients * batches_per_client * queries_per_batch;
    let elapsed = t0.elapsed();
    println!(
        "served {served} queries from {clients} clients in {elapsed:.2?} \
         ({:.0} queries/s)",
        served as f64 / elapsed.as_secs_f64(),
    );
    let stats = service.stats();
    assert!(stats.hits >= (clients * batches_per_client) as u64 - 2);

    // -- 4. topology change: re-register a mutated road network -------
    // Close one road (re-weight an edge heavily) and re-register under
    // the same registry key — the "same logical graph, new content"
    // path: the version bump invalidates every artifact of the old
    // version, so nothing stale can ever be served.
    let old = road_handle.graph();
    let mutated = Graph::from_edges(
        old.n(),
        old.edges().iter().enumerate().map(|(i, e)| {
            let w = if i == 0 { 1_000 } else { e.w };
            Edge::new(e.u, e.v, w)
        }),
    );
    let new_road = service.register_keyed(road_handle.fingerprint(), mutated);
    println!(
        "re-registered road network: version {} → {} ({} artifacts invalidated so far)",
        road_handle.version(),
        new_road.version(),
        service.stats().invalidations,
    );
    let misses_before = service.stats().misses;
    let start = Barrier::new(clients);
    let new_road_ref = &new_road;
    let rebuilt: Vec<_> = std::thread::scope(|scope| {
        let rebuilds: Vec<_> = (0..clients)
            .map(|_| {
                let start = &start;
                scope.spawn(move || {
                    start.wait();
                    service_ref
                        .oracle(new_road_ref, apsp_algorithm())
                        .seed(7)
                        .build()
                        .expect("rebuild against new topology")
                })
            })
            .collect();
        rebuilds
            .into_iter()
            .map(|r| r.join().expect("client thread"))
            .collect()
    });
    assert_eq!(
        service.stats().misses,
        misses_before + 1,
        "{clients} concurrent requests share one rebuild"
    );
    assert!(rebuilt.iter().all(|o| Arc::ptr_eq(o, &rebuilt[0])));
    assert!(rebuilt[0].stretch_bound() >= 1.0);
    println!("{clients} clients rebuilt the road oracle concurrently with one build");

    // -- 5. the dashboard line ----------------------------------------
    println!("service stats: {}", service.stats().summary());
}
