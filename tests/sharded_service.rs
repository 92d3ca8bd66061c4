//! The sharded serving tier's contract:
//!
//! 1. **Shard count is unobservable in answers** — for random graph
//!    sets and job mixes, `ShardedService::new(n)` for n ∈ {1, 2, 8}
//!    returns bit-identical `RunReport`s and oracle answers to a bare
//!    `SpannerService`, because artifacts are pure functions of
//!    `(graph, version, algorithm, backend, seed, engine)`.
//! 2. **Stats roll up exactly** — the cross-shard `ServiceStats`
//!    rollup sums to the same totals a bare service records for the
//!    same traffic, and equals the sum of the per-shard snapshots.
//! 3. **Rebalance-on-reregistration** — re-registering mutated content
//!    under an equal registry key routes to whichever shard holds the
//!    previous version and purges its artifacts there; the new handle
//!    is never served the old version's oracle.

use std::sync::Arc;

use proptest::prelude::*;

use mpc_spanners::core::TradeoffParams;
use mpc_spanners::graph::edge::Edge;
use mpc_spanners::graph::generators::{connected_erdos_renyi, WeightModel};
use mpc_spanners::graph::Graph;
use mpc_spanners::pipeline::{Algorithm, DistanceRequest, ShardedService, SpannerService};

fn alg() -> Algorithm {
    Algorithm::General(TradeoffParams::new(4, 2))
}

fn sample_queries(n: u32) -> Vec<(u32, u32)> {
    (0..32u32)
        .map(|i| ((i * 7) % n, (i * 31 + 3) % n))
        .collect()
}

/// One job in a mix: which graph it targets, its seed, and whether it
/// is a spanner build or an oracle build.
#[derive(Debug, Clone, Copy)]
struct MixedJob {
    graph: usize,
    seed: u64,
    oracle: bool,
}

fn arb_job_mix(graphs: usize) -> impl Strategy<Value = Vec<MixedJob>> {
    proptest::collection::vec(
        (0..graphs, 0u64..3, 0u8..2).prop_map(|(graph, seed, oracle)| MixedJob {
            graph,
            seed,
            oracle: oracle == 1,
        }),
        1..12,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Invariants 1 and 2: run the same job mix against a bare service
    /// and against 1-, 2- and 8-shard tiers; answers and stats totals
    /// must agree everywhere.
    #[test]
    fn shard_count_is_unobservable_in_answers_and_stats(
        graph_seeds in proptest::collection::vec(0u64..1000, 1..4),
        jobs in arb_job_mix(3),
    ) {
        let graphs: Vec<Graph> = graph_seeds
            .iter()
            .map(|&s| connected_erdos_renyi(40, 0.12, WeightModel::Uniform(1, 8), s))
            .collect();
        let queries = sample_queries(40);

        // Ground truth: a bare, unsharded service.
        let bare = SpannerService::new();
        let bare_handles: Vec<_> = graphs.iter().map(|g| bare.register(g.clone())).collect();
        let mut expected = Vec::new();
        for job in &jobs {
            let g = job.graph % graphs.len();
            if job.oracle {
                let oracle = bare
                    .oracle(&bare_handles[g], alg())
                    .seed(job.seed)
                    .build()
                    .unwrap();
                expected.push((None, Some(oracle.query_batch(&queries))));
            } else {
                let report = bare
                    .spanner(&bare_handles[g], alg())
                    .seed(job.seed)
                    .run()
                    .unwrap();
                expected.push((Some(report.result.edges.clone()), None));
            }
        }
        let bare_stats = bare.stats();

        for shards in [1usize, 2, 8] {
            let tier = ShardedService::new(shards);
            let handles: Vec<_> = graphs.iter().map(|g| tier.register(g.clone())).collect();
            for (job, expect) in jobs.iter().zip(&expected) {
                let g = job.graph % graphs.len();
                if job.oracle {
                    let oracle = tier
                        .oracle(&handles[g], alg())
                        .seed(job.seed)
                        .build()
                        .unwrap();
                    prop_assert_eq!(
                        &oracle.query_batch(&queries),
                        expect.1.as_ref().unwrap(),
                        "oracle answers diverged at {} shards", shards
                    );
                } else {
                    let report = tier
                        .spanner(&handles[g], alg())
                        .seed(job.seed)
                        .run()
                        .unwrap();
                    prop_assert_eq!(
                        &report.result.edges,
                        expect.0.as_ref().unwrap(),
                        "spanner edges diverged at {} shards", shards
                    );
                }
            }

            // Identical traffic ⇒ identical rollup totals: the shard
            // split changes where counters live, never their sums.
            let rollup = tier.stats();
            prop_assert_eq!(rollup.hits, bare_stats.hits);
            prop_assert_eq!(rollup.misses, bare_stats.misses);
            prop_assert_eq!(rollup.evictions, bare_stats.evictions);
            prop_assert_eq!(rollup.completed, bare_stats.completed);
            prop_assert_eq!(rollup.failed, bare_stats.failed);
            prop_assert_eq!(rollup.store_len, bare_stats.store_len);
            prop_assert_eq!(rollup.store_used_bytes, bare_stats.store_used_bytes);
            prop_assert_eq!(tier.stats().store_len, bare.stats().store_len);
            prop_assert_eq!(tier.registered(), bare.registered());

            // ... and the rollup is exactly the per-shard sum.
            let per_shard = tier.per_shard_stats();
            prop_assert_eq!(
                rollup.hits + rollup.misses,
                per_shard.iter().map(|s| s.hits + s.misses).sum::<u64>()
            );
        }
    }
}

/// Invariant 3, the sharded twin of `service_api.rs`'s stale-serving
/// test: a `register_keyed` re-registration with mutated content must
/// land on — and purge — whichever of the 8 shards holds the previous
/// version.
#[test]
fn reregistration_purges_the_owning_shard_across_the_tier() {
    let n = 24u32;
    let path = |bridge_weight: u64| -> Graph {
        Graph::from_edges(
            n as usize,
            (0..n - 1).map(|v| Edge::new(v, v + 1, if v == 10 { bridge_weight } else { 1 })),
        )
    };
    let g1 = path(1);
    let g2 = path(9);
    assert_ne!(
        g1.fingerprint(),
        g2.fingerprint(),
        "sanity: contents differ"
    );

    let key = 0x0C01_11DE_u64;
    let tier = ShardedService::new(8);
    let owner = tier.shard_for(key);

    let h1 = tier.register_keyed(key, g1);
    assert_eq!(
        tier.shard(owner).registered(),
        1,
        "registration must land on the key's owning shard"
    );
    let o1 = tier.oracle(&h1, alg()).seed(4).build().unwrap();
    assert_eq!(o1.query(0, n - 1), 23, "unit-weight path end to end");
    assert_eq!(tier.shard(owner).stats().store_len, 1);

    // Re-register mutated content under the SAME key: routing by key
    // sends it to the shard already holding version 1, whose version
    // bump purges the stale oracle right there.
    let h2 = tier.register_keyed(key, g2.clone());
    assert_eq!(h1.fingerprint(), h2.fingerprint(), "same registry key");
    assert_eq!(h1.version(), 1);
    assert_eq!(h2.version(), 2, "different content must bump the version");
    let owner_stats = tier.shard(owner).stats();
    assert!(
        owner_stats.invalidations >= 1,
        "the owning shard must invalidate the old version's artifacts"
    );
    assert_eq!(
        tier.stats().invalidations,
        owner_stats.invalidations,
        "no other shard is involved"
    );

    // The new handle gets a fresh oracle for g2 — never g1's cached one.
    let o2 = tier.oracle(&h2, alg()).seed(4).build().unwrap();
    let direct = DistanceRequest::new(&g2, alg()).seed(4).build().unwrap();
    assert_eq!(o2.query(0, n - 1), direct.query(0, n - 1));
    assert_eq!(o2.query(0, n - 1), 31, "re-weighted bridge must be visible");
    assert_ne!(o1.query(0, n - 1), o2.query(0, n - 1));

    // The whole episode stayed on one shard; every other shard is idle.
    for i in (0..8).filter(|&i| i != owner) {
        let s = tier.shard(i).stats();
        assert_eq!(
            (
                s.hits,
                s.misses,
                s.invalidations,
                tier.shard(i).registered()
            ),
            (0, 0, 0, 0),
            "shard {i} should never have seen this key"
        );
    }
}

/// Per-shard budgets: the same traffic that thrashes one small store
/// fits when each shard brings its own budget (total capacity scales
/// with the shard count).
#[test]
fn per_shard_budgets_scale_store_capacity() {
    use mpc_spanners::pipeline::HeapSize;

    let graphs: Vec<Graph> = (0..4u64)
        .map(|s| connected_erdos_renyi(40, 0.12, WeightModel::Uniform(1, 8), s))
        .collect();

    // Budget sized to hold roughly one spanner report per shard.
    let probe = SpannerService::new();
    let h = probe.register(graphs[0].clone());
    let one = probe.spanner(&h, alg()).seed(0).run().unwrap().heap_size();
    let per_shard_budget = one * 2;

    let run_all = |tier: &ShardedService| {
        for g in &graphs {
            let h = tier.register(g.clone());
            tier.spanner(&h, alg()).seed(0).run().unwrap();
        }
    };

    let single = ShardedService::with_budget(1, per_shard_budget);
    run_all(&single);
    let sharded = ShardedService::with_budget(8, per_shard_budget);
    run_all(&sharded);

    assert!(
        sharded.stats().store_len >= single.stats().store_len,
        "per-shard budgets must never cache less: {} < {}",
        sharded.stats().store_len,
        single.stats().store_len
    );
    assert!(
        sharded.stats().evictions <= single.stats().evictions,
        "splitting the keyspace cannot add evictions"
    );
}

/// The sharded mirror of the service warm-up test: warming across
/// shards through the job queue ("submit N at batch priority, wait N")
/// leaves later traffic all-hits on every shard.
#[test]
fn prebuild_warms_every_owning_shard() {
    use mpc_spanners::pipeline::{JobId, JobQueue, JobSpec, Priority};

    let tier = Arc::new(ShardedService::new(4));
    let handles: Vec<_> = (0..4u64)
        .map(|s| {
            tier.register(connected_erdos_renyi(
                40,
                0.12,
                WeightModel::Uniform(1, 8),
                s,
            ))
        })
        .collect();
    let queue = JobQueue::with_defaults(Arc::clone(&tier));
    let warmup: Vec<JobId> = handles
        .iter()
        .map(|h| queue.submit(JobSpec::spanner(h, alg()).seed(1).priority(Priority::Batch)))
        .collect();
    for id in warmup {
        queue.wait(id).expect("warm-up build");
    }
    assert_eq!(tier.stats().store_len, 4);

    let misses_after_warmup = tier.stats().misses;
    for h in &handles {
        let a = tier.spanner(h, alg()).seed(1).run().unwrap();
        let b = tier.spanner(h, alg()).seed(1).run().unwrap();
        assert!(
            Arc::ptr_eq(&a, &b),
            "warm traffic must be served from the store"
        );
    }
    let stats = tier.stats();
    assert_eq!(
        stats.misses, misses_after_warmup,
        "warm traffic never executes"
    );
    assert_eq!(stats.hits, 8);
}
