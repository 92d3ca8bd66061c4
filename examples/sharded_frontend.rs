//! Scenario: the **sharded serving tier with an async front door** —
//! N `SpannerService` shards behind a `ShardedService`, drained by a
//! `JobQueue` that mixes interactive and batch traffic from many
//! clients.
//!
//! This is the scale-out shape of `service_frontend`: instead of one
//! registry/store behind one lock, graphs are spread across shards by a
//! hash of their key, and instead of blocking submitters, clients get a
//! `JobId` back immediately and collect results later:
//!
//! 1. register a fleet of workload graphs — the key hash routes each to
//!    its owning shard;
//! 2. submit a mixed-priority job stream from several client threads
//!    (`Interactive` point lookups racing a `Priority::Batch` warm-up
//!    sweep) and wait on the ids — every job resolves exactly once;
//! 3. verify shard-count transparency: a 1-shard tier returns
//!    bit-identical spanners for the same seeds;
//! 4. re-register one mutated graph: the version bump purges stale
//!    artifacts on whichever shard owns the key;
//! 5. print the cross-shard stats rollup plus the queue counters a
//!    dashboard would scrape.
//!
//! ```sh
//! cargo run --release --example sharded_frontend
//! ```

use std::sync::Arc;
use std::time::Instant;

use mpc_spanners::core::TradeoffParams;
use mpc_spanners::graph::edge::Edge;
use mpc_spanners::graph::generators::{connected_erdos_renyi, WeightModel};
use mpc_spanners::graph::Graph;
use mpc_spanners::pipeline::{Algorithm, ClientId, JobQueue, JobSpec, Priority, ShardedService};

fn alg() -> Algorithm {
    Algorithm::General(TradeoffParams::new(4, 2))
}

fn main() {
    // -- 1. a 4-shard tier and a fleet of graphs ----------------------
    let tier = Arc::new(ShardedService::new(4));
    let handles: Vec<_> = (0..6u64)
        .map(|s| {
            tier.register(connected_erdos_renyi(
                300,
                0.03,
                WeightModel::Uniform(1, 16),
                s,
            ))
        })
        .collect();
    let owners: Vec<usize> = handles
        .iter()
        .map(|h| tier.shard_for(h.fingerprint()))
        .collect();
    println!(
        "registered {} graphs across {} shards (owners: {owners:?})",
        tier.registered(),
        tier.shard_count(),
    );
    assert_eq!(tier.registered(), handles.len());

    // -- 2. mixed-priority traffic through the job queue --------------
    let queue = Arc::new(JobQueue::start(Arc::clone(&tier), 2));
    let t0 = Instant::now();
    let clients = 4u64;
    let jobs_per_client = 8u64;
    std::thread::scope(|scope| {
        for client in 0..clients {
            let queue = Arc::clone(&queue);
            let handles = handles.clone();
            scope.spawn(move || {
                let mut ids = Vec::new();
                for j in 0..jobs_per_client {
                    let handle = &handles[((client + j) % handles.len() as u64) as usize];
                    // Even jobs: interactive spanner lookups. Odd jobs:
                    // batch oracle warm-up builds behind them.
                    let spec = if j % 2 == 0 {
                        JobSpec::spanner(handle, alg()).seed(j % 2)
                    } else {
                        JobSpec::oracle(handle, alg())
                            .seed(j % 2)
                            .priority(Priority::Batch)
                    };
                    ids.push(queue.submit(spec.client(ClientId(client))));
                }
                for id in ids {
                    let output = queue.wait(id).expect("job resolves");
                    assert!(
                        output.spanner().is_some() || output.oracle().is_some(),
                        "every job carries an artifact"
                    );
                }
            });
        }
    });
    let submitted = clients * jobs_per_client;
    println!(
        "drained {submitted} mixed-priority jobs from {clients} clients in {:.2?}",
        t0.elapsed()
    );
    let qstats = queue.stats();
    assert_eq!(qstats.submitted, submitted);
    assert_eq!(
        qstats.completed, submitted,
        "every job resolves exactly once"
    );
    assert_eq!(qstats.failed, 0);
    assert_eq!(qstats.queued_now, 0);

    // -- 3. shard-count transparency ----------------------------------
    // The same jobs on a single-shard tier: bit-identical spanners,
    // because artifacts are pure functions of (graph, seed, algorithm).
    let single = ShardedService::new(1);
    for (i, handle) in handles.iter().take(2).enumerate() {
        let h1 = single.register(handle.graph_arc());
        let a = single.spanner(&h1, alg()).seed(0).run().unwrap();
        let b = tier.spanner(handle, alg()).seed(0).run().unwrap();
        assert_eq!(
            a.result.edges, b.result.edges,
            "graph {i}: shard count must be unobservable in answers"
        );
    }
    println!("1-shard and 4-shard tiers agree bit-for-bit");

    // -- 4. rebalance on re-registration ------------------------------
    let victim = &handles[0];
    let owner = tier.shard_for(victim.fingerprint());
    let old_graph = victim.graph();
    let mutated = Graph::from_edges(
        old_graph.n(),
        old_graph
            .edges()
            .iter()
            .enumerate()
            .map(|(i, e)| Edge::new(e.u, e.v, if i == 0 { 1_000 } else { e.w })),
    );
    let invalidations_before = tier.shard(owner).stats().invalidations;
    let reregistered = tier.register_keyed(victim.fingerprint(), mutated);
    assert_eq!(
        tier.shard_for(reregistered.fingerprint()),
        owner,
        "equal key must route to the shard holding the old version"
    );
    assert!(reregistered.version() > victim.version(), "version bumped");
    assert!(
        tier.shard(owner).stats().invalidations > invalidations_before,
        "stale artifacts purged on the owning shard"
    );
    println!(
        "re-registration landed on shard {owner}: version {} → {}",
        victim.version(),
        reregistered.version()
    );

    // -- 5. the dashboard lines ---------------------------------------
    println!("tier rollup:  {}", tier.stats().summary());
    for (i, stats) in tier.per_shard_stats().iter().enumerate() {
        println!("  shard {i}:   {}", stats.summary());
    }
    println!("queue stats:  {}", qstats.summary());
}
