//! Criterion timing of the sharded serving tier and its async front
//! door: what do shards and the job queue cost (or buy) over a bare
//! `SpannerService`?
//!
//! Four shapes on the same workload (eight n = 512 Erdős–Rényi graphs,
//! warm stores, spanner store-hit jobs):
//!
//! * **blocking/1_shard** and **blocking/4_shards** — the synchronous
//!   job path through a `ShardedService`: one round over all eight
//!   graphs. The delta between the two is the routing overhead (key
//!   hash + per-shard locks); on a single-CPU container the 4-shard
//!   tier cannot also show its lock-contention win, so treat parity as
//!   the expected result there;
//! * **queued/1_shard** and **queued/4_shards** — the same round
//!   submitted through a `JobQueue` (2 workers) and drained with
//!   `wait`: measures the submit/dispatch/resolve machinery on top of
//!   the store hit.
//!
//! The queue's condvar handshake costs microseconds per job; the bar
//! is that `queued` stays within a small constant factor of `blocking`
//! for store-hit traffic, not that it wins — its purpose is
//! non-blocking submission and lane/fairness policy, not raw latency.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};
use spanner_core::pipeline::{Algorithm, GraphHandle, JobQueue, JobSpec, ShardedService};
use spanner_core::TradeoffParams;
use spanner_graph::generators::{Family, WeightModel};
use spanner_graph::Graph;

fn workloads() -> Vec<Graph> {
    (0..8u64)
        .map(|s| {
            Family::ErdosRenyi {
                n: 512,
                avg_deg: 8.0,
            }
            .generate(WeightModel::Uniform(1, 32), 0xA11 + s)
        })
        .collect()
}

fn alg() -> Algorithm {
    Algorithm::General(TradeoffParams::new(8, 2))
}

fn warm_tier(shards: usize, graphs: &[Graph]) -> (Arc<ShardedService>, Vec<GraphHandle>) {
    let tier = Arc::new(ShardedService::new(shards));
    let handles: Vec<_> = graphs.iter().map(|g| tier.register(g.clone())).collect();
    for handle in &handles {
        tier.spanner(handle, alg())
            .seed(7)
            .run()
            .expect("warm-up build");
    }
    (tier, handles)
}

fn bench_sharded_throughput(c: &mut Criterion) {
    let graphs = workloads();
    let mut group = c.benchmark_group("sharded_throughput");

    for shards in [1usize, 4] {
        let (tier, handles) = warm_tier(shards, &graphs);
        group.bench_function(format!("blocking/{shards}_shard"), |b| {
            b.iter(|| {
                for handle in &handles {
                    tier.spanner(handle, alg())
                        .seed(7)
                        .run()
                        .expect("store hit");
                }
            })
        });

        let queue = JobQueue::start(Arc::clone(&tier), 2);
        group.bench_function(format!("queued/{shards}_shard"), |b| {
            b.iter(|| {
                let ids: Vec<_> = handles
                    .iter()
                    .map(|handle| queue.submit(JobSpec::spanner(handle, alg()).seed(7)))
                    .collect();
                for id in ids {
                    queue.wait(id).expect("store hit");
                }
            })
        });

        println!(
            "{shards}-shard tier after benches: {} | queue: {}",
            tier.stats().summary(),
            queue.stats().summary()
        );
    }
    group.finish();
}

criterion_group!(benches, bench_sharded_throughput);
criterion_main!(benches);
