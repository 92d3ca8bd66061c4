//! Criterion timing of a pipeline fan-out — the serving-shaped
//! workload: many independent `SpannerRequest`s executed concurrently
//! through the rayon pool with `par_iter().map(SpannerRequest::run)`.
//!
//! Two axes:
//!
//! * **thread scaling** — the same batch under a 1-thread pool vs the
//!   process default (`RAYON_NUM_THREADS`), via `ThreadPool::install`,
//!   so both counts run in one process;
//! * **batch composition** — a homogeneous batch (one algorithm, many
//!   seeds: the best-of-R amplification shape) vs a mixed batch
//!   (several algorithms × backends: the cross-model comparison shape).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rayon::prelude::*;
use spanner_core::pipeline::{Algorithm, Backend, SpannerRequest};
use spanner_core::TradeoffParams;
use spanner_graph::generators::{Family, WeightModel};
use spanner_graph::Graph;

fn workload() -> Graph {
    Family::ErdosRenyi {
        n: 1024,
        avg_deg: 10.0,
    }
    .generate(WeightModel::Uniform(1, 32), 0xBA7C)
}

fn homogeneous(g: &Graph, requests: usize) -> Vec<SpannerRequest<'_>> {
    (0..requests as u64)
        .map(|seed| SpannerRequest::new(g, Algorithm::General(TradeoffParams::log_k(8))).seed(seed))
        .collect()
}

fn mixed(g: &Graph) -> Vec<SpannerRequest<'_>> {
    let params = TradeoffParams::new(8, 2);
    vec![
        SpannerRequest::new(g, Algorithm::General(params)).seed(1),
        SpannerRequest::new(g, Algorithm::ClusterMerging { k: 8 }).seed(1),
        SpannerRequest::new(g, Algorithm::General(params))
            .on(Backend::Streaming)
            .seed(1),
        SpannerRequest::new(g, Algorithm::General(params))
            .on(Backend::Pram)
            .seed(1),
        SpannerRequest::new(g, Algorithm::General(params))
            .on(Backend::congested_clique())
            .seed(1),
        SpannerRequest::new(g, Algorithm::BaswanaSen { k: 8 }).seed(1),
    ]
}

fn run_batch(requests: &[SpannerRequest<'_>]) -> usize {
    requests
        .par_iter()
        .map(|request| request.run().expect("valid request").size())
        .sum()
}

fn bench_batch_threads(c: &mut Criterion) {
    let g = workload();
    let batch = homogeneous(&g, 8);
    let default_threads = rayon::current_num_threads();
    let mut group = c.benchmark_group("pipeline_batch_threads");
    for threads in [1usize, default_threads] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("pool");
        group.bench_with_input(
            BenchmarkId::new("batch8_general_log_k", threads),
            &threads,
            |b, _| b.iter(|| pool.install(|| run_batch(&batch))),
        );
    }
    group.finish();
}

fn bench_batch_mixed(c: &mut Criterion) {
    let g = workload();
    let batch = mixed(&g);
    c.bench_function("pipeline_batch_mixed_backends", |b| {
        b.iter(|| run_batch(&batch))
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_batch_threads, bench_batch_mixed
);
criterion_main!(benches);
