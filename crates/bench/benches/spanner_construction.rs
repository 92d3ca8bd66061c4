//! Criterion timing of the spanner constructions (the wall-clock side of
//! experiments E2/E3/E4/E5/E8; the model-cost side lives in the
//! experiment binaries), driven through the unified pipeline API, and of
//! the graph construction every workload starts with.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use spanner_core::coins::splitmix64;
use spanner_core::pipeline::{Algorithm, SpannerRequest};
use spanner_core::unweighted_ok::UnweightedOkConfig;
use spanner_core::TradeoffParams;
use spanner_graph::generators::{Family, WeightModel};
use spanner_graph::GraphBuilder;

fn run(request: &SpannerRequest<'_>) -> usize {
    request.run().expect("valid request").size()
}

fn bench_algorithms(c: &mut Criterion) {
    let g = Family::ErdosRenyi {
        n: 2048,
        avg_deg: 12.0,
    }
    .generate(WeightModel::PowersOfTwo(8), 0xB0);
    let k = 16u32;

    let mut group = c.benchmark_group("spanner_construction");
    let cases = [
        ("baswana_sen", Algorithm::BaswanaSen { k }),
        ("cluster_merging", Algorithm::ClusterMerging { k }),
        ("sqrt_k", Algorithm::SqrtK { k }),
        (
            "general_log_k",
            Algorithm::General(TradeoffParams::log_k(k)),
        ),
    ];
    for (name, algorithm) in cases {
        let request = SpannerRequest::new(&g, algorithm).seed(1);
        group.bench_function(BenchmarkId::new(name, k), |b| b.iter(|| run(&request)));
    }
    group.finish();
}

fn bench_k_scaling(c: &mut Criterion) {
    let g = Family::ErdosRenyi {
        n: 2048,
        avg_deg: 12.0,
    }
    .generate(WeightModel::Uniform(1, 64), 0xB1);
    let mut group = c.benchmark_group("k_scaling");
    for k in [4u32, 16, 64] {
        let request = SpannerRequest::new(&g, Algorithm::General(TradeoffParams::log_k(k))).seed(1);
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, _| {
            b.iter(|| run(&request))
        });
    }
    group.finish();
}

/// Thread-scaling probe for the engine's grow steps and contractions,
/// which decide one super-node range per pool thread: Theorem 1.1's
/// log-k schedule at n = 2^14 at 1 thread, 2 threads and the pool
/// default. Shim splitting is capped via `ThreadPool::install`, so all
/// counts run in one process.
fn bench_engine_threads(c: &mut Criterion) {
    let g = Family::ErdosRenyi {
        n: 1 << 14,
        avg_deg: 16.0,
    }
    .generate(WeightModel::Uniform(1, 64), 0xB3);
    let request = SpannerRequest::new(&g, Algorithm::General(TradeoffParams::log_k(16))).seed(1);
    let mut group = c.benchmark_group("engine_threads");
    let mut counts = vec![1usize, 2, rayon::current_num_threads()];
    counts.sort_unstable();
    counts.dedup();
    for threads in counts {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        group.bench_with_input(BenchmarkId::new("threads", threads), &threads, |b, _| {
            b.iter(|| pool.install(|| run(&request)))
        });
    }
    group.finish();
}

fn bench_unweighted_ok(c: &mut Criterion) {
    let g = Family::ErdosRenyi {
        n: 1024,
        avg_deg: 10.0,
    }
    .generate(WeightModel::Unit, 0xB2)
    .unweighted_copy();
    let request = SpannerRequest::new(
        &g,
        Algorithm::UnweightedOk {
            k: 3,
            config: UnweightedOkConfig::default(),
        },
    )
    .seed(1);
    c.bench_function("unweighted_ok_k3", |b| b.iter(|| run(&request)));
}

/// Graph construction at the size of the benchmark's `spanner-seq`
/// inputs (connected Erdős–Rényi, n = 2^17, average degree 32,
/// m ≈ 2.2M) at 1 and 2 threads: generating one instance, and building
/// a `Graph` from that instance's edges in shuffled order (the time
/// includes adding the edges to the builder).
fn bench_graph_build(c: &mut Criterion) {
    let n = 1 << 17;
    let family = Family::ErdosRenyi { n, avg_deg: 32.0 };
    let weights = WeightModel::PowersOfTwo(8);
    let mut shuffled = family.generate(weights, 0xB4).edges().to_vec();
    shuffled.sort_unstable_by_key(|e| splitmix64(u64::from(e.u) << 32 | u64::from(e.v)));
    let mut group = c.benchmark_group("graph_build");
    for threads in [1usize, 2] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        group.bench_with_input(
            BenchmarkId::new("connected_er", threads),
            &threads,
            |b, _| b.iter(|| pool.install(|| family.generate(weights, 0xB4).m())),
        );
        group.bench_with_input(
            BenchmarkId::new("shuffled_edges", threads),
            &threads,
            |b, _| {
                b.iter(|| {
                    pool.install(|| {
                        let mut builder = GraphBuilder::new(n);
                        for e in &shuffled {
                            builder.add_edge(e.u, e.v, e.w);
                        }
                        builder.build().m()
                    })
                })
            },
        );
    }
    group.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_algorithms, bench_k_scaling, bench_engine_threads, bench_unweighted_ok,
        bench_graph_build
);
criterion_main!(benches);
