//! Criterion timing of the APSP application (experiment E6's wall-clock
//! side): oracle construction, queries, the verification Dijkstra, the
//! serving layer's query throughput per substrate, and Thorup–Zwick
//! preprocessing at 1 and 2 threads.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use spanner_apsp::apsp_request;
use spanner_core::pipeline::{Algorithm, DistanceRequest, DistanceSketches, QueryEngine};
use spanner_core::TradeoffParams;
use spanner_graph::generators::{Family, WeightModel};
use spanner_graph::shortest_paths::dijkstra;

fn bench_oracle_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("apsp_oracle_build");
    for n in [512usize, 2048] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let g =
                Family::ErdosRenyi { n, avg_deg: 12.0 }.generate(WeightModel::PowersOfTwo(8), 0xA0);
            b.iter(|| apsp_request(&g).seed(1).build().expect("build"))
        });
    }
    group.finish();
}

fn bench_query(c: &mut Criterion) {
    let g = Family::ErdosRenyi {
        n: 2048,
        avg_deg: 12.0,
    }
    .generate(WeightModel::PowersOfTwo(8), 0xA0);
    let oracle = apsp_request(&g).seed(1).build().expect("build");
    c.bench_function("apsp_oracle_sssp_query", |b| {
        b.iter(|| oracle.distances_from(7))
    });
    c.bench_function("apsp_exact_dijkstra_baseline", |b| {
        b.iter(|| dijkstra(&g, 7))
    });
}

/// Point-query throughput of the serving layer, per query substrate:
/// Dijkstra-on-spanner (one traversal per distinct source in the batch)
/// vs Thorup–Zwick sketches (O(λ) per query after preprocessing).
fn bench_distance_queries(c: &mut Criterion) {
    let g = Family::ErdosRenyi {
        n: 2048,
        avg_deg: 12.0,
    }
    .generate(WeightModel::PowersOfTwo(8), 0xA0);
    let n = g.n() as u32;
    let queries: Vec<(u32, u32)> = (0..512u32)
        .map(|i| ((i * 13) % 61, (i * 37 + 11) % n))
        .collect();
    let mut group = c.benchmark_group("distance_queries");
    for (label, engine) in [
        ("dijkstra", QueryEngine::Dijkstra),
        ("sketches_l2", QueryEngine::Sketches { levels: 2 }),
        ("sketches_l3", QueryEngine::Sketches { levels: 3 }),
    ] {
        let oracle = apsp_request(&g)
            .engine(engine)
            .seed(1)
            .build()
            .expect("build");
        group.bench_function(BenchmarkId::new("batch512", label), |b| {
            b.iter(|| oracle.query_batch(&queries))
        });
    }
    group.finish();
}

/// Thorup–Zwick preprocessing of the oracle shape `serve-mixed` serves,
/// which every oracle rebuild there pays: λ = 3 on the `General(8, 2)`
/// spanner of an Erdős–Rényi graph with n = 4096, average degree 12 and
/// `PowersOfTwo(8)` weights, at 1 and 2 pool threads.
fn bench_tz_preprocess(c: &mut Criterion) {
    const SEED: u64 = 0x0AC1E;
    let g = Family::ErdosRenyi {
        n: 4096,
        avg_deg: 12.0,
    }
    .generate(WeightModel::PowersOfTwo(8), 0xA0);
    let oracle = DistanceRequest::new(&g, Algorithm::General(TradeoffParams::new(8, 2)))
        .seed(SEED)
        .build()
        .expect("build");
    let mut group = c.benchmark_group("tz_preprocess");
    for threads in [1usize, 2] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        group.bench_with_input(
            BenchmarkId::new("serve_mixed_l3", threads),
            &threads,
            |b, _| {
                b.iter(|| {
                    pool.install(|| DistanceSketches::preprocess(oracle.spanner(), 3, SEED))
                        .total_entries()
                })
            },
        );
    }
    group.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_oracle_build, bench_query, bench_distance_queries, bench_tz_preprocess
);
criterion_main!(benches);
