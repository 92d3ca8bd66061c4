//! Criterion timing of the MPC runtime primitives (experiment E9's
//! wall-clock side) and of the full distributed driver.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mpc_runtime::{comm, primitives, Dist, MpcConfig, MpcSystem};
use spanner_core::pipeline::{Algorithm, Backend, SpannerRequest};
use spanner_core::TradeoffParams;
use spanner_graph::generators::{Family, WeightModel};

fn bench_sort(c: &mut Criterion) {
    let mut group = c.benchmark_group("mpc_sort");
    for records in [10_000usize, 50_000] {
        group.bench_with_input(BenchmarkId::from_parameter(records), &records, |b, &m| {
            let cfg = MpcConfig::explicit(4096, m.div_ceil(4096) * 2, 8);
            let data: Vec<u64> = (0..m as u64).map(primitives::splitmix64).collect();
            b.iter(|| {
                let mut sys = MpcSystem::new(cfg);
                let d = Dist::distribute(&mut sys, data.clone()).unwrap();
                primitives::sort_by_key(&mut sys, d, "sort", |&x| x).unwrap()
            })
        });
    }
    group.finish();
}

fn bench_aggregate(c: &mut Criterion) {
    let m = 50_000usize;
    let cfg = MpcConfig::explicit(4096, m.div_ceil(4096) * 2, 8);
    let data: Vec<(u64, u64)> = (0..m as u64).map(|i| (i % 997, i)).collect();
    c.bench_function("mpc_aggregate_min_50k", |b| {
        b.iter(|| {
            let mut sys = MpcSystem::new(cfg);
            let d = Dist::distribute(&mut sys, data.clone()).unwrap();
            primitives::aggregate_by_key(&mut sys, d, "agg", |r| r.0, |r| r.1, |a, b| *a.min(b))
                .unwrap()
        })
    });
}

/// The semisort behind the driver's Find Minimum, decide and kill steps:
/// 50k records grouped into 997 keys, with a pass over every run.
fn bench_group(c: &mut Criterion) {
    let m = 50_000usize;
    let cfg = MpcConfig::explicit(4096, m.div_ceil(4096) * 2, 8);
    let data: Vec<(u64, u64)> = (0..m as u64).map(|i| (i % 997, i)).collect();
    c.bench_function("mpc_group_by_key_50k", |b| {
        b.iter(|| {
            let mut sys = MpcSystem::new(cfg);
            let d = Dist::distribute(&mut sys, data.clone()).unwrap();
            primitives::group_by_key(
                &mut sys,
                d,
                "group",
                |r| r.0,
                |run, out| out.push((run[0].0, run.len() as u64)),
            )
            .unwrap()
        })
    });
}

/// Thread-scaling probe for the runtime's hottest primitive: the same
/// distributed sample sort at 1 thread (the pre-parallelism baseline),
/// 2 threads, and the pool default. Shim splitting is capped via
/// `ThreadPool::install`, so all counts run in one process.
fn bench_sort_thread_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("mpc_sort_threads");
    let m = 50_000usize;
    let cfg = MpcConfig::explicit(4096, m.div_ceil(4096) * 2, 8);
    let data: Vec<u64> = (0..m as u64).map(primitives::splitmix64).collect();
    let default_threads = rayon::current_num_threads();
    let mut counts = vec![1usize, 2, default_threads];
    counts.sort_unstable();
    counts.dedup();
    for threads in counts {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        group.bench_with_input(BenchmarkId::new("threads", threads), &threads, |b, _| {
            b.iter(|| {
                pool.install(|| {
                    let mut sys = MpcSystem::new(cfg);
                    let d = Dist::distribute(&mut sys, data.clone()).unwrap();
                    primitives::sort_by_key(&mut sys, d, "sort", |&x| x).unwrap()
                })
            })
        });
    }
    group.finish();
}

/// One routing round in the strongly sublinear shape of the benchmark's
/// `mpc-sublinear` workload: 512 machines of 512 words (slack 8) moving
/// 120k 8-word records, at 1 and 2 threads. The groups above stop at 26
/// machines, where a delivery cost that grows with machines² instead of
/// records does not show.
fn bench_route_many_machines(c: &mut Criterion) {
    let mut group = c.benchmark_group("mpc_route_many_machines");
    let machines = 512usize;
    let cfg = MpcConfig::explicit(512, machines, 8);
    let data: Vec<[u64; 8]> = (0..120_000u64)
        .map(|i| [primitives::splitmix64(i); 8])
        .collect();
    for threads in [1usize, 2] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        group.bench_with_input(BenchmarkId::new("threads", threads), &threads, |b, _| {
            b.iter(|| {
                pool.install(|| {
                    let mut sys = MpcSystem::new(cfg);
                    let d = Dist::distribute(&mut sys, data.clone()).unwrap();
                    comm::route(&mut sys, d, "route", |r, _| {
                        (r[0] % machines as u64) as usize
                    })
                    .unwrap()
                })
            })
        });
    }
    group.finish();
}

fn bench_driver(c: &mut Criterion) {
    let g = Family::ErdosRenyi {
        n: 1024,
        avg_deg: 8.0,
    }
    .generate(WeightModel::Uniform(1, 32), 0xB3);
    let input_words = 4 * g.m() + 2 * g.n() + 64;
    let cfg = MpcConfig::explicit(2048, input_words.div_ceil(2048).max(2), 8);
    let request = SpannerRequest::new(&g, Algorithm::General(TradeoffParams::new(8, 3)))
        .on(Backend::mpc_deployment(cfg))
        .seed(1);
    c.bench_function("mpc_driver_k8_t3_n1024", |b| {
        b.iter(|| request.run().expect("the deployment fits the run"))
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_sort, bench_aggregate, bench_group, bench_sort_thread_scaling, bench_route_many_machines, bench_driver
);
criterion_main!(benches);
