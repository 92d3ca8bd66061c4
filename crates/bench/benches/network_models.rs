//! Criterion timing of the two MPC executors side by side: the loop
//! engine against the thread-per-machine engine under each network
//! model. The interesting number is the threaded engine's *overhead* —
//! real threads, a router, and a barrier per round buy the NetReport;
//! this measures what they cost in host wall-clock on identical work.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mpc_runtime::{primitives, Dist, ExecutorKind, MpcConfig, MpcSystem, NetworkModel};
use spanner_core::pipeline::{Algorithm, Backend, SpannerRequest};
use spanner_core::TradeoffParams;
use spanner_graph::generators::{Family, WeightModel};

fn executors() -> Vec<(&'static str, ExecutorKind)> {
    vec![
        ("loop", ExecutorKind::Loop),
        (
            "threaded_ideal",
            ExecutorKind::Threaded(NetworkModel::Ideal),
        ),
        (
            "threaded_full_mesh",
            ExecutorKind::Threaded(NetworkModel::FullMesh {
                latency_s: 100e-6,
                bytes_per_sec: 10e9,
            }),
        ),
        (
            "threaded_switched",
            ExecutorKind::Threaded(NetworkModel::Switched {
                bisection_bytes_per_sec: 50e9,
            }),
        ),
    ]
}

/// One distributed sample sort, the runtime's hottest primitive, on
/// each executor. Pool spawn + teardown is inside the measured loop on
/// purpose: that is what a pipeline run pays per `MpcSystem`.
fn bench_sort_by_executor(c: &mut Criterion) {
    let mut group = c.benchmark_group("net_sort_20k");
    let m = 20_000usize;
    let cfg = MpcConfig::explicit(4096, m.div_ceil(4096) * 2, 8);
    let data: Vec<u64> = (0..m as u64).map(primitives::splitmix64).collect();
    for (name, executor) in executors() {
        group.bench_with_input(BenchmarkId::from_parameter(name), &executor, |b, &ex| {
            b.iter(|| {
                let mut sys = MpcSystem::with_executor(cfg, ex);
                let d = Dist::distribute(&mut sys, data.clone()).unwrap();
                primitives::sort_by_key(&mut sys, d, "sort", |&x| x).unwrap()
            })
        });
    }
    group.finish();
}

/// The full distributed spanner driver on each executor — the
/// end-to-end cost of simulating the cluster with real message motion.
fn bench_driver_by_executor(c: &mut Criterion) {
    let mut group = c.benchmark_group("net_driver_k6_t2_n512");
    let g = Family::ErdosRenyi {
        n: 512,
        avg_deg: 8.0,
    }
    .generate(WeightModel::Uniform(1, 32), 0xB4);
    let input_words = 4 * g.m() + 2 * g.n() + 64;
    let cfg = MpcConfig::explicit(2048, input_words.div_ceil(2048).max(2), 8);
    for (name, executor) in executors() {
        let request = SpannerRequest::new(&g, Algorithm::General(TradeoffParams::new(6, 2)))
            .on(Backend::Mpc {
                deployment: cfg.into(),
                executor,
            })
            .seed(1);
        group.bench_with_input(BenchmarkId::from_parameter(name), &executor, |b, _| {
            b.iter(|| request.run().expect("the deployment fits the run"))
        });
    }
    group.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_sort_by_executor, bench_driver_by_executor
);
criterion_main!(benches);
