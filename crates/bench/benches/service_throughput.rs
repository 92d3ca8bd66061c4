//! Criterion timing of the long-lived serving layer: what does
//! register-once/serve-many buy over the one-shot API?
//!
//! Three shapes on the same workload (n = 1024 Erdős–Rényi, the
//! Corollary 1.4-style schedule, 512-query batches):
//!
//! * **cached_oracle** — `SpannerService` job against a warm store:
//!   the artifact is served from the budgeted LRU (the steady-state
//!   serving path). Expected to beat rebuild-per-request by far more
//!   than the acceptance bar of 10×;
//! * **rebuild_per_request** — the one-shot `DistanceRequest::build`
//!   every time, the pre-service architecture where every caller
//!   re-submits the graph and rebuilds the oracle;
//! * **spanner_job_hit** — the spanner-artifact flavour of the hit
//!   path (store lookup + `Arc` clone, no queries), isolating the
//!   service overhead itself.

use criterion::{criterion_group, criterion_main, Criterion};
use spanner_core::pipeline::{Algorithm, DistanceRequest, QueryEngine, SpannerService};
use spanner_core::TradeoffParams;
use spanner_graph::generators::{Family, WeightModel};
use spanner_graph::Graph;

fn workload() -> Graph {
    Family::ErdosRenyi {
        n: 1024,
        avg_deg: 10.0,
    }
    .generate(WeightModel::Uniform(1, 32), 0x5E7)
}

fn alg() -> Algorithm {
    Algorithm::General(TradeoffParams::new(8, 2))
}

fn queries(n: u32) -> Vec<(u32, u32)> {
    (0..512u32)
        .map(|i| ((i.wrapping_mul(2654435761)) % n, (i * 37 + 11) % n))
        .collect()
}

fn bench_service_throughput(c: &mut Criterion) {
    let g = workload();
    let q = queries(g.n() as u32);
    let engine = QueryEngine::Sketches { levels: 2 };

    let service = SpannerService::new();
    let handle = service.register(g.clone());
    // Warm the store so the cached path measures steady state.
    service
        .oracle(&handle, alg())
        .engine(engine)
        .seed(7)
        .build()
        .expect("warm-up build");
    service
        .spanner(&handle, alg())
        .seed(7)
        .run()
        .expect("warm-up run");

    let mut group = c.benchmark_group("service_throughput");
    group.bench_function("cached_oracle/512_queries", |b| {
        b.iter(|| {
            let oracle = service
                .oracle(&handle, alg())
                .engine(engine)
                .seed(7)
                .build()
                .expect("store hit");
            oracle.query_batch(&q)
        })
    });
    group.bench_function("rebuild_per_request/512_queries", |b| {
        b.iter(|| {
            let oracle = DistanceRequest::new(&g, alg())
                .engine(engine)
                .seed(7)
                .build()
                .expect("one-shot rebuild");
            oracle.query_batch(&q)
        })
    });
    group.bench_function("spanner_job_hit", |b| {
        b.iter(|| {
            service
                .spanner(&handle, alg())
                .seed(7)
                .run()
                .expect("store hit")
        })
    });
    group.finish();

    let stats = service.stats();
    println!(
        "service stats after benches: {} (hit rate {:.1}%)",
        stats.summary(),
        100.0 * stats.hit_rate()
    );
}

criterion_group!(benches, bench_service_throughput);
criterion_main!(benches);
