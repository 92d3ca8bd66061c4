//! Criterion timing of the Congested Clique pipelines (experiment E7's
//! wall-clock side).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use spanner_apsp::apsp_request;
use spanner_core::pipeline::{Algorithm, Backend, SpannerRequest};
use spanner_core::TradeoffParams;
use spanner_graph::generators::{Family, WeightModel};

fn bench_cc_spanner(c: &mut Criterion) {
    let g = Family::ErdosRenyi {
        n: 512,
        avg_deg: 10.0,
    }
    .generate(WeightModel::Uniform(1, 32), 0xCC);
    let params = TradeoffParams::new(8, 2);
    let mut group = c.benchmark_group("cc_spanner");
    for reps in [1usize, 9] {
        let request = SpannerRequest::new(&g, Algorithm::General(params))
            .on(Backend::CongestedClique { repetitions: reps })
            .seed(1);
        group.bench_with_input(BenchmarkId::from_parameter(reps), &reps, |b, _| {
            b.iter(|| request.run().expect("valid request").size())
        });
    }
    group.finish();
}

fn bench_cc_apsp(c: &mut Criterion) {
    let g = Family::ErdosRenyi {
        n: 256,
        avg_deg: 10.0,
    }
    .generate(WeightModel::Uniform(1, 16), 0xCD);
    let request = apsp_request(&g)
        .on(Backend::CongestedClique { repetitions: 4 })
        .seed(1);
    c.bench_function("cc_apsp_n256", |b| {
        b.iter(|| request.build().expect("valid request"))
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_cc_spanner, bench_cc_apsp
);
criterion_main!(benches);
