//! **A2 — ablation**: the Section 8 parallel-repetition trick.
//!
//! The single-run algorithm guarantees spanner size only in
//! *expectation*; Theorem 8.1 amplifies to w.h.p. by running `O(log n)`
//! coin sequences per iteration and committing to the best. This
//! ablation measures the size distribution across seeds with and
//! without the amplification: the mean barely moves, but the worst case
//! (the tail the w.h.p. claim is about) tightens.

use spanner_bench::table::{f2, Table};
use spanner_core::pipeline::{Algorithm, Backend, SpannerRequest};
use spanner_core::TradeoffParams;
use spanner_graph::generators::{Family, WeightModel};

fn main() {
    println!("# A2 — parallel repetition (Theorem 8.1 amplification)\n");
    let g = Family::ErdosRenyi {
        n: 512,
        avg_deg: 14.0,
    }
    .generate(WeightModel::Uniform(1, 32), 0xA2);
    println!(
        "workload er(n={}, m={}), k=4, t=2, 24 seeds\n",
        g.n(),
        g.m()
    );
    let params = TradeoffParams::new(4, 2);
    let seeds: Vec<u64> = (0..24).collect();

    let mut t = Table::new(&[
        "repetitions",
        "mean size",
        "max size",
        "min size",
        "max/mean",
        "mean cc rounds",
    ]);
    for reps in [1usize, 4, 9] {
        // (spanner size, clique rounds) per seed.
        let runs: Vec<(usize, u64)> = seeds
            .iter()
            .map(|&s| {
                let report = SpannerRequest::new(&g, Algorithm::General(params))
                    .on(Backend::CongestedClique { repetitions: reps })
                    .seed(s)
                    .run()
                    .expect("clique run");
                (
                    report.size(),
                    report.stats.model_rounds().expect("clique rounds"),
                )
            })
            .collect();
        let sizes: Vec<usize> = runs.iter().map(|&(size, _)| size).collect();
        let mean = sizes.iter().sum::<usize>() as f64 / sizes.len() as f64;
        let max = *sizes.iter().max().unwrap();
        let min = *sizes.iter().min().unwrap();
        let rounds = runs.iter().map(|&(_, r)| r).sum::<u64>() as f64 / runs.len() as f64;
        t.row(vec![
            reps.to_string(),
            f2(mean),
            max.to_string(),
            min.to_string(),
            f2(max as f64 / mean),
            f2(rounds),
        ]);
    }
    t.print();
}
