//! **E8 — baseline head-to-head**: Baswana–Sen (`k` iterations,
//! stretch `2k−1`) against the paper's constructions, over a `k` sweep.
//! The shape to reproduce: the paper's algorithms use exponentially
//! fewer iterations, Baswana–Sen keeps a modestly better stretch, sizes
//! are comparable — and the gap in iterations *widens* with `k`.

use spanner_bench::table::{f2, Table};
use spanner_bench::{measure, workloads};
use spanner_core::pipeline::{Algorithm, SpannerRequest};
use spanner_core::TradeoffParams;

fn main() {
    println!("# E8 — Baswana–Sen baseline vs the paper's algorithms\n");
    let g = workloads::default_er(1024);
    println!("workload er(n={}, m={}), weighted\n", g.n(), g.m());
    let mut t = Table::new(&[
        "k",
        "algorithm",
        "iters",
        "stretch",
        "stretch bound",
        "size",
        "valid",
    ]);
    for k in [4u32, 8, 16, 32, 64] {
        let algorithms = [
            Algorithm::BaswanaSen { k },
            Algorithm::SqrtK { k },
            Algorithm::General(TradeoffParams::log_k(k)),
            Algorithm::ClusterMerging { k },
        ];
        for algorithm in algorithms {
            let r = SpannerRequest::new(&g, algorithm)
                .seed(0xE8)
                .run()
                .expect("sequential run")
                .result;
            let m = measure(&g, &r.edges, 16, 8);
            t.row(vec![
                k.to_string(),
                r.algorithm.clone(),
                r.iterations.to_string(),
                f2(m.stretch),
                f2(r.stretch_bound),
                m.size.to_string(),
                m.valid.to_string(),
            ]);
        }
    }
    t.print();
}
