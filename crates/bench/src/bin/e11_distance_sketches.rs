//! **E11 — extension (§1.2 / \[DN19])**: distance sketches preprocessed
//! on a spanner instead of the full graph.
//!
//! The paper motivates spanners as the tool that lets MPC preprocess
//! distance sketches without extra memory: the preprocessing touches
//! `Õ(n)` spanner edges instead of `m`. This experiment builds
//! Thorup–Zwick sketches (λ levels, `2λ−1` stretch) on (a) the graph
//! and (b) a Section 5 spanner — the latter through the pipeline's
//! distance stage (`DistanceRequest` + `QueryEngine::Sketches`) — and
//! measures preprocessing size vs query accuracy, including the dropped
//! -query counter (0 by construction since every component owns a
//! top-level landmark).

use spanner_apsp::evaluate_sketch_oracle;
use spanner_bench::table::{f2, Table};
use spanner_bench::workloads;
use spanner_core::pipeline::{Algorithm, DistanceRequest, QueryEngine};
use spanner_core::TradeoffParams;

fn main() {
    println!("# E11 — distance sketches on spanners (the [DN19] application)\n");
    let g = workloads::default_er(768);
    println!("workload er(n={}, m={}), weighted\n", g.n(), g.m());

    let mut t = Table::new(&[
        "substrate",
        "lambda",
        "preproc edges",
        "sketch entries",
        "avg ratio",
        "max ratio",
        "failed",
        "guarantee",
    ]);
    for lambda in [2u32, 3] {
        // (a) preprocess on the full graph: k = 1 is the 1-spanner, the
        // graph itself.
        let whole = DistanceRequest::new(&g, Algorithm::General(TradeoffParams::new(1, 1)))
            .engine(QueryEngine::Sketches { levels: lambda })
            .seed(0xE11)
            .build()
            .expect("sequential build");
        let full = evaluate_sketch_oracle(&g, &whole, 12, 0xE11);
        t.row(vec![
            "full graph".into(),
            lambda.to_string(),
            full.preprocessing_edges.to_string(),
            full.sketch_entries.to_string(),
            f2(full.avg_ratio),
            f2(full.max_ratio),
            full.failed_queries.to_string(),
            f2(full.guarantee),
        ]);
        // (b) preprocess on a k=4 spanner, served through the pipeline's
        // distance stage.
        let oracle = DistanceRequest::new(&g, Algorithm::General(TradeoffParams::new(4, 2)))
            .engine(QueryEngine::Sketches { levels: lambda })
            .seed(0xE11)
            .build()
            .expect("sequential build");
        let rep = evaluate_sketch_oracle(&g, &oracle, 12, 0xE11);
        t.row(vec![
            format!("spanner k=4 ({} edges)", oracle.size()),
            lambda.to_string(),
            rep.preprocessing_edges.to_string(),
            rep.sketch_entries.to_string(),
            f2(rep.avg_ratio),
            f2(rep.max_ratio),
            rep.failed_queries.to_string(),
            f2(rep.guarantee),
        ]);
        assert_eq!(
            full.failed_queries + rep.failed_queries,
            0,
            "connected pairs must never drop"
        );
    }
    t.print();
    println!("\n(spanner substrate: fewer preprocessing edges, composed guarantee σ·(2λ−1))");
}
