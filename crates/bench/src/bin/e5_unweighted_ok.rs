//! **E5 — Theorem 1.3 / Appendix B**: the unweighted `O(k)`-stretch
//! spanner via sparse/dense decomposition and hitting sets, with the
//! decomposition statistics and the size envelope `O(k·n^{1+1/k})`.
//!
//! Scale note: the dense-ball guarantee rests on `n^{γ/4} ≫ log n`,
//! which only bites at large `n`; at laboratory sizes the hitting-set
//! rate saturates and `Z` is a large fraction of the dense vertices.
//! The *decomposition* (who is sparse, who is dense, who falls back) is
//! still exercised faithfully — the workloads below are chosen so both
//! sides are non-trivial: bounded-degree graphs (torus) classify fully
//! sparse, hub-heavy graphs (caterpillar, power law) split.

use spanner_bench::table::{f2, Table};
use spanner_bench::{measure, size_baseline};
use spanner_core::pipeline::{Algorithm, SpannerRequest};
use spanner_core::unweighted_ok::UnweightedOkConfig;
use spanner_graph::generators::{self, WeightModel};
use spanner_graph::Graph;

fn workloads() -> Vec<(String, Graph)> {
    vec![
        // Control: tiny balls everywhere ⇒ fully sparse ⇒ pure local
        // Baswana–Sen.
        (
            "cycle(1024)".into(),
            generators::cycle(1024, WeightModel::Unit, 0xE5),
        ),
        // Mixed: far-ring vertices sparse, hub neighbourhoods dense.
        (
            "hub_ring(896+8x64)".into(),
            generators::hub_ring(896, 8, 64, WeightModel::Unit, 0xE5),
        ),
        // Control: expander-ish balls blow past any cap ⇒ fully dense ⇒
        // pure hitting-set machinery.
        (
            "er(n=1024,d=10)".into(),
            generators::connected_erdos_renyi(1024, 10.0 / 1023.0, WeightModel::Unit, 0xE5),
        ),
        (
            "plaw(n=1024,d=8)".into(),
            generators::chung_lu_power_law(1024, 8.0, 2.5, WeightModel::Unit, 0xE5)
                .unweighted_copy(),
        ),
    ]
}

fn main() {
    println!("# E5 — Theorem 1.3 (Appendix B, unweighted O(k) spanner)\n");
    for gamma in [0.5f64, 0.7] {
        println!("## gamma = {gamma} (ball cap 16·n^(gamma/2))\n");
        let mut t = Table::new(&[
            "workload",
            "k",
            "sparse",
            "dense",
            "|Z|",
            "H edges",
            "fallbacks",
            "stretch",
            "bound",
            "size",
            "size/(k·n^(1+1/k))",
            "valid",
        ]);
        for (name, g) in workloads() {
            for k in [2u32, 3, 4] {
                // `hitting_boost` well below 1 keeps the hitting-set
                // rate < 1 at laboratory n (the asymptotic rate
                // saturates there); any missed dense ball falls back to
                // the sparse path, preserving correctness.
                let cfg = UnweightedOkConfig {
                    gamma,
                    ball_factor: 16.0,
                    hitting_boost: 0.05,
                };
                let r = SpannerRequest::new(&g, Algorithm::UnweightedOk { k, config: cfg })
                    .seed(0xE5)
                    .run()
                    .expect("unweighted workload")
                    .result;
                let stats = r.decomposition.clone().expect("appendix B fills its stats");
                let m = measure(&g, &r.edges, 16, 5);
                t.row(vec![
                    name.clone(),
                    k.to_string(),
                    stats.sparse.to_string(),
                    stats.dense_assigned.to_string(),
                    stats.hitting_set.to_string(),
                    stats.aux_edges.to_string(),
                    stats.fallbacks.to_string(),
                    f2(m.stretch),
                    f2(r.stretch_bound),
                    m.size.to_string(),
                    f2(m.size as f64 / (k as f64 * size_baseline(g.n(), k))),
                    m.valid.to_string(),
                ]);
            }
        }
        t.print();
        println!();
    }
}
