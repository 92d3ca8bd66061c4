//! **E7 — Theorem 8.1 + Corollary 1.5**: spanners and APSP in the
//! Congested Clique. Measures clique rounds for construction and
//! spanner dissemination, the w.h.p. size with the parallel-repetition
//! trick, and the APSP approximation ratio. Corollary 1.5 is the
//! Corollary 1.4 request ([`apsp_request`]) on the Congested Clique
//! backend: its oracle reports the dissemination as its gather rounds.

use spanner_apsp::apsp_request;
use spanner_bench::table::{f2, Table};
use spanner_bench::{measure, size_baseline};
use spanner_core::pipeline::{Algorithm, Backend, SpannerRequest};
use spanner_core::TradeoffParams;
use spanner_graph::edge::INFINITY;
use spanner_graph::generators::{Family, WeightModel};
use spanner_graph::shortest_paths::dijkstra;

fn main() {
    println!("# E7 — Section 8 (Congested Clique)\n");

    println!("## Theorem 8.1: spanner construction rounds (k=8, t=2)\n");
    let mut t = Table::new(&[
        "n",
        "m",
        "R (reps)",
        "cc rounds",
        "stretch",
        "bound",
        "size",
        "size/n^(1+1/k)",
        "valid",
    ]);
    let params = TradeoffParams::new(8, 2);
    for n in [256usize, 512, 1024] {
        let g = Family::ErdosRenyi { n, avg_deg: 10.0 }.generate(WeightModel::Uniform(1, 64), 0xE7);
        for reps in [1usize, ((n as f64).log2().ceil() as usize).min(32)] {
            let run = SpannerRequest::new(&g, Algorithm::General(params))
                .on(Backend::CongestedClique { repetitions: reps })
                .seed(0x7E)
                .run()
                .expect("clique run");
            let stats = run.stats.congested_clique().expect("clique stats");
            let m = measure(&g, &run.result.edges, 16, 7);
            t.row(vec![
                n.to_string(),
                g.m().to_string(),
                reps.to_string(),
                stats.rounds.to_string(),
                f2(m.stretch),
                f2(run.result.stretch_bound),
                m.size.to_string(),
                f2(m.size as f64 / size_baseline(n, params.k)),
                m.valid.to_string(),
            ]);
        }
    }
    t.print();

    println!("\n## Corollary 1.5: APSP (k = log n, t = log log n)\n");
    let mut t2 = Table::new(&[
        "n",
        "spanner rounds",
        "dissemination rounds",
        "total rounds",
        "approx max",
        "guarantee",
    ]);
    for n in [256usize, 512] {
        let g =
            Family::ErdosRenyi { n, avg_deg: 10.0 }.generate(WeightModel::PowersOfTwo(6), 0x7E7);
        // The paper's O(log n) repetitions per iteration.
        let repetitions = (n as f64).log2().ceil() as usize;
        let oracle = apsp_request(&g)
            .on(Backend::CongestedClique { repetitions })
            .seed(0x57)
            .build()
            .expect("clique APSP");
        let stats = oracle.stats();
        let total_rounds = stats.execution.model_rounds().expect("clique rounds");
        let dissemination_rounds = stats
            .gather_rounds
            .expect("the clique pays the dissemination");
        // Measure ratios over a handful of rows: each node answers its
        // row from the spanner it now holds.
        let mut max_ratio = 1.0f64;
        for s in [0u32, 7, 63] {
            let exact = dijkstra(&g, s).dist;
            let approx = oracle.distances_from(s);
            for v in 0..g.n() {
                if v as u32 != s && exact[v] != INFINITY && exact[v] > 0 {
                    max_ratio = max_ratio.max(approx[v] as f64 / exact[v] as f64);
                }
            }
        }
        t2.row(vec![
            n.to_string(),
            (total_rounds - dissemination_rounds).to_string(),
            dissemination_rounds.to_string(),
            total_rounds.to_string(),
            f2(max_ratio),
            f2(oracle.stretch_bound()),
        ]);
    }
    t2.print();
}
