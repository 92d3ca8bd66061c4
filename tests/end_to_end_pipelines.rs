//! End-to-end integration tests of the two application pipelines
//! (Sections 7 and 8) against exact ground truth: the Corollary 1.4/1.5
//! request built in near-linear MPC and in the Congested Clique.

use mpc_spanners::apsp::{apsp_request, measure_distance_oracle};
use mpc_spanners::graph::edge::INFINITY;
use mpc_spanners::graph::generators::{Family, WeightModel};
use mpc_spanners::graph::shortest_paths::dijkstra;
use mpc_spanners::pipeline::{Backend, MpcDeployment};

#[test]
fn mpc_apsp_pipeline_end_to_end() {
    let g = Family::ErdosRenyi {
        n: 200,
        avg_deg: 10.0,
    }
    .generate(WeightModel::PowersOfTwo(7), 0xEE);
    let oracle = apsp_request(&g)
        .on(Backend::mpc_deployment(MpcDeployment::NearLinear))
        .seed(3)
        .build()
        .expect("near-linear run fits");
    // Construction happened under enforced near-linear memory.
    let mpc = oracle.stats().execution.mpc().expect("mpc stats");
    assert!(mpc.metrics.peak_machine_words <= mpc.config.capacity());
    // Every query within guarantee.
    let rep = measure_distance_oracle(&g, &oracle, g.n(), 1);
    assert!(rep.max_ratio <= rep.guarantee + 1e-9);
    assert!(rep.avg_ratio >= 1.0 - 1e-12);
    // And the in-model pipeline matches the plain one.
    let plain = apsp_request(&g).seed(3).build().expect("sequential build");
    assert_eq!(plain.spanner_edges(), oracle.spanner_edges());
}

#[test]
fn cc_apsp_pipeline_end_to_end() {
    let g = Family::Torus { side: 14 }.generate(WeightModel::Uniform(1, 20), 0xCE);
    let clique = Backend::CongestedClique { repetitions: 8 };
    let oracle = apsp_request(&g)
        .on(clique)
        .seed(11)
        .build()
        .expect("clique build");
    // Every node's row respects the guarantee.
    for s in [0u32, 55, 100] {
        let exact = dijkstra(&g, s).dist;
        let row = oracle.distances_from(s);
        for v in 0..g.n() {
            if v as u32 != s && exact[v] != INFINITY {
                assert!(row[v] >= exact[v]);
                assert!(
                    row[v] as f64 <= oracle.stretch_bound() * exact[v] as f64 + 1e-6,
                    "({s},{v}): {} vs {} x{}",
                    row[v],
                    exact[v],
                    oracle.stretch_bound()
                );
            }
        }
    }
    // Rounds decompose into construction + dissemination.
    let construction = apsp_request(&g)
        .on(clique)
        .seed(11)
        .spanner_request()
        .run()
        .expect("clique run")
        .stats
        .model_rounds()
        .expect("clique rounds");
    let stats = oracle.stats();
    assert_eq!(
        stats.execution.model_rounds(),
        Some(construction + stats.gather_rounds.expect("dissemination rounds"))
    );
}

#[test]
fn oracle_handles_disconnected_graphs() {
    let g = Family::ErdosRenyi {
        n: 150,
        avg_deg: 1.2,
    }
    .generate(WeightModel::Uniform(1, 9), 0xDD);
    let oracle = apsp_request(&g).seed(5).build().expect("sequential build");
    let exact = dijkstra(&g, 0).dist;
    let approx = oracle.distances_from(0);
    for v in 0..g.n() {
        assert_eq!(
            exact[v] == INFINITY,
            approx[v] == INFINITY,
            "reachability must match exactly at {v}"
        );
    }
}
