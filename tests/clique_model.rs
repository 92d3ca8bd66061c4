//! Integration tests of the Congested Clique model accounting and the
//! Section 8 pipelines' structural properties, through the pipeline:
//! Theorem 8.1 is a `SpannerRequest` and Corollary 1.5 the APSP
//! `DistanceRequest` on `Backend::CongestedClique`.

use mpc_spanners::apsp::apsp_request;
use mpc_spanners::core::TradeoffParams;
use mpc_spanners::graph::generators::{self, WeightModel};
use mpc_spanners::graph::Graph;
use mpc_spanners::pipeline::{Algorithm, Backend, CcNetwork, RunReport, SpannerRequest};

/// Theorem 8.1 with `repetitions` parallel runs per iteration.
fn clique_spanner(g: &Graph, params: TradeoffParams, seed: u64, repetitions: usize) -> RunReport {
    SpannerRequest::new(g, Algorithm::General(params))
        .on(Backend::CongestedClique { repetitions })
        .seed(seed)
        .run()
        .expect("valid request")
}

#[test]
fn wider_messages_cut_broadcast_rounds() {
    let mut narrow = CcNetwork::new(64);
    let mut wide = CcNetwork::new(64);
    wide.b_words = 4;
    let r_narrow = narrow.broadcast_from_all(8);
    let r_wide = wide.broadcast_from_all(8);
    assert_eq!(r_narrow, 8);
    assert_eq!(r_wide, 2);
}

#[test]
fn dissemination_formula_matches_cor_1_5_shape() {
    // O(n log log n) words disseminate in O(log log n) rounds: the
    // per-node budget is (n-1) words/round.
    for n in [128usize, 512, 2048] {
        let mut net = CcNetwork::new(n);
        let loglog = (n as f64).log2().log2();
        let payload = (4.0 * n as f64 * loglog) as usize; // 4-word edges
        let rounds = net.disseminate_to_all(payload);
        let expected = (payload.div_ceil(n - 1) as u64) + net.lenzen_constant;
        assert_eq!(rounds, expected);
        assert!(
            rounds as f64 <= 4.0 * loglog + 8.0,
            "n={n}: {rounds} rounds vs O(loglog n) = {loglog:.1}"
        );
    }
}

#[test]
fn spanner_run_is_deterministic_including_chosen_runs() {
    let g = generators::connected_erdos_renyi(90, 0.1, WeightModel::Uniform(1, 8), 3);
    let params = TradeoffParams::new(4, 2);
    let a = clique_spanner(&g, params, 7, 6);
    let b = clique_spanner(&g, params, 7, 6);
    assert_eq!(a.result.edges, b.result.edges);
    let (a, b) = (
        a.stats.congested_clique().expect("clique stats"),
        b.stats.congested_clique().expect("clique stats"),
    );
    assert_eq!(a.chosen_runs, b.chosen_runs);
    assert_eq!(a.rounds, b.rounds);
}

#[test]
fn apsp_total_words_accounts_for_dissemination() {
    let g = generators::torus(10, 10, WeightModel::Uniform(1, 5), 1);
    let oracle = apsp_request(&g)
        .on(Backend::CongestedClique { repetitions: 4 })
        .seed(3)
        .build()
        .expect("valid request");
    let stats = oracle.stats();
    let words = stats.execution.communication_words().expect("clique words");
    // Every node receives the whole spanner: 4 words per edge per node.
    assert!(words >= (4 * oracle.size() * g.n()) as u64);
    assert!(stats.gather_rounds.expect("dissemination rounds") >= 1);
    // Every node must be able to answer every row.
    for s in [0u32, 42, 99] {
        let row = oracle.distances_from(s);
        assert_eq!(row.len(), g.n());
        assert_eq!(row[s as usize], 0);
    }
}

#[test]
fn disconnected_graphs_work_in_the_clique_too() {
    let g = generators::erdos_renyi(80, 0.02, WeightModel::Unit, 9);
    let run = clique_spanner(&g, TradeoffParams::new(4, 2), 5, 4);
    let rep = mpc_spanners::graph::verify::verify_spanner(&g, &run.result.edges);
    assert!(rep.all_edges_spanned);
}
