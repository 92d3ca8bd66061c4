//! Second property-test battery: the algorithms not covered by
//! `prop_spanner_invariants` — Section 3's two-phase construction,
//! Appendix B's unweighted algorithm, the Congested Clique w.h.p.
//! variant, the APSP oracle, and distance sketches.

use proptest::prelude::*;

use mpc_spanners::apsp::apsp_request;
use mpc_spanners::core::unweighted_ok::UnweightedOkConfig;
use mpc_spanners::core::{SpannerResult, TradeoffParams};
use mpc_spanners::graph::edge::{Edge, INFINITY};
use mpc_spanners::graph::shortest_paths::dijkstra;
use mpc_spanners::graph::verify::{assert_valid_edge_ids, verify_spanner};
use mpc_spanners::graph::Graph;
use mpc_spanners::pipeline::{Algorithm, Backend, DistanceSketches, SpannerRequest};

fn run(g: &Graph, algorithm: Algorithm, seed: u64) -> SpannerResult {
    SpannerRequest::new(g, algorithm)
        .seed(seed)
        .run()
        .expect("valid request")
        .result
}

fn arb_graph(nmax: usize, unit_weights: bool) -> impl Strategy<Value = Graph> {
    (3..nmax).prop_flat_map(move |n| {
        let wmax = if unit_weights { 2u64 } else { 32 };
        let edge = (0..n as u32, 0..n as u32, 1u64..wmax);
        proptest::collection::vec(edge, 0..(3 * n)).prop_map(move |raw| {
            Graph::from_edges(
                n,
                raw.into_iter()
                    .filter(|&(a, b, _)| a != b)
                    .map(|(a, b, w)| Edge::new(a, b, if unit_weights { 1 } else { w })),
            )
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn sqrt_k_invariants(
        g in arb_graph(50, false),
        k in 1u32..20,
        seed in 0u64..500,
    ) {
        let r = run(&g, Algorithm::SqrtK { k }, seed);
        assert_valid_edge_ids(&g, &r.edges);
        let rep = verify_spanner(&g, &r.edges);
        prop_assert!(rep.all_edges_spanned);
        prop_assert!(rep.max_edge_stretch <= r.stretch_bound + 1e-9);
        // Iterations stay O(sqrt k).
        let t = (k as f64).sqrt().ceil() as u32;
        prop_assert!(r.iterations <= 2 * t.max(1));
    }

    #[test]
    fn unweighted_ok_invariants(
        g in arb_graph(50, true),
        k in 1u32..5,
        gamma in 0.3f64..0.9,
        seed in 0u64..500,
    ) {
        let config = UnweightedOkConfig { gamma, ..Default::default() };
        let r = run(&g, Algorithm::UnweightedOk { k, config }, seed);
        assert_valid_edge_ids(&g, &r.edges);
        let rep = verify_spanner(&g, &r.edges);
        prop_assert!(rep.all_edges_spanned);
        prop_assert!(rep.max_edge_stretch <= r.stretch_bound + 1e-9);
        let stats = r.decomposition.as_ref().expect("appendix B fills its stats");
        prop_assert!(stats.sparse + stats.dense_assigned == g.n());
    }

    #[test]
    fn cc_spanner_whp_variant_invariants(
        g in arb_graph(40, false),
        reps in 1usize..6,
        seed in 0u64..200,
    ) {
        let report = SpannerRequest::new(&g, Algorithm::General(TradeoffParams::new(4, 2)))
            .on(Backend::CongestedClique { repetitions: reps })
            .seed(seed)
            .run()
            .expect("valid request");
        let result = &report.result;
        let chosen_runs = &report.stats.congested_clique().expect("clique stats").chosen_runs;
        assert_valid_edge_ids(&g, &result.edges);
        let rep = verify_spanner(&g, &result.edges);
        prop_assert!(rep.all_edges_spanned);
        prop_assert!(rep.max_edge_stretch <= result.stretch_bound + 1e-9);
        prop_assert_eq!(chosen_runs.len(), result.iterations as usize);
        prop_assert!(chosen_runs.iter().all(|&r| r < reps));
    }

    #[test]
    fn oracle_sandwich_property(
        g in arb_graph(40, false),
        seed in 0u64..200,
        source in 0u32..40,
    ) {
        prop_assume!((source as usize) < g.n());
        let oracle = apsp_request(&g).seed(seed).build().expect("valid request");
        let exact = dijkstra(&g, source).dist;
        let approx = oracle.distances_from(source);
        for v in 0..g.n() {
            if exact[v] == INFINITY {
                prop_assert_eq!(approx[v], INFINITY);
            } else {
                prop_assert!(approx[v] >= exact[v]);
                prop_assert!(
                    approx[v] as f64 <= oracle.stretch_bound() * exact[v].max(1) as f64 + 1e-6
                );
            }
        }
    }

    #[test]
    fn sketch_queries_bounded_by_2_lambda_minus_1(
        g in arb_graph(30, false),
        levels in 1u32..4,
        seed in 0u64..100,
    ) {
        let sk = DistanceSketches::preprocess(&g, levels, seed);
        let bound = (2 * levels - 1) as f64;
        let exact = dijkstra(&g, 0).dist;
        for v in 0..g.n() as u32 {
            if v == 0 || exact[v as usize] == INFINITY {
                continue;
            }
            let est = sk.query(0, v);
            prop_assert!(est != INFINITY, "finite within a component");
            prop_assert!(est >= exact[v as usize]);
            prop_assert!(
                est as f64 <= bound * exact[v as usize] as f64 + 1e-9,
                "({}): {} > {} * {}", v, est, bound, exact[v as usize]
            );
        }
    }
}
