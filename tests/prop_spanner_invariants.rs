//! Property-based tests (proptest) of the core invariants, over random
//! graphs, parameters and seeds:
//!
//! * every construction returns valid, duplicate-free edge ids;
//! * every host edge is spanned (reachability preserved per component);
//! * the measured per-edge stretch never exceeds the construction's
//!   stated guarantee;
//! * spanners contain a spanning forest of every component (size lower
//!   bound);
//! * determinism: same seed ⇒ same spanner.

use proptest::prelude::*;

use mpc_spanners::core::{SpannerResult, TradeoffParams};
use mpc_spanners::graph::components::{component_count, spanning_forest};
use mpc_spanners::graph::edge::Edge;
use mpc_spanners::graph::verify::{assert_valid_edge_ids, verify_spanner};
use mpc_spanners::graph::Graph;
use mpc_spanners::pipeline::{Algorithm, SpannerRequest};

fn run(g: &Graph, algorithm: Algorithm, seed: u64) -> SpannerResult {
    SpannerRequest::new(g, algorithm)
        .seed(seed)
        .run()
        .expect("valid request")
        .result
}

/// Strategy: a random simple weighted graph with up to `nmax` vertices.
fn arb_graph(nmax: usize) -> impl Strategy<Value = Graph> {
    (2..nmax).prop_flat_map(|n| {
        let edge = (0..n as u32, 0..n as u32, 1u64..64);
        proptest::collection::vec(edge, 0..(4 * n)).prop_map(move |raw| {
            Graph::from_edges(
                n,
                raw.into_iter()
                    .filter(|&(a, b, _)| a != b)
                    .map(|(a, b, w)| Edge::new(a, b, w)),
            )
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn general_spanner_invariants(
        g in arb_graph(60),
        k in 1u32..10,
        t in 1u32..6,
        seed in 0u64..1000,
    ) {
        let r = run(&g, Algorithm::General(TradeoffParams::new(k, t)), seed);
        assert_valid_edge_ids(&g, &r.edges);
        let rep = verify_spanner(&g, &r.edges);
        prop_assert!(rep.all_edges_spanned, "unspanned edge");
        prop_assert!(
            rep.max_edge_stretch <= r.stretch_bound + 1e-9,
            "stretch {} > bound {}", rep.max_edge_stretch, r.stretch_bound
        );
        // Spanner preserves per-component connectivity ⇒ at least the
        // spanning-forest size.
        prop_assert!(r.size() >= spanning_forest(&g).len());
        // And never more edges than the graph.
        prop_assert!(r.size() <= g.m());
    }

    #[test]
    fn baswana_sen_invariants(
        g in arb_graph(60),
        k in 1u32..8,
        seed in 0u64..1000,
    ) {
        let r = run(&g, Algorithm::BaswanaSen { k }, seed);
        assert_valid_edge_ids(&g, &r.edges);
        let rep = verify_spanner(&g, &r.edges);
        prop_assert!(rep.all_edges_spanned);
        prop_assert!(
            rep.max_edge_stretch <= (2 * k - 1) as f64 + 1e-9,
            "stretch {} > 2k-1", rep.max_edge_stretch
        );
    }

    #[test]
    fn spanner_preserves_component_structure(
        g in arb_graph(50),
        seed in 0u64..500,
    ) {
        let r = run(&g, Algorithm::General(TradeoffParams::new(4, 2)), seed);
        let h = g.edge_subgraph(&r.edges);
        prop_assert_eq!(component_count(&h), component_count(&g));
    }

    #[test]
    fn construction_is_deterministic(
        g in arb_graph(40),
        k in 2u32..8,
        t in 1u32..4,
        seed in 0u64..100,
    ) {
        let general = Algorithm::General(TradeoffParams::new(k, t));
        let a = run(&g, general, seed);
        let b = run(&g, general, seed);
        prop_assert_eq!(a.edges, b.edges);
    }
}
