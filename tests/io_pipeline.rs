//! Integration test: graphs survive an I/O round trip with identical
//! spanner construction results (edge ids are canonical, so determinism
//! must carry across serialisation).

use mpc_spanners::core::TradeoffParams;
use mpc_spanners::graph::generators::{connected_erdos_renyi, WeightModel};
use mpc_spanners::graph::io::{read_edge_list, write_edge_list};
use mpc_spanners::pipeline::{Algorithm, SpannerRequest};

#[test]
fn spanner_construction_survives_io_round_trip() {
    let g = connected_erdos_renyi(200, 0.06, WeightModel::Uniform(1, 50), 31);
    let mut buf = Vec::new();
    write_edge_list(&g, &mut buf).unwrap();
    let g2 = read_edge_list(buf.as_slice(), g.n()).unwrap();
    assert_eq!(g.edges(), g2.edges(), "canonical edge lists must match");

    let general = Algorithm::General(TradeoffParams::new(8, 2));
    let a = SpannerRequest::new(&g, general).seed(5).run().unwrap();
    let b = SpannerRequest::new(&g2, general).seed(5).run().unwrap();
    assert_eq!(
        a.result.edges, b.result.edges,
        "same ids, same coins, same spanner"
    );
}

#[test]
fn io_accepts_snap_style_headers() {
    let text = "# Directed graph (each unordered pair of nodes is saved once)\n\
                # Nodes: 4 Edges: 3\n\
                0\t1\n1\t2\n3\t0\n";
    let g = read_edge_list(text.as_bytes(), 0).unwrap();
    assert_eq!(g.n(), 4);
    assert_eq!(g.m(), 3);
    assert!(g.is_unweighted());
}
