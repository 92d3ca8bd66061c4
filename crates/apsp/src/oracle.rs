//! The approximate-APSP request of Section 7: the Corollary 1.2(4)
//! parameterisation of the pipeline's distance stage
//! ([`spanner_core::pipeline::distance`]).

use spanner_graph::Graph;

use spanner_core::pipeline::{Algorithm, CorollarySetting, DistanceRequest};

/// The Corollary 1.4/1.5 distance request: the
/// [`CorollarySetting::ApspRegime`] schedule (`k = ⌈log₂ n⌉`,
/// `t = ⌈log₂ log₂ n⌉`) with the exact-Dijkstra query engine, ready to
/// `.on(backend)` / `.build()`.
pub fn apsp_request(g: &Graph) -> DistanceRequest<'_> {
    let params = CorollarySetting::ApspRegime
        .try_params(g.n(), 0)
        .expect("the APSP regime derives k from n, so every graph is valid input");
    DistanceRequest::new(g, Algorithm::General(params))
}

#[cfg(test)]
mod tests {
    use super::*;
    use spanner_core::pipeline::{Backend, HeapSize, MpcDeployment};
    use spanner_core::TradeoffParams;
    use spanner_graph::edge::INFINITY;
    use spanner_graph::generators::{self, WeightModel};
    use spanner_graph::shortest_paths::dijkstra;

    #[test]
    fn oracle_never_underestimates() {
        let g = generators::connected_erdos_renyi(120, 0.08, WeightModel::Uniform(1, 16), 3);
        let oracle = apsp_request(&g).seed(7).build().unwrap();
        let exact = dijkstra(&g, 0).dist;
        let approx = oracle.distances_from(0);
        for v in 0..g.n() {
            if exact[v] != INFINITY {
                assert!(approx[v] >= exact[v], "v={v}: {} < {}", approx[v], exact[v]);
                assert!(approx[v] != INFINITY, "reachability must be preserved");
            }
        }
    }

    #[test]
    fn oracle_respects_stretch_bound() {
        let g = generators::connected_erdos_renyi(150, 0.07, WeightModel::PowersOfTwo(6), 5);
        let oracle = apsp_request(&g).seed(9).build().unwrap();
        let exact = dijkstra(&g, 3).dist;
        let approx = oracle.distances_from(3);
        for v in 0..g.n() {
            if v != 3 && exact[v] != INFINITY && exact[v] > 0 {
                let ratio = approx[v] as f64 / exact[v] as f64;
                assert!(
                    ratio <= oracle.stretch_bound() + 1e-9,
                    "v={v}: ratio {ratio} > bound {}",
                    oracle.stretch_bound()
                );
            }
        }
    }

    #[test]
    fn oracle_size_is_near_linear() {
        let g = generators::connected_erdos_renyi(400, 0.2, WeightModel::Unit, 11);
        let oracle = apsp_request(&g).seed(13).build().unwrap();
        // O(n log log n) with a generous constant; certainly o(m) here.
        assert!(
            oracle.size() < g.m() / 2,
            "oracle {} vs m {}",
            oracle.size(),
            g.m()
        );
    }

    #[test]
    fn mpc_pipeline_reports_rounds_and_matches_reference() {
        let g = generators::connected_erdos_renyi(80, 0.1, WeightModel::Uniform(1, 8), 17);
        let near_linear = Backend::mpc_deployment(MpcDeployment::NearLinear);
        let oracle = apsp_request(&g).on(near_linear).seed(21).build().unwrap();
        let stats = oracle.stats();
        let metrics = &stats.execution.mpc().expect("mpc stats").metrics;
        assert!(metrics.rounds > 0);
        // The Section 7 gather is one direct all-to-one round; nothing
        // else (in particular not the harness's re-distribution of the
        // already-in-model spanner) may be charged on top of the
        // construction's own rounds.
        assert_eq!(
            stats.gather_rounds,
            Some(1),
            "direct gather costs exactly +1"
        );
        let construction = apsp_request(&g)
            .on(near_linear)
            .seed(21)
            .spanner_request()
            .run()
            .expect("in-model construction")
            .stats
            .mpc()
            .expect("mpc stats")
            .metrics
            .rounds;
        assert_eq!(
            metrics.rounds,
            construction + 1,
            "total rounds must be construction + the gather, nothing more"
        );
        assert_eq!(metrics.rounds_by_op.get("apsp.collect"), Some(&1));
        let reference = apsp_request(&g).seed(21).build().unwrap();
        assert_eq!(
            oracle.spanner_edges(),
            reference.spanner_edges(),
            "in-model and reference pipelines must agree"
        );
    }

    #[test]
    fn oracle_memory_accounting_tracks_spanner_size() {
        let g = generators::connected_erdos_renyi(200, 0.15, WeightModel::Unit, 7);
        let sparse = apsp_request(&g).seed(7).build().unwrap();
        let whole = DistanceRequest::new(&g, Algorithm::General(TradeoffParams::new(1, 1)))
            .build()
            .unwrap();
        assert_eq!(whole.size(), g.m());
        assert!(sparse.heap_size() > 0);
        assert!(
            whole.heap_size() > sparse.heap_size(),
            "a whole-graph oracle must charge more than its spanner ({} vs {})",
            whole.heap_size(),
            sparse.heap_size()
        );
    }

    #[test]
    fn query_is_symmetric_enough() {
        // Undirected spanner ⇒ symmetric queries.
        let g = generators::torus(8, 8, WeightModel::Uniform(1, 5), 1);
        let oracle = apsp_request(&g).seed(3).build().unwrap();
        assert_eq!(oracle.query(0, 17), oracle.query(17, 0));
    }
}
