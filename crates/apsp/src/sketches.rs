//! Thorup–Zwick-style **distance sketches** on top of spanners — the
//! \[DN19] application the paper highlights in §1.2.
//!
//! The construction itself lives in the pipeline's distance stage
//! ([`spanner_core::pipeline::DistanceSketches`]), where it serves
//! [`spanner_core::pipeline::QueryEngine::Sketches`] oracles; this
//! module measures them: [`evaluate_sketch_oracle`] reports
//! preprocessing size vs query accuracy, with an explicit
//! [`SketchReport::failed_queries`] dropout counter (which the
//! per-component landmark guarantee keeps at zero for connected pairs).

use spanner_core::pipeline::{DistanceOracle, DistanceSketches};
use spanner_graph::edge::INFINITY;
use spanner_graph::shortest_paths::dijkstra;
use spanner_graph::Graph;

/// Sketch preprocessing size vs query accuracy of one oracle (the §1.2
/// / \[DN19] trade: preprocessing memory vs query accuracy).
#[derive(Debug, Clone)]
pub struct SketchReport {
    /// Edges the preprocessing touched.
    pub preprocessing_edges: usize,
    /// Total sketch entries stored.
    pub sketch_entries: usize,
    /// Measured max query ratio vs exact distances (sampled).
    pub max_ratio: f64,
    /// Mean query ratio.
    pub avg_ratio: f64,
    /// The end-to-end guarantee.
    pub guarantee: f64,
    /// Connected sampled pairs whose estimate came back [`INFINITY`]
    /// (excluded from the ratios). The per-component top-level-landmark
    /// guarantee makes this 0; a non-zero count means dropped queries
    /// were silently inflating the quality numbers.
    pub failed_queries: usize,
}

/// Measures a pipeline-built [`DistanceOracle`] (typically one serving
/// through [`spanner_core::pipeline::QueryEngine::Sketches`]): samples
/// `sources` random sources and compares every query against exact
/// Dijkstra on `g` over all their connected targets, counting (instead
/// of silently skipping) failed estimates. A whole-graph oracle
/// (`Algorithm::General(TradeoffParams::new(1, 1))`) measures sketches
/// preprocessed on `g` itself.
pub fn evaluate_sketch_oracle(
    g: &Graph,
    oracle: &DistanceOracle,
    sources: usize,
    seed: u64,
) -> SketchReport {
    use rand::prelude::*;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xDEAD);
    let n = g.n() as u32;
    let mut max_ratio: f64 = 1.0;
    let mut sum = 0.0;
    let mut cnt = 0usize;
    let mut failed = 0usize;
    for _ in 0..sources.min(n as usize) {
        let s = rng.gen_range(0..n);
        let exact = dijkstra(g, s).dist;
        for v in 0..n {
            if v != s && exact[v as usize] != INFINITY && exact[v as usize] > 0 {
                let est = oracle.query(s, v);
                if est == INFINITY {
                    failed += 1;
                    continue;
                }
                let r = est as f64 / exact[v as usize] as f64;
                max_ratio = max_ratio.max(r);
                sum += r;
                cnt += 1;
            }
        }
    }
    SketchReport {
        preprocessing_edges: oracle.size(),
        sketch_entries: oracle
            .sketches()
            .map(DistanceSketches::total_entries)
            .unwrap_or(0),
        max_ratio,
        avg_ratio: if cnt == 0 { 1.0 } else { sum / cnt as f64 },
        guarantee: oracle.stretch_bound(),
        failed_queries: failed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spanner_core::pipeline::{Algorithm, DistanceRequest, QueryEngine};
    use spanner_core::TradeoffParams;
    use spanner_graph::generators::{self, WeightModel};

    fn graph() -> Graph {
        generators::connected_erdos_renyi(100, 0.08, WeightModel::Uniform(1, 16), 3)
    }

    fn sketch_oracle(g: &Graph, params: TradeoffParams, seed: u64) -> DistanceOracle {
        DistanceRequest::new(g, Algorithm::General(params))
            .engine(QueryEngine::Sketches { levels: 2 })
            .seed(seed)
            .build()
            .unwrap()
    }

    #[test]
    fn query_is_symmetric_in_guarantee() {
        let g = graph();
        let sk = DistanceSketches::preprocess(&g, 2, 9);
        // TZ queries need not be symmetric, but both directions obey the
        // bound; spot-check both directions return finite values.
        assert!(sk.query(3, 60) != INFINITY);
        assert!(sk.query(60, 3) != INFINITY);
    }

    #[test]
    fn spanner_substrate_composes_guarantees() {
        let g = graph();
        let oracle = sketch_oracle(&g, TradeoffParams::new(4, 2), 3);
        let rep = evaluate_sketch_oracle(&g, &oracle, 10, 5);
        assert!(rep.preprocessing_edges < g.m());
        assert!(rep.sketch_entries > 0);
        assert!(rep.avg_ratio >= 1.0 - 1e-9);
        assert_eq!(rep.failed_queries, 0, "no dropped connected pairs");
        assert!(
            rep.max_ratio <= rep.guarantee + 1e-9,
            "measured {} vs composed guarantee {}",
            rep.max_ratio,
            rep.guarantee
        );
    }

    #[test]
    fn disconnected_pairs_are_infinity() {
        let g = Graph::from_edges(
            4,
            vec![
                spanner_graph::edge::Edge::new(0, 1, 1),
                spanner_graph::edge::Edge::new(2, 3, 1),
            ],
        );
        let sk = DistanceSketches::preprocess(&g, 2, 1);
        assert_eq!(sk.query(0, 1), 1);
        assert_eq!(sk.query(0, 2), INFINITY);
    }

    #[test]
    fn second_component_no_longer_drops_queries() {
        // Regression: a component without a top-level landmark used to
        // drop *connected* queries (the old fallback only patched vertex
        // 0's component). Two components, many seeds: every connected
        // pair must answer finitely and the report must count 0 dropouts.
        let mut edges = Vec::new();
        for v in 0..25u32 {
            edges.push(spanner_graph::edge::Edge::new(v, (v + 1) % 26, 1));
        }
        for v in 26..33u32 {
            edges.push(spanner_graph::edge::Edge::new(v, v + 1, 3));
        }
        let g = Graph::from_edges(34, edges);
        for seed in 0..25u64 {
            let sk = DistanceSketches::preprocess(&g, 2, seed);
            for u in 26..=33u32 {
                for v in 26..=33u32 {
                    assert!(
                        sk.query(u, v) != INFINITY,
                        "seed {seed}: connected pair ({u},{v}) dropped"
                    );
                }
            }
            let whole = sketch_oracle(&g, TradeoffParams::new(1, 1), seed);
            let rep = evaluate_sketch_oracle(&g, &whole, g.n(), seed);
            assert_eq!(rep.failed_queries, 0, "seed {seed}: dropouts in report");
        }
    }
}
