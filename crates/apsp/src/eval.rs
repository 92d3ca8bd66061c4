//! Empirical approximation-quality measurement for the APSP application
//! (experiment E6's measurement core).

use rayon::prelude::*;

use spanner_graph::edge::INFINITY;
use spanner_graph::shortest_paths::dijkstra;
use spanner_graph::Graph;

use spanner_core::pipeline::DistanceOracle;

/// Approximation statistics of an oracle against exact distances.
#[derive(Debug, Clone, Copy)]
pub struct ApproxReport {
    /// Maximum observed `d̂ / d` over measured pairs.
    pub max_ratio: f64,
    /// Mean observed ratio.
    pub avg_ratio: f64,
    /// Number of (source, target) pairs measured.
    pub pairs: usize,
    /// The construction's guarantee, for the predicted-vs-measured table.
    pub guarantee: f64,
}

/// Measures `d̂/d` of a pipeline-built [`DistanceOracle`] (any query
/// engine) over all targets from `sources.min(n)` random sources (full
/// APSP comparison when `sources ≥ n`), judged against its *composed*
/// guarantee.
///
/// # Panics
/// Panics if the oracle fails to preserve reachability (that would mean
/// the spanner is invalid, which other tests rule out — here it guards
/// the measurement itself).
pub fn measure_distance_oracle(
    g: &Graph,
    oracle: &DistanceOracle,
    sources: usize,
    seed: u64,
) -> ApproxReport {
    use rand::prelude::*;
    let guarantee = oracle.stretch_bound();
    let n = g.n();
    if n == 0 {
        return ApproxReport {
            max_ratio: 1.0,
            avg_ratio: 1.0,
            pairs: 0,
            guarantee,
        };
    }
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let srcs: Vec<u32> = if sources >= n {
        (0..n as u32).collect()
    } else {
        let mut all: Vec<u32> = (0..n as u32).collect();
        all.shuffle(&mut rng);
        all.truncate(sources);
        all
    };

    let rows: Vec<(f64, f64, usize)> = srcs
        .par_iter()
        .map(|&s| {
            let exact = dijkstra(g, s).dist;
            let approx = oracle.distances_from(s);
            let mut max = 1.0f64;
            let mut sum = 0.0;
            let mut cnt = 0usize;
            for v in 0..n {
                if v as u32 != s && exact[v] != INFINITY && exact[v] > 0 {
                    assert!(
                        approx[v] != INFINITY,
                        "oracle lost reachability for pair ({s},{v})"
                    );
                    let r = approx[v] as f64 / exact[v] as f64;
                    max = max.max(r);
                    sum += r;
                    cnt += 1;
                }
            }
            (max, sum, cnt)
        })
        .collect();

    let mut max_ratio = 1.0;
    let mut sum = 0.0;
    let mut pairs = 0usize;
    for (mx, s, c) in rows {
        max_ratio = f64::max(max_ratio, mx);
        sum += s;
        pairs += c;
    }
    ApproxReport {
        max_ratio,
        avg_ratio: if pairs == 0 { 1.0 } else { sum / pairs as f64 },
        pairs,
        guarantee,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::apsp_request;
    use spanner_core::pipeline::{Algorithm, DistanceRequest, QueryEngine};
    use spanner_core::TradeoffParams;
    use spanner_graph::generators::{self, WeightModel};

    /// The whole graph as an oracle (`k = 1` is the 1-spanner).
    fn whole_graph_oracle(g: &Graph) -> DistanceOracle {
        DistanceRequest::new(g, Algorithm::General(TradeoffParams::new(1, 1)))
            .build()
            .unwrap()
    }

    #[test]
    fn ratios_are_at_least_one_and_within_guarantee() {
        let g = generators::connected_erdos_renyi(150, 0.08, WeightModel::Uniform(1, 32), 3);
        let oracle = apsp_request(&g).seed(5).build().unwrap();
        let rep = measure_distance_oracle(&g, &oracle, 25, 7);
        assert!(rep.pairs > 0);
        assert!(rep.avg_ratio >= 1.0 - 1e-9);
        assert!(rep.max_ratio >= rep.avg_ratio);
        assert!(
            rep.max_ratio <= rep.guarantee + 1e-9,
            "measured {} vs guarantee {}",
            rep.max_ratio,
            rep.guarantee
        );
    }

    #[test]
    fn sketch_oracle_measures_within_composed_guarantee() {
        let g = generators::connected_erdos_renyi(120, 0.08, WeightModel::Uniform(1, 16), 9);
        let oracle = apsp_request(&g)
            .engine(QueryEngine::Sketches { levels: 2 })
            .seed(5)
            .build()
            .unwrap();
        let rep = measure_distance_oracle(&g, &oracle, 20, 11);
        assert!(rep.pairs > 0);
        assert!(rep.avg_ratio >= 1.0 - 1e-9);
        assert!(
            rep.max_ratio <= rep.guarantee + 1e-9,
            "measured {} vs composed guarantee {}",
            rep.max_ratio,
            rep.guarantee
        );
    }

    #[test]
    fn full_graph_oracle_is_exact() {
        let g = generators::torus(7, 7, WeightModel::Uniform(1, 9), 1);
        let rep = measure_distance_oracle(&g, &whole_graph_oracle(&g), g.n(), 3);
        assert!((rep.max_ratio - 1.0).abs() < 1e-12);
        assert!((rep.avg_ratio - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_graph_report() {
        let g = Graph::from_edges(0, vec![]);
        let rep = measure_distance_oracle(&g, &whole_graph_oracle(&g), 10, 0);
        assert_eq!(rep.pairs, 0);
    }
}
