//! Spanner verification and stretch measurement.
//!
//! A subgraph `H ⊆ G` is a `t`-spanner iff `d_H(u, v) ≤ t · d_G(u, v)` for
//! all pairs. The standard (and here, load-bearing) lemma is that checking
//! **edges** suffices: if every edge `(u,v) ∈ E(G)` satisfies
//! `d_H(u,v) ≤ t · w(u,v)`, then every pair does (replace each edge of a
//! shortest path by its spanner detour). This module measures the exact
//! per-edge stretch of candidate spanners — the quantity the paper's
//! Theorems 3.4, 4.10 and 5.11 bound — plus a redundant sampled pairwise
//! check, and the size statistics that Theorems 3.1, 4.13 and 5.15 bound.

use rayon::prelude::*;

use crate::edge::{EdgeId, INFINITY};
use crate::graph::Graph;
use crate::shortest_paths::dijkstra;

/// Everything the experiments need to know about one candidate spanner.
#[derive(Debug, Clone)]
pub struct SpannerReport {
    /// Number of vertices of the host graph.
    pub n: usize,
    /// Number of edges of the host graph.
    pub m: usize,
    /// Number of edges in the spanner.
    pub spanner_edges: usize,
    /// Maximum over host edges of `d_H(u,v) / w(u,v)` — exactly the
    /// quantity Theorems 3.4 / 4.10 / 5.11 bound. Note this certificate
    /// ratio can be *below* 1 for individual edges when `G` itself
    /// shortcuts a heavy edge; the pairwise stretch implied for all vertex
    /// pairs is `max(1, max_edge_stretch)`.
    pub max_edge_stretch: f64,
    /// Mean over host edges of `d_H(u,v) / w(u,v)`.
    pub avg_edge_stretch: f64,
    /// Whether every host edge is spanned at all (connectivity per
    /// component is preserved). A real spanner must satisfy this.
    pub all_edges_spanned: bool,
}

/// Measures the exact per-edge stretch of the spanner given by `edge_ids`.
///
/// Cost: one Dijkstra on `H` per distinct vertex incident to a host edge,
/// parallelised. Intended for verification sizes (n up to a few thousand).
pub fn verify_spanner(g: &Graph, edge_ids: &[EdgeId]) -> SpannerReport {
    let h = g.edge_subgraph(edge_ids);
    // Group host edges by their smaller endpoint so each Dijkstra on H is
    // reused for all host edges out of that vertex.
    let mut by_source: Vec<Vec<(u32, u64)>> = vec![Vec::new(); g.n()];
    for e in g.edges() {
        by_source[e.u as usize].push((e.v, e.w));
    }
    let sources: Vec<u32> = (0..g.n() as u32)
        .filter(|&v| !by_source[v as usize].is_empty())
        .collect();

    let per_source: Vec<(f64, f64, usize, bool)> = sources
        .par_iter()
        .map(|&s| {
            let tree = dijkstra(&h, s);
            let mut max_st = 0.0f64;
            let mut sum_st = 0.0f64;
            let mut cnt = 0usize;
            let mut all_spanned = true;
            for &(v, w) in &by_source[s as usize] {
                let dh = tree.dist[v as usize];
                if dh == INFINITY {
                    all_spanned = false;
                    continue;
                }
                let st = dh as f64 / w as f64;
                max_st = max_st.max(st);
                sum_st += st;
                cnt += 1;
            }
            (max_st, sum_st, cnt, all_spanned)
        })
        .collect();

    let mut max_edge_stretch = 0.0f64;
    let mut sum = 0.0f64;
    let mut cnt = 0usize;
    let mut all_edges_spanned = true;
    for (mx, s, c, ok) in per_source {
        max_edge_stretch = max_edge_stretch.max(mx);
        sum += s;
        cnt += c;
        all_edges_spanned &= ok;
    }
    SpannerReport {
        n: g.n(),
        m: g.m(),
        spanner_edges: edge_ids.len(),
        max_edge_stretch,
        avg_edge_stretch: if cnt == 0 { 1.0 } else { sum / cnt as f64 },
        all_edges_spanned,
    }
}

/// Sampled **pairwise** stretch `d_H / d_G` over `samples` random connected
/// pairs — a redundant end-to-end check of the per-edge lemma, and the
/// quantity the APSP experiments report.
pub fn sampled_pairwise_stretch(
    g: &Graph,
    edge_ids: &[EdgeId],
    samples: usize,
    seed: u64,
) -> PairwiseStretch {
    use rand::prelude::*;
    let h = g.edge_subgraph(edge_ids);
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let n = g.n() as u32;
    if n == 0 {
        return PairwiseStretch {
            max: 1.0,
            avg: 1.0,
            pairs: 0,
        };
    }
    let srcs: Vec<u32> = (0..samples.min(n as usize))
        .map(|_| rng.gen_range(0..n))
        .collect();
    let rows: Vec<(f64, f64, usize)> = srcs
        .par_iter()
        .map(|&s| {
            let dg = dijkstra(g, s).dist;
            let dh = dijkstra(&h, s).dist;
            let mut max = 1.0f64;
            let mut sum = 0.0;
            let mut cnt = 0usize;
            for v in 0..n as usize {
                if v as u32 != s && dg[v] != INFINITY && dg[v] > 0 {
                    debug_assert!(dh[v] != INFINITY, "spanner must preserve reachability");
                    let st = dh[v] as f64 / dg[v] as f64;
                    max = max.max(st);
                    sum += st;
                    cnt += 1;
                }
            }
            (max, sum, cnt)
        })
        .collect();
    let mut max = 1.0;
    let mut sum = 0.0;
    let mut cnt = 0usize;
    for (mx, s, c) in rows {
        max = f64::max(max, mx);
        sum += s;
        cnt += c;
    }
    PairwiseStretch {
        max,
        avg: if cnt == 0 { 1.0 } else { sum / cnt as f64 },
        pairs: cnt,
    }
}

/// Output of [`sampled_pairwise_stretch`].
#[derive(Debug, Clone, Copy)]
pub struct PairwiseStretch {
    /// Max stretch seen over the sampled pairs.
    pub max: f64,
    /// Mean stretch over the sampled pairs.
    pub avg: f64,
    /// Number of (source, target) pairs measured.
    pub pairs: usize,
}

/// Checks that `edge_ids` are valid, distinct edges of `g` (the subgraph
/// property of a spanner holds by construction when algorithms return ids;
/// this guards against harness bugs).
pub fn assert_valid_edge_ids(g: &Graph, edge_ids: &[EdgeId]) {
    let mut seen = vec![false; g.m()];
    for &id in edge_ids {
        assert!(
            (id as usize) < g.m(),
            "edge id {id} out of range (m={})",
            g.m()
        );
        assert!(!seen[id as usize], "duplicate edge id {id} in spanner");
        seen[id as usize] = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edge::Edge;
    use crate::generators::{connected_erdos_renyi, WeightModel};

    #[test]
    fn full_graph_is_a_one_spanner() {
        let g = connected_erdos_renyi(60, 0.1, WeightModel::Uniform(1, 8), 3);
        let all: Vec<EdgeId> = (0..g.m() as EdgeId).collect();
        let rep = verify_spanner(&g, &all);
        assert_eq!((rep.n, rep.m, rep.spanner_edges), (60, g.m(), g.m()));
        assert!(rep.all_edges_spanned);
        // Every edge is present, so its detour is at most its own weight;
        // some heavy edges may be shortcut by the rest of the graph, hence
        // ratios in (0, 1].
        assert!(rep.max_edge_stretch <= 1.0 + 1e-9);
        assert!(rep.avg_edge_stretch <= 1.0 + 1e-9);
        assert!(rep.avg_edge_stretch > 0.0);
    }

    #[test]
    fn missing_edge_increases_stretch() {
        // Triangle: dropping the heavy edge gives stretch (1+1)/3 < 1 on it?
        // No: weights 1,1,3 → detour 2 vs direct 3 → stretch 2/3... use
        // weights that force stretch > 1: drop a weight-1 edge of a triangle
        // with other weights 5,5 → detour 10, stretch 10.
        let g = Graph::from_edges(
            3,
            vec![Edge::new(0, 1, 1), Edge::new(1, 2, 5), Edge::new(0, 2, 5)],
        );
        // Spanner keeps edges 1 and 2 (the heavy ones), drops edge 0.
        let rep = verify_spanner(&g, &[1, 2]);
        assert!(rep.all_edges_spanned);
        assert!((rep.max_edge_stretch - 10.0).abs() < 1e-9);
    }

    #[test]
    fn detects_unspanned_edge() {
        let g = Graph::from_edges(4, vec![Edge::new(0, 1, 1), Edge::new(2, 3, 1)]);
        let rep = verify_spanner(&g, &[0]); // drops the only 2-3 edge
        assert!(!rep.all_edges_spanned);
    }

    #[test]
    fn spanning_tree_of_unit_cycle_has_stretch_n_minus_1() {
        let g = crate::generators::cycle(8, WeightModel::Unit, 0);
        // Remove one edge → path; the removed edge is stretched by n-1 = 7.
        let ids: Vec<EdgeId> = (0..7).collect();
        let rep = verify_spanner(&g, &ids);
        assert!(rep.all_edges_spanned);
        assert!((rep.max_edge_stretch - 7.0).abs() < 1e-9);
    }

    #[test]
    fn pairwise_stretch_bounded_by_edge_stretch() {
        let g = connected_erdos_renyi(80, 0.08, WeightModel::Uniform(1, 4), 9);
        // Use the minimum spanning forest as an extreme spanner.
        let msf = crate::components::minimum_spanning_forest(&g);
        let rep = verify_spanner(&g, &msf);
        assert!(rep.all_edges_spanned);
        let pw = sampled_pairwise_stretch(&g, &msf, 20, 1);
        // Per-edge stretch bounds pairwise stretch (the spanner lemma).
        assert!(
            pw.max <= rep.max_edge_stretch + 1e-9,
            "pairwise {} > edge {}",
            pw.max,
            rep.max_edge_stretch
        );
        assert!(pw.pairs > 0);
    }

    #[test]
    #[should_panic(expected = "duplicate edge id")]
    fn duplicate_ids_rejected() {
        let g = Graph::from_edges(2, vec![Edge::new(0, 1, 1)]);
        assert_valid_edge_ids(&g, &[0, 0]);
    }
}
