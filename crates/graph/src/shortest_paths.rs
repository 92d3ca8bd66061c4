//! Exact shortest-path reference algorithms.
//!
//! These are the ground truth against which every approximate distance or
//! spanner stretch claim in the reproduction is checked, and they also serve
//! as building blocks inside Appendix B's algorithm (BFS ball growing,
//! shortest paths to hitting-set vertices).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use rayon::prelude::*;

use crate::edge::{Distance, INFINITY};
use crate::graph::Graph;

/// Result of a single-source search: its distances.
#[derive(Debug, Clone)]
pub struct SsspTree {
    /// `dist[v]` is the exact distance from the source, or [`INFINITY`].
    pub dist: Vec<Distance>,
}

/// Dijkstra from `source`. Runs in `O(m log n)`.
pub fn dijkstra(g: &Graph, source: u32) -> SsspTree {
    let n = g.n();
    let mut dist = vec![INFINITY; n];
    let mut heap: BinaryHeap<Reverse<(Distance, u32)>> = BinaryHeap::new();
    dist[source as usize] = 0;
    heap.push(Reverse((0, source)));
    while let Some(Reverse((d, v))) = heap.pop() {
        if d > dist[v as usize] {
            continue;
        }
        for (u, w, _id) in g.neighbors(v) {
            let nd = d.saturating_add(w);
            if nd < dist[u as usize] {
                dist[u as usize] = nd;
                heap.push(Reverse((nd, u)));
            }
        }
    }
    SsspTree { dist }
}

/// Exact distances from every vertex in `sources` (one Dijkstra per source,
/// parallelised with rayon). Row `i` corresponds to `sources[i]`.
pub fn multi_source_distances(g: &Graph, sources: &[u32]) -> Vec<Vec<Distance>> {
    sources.par_iter().map(|&s| dijkstra(g, s).dist).collect()
}

/// Exact all-pairs shortest paths: `n` Dijkstras in parallel.
///
/// Quadratic memory — intended for the verification sizes used in the
/// experiments (n ≤ a few thousand).
pub fn apsp(g: &Graph) -> Vec<Vec<Distance>> {
    let sources: Vec<u32> = (0..g.n() as u32).collect();
    multi_source_distances(g, &sources)
}

/// Truncated Dijkstra used by Appendix B's ball growing: explores outwards
/// from `source` until either `max_hops` hops are exhausted or the ball
/// contains more than `max_size` vertices+edges; returns the visited
/// vertices in settle order together with the hop-distance of each.
///
/// The `max_size` cap counts vertices plus *incident edge endpoints seen*,
/// matching the paper's "balls of size O(n^{γ/2}) (including both edges and
/// vertices)".
pub fn capped_bfs_ball(g: &Graph, source: u32, max_hops: usize, max_size: usize) -> CappedBall {
    let mut visited: Vec<u32> = vec![source];
    let mut hop: Vec<usize> = vec![0];
    let mut in_ball = std::collections::HashMap::new();
    in_ball.insert(source, 0usize);
    let mut frontier = vec![source];
    let mut size = 1usize; // vertices + edges counted into the ball
    let mut truncated = false;
    let mut h = 0usize;
    'outer: while !frontier.is_empty() && h < max_hops {
        h += 1;
        let mut next = Vec::new();
        for &v in &frontier {
            for (u, _w, _id) in g.neighbors(v) {
                size += 1; // count the explored edge endpoint
                if size > max_size {
                    truncated = true;
                    break 'outer;
                }
                if let std::collections::hash_map::Entry::Vacant(slot) = in_ball.entry(u) {
                    slot.insert(visited.len());
                    visited.push(u);
                    hop.push(h);
                    next.push(u);
                    size += 1;
                    if size > max_size {
                        truncated = true;
                        break 'outer;
                    }
                }
            }
        }
        frontier = next;
    }
    CappedBall {
        source,
        vertices: visited,
        hops: hop,
        truncated,
        size,
    }
}

/// Output of [`capped_bfs_ball`].
#[derive(Debug, Clone)]
pub struct CappedBall {
    /// Ball centre.
    pub source: u32,
    /// Vertices in settle order (`vertices[0] == source`).
    pub vertices: Vec<u32>,
    /// Hop distance of each vertex in `vertices`.
    pub hops: Vec<usize>,
    /// Whether exploration stopped because the size cap was hit (the paper's
    /// "dense" condition).
    pub truncated: bool,
    /// Vertices + explored edge endpoints counted against the cap.
    pub size: usize,
}

impl CappedBall {
    /// Whether `v` is inside the ball.
    pub fn contains(&self, v: u32) -> bool {
        self.vertices.contains(&v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edge::Edge;

    fn path_graph(weights: &[u64]) -> Graph {
        let n = weights.len() + 1;
        Graph::from_edges(
            n,
            weights
                .iter()
                .enumerate()
                .map(|(i, &w)| Edge::new(i as u32, i as u32 + 1, w)),
        )
    }

    #[test]
    fn dijkstra_on_path() {
        let g = path_graph(&[2, 3, 4]);
        let t = dijkstra(&g, 0);
        assert_eq!(t.dist, vec![0, 2, 5, 9]);
    }

    #[test]
    fn dijkstra_prefers_light_detour() {
        // 0-1 weight 10, 0-2 weight 1, 2-1 weight 1.
        let g = Graph::from_edges(
            3,
            vec![Edge::new(0, 1, 10), Edge::new(0, 2, 1), Edge::new(2, 1, 1)],
        );
        let t = dijkstra(&g, 0);
        assert_eq!(t.dist[1], 2);
    }

    #[test]
    fn unreachable_is_infinity() {
        let g = Graph::from_edges(4, vec![Edge::new(0, 1, 1)]);
        let t = dijkstra(&g, 0);
        assert_eq!(t.dist[2], INFINITY);
    }

    #[test]
    fn apsp_matches_single_source() {
        let g = Graph::from_edges(
            5,
            vec![
                Edge::new(0, 1, 1),
                Edge::new(1, 2, 2),
                Edge::new(2, 3, 3),
                Edge::new(3, 4, 1),
                Edge::new(0, 4, 10),
            ],
        );
        let all = apsp(&g);
        for s in 0..5u32 {
            assert_eq!(all[s as usize], dijkstra(&g, s).dist);
        }
        // Symmetry of undirected distances.
        for (a, row) in all.iter().enumerate().take(5) {
            for (b, &d) in row.iter().enumerate().take(5) {
                assert_eq!(d, all[b][a]);
            }
        }
    }

    #[test]
    fn capped_ball_respects_hops() {
        let g = path_graph(&[1, 1, 1, 1, 1]);
        let b = capped_bfs_ball(&g, 0, 2, usize::MAX);
        assert_eq!(b.vertices, vec![0, 1, 2]);
        assert_eq!(b.hops, vec![0, 1, 2]);
        assert!(!b.truncated);
    }

    #[test]
    fn capped_ball_truncates_on_size() {
        // Star graph: centre 0 with 50 leaves.
        let g = Graph::from_edges(51, (1..=50).map(|i| Edge::new(0, i, 1)));
        let b = capped_bfs_ball(&g, 0, 10, 10);
        assert!(b.truncated);
        assert!(b.size <= 11); // may overshoot by the final increment only
    }
}
