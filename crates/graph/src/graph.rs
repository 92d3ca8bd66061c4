//! Compact CSR graph representation and its builder.
//!
//! The entire reproduction works on **simple, undirected, weighted** graphs:
//! the paper's algorithms assume them implicitly (parallel edges would only
//! ever keep the lightest copy — exactly what [`GraphBuilder`] does).

use rayon::prelude::*;

use crate::edge::{Edge, EdgeId, EdgeList, Weight};
use crate::scatter::{bucket_starts, ranges};

/// A weighted undirected graph in CSR (compressed sparse row) form.
///
/// Construction goes through [`GraphBuilder`] (or [`Graph::from_edges`]),
/// which canonicalises endpoints, removes self-loops and keeps only the
/// minimum-weight copy of parallel edges.
///
/// Each undirected edge is stored once in [`Graph::edges`] and twice in the
/// adjacency structure (one directed copy per endpoint); adjacency entries
/// carry the [`EdgeId`] so algorithms can report spanners as edge-id sets.
///
/// Edge ids follow `(u, v)` order, so the edges of a vertex in edge-id
/// order are its edges in neighbour order: [`Graph::neighbors`] lists
/// neighbours ascending, and the builder fills the adjacency in
/// `O(n + m)` without sorting it.
#[derive(Debug, Clone)]
pub struct Graph {
    n: usize,
    edges: EdgeList,
    /// CSR offsets, length `n + 1`.
    offsets: Vec<usize>,
    /// CSR adjacency: `(neighbour, weight, edge id)`.
    adj: Vec<(u32, Weight, EdgeId)>,
    /// Lazily-computed [`Graph::fingerprint`] (graphs are immutable
    /// after construction, so the hash is computed at most once).
    fp: std::sync::OnceLock<u64>,
}

impl Graph {
    /// Builds a graph on `n` vertices from an arbitrary edge list.
    ///
    /// Self-loops are dropped; parallel edges keep the lightest copy.
    pub fn from_edges(n: usize, edges: impl IntoIterator<Item = Edge>) -> Self {
        let mut b = GraphBuilder::new(n);
        for e in edges {
            b.add_edge(e.u, e.v, e.w);
        }
        b.build()
    }

    /// Number of vertices.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of (undirected) edges.
    #[inline]
    pub fn m(&self) -> usize {
        self.edges.len()
    }

    /// The canonical edge list; `EdgeId` values index into it.
    #[inline]
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// The edge with the given id.
    #[inline]
    pub fn edge(&self, id: EdgeId) -> Edge {
        self.edges[id as usize]
    }

    /// Iterator over `(neighbour, weight, edge id)` for vertex `v`.
    #[inline]
    pub fn neighbors(&self, v: u32) -> impl Iterator<Item = (u32, Weight, EdgeId)> + '_ {
        self.adjacency(v).iter().copied()
    }

    /// The adjacency run of `v` in the CSR, borrowed in place: its
    /// `(neighbour, weight, edge id)` entries in neighbour order, one
    /// per incident edge (what [`Graph::neighbors`] iterates).
    #[inline]
    pub fn adjacency(&self, v: u32) -> &[(u32, Weight, EdgeId)] {
        let v = v as usize;
        &self.adj[self.offsets[v]..self.offsets[v + 1]]
    }

    /// The CSR offsets, length `n + 1`: the adjacency run of `v` starts
    /// `offsets()[v]` entries into the CSR and ends at `offsets()[v + 1]`,
    /// so the offsets are the degrees' prefix sums (the form
    /// [`crate::scatter::ranges`] cuts into balanced vertex ranges).
    #[inline]
    pub fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: u32) -> usize {
        let v = v as usize;
        self.offsets[v + 1] - self.offsets[v]
    }

    /// Maximum degree over all vertices (0 for the empty graph).
    pub fn max_degree(&self) -> usize {
        (0..self.n as u32)
            .map(|v| self.degree(v))
            .max()
            .unwrap_or(0)
    }

    /// Whether the graph has unit weights only.
    pub fn is_unweighted(&self) -> bool {
        self.edges.iter().all(|e| e.w == 1)
    }

    /// The subgraph induced by the given edge ids, on the same vertex set.
    ///
    /// This is how candidate spanners are materialised for verification:
    /// picking edges by id guarantees `H ⊆ G`.
    pub fn edge_subgraph(&self, edge_ids: &[EdgeId]) -> Graph {
        let edges: EdgeList = edge_ids.iter().map(|&id| self.edge(id)).collect();
        Graph::from_edges(self.n, edges)
    }

    /// Strips weights, producing the unit-weight version of this graph
    /// (used when feeding weighted workloads to unweighted-only algorithms
    /// such as Appendix B's).
    pub fn unweighted_copy(&self) -> Graph {
        Graph::from_edges(self.n, self.edges.iter().map(|e| Edge::new(e.u, e.v, 1)))
    }

    /// A structural fingerprint of the graph: a 64-bit hash of `n` and
    /// the canonical edge list. Equal graphs (same vertex count and
    /// deduplicated, sorted edges) always share a fingerprint;
    /// distinct graphs collide with probability `≈ 2⁻⁶⁴` per pair —
    /// acceptable for its use as a cache key for derived artefacts such
    /// as distance oracles, but it is a hash, not a proof of identity.
    /// The O(m) hash is computed on first call and memoised (graphs are
    /// immutable once built), so cache lookups keyed on it stay O(1).
    pub fn fingerprint(&self) -> u64 {
        *self.fp.get_or_init(|| {
            fn mix(mut z: u64) -> u64 {
                // splitmix64 finaliser: cheap, well-distributed,
                // dependency-free.
                z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                z ^ (z >> 31)
            }
            let mut h = mix(self.n as u64 ^ 0x6772_6170_685f_6670); // "graph_fp"
            for e in &self.edges {
                h = mix(h ^ ((e.u as u64) << 32 | e.v as u64));
                h = mix(h ^ e.w);
            }
            h
        })
    }
}

/// Incremental builder for [`Graph`].
///
/// Deduplicates parallel edges keeping the minimum weight, drops self-loops,
/// and produces a deterministic CSR layout (adjacency sorted by neighbour).
///
/// [`GraphBuilder::build`] does `O(n + m)` work for `m` added edges,
/// apart from sorting each vertex's own bucket of edges: two counting
/// scatters on the rayon pool, each cut into one vertex range per pool
/// thread, and no sort of the whole list. The result is the same at
/// every thread count.
#[derive(Debug, Default)]
pub struct GraphBuilder {
    n: usize,
    raw: EdgeList,
}

impl GraphBuilder {
    /// A builder for a graph on `n` vertices.
    pub fn new(n: usize) -> Self {
        GraphBuilder { n, raw: Vec::new() }
    }

    /// Adds an undirected edge; self-loops are silently ignored.
    ///
    /// # Panics
    /// Panics if an endpoint is out of range.
    pub fn add_edge(&mut self, a: u32, b: u32, w: Weight) -> &mut Self {
        assert!(
            (a as usize) < self.n && (b as usize) < self.n,
            "endpoint out of range: ({a},{b}) with n={}",
            self.n
        );
        if a != b {
            self.raw.push(Edge::new(a, b, w));
        }
        self
    }

    /// Finalises into a [`Graph`].
    ///
    /// First the canonical edge list: the raw edges are bucketed by
    /// their smaller endpoint `u`, each bucket is sorted by `(v, w)`, and
    /// the first (lightest) copy of each pair is kept, so the list comes
    /// out in `(u, v)` order. Then the adjacency: each vertex's run is
    /// filled from the edges in id order, which is neighbour order.
    pub fn build(self) -> Graph {
        let n = self.n;
        let by_u = bucket_starts(&self.raw, n, |e, count| count[e.u as usize + 1] += 1);
        let parts: Vec<EdgeList> = ranges(&by_u)
            .into_par_iter()
            .map(|range| canonical_edges(&self.raw, &by_u, range))
            .collect();
        // The raw list's memory is already paged in: the canonical list,
        // at most as long, goes there.
        let mut edges = self.raw;
        edges.clear();
        for part in parts {
            edges.extend(part);
        }

        let offsets = bucket_starts(&edges, n, |e, count| {
            count[e.u as usize + 1] += 1;
            count[e.v as usize + 1] += 1;
        });
        let mut adj = vec![(0u32, 0 as Weight, 0 as EdgeId); offsets[n]];
        let mut runs = Vec::new();
        let mut rest = adj.as_mut_slice();
        for (lo, hi) in ranges(&offsets) {
            let (run, tail) = rest.split_at_mut(offsets[hi] - offsets[lo]);
            runs.push(((lo, hi), run));
            rest = tail;
        }
        runs.into_par_iter()
            .for_each(|(range, run)| fill_adjacency(&edges, &offsets, range, run));
        Graph {
            n,
            edges,
            offsets,
            adj,
            fp: std::sync::OnceLock::new(),
        }
    }
}

/// The canonical edges whose smaller endpoint is in `lo..hi`, in `(u, v)`
/// order with the lightest copy of each pair: the raw edges of those
/// vertices are scattered into their buckets (offsets `by_u`), and each
/// bucket is sorted by `(v, w)`. Equal keys are identical edges, so the
/// unstable sort is deterministic.
fn canonical_edges(raw: &[Edge], by_u: &[usize], (lo, hi): (usize, usize)) -> EdgeList {
    let base = by_u[lo];
    let mut bucket = vec![Edge { u: 0, v: 0, w: 0 }; by_u[hi] - base];
    let mut next: Vec<usize> = by_u[lo..hi].iter().map(|&s| s - base).collect();
    for e in raw {
        let u = e.u as usize;
        if (lo..hi).contains(&u) {
            bucket[next[u - lo]] = *e;
            next[u - lo] += 1;
        }
    }
    for u in lo..hi {
        bucket[by_u[u] - base..by_u[u + 1] - base].sort_unstable_by_key(|e| (e.v, e.w));
    }
    bucket.dedup_by_key(|e| (e.u, e.v));
    bucket
}

/// Fills `adj`, the adjacency runs of the vertices `lo..hi` (it starts at
/// `offsets[lo]`), from the canonical edges in id order. An edge with
/// `u >= hi` has no endpoint in the range, so the scan stops there.
fn fill_adjacency(
    edges: &[Edge],
    offsets: &[usize],
    (lo, hi): (usize, usize),
    adj: &mut [(u32, Weight, EdgeId)],
) {
    let base = offsets[lo];
    let mut next: Vec<usize> = offsets[lo..hi].iter().map(|&s| s - base).collect();
    let end = edges.partition_point(|e| (e.u as usize) < hi);
    for (id, e) in edges[..end].iter().enumerate() {
        for (x, y) in [(e.u, e.v), (e.v, e.u)] {
            let x = x as usize;
            if (lo..hi).contains(&x) {
                adj[next[x - lo]] = (y, e.w, id as EdgeId);
                next[x - lo] += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Graph {
        Graph::from_edges(
            3,
            vec![Edge::new(0, 1, 1), Edge::new(1, 2, 2), Edge::new(0, 2, 3)],
        )
    }

    #[test]
    fn csr_basic_shape() {
        let g = triangle();
        assert_eq!(g.n(), 3);
        assert_eq!(g.m(), 3);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.degree(2), 2);
        assert_eq!(g.max_degree(), 2);
    }

    #[test]
    fn neighbors_carry_weights_and_ids() {
        let g = triangle();
        let nbrs: Vec<_> = g.neighbors(0).collect();
        assert_eq!(nbrs.len(), 2);
        for (u, w, id) in nbrs {
            let e = g.edge(id);
            assert_eq!((e.u, e.v), (0, u));
            assert_eq!(e.w, w);
        }
    }

    #[test]
    fn adjacency_runs_are_the_neighbour_lists() {
        let g = triangle();
        assert_eq!(g.offsets(), &[0, 2, 4, 6]);
        for v in 0..3 {
            let run = g.adjacency(v);
            assert_eq!(
                run.len(),
                g.offsets()[v as usize + 1] - g.offsets()[v as usize]
            );
            assert!(run.iter().copied().eq(g.neighbors(v)));
        }
        assert_eq!(g.adjacency(0), &[(1, 1, 0), (2, 3, 1)]);
    }

    #[test]
    fn parallel_edges_keep_lightest() {
        let g = Graph::from_edges(
            2,
            vec![Edge::new(0, 1, 9), Edge::new(1, 0, 4), Edge::new(0, 1, 7)],
        );
        assert_eq!(g.m(), 1);
        assert_eq!(g.edge(0).w, 4);
    }

    #[test]
    fn self_loops_dropped() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(1, 1, 5).add_edge(0, 2, 1);
        let g = b.build();
        assert_eq!(g.m(), 1);
    }

    #[test]
    fn edge_subgraph_selects_ids() {
        let g = triangle();
        let h = g.edge_subgraph(&[0, 2]);
        assert_eq!(h.n(), 3);
        assert_eq!(h.m(), 2);
    }

    #[test]
    fn unweighted_copy_unitises() {
        let g = triangle();
        assert!(!g.is_unweighted());
        let u = g.unweighted_copy();
        assert!(u.is_unweighted());
        assert_eq!(u.m(), g.m());
    }

    #[test]
    fn empty_graph_is_fine() {
        let g = Graph::from_edges(0, vec![]);
        assert_eq!(g.n(), 0);
        assert_eq!(g.m(), 0);
        assert_eq!(g.max_degree(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn builder_rejects_out_of_range() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 5, 1);
    }
}
