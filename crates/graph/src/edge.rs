//! Edge and edge-list types shared across the workspace.
//!
//! Edges are undirected and carry integral weights. Throughout the
//! reproduction an edge is identified by its index (`EdgeId`) into the
//! canonical edge list of the [`crate::Graph`] it belongs to; spanners are
//! reported as sets of such indices, which makes the subgraph property
//! (`H ⊆ G`, required by the definition of a spanner) true by construction.

/// Edge weight. The paper's algorithms only ever *compare* and *add*
/// weights, so integral weights lose no generality while keeping all
/// distance computations exact.
pub type Weight = u64;

/// Distance value used by the exact shortest-path routines.
pub type Distance = u64;

/// Sentinel distance for unreachable vertices.
pub const INFINITY: Distance = u64::MAX;

/// An undirected weighted edge. Stored canonically with `u <= v`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Edge {
    /// Smaller endpoint.
    pub u: u32,
    /// Larger endpoint.
    pub v: u32,
    /// Weight (`>= 1` for all generated workloads; `0` is permitted but the
    /// generators never produce it, matching the paper's positive weights).
    pub w: Weight,
}

impl Edge {
    /// Creates a canonical edge, swapping endpoints so that `u <= v`.
    ///
    /// # Panics
    /// Panics on self-loops: the paper's graphs are simple.
    pub fn new(a: u32, b: u32, w: Weight) -> Self {
        assert_ne!(a, b, "self-loops are not allowed");
        if a <= b {
            Edge { u: a, v: b, w }
        } else {
            Edge { u: b, v: a, w }
        }
    }
}

/// Identifier of an edge: its index into the owning graph's canonical edge
/// list.
pub type EdgeId = u32;

/// A plain list of canonical edges, the exchange format between the graph
/// builder, the generators and the distributed runtimes.
pub type EdgeList = Vec<Edge>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_canonicalises_endpoints() {
        let e = Edge::new(7, 3, 10);
        assert_eq!((e.u, e.v, e.w), (3, 7, 10));
        let e = Edge::new(3, 7, 10);
        assert_eq!((e.u, e.v, e.w), (3, 7, 10));
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn edge_rejects_self_loop() {
        let _ = Edge::new(4, 4, 1);
    }
}
