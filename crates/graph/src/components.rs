//! Connectivity utilities: connected components, spanning forests, and a
//! union-find used across the workspace (it doubles as the PRAM "leader
//! pointer" merge structure described in Section 6 of the paper).

use rayon::prelude::*;

use crate::edge::EdgeId;
use crate::graph::Graph;

/// Plain union-find with path halving and union by size.
#[derive(Debug, Clone)]
pub struct UnionFind {
    parent: Vec<u32>,
    size: Vec<u32>,
    components: usize,
}

impl UnionFind {
    /// `n` singleton sets.
    pub fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n as u32).collect(),
            size: vec![1; n],
            components: n,
        }
    }

    /// Representative of `x`'s set.
    pub fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            let gp = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = gp;
            x = gp;
        }
        x
    }

    /// Merges the sets of `a` and `b`; returns `true` if they were distinct.
    pub fn union(&mut self, a: u32, b: u32) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        let (big, small) = if self.size[ra as usize] >= self.size[rb as usize] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[small as usize] = big;
        self.size[big as usize] += self.size[small as usize];
        self.components -= 1;
        true
    }

    /// Number of disjoint sets remaining.
    pub fn component_count(&self) -> usize {
        self.components
    }
}

/// Component label (the smallest vertex id in the component) per vertex.
pub fn component_labels(g: &Graph) -> Vec<u32> {
    let mut uf = UnionFind::new(g.n());
    for e in g.edges() {
        uf.union(e.u, e.v);
    }
    let mut label = vec![u32::MAX; g.n()];
    // Make labels canonical: smallest member id.
    for v in 0..g.n() as u32 {
        let r = uf.find(v) as usize;
        if label[r] == u32::MAX {
            label[r] = v;
        }
    }
    (0..g.n() as u32)
        .map(|v| label[uf.find(v) as usize])
        .collect()
}

/// Number of connected components.
pub fn component_count(g: &Graph) -> usize {
    let mut uf = UnionFind::new(g.n());
    for e in g.edges() {
        uf.union(e.u, e.v);
    }
    uf.component_count()
}

/// `true` iff `g` is connected (the empty graph counts as connected).
pub fn is_connected(g: &Graph) -> bool {
    g.n() <= 1 || component_count(g) == 1
}

/// Edge ids of an arbitrary spanning forest (used by generators to make
/// workloads connected, and as a sanity lower bound for spanner sizes).
pub fn spanning_forest(g: &Graph) -> Vec<EdgeId> {
    let mut uf = UnionFind::new(g.n());
    let mut out = Vec::new();
    for (id, e) in g.edges().iter().enumerate() {
        if uf.union(e.u, e.v) {
            out.push(id as EdgeId);
        }
    }
    out
}

/// Kruskal minimum spanning forest (total weight used in sanity checks: a
/// spanner always contains a spanning forest of every component).
pub fn minimum_spanning_forest(g: &Graph) -> Vec<EdgeId> {
    let mut ids: Vec<EdgeId> = (0..g.m() as EdgeId).collect();
    // (weight, id) key: unique per item, so the unstable parallel sort is
    // deterministic at every thread count — Kruskal's edge choice among
    // equal weights must not depend on the pool size.
    ids.par_sort_unstable_by_key(|&id| (g.edge(id).w, id));
    let mut uf = UnionFind::new(g.n());
    let mut out = Vec::new();
    for id in ids {
        let e = g.edge(id);
        if uf.union(e.u, e.v) {
            out.push(id);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edge::Edge;

    #[test]
    fn union_find_merges() {
        let mut uf = UnionFind::new(4);
        assert_eq!(uf.component_count(), 4);
        assert!(uf.union(0, 1));
        assert!(!uf.union(1, 0));
        assert!(uf.union(2, 3));
        assert_eq!(uf.component_count(), 2);
        assert_eq!(uf.find(0), uf.find(1));
        assert_ne!(uf.find(0), uf.find(2));
    }

    #[test]
    fn components_of_two_paths() {
        let g = Graph::from_edges(
            6,
            vec![Edge::new(0, 1, 1), Edge::new(1, 2, 1), Edge::new(3, 4, 1)],
        );
        assert_eq!(component_count(&g), 3); // {0,1,2}, {3,4}, {5}
        let labels = component_labels(&g);
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[1], labels[2]);
        assert_eq!(labels[3], labels[4]);
        assert_ne!(labels[0], labels[3]);
        assert_eq!(labels[5], 5);
        assert!(!is_connected(&g));
    }

    #[test]
    fn spanning_forest_size() {
        let g = Graph::from_edges(
            4,
            vec![
                Edge::new(0, 1, 1),
                Edge::new(1, 2, 1),
                Edge::new(2, 0, 1),
                Edge::new(2, 3, 1),
            ],
        );
        let f = spanning_forest(&g);
        assert_eq!(f.len(), 3);
        assert!(is_connected(&g.edge_subgraph(&f)));
    }

    #[test]
    fn msf_picks_light_edges() {
        let g = Graph::from_edges(
            3,
            vec![Edge::new(0, 1, 10), Edge::new(1, 2, 1), Edge::new(0, 2, 1)],
        );
        let f = minimum_spanning_forest(&g);
        let total: u64 = f.iter().map(|&id| g.edge(id).w).sum();
        assert_eq!(total, 2);
    }
}
