//! The output type shared by every spanner construction in this crate.

use spanner_graph::edge::EdgeId;
use spanner_graph::Graph;

use crate::unweighted_ok::UnweightedOkStats;

/// A constructed spanner plus the execution statistics the paper's
/// theorems quantify.
#[derive(Debug, Clone)]
pub struct SpannerResult {
    /// Edge ids (into the host graph's edge list) forming the spanner;
    /// sorted and duplicate-free.
    pub edges: Vec<EdgeId>,
    /// Clustering epochs executed (the paper's `l`; 0 when `k = 1`).
    pub epochs: u32,
    /// Baswana–Sen-style growth iterations executed in total (`t·l`).
    /// Each costs `O(1/γ)` MPC rounds (Theorem 1.1 / Lemma 6.1).
    pub iterations: u32,
    /// The theoretical stretch guarantee for the parameters used.
    pub stretch_bound: f64,
    /// Maximum cluster radius (hops on the original graph, measured from
    /// the cluster centre through the cluster tree) at the end of each
    /// epoch — ablation A1 compares this against `((2t+1)^i − 1)/2`.
    pub radius_per_epoch: Vec<u32>,
    /// Surviving super-nodes after each epoch (Lemma 5.12's quantity).
    pub supernodes_per_epoch: Vec<usize>,
    /// Human-readable algorithm label for experiment tables.
    pub algorithm: String,
    /// Sparse/dense decomposition statistics — populated only by the
    /// Appendix B unweighted construction, `None` everywhere else.
    pub decomposition: Option<UnweightedOkStats>,
}

impl SpannerResult {
    /// The degenerate "spanner = the whole graph" result every
    /// construction returns for `k = 1` (a 1-spanner keeps everything)
    /// and for edgeless inputs. Its label is empty; `SpannerRequest::execute`
    /// stamps the plan's label on every result.
    pub fn whole_graph(g: &Graph) -> Self {
        SpannerResult {
            edges: (0..g.m() as EdgeId).collect(),
            epochs: 0,
            iterations: 0,
            stretch_bound: 1.0,
            radius_per_epoch: vec![],
            supernodes_per_epoch: vec![],
            algorithm: String::new(),
            decomposition: None,
        }
    }

    /// Number of spanner edges.
    pub fn size(&self) -> usize {
        self.edges.len()
    }

    /// Materialises the spanner as a standalone graph over the same
    /// vertex set (mostly for tests; verification uses
    /// `spanner_graph::verify` directly on the ids).
    pub fn subgraph(&self, g: &Graph) -> Graph {
        g.edge_subgraph(&self.edges)
    }

    /// Sorts and deduplicates the edge set (constructions call this once
    /// before returning).
    pub(crate) fn canonicalise(&mut self) {
        self.edges.sort_unstable();
        self.edges.dedup();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spanner_graph::generators::{self, WeightModel};

    #[test]
    fn canonicalise_dedups() {
        let g = generators::cycle(5, WeightModel::Unit, 0);
        let mut r = SpannerResult {
            edges: vec![3, 1, 3, 0],
            epochs: 1,
            iterations: 1,
            stretch_bound: 3.0,
            radius_per_epoch: vec![],
            supernodes_per_epoch: vec![],
            algorithm: "test".into(),
            decomposition: None,
        };
        r.canonicalise();
        assert_eq!(r.edges, vec![0, 1, 3]);
        assert_eq!(r.size(), 3);
        assert_eq!(r.subgraph(&g).m(), 3);
    }

    #[test]
    fn whole_graph_keeps_every_edge() {
        let g = generators::cycle(7, WeightModel::Unit, 0);
        let r = SpannerResult::whole_graph(&g);
        assert_eq!(r.size(), g.m());
        assert_eq!(r.stretch_bound, 1.0);
        assert_eq!(r.iterations, 0);
        assert!(r.decomposition.is_none());
    }
}
