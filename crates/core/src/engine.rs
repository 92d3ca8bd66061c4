//! The clustering / contraction state machine shared by Sections 3, 4
//! and 5 of the paper.
//!
//! The engine maintains, over the **original** graph `G`:
//!
//! * a set of live *super-nodes* (each identified by the original vertex
//!   id of its root centre, so ids are stable across epochs and across
//!   implementations),
//! * each super-node's internal tree (edge ids over original vertices —
//!   the composition of Definition 5.2, materialised),
//! * the live inter-super-node edge set `E`,
//! * within an epoch, the current clustering `D_j` over super-nodes.
//!
//! One *iteration* ([`Engine::run_iteration`]) is a Baswana–Sen-style
//! grow step (the paper's Step B): sample clusters, let every super-node
//! of an unsampled cluster either join its nearest sampled neighbouring
//! cluster (adding the connecting edge to the spanner, plus one edge to
//! every strictly-closer neighbouring cluster) or, if it has no sampled
//! neighbour, add one edge per neighbouring cluster and retire.
//!
//! One *epoch* is `t` iterations followed by a *contraction*
//! ([`Engine::contract`], the paper's Step C): clusters become the new
//! super-nodes and only the minimum-weight edge survives between each
//! pair.
//!
//! All the algorithms are schedules over this engine:
//!
//! * Baswana–Sen = one epoch of `k` iterations at `p = n^{-1/k}`,
//! * Section 4 = `log k` epochs of 1 iteration at `p_i = n^{-2^{i-1}/k}`,
//! * Section 3 = 2 epochs of `√k` iterations,
//! * Section 5 = `l` epochs of `t` iterations at `p_i = n^{-(t+1)^{i-1}/k}`.
//!
//! Sampling coins come from [`crate::coins`] so that independent
//! implementations (the MPC driver, Congested Clique) can reproduce the
//! exact same spanner for differential testing. All tie-breaks are by
//! `(weight, edge id)`.
//!
//! # Data layout
//!
//! Every per-vertex quantity is a dense array indexed by original vertex
//! id, so a super-node or a cluster is looked up, never hashed. A
//! cluster is named by its centre super-node: `cluster_of[v]` is the
//! cluster of super-node `v`, `centres` lists the live clusters in
//! ascending order, and `join_edge[v]` is the edge by which a non-centre
//! member joined its cluster this epoch. Together they hold every
//! cluster's members and connection edges without a per-cluster
//! container.
//!
//! # One pass per super-node range
//!
//! A grow step writes one *candidate record* `(neighbour cluster, w, id,
//! live index)` per live edge and endpoint of an unsampled cluster, and
//! buckets the records by super-node with a counting scatter: count,
//! prefix sum, scatter. Each super-node is then decided from its bucket
//! with two scratch arrays indexed by cluster. One pass fills a stamp
//! and a group minimum, which give the lightest edge of every
//! `(super-node, cluster)` group and the nearest sampled cluster; a
//! second pass marks the killed records. There is no hashing and no
//! comparison sort. Contraction finds the lightest edge per cluster pair
//! the same way: it buckets the live edges by their smaller cluster,
//! stamps the larger one, and sorts only each bucket's surviving pairs,
//! so the new live edges come out in `(a, b)` order.
//!
//! Both steps run on the rayon pool. The super-nodes are cut into one
//! contiguous range per pool thread, balanced by record count, and each
//! range scatters its own bucket and decides with its own scratch. A
//! range's output depends only on the super-nodes in it, and the outputs
//! are concatenated in range order, which is ascending super-node order
//! wherever the cuts fall. So the spanner, the live edges and every
//! statistic are identical at every thread count. The counting and the
//! cuts are [`spanner_graph::scatter`]'s `bucket_starts` and `ranges`,
//! the same helpers the CSR builder uses.

use std::collections::HashMap;

use rayon::prelude::*;
use spanner_graph::edge::{EdgeId, Weight};
use spanner_graph::scatter::{bucket_starts, ranges};
use spanner_graph::Graph;

use crate::coins::cluster_coin;
use crate::result::SpannerResult;

/// A live edge between two super-nodes.
#[derive(Debug, Clone, Copy, Default)]
struct LiveEdge {
    /// Super-node endpoint (original-vertex id of its centre).
    a: u32,
    /// The other super-node endpoint.
    b: u32,
    /// Weight (minimum over the original edges it represents).
    w: Weight,
    /// Original edge id realising the weight.
    id: EdgeId,
}

/// A live edge seen from one endpoint super-node of an unsampled
/// cluster: the record a grow step buckets under that super-node.
#[derive(Debug, Clone, Copy, Default)]
struct Candidate {
    /// Weight of the edge.
    w: Weight,
    /// Cluster of the other endpoint.
    c: u32,
    /// Original edge id.
    id: EdgeId,
    /// Position of the edge in `live`.
    live: u32,
}

/// What a grow step decided for one range of super-nodes.
#[derive(Debug, Default)]
struct Decisions {
    /// Edge ids added to the spanner.
    spanner: Vec<EdgeId>,
    /// `(super-node, sampled cluster, edge)` per super-node that joins.
    joins: Vec<(u32, u32, EdgeId)>,
    /// Positions in `live` of the killed edges.
    killed: Vec<u32>,
    /// Distinct `(super-node, c)` groups per target cluster `c` (empty
    /// when the range has no records).
    groups: Vec<u32>,
}

/// The shared state machine. See the module docs.
///
/// `Clone` produces an independent scratch copy of the whole state — the
/// Congested Clique driver uses this to evaluate the Section 8 parallel
/// repetitions before committing to one.
#[derive(Debug, Clone)]
pub struct Engine<'g> {
    g: &'g Graph,
    seed: u64,
    /// `active[v]`: `v` (an original vertex id) is the centre of a live
    /// super-node.
    active: Vec<bool>,
    /// Internal tree of each active super-node (edge ids in `G`).
    sn_tree: Vec<Vec<EdgeId>>,
    /// Number of original vertices in each active super-node.
    sn_size: Vec<u32>,
    /// Live inter-super-node edges.
    live: Vec<LiveEdge>,
    /// Cluster id (centre super-node) of each active super-node.
    cluster_of: Vec<u32>,
    /// Centres of the current epoch's clusters, ascending.
    centres: Vec<u32>,
    /// The edge by which each active non-centre super-node joined its
    /// cluster this epoch (its connection edge).
    join_edge: Vec<EdgeId>,
    /// Accumulated spanner edge ids (deduplicated at the end).
    spanner: Vec<EdgeId>,
    /// Iterations run so far.
    pub iterations_run: u32,
    /// Epochs completed (contractions performed).
    pub epochs_run: u32,
    /// Max super-node radius after each contraction.
    radius_per_epoch: Vec<u32>,
    /// Super-node count after each contraction.
    supernodes_per_epoch: Vec<usize>,
    /// Whether to measure radii at each contraction (BFS over trees).
    pub track_radii: bool,
}

impl<'g> Engine<'g> {
    /// Fresh engine: every vertex is a singleton super-node and a
    /// singleton cluster; all edges are live.
    pub fn new(g: &'g Graph, seed: u64) -> Self {
        let n = g.n();
        let live = g
            .edges()
            .iter()
            .enumerate()
            .map(|(id, e)| LiveEdge {
                a: e.u,
                b: e.v,
                w: e.w,
                id: id as EdgeId,
            })
            .collect();
        Engine {
            g,
            seed,
            active: vec![true; n],
            sn_tree: vec![Vec::new(); n],
            sn_size: vec![1; n],
            live,
            cluster_of: (0..n as u32).collect(),
            centres: (0..n as u32).collect(),
            join_edge: vec![0; n],
            spanner: Vec::new(),
            iterations_run: 0,
            epochs_run: 0,
            radius_per_epoch: Vec::new(),
            supernodes_per_epoch: Vec::new(),
            track_radii: false,
        }
    }

    /// Number of live super-nodes.
    pub fn supernode_count(&self) -> usize {
        self.active.iter().filter(|&&a| a).count()
    }

    /// Number of live edges.
    pub fn live_edge_count(&self) -> usize {
        self.live.len()
    }

    /// Number of clusters in the current within-epoch clustering.
    pub fn cluster_count(&self) -> usize {
        self.centres.len()
    }

    /// Replaces the shared-randomness seed (used by the Congested Clique
    /// driver, which re-draws coins per parallel repetition).
    pub fn set_seed(&mut self, seed: u64) {
        self.seed = seed;
    }

    /// One Baswana–Sen-style grow iteration (the paper's Step B) with
    /// cluster sampling probability `p`. `epoch` and `iter` number the
    /// step for the shared-randomness coins (1-based). Returns the
    /// iteration statistics the Section 8 run-selection needs.
    pub fn run_iteration(&mut self, p: f64, epoch: u32, iter: u32) -> IterStats {
        let n = self.active.len();
        let clusters_before = self.centres.len();
        let spanner_before = self.spanner.len();

        // (B1) Sample the clusters.
        let mut sampled = vec![false; n];
        for &c in &self.centres {
            sampled[c as usize] = cluster_coin(self.seed, epoch, iter, c, p);
        }

        // (B2) Bucket offsets of the candidate records by super-node: one
        // record per live edge and endpoint of an unsampled cluster.
        let cluster_of = &self.cluster_of;
        let start = bucket_starts(&self.live, n, |e, count| {
            let ca = cluster_of[e.a as usize];
            let cb = cluster_of[e.b as usize];
            debug_assert_ne!(ca, cb, "live edges are inter-cluster (Lemma 5.6)");
            if !sampled[ca as usize] {
                count[e.a as usize + 1] += 1;
            }
            if !sampled[cb as usize] {
                count[e.b as usize + 1] += 1;
            }
        });

        // (B3)/(B4) Bucket and decide, one super-node range per pool
        // thread, against the iteration-start snapshot (the model is
        // synchronous); the decisions are applied afterwards.
        let step = GrowStep {
            live: &self.live,
            cluster_of,
            sampled: &sampled,
            start: &start,
        };
        let parts: Vec<Decisions> = ranges(&start)
            .into_par_iter()
            .map(|range| step.decide(range))
            .collect();

        let mut killed = vec![false; self.live.len()];
        // Candidate load per *target* cluster (the fan-in a Congested
        // Clique centre would absorb this iteration).
        let mut groups = vec![0; n];
        for part in parts {
            self.spanner.extend(part.spanner);
            for i in part.killed {
                killed[i as usize] = true;
            }
            for (total, count) in groups.iter_mut().zip(part.groups) {
                *total += count;
            }
            for (v, c, id) in part.joins {
                self.cluster_of[v as usize] = c;
                self.join_edge[v as usize] = id;
            }
        }
        let max_candidates_per_cluster = groups.into_iter().max().unwrap_or(0) as usize;

        // (B5) New clustering: sampled clusters keep their members and
        // absorb the joiners (relabelled above); unsampled clusters
        // dissolve; super-nodes of unsampled clusters that did not join
        // retire.
        for (v, active) in self.active.iter_mut().enumerate() {
            if *active && !sampled[self.cluster_of[v] as usize] {
                *active = false;
            }
        }
        self.centres.retain(|&c| sampled[c as usize]);

        // One sweep drops the killed edge groups E(v, c), the edges of
        // retired super-nodes (all killed already; belt and braces) and
        // (B6) the now intra-cluster edges.
        let (active, cluster_of) = (&self.active, &self.cluster_of);
        let mut i = 0;
        self.live.retain(|e| {
            let keep = !killed[i]
                && active[e.a as usize]
                && active[e.b as usize]
                && cluster_of[e.a as usize] != cluster_of[e.b as usize];
            i += 1;
            keep
        });

        self.iterations_run += 1;
        IterStats {
            clusters_before,
            sampled_clusters: self.centres.len(),
            edges_added: self.spanner.len() - spanner_before,
            max_candidates_per_cluster,
        }
    }

    /// Contraction (the paper's Step C): the current clusters become the
    /// new super-nodes; between each pair of new super-nodes only the
    /// minimum-weight live edge survives (the rest are discarded — their
    /// stretch is covered by Theorem 5.11). Also re-initialises the
    /// within-epoch clustering to singletons.
    pub fn contract(&mut self) {
        let n = self.active.len();
        // Compose the new super-node trees (Definition 5.2): every member
        // moves its internal tree and its connection edge into its
        // centre's. Only the centres survive as super-nodes, each now a
        // singleton cluster.
        for v in 0..n {
            let c = self.cluster_of[v] as usize;
            if self.active[v] && c != v {
                let mut tree = std::mem::take(&mut self.sn_tree[v]);
                tree.push(self.join_edge[v]);
                self.sn_tree[c].append(&mut tree);
                self.sn_size[c] += self.sn_size[v];
                self.active[v] = false;
            }
        }

        // Quotient edges: bucket the live edges by their smaller cluster,
        // keep the lightest per larger cluster.
        let cluster_of = &self.cluster_of;
        let start = bucket_starts(&self.live, n, |e, count| {
            let ca = cluster_of[e.a as usize];
            let cb = cluster_of[e.b as usize];
            debug_assert_ne!(ca, cb);
            count[ca.min(cb) as usize + 1] += 1;
        });
        let step = ContractStep {
            live: &self.live,
            cluster_of,
            start: &start,
        };
        let mut parts = ranges(&start)
            .into_par_iter()
            .map(|range| step.lightest_per_pair(range))
            .collect::<Vec<_>>()
            .into_iter();
        self.live = parts.next().unwrap_or_default();
        for part in parts {
            self.live.extend(part);
        }

        self.epochs_run += 1;
        self.supernodes_per_epoch.push(self.centres.len());
        if self.track_radii {
            let r = self
                .centres
                .iter()
                .map(|&c| self.supernode_radius(c))
                .max()
                .unwrap_or(0);
            self.radius_per_epoch.push(r);
        }
    }

    /// Hop radius of super-node `c`'s internal tree, measured from its
    /// centre on the original graph.
    pub fn supernode_radius(&self, c: u32) -> u32 {
        let tree = &self.sn_tree[c as usize];
        if tree.is_empty() {
            return 0;
        }
        let mut adj: HashMap<u32, Vec<u32>> = HashMap::new();
        for &id in tree {
            let e = self.g.edge(id);
            adj.entry(e.u).or_default().push(e.v);
            adj.entry(e.v).or_default().push(e.u);
        }
        let mut depth: HashMap<u32, u32> = HashMap::new();
        depth.insert(c, 0);
        let mut queue = std::collections::VecDeque::from([c]);
        let mut max_depth = 0;
        while let Some(v) = queue.pop_front() {
            let d = depth[&v];
            max_depth = max_depth.max(d);
            if let Some(nbrs) = adj.get(&v) {
                for &u in nbrs {
                    if let std::collections::hash_map::Entry::Vacant(e) = depth.entry(u) {
                        e.insert(d + 1);
                        queue.push_back(u);
                    }
                }
            }
        }
        debug_assert_eq!(
            depth.len(),
            self.sn_size[c as usize] as usize,
            "super-node tree must span its vertex set"
        );
        max_depth
    }

    /// Phase 2: for every super-node and every neighbouring cluster, add
    /// the minimum-weight live edge, then drop all live edges.
    ///
    /// Called after the last epoch (when clusters are singletons this
    /// adds the one surviving edge per super-node pair); called on an
    /// un-contracted clustering it is exactly the classic Baswana–Sen
    /// second phase.
    pub fn phase2(&mut self) {
        let mut cand: Vec<(u32, u32, Weight, EdgeId)> = Vec::new();
        for e in &self.live {
            let ca = self.cluster_of[e.a as usize];
            let cb = self.cluster_of[e.b as usize];
            cand.push((e.a, cb, e.w, e.id));
            cand.push((e.b, ca, e.w, e.id));
        }
        cand.sort_unstable_by_key(|&(v, c, w, id)| (v, c, w, id));
        cand.dedup_by_key(|&mut (v, c, _, _)| (v, c));
        for (_, _, _, id) in cand {
            self.spanner.push(id);
        }
        self.live.clear();
    }

    /// The quotient graph over the current super-nodes, with the
    /// original edge id realised by each quotient edge and the centre id
    /// of each quotient vertex. Used by Section 3's second phase, which
    /// runs Baswana–Sen *as a black box* on the contracted graph.
    pub fn quotient_graph(&self) -> QuotientGraph {
        let centres: Vec<u32> = (0..self.active.len() as u32)
            .filter(|&v| self.active[v as usize])
            .collect();
        let index: HashMap<u32, u32> = centres
            .iter()
            .enumerate()
            .map(|(i, &c)| (c, i as u32))
            .collect();
        let mut builder = spanner_graph::GraphBuilder::new(centres.len());
        let mut origin: HashMap<(u32, u32), EdgeId> = HashMap::new();
        for e in &self.live {
            let qa = index[&e.a];
            let qb = index[&e.b];
            builder.add_edge(qa, qb, e.w);
            let key = (qa.min(qb), qa.max(qb));
            // `live` holds one (minimum) edge per pair after contraction;
            // keep the lightest if several survive mid-epoch.
            match origin.entry(key) {
                std::collections::hash_map::Entry::Vacant(slot) => {
                    slot.insert(e.id);
                }
                std::collections::hash_map::Entry::Occupied(mut slot) => {
                    let cur = self.g.edge(*slot.get());
                    if (e.w, e.id) < (cur.w, *slot.get()) {
                        slot.insert(e.id);
                    }
                }
            }
        }
        let graph = builder.build();
        let mut edge_origin = Vec::with_capacity(graph.m());
        for qe in graph.edges() {
            edge_origin.push(origin[&(qe.u, qe.v)]);
        }
        QuotientGraph {
            graph,
            edge_origin,
            centres,
        }
    }

    /// Finalises into a [`SpannerResult`].
    pub fn finish(mut self, algorithm: impl Into<String>, stretch_bound: f64) -> SpannerResult {
        let mut result = SpannerResult {
            edges: std::mem::take(&mut self.spanner),
            epochs: self.epochs_run,
            iterations: self.iterations_run,
            stretch_bound,
            radius_per_epoch: std::mem::take(&mut self.radius_per_epoch),
            supernodes_per_epoch: std::mem::take(&mut self.supernodes_per_epoch),
            algorithm: algorithm.into(),
            decomposition: None,
        };
        result.canonicalise();
        result
    }

    /// Pushes extra edge ids into the spanner under construction (used by
    /// Section 3 to merge the black-box phase-two spanner back in).
    pub fn add_spanner_edges(&mut self, ids: impl IntoIterator<Item = EdgeId>) {
        self.spanner.extend(ids);
    }

    /// Drops all live edges without adding anything (Section 3 hands the
    /// remaining graph to the black box instead of Phase 2).
    pub fn discard_live_edges(&mut self) {
        self.live.clear();
    }
}

/// The iteration-start snapshot one grow step decides against.
struct GrowStep<'a> {
    live: &'a [LiveEdge],
    cluster_of: &'a [u32],
    /// `sampled[c]`: cluster `c` was sampled this iteration.
    sampled: &'a [bool],
    /// Bucket offsets of the candidate records, by super-node.
    start: &'a [usize],
}

impl GrowStep<'_> {
    /// Scatters the candidate records of the super-nodes `lo..hi` into
    /// their buckets, then decides each of those super-nodes.
    fn decide(&self, (lo, hi): (usize, usize)) -> Decisions {
        let base = self.start[lo];
        if self.start[hi] == base {
            return Decisions::default();
        }
        let mut bucket = vec![Candidate::default(); self.start[hi] - base];
        let mut next: Vec<usize> = self.start[lo..hi].iter().map(|&s| s - base).collect();
        for (i, e) in self.live.iter().enumerate() {
            for (v, u) in [(e.a, e.b), (e.b, e.a)] {
                let v = v as usize;
                if (lo..hi).contains(&v) && !self.sampled[self.cluster_of[v] as usize] {
                    bucket[next[v - lo]] = Candidate {
                        w: e.w,
                        c: self.cluster_of[u as usize],
                        id: e.id,
                        live: i as u32,
                    };
                    next[v - lo] += 1;
                }
            }
        }

        // Scratch indexed by cluster: `stamp[c] == v + 1` marks `c` as
        // seen in the bucket of `v`, and `lightest[c]` is then the
        // `(w, id)`-minimum of the group E(v, c).
        let n = self.cluster_of.len();
        let mut stamp = vec![0u32; n];
        let mut lightest: Vec<(Weight, EdgeId)> = vec![(0, 0); n];
        let mut out = Decisions {
            groups: vec![0; n],
            ..Decisions::default()
        };
        for v in lo..hi {
            let records = &bucket[self.start[v] - base..self.start[v + 1] - base];
            let tag = v as u32 + 1;
            // Nearest sampled neighbouring cluster `(w*, id*, c*)`, if any.
            let mut nearest: Option<(Weight, EdgeId, u32)> = None;
            for r in records {
                let c = r.c as usize;
                if stamp[c] != tag {
                    stamp[c] = tag;
                    lightest[c] = (r.w, r.id);
                    out.groups[c] += 1;
                } else if (r.w, r.id) < lightest[c] {
                    lightest[c] = (r.w, r.id);
                }
                if self.sampled[c] && nearest.is_none_or(|(w, id, _)| (r.w, r.id) < (w, id)) {
                    nearest = Some((r.w, r.id, r.c));
                }
            }
            if let Some((_, id, c)) = nearest {
                out.joins.push((v as u32, c, id));
            }
            for r in records {
                let (w, id) = lightest[r.c as usize];
                let killed = match nearest {
                    // Join c* via its lightest edge, plus one edge to
                    // every strictly closer neighbouring cluster.
                    Some((w_star, _, c_star)) => r.c == c_star || w < w_star,
                    // No sampled neighbour: one edge per neighbouring
                    // cluster, then the super-node retires.
                    None => true,
                };
                if killed {
                    out.killed.push(r.live);
                    if r.id == id {
                        out.spanner.push(id);
                    }
                }
            }
        }
        out
    }
}

/// The state one contraction reads to find its quotient edges.
struct ContractStep<'a> {
    live: &'a [LiveEdge],
    cluster_of: &'a [u32],
    /// Bucket offsets of the live edges, by smaller cluster.
    start: &'a [usize],
}

impl ContractStep<'_> {
    /// The lightest live edge between each cluster pair `(a, b)`, `a < b`,
    /// with `a` in `lo..hi`, in `(a, b)` order.
    fn lightest_per_pair(&self, (lo, hi): (usize, usize)) -> Vec<LiveEdge> {
        let base = self.start[lo];
        if self.start[hi] == base {
            return Vec::new();
        }
        let mut bucket = vec![LiveEdge::default(); self.start[hi] - base];
        let mut next: Vec<usize> = self.start[lo..hi].iter().map(|&s| s - base).collect();
        for e in self.live {
            let ca = self.cluster_of[e.a as usize];
            let cb = self.cluster_of[e.b as usize];
            let (a, b) = (ca.min(cb), ca.max(cb));
            if (lo..hi).contains(&(a as usize)) {
                bucket[next[a as usize - lo]] = LiveEdge {
                    a,
                    b,
                    w: e.w,
                    id: e.id,
                };
                next[a as usize - lo] += 1;
            }
        }

        // `stamp[b] == a + 1` marks `b` as seen in the bucket of `a`, and
        // `slot[b]` is then the position of the pair's edge in `out`.
        let n = self.cluster_of.len();
        let mut stamp = vec![0u32; n];
        let mut slot = vec![0usize; n];
        let mut out: Vec<LiveEdge> = Vec::new();
        for a in lo..hi {
            let first = out.len();
            let tag = a as u32 + 1;
            for e in &bucket[self.start[a] - base..self.start[a + 1] - base] {
                let b = e.b as usize;
                if stamp[b] != tag {
                    stamp[b] = tag;
                    slot[b] = out.len();
                    out.push(*e);
                } else {
                    let kept = &mut out[slot[b]];
                    if (e.w, e.id) < (kept.w, kept.id) {
                        *kept = *e;
                    }
                }
            }
            out[first..].sort_unstable_by_key(|e| e.b);
        }
        out
    }
}

/// Per-iteration statistics (the quantities the Section 8 parallel
/// repetition inspects to pick a good run).
#[derive(Debug, Clone, Copy)]
pub struct IterStats {
    /// Clusters at the start of the iteration (`|C|`).
    pub clusters_before: usize,
    /// Clusters that were sampled (`|R|`; expected `|C|·p`).
    pub sampled_clusters: usize,
    /// Edges this iteration added to the spanner (expected `O(|C|/p)`).
    pub edges_added: usize,
    /// Largest number of candidate records any single cluster would have
    /// to absorb (the Congested Clique centre fan-in this iteration).
    pub max_candidates_per_cluster: usize,
}

/// Output of [`Engine::quotient_graph`].
#[derive(Debug, Clone)]
pub struct QuotientGraph {
    /// The contracted graph (compacted vertex ids).
    pub graph: Graph,
    /// For each quotient edge id, the original edge id realising it.
    pub edge_origin: Vec<EdgeId>,
    /// For each quotient vertex, the centre (original vertex id) of the
    /// super-node it represents.
    pub centres: Vec<u32>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use spanner_graph::generators::{self, WeightModel};
    use spanner_graph::verify::verify_spanner;

    #[test]
    fn initial_state_is_singletons() {
        let g = generators::cycle(6, WeightModel::Unit, 0);
        let e = Engine::new(&g, 1);
        assert_eq!(e.supernode_count(), 6);
        assert_eq!(e.cluster_count(), 6);
        assert_eq!(e.live_edge_count(), 6);
    }

    #[test]
    fn iteration_preserves_inter_cluster_invariant() {
        let g = generators::connected_erdos_renyi(80, 0.08, WeightModel::Uniform(1, 8), 3);
        let mut e = Engine::new(&g, 5);
        e.run_iteration(0.4, 1, 1);
        // Every live edge has endpoints in distinct clusters (Lemma 5.6).
        for le in &e.live {
            assert!(e.active[le.a as usize] && e.active[le.b as usize]);
            assert_ne!(e.cluster_of[le.a as usize], e.cluster_of[le.b as usize]);
        }
    }

    #[test]
    fn zero_probability_retires_everything() {
        let g = generators::connected_erdos_renyi(50, 0.1, WeightModel::Unit, 2);
        let mut e = Engine::new(&g, 9);
        e.run_iteration(0.0, 1, 1);
        // Nobody is sampled: every vertex adds an edge per neighbouring
        // cluster (= per neighbour, all clusters are singletons) and
        // retires. All edges die; spanner = whole graph.
        assert_eq!(e.live_edge_count(), 0);
        assert_eq!(e.cluster_count(), 0);
        let r = e.finish("test", 1.0);
        assert_eq!(r.size(), g.m());
    }

    #[test]
    fn probability_one_is_a_noop_iteration() {
        let g = generators::connected_erdos_renyi(50, 0.1, WeightModel::Unit, 2);
        let mut e = Engine::new(&g, 9);
        let live_before = e.live_edge_count();
        e.run_iteration(1.0, 1, 1);
        assert_eq!(e.live_edge_count(), live_before);
        assert_eq!(e.supernode_count(), 50);
    }

    #[test]
    fn contract_merges_clusters_into_supernodes() {
        let g = generators::connected_erdos_renyi(60, 0.15, WeightModel::Uniform(1, 4), 7);
        let mut e = Engine::new(&g, 11);
        e.run_iteration(0.3, 1, 1);
        let clusters = e.cluster_count();
        e.contract();
        assert_eq!(e.supernode_count(), clusters);
        assert_eq!(e.epochs_run, 1);
        // After contraction, live edges are min-per-pair: no duplicates.
        let mut pairs: Vec<(u32, u32)> = e.live.iter().map(|le| (le.a, le.b)).collect();
        pairs.sort_unstable();
        let len = pairs.len();
        pairs.dedup();
        assert_eq!(pairs.len(), len);
    }

    #[test]
    fn full_run_produces_valid_spanner() {
        let g = generators::connected_erdos_renyi(70, 0.12, WeightModel::Uniform(1, 16), 13);
        let n = g.n();
        let mut e = Engine::new(&g, 17);
        let k = 4u32;
        // Two epochs of two iterations (t = 2, l = 2 for k = 4... close
        // enough for an engine-level test).
        for epoch in 1..=2u32 {
            let p = (n as f64).powf(-(3f64.powi(epoch as i32 - 1)) / k as f64);
            for iter in 1..=2u32 {
                e.run_iteration(p, epoch, iter);
            }
            e.contract();
        }
        e.phase2();
        let r = e.finish("engine-test", 100.0);
        spanner_graph::verify::assert_valid_edge_ids(&g, &r.edges);
        let rep = verify_spanner(&g, &r.edges);
        assert!(rep.all_edges_spanned, "all edges must be spanned");
    }

    #[test]
    fn tree_radius_of_star_cluster() {
        // A star: centre 0 with 5 leaves, all weight 1. One iteration at
        // p such that only vertex 0's cluster samples — force it by
        // trying seeds until 0 is sampled and the leaves are not. With
        // p = 0.5 over seeds this is quick to find.
        let g = generators::caterpillar(1, 5, WeightModel::Unit, 0);
        for seed in 0..200 {
            let sampled0 = cluster_coin(seed, 1, 1, 0, 0.3);
            let leaves_unsampled = (1..6).all(|v| !cluster_coin(seed, 1, 1, v, 0.3));
            if sampled0 && leaves_unsampled {
                let mut e = Engine::new(&g, seed);
                e.track_radii = true;
                e.run_iteration(0.3, 1, 1);
                e.contract();
                assert_eq!(e.supernode_count(), 1);
                assert_eq!(e.supernode_radius(0), 1, "star has radius 1");
                return;
            }
        }
        panic!("no suitable seed found (coin function broken?)");
    }

    #[test]
    fn quotient_graph_maps_edges_back() {
        let g = generators::clique_chain(3, 4, WeightModel::Uniform(1, 9), 21);
        let mut e = Engine::new(&g, 23);
        e.run_iteration(0.5, 1, 1);
        e.contract();
        let q = e.quotient_graph();
        assert_eq!(q.graph.n(), e.supernode_count());
        for (qid, qe) in q.graph.edges().iter().enumerate() {
            let orig = g.edge(q.edge_origin[qid]);
            assert_eq!(orig.w, qe.w, "quotient edge weight mismatch");
        }
    }

    #[test]
    fn engine_is_deterministic() {
        let g = generators::connected_erdos_renyi(60, 0.1, WeightModel::Uniform(1, 4), 3);
        let run = |seed| {
            let mut e = Engine::new(&g, seed);
            for iter in 1..=3 {
                e.run_iteration(0.3, 1, iter);
            }
            e.contract();
            e.phase2();
            e.finish("det", 1.0).edges
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6), "different seeds should differ");
    }
}
