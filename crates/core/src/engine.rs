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
//! * Baswana–Sen = `k − 1` iterations at `p = n^{-1/k}`, then Phase 2
//!   without a contraction,
//! * Section 4 = `log k` epochs of 1 iteration at `p_i = n^{-2^{i-1}/k}`,
//! * Section 3 = `√k` iterations and a contraction, then Baswana–Sen on
//!   the quotient graph,
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
//! The live edges are kept as one adjacency list per super-node, with
//! entries `(neighbour super-node, w, id)`. Until the first contraction
//! the lists are the host graph's CSR runs ([`Graph::adjacency`]),
//! borrowed in place, so [`Engine::new`] copies no edge. Each
//! contraction writes the quotient's lists into one buffer. One dead
//! flag per original edge id marks the entries that left the live set.
//! Quotient entries keep their original ids, so the flags serve every
//! epoch. A live edge appears in the lists of both its endpoints, and
//! the engine keeps the exact live-edge count beside the flags.
//!
//! # One pass per super-node range
//!
//! A grow step reads each candidate's list in place; a candidate is a
//! super-node of an unsampled cluster. There is no count pass and no
//! record scatter. One pass over the list's live entries groups them by
//! the other endpoint's cluster through a slot array indexed by cluster,
//! cleared again after each super-node, and keeps the lightest edge of
//! every `(super-node, cluster)` group. The nearest sampled cluster and
//! the killed groups follow from the groups, and a last pass over the
//! entries records the killed edges. There is no hashing and no
//! comparison sort.
//!
//! After the decisions are applied, a sweep re-reads the lists of this
//! iteration's joiners and finds the edges that became intra-cluster
//! (B6). The decisions recorded the killed edges, which include every
//! edge of a retired super-node. An edge between two non-candidates
//! cannot change status, so the dead flags, and the live-edge count, are
//! exact.
//!
//! Contraction gathers each new super-node's members with one counting
//! pass over the super-nodes. Every new super-node then keeps the
//! lightest `(w, id)` edge per neighbouring cluster, read from its
//! members' lists, in its own region of one buffer. The regions are
//! sized by the members' list lengths. Phase 2 is the grow step's group
//! pass over every super-node. With no live edge left, a grow step only
//! samples and retires, and Phase 2 does nothing.
//!
//! Every pass runs on the rayon pool. The super-nodes are cut into one
//! contiguous range per pool thread, balanced by list offsets (by
//! [`spanner_graph::scatter::ranges`]), and each range decides with its
//! own scratch. A contraction range writes its own `split_at_mut` slice
//! of the buffer. A range's output depends only on the super-nodes in
//! it, and outputs are combined in range order. Every decision is a
//! `(w, id)` minimum, so it does not depend on the order of a list. So
//! the spanner, the live edges and every statistic are identical at
//! every thread count.

use std::collections::HashMap;

use rayon::prelude::*;
use spanner_graph::edge::{EdgeId, Weight};
use spanner_graph::scatter::ranges;
use spanner_graph::{Graph, GraphBuilder};

use crate::coins::cluster_coin;
use crate::result::SpannerResult;

/// An entry of a super-node's adjacency list: the other super-node, the
/// weight and the original edge id (the host CSR's entry).
type Entry = (u32, Weight, EdgeId);

/// The super-nodes' adjacency lists. See the module docs.
#[derive(Debug)]
enum Lists<'g> {
    /// Until the first contraction: the host graph's CSR runs.
    Host(&'g Graph),
    /// After a contraction: `v`'s list is `entries[start[v]..][..len[v]]`.
    /// `start` holds each region's offset, `n + 1` of them.
    Quotient {
        start: Vec<usize>,
        len: Vec<u32>,
        entries: Vec<Entry>,
    },
}

impl Lists<'_> {
    /// Empty lists for `n` super-nodes.
    fn empty(n: usize) -> Self {
        Lists::Quotient {
            start: vec![0; n + 1],
            len: vec![0; n],
            entries: Vec::new(),
        }
    }

    /// Super-node `v`'s list, dead entries included.
    fn get(&self, v: usize) -> &[Entry] {
        match self {
            Lists::Host(g) => g.adjacency(v as u32),
            Lists::Quotient {
                start,
                len,
                entries,
            } => &entries[start[v]..start[v] + len[v] as usize],
        }
    }

    /// The offsets of the lists' regions, `n + 1` of them, which the
    /// passes cut into balanced ranges.
    fn offsets(&self) -> &[usize] {
        match self {
            Lists::Host(g) => g.offsets(),
            Lists::Quotient { start, .. } => start,
        }
    }
}

/// One flag per original edge id, 64 to a word.
#[derive(Debug)]
struct EdgeFlags(Vec<u64>);

impl EdgeFlags {
    /// `m` clear flags.
    fn new(m: usize) -> Self {
        EdgeFlags(vec![0; m.div_ceil(64)])
    }

    /// Whether the flag of `id` is set.
    fn get(&self, id: EdgeId) -> bool {
        self.0[id as usize / 64] >> (id % 64) & 1 == 1
    }

    /// Sets the flag of `id`; returns whether it was clear.
    fn set(&mut self, id: EdgeId) -> bool {
        let word = &mut self.0[id as usize / 64];
        let bit = 1 << (id % 64);
        let was_clear = *word & bit == 0;
        *word |= bit;
        was_clear
    }
}

/// What a grow step decided for one range of super-nodes.
#[derive(Debug, Default)]
struct Decisions {
    /// Edge ids added to the spanner.
    spanner: Vec<EdgeId>,
    /// `(super-node, sampled cluster, edge)` per super-node that joins.
    joins: Vec<(u32, u32, EdgeId)>,
    /// Ids of the killed edges (an edge killed from both ends twice).
    killed: Vec<EdgeId>,
}

/// A grow step decided against the engine's current state but not yet
/// applied: [`Engine::trial`] makes one and [`Engine::commit`] applies
/// it. The Congested Clique driver decides several repetitions this way
/// and commits the one it chooses.
#[derive(Debug)]
pub(crate) struct Trial {
    stats: IterStats,
    /// `sampled[c]`: cluster `c` was sampled.
    sampled: Vec<bool>,
    /// One part per super-node range, in range order.
    parts: Vec<Decisions>,
    /// `(iterations_run, epochs_run)` when the trial was decided.
    at: (u32, u32),
}

impl Trial {
    /// The statistics [`Engine::commit`] returns for this step.
    pub(crate) fn stats(&self) -> IterStats {
        self.stats
    }
}

/// The shared state machine. See the module docs.
#[derive(Debug)]
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
    /// Each super-node's adjacency list; an entry is a live edge unless
    /// its id is flagged in `dead`.
    lists: Lists<'g>,
    /// The flag of original edge `id` is set once it left the live set.
    dead: EdgeFlags,
    /// Number of live edges.
    live: usize,
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
        Engine {
            g,
            seed,
            active: vec![true; n],
            sn_tree: vec![Vec::new(); n],
            sn_size: vec![1; n],
            lists: Lists::Host(g),
            dead: EdgeFlags::new(g.m()),
            live: g.m(),
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
        self.live
    }

    /// Number of clusters in the current within-epoch clustering.
    pub fn cluster_count(&self) -> usize {
        self.centres.len()
    }

    /// One Baswana–Sen-style grow iteration (the paper's Step B) with
    /// cluster sampling probability `p`. `epoch` and `iter` number the
    /// step for the shared-randomness coins (1-based). Returns the
    /// iteration statistics the Section 8 run-selection needs.
    pub fn run_iteration(&mut self, p: f64, epoch: u32, iter: u32) -> IterStats {
        let trial = self.trial(self.seed, p, epoch, iter);
        self.commit(trial)
    }

    /// Decides the grow iteration [`Engine::run_iteration`] would run,
    /// with the coins of `seed` in place of the engine's own, without
    /// changing the engine: (B1) sample the clusters, then decide every
    /// candidate super-node against this iteration-start snapshot (the
    /// model is synchronous). [`Trial::stats`] holds the statistics.
    pub(crate) fn trial(&self, seed: u64, p: f64, epoch: u32, iter: u32) -> Trial {
        let n = self.active.len();
        let mut sampled = vec![false; n];
        for &c in &self.centres {
            sampled[c as usize] = cluster_coin(seed, epoch, iter, c, p);
        }

        // (B2)–(B4) Decide, one super-node range per pool thread. With no
        // live edge left there is nothing to decide: every candidate
        // retires without a join or an edge.
        let step = GrowStep {
            lists: &self.lists,
            dead: &self.dead,
            active: &self.active,
            cluster_of: &self.cluster_of,
            sampled: &sampled,
        };
        let decided: Vec<(Decisions, Vec<u32>)> = if self.live == 0 {
            Vec::new()
        } else {
            ranges(self.lists.offsets())
                .into_par_iter()
                .map(|range| step.decide(range))
                .collect()
        };

        // Candidate load per *target* cluster (the fan-in a Congested
        // Clique centre would absorb this iteration).
        let mut groups = vec![0; n];
        let mut parts = Vec::with_capacity(decided.len());
        for (part, counts) in decided {
            for (total, count) in groups.iter_mut().zip(counts) {
                *total += count;
            }
            parts.push(part);
        }
        let stats = IterStats {
            clusters_before: self.centres.len(),
            sampled_clusters: self
                .centres
                .iter()
                .filter(|&&c| sampled[c as usize])
                .count(),
            edges_added: parts.iter().map(|part| part.spanner.len()).sum(),
            max_candidates_per_cluster: groups.into_iter().max().unwrap_or(0) as usize,
        };
        Trial {
            stats,
            sampled,
            parts,
            at: (self.iterations_run, self.epochs_run),
        }
    }

    /// Applies a [`Trial`] decided on this engine in its current state
    /// and returns its statistics.
    pub(crate) fn commit(&mut self, trial: Trial) -> IterStats {
        let Trial {
            stats,
            sampled,
            parts,
            at,
        } = trial;
        debug_assert_eq!(
            at,
            (self.iterations_run, self.epochs_run),
            "a trial must be committed to the state it was decided on"
        );
        for part in &parts {
            self.spanner.extend_from_slice(&part.spanner);
            for &(v, c, id) in &part.joins {
                self.cluster_of[v as usize] = c;
                self.join_edge[v as usize] = id;
            }
        }

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

        // (B6) The edges between two joiners that now share a cluster,
        // each read from its smaller end (a joiner's edges into the
        // cluster it joined were killed by its own decision), then one
        // flag per edge that died this iteration.
        let (lists, dead, cluster_of) = (&self.lists, &self.dead, &self.cluster_of);
        let merged: Vec<Vec<EdgeId>> = parts
            .par_iter()
            .map(|part| {
                let mut out = Vec::new();
                for &(v, c, _) in &part.joins {
                    for &(u, _, id) in lists.get(v as usize) {
                        if u > v && cluster_of[u as usize] == c && !dead.get(id) {
                            out.push(id);
                        }
                    }
                }
                out
            })
            .collect();
        let died = parts.iter().map(|part| &part.killed).chain(&merged);
        for &id in died.flatten() {
            if self.dead.set(id) {
                self.live -= 1;
            }
        }

        self.iterations_run += 1;
        stats
    }

    /// Contraction (the paper's Step C): the current clusters become the
    /// new super-nodes; between each pair of new super-nodes only the
    /// minimum-weight live edge survives (the rest are discarded — their
    /// stretch is covered by Theorem 5.11). Also re-initialises the
    /// within-epoch clustering to singletons.
    pub fn contract(&mut self) {
        let n = self.active.len();
        // Each new super-node's members, gathered by one counting pass,
        // and its region of the new buffer, sized by the members' lists.
        let mut first = vec![0; n + 1];
        let mut start = vec![0; n + 1];
        for v in (0..n).filter(|&v| self.active[v]) {
            let c = self.cluster_of[v] as usize;
            first[c + 1] += 1;
            start[c + 1] += self.lists.get(v).len();
        }
        for c in 0..n {
            first[c + 1] += first[c];
            start[c + 1] += start[c];
        }
        let mut members = vec![0; first[n]];
        let mut next = first.clone();
        for v in (0..n).filter(|&v| self.active[v]) {
            let c = self.cluster_of[v] as usize;
            members[next[c]] = v as u32;
            next[c] += 1;
        }

        // One contiguous range of new super-nodes per pool thread, each
        // writing its own slice of the buffer and of the list lengths.
        let mut entries = vec![(0, 0, 0); start[n]];
        let mut len = vec![0; n];
        let mut jobs = Vec::new();
        let (mut rest, mut rest_len) = (entries.as_mut_slice(), len.as_mut_slice());
        for (lo, hi) in ranges(&start) {
            let (run, tail) = rest.split_at_mut(start[hi] - start[lo]);
            let (lens, tail_len) = rest_len.split_at_mut(hi - lo);
            jobs.push(((lo, hi), run, lens));
            (rest, rest_len) = (tail, tail_len);
        }
        let step = ContractStep {
            lists: &self.lists,
            dead: &self.dead,
            cluster_of: &self.cluster_of,
            first: &first,
            members: &members,
            start: &start,
        };
        jobs.into_par_iter()
            .for_each(|(range, run, lens)| step.lightest_per_neighbour(range, run, lens));
        // Every surviving pair is in the lists of both its super-nodes.
        self.live = len.iter().map(|&l| l as usize).sum::<usize>() / 2;
        self.lists = Lists::Quotient {
            start,
            len,
            entries,
        };

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
    /// second phase. With no live edge left it returns at once: every
    /// list entry is dead already, and every reader skips dead entries.
    pub fn phase2(&mut self) {
        if self.live == 0 {
            return;
        }
        let (lists, dead, active, cluster_of) =
            (&self.lists, &self.dead, &self.active, &self.cluster_of);
        let parts: Vec<Vec<EdgeId>> = ranges(lists.offsets())
            .into_par_iter()
            .map(|(lo, hi)| {
                let mut scratch = Groups::new(cluster_of.len());
                let mut out = Vec::new();
                for v in (lo..hi).filter(|&v| active[v]) {
                    scratch.read(v, lists, dead, cluster_of);
                    out.extend(scratch.groups.iter().map(|&(_, _, id)| id));
                }
                out
            })
            .collect();
        for part in parts {
            self.spanner.extend(part);
        }
        self.discard_live_edges();
    }

    /// The quotient graph over the current super-nodes, with the
    /// original edge id realised by each quotient edge and the centre id
    /// of each quotient vertex. Used by Section 3's second phase, which
    /// runs Baswana–Sen *as a black box* on the contracted graph.
    ///
    /// Each live pair is read once, from its smaller super-node, and the
    /// pairs are sorted by `(qa, qb, w, id)`: the lightest edge of a pair
    /// comes first, and the kept pairs are in the builder's canonical
    /// edge order, so quotient edge `i` is the `i`-th kept pair.
    pub fn quotient_graph(&self) -> QuotientGraph {
        let n = self.active.len();
        let centres: Vec<u32> = (0..n as u32).filter(|&v| self.active[v as usize]).collect();
        let mut index = vec![0; n];
        for (i, &c) in centres.iter().enumerate() {
            index[c as usize] = i as u32;
        }
        // `index` is increasing, so `v < u` gives `qa < qb`.
        let mut pairs: Vec<(u32, u32, Weight, EdgeId)> = Vec::new();
        for &v in &centres {
            for &(u, w, id) in self.lists.get(v as usize) {
                if v < u && !self.dead.get(id) {
                    pairs.push((index[v as usize], index[u as usize], w, id));
                }
            }
        }
        pairs.sort_unstable();
        pairs.dedup_by_key(|&mut (qa, qb, _, _)| (qa, qb));
        let mut builder = GraphBuilder::new(centres.len());
        for &(qa, qb, w, _) in &pairs {
            builder.add_edge(qa, qb, w);
        }
        QuotientGraph {
            graph: builder.build(),
            edge_origin: pairs.into_iter().map(|(_, _, _, id)| id).collect(),
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
        self.lists = Lists::empty(self.active.len());
        self.live = 0;
    }
}

/// No group yet: a clear [`Groups`] slot.
const NO_GROUP: u32 = u32::MAX;

/// Scratch that groups one super-node's live edges by the cluster of the
/// other endpoint.
struct Groups {
    /// The live edges of the super-node read last, as `(group, id)`.
    records: Vec<(u32, EdgeId)>,
    /// The groups E(v, c) of the super-node `v` read last, in order of
    /// first appearance, as `(c, w, id)` of the group's lightest edge.
    groups: Vec<(u32, Weight, EdgeId)>,
    /// `slot[c]`: the group of cluster `c` while a super-node is read,
    /// [`NO_GROUP`] otherwise.
    slot: Vec<u32>,
}

impl Groups {
    /// Scratch for `n` clusters.
    fn new(n: usize) -> Self {
        Groups {
            records: Vec::new(),
            groups: Vec::new(),
            slot: vec![NO_GROUP; n],
        }
    }

    /// Reads the live edges of super-node `v` into `records` and groups
    /// them by the cluster of the other endpoint.
    fn read(&mut self, v: usize, lists: &Lists<'_>, dead: &EdgeFlags, cluster_of: &[u32]) {
        self.records.clear();
        self.groups.clear();
        for &(u, w, id) in lists.get(v) {
            if dead.get(id) {
                continue;
            }
            let c = cluster_of[u as usize];
            debug_assert_ne!(c, cluster_of[v], "live edges are inter-cluster (Lemma 5.6)");
            let slot = &mut self.slot[c as usize];
            if *slot == NO_GROUP {
                *slot = self.groups.len() as u32;
                self.groups.push((c, w, id));
            } else {
                let lightest = &mut self.groups[*slot as usize];
                if (w, id) < (lightest.1, lightest.2) {
                    *lightest = (c, w, id);
                }
            }
            self.records.push((*slot, id));
        }
        for &(c, _, _) in &self.groups {
            self.slot[c as usize] = NO_GROUP;
        }
    }
}

/// The iteration-start snapshot one grow step decides against.
struct GrowStep<'a> {
    lists: &'a Lists<'a>,
    dead: &'a EdgeFlags,
    active: &'a [bool],
    cluster_of: &'a [u32],
    /// `sampled[c]`: cluster `c` was sampled this iteration.
    sampled: &'a [bool],
}

impl GrowStep<'_> {
    /// Decides the candidates among the super-nodes `lo..hi`, and counts
    /// their distinct `(super-node, c)` groups per target cluster `c`.
    fn decide(&self, (lo, hi): (usize, usize)) -> (Decisions, Vec<u32>) {
        let n = self.cluster_of.len();
        let mut counts = vec![0; n];
        let mut scratch = Groups::new(n);
        let mut killed = Vec::new();
        let mut out = Decisions::default();
        for v in lo..hi {
            if !self.active[v] || self.sampled[self.cluster_of[v] as usize] {
                continue;
            }
            scratch.read(v, self.lists, self.dead, self.cluster_of);
            // Nearest sampled neighbouring cluster `(w*, id*, c*)`, if any.
            let mut nearest: Option<(Weight, EdgeId, u32)> = None;
            for &(c, w, id) in &scratch.groups {
                counts[c as usize] += 1;
                if self.sampled[c as usize]
                    && nearest.is_none_or(|(nw, nid, _)| (w, id) < (nw, nid))
                {
                    nearest = Some((w, id, c));
                }
            }
            if let Some((_, id, c)) = nearest {
                out.joins.push((v as u32, c, id));
            }
            killed.clear();
            for &(c, w, id) in &scratch.groups {
                let kill = match nearest {
                    // Join c* via its lightest edge, plus one edge to
                    // every strictly closer neighbouring cluster.
                    Some((w_star, _, c_star)) => c == c_star || w < w_star,
                    // No sampled neighbour: one edge per neighbouring
                    // cluster, then the super-node retires.
                    None => true,
                };
                if kill {
                    out.spanner.push(id);
                }
                killed.push(kill);
            }
            for &(group, id) in &scratch.records {
                if killed[group as usize] {
                    out.killed.push(id);
                }
            }
        }
        (out, counts)
    }
}

/// The state one contraction reads to write the quotient's lists.
struct ContractStep<'a> {
    lists: &'a Lists<'a>,
    dead: &'a EdgeFlags,
    cluster_of: &'a [u32],
    /// `members[first[c]..first[c + 1]]` are the super-nodes of cluster `c`.
    first: &'a [usize],
    members: &'a [u32],
    /// The new list of `c` is written from `start[c]` on.
    start: &'a [usize],
}

impl ContractStep<'_> {
    /// Writes the lists of the new super-nodes `lo..hi` into `run` (their
    /// regions, from `start[lo]`) and their lengths into `lens`: the
    /// lightest live edge to each neighbouring cluster.
    fn lightest_per_neighbour(
        &self,
        (lo, hi): (usize, usize),
        run: &mut [Entry],
        lens: &mut [u32],
    ) {
        let base = self.start[lo];
        // `slot[b]`: the entry of `c`'s new list that holds the lightest
        // edge to `b` while `c` is written, [`NO_GROUP`] otherwise.
        let mut slot = vec![NO_GROUP; self.cluster_of.len()];
        for c in lo..hi {
            let list = &mut run[self.start[c] - base..self.start[c + 1] - base];
            let mut k = 0;
            for &v in &self.members[self.first[c]..self.first[c + 1]] {
                for &(u, w, id) in self.lists.get(v as usize) {
                    if self.dead.get(id) {
                        continue;
                    }
                    let b = self.cluster_of[u as usize];
                    let slot = &mut slot[b as usize];
                    if *slot == NO_GROUP {
                        *slot = k;
                        list[k as usize] = (b, w, id);
                        k += 1;
                    } else {
                        let kept = &mut list[*slot as usize];
                        if (w, id) < (kept.1, kept.2) {
                            *kept = (b, w, id);
                        }
                    }
                }
            }
            for &(b, _, _) in &list[..k as usize] {
                slot[b as usize] = NO_GROUP;
            }
            lens[c - lo] = k;
        }
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
    /// Largest number of `(super-node, cluster)` candidate groups that
    /// target any single cluster: what that cluster's centre would absorb
    /// (the Congested Clique centre fan-in this iteration).
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

    /// `(super-node, neighbour)` per live list entry.
    fn live_entries(e: &Engine) -> Vec<(u32, u32)> {
        (0..e.active.len())
            .filter(|&v| e.active[v])
            .flat_map(|v| e.lists.get(v).iter().map(move |&entry| (v as u32, entry)))
            .filter(|&(_, (_, _, id))| !e.dead.get(id))
            .map(|(v, (u, _, _))| (v, u))
            .collect()
    }

    #[test]
    fn iteration_preserves_inter_cluster_invariant() {
        let g = generators::connected_erdos_renyi(80, 0.08, WeightModel::Uniform(1, 8), 3);
        let mut e = Engine::new(&g, 5);
        e.run_iteration(0.4, 1, 1);
        // Every live edge has endpoints in distinct clusters (Lemma 5.6),
        // is in the lists of both, and is counted once.
        let entries = live_entries(&e);
        for &(v, u) in &entries {
            assert!(e.active[u as usize]);
            assert_ne!(e.cluster_of[v as usize], e.cluster_of[u as usize]);
        }
        assert_eq!(entries.len(), 2 * e.live_edge_count());
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
    fn steps_without_live_edges_only_sample_and_retire() {
        let g = Graph::from_edges(40, Vec::new());
        let mut e = Engine::new(&g, 3);
        let s = e.run_iteration(0.5, 1, 1);
        assert_eq!(
            (
                s.clusters_before,
                s.edges_added,
                s.max_candidates_per_cluster
            ),
            (40, 0, 0)
        );
        assert_eq!(e.supernode_count(), s.sampled_clusters);
        assert_eq!(e.cluster_count(), s.sampled_clusters);
        e.phase2();
        assert_eq!(e.finish("test", 1.0).size(), 0);
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
        let mut pairs = live_entries(&e);
        assert_eq!(pairs.len(), 2 * e.live_edge_count());
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
