//! Appendix B: `O(k)`-stretch spanners for **unweighted** graphs in
//! `O((1/γ)·log k)` MPC rounds with `Õ(m + n^{1+γ})` total memory
//! (Theorem 1.3), adapting Parter–Yogev's Congested Clique construction.
//!
//! The algorithm, exactly as the appendix describes:
//!
//! 1. **Ball growing.** Every vertex collects its `4k`-hop neighbourhood,
//!    truncated once its size (vertices + explored edge endpoints)
//!    exceeds `Θ(n^{γ/2})`. Truncated ⇒ *dense*, otherwise *sparse*.
//!    In MPC this is graph exponentiation: `O(log k)` doubling steps of
//!    `O(1/γ)` rounds each (Appendix B.2.1).
//! 2. **Sparse side.** With shared per-vertex randomness, every sparse
//!    vertex simulates `k` iterations of Baswana–Sen inside its ball for
//!    itself *and every vertex within `k+1` hops*; the simulation agrees
//!    with the global run because Baswana–Sen is `k`-hop local. We
//!    therefore run the global [`crate::pipeline::Algorithm::BaswanaSen`]
//!    once (same shared coins) and keep each of its edges that has an
//!    endpoint within `k+1` hops of a sparse vertex — exactly the union
//!    the local simulations would add. This costs **no extra rounds**.
//! 3. **Dense side.** A hitting set `Z` (each vertex sampled with
//!    probability `Θ(log n · n^{-γ/4})`) hits every dense ball w.h.p.
//!    (a dense ball has `Θ(n^{γ/2})` size and hence `Ω(n^{γ/4})`
//!    vertices). Every dense vertex adds a shortest path to the nearest
//!    `z ∈ Z` in its ball (`O(k)` edges) and is *assigned* to it. Should
//!    a dense vertex's ball miss `Z` (a low-probability event the paper
//!    tolerates w.h.p.; we must stay correct deterministically), it
//!    falls back to being treated as sparse.
//! 4. **Auxiliary graph.** `H` on `Z` connects `z₁ ≠ z₂` iff some
//!    `G`-edge joins dense vertices assigned to them. A Baswana–Sen
//!    `O(1/γ)`-stretch spanner of `H` (constant rounds, `γ` constant) is
//!    mapped back to one original edge per kept super-edge.
//!
//! Dense–dense edges with equal assignment are spanned through the
//! common `z`; cross-assignment edges through the `H`-spanner detour;
//! everything touching a sparse vertex through the Baswana–Sen
//! simulation.

use std::collections::{HashMap, HashSet, VecDeque};

use rayon::prelude::*;

use spanner_graph::edge::EdgeId;
use spanner_graph::shortest_paths::capped_bfs_ball;
use spanner_graph::{Graph, GraphBuilder};

use crate::coins::splitmix64;
use crate::pipeline::{Algorithm, BuildGuard, PipelineError, SpannerRequest};
use crate::result::SpannerResult;

/// Tuning knobs of the Appendix B construction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UnweightedOkConfig {
    /// Memory exponent `γ ∈ (0, 1)`; balls are capped at `ball_factor ·
    /// n^{γ/2}` and the hitting set is sampled at rate `hitting_boost ·
    /// ln n · n^{-γ/4}`.
    pub gamma: f64,
    /// Constant in the ball size cap.
    pub ball_factor: f64,
    /// Constant boosting the hitting-set rate (higher ⇒ fewer sparse
    /// fallbacks, slightly larger `Z`).
    pub hitting_boost: f64,
}

impl Default for UnweightedOkConfig {
    fn default() -> Self {
        UnweightedOkConfig {
            gamma: 0.5,
            ball_factor: 4.0,
            hitting_boost: 2.0,
        }
    }
}

/// Statistics the experiments report alongside the spanner (carried in
/// [`SpannerResult::decomposition`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnweightedOkStats {
    /// Number of sparse vertices (including dense fallbacks).
    pub sparse: usize,
    /// Number of dense vertices assigned to the hitting set.
    pub dense_assigned: usize,
    /// Dense vertices whose ball missed `Z` (fell back to sparse).
    pub fallbacks: usize,
    /// Hitting-set size |Z|.
    pub hitting_set: usize,
    /// Edges of the auxiliary graph `H`.
    pub aux_edges: usize,
}

/// Builds the Theorem 1.3 spanner (the pipeline's sequential
/// `Algorithm::UnweightedOk` driver; the pipeline stamps the label and
/// the stretch bound). The input must be unweighted
/// ([`Graph::unweighted_copy`] otherwise; `plan()` rejects weighted
/// input with a typed error). The decomposition statistics ride inside
/// the result ([`SpannerResult::decomposition`]). The guard is checked
/// between the steps below and inside both Baswana–Sen runs, before
/// each of their grow iterations and their Phase 2.
pub(crate) fn build(
    g: &Graph,
    k: u32,
    cfg: UnweightedOkConfig,
    seed: u64,
    guard: &BuildGuard,
) -> Result<SpannerResult, PipelineError> {
    debug_assert!(k >= 1 && g.is_unweighted(), "validated by plan()");
    let n = g.n();
    if k == 1 || g.m() == 0 {
        let mut r = SpannerResult::whole_graph(g);
        r.decomposition = Some(UnweightedOkStats {
            sparse: n,
            dense_assigned: 0,
            fallbacks: 0,
            hitting_set: 0,
            aux_edges: 0,
        });
        return Ok(r);
    }

    // ---- 1. Ball growing (graph exponentiation in MPC). ----
    let cap = (cfg.ball_factor * (n.max(2) as f64).powf(cfg.gamma / 2.0)).ceil() as usize;
    let max_hops = 4 * k as usize;
    let balls: Vec<_> = (0..n as u32)
        .into_par_iter()
        .map(|v| capped_bfs_ball(g, v, max_hops, cap))
        .collect();
    let mut is_dense: Vec<bool> = balls.par_iter().map(|b| b.truncated).collect();
    guard.check()?;

    // ---- 3a. Hitting set Z. ----
    let rate =
        (cfg.hitting_boost * (n.max(2) as f64).ln() * (n.max(2) as f64).powf(-cfg.gamma / 4.0))
            .min(1.0);
    let in_z: Vec<bool> = (0..n as u32)
        .map(|v| {
            let h = splitmix64(seed ^ 0xabcd_ef01 ^ v as u64);
            ((h >> 11) as f64 / (1u64 << 53) as f64) < rate
        })
        .collect();
    let z_count = in_z.iter().filter(|&&b| b).count();

    let mut spanner: Vec<EdgeId> = Vec::new();

    // ---- 3b. Assign dense vertices to Z via in-ball shortest paths. ----
    let mut assign: Vec<Option<u32>> = vec![None; n];
    let mut fallbacks = 0usize;
    let dense_ids: Vec<u32> = (0..n as u32).filter(|&v| is_dense[v as usize]).collect();
    // (vertex, nearest z, path edge ids) — BFS restricted to the ball.
    type Assignment = (u32, Option<(u32, Vec<EdgeId>)>);
    let assignments: Vec<Assignment> = dense_ids
        .par_iter()
        .map(|&v| {
            let ball: HashSet<u32> = balls[v as usize].vertices.iter().copied().collect();
            let mut parent: HashMap<u32, (u32, EdgeId)> = HashMap::new();
            let mut queue = VecDeque::from([v]);
            let mut seen: HashSet<u32> = HashSet::from([v]);
            let mut found: Option<u32> = if in_z[v as usize] { Some(v) } else { None };
            'bfs: while let Some(x) = queue.pop_front() {
                if found.is_some() {
                    break;
                }
                for (y, _w, id) in g.neighbors(x) {
                    if ball.contains(&y) && seen.insert(y) {
                        parent.insert(y, (x, id));
                        if in_z[y as usize] {
                            found = Some(y);
                            break 'bfs;
                        }
                        queue.push_back(y);
                    }
                }
            }
            match found {
                Some(z) => {
                    let mut path = Vec::new();
                    let mut cur = z;
                    while cur != v {
                        let (p, id) = parent[&cur];
                        path.push(id);
                        cur = p;
                    }
                    (v, Some((z, path)))
                }
                None => (v, None),
            }
        })
        .collect();
    for (v, res) in assignments {
        match res {
            Some((z, path)) => {
                assign[v as usize] = Some(z);
                spanner.extend(path);
            }
            None => {
                // Ball missed Z: deterministic correctness fallback.
                is_dense[v as usize] = false;
                fallbacks += 1;
            }
        }
    }
    let dense_assigned = assign.iter().filter(|a| a.is_some()).count();
    let sparse = n - dense_assigned;
    guard.check()?;

    // ---- 2. Sparse side: shared-randomness Baswana–Sen. ----
    let bs = SpannerRequest::new(g, Algorithm::BaswanaSen { k })
        .seed(seed)
        .run_guarded(guard)?
        .result;
    // Vertices within k+1 hops of a sparse vertex (multi-source BFS).
    let mut near_sparse = vec![false; n];
    {
        let mut dist = vec![u32::MAX; n];
        let mut queue = VecDeque::new();
        for v in 0..n {
            if !is_dense[v] {
                dist[v] = 0;
                queue.push_back(v as u32);
            }
        }
        while let Some(x) = queue.pop_front() {
            let d = dist[x as usize];
            if d > k {
                continue;
            }
            for (y, _w, _id) in g.neighbors(x) {
                if dist[y as usize] == u32::MAX {
                    dist[y as usize] = d + 1;
                    queue.push_back(y);
                }
            }
        }
        for v in 0..n {
            near_sparse[v] = dist[v] != u32::MAX;
        }
    }
    for &id in &bs.edges {
        let e = g.edge(id);
        if near_sparse[e.u as usize] || near_sparse[e.v as usize] {
            spanner.push(id);
        }
    }

    // ---- 4. Auxiliary graph H on Z and its spanner. ----
    guard.check()?;
    let mut aux: HashMap<(u32, u32), EdgeId> = HashMap::new();
    for (id, e) in g.edges().iter().enumerate() {
        if let (Some(z1), Some(z2)) = (assign[e.u as usize], assign[e.v as usize]) {
            if z1 != z2 {
                let key = (z1.min(z2), z1.max(z2));
                let slot = aux.entry(key).or_insert(id as EdgeId);
                if (id as EdgeId) < *slot {
                    *slot = id as EdgeId;
                }
            }
        }
    }
    let aux_edges = aux.len();
    let (k_h, iterations, _) = schedule(k, cfg);
    if !aux.is_empty() {
        // Compact Z for the Graph type.
        let z_ids: Vec<u32> = {
            // analyze:allow(determinism-taint): collected then sorted and deduped below — order cannot leak
            let mut s: Vec<u32> = aux.keys().flat_map(|&(a, b)| [a, b]).collect();
            s.sort_unstable();
            s.dedup();
            s
        };
        let index: HashMap<u32, u32> = z_ids
            .iter()
            .enumerate()
            .map(|(i, &z)| (z, i as u32))
            .collect();
        let mut hb = GraphBuilder::new(z_ids.len());
        // analyze:allow(determinism-taint): GraphBuilder::build canonicalises (sorts + dedups), so insertion order cannot leak
        for &(z1, z2) in aux.keys() {
            hb.add_edge(index[&z1], index[&z2], 1);
        }
        let h = hb.build();
        // Map H's canonical edges back to their G originals.
        let origin: Vec<EdgeId> = h
            .edges()
            .iter()
            .map(|he| aux[&ordered(z_ids[he.u as usize], z_ids[he.v as usize])])
            .collect();
        let h_spanner = SpannerRequest::new(&h, Algorithm::BaswanaSen { k: k_h })
            .seed(splitmix64(seed ^ 0x7777))
            .run_guarded(guard)?
            .result;
        for &hid in &h_spanner.edges {
            spanner.push(origin[hid as usize]);
        }
    }

    let mut result = SpannerResult {
        edges: spanner,
        epochs: 1,
        iterations,
        stretch_bound: 0.0,
        radius_per_epoch: vec![],
        supernodes_per_epoch: vec![],
        algorithm: String::new(),
        decomposition: Some(UnweightedOkStats {
            sparse,
            dense_assigned,
            fallbacks,
            hitting_set: z_count,
            aux_edges,
        }),
    };
    result.canonicalise();
    Ok(result)
}

/// `k_H = ⌈2/γ⌉ + 1`, and the iterations (`⌈log₂ 4k⌉` doubling steps,
/// then the `H`-spanner's) and stretch bound that `plan()` predicts for
/// `k ≥ 2`. Stretch: sparse-incident edges ≤ 2k−1; same-z dense edges
/// ≤ 8k + 1 (two ball paths of ≤ 4k); cross-z edges an H-path of
/// ≤ 2k_H − 1 super-edges of ≤ 8k + 1 each, plus two ball paths.
pub(crate) fn schedule(k: u32, cfg: UnweightedOkConfig) -> (u32, u32, f64) {
    let k_h = ((2.0 / cfg.gamma).ceil() as u32).saturating_add(1);
    let iterations = ((4.0 * k as f64).log2().ceil() as u32).saturating_add(k_h);
    let per_super = 8.0 * k as f64 + 1.0;
    let stretch_bound = (2.0 * k_h as f64 - 1.0) * per_super + 8.0 * k as f64;
    (k_h, iterations, stretch_bound)
}

#[inline]
fn ordered(a: u32, b: u32) -> (u32, u32) {
    (a.min(b), a.max(b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{Algorithm, SpannerRequest};
    use spanner_graph::generators::{self, WeightModel};
    use spanner_graph::verify::verify_spanner;

    fn run(g: &Graph, k: u32, config: UnweightedOkConfig, seed: u64) -> SpannerResult {
        SpannerRequest::new(g, Algorithm::UnweightedOk { k, config })
            .seed(seed)
            .run()
            .expect("valid request")
            .result
    }

    fn check(g: &Graph, k: u32, cfg: UnweightedOkConfig, seed: u64) -> SpannerResult {
        let r = run(g, k, cfg, seed);
        spanner_graph::verify::assert_valid_edge_ids(g, &r.edges);
        let rep = verify_spanner(g, &r.edges);
        assert!(rep.all_edges_spanned, "unspanned edge (k={k})");
        assert!(
            rep.max_edge_stretch <= r.stretch_bound + 1e-9,
            "stretch {} > bound {}",
            rep.max_edge_stretch,
            r.stretch_bound
        );
        assert!(r.decomposition.is_some(), "stats must ride in the result");
        r
    }

    #[test]
    fn sparse_only_graph_reduces_to_baswana_sen_edges() {
        // A bounded-degree graph with generous cap: everything sparse.
        let g = generators::torus(10, 10, WeightModel::Unit, 0);
        let cfg = UnweightedOkConfig {
            gamma: 0.9,
            ball_factor: 100.0,
            ..Default::default()
        };
        let r = check(&g, 3, cfg, 5);
        let stats = r.decomposition.as_ref().unwrap();
        assert_eq!(stats.dense_assigned, 0);
        assert_eq!(stats.sparse, g.n());
        let bs = SpannerRequest::new(&g, Algorithm::BaswanaSen { k: 3 })
            .seed(5)
            .run()
            .expect("valid request")
            .result;
        assert_eq!(r.edges, bs.edges, "all-sparse must equal global BS");
    }

    #[test]
    fn dense_hubs_are_detected() {
        // A star forces the hub (and its leaves, whose balls include the
        // hub's edges) to be dense under a small cap.
        let g = generators::caterpillar(2, 200, WeightModel::Unit, 0);
        let cfg = UnweightedOkConfig {
            gamma: 0.3,
            ball_factor: 1.0,
            ..Default::default()
        };
        let r = check(&g, 2, cfg, 7);
        let stats = r.decomposition.as_ref().unwrap();
        assert!(
            stats.dense_assigned + stats.fallbacks > 0,
            "the hub must classify dense: {stats:?}"
        );
    }

    #[test]
    fn stretch_holds_on_er_graphs() {
        let g = generators::connected_erdos_renyi(300, 0.03, WeightModel::Unit, 3);
        for k in [2u32, 3, 4] {
            check(&g, k, UnweightedOkConfig::default(), 11);
        }
    }

    #[test]
    fn stretch_holds_on_power_law() {
        let g =
            generators::chung_lu_power_law(400, 8.0, 2.5, WeightModel::Unit, 5).unweighted_copy();
        check(&g, 3, UnweightedOkConfig::default(), 13);
    }

    #[test]
    fn size_envelope_k_n_1_plus_1_over_k() {
        let g = generators::connected_erdos_renyi(400, 0.05, WeightModel::Unit, 9);
        let k = 3u32;
        let r = check(&g, k, UnweightedOkConfig::default(), 15);
        let bound =
            k as f64 * (g.n() as f64).powf(1.0 + 1.0 / k as f64) + 2.0 * k as f64 * g.n() as f64; // BS part + dense paths
        assert!(
            (r.size() as f64) <= 3.0 * bound,
            "size {} vs envelope {bound}",
            r.size()
        );
    }

    #[test]
    fn k1_is_identity() {
        let g = generators::cycle(10, WeightModel::Unit, 0);
        let r = run(&g, 1, UnweightedOkConfig::default(), 0);
        assert_eq!(r.size(), g.m());
    }

    #[test]
    fn deterministic_per_seed() {
        let g = generators::connected_erdos_renyi(200, 0.05, WeightModel::Unit, 21);
        let a = run(&g, 3, UnweightedOkConfig::default(), 33);
        let b = run(&g, 3, UnweightedOkConfig::default(), 33);
        assert_eq!(a.edges, b.edges);
    }
}
