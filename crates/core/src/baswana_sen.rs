//! The Baswana–Sen baseline \[BS07], implemented **independently** of the
//! shared engine.
//!
//! This serves three purposes:
//!
//! 1. It is the paper's explicit baseline (the `t = k` end of the
//!    trade-off): stretch `2k − 1`, expected size `O(k·n^{1+1/k})`, but
//!    `k` iterations — i.e. `O(k)` MPC rounds, which is what the paper
//!    improves to `poly(log k)`.
//! 2. Section 3 uses it *as a black box* on the contracted graph.
//! 3. Appendix B simulates it locally inside collected balls; the local
//!    simulation is keyed by the same shared randomness
//!    ([`crate::coins`]).
//! 4. Being a from-scratch, vertex-level implementation, it serves as a
//!    differential-testing partner for the engine: `general(k, t = k)`
//!    with the same seed must produce the identical spanner
//!    (`tests/` asserts this).
//!
//! The weighted variant follows the paper's Section 5 Step B description
//! (which is \[BS07] with explicit tie-breaks): each unclustered-or-
//! unsampled vertex joins the sampled neighbouring cluster with the
//! lightest connecting edge and also keeps one edge to every strictly
//! lighter neighbouring cluster.

use std::collections::{HashMap, HashSet};

use spanner_graph::edge::{EdgeId, Weight};
use spanner_graph::Graph;

use crate::coins::cluster_coin;
use crate::pipeline::{BuildGuard, PipelineError};
use crate::result::SpannerResult;

/// Classic Baswana–Sen `(2k−1)`-spanner on a weighted graph: `k`
/// grow iterations at fixed probability `n^{-1/k}` and the vertex-level
/// second phase, expected size `O(k·n^{1+1/k})`. The pipeline's
/// sequential `Algorithm::BaswanaSen` driver runs [`build_guarded`];
/// Section 3 and Appendix B run it uninterruptible as a black box.
pub(crate) fn build(g: &Graph, k: u32, seed: u64) -> SpannerResult {
    build_guarded(g, k, seed, &BuildGuard::new(format!("baswana-sen(k={k})")))
        .expect("an unbounded guard never interrupts")
}

/// [`build`] under a [`BuildGuard`], checked before every grow
/// iteration and before Phase 2 — the preemptible variant the pipeline
/// runs.
pub(crate) fn build_guarded(
    g: &Graph,
    k: u32,
    seed: u64,
    guard: &BuildGuard,
) -> Result<SpannerResult, PipelineError> {
    debug_assert!(k >= 1, "validated by plan()");
    let algorithm = format!("baswana-sen(k={k})");
    if k == 1 || g.m() == 0 {
        return Ok(SpannerResult::whole_graph(g, algorithm));
    }

    let n = g.n();
    let p = (n.max(2) as f64).powf(-1.0 / k as f64);

    // cluster_of[v]: current cluster (centre vertex id) of v, or None if
    // v has retired. Initially every vertex is its own cluster.
    let mut cluster_of: Vec<Option<u32>> = (0..n as u32).map(Some).collect();
    // Live edges as (u, v, w, id); endpoints always in distinct clusters.
    let mut live: Vec<(u32, u32, Weight, EdgeId)> = g
        .edges()
        .iter()
        .enumerate()
        .map(|(id, e)| (e.u, e.v, e.w, id as EdgeId))
        .collect();
    let mut spanner: Vec<EdgeId> = Vec::new();

    for iter in 1..=k.saturating_sub(1) {
        guard.check()?;
        // Sample current clusters. (Epoch is fixed to 1: Baswana–Sen is
        // the one-epoch schedule, and this matches the engine's coins for
        // t = k so the two implementations are comparable.)
        let clusters: HashSet<u32> = cluster_of.iter().flatten().copied().collect();
        let sampled: HashSet<u32> = clusters
            // analyze:allow(determinism-taint): filtered into a set used for membership only — order cannot leak
            .iter()
            .copied()
            .filter(|&c| cluster_coin(seed, 1, iter, c, p))
            .collect();

        // Candidates per (vertex of unsampled cluster, neighbour cluster).
        let mut cand: Vec<(u32, u32, Weight, EdgeId)> = Vec::new();
        for &(u, v, w, id) in &live {
            let cu = cluster_of[u as usize].expect("live endpoints are clustered");
            let cv = cluster_of[v as usize].expect("live endpoints are clustered");
            if !sampled.contains(&cu) {
                cand.push((u, cv, w, id));
            }
            if !sampled.contains(&cv) {
                cand.push((v, cu, w, id));
            }
        }
        cand.sort_unstable_by_key(|&(v, c, w, id)| (v, c, w, id));
        cand.dedup_by_key(|&mut (v, c, _, _)| (v, c));
        cand.sort_unstable_by_key(|&(v, _, w, id)| (v, w, id));

        let mut kills: HashSet<(u32, u32)> = HashSet::new();
        let mut joins: Vec<(u32, u32)> = Vec::new();
        let mut i = 0;
        while i < cand.len() {
            let v = cand[i].0;
            let mut j = i;
            while j < cand.len() && cand[j].0 == v {
                j += 1;
            }
            let group = &cand[i..j];
            match group.iter().find(|&&(_, c, _, _)| sampled.contains(&c)) {
                Some(&(_, cstar, wstar, idstar)) => {
                    spanner.push(idstar);
                    joins.push((v, cstar));
                    kills.insert((v, cstar));
                    for &(_, c, w, id) in group {
                        if w < wstar {
                            spanner.push(id);
                            kills.insert((v, c));
                        }
                    }
                }
                None => {
                    for &(_, c, _, id) in group {
                        spanner.push(id);
                        kills.insert((v, c));
                    }
                }
            }
            i = j;
        }

        // Apply kills against the snapshot labels.
        {
            let labels = &cluster_of;
            live.retain(|&(u, v, _, _)| {
                let cu = labels[u as usize].expect("clustered");
                let cv = labels[v as usize].expect("clustered");
                !(kills.contains(&(u, cv)) || kills.contains(&(v, cu)))
            });
        }

        // New clustering: vertices of sampled clusters stay; joiners move;
        // the rest retire.
        let join_map: HashMap<u32, u32> = joins.into_iter().collect();
        for v in 0..n as u32 {
            if let Some(c) = cluster_of[v as usize] {
                if sampled.contains(&c) {
                    // stays
                } else if let Some(&cstar) = join_map.get(&v) {
                    cluster_of[v as usize] = Some(cstar);
                } else {
                    cluster_of[v as usize] = None;
                }
            }
        }

        // Remove edges that became intra-cluster or lost an endpoint.
        live.retain(
            |&(u, v, _, _)| match (cluster_of[u as usize], cluster_of[v as usize]) {
                (Some(cu), Some(cv)) => cu != cv,
                _ => false,
            },
        );
    }

    // Phase 2: min edge per (vertex, neighbouring cluster).
    guard.check()?;
    let mut cand: Vec<(u32, u32, Weight, EdgeId)> = Vec::new();
    for &(u, v, w, id) in &live {
        let cu = cluster_of[u as usize].expect("clustered");
        let cv = cluster_of[v as usize].expect("clustered");
        cand.push((u, cv, w, id));
        cand.push((v, cu, w, id));
    }
    cand.sort_unstable_by_key(|&(v, c, w, id)| (v, c, w, id));
    cand.dedup_by_key(|&mut (v, c, _, _)| (v, c));
    for (_, _, _, id) in cand {
        spanner.push(id);
    }

    let mut result = SpannerResult {
        edges: spanner,
        epochs: 1,
        iterations: k - 1,
        stretch_bound: (2 * k - 1) as f64,
        radius_per_epoch: vec![],
        supernodes_per_epoch: vec![],
        algorithm,
        decomposition: None,
    };
    result.canonicalise();
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{Algorithm, SpannerRequest};
    use spanner_graph::generators::{self, WeightModel};
    use spanner_graph::verify::verify_spanner;

    fn run(g: &Graph, k: u32, seed: u64) -> SpannerResult {
        SpannerRequest::new(g, Algorithm::BaswanaSen { k })
            .seed(seed)
            .run()
            .expect("valid request")
            .result
    }

    fn check(g: &Graph, k: u32, seed: u64) -> SpannerResult {
        let r = run(g, k, seed);
        spanner_graph::verify::assert_valid_edge_ids(g, &r.edges);
        let rep = verify_spanner(g, &r.edges);
        assert!(rep.all_edges_spanned, "unspanned edge (k={k})");
        assert!(
            rep.max_edge_stretch <= (2 * k - 1) as f64 + 1e-9,
            "stretch {} > 2k-1 = {}",
            rep.max_edge_stretch,
            2 * k - 1
        );
        r
    }

    #[test]
    fn k1_is_identity() {
        let g = generators::connected_erdos_renyi(30, 0.2, WeightModel::Unit, 0);
        assert_eq!(run(&g, 1, 0).size(), g.m());
    }

    #[test]
    fn stretch_bound_holds_on_weighted_graphs() {
        let g = generators::connected_erdos_renyi(150, 0.08, WeightModel::PowersOfTwo(10), 3);
        for k in [2, 3, 5, 8] {
            check(&g, k, 101);
        }
    }

    #[test]
    fn stretch_bound_holds_on_tori_and_cliques() {
        let t = generators::torus(9, 9, WeightModel::Uniform(1, 7), 2);
        check(&t, 3, 5);
        let c = generators::clique_chain(4, 8, WeightModel::Uniform(1, 7), 2);
        check(&c, 4, 5);
    }

    #[test]
    fn size_shrinks_with_k_on_dense_graphs() {
        let g = generators::complete(60, WeightModel::Uniform(1, 100), 4);
        let s2: usize = (0..5).map(|s| check(&g, 2, s).size()).sum();
        let s6: usize = (0..5).map(|s| check(&g, 6, s).size()).sum();
        assert!(
            s6 < s2,
            "larger k must sparsify more on K_n: k=2 → {s2}, k=6 → {s6}"
        );
    }

    #[test]
    fn unweighted_size_envelope() {
        // Expected size O(k n^{1+1/k}); allow a generous constant.
        let g = generators::connected_erdos_renyi(300, 0.15, WeightModel::Unit, 6);
        let k = 3u32;
        let sizes: Vec<usize> = (0..5).map(|s| run(&g, k, s).size()).collect();
        let avg = sizes.iter().sum::<usize>() as f64 / sizes.len() as f64;
        let bound = k as f64 * (g.n() as f64).powf(1.0 + 1.0 / k as f64);
        assert!(avg <= 3.0 * bound, "avg {avg} vs k·n^(1+1/k) = {bound}");
    }

    #[test]
    fn deterministic_per_seed() {
        let g = generators::connected_erdos_renyi(80, 0.1, WeightModel::Uniform(1, 9), 8);
        assert_eq!(run(&g, 4, 9).edges, run(&g, 4, 9).edges);
    }

    #[test]
    fn tree_input_keeps_all_edges() {
        // A spanner of a tree must contain every edge (removing any
        // disconnects it).
        let g = generators::random_tree(60, WeightModel::Uniform(1, 5), 10);
        let r = check(&g, 4, 11);
        assert_eq!(r.size(), g.m());
    }
}
