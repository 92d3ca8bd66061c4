//! `Algorithm::BaswanaSen` against an independent construction.
//!
//! [`reference`] is the classic Baswana–Sen `(2k−1)`-spanner \[BS07],
//! written at the vertex level with hash sets and no engine: `k − 1`
//! grow iterations at the fixed probability `n^{-1/k}`, then the vertex
//! phase that keeps the lightest edge from every vertex to every
//! neighbouring cluster. It draws the same shared coins
//! (`cluster_coin(seed, 1, iter, c, p)`) and breaks ties by
//! `(weight, edge id)`, so the pipeline's Baswana–Sen must return the
//! same spanner, iteration count, epoch count and stretch bound on every
//! input, at every pool width.
//!
//! The inputs cover the generator families, the skewed shapes of the
//! MPC tests (a hub ring and a caterpillar), a tree, a graph with
//! isolated vertices and several components, and a quotient graph of the
//! engine, the input Section 3 hands to Baswana–Sen as a black box. Each
//! comes with unit weights, weights in {1, 2} (many ties) and powers of
//! two up to 2⁸.

use std::collections::{HashMap, HashSet};

use mpc_spanners::core::coins::cluster_coin;
use mpc_spanners::core::engine::Engine;
use mpc_spanners::graph::edge::{EdgeId, Weight};
use mpc_spanners::graph::generators::{
    caterpillar, erdos_renyi, hub_ring, random_tree, Family, WeightModel,
};
use mpc_spanners::graph::Graph;
use mpc_spanners::pipeline::{Algorithm, SpannerRequest};

/// What the comparison reads of a spanner result.
#[derive(Debug, PartialEq)]
struct Outcome {
    edges: Vec<EdgeId>,
    epochs: u32,
    iterations: u32,
    stretch_bound: f64,
    algorithm: String,
}

/// The vertex-level Baswana–Sen construction.
fn reference(g: &Graph, k: u32, seed: u64) -> Outcome {
    let algorithm = format!("baswana-sen(k={k})");
    if k == 1 || g.m() == 0 {
        return Outcome {
            edges: (0..g.m() as EdgeId).collect(),
            epochs: 0,
            iterations: 0,
            stretch_bound: 1.0,
            algorithm,
        };
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
        // Sample current clusters. Baswana–Sen is the one-epoch
        // schedule, so the coins are drawn at epoch 1.
        let clusters: HashSet<u32> = cluster_of.iter().flatten().copied().collect();
        let sampled: HashSet<u32> = clusters
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

    spanner.sort_unstable();
    spanner.dedup();
    Outcome {
        edges: spanner,
        epochs: 1,
        iterations: k - 1,
        stretch_bound: (2 * k - 1) as f64,
        algorithm,
    }
}

/// The pipeline's Baswana–Sen on the sequential backend.
fn pipeline(g: &Graph, k: u32, seed: u64) -> Outcome {
    let r = SpannerRequest::new(g, Algorithm::BaswanaSen { k })
        .seed(seed)
        .run()
        .expect("valid request")
        .result;
    Outcome {
        edges: r.edges,
        epochs: r.epochs,
        iterations: r.iterations,
        stretch_bound: r.stretch_bound,
        algorithm: r.algorithm,
    }
}

/// Section 3's input at `k = 16`: the engine's quotient graph after
/// `⌈√16⌉ = 4` grow iterations at `p = n^{-1/16}` and a contraction.
fn quotient(weights: WeightModel) -> Graph {
    let g = Family::ErdosRenyi {
        n: 400,
        avg_deg: 8.0,
    }
    .generate(weights, 7);
    let p = (g.n() as f64).powf(-1.0 / 16.0);
    let mut engine = Engine::new(&g, 0x5ec3);
    for iter in 1..=4 {
        engine.run_iteration(p, 1, iter);
    }
    engine.contract();
    engine.quotient_graph().graph
}

/// Every input: name and graph.
fn graphs() -> Vec<(String, Graph)> {
    let mut out = Vec::new();
    for weights in [
        WeightModel::Unit,
        WeightModel::Uniform(1, 2),
        WeightModel::PowersOfTwo(8),
    ] {
        let families = [
            Family::ErdosRenyi {
                n: 200,
                avg_deg: 12.0,
            },
            Family::Torus { side: 10 },
            Family::PowerLaw {
                n: 200,
                avg_deg: 6.0,
            },
            Family::CliqueChain {
                cliques: 6,
                size: 8,
            },
        ];
        let inputs = families
            .into_iter()
            .zip(0..)
            .map(|(family, seed)| (family.name(), family.generate(weights, seed)))
            .chain([
                ("hub_ring".into(), hub_ring(16, 3, 30, weights, 11)),
                ("caterpillar".into(), caterpillar(40, 3, weights, 12)),
                ("random_tree".into(), random_tree(150, weights, 13)),
                (
                    "disconnected_er".into(),
                    erdos_renyi(200, 0.008, weights, 14),
                ),
                ("quotient".into(), quotient(weights)),
            ]);
        out.extend(inputs.map(|(name, g)| (format!("{name} {weights:?}"), g)));
    }
    out
}

fn at_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .unwrap()
        .install(f)
}

#[test]
fn baswana_sen_matches_the_vertex_level_reference_at_every_thread_count() {
    const KS: [u32; 6] = [1, 2, 3, 5, 8, 64];
    const SEEDS: [u64; 2] = [1, 0xba5e];
    let graphs = graphs();
    let mut cases = Vec::new();
    for (name, g) in &graphs {
        for k in KS {
            for seed in SEEDS {
                cases.push((name, g, k, seed, reference(g, k, seed)));
            }
        }
    }
    for threads in [1, 2, 3] {
        at_threads(threads, || {
            for (name, g, k, seed, expected) in &cases {
                assert_eq!(
                    &pipeline(g, *k, *seed),
                    expected,
                    "{threads} threads: {name} (n={}, m={}) k={k} seed={seed}",
                    g.n(),
                    g.m()
                );
            }
        });
    }
}
