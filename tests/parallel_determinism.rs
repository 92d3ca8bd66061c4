//! Determinism-under-parallelism properties: every parallelized MPC
//! primitive must produce **bit-identical output and identical round
//! accounting** whether the rayon shim splits work across 1 thread or 8,
//! the sequential engine, which decides one super-node range per pool
//! thread, must build the same spanner at 1, 2 and 4 threads, and the
//! CSR builder, which scatters one vertex range per pool thread, must
//! build the graph a sorting reference builds at 1, 2 and 4 threads.
//! This pins the shim's order-preserving-collect contract at the level
//! the simulator actually depends on (the CI matrix re-runs the whole
//! suite under `RAYON_NUM_THREADS={1,4}` for the same reason).

use std::collections::BTreeMap;

use proptest::prelude::*;

use mpc_spanners::core::coins::splitmix64;
use mpc_spanners::core::TradeoffParams;
use mpc_spanners::graph::edge::{Edge, EdgeId, Weight};
use mpc_spanners::graph::generators::{hub_ring, Family, WeightModel};
use mpc_spanners::graph::GraphBuilder;
use mpc_spanners::mpc::comm::{route, route_with};
use mpc_spanners::mpc::primitives::{aggregate_by_key, forward_fill, sort_by_key};
use mpc_spanners::mpc::{Dist, Metrics, MpcConfig, MpcSystem};
use mpc_spanners::pipeline::{Algorithm, SpannerRequest};

/// Runs `f` with the shim's parallel splitting capped at `threads`.
fn at_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .unwrap()
        .install(f)
}

/// A deployment generous enough that none of the generated inputs hit a
/// memory or bandwidth constraint (those paths are covered elsewhere).
fn sys_for(len: usize, machines: usize) -> MpcSystem {
    let words = (8 * len.div_ceil(machines) + 64).max(64);
    MpcSystem::new(MpcConfig::explicit(words, machines, 8))
}

/// Naive reference delivery of one routing round of 1-word records: for
/// each source machine in order, append each of its records in order to
/// its destination. Returns the delivered shards and `before` plus the
/// accounting of that one round.
fn reference_route(
    shards: &[Vec<u64>],
    dests: &[Vec<usize>],
    op: &'static str,
    before: &Metrics,
) -> (Vec<Vec<u64>>, Metrics) {
    let machines = shards.len();
    let mut out = vec![Vec::new(); machines];
    let mut sent = vec![0usize; machines];
    let mut received = vec![0usize; machines];
    for src in 0..machines {
        for (i, &rec) in shards[src].iter().enumerate() {
            let dst = dests[src][i];
            out[dst].push(rec);
            if dst != src {
                sent[src] += 1;
                received[dst] += 1;
            }
        }
    }
    let mut metrics = before.clone();
    metrics.add_round(op);
    metrics.observe_traffic(
        sent.iter().copied().max().unwrap_or(0),
        received.iter().copied().max().unwrap_or(0),
        sent.iter().sum::<usize>() as u64,
    );
    for shard in &out {
        metrics.observe_storage(shard.len());
    }
    (out, metrics)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn route_matches_naive_delivery_at_many_machines(
        data in proptest::collection::vec(0u64..1_000_000, 0..3000),
        machines in 1usize..=640,
        kind in 0usize..4,
        hot in 0usize..640,
    ) {
        let hot = hot % machines;
        // 0: uniform; 1: sparse (three target machines, the rest receive
        // nothing); 2: skewed (three quarters to one hot machine);
        // 3: self-only (no traffic at all).
        let dest = move |&x: &u64, src: usize| match kind {
            0 => (x % machines as u64) as usize,
            1 => [0, hot, machines - 1][(x % 3) as usize],
            2 if x % 4 != 0 => hot,
            2 => (x % machines as u64) as usize,
            _ => src,
        };
        // Room for every record on one machine, in storage and per round.
        let fresh = || MpcSystem::new(MpcConfig::explicit(data.len() + 64, machines, 1));
        let mut s = fresh();
        let input = Dist::distribute(&mut s, data.clone()).unwrap();
        let dests: Vec<Vec<usize>> = input
            .shards()
            .iter()
            .enumerate()
            .map(|(src, shard)| shard.iter().map(|x| dest(x, src)).collect())
            .collect();
        let expect = reference_route(input.shards(), &dests, "route", s.metrics());
        for threads in [1, 2] {
            let via_route = at_threads(threads, || {
                let mut s = fresh();
                let d = Dist::distribute(&mut s, data.clone()).unwrap();
                let out = route(&mut s, d, "route", dest).unwrap();
                (out.shards().to_vec(), s.metrics().clone())
            });
            let via_route_with = at_threads(threads, || {
                let mut s = fresh();
                let d = Dist::distribute(&mut s, data.clone()).unwrap();
                let out = route_with(&mut s, d, "route", &dests).unwrap();
                (out.shards().to_vec(), s.metrics().clone())
            });
            prop_assert_eq!(&via_route, &expect, "route at {} threads, map {}", threads, kind);
            prop_assert_eq!(&via_route_with, &expect, "route_with at {} threads, map {}", threads, kind);
        }
    }

    #[test]
    fn sort_by_key_is_thread_count_invariant(
        data in proptest::collection::vec(0u64..1000, 0..400),
        machines in 2usize..12,
    ) {
        let run = || {
            let mut s = sys_for(data.len(), machines);
            let d = Dist::distribute(&mut s, data.clone()).unwrap();
            let out = sort_by_key(&mut s, d, "sort", |&x| x).unwrap();
            let shard_sizes: Vec<usize> = out.shards().iter().map(Vec::len).collect();
            (out.collect_out_of_model(), shard_sizes, s.rounds())
        };
        let seq = at_threads(1, run);
        let par = at_threads(8, run);
        prop_assert_eq!(&seq, &par, "sort output/layout/rounds must not depend on thread count");
        let mut expect = data.clone();
        expect.sort();
        prop_assert_eq!(seq.0, expect);
    }

    #[test]
    fn route_is_thread_count_invariant(
        data in proptest::collection::vec(0u64..1000, 0..400),
        machines in 2usize..12,
    ) {
        // `route` computes destinations per machine in parallel, then
        // delivers in one counting scatter; its contract — destination
        // shards ordered by (source machine, source position), identical
        // round/traffic accounting — must hold at every thread count.
        let run = || {
            let mut s = sys_for(data.len(), machines);
            let d = Dist::distribute(&mut s, data.clone()).unwrap();
            let routed = route(&mut s, d, "route", |&x, _| (x % machines as u64) as usize).unwrap();
            (
                routed.shards().to_vec(),
                s.rounds(),
                s.metrics().total_comm_words,
            )
        };
        let seq = at_threads(1, run);
        let par = at_threads(8, run);
        prop_assert_eq!(&seq, &par, "route shards/rounds/traffic must not depend on thread count");
        // Destination shards keep (source machine, source position) order,
        // which for this round-robin distribution means: within a shard,
        // records from the same source appear in their original relative
        // order. Cheap global check: re-concatenating shards yields a
        // permutation of the input with every record on its destination.
        for (m, shard) in seq.0.iter().enumerate() {
            prop_assert!(shard.iter().all(|&x| (x % machines as u64) as usize == m));
        }
        let mut flat: Vec<u64> = seq.0.iter().flatten().copied().collect();
        flat.sort_unstable();
        let mut expect = data.clone();
        expect.sort_unstable();
        prop_assert_eq!(flat, expect);
    }

    #[test]
    fn aggregate_by_key_is_thread_count_invariant(
        data in proptest::collection::vec((0u64..50, 0u64..1_000_000), 0..300),
        machines in 2usize..12,
    ) {
        let run = || {
            let mut s = sys_for(data.len(), machines);
            let d = Dist::distribute(&mut s, data.clone()).unwrap();
            let out = aggregate_by_key(&mut s, d, "agg", |r| r.0, |r| r.1, |a, b| *a.min(b)).unwrap();
            (out.collect_out_of_model(), s.rounds())
        };
        let seq = at_threads(1, run);
        let par = at_threads(8, run);
        prop_assert_eq!(&seq, &par, "aggregate output must not depend on thread count");
        let mut reference: BTreeMap<u64, u64> = BTreeMap::new();
        for &(k, v) in &data {
            reference.entry(k).and_modify(|m| *m = v.min(*m)).or_insert(v);
        }
        let mut flat = seq.0;
        flat.sort();
        prop_assert_eq!(flat, reference.into_iter().collect::<Vec<_>>());
    }

    #[test]
    fn forward_fill_is_thread_count_invariant(
        spec in proptest::collection::vec((0u64..100, 0u64..2), 1..300),
        machines in 2usize..12,
    ) {
        // (value, MAX) records are group leaders; (0, 0) records inherit
        // the nearest leader value to their left.
        let recs: Vec<(u64, u64)> = spec
            .iter()
            .map(|&(v, is_leader)| if is_leader == 1 { (v, u64::MAX) } else { (0, 0) })
            .collect();
        let run = || {
            let mut s = sys_for(recs.len(), machines);
            let mut d = Dist::distribute(&mut s, recs.clone()).unwrap();
            forward_fill(
                &mut s,
                &mut d,
                "fill",
                |r| if r.1 == u64::MAX { Some(r.0) } else { None },
                |r, &u| r.1 = u,
            )
            .unwrap();
            (d.collect_out_of_model(), s.rounds())
        };
        let seq = at_threads(1, run);
        let par = at_threads(8, run);
        prop_assert_eq!(&seq, &par, "forward_fill output must not depend on thread count");
        // Sequential reference: plain left-to-right scan.
        let mut reference = recs.clone();
        let mut carry: Option<u64> = None;
        for r in &mut reference {
            if r.1 == u64::MAX {
                carry = Some(r.0);
            } else if let Some(c) = carry {
                r.1 = c;
            }
        }
        prop_assert_eq!(seq.0, reference);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn engine_spanner_is_thread_count_invariant(
        hubs in 0u8..2,
        ties in 0u8..2,
        k in 2u32..=16,
        t in 1u32..=4,
        seed in 0u64..1_000_000,
    ) {
        // n >= 4096 gives every one of the 4 super-node ranges records.
        let (hubs, ties) = (hubs == 1, ties == 1);
        let weights = if ties { WeightModel::Uniform(1, 2) } else { WeightModel::Uniform(1, 64) };
        let g = if hubs {
            hub_ring(2048, 16, 128, weights, seed)
        } else {
            Family::ErdosRenyi { n: 4096, avg_deg: 8.0 }.generate(weights, seed)
        };
        let request = SpannerRequest::new(&g, Algorithm::General(TradeoffParams::new(k, t))).seed(seed);
        let run = || {
            let r = request.run().expect("a valid general request builds").result;
            (r.edges, r.iterations, r.supernodes_per_epoch)
        };
        let one = at_threads(1, run);
        for threads in [2, 4] {
            prop_assert_eq!(
                &one,
                &at_threads(threads, run),
                "hubs={} ties={} k={} t={} seed={}: the {}-thread build differs",
                hubs, ties, k, t, seed, threads
            );
        }
    }
}

/// Each vertex's `(neighbour, weight, edge id)` run.
type AdjacencyRuns = Vec<Vec<(u32, Weight, EdgeId)>>;

/// The builder's contract, computed the slow way: a stable sort by
/// `(u, v, w)`, the first copy of each pair, and each vertex's
/// adjacency run sorted.
fn reference_graph(n: usize, raw: &[(u32, u32, Weight)]) -> (Vec<Edge>, AdjacencyRuns) {
    let mut edges: Vec<Edge> = raw
        .iter()
        .filter(|&&(a, b, _)| a != b)
        .map(|&(a, b, w)| Edge::new(a, b, w))
        .collect();
    edges.sort_by_key(|e| (e.u, e.v, e.w));
    edges.dedup_by_key(|e| (e.u, e.v));
    let mut adj = vec![Vec::new(); n];
    for (id, e) in edges.iter().enumerate() {
        adj[e.u as usize].push((e.v, e.w, id as EdgeId));
        adj[e.v as usize].push((e.u, e.w, id as EdgeId));
    }
    for run in &mut adj {
        run.sort_unstable();
    }
    (edges, adj)
}

/// A multigraph edge list on `n` vertices drawn from `seed`, with
/// self-loops, both orientations of a pair, repeated pairs at other
/// weights and vertices no edge touches; with `hub`, one vertex is an
/// endpoint of most edges.
fn multigraph_edges(n: usize, hub: bool, seed: u64) -> Vec<(u32, u32, Weight)> {
    if n == 0 {
        return Vec::new();
    }
    let mut state = seed;
    let mut next = |bound: u64| {
        state = splitmix64(state);
        state % bound
    };
    // Only the first `used` vertices get edges; the rest stay isolated.
    let used = 1 + next(n as u64);
    let hub_vertex = next(used) as u32;
    let mut raw = Vec::new();
    for _ in 0..next(4 * n as u64 + 16) {
        let a = next(used) as u32;
        let b = if hub && next(5) != 0 {
            hub_vertex
        } else {
            next(used) as u32
        };
        // Three small weights and the largest, so pairs repeat at equal
        // and at different weights.
        let w = match next(8) {
            0 => Weight::MAX,
            k => k % 3 + 1,
        };
        raw.push((a, b, w));
        match next(6) {
            0 => raw.push((b, a, next(4) + 1)),
            1 => raw.push((a, a, w)),
            _ => {}
        }
    }
    raw
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn graph_builder_matches_a_sorting_reference_at_any_thread_count(
        size in 0usize..8,
        hub in 0u8..2,
        seed in 0u64..u64::MAX,
    ) {
        let n = [0, 1, 2, 3, 17, 64, 300, 2000][size];
        let hub = hub == 1;
        let raw = multigraph_edges(n, hub, seed);
        let (edges, adj) = reference_graph(n, &raw);
        for threads in [1, 2, 4] {
            let g = at_threads(threads, || {
                let mut b = GraphBuilder::new(n);
                for &(a, c, w) in &raw {
                    b.add_edge(a, c, w);
                }
                b.build()
            });
            let replay = format!(
                "replay: multigraph_edges(n = {n}, hub = {hub}, seed = {seed:#x}) at {threads} threads"
            );
            prop_assert_eq!(g.n(), n, "{}", replay);
            prop_assert_eq!(g.edges(), &edges[..], "edges differ; {}", replay);
            for (v, expect) in adj.iter().enumerate() {
                prop_assert_eq!(g.degree(v as u32), expect.len(), "degree of {}; {}", v, replay);
                let run: Vec<_> = g.neighbors(v as u32).collect();
                prop_assert_eq!(&run, expect, "neighbours of {}; {}", v, replay);
            }
        }
    }
}
