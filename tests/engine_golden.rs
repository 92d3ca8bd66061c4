//! Golden values of the spanner engine. For five graph shapes and four
//! schedules this pins:
//!
//! * the sequential spanner: size, a hash of the edge list, iterations
//!   and super-nodes per epoch;
//! * the public [`Engine`]'s trace: every `IterStats` and
//!   `live_edge_count()` after each `run_iteration` and `contract`
//!   (Section 3's schedule also pins its quotient graph);
//! * the PRAM backend's work and depth, which price every step by
//!   `live_edge_count()`, so they also check that count is exact;
//! * the Congested Clique run with 4 repetitions: its chosen runs,
//!   rounds, words and edges.
//!
//! The values were recorded from the engine that regrouped its live
//! edge list on every grow step, before the engine kept per-super-node
//! adjacency lists. Every case runs at 1, 2 and 3 pool threads; a
//! mismatch names the case and the thread count, and a missing or
//! extra case prints the whole table as it reads now.

use mpc_spanners::core::coins::splitmix64;
use mpc_spanners::core::engine::Engine;
use mpc_spanners::core::TradeoffParams;
use mpc_spanners::graph::edge::EdgeId;
use mpc_spanners::graph::generators::{caterpillar, hub_ring, Family, WeightModel};
use mpc_spanners::graph::{Graph, GraphBuilder};
use mpc_spanners::pipeline::{Algorithm, Backend, SpannerRequest};

/// The coin seed of every build.
const SEED: u64 = 0x601d_e17e;

/// The graphs: name and graph.
fn graphs() -> Vec<(&'static str, Graph)> {
    let er = |n, avg_deg, weights, seed| Family::ErdosRenyi { n, avg_deg }.generate(weights, seed);
    let near_max = {
        let base = er(1000, 8.0, WeightModel::Unit, 4);
        let mut b = GraphBuilder::new(base.n());
        for (i, e) in base.edges().iter().enumerate() {
            b.add_edge(e.u, e.v, u64::MAX - splitmix64(i as u64) % 3);
        }
        b.build()
    };
    vec![
        ("er4096", er(4096, 12.0, WeightModel::PowersOfTwo(8), 0)),
        (
            "hub_ring",
            hub_ring(64, 4, 200, WeightModel::Uniform(1, 16), 1),
        ),
        (
            "caterpillar",
            caterpillar(300, 4, WeightModel::Uniform(1, 4), 2),
        ),
        ("ties", er(2000, 10.0, WeightModel::Uniform(1, 2), 3)),
        ("near_max", near_max),
    ]
}

/// The schedules.
fn algorithms() -> [Algorithm; 4] {
    [
        Algorithm::General(TradeoffParams::log_k(16)),
        Algorithm::General(TradeoffParams::new(8, 3)),
        Algorithm::ClusterMerging { k: 16 },
        Algorithm::SqrtK { k: 16 },
    ]
}

/// A splitmix64 fold of `values`.
fn hash(values: impl IntoIterator<Item = u64>) -> u64 {
    values
        .into_iter()
        .fold(0x656e_6769_6e65, |h, x| splitmix64(h ^ x))
}

fn edge_hash(edges: &[EdgeId]) -> u64 {
    hash(edges.iter().map(|&id| id as u64))
}

/// The schedule `general::engine_steps` yields, walked as
/// `general::walk` walks it, through the public engine: the hash of the
/// per-step trace, the step count and the spanner edges.
fn general_trace(g: &Graph, params: TradeoffParams) -> (u64, usize, Vec<EdgeId>) {
    let mut trace = Vec::new();
    let mut steps = 0;
    let mut engine = Engine::new(g, SEED);
    for epoch in 1..=params.epochs() {
        let p = params.sampling_probability(g.n(), epoch);
        for iter in 1..=params.t {
            let s = engine.run_iteration(p, epoch, iter);
            trace.extend([
                s.clusters_before,
                s.sampled_clusters,
                s.edges_added,
                s.max_candidates_per_cluster,
                engine.live_edge_count(),
            ]);
            steps += 1;
        }
        engine.contract();
        trace.extend([
            engine.live_edge_count(),
            engine.supernode_count(),
            engine.cluster_count(),
        ]);
        steps += 1;
    }
    engine.phase2();
    let edges = engine.finish("trace", 0.0).edges;
    (hash(trace.into_iter().map(|x| x as u64)), steps, edges)
}

/// Section 3's first phase through the public engine, then its
/// quotient graph.
fn sqrt_k_trace(g: &Graph, k: u32) -> String {
    let t = (k as f64).sqrt().ceil() as u32;
    let p = (g.n().max(2) as f64).powf(-1.0 / k as f64);
    let mut trace = Vec::new();
    let mut engine = Engine::new(g, SEED);
    for iter in 1..=t {
        let s = engine.run_iteration(p, 1, iter);
        trace.extend([
            s.clusters_before,
            s.sampled_clusters,
            s.edges_added,
            s.max_candidates_per_cluster,
            engine.live_edge_count(),
        ]);
    }
    engine.contract();
    trace.extend([engine.live_edge_count(), engine.supernode_count()]);
    let q = engine.quotient_graph();
    format!(
        "trace={:#018x} quotient n={} m={} fp={:#018x} origin={:#018x} centres={:#018x}",
        hash(trace.into_iter().map(|x| x as u64)),
        q.graph.n(),
        q.graph.m(),
        q.graph.fingerprint(),
        edge_hash(&q.edge_origin),
        hash(q.centres.iter().map(|&c| c as u64)),
    )
}

/// Every `(case, value)` line of one graph under one schedule.
fn lines(name: &str, g: &Graph, algorithm: Algorithm) -> Vec<(String, String)> {
    let case = format!("{name} {}", algorithm.label());
    let run = |backend| {
        SpannerRequest::new(g, algorithm)
            .on(backend)
            .seed(SEED)
            .run()
            .unwrap_or_else(|e| panic!("{case} on {backend:?}: {e}"))
    };
    let seq = run(Backend::Sequential).result;
    let mut out = vec![(
        format!("{case} sequential"),
        format!(
            "size={} edges={:#018x} iterations={} supernodes={:?}",
            seq.edges.len(),
            edge_hash(&seq.edges),
            seq.iterations,
            seq.supernodes_per_epoch,
        ),
    )];
    let params = match algorithm {
        Algorithm::General(params) => params,
        Algorithm::ClusterMerging { k } => TradeoffParams::cluster_merging(k),
        Algorithm::SqrtK { k } => {
            out.push((format!("{case} engine"), sqrt_k_trace(g, k)));
            return out;
        }
        other => unreachable!("no golden schedule {other:?}"),
    };

    let (trace, steps, edges) = general_trace(g, params);
    assert_eq!(edges, seq.edges, "{case}: the engine replay differs");
    out.push((
        format!("{case} engine"),
        format!("steps={steps} trace={trace:#018x}"),
    ));

    let pram = run(Backend::Pram);
    let stats = pram.stats.pram().expect("PRAM stats");
    assert_eq!(pram.result.edges, seq.edges, "{case}: PRAM edges differ");
    out.push((
        format!("{case} pram"),
        format!("work={} depth={}", stats.work, stats.depth),
    ));

    let clique = run(Backend::CongestedClique { repetitions: 4 });
    let stats = clique.stats.congested_clique().expect("clique stats");
    out.push((
        format!("{case} clique×4"),
        format!(
            "chosen={:?} rounds={} words={} size={} edges={:#018x}",
            stats.chosen_runs,
            stats.rounds,
            stats.total_words,
            clique.result.edges.len(),
            edge_hash(&clique.result.edges),
        ),
    ));
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
fn engine_outputs_match_the_golden_values_at_every_thread_count() {
    let graphs = graphs();
    for threads in [1, 2, 3] {
        let actual: Vec<(String, String)> = at_threads(threads, || {
            graphs
                .iter()
                .flat_map(|(name, g)| algorithms().map(|a| lines(name, g, a)))
                .flatten()
                .collect()
        });
        let table: String = actual
            .iter()
            .map(|(case, value)| format!("    ({case:?}, {value:?}),\n"))
            .collect();
        assert_eq!(
            actual.len(),
            GOLDEN.len(),
            "{threads} threads: the cases changed; the table now reads\n{table}"
        );
        for ((case, value), (golden_case, golden_value)) in actual.iter().zip(GOLDEN) {
            assert_eq!(case, golden_case, "{threads} threads: the cases changed");
            assert_eq!(value, golden_value, "{threads} threads: {case}");
        }
    }
}

/// `(case, value)` per line, in [`lines`]' order.
const GOLDEN: &[(&str, &str)] = &[
    ("er4096 general(k=16,t=4) sequential", "size=15465 edges=0xa825108de6b32021 iterations=8 supernodes=[508, 0]"),
    ("er4096 general(k=16,t=4) engine", "steps=10 trace=0xaeedb4381692288d"),
    ("er4096 general(k=16,t=4) pram", "work=443465 depth=118"),
    ("er4096 general(k=16,t=4) clique×4", "chosen=[0, 2, 2, 3, 1, 0, 0, 0] rounds=68 words=403013632 size=15413 edges=0x57a9feed7c2242d1"),
    ("er4096 general(k=8,t=3) sequential", "size=21098 edges=0xe789ea12abed386a iterations=6 supernodes=[186, 0]"),
    ("er4096 general(k=8,t=3) engine", "steps=8 trace=0x80fa647bd88307c4"),
    ("er4096 general(k=8,t=3) pram", "work=263378 depth=92"),
    ("er4096 general(k=8,t=3) clique×4", "chosen=[1, 2, 3, 1, 0, 0] rounds=52 words=302268416 size=19619 edges=0x6b01491bffca1d57"),
    ("er4096 cluster-merging(k=16) sequential", "size=11394 edges=0xbf61925d312361e0 iterations=4 supernodes=[2445, 825, 116, 3]"),
    ("er4096 cluster-merging(k=16) engine", "steps=8 trace=0x3e5a40fcd32a5382"),
    ("er4096 cluster-merging(k=16) pram", "work=331305 depth=76"),
    ("er4096 cluster-merging(k=16) clique×4", "chosen=[0, 2, 1, 1] rounds=40 words=201555968 size=12062 edges=0xc06578e3c76e2bf7"),
    ("er4096 sqrt-k(k=16) sequential", "size=14700 edges=0x82acf00dd06a70f6 iterations=7 supernodes=[508]"),
    ("er4096 sqrt-k(k=16) engine", "trace=0x88745e3ae7bf428c quotient n=508 m=16655 fp=0xc4aa2e451551ea7c origin=0x75d1c69b09410fb6 centres=0xfd73150cd6a4e87e"),
    ("hub_ring general(k=16,t=4) sequential", "size=864 edges=0xafa46483c422ab1a iterations=8 supernodes=[156, 1]"),
    ("hub_ring general(k=16,t=4) engine", "steps=10 trace=0x8a82b53576e72164"),
    ("hub_ring general(k=16,t=4) pram", "work=11845 depth=118"),
    ("hub_ring general(k=16,t=4) clique×4", "chosen=[0, 2, 1, 2, 3, 1, 0, 0] rounds=68 words=17991936 size=864 edges=0xafa46483c422ab1a"),
    ("hub_ring general(k=8,t=3) sequential", "size=864 edges=0xafa46483c422ab1a iterations=6 supernodes=[67, 0]"),
    ("hub_ring general(k=8,t=3) engine", "steps=8 trace=0x6ff484f7bcc4610d"),
    ("hub_ring general(k=8,t=3) pram", "work=7590 depth=92"),
    ("hub_ring general(k=8,t=3) clique×4", "chosen=[3, 1, 3, 2, 0, 0] rounds=52 words=13495680 size=864 edges=0xafa46483c422ab1a"),
    ("hub_ring cluster-merging(k=16) sequential", "size=864 edges=0xafa46483c422ab1a iterations=4 supernodes=[596, 232, 45, 0]"),
    ("hub_ring cluster-merging(k=16) engine", "steps=8 trace=0x873184cabc7d70d0"),
    ("hub_ring cluster-merging(k=16) pram", "work=10523 depth=76"),
    ("hub_ring cluster-merging(k=16) clique×4", "chosen=[0, 3, 1, 3] rounds=40 words=9006336 size=864 edges=0xafa46483c422ab1a"),
    ("hub_ring sqrt-k(k=16) sequential", "size=864 edges=0xafa46483c422ab1a iterations=7 supernodes=[156]"),
    ("hub_ring sqrt-k(k=16) engine", "trace=0x3693a74ae085cd79 quotient n=156 m=148 fp=0x386ac0c607a8351d origin=0xc702c8fbb8c92a83 centres=0xeaf0bcccfde9aef4"),
    ("caterpillar general(k=16,t=4) sequential", "size=1499 edges=0xef831555c2d02ff7 iterations=8 supernodes=[241, 0]"),
    ("caterpillar general(k=16,t=4) engine", "steps=10 trace=0x3eb0174d385f8c95"),
    ("caterpillar general(k=16,t=4) pram", "work=18921 depth=118"),
    ("caterpillar general(k=16,t=4) clique×4", "chosen=[0, 2, 1, 3, 1, 2, 0, 0] rounds=68 words=54132000 size=1499 edges=0xef831555c2d02ff7"),
    ("caterpillar general(k=8,t=3) sequential", "size=1499 edges=0xef831555c2d02ff7 iterations=6 supernodes=[102, 0]"),
    ("caterpillar general(k=8,t=3) engine", "steps=8 trace=0x16a08aadcc2068c7"),
    ("caterpillar general(k=8,t=3) pram", "work=12130 depth=92"),
    ("caterpillar general(k=8,t=3) clique×4", "chosen=[3, 3, 3, 0, 0, 0] rounds=52 words=40602000 size=1499 edges=0xef831555c2d02ff7"),
    ("caterpillar cluster-merging(k=16) sequential", "size=1499 edges=0xef831555c2d02ff7 iterations=4 supernodes=[984, 366, 53, 1]"),
    ("caterpillar cluster-merging(k=16) engine", "steps=8 trace=0x8ceaa2d9b2ad7315"),
    ("caterpillar cluster-merging(k=16) pram", "work=17755 depth=76"),
    ("caterpillar cluster-merging(k=16) clique×4", "chosen=[0, 3, 3, 0] rounds=40 words=27084000 size=1499 edges=0xef831555c2d02ff7"),
    ("caterpillar sqrt-k(k=16) sequential", "size=1499 edges=0xef831555c2d02ff7 iterations=7 supernodes=[241]"),
    ("caterpillar sqrt-k(k=16) engine", "trace=0xa7c4cd94973882c0 quotient n=241 m=160 fp=0x00c56044b6fead27 origin=0x1c73b32ada88dfa0 centres=0x23bfe5e5e2833379"),
    ("ties general(k=16,t=4) sequential", "size=5174 edges=0x3f6f8a4bdb912a6d iterations=8 supernodes=[300, 0]"),
    ("ties general(k=16,t=4) engine", "steps=10 trace=0x486f4a7b0b5f114d"),
    ("ties general(k=16,t=4) pram", "work=193626 depth=118"),
    ("ties general(k=16,t=4) clique×4", "chosen=[0, 2, 3, 3, 1, 3, 0, 0] rounds=68 words=96176000 size=5235 edges=0x3951ecf2499efcf5"),
    ("ties general(k=8,t=3) sequential", "size=8176 edges=0xc29861393705b87b iterations=6 supernodes=[123, 0]"),
    ("ties general(k=8,t=3) engine", "steps=8 trace=0x647bc87b5268317f"),
    ("ties general(k=8,t=3) pram", "work=118068 depth=92"),
    ("ties general(k=8,t=3) clique×4", "chosen=[3, 1, 2, 1, 2, 0] rounds=52 words=72136000 size=5768 edges=0xf83bd69f70d609b6"),
    ("ties cluster-merging(k=16) sequential", "size=3916 edges=0xcbbb83c8da4d1842 iterations=4 supernodes=[1268, 465, 69, 2]"),
    ("ties cluster-merging(k=16) engine", "steps=8 trace=0x86d3b97817c4ce13"),
    ("ties cluster-merging(k=16) pram", "work=140366 depth=76"),
    ("ties cluster-merging(k=16) clique×4", "chosen=[0, 3, 1, 3] rounds=40 words=48112000 size=2818 edges=0x0c5a93c2d6f2bad0"),
    ("ties sqrt-k(k=16) sequential", "size=4844 edges=0x542d5541c3a6cdcc iterations=7 supernodes=[300]"),
    ("ties sqrt-k(k=16) engine", "trace=0xbebe1b55aef448f3 quotient n=300 m=6357 fp=0xeb02c98c76ae2805 origin=0xe05304a45c35d1a7 centres=0x9f317d4654310f9c"),
    ("near_max general(k=16,t=4) sequential", "size=2918 edges=0xc2310c1ebdd7574b iterations=8 supernodes=[179, 0]"),
    ("near_max general(k=16,t=4) engine", "steps=10 trace=0x9c04fbe7d903c9d2"),
    ("near_max general(k=16,t=4) pram", "work=77462 depth=118"),
    ("near_max general(k=16,t=4) clique×4", "chosen=[0, 2, 1, 2, 3, 0, 2, 0] rounds=68 words=24088000 size=2655 edges=0x018b84e7c3b1cdde"),
    ("near_max general(k=8,t=3) sequential", "size=3620 edges=0xe269a734f4e738e5 iterations=6 supernodes=[76, 0]"),
    ("near_max general(k=8,t=3) engine", "steps=8 trace=0x5d7e82c632c216c7"),
    ("near_max general(k=8,t=3) pram", "work=47154 depth=92"),
    ("near_max general(k=8,t=3) clique×4", "chosen=[3, 2, 2, 2, 0, 0] rounds=52 words=18068000 size=3218 edges=0xc6f843fdd6c0aaf1"),
    ("near_max cluster-merging(k=16) sequential", "size=2328 edges=0x77059c69633d531d iterations=4 supernodes=[684, 260, 44, 0]"),
    ("near_max cluster-merging(k=16) engine", "steps=8 trace=0x23a054d07a780674"),
    ("near_max cluster-merging(k=16) pram", "work=57571 depth=76"),
    ("near_max cluster-merging(k=16) clique×4", "chosen=[0, 3, 2, 3] rounds=40 words=12056000 size=1680 edges=0x51e1fee62a75863f"),
    ("near_max sqrt-k(k=16) sequential", "size=2992 edges=0x67ee49983ce18eb7 iterations=7 supernodes=[179]"),
    ("near_max sqrt-k(k=16) engine", "trace=0xd13e3cd323ce9ebe quotient n=179 m=2586 fp=0xf940444761e53e1c origin=0xa353c9d748170d43 centres=0xab494d4683cbb6ea"),
];
