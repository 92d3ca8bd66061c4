//! Golden values of the Thorup–Zwick distance sketches. This pins:
//!
//! * the oracle `serve-mixed` serves: Erdős–Rényi n = 4096, average
//!   degree 12, `PowersOfTwo(8)` weights, `General(8, 2)`, λ = 3, coin
//!   seed `0x0AC1E`; a hash of `query_batch` over 64 sources × every
//!   target, its sketch entries and its spanner size;
//! * on five small graphs (two components, a hub ring, a caterpillar,
//!   a tie-heavy `Uniform(1, 2)` graph and weights near `u64::MAX`),
//!   at λ ∈ {1, 2, 3, 4} and three seeds: a hash of every pair's
//!   `query` answer from `DistanceSketches::preprocess`, and
//!   `total_entries()`.
//!
//! The values were recorded from the sketches that kept one hash-map
//! bunch per vertex and ran each cluster search on its own hash map,
//! before the sketches moved to flat arrays. Every case runs at 1, 2
//! and 3 pool threads; a mismatch names the case and the thread count,
//! and a missing or extra case prints the whole table as it reads now.

use mpc_spanners::core::coins::splitmix64;
use mpc_spanners::core::TradeoffParams;
use mpc_spanners::graph::generators::{caterpillar, hub_ring, Family, WeightModel};
use mpc_spanners::graph::{Graph, GraphBuilder};
use mpc_spanners::pipeline::{Algorithm, DistanceRequest, DistanceSketches, QueryEngine};

/// The landmark seeds of the small-graph cases.
const SEEDS: [u64; 3] = [1, 0x5e7c4, 0x601d_e17e];

fn er(n: usize, avg_deg: f64, weights: WeightModel, seed: u64) -> Graph {
    Family::ErdosRenyi { n, avg_deg }.generate(weights, seed)
}

/// The small graphs: name and graph.
fn graphs() -> Vec<(&'static str, Graph)> {
    let two_components = {
        let a = er(150, 6.0, WeightModel::Uniform(1, 16), 5);
        let b = er(90, 4.0, WeightModel::Uniform(1, 16), 6);
        let mut g = GraphBuilder::new(a.n() + b.n());
        for e in a.edges() {
            g.add_edge(e.u, e.v, e.w);
        }
        let shift = a.n() as u32;
        for e in b.edges() {
            g.add_edge(e.u + shift, e.v + shift, e.w);
        }
        g.build()
    };
    let near_max = {
        let base = er(200, 6.0, WeightModel::Unit, 4);
        let mut b = GraphBuilder::new(base.n());
        for (i, e) in base.edges().iter().enumerate() {
            b.add_edge(e.u, e.v, u64::MAX - splitmix64(i as u64) % 3);
        }
        b.build()
    };
    vec![
        ("two_components", two_components),
        (
            "hub_ring",
            hub_ring(32, 3, 60, WeightModel::Uniform(1, 16), 1),
        ),
        (
            "caterpillar",
            caterpillar(100, 3, WeightModel::Uniform(1, 4), 2),
        ),
        ("ties", er(300, 8.0, WeightModel::Uniform(1, 2), 3)),
        ("near_max", near_max),
    ]
}

/// A splitmix64 fold of `values`.
fn hash(values: impl IntoIterator<Item = u64>) -> u64 {
    values
        .into_iter()
        .fold(0x736b_6574_6368, |h, x| splitmix64(h ^ x))
}

/// `serve-mixed`'s oracle: its answers from 64 sources to every target.
fn serve_mixed_line() -> (String, String) {
    let g = er(4096, 12.0, WeightModel::PowersOfTwo(8), 0);
    let oracle = DistanceRequest::new(&g, Algorithm::General(TradeoffParams::new(8, 2)))
        .engine(QueryEngine::Sketches { levels: 3 })
        .seed(0x0AC1E)
        .build()
        .expect("serve-mixed oracle");
    let n = g.n() as u32;
    let queries: Vec<(u32, u32)> = (0..64u32)
        .flat_map(|i| (0..n).map(move |v| ((i * 61) % n, v)))
        .collect();
    let answers = oracle.query_batch(&queries);
    let entries = oracle.sketches().expect("a sketch oracle").total_entries();
    (
        "serve-mixed er4096 λ=3".into(),
        format!(
            "answers={:#018x} entries={entries} spanner={}",
            hash(answers),
            oracle.size()
        ),
    )
}

/// Every pair's answer on one small graph at one `(λ, seed)`.
fn all_pairs_line(name: &str, g: &Graph, levels: u32, seed: u64) -> (String, String) {
    let sk = DistanceSketches::preprocess(g, levels, seed);
    let n = g.n() as u32;
    let answers = (0..n).flat_map(|u| (0..n).map(move |v| (u, v)));
    (
        format!("{name} λ={levels} seed={seed:#x}"),
        format!(
            "answers={:#018x} entries={}",
            hash(answers.map(|(u, v)| sk.query(u, v))),
            sk.total_entries()
        ),
    )
}

fn at_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .unwrap()
        .install(f)
}

#[test]
fn sketch_answers_match_the_golden_values_at_every_thread_count() {
    let graphs = graphs();
    for threads in [1, 2, 3] {
        let actual: Vec<(String, String)> = at_threads(threads, || {
            let mut lines = vec![serve_mixed_line()];
            for (name, g) in &graphs {
                for levels in 1..=4 {
                    for seed in SEEDS {
                        lines.push(all_pairs_line(name, g, levels, seed));
                    }
                }
            }
            lines
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

/// `(case, value)` per line, in the test's order.
#[rustfmt::skip]
const GOLDEN: &[(&str, &str)] = &[
    ("serve-mixed er4096 λ=3", "answers=0xd90872c45d996a7c entries=158596 spanner=18120"),
    ("two_components λ=1 seed=0x1", "answers=0xccaeabea24cd431a entries=30840"),
    ("two_components λ=1 seed=0x5e7c4", "answers=0xccaeabea24cd431a entries=30840"),
    ("two_components λ=1 seed=0x601de17e", "answers=0xccaeabea24cd431a entries=30840"),
    ("two_components λ=2 seed=0x1", "answers=0x4cc2763c799bd201 entries=10524"),
    ("two_components λ=2 seed=0x5e7c4", "answers=0xa2a93a01712349ae entries=4967"),
    ("two_components λ=2 seed=0x601de17e", "answers=0x320aaa57b1f8276e entries=5200"),
    ("two_components λ=3 seed=0x1", "answers=0x44b175290d33621f entries=3687"),
    ("two_components λ=3 seed=0x5e7c4", "answers=0x0517beb83683dac5 entries=3527"),
    ("two_components λ=3 seed=0x601de17e", "answers=0xe0167f12b4b5250c entries=3515"),
    ("two_components λ=4 seed=0x1", "answers=0xc4a1e1d2bbf09bfe entries=3416"),
    ("two_components λ=4 seed=0x5e7c4", "answers=0x0a39ad79c7deaed2 entries=3562"),
    ("two_components λ=4 seed=0x601de17e", "answers=0x63a360810b022369 entries=3444"),
    ("hub_ring λ=1 seed=0x1", "answers=0xc91a5ebbf9667c39 entries=45156"),
    ("hub_ring λ=1 seed=0x5e7c4", "answers=0xc91a5ebbf9667c39 entries=45156"),
    ("hub_ring λ=1 seed=0x601de17e", "answers=0xc91a5ebbf9667c39 entries=45156"),
    ("hub_ring λ=2 seed=0x1", "answers=0x663aeda74f764429 entries=4899"),
    ("hub_ring λ=2 seed=0x5e7c4", "answers=0x17327a4116f643b7 entries=8515"),
    ("hub_ring λ=2 seed=0x601de17e", "answers=0xbe37ebfbb0f12d12 entries=6827"),
    ("hub_ring λ=3 seed=0x1", "answers=0x2c58308af607dbe6 entries=3269"),
    ("hub_ring λ=3 seed=0x5e7c4", "answers=0xd3f577a112846e27 entries=2737"),
    ("hub_ring λ=3 seed=0x601de17e", "answers=0xf971de4e6ca3bb43 entries=3770"),
    ("hub_ring λ=4 seed=0x1", "answers=0x1f62a098be999026 entries=2817"),
    ("hub_ring λ=4 seed=0x5e7c4", "answers=0x3652d4d3b7f468a4 entries=2829"),
    ("hub_ring λ=4 seed=0x601de17e", "answers=0x345668f1044f3735 entries=3218"),
    ("caterpillar λ=1 seed=0x1", "answers=0x982bcb0fa97b02ad entries=160400"),
    ("caterpillar λ=1 seed=0x5e7c4", "answers=0x982bcb0fa97b02ad entries=160400"),
    ("caterpillar λ=1 seed=0x601de17e", "answers=0x982bcb0fa97b02ad entries=160400"),
    ("caterpillar λ=2 seed=0x1", "answers=0xf12d8a43bb40416a entries=14654"),
    ("caterpillar λ=2 seed=0x5e7c4", "answers=0x016884736d123c75 entries=18692"),
    ("caterpillar λ=2 seed=0x601de17e", "answers=0xc3ff6c2ac21de377 entries=17579"),
    ("caterpillar λ=3 seed=0x1", "answers=0x9ca7685fa3924be4 entries=8254"),
    ("caterpillar λ=3 seed=0x5e7c4", "answers=0xcabb0f1ce67ab7b2 entries=8338"),
    ("caterpillar λ=3 seed=0x601de17e", "answers=0x020724a03f222ff2 entries=8831"),
    ("caterpillar λ=4 seed=0x1", "answers=0x708743100e77db3e entries=7479"),
    ("caterpillar λ=4 seed=0x5e7c4", "answers=0x350bf5dbb512dc81 entries=7185"),
    ("caterpillar λ=4 seed=0x601de17e", "answers=0x7a76b2522f2deea7 entries=6238"),
    ("ties λ=1 seed=0x1", "answers=0x7e653ce8d1ffbbf9 entries=90300"),
    ("ties λ=1 seed=0x5e7c4", "answers=0x7e653ce8d1ffbbf9 entries=90300"),
    ("ties λ=1 seed=0x601de17e", "answers=0x7e653ce8d1ffbbf9 entries=90300"),
    ("ties λ=2 seed=0x1", "answers=0x136c79d01a642bbd entries=7877"),
    ("ties λ=2 seed=0x5e7c4", "answers=0x052a6a041e1114da entries=9483"),
    ("ties λ=2 seed=0x601de17e", "answers=0x43f169cce4a406d8 entries=8212"),
    ("ties λ=3 seed=0x1", "answers=0xa8e9f4a2c0425910 entries=4691"),
    ("ties λ=3 seed=0x5e7c4", "answers=0xe6eabf7b6ec9336b entries=3994"),
    ("ties λ=3 seed=0x601de17e", "answers=0x15ea3a075bac15f1 entries=4458"),
    ("ties λ=4 seed=0x1", "answers=0x3f366b148b3adc7d entries=3693"),
    ("ties λ=4 seed=0x5e7c4", "answers=0x778cfb8183a3a65e entries=3412"),
    ("ties λ=4 seed=0x601de17e", "answers=0x2ce04f47ae942d96 entries=3972"),
    ("near_max λ=1 seed=0x1", "answers=0x27c3f90dde74cdb5 entries=1426"),
    ("near_max λ=1 seed=0x5e7c4", "answers=0x27c3f90dde74cdb5 entries=1426"),
    ("near_max λ=1 seed=0x601de17e", "answers=0x27c3f90dde74cdb5 entries=1426"),
    ("near_max λ=2 seed=0x1", "answers=0x7b913d98f73f5b31 entries=1322"),
    ("near_max λ=2 seed=0x5e7c4", "answers=0xa9918b5127b19cf8 entries=1311"),
    ("near_max λ=2 seed=0x601de17e", "answers=0x68be02b9907a75e1 entries=1244"),
    ("near_max λ=3 seed=0x1", "answers=0xbf33272a6cc9fa6a entries=1326"),
    ("near_max λ=3 seed=0x5e7c4", "answers=0xfcff66b70d5f92ac entries=1327"),
    ("near_max λ=3 seed=0x601de17e", "answers=0xc037ab9a503149a8 entries=1301"),
    ("near_max λ=4 seed=0x1", "answers=0x471c039812bc54a2 entries=1463"),
    ("near_max λ=4 seed=0x5e7c4", "answers=0xf12f615de8c8bab9 entries=1445"),
    ("near_max λ=4 seed=0x601de17e", "answers=0xb02a9a25a3c0ffe9 entries=1432"),
];
