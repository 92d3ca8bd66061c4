//! Cross-model differential tests: the same algorithm executed by every
//! driver — the sequential reference, the distributed MPC driver, the
//! PRAM layer, the Congested Clique simulation (with repetition
//! disabled) and the streaming pass counter — must produce **identical
//! spanners and schedules** from the same seed, because all of them draw
//! coins from `spanner_core::coins`, break ties by `(weight, edge id)`
//! and walk every scheduled step.
//!
//! This is the strongest correctness check in the repository: a
//! divergence in any driver's join/kill/contract logic shows up as an
//! edge-set mismatch.

use mpc_spanners::core::{SpannerResult, TradeoffParams};
use mpc_spanners::graph::generators::{caterpillar, hub_ring, Family, WeightModel};
use mpc_spanners::graph::Graph;
use mpc_spanners::pipeline::{Algorithm, Backend, SpannerRequest};

/// The result of one engine-schedule run on `backend`.
fn run(g: &Graph, algorithm: Algorithm, backend: Backend, seed: u64) -> SpannerResult {
    SpannerRequest::new(g, algorithm)
        .on(backend)
        .seed(seed)
        .run()
        .unwrap_or_else(|e| panic!("{} driver failed: {e}", backend.name()))
        .result
}

/// Spanner edges of one engine-schedule run on `backend`.
fn edges(g: &Graph, algorithm: Algorithm, backend: Backend, seed: u64) -> Vec<u32> {
    run(g, algorithm, backend, seed).edges
}

fn families() -> Vec<(String, mpc_spanners::graph::Graph)> {
    [
        Family::ErdosRenyi {
            n: 120,
            avg_deg: 8.0,
        },
        Family::Torus { side: 11 },
        Family::PowerLaw {
            n: 120,
            avg_deg: 6.0,
        },
        Family::CliqueChain {
            cliques: 8,
            size: 8,
        },
    ]
    .iter()
    .map(|f| (f.name(), f.generate(WeightModel::Uniform(1, 32), 0xD1FF)))
    .collect()
}

#[test]
fn all_four_drivers_agree() {
    // The four model drivers against the sequential reference: the same
    // edges, epochs, grow steps and super-node counts. At (64, 6) most
    // of these graphs run out of edges before the last epoch, and the
    // schedule still runs to its end on every backend. Baswana–Sen's
    // schedule never contracts, so its Phase 2 runs on the last grow
    // step's clusters.
    let backends = [
        Backend::mpc_gamma(0.5),
        Backend::Pram,
        Backend::congested_clique(),
        Backend::Streaming,
    ];
    let general =
        [(4u32, 2u32), (8, 3), (64, 6)].map(|(k, t)| Algorithm::General(TradeoffParams::new(k, t)));
    let baswana_sen = [2u32, 3, 5, 8].map(|k| Algorithm::BaswanaSen { k });
    let shape = |r: SpannerResult| (r.edges, r.epochs, r.iterations, r.supernodes_per_epoch);
    for (name, g) in families() {
        for algorithm in general.into_iter().chain(baswana_sen) {
            for seed in [1u64, 99] {
                let seq = shape(run(&g, algorithm, Backend::Sequential, seed));
                for backend in backends {
                    assert_eq!(
                        shape(run(&g, algorithm, backend, seed)),
                        seq,
                        "{name} {} seed={seed}: {} diverged",
                        algorithm.label(),
                        backend.name()
                    );
                }
            }
        }
    }
}

#[test]
fn sequential_and_mpc_agree_under_weight_ties() {
    // The MPC driver is the only implementation independent of the
    // sequential engine (PRAM and Congested Clique reuse the engine).
    // Unit and {1, 2} weights make most comparisons ties, so they pin
    // the strict `w < w*` rule and the `(w, id)` tie-break; hubs and
    // caterpillar legs add extreme cluster fan-in.
    for weights in [WeightModel::Unit, WeightModel::Uniform(1, 2)] {
        let graphs = [
            (
                "er",
                Family::ErdosRenyi {
                    n: 400,
                    avg_deg: 12.0,
                }
                .generate(weights, 0x71E5),
            ),
            ("hub_ring", hub_ring(120, 6, 40, weights, 0x71E5)),
            ("caterpillar", caterpillar(60, 6, weights, 0x71E5)),
        ];
        for (name, g) in &graphs {
            for (k, t) in [(4u32, 2u32), (8, 3), (5, 5)] {
                let general = Algorithm::General(TradeoffParams::new(k, t));
                for seed in [1u64, 99, 4242] {
                    let seq = edges(g, general, Backend::Sequential, seed);
                    let mpc = edges(g, general, Backend::mpc_gamma(0.5), seed);
                    assert_eq!(
                        seq, mpc,
                        "{name} {weights:?} k={k} t={t} seed={seed}: MPC diverged"
                    );
                }
            }
        }
    }
}

#[test]
fn baswana_sen_and_the_t_equals_k_schedule_meet_the_same_guarantees() {
    // Both run on the engine with the same coins, but they are two
    // schedules: Baswana–Sen takes k − 1 grow steps and runs Phase 2 on
    // the un-contracted clustering, while the t = k schedule takes a
    // k-th step and contracts first. So their edge sets may differ, but
    // both must satisfy the 2k−1 bound and have comparable sizes.
    use mpc_spanners::graph::verify::verify_spanner;
    for (name, g) in families() {
        let k = 4u32;
        let a = edges(&g, Algorithm::BaswanaSen { k }, Backend::Sequential, 5);
        let b = edges(
            &g,
            Algorithm::General(TradeoffParams::baswana_sen(k)),
            Backend::Sequential,
            5,
        );
        for (label, r) in [("baswana-sen", &a), ("t = k", &b)] {
            let rep = verify_spanner(&g, r);
            assert!(rep.all_edges_spanned, "{name}/{label}");
            assert!(
                rep.max_edge_stretch <= (2 * k - 1) as f64 + 1e-9,
                "{name}/{label}: {} > 2k-1",
                rep.max_edge_stretch
            );
        }
        let ratio = a.len() as f64 / b.len() as f64;
        assert!(
            (0.4..=2.5).contains(&ratio),
            "{name}: sizes diverge wildly: {} vs {}",
            a.len(),
            b.len()
        );
    }
}
