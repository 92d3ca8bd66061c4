//! Cross-model differential tests: the same algorithm executed by four
//! independent drivers — the sequential reference, the distributed MPC
//! driver, the PRAM layer, and the Congested Clique simulation (with
//! repetition disabled) — must produce **identical spanners** from the
//! same seed, because all of them draw coins from `spanner_core::coins`
//! and break ties by `(weight, edge id)`.
//!
//! This is the strongest correctness check in the repository: a
//! divergence in any driver's join/kill/contract logic shows up as an
//! edge-set mismatch.

use congested_clique::cc_spanner;
use mpc_spanners::core::mpc_driver::mpc_general_spanner;
use mpc_spanners::core::{general_spanner, BuildOptions, TradeoffParams};
use mpc_spanners::graph::generators::{caterpillar, hub_ring, Family, WeightModel};
use spanner_pram::pram_general_spanner;

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
    for (name, g) in families() {
        for (k, t) in [(4u32, 2u32), (8, 3)] {
            let params = TradeoffParams::new(k, t);
            for seed in [1u64, 99] {
                let seq = general_spanner(&g, params, seed, BuildOptions::default());
                let mpc = mpc_general_spanner(&g, params, 0.5, seed)
                    .unwrap_or_else(|e| panic!("{name}: MPC driver failed: {e}"));
                let pram = pram_general_spanner(&g, params, seed);
                let cc = cc_spanner(&g, params, seed, 1);
                assert_eq!(
                    seq.edges, mpc.result.edges,
                    "{name} k={k} t={t}: MPC diverged"
                );
                assert_eq!(
                    seq.edges, pram.result.edges,
                    "{name} k={k} t={t}: PRAM diverged"
                );
                assert_eq!(
                    seq.edges, cc.result.edges,
                    "{name} k={k} t={t}: CC diverged"
                );
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
                let params = TradeoffParams::new(k, t);
                for seed in [1u64, 99, 4242] {
                    let seq = general_spanner(g, params, seed, BuildOptions::default());
                    let mpc = mpc_general_spanner(g, params, 0.5, seed)
                        .unwrap_or_else(|e| panic!("{name} {weights:?}: MPC driver failed: {e}"));
                    assert_eq!(
                        seq.edges, mpc.result.edges,
                        "{name} {weights:?} k={k} t={t} seed={seed}: MPC diverged"
                    );
                }
            }
        }
    }
}

#[test]
fn engine_t_equals_k_matches_standalone_baswana_sen_guarantees() {
    // The two implementations share coins but differ structurally
    // (vertex-level vs super-node-level state); they are not required to
    // emit identical edge sets, but both must satisfy the 2k−1 bound and
    // comparable sizes.
    use mpc_spanners::core::baswana_sen::baswana_sen;
    use mpc_spanners::graph::verify::verify_spanner;
    for (name, g) in families() {
        let k = 4u32;
        let a = baswana_sen(&g, k, 5);
        let b = general_spanner(
            &g,
            TradeoffParams::baswana_sen(k),
            5,
            BuildOptions::default(),
        );
        for (label, r) in [("standalone", &a), ("engine", &b)] {
            let rep = verify_spanner(&g, &r.edges);
            assert!(rep.all_edges_spanned, "{name}/{label}");
            assert!(
                rep.max_edge_stretch <= (2 * k - 1) as f64 + 1e-9,
                "{name}/{label}: {} > 2k-1",
                rep.max_edge_stretch
            );
        }
        let ratio = a.size() as f64 / b.size() as f64;
        assert!(
            (0.4..=2.5).contains(&ratio),
            "{name}: sizes diverge wildly: {} vs {}",
            a.size(),
            b.size()
        );
    }
}
