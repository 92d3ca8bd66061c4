//! Adversarial graph shapes on the strongly sublinear MPC deployment
//! (`Backend::mpc_gamma(0.5)`: 512-word machines, 4096-word budgets).
//!
//! A near-star, a ring with many hubs, a caterpillar and a dense random
//! graph stress the driver's per-machine budgets: every edge's copies,
//! the candidate groups of one super-node and the relabel sort all have
//! to fit. Each run must either rebuild the sequential engine's spanner
//! bit for bit or refuse with a typed `BandwidthExceeded` /
//! `MemoryExceeded` — never panic, never return anything else. A
//! failure names its graph, `k`, `t` and seed.

use std::panic::{catch_unwind, AssertUnwindSafe};

use mpc_spanners::core::TradeoffParams;
use mpc_spanners::graph::generators::{caterpillar, hub_ring, Family, WeightModel};
use mpc_spanners::graph::{Graph, GraphBuilder};
use mpc_spanners::mpc::MpcError;
use mpc_spanners::pipeline::{Algorithm, Backend, PipelineError, SpannerRequest};

const SEED: u64 = 0xAD5;

const SCHEDULES: [(u32, u32); 3] = [(4, 2), (8, 3), (16, 4)];

fn shapes() -> Vec<(&'static str, Graph)> {
    let weights = WeightModel::Uniform(1, 32);
    vec![
        ("hub_ring(64, 1, 2000)", hub_ring(64, 1, 2000, weights, 1)),
        (
            "hub_ring(2048, 16, 128)",
            hub_ring(2048, 16, 128, weights, 2),
        ),
        ("caterpillar(60, 40)", caterpillar(60, 40, weights, 3)),
        (
            "er(n=4096, d=12)",
            Family::ErdosRenyi {
                n: 4096,
                avg_deg: 12.0,
            }
            .generate(WeightModel::PowersOfTwo(8), 4),
        ),
    ]
}

/// What one MPC run did: `None` when it built the sequential spanner,
/// the budget error when it refused.
fn run(name: &str, g: &Graph, (k, t): (u32, u32)) -> Option<MpcError> {
    let context = format!("{name} k={k} t={t} seed={SEED}");
    let request = SpannerRequest::new(g, Algorithm::General(TradeoffParams::new(k, t))).seed(SEED);
    let mpc = catch_unwind(AssertUnwindSafe(|| {
        request.clone().on(Backend::mpc_gamma(0.5)).run()
    }))
    .unwrap_or_else(|_| panic!("{context}: the MPC driver panicked"));
    match mpc {
        Ok(report) => {
            let seq = request
                .run()
                .unwrap_or_else(|e| panic!("{context}: the sequential run failed: {e}"));
            assert_eq!(
                report.result.edges, seq.result.edges,
                "{context}: MPC edges differ from the sequential engine's"
            );
            None
        }
        Err(PipelineError::Mpc(
            e @ (MpcError::BandwidthExceeded { .. } | MpcError::MemoryExceeded { .. }),
        )) => Some(e),
        Err(e) => panic!("{context}: expected a typed budget error, got {e}"),
    }
}

#[test]
fn adversarial_shapes_build_bit_identically_or_refuse_with_a_typed_error() {
    for (name, g) in shapes() {
        for schedule in SCHEDULES {
            let refused = run(name, &g, schedule);
            let (k, t) = schedule;
            match &refused {
                None => println!("{name} k={k} t={t}: built"),
                Some(e) => println!("{name} k={k} t={t}: refused: {e}"),
            }
            if name.starts_with("er") && schedule == (8, 3) {
                // The densest shape here: its copies, candidate groups
                // and relabel halves must all fit the 4096-word budgets.
                assert!(
                    refused.is_none(),
                    "{name} k={k} t={t} seed={SEED}: must build, got {refused:?}"
                );
            }
            if name == "hub_ring(64, 1, 2000)" {
                // The hub's minima, one per spoke, all go to the hub's
                // machine in `iter.best`: a hot key past the budget,
                // reported as such rather than absorbed by a bigger one.
                if let Some(e) = &refused {
                    assert!(
                        matches!(
                            e,
                            MpcError::BandwidthExceeded {
                                op: "iter.best",
                                ..
                            }
                        ),
                        "{name} k={k} t={t} seed={SEED}: {e}"
                    );
                }
            }
        }
    }
}

#[test]
fn weights_at_u64_max_keep_the_mpc_spanner_identical() {
    // A super-node's nearest sampled cluster may sit at weight u64::MAX.
    // That is still a join, as in the sequential engine, not the "no
    // sampled neighbour" retirement.
    let base = Family::ErdosRenyi {
        n: 300,
        avg_deg: 8.0,
    }
    .generate(WeightModel::Unit, 5);
    let mut b = GraphBuilder::new(base.n());
    for (i, e) in base.edges().iter().enumerate() {
        b.add_edge(e.u, e.v, u64::MAX - (i % 2) as u64);
    }
    let g = b.build();
    for schedule in SCHEDULES {
        let refused = run("er(n=300, d=8), weights u64::MAX - {0, 1}", &g, schedule);
        assert!(refused.is_none(), "{schedule:?}: {refused:?}");
    }
}
