//! Failure injection: the MPC runtime must report model violations as
//! typed errors — never wrong answers, never silent constraint
//! breaches — and the drivers must propagate them.

use mpc_spanners::core::TradeoffParams;
use mpc_spanners::graph::generators::{connected_erdos_renyi, WeightModel};
use mpc_spanners::mpc::{comm, primitives, Dist, MpcConfig, MpcError, MpcSystem};
use mpc_spanners::pipeline::{Algorithm, Backend, PipelineError, SpannerRequest};

#[test]
fn distribute_rejects_oversized_input() {
    let mut sys = MpcSystem::new(MpcConfig::explicit(8, 2, 1));
    let err = Dist::distribute(&mut sys, vec![0u64; 1000]).unwrap_err();
    assert!(matches!(
        err,
        MpcError::InputTooLarge {
            needed: 1000,
            available: 16
        }
    ));
}

#[test]
fn route_to_hotspot_reports_bandwidth() {
    let mut sys = MpcSystem::new(MpcConfig::explicit(16, 8, 1));
    let d = Dist::distribute(&mut sys, (0..100u64).collect()).unwrap();
    let err = comm::route(&mut sys, d, "hot", |_, _| 0).unwrap_err();
    // Every sender stays within budget; the hotspot is the receiver.
    assert!(
        matches!(
            err,
            MpcError::BandwidthExceeded {
                machine: 0,
                direction: "recv",
                ..
            }
        ),
        "{err}"
    );
}

#[test]
fn gather_too_big_for_root_errors() {
    let mut sys = MpcSystem::new(MpcConfig::explicit(32, 16, 1));
    let d = Dist::distribute(&mut sys, (0..400u64).collect()).unwrap();
    let err = comm::gather_to_machine(&mut sys, d, 3, "g").unwrap_err();
    assert!(matches!(
        err,
        MpcError::BandwidthExceeded { .. } | MpcError::MemoryExceeded { .. }
    ));
}

#[test]
fn flat_map_explosion_is_caught() {
    let mut sys = MpcSystem::new(MpcConfig::explicit(16, 2, 1));
    let d = Dist::distribute(&mut sys, vec![1u64, 2]).unwrap();
    let err = d.flat_map(&mut sys, |&x| vec![x; 64]).unwrap_err();
    assert!(matches!(err, MpcError::MemoryExceeded { .. }));
}

#[test]
fn driver_propagates_undersized_deployment() {
    // A deployment whose machines cannot even hold the working set: the
    // driver must return a typed MPC error, not panic or mis-answer.
    let g = connected_erdos_renyi(300, 0.1, WeightModel::Unit, 1);
    let cfg = MpcConfig::explicit(64, 4, 1);
    let err = SpannerRequest::new(&g, Algorithm::General(TradeoffParams::new(4, 2)))
        .on(Backend::mpc_deployment(cfg))
        .seed(1)
        .run();
    assert!(
        matches!(err, Err(PipelineError::Mpc(_))),
        "starved deployment must fail loudly"
    );
}

#[test]
fn errors_are_displayable_and_stable() {
    let e = MpcError::MemoryExceeded {
        machine: 2,
        words: 10,
        capacity: 5,
        op: "x",
    };
    let s = format!("{e}");
    assert!(s.contains("machine 2") && s.contains("x"));
    // Round-trips through Debug too (typed, matchable).
    assert!(format!("{e:?}").contains("MemoryExceeded"));
}

#[test]
fn aggregate_on_starved_machines_errors_not_panics() {
    let mut sys = MpcSystem::new(MpcConfig::explicit(4, 2, 1));
    // Distribution fits (8 records of 1 word over 2×4-word machines)…
    let d = Dist::distribute(&mut sys, (0..8u64).collect()).unwrap();
    // …but hashing them all to one key sends them all to one machine.
    let res = primitives::aggregate_by_key(&mut sys, d, "agg", |_| 7, |&v| v, |a, b| a + b);
    match res {
        Ok(agg) => assert_eq!(agg.len(), 1), // aggregation shrank in time
        Err(e) => assert!(matches!(
            e,
            MpcError::BandwidthExceeded { .. } | MpcError::MemoryExceeded { .. }
        )),
    }
}
