//! Integration tests of the round accounting itself: the measured round
//! counts of the primitives must match the model's closed forms, scale
//! the right way with the deployment shape, and be deterministic.

use mpc_runtime::{comm, primitives, Dist, MpcConfig, MpcError, MpcSystem};

fn sorted_run(s_words: usize, machines: usize, n_records: usize) -> (u64, Vec<u64>) {
    let cfg = MpcConfig::explicit(s_words, machines, 8);
    let mut sys = MpcSystem::new(cfg);
    let data: Vec<u64> = (0..n_records as u64)
        .map(|i| primitives::splitmix64(i) % 4096)
        .collect();
    let d = Dist::distribute(&mut sys, data).unwrap();
    let sorted = primitives::sort_by_key(&mut sys, d, "sort", |&x| x).unwrap();
    (sys.rounds(), sorted.collect_out_of_model())
}

#[test]
fn sort_rounds_grow_as_machines_grow() {
    // Same data, same machine size, more machines ⇒ at least as many
    // partition levels ⇒ no fewer rounds.
    let (r_small, out_small) = sorted_run(256, 8, 2000);
    let (r_big, out_big) = sorted_run(256, 128, 2000);
    assert!(r_big >= r_small, "{r_big} < {r_small}");
    assert_eq!(out_small, out_big, "sortedness independent of deployment");
}

#[test]
fn sort_rounds_shrink_as_machines_fatten() {
    let (r_thin, _) = sorted_run(128, 64, 2000);
    let (r_fat, _) = sorted_run(4096, 64, 2000);
    assert!(r_fat <= r_thin, "{r_fat} > {r_thin}");
}

#[test]
fn reduce_tree_depth_matches_formula() {
    // One u64 summary per machine: fanout = capacity words, depth =
    // ceil(log_f P).
    for (words, slack, p) in [(4usize, 1usize, 64usize), (8, 1, 64), (64, 1, 64)] {
        let cfg = MpcConfig::explicit(words, p, slack);
        let mut sys = MpcSystem::new(cfg);
        let vals: Vec<u64> = (0..p as u64).collect();
        let _ = comm::reduce_tree(&mut sys, vals, "r", |a, b| a + b).unwrap();
        let f = cfg.fanout(1);
        let mut depth = 0u64;
        let mut cover = 1usize;
        while cover < p {
            cover *= f;
            depth += 1;
        }
        assert_eq!(sys.rounds(), depth, "words={words} p={p}");
    }
}

#[test]
fn scan_costs_twice_the_tree_depth() {
    let p = 81;
    let cfg = MpcConfig::explicit(3, p, 1); // fanout(1) = 3 → depth 4
    let mut sys = MpcSystem::new(cfg);
    let vals: Vec<u64> = vec![1; p];
    let _ = comm::machine_scan(&mut sys, vals, 0, "s", |a, b| a + b).unwrap();
    assert_eq!(sys.rounds(), 8);
}

#[test]
fn rounds_by_op_partitions_total() {
    let cfg = MpcConfig::explicit(512, 16, 8);
    let mut sys = MpcSystem::new(cfg);
    let d = Dist::distribute(&mut sys, (0..500u64).collect()).unwrap();
    let sorted = primitives::sort_by_key(&mut sys, d, "sort", |&x| x).unwrap();
    let _ = primitives::aggregate_by_key(&mut sys, sorted, "agg", |&x| x % 7, |&x| x, |a, b| a + b)
        .unwrap();
    let by_op: u64 = sys.metrics().rounds_by_op.values().sum();
    assert_eq!(by_op, sys.rounds(), "per-op rounds must sum to the total");
    assert!(sys.metrics().rounds_by_op.contains_key("sort"));
    assert!(sys.metrics().rounds_by_op.contains_key("agg"));
}

#[test]
fn accounting_is_deterministic() {
    let run = || {
        let cfg = MpcConfig::explicit(256, 12, 8);
        let mut sys = MpcSystem::new(cfg);
        let d = Dist::distribute(&mut sys, (0..333u64).rev().collect()).unwrap();
        let s = primitives::sort_by_key(&mut sys, d, "sort", |&x| x).unwrap();
        (
            sys.rounds(),
            sys.metrics().total_comm_words,
            s.collect_out_of_model(),
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn forward_fill_multiple_groups_spanning_machines() {
    let cfg = MpcConfig::explicit(8, 6, 2);
    let mut sys = MpcSystem::new(cfg);
    // 12 records over 6 machines (2 each); leaders at positions 0, 5, 9.
    let recs: Vec<(u64, u64)> = (0..12)
        .map(|i| {
            if i == 0 || i == 5 || i == 9 {
                (100 + i, u64::MAX)
            } else {
                (0, 0)
            }
        })
        .collect();
    let mut d = Dist::distribute(&mut sys, recs).unwrap();
    primitives::forward_fill(
        &mut sys,
        &mut d,
        "fill",
        |r| if r.1 == u64::MAX { Some(r.0) } else { None },
        |r, &u| r.1 = u,
    )
    .unwrap();
    let flat = d.collect_out_of_model();
    for (i, rec) in flat.iter().enumerate() {
        let expect = match i {
            0..=4 => 100,
            5..=8 => 105,
            _ => 109,
        };
        if rec.1 != u64::MAX {
            assert_eq!(rec.1, expect, "position {i}");
        }
    }
}

#[test]
fn group_by_key_is_one_round_charged_like_aggregate_by_key() {
    // Same key, same deployment: the semisort's destinations, traffic,
    // busiest sender and receiver, and peak storage are the
    // aggregation's, at every shape.
    for (words, machines, records) in [(64usize, 4usize, 200u64), (256, 16, 2000), (512, 61, 9000)]
    {
        let cfg = MpcConfig::explicit(words, machines, 8);
        let data: Vec<(u64, u64)> = (0..records)
            .map(|i| (primitives::splitmix64(i) % (records / 3), i))
            .collect();
        let mut agg_sys = MpcSystem::new(cfg);
        let d = Dist::distribute(&mut agg_sys, data.clone()).unwrap();
        let agg =
            primitives::aggregate_by_key(&mut agg_sys, d, "k", |r| r.0, |r| r.1, |a, b| a + b)
                .unwrap();
        let mut sys = MpcSystem::new(cfg);
        let d = Dist::distribute(&mut sys, data).unwrap();
        let (grouped, sums) = primitives::group_by_key(
            &mut sys,
            d,
            "k",
            |r| r.0,
            |run, out| out.push((run[0].0, run.iter().map(|r| r.1).sum::<u64>())),
        )
        .unwrap();
        assert_eq!(sys.rounds(), 1, "words={words} machines={machines}");
        assert_eq!(sys.metrics(), agg_sys.metrics());
        assert_eq!(sums.collect_out_of_model(), agg.collect_out_of_model());
        assert_eq!(grouped.len(), records as usize);
    }
}

#[test]
fn group_by_key_hot_key_past_capacity_is_a_typed_error() {
    let cfg = MpcConfig::explicit(32, 16, 8);
    let mut sys = MpcSystem::new(cfg);
    let d = Dist::distribute(&mut sys, (0..2000u64).collect()).unwrap();
    let err = primitives::group_by_key(
        &mut sys,
        d,
        "hot",
        |_| 42,
        |run: &[u64], out: &mut Vec<u64>| out.push(run.len() as u64),
    )
    .unwrap_err();
    assert!(
        matches!(
            err,
            MpcError::BandwidthExceeded { op: "hot", .. }
                | MpcError::MemoryExceeded { op: "hot", .. }
        ),
        "{err}"
    );
    assert_eq!(sys.rounds(), 1, "the violation happens in the round");
}
