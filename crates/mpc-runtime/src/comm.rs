//! The raw communication layer: one-round all-to-all routing and the
//! `n^γ`-ary aggregation trees of Section 6.
//!
//! Every function here executes real data movement between the simulated
//! machines, charges the rounds it actually uses, and validates the
//! per-round bandwidth and per-machine storage constraints. Records a
//! machine keeps for itself are free (no self-traffic), matching the
//! model.
//!
//! Delivery: [`route_with`] is the one routing path ([`route`] computes
//! destinations and calls it). Its validation pass tallies traffic and
//! counts the records bound for each machine; it then moves every
//! record, in (source machine, source position) order, into a
//! destination shard allocated once at its exact size — one counting
//! scatter, `O(records + machines)` per round.
//! [`crate::primitives::sort_by_key`]'s rebalance step depends on that
//! order. The aggregation trees charge each level from its group sizes
//! and fold every group of `f` consecutive summaries in place.
//!
//! Parallel-safety: per-machine destination computation stays on the
//! rayon pool. It relies on the shim's order-preserving `collect`, so
//! results are identical at every thread count.

use rayon::prelude::*;

use crate::dist::Dist;
use crate::record::Record;
use crate::system::MpcSystem;
use crate::{MpcError, Result};

/// One-round all-to-all: moves every record of `d` to the machine chosen
/// by `dest` (which receives the record and its current machine index).
///
/// Bandwidth accounting: a machine's send volume is the words of its
/// records with `dest != self`; its receive volume is the words arriving
/// from other machines.
pub fn route<T: Record>(
    sys: &mut MpcSystem,
    d: Dist<T>,
    op: &'static str,
    dest: impl Fn(&T, usize) -> usize + Send + Sync,
) -> Result<Dist<T>> {
    let dests: Vec<Vec<usize>> = d
        .shards()
        .par_iter()
        .enumerate()
        .map(|(src, shard)| shard.iter().map(|rec| dest(rec, src)).collect())
        .collect();
    route_with(sys, d, op, &dests)
}

/// One-round all-to-all with *precomputed* destinations: `dests[m][i]` is
/// the destination of record `i` of machine `m`. Used when destinations
/// depend on a record's position (e.g. sample sort, where the tiebreak is
/// the record's current machine/index) rather than only its contents.
pub fn route_with<T: Record>(
    sys: &mut MpcSystem,
    d: Dist<T>,
    op: &'static str,
    dests: &[Vec<usize>],
) -> Result<Dist<T>> {
    let p = sys.machines();
    let shards = d.into_shards();
    if shards.len() != dests.len() {
        return Err(MpcError::ShapeMismatch {
            what: "destination vectors (one per machine)",
            expected: shards.len(),
            got: dests.len(),
            op,
        });
    }

    // Validate destinations, tally traffic, and count the records each
    // machine will hold.
    let mut sent = vec![0usize; p];
    let mut received = vec![0usize; p];
    let mut arriving = vec![0usize; p];
    for (src, ds) in dests.iter().enumerate() {
        if ds.len() != shards[src].len() {
            return Err(MpcError::ShapeMismatch {
                what: "destinations (one per record)",
                expected: shards[src].len(),
                got: ds.len(),
                op,
            });
        }
        for &dst in ds {
            if dst >= p {
                return Err(MpcError::BadDestination {
                    dest: dst,
                    num_machines: p,
                });
            }
            arriving[dst] += 1;
            if dst != src {
                sent[src] += T::WORDS;
                received[dst] += T::WORDS;
            }
        }
    }
    let total: u64 = sent.iter().map(|&x| x as u64).sum();
    sys.charge_round(op, busiest(&sent), busiest(&received), total)?;

    // Deliver in (source machine, source position) order.
    let mut delivered: Vec<Vec<T>> = arriving.iter().map(|&n| Vec::with_capacity(n)).collect();
    for (shard, ds) in shards.into_iter().zip(dests) {
        for (rec, &dst) in shard.into_iter().zip(ds) {
            delivered[dst].push(rec);
        }
    }
    sys.check_all_storage(&delivered, op)?;
    Ok(Dist::from_shards(delivered))
}

/// The busiest machine of a per-machine traffic tally as
/// `(machine, words)`: the lowest index among the maxima, machine 0 when
/// nothing moves.
fn busiest(words: &[usize]) -> (usize, usize) {
    words.iter().enumerate().fold(
        (0, 0),
        |best, (m, &w)| if w > best.1 { (m, w) } else { best },
    )
}

/// Charges one up-sweep level of an f-ary aggregation tree: each group
/// of `f` consecutive summaries sends to its first member, the leader.
fn charge_tree_level<T: Record>(
    sys: &mut MpcSystem,
    op: &'static str,
    level: &[T],
    f: usize,
) -> Result<()> {
    let mut max_recv = 0usize;
    let mut total = 0u64;
    for group in level.chunks(f) {
        let incoming = (group.len() - 1) * T::WORDS;
        max_recv = max_recv.max(incoming);
        total += incoming as u64;
    }
    sys.charge_round(op, (0, T::WORDS), (0, max_recv), total)
}

/// Folds each group of `f` consecutive summaries left to right with
/// `combine`: the values the leaders hold after [`charge_tree_level`]'s
/// round.
fn combine_groups<T: Record>(level: &[T], f: usize, combine: impl Fn(&T, &T) -> T) -> Vec<T> {
    level
        .chunks(f)
        .map(|group| {
            let (first, rest) = group.split_first().expect("chunks are non-empty");
            rest.iter()
                .fold(first.clone(), |acc, item| combine(&acc, item))
        })
        .collect()
}

/// Direct gather: every machine sends its shard to `root` in one round.
/// Legal whenever the whole collection fits the root machine — e.g. the
/// paper's Section 7 "send the spanner to one machine" step in the
/// near-linear regime.
pub fn gather_to_machine<T: Record>(
    sys: &mut MpcSystem,
    d: Dist<T>,
    root: usize,
    op: &'static str,
) -> Result<Vec<T>> {
    let routed = route(sys, d, op, |_, _| root)?;
    let mut shards = routed.into_shards();
    Ok(std::mem::take(&mut shards[root]))
}

/// Tree reduction of one summary per machine (the paper's **Find
/// Minimum** shape): combines all summaries with `combine` using an
/// f-ary aggregation tree of fan-out `cfg.fanout(T::WORDS)`.
/// Rounds charged: tree depth. Returns the root's combined value.
pub fn reduce_tree<T: Record>(
    sys: &mut MpcSystem,
    per_machine: Vec<T>,
    op: &'static str,
    combine: impl Fn(&T, &T) -> T,
) -> Result<T> {
    if per_machine.is_empty() || per_machine.len() != sys.machines() {
        return Err(MpcError::ShapeMismatch {
            what: "summaries (one per machine)",
            expected: sys.machines(),
            got: per_machine.len(),
            op,
        });
    }
    let f = sys.cfg().fanout(T::WORDS);
    let mut level: Vec<T> = per_machine;
    while level.len() > 1 {
        charge_tree_level(sys, op, &level, f)?;
        level = combine_groups(&level, f, &combine);
    }
    Ok(level
        .into_iter()
        .next()
        .expect("reduction of >=1 summaries is non-empty"))
}

/// Exclusive prefix scan over one summary per machine (up-sweep +
/// down-sweep on the f-ary tree). `out[i]` is the combination of the
/// summaries of machines `0..i` (identity for machine 0).
///
/// This is the workhorse behind segmented broadcasts / forward-fills over
/// sorted collections, which is how the paper's "leader of M(v) informs
/// the group" steps are realised when a vertex's edges span machines.
pub fn machine_scan<T: Record>(
    sys: &mut MpcSystem,
    per_machine: Vec<T>,
    identity: T,
    op: &'static str,
    combine: impl Fn(&T, &T) -> T + Copy,
) -> Result<Vec<T>> {
    let p = per_machine.len();
    if p != sys.machines() {
        return Err(MpcError::ShapeMismatch {
            what: "summaries (one per machine)",
            expected: sys.machines(),
            got: p,
            op,
        });
    }
    if p == 0 {
        return Ok(vec![]);
    }
    let f = sys.cfg().fanout(T::WORDS);

    // Up-sweep: build the levels of group totals.
    let mut levels: Vec<Vec<T>> = vec![per_machine];
    while let Some(cur) = levels.last().filter(|cur| cur.len() > 1) {
        charge_tree_level(sys, op, cur, f)?;
        let next = combine_groups(cur, f, combine);
        levels.push(next);
    }

    // Down-sweep: push exclusive prefixes back down, each parent's
    // prefix to the group of `f` summaries below it.
    let mut prefixes: Vec<T> = vec![identity.clone()];
    for cur in levels.iter().rev().skip(1) {
        let mut next_prefixes = Vec::with_capacity(cur.len());
        let mut max_sent = 0usize;
        let mut total = 0u64;
        for (parent_prefix, group) in prefixes.iter().zip(cur.chunks(f)) {
            let sent = group.len() * T::WORDS;
            max_sent = max_sent.max(sent);
            total += sent as u64;
            let mut acc = parent_prefix.clone();
            for item in group {
                next_prefixes.push(acc.clone());
                acc = combine(&acc, item);
            }
        }
        sys.charge_round(op, (0, max_sent), (0, T::WORDS), total)?;
        prefixes = next_prefixes;
    }
    debug_assert_eq!(prefixes.len(), p);
    Ok(prefixes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MpcConfig;

    fn sys(words: usize, machines: usize, slack: usize) -> MpcSystem {
        MpcSystem::new(MpcConfig::explicit(words, machines, slack))
    }

    #[test]
    fn route_moves_records() {
        let mut s = sys(16, 4, 1);
        let d = Dist::distribute(&mut s, (0u64..8).collect()).unwrap();
        let routed = route(&mut s, d, "t", |&x, _| (x % 4) as usize).unwrap();
        assert_eq!(s.rounds(), 1);
        for (m, shard) in routed.shards().iter().enumerate() {
            assert!(shard.iter().all(|&x| (x % 4) as usize == m));
        }
        assert_eq!(routed.len(), 8);
    }

    #[test]
    fn route_detects_bandwidth_violation() {
        // 1-word capacity, everything routed to machine 0.
        let mut s = sys(2, 4, 1);
        let d = Dist::distribute(&mut s, (0u64..8).collect()).unwrap();
        let err = route(&mut s, d, "t", |_, _| 0).unwrap_err();
        assert!(matches!(
            err,
            MpcError::BandwidthExceeded { .. } | MpcError::MemoryExceeded { .. }
        ));
    }

    #[test]
    fn route_with_rejects_mis_shaped_destinations() {
        // Wrong number of destination vectors.
        let mut s = sys(16, 2, 1);
        let d = Dist::distribute(&mut s, vec![1u64, 2]).unwrap();
        let err = route_with(&mut s, d, "t", &[vec![0]]).unwrap_err();
        assert!(matches!(err, MpcError::ShapeMismatch { .. }));
        // Wrong number of destinations for one machine's records.
        let mut s = sys(16, 2, 1);
        let d = Dist::distribute(&mut s, vec![1u64, 2]).unwrap();
        let err = route_with(&mut s, d, "t", &[vec![0, 0, 0], vec![1]]).unwrap_err();
        assert!(matches!(err, MpcError::ShapeMismatch { .. }));
    }

    #[test]
    fn tree_primitives_reject_wrong_summary_count() {
        let mut s = sys(16, 4, 1);
        let err = reduce_tree(&mut s, vec![1u64, 2], "min", |a, b| *a.min(b)).unwrap_err();
        assert!(matches!(err, MpcError::ShapeMismatch { .. }));
        let err = machine_scan(&mut s, vec![1u64], 0, "scan", |a, b| a + b).unwrap_err();
        assert!(matches!(err, MpcError::ShapeMismatch { .. }));
    }

    #[test]
    fn route_rejects_bad_destination() {
        let mut s = sys(16, 2, 1);
        let d = Dist::distribute(&mut s, vec![1u64]).unwrap();
        let err = route(&mut s, d, "t", |_, _| 7).unwrap_err();
        assert!(matches!(err, MpcError::BadDestination { dest: 7, .. }));
    }

    #[test]
    fn self_delivery_is_free() {
        let mut s = sys(4, 2, 1);
        let d = Dist::distribute(&mut s, vec![0u64, 1, 2, 3]).unwrap();
        // Keep everything where it is: zero traffic.
        let _ = route(&mut s, d, "t", |_, src| src).unwrap();
        assert_eq!(s.metrics().total_comm_words, 0);
        assert_eq!(s.rounds(), 1);
    }

    #[test]
    fn gather_collects_everything() {
        let mut s = sys(64, 4, 1);
        let d = Dist::distribute(&mut s, (0u64..12).collect()).unwrap();
        let all = gather_to_machine(&mut s, d, 2, "g").unwrap();
        assert_eq!(all.len(), 12);
    }

    #[test]
    fn reduce_tree_computes_min_and_charges_depth() {
        let machines = 27;
        // fanout(1 word) = 3 → depth 3 over 27 machines.
        let mut s = sys(3, machines, 4);
        let vals: Vec<u64> = (0..machines as u64).map(|i| (i * 7) % 31).collect();
        let expected = *vals.iter().min().unwrap();
        let got = reduce_tree(&mut s, vals, "min", |a, b| *a.min(b)).unwrap();
        assert_eq!(got, expected);
        assert_eq!(s.rounds(), 3);
    }

    #[test]
    fn machine_scan_is_exclusive_prefix() {
        let machines = 9;
        let mut s = sys(3, machines, 4);
        let vals: Vec<u64> = (1..=machines as u64).collect();
        let prefixes = machine_scan(&mut s, vals, 0u64, "scan", |a, b| a + b).unwrap();
        // Exclusive prefix sums of 1..=9.
        let expected: Vec<u64> = (0..machines as u64).map(|i| i * (i + 1) / 2).collect();
        assert_eq!(prefixes, expected);
        // depth = ceil(log_3 9) = 2 → up-sweep 2 + down-sweep 2.
        assert_eq!(s.rounds(), 4);
    }

    #[test]
    fn machine_scan_with_option_semantics() {
        // The forward-fill combine: "rightmost Some wins".
        let mut s = sys(8, 4, 2);
        let vals: Vec<Option<u64>> = vec![None, Some(7), None, Some(9)];
        let prefixes = machine_scan(&mut s, vals, None, "fill", |a, b| b.or(*a)).unwrap();
        assert_eq!(prefixes, vec![None, None, Some(7), Some(7)]);
    }

    #[test]
    fn single_machine_scan_is_trivial() {
        let mut s = sys(8, 1, 1);
        let prefixes = machine_scan(&mut s, vec![5u64], 0, "scan", |a, b| a + b).unwrap();
        assert_eq!(prefixes, vec![0]);
        assert_eq!(s.rounds(), 0);
    }
}
