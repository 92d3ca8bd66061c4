//! The Section 6 toolbox, built on [`crate::comm`]:
//!
//! * [`sort_by_key`] — distributed sample sort (Goodrich–Sitchinava–Zhang),
//!   `O(1/γ)` rounds. Ties are broken by a global position tiebreak so
//!   runs of equal keys split across machines — this is what lets a
//!   high-degree vertex's edges occupy a *contiguous group of machines*
//!   (the paper's input configuration `M(v)`).
//! * [`forward_fill`] — segmented broadcast over a sorted collection: the
//!   head ("leader") record of each key group announces a value to the
//!   whole group, even when the group spans machines. Realised with one
//!   machine-level exclusive scan (`O(1/γ)` rounds).
//! * [`group_by_key`] — semisort: one hash-routing round gathers each
//!   key's records on one machine as one contiguous run, then a local
//!   pass visits every run;
//! * [`aggregate_by_key`] — semisort + fold (the paper's **Find
//!   Minimum** over `M(v)` when used with `min`).

use rayon::prelude::*;

use crate::comm::{machine_scan, route, route_with};
use crate::dist::Dist;
use crate::record::Record;
use crate::system::MpcSystem;
use crate::Result;

/// SplitMix64 — cheap deterministic hash for routing keys to machines.
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Distributed multi-level sample sort by `key` (Goodrich–Sitchinava–
/// Zhang). Ties are broken by a per-level `(machine, position)` tiebreak,
/// so runs of equal keys split across machines — this is what lets a
/// high-degree vertex's edges occupy a *contiguous group of machines*
/// (the paper's input configuration `M(v)`).
///
/// The sort proceeds in `O(log_S P)` levels of `f`-way range partition
/// (`f ≈ S/4·keywords`): each level samples per-group splitters up an
/// aggregation tree, broadcasts them down, and routes records one hop
/// closer to their final range. A final exact rebalance (one machine
/// scan + one routing round) leaves every machine with `⌈n/p⌉` records
/// regardless of splitter quality. Total rounds: `O((1/γ)²)` in the
/// worst case from the per-level sampling trees — poly(1/γ), as the
/// Section 6 accounting requires (Goodrich et al. shave the extra
/// factor with pipelining that a simulator has no need to replicate).
pub fn sort_by_key<T: Record, K: Record + Ord>(
    sys: &mut MpcSystem,
    d: Dist<T>,
    op: &'static str,
    key: impl Fn(&T) -> K + Send + Sync,
) -> Result<Dist<T>> {
    let p = sys.machines();
    let n = d.len();
    if n == 0 {
        return Ok(d);
    }
    let cap = sys.cfg().capacity();
    let kwords = <(K, u64, u64)>::WORDS;
    // Range-partition arity `f` and per-node sample budget `b = 8f`
    // (8× splitter oversampling keeps bucket imbalance small), chosen so
    // a tree node's fan-in (f−1)·b·kwords ≈ 8f²·kwords stays within the
    // per-round budget.
    let f = (((cap / (8 * kwords.max(1))) as f64).sqrt() as usize).max(2);
    let b = (8 * f).max(8);

    let mut shards = d.into_shards();
    shards.par_iter_mut().for_each(|shard| {
        shard.sort_by_key(|a| key(a));
    });

    // Contiguous machine groups; every record lives inside its group's
    // machine range and belongs to that group's key range.
    let mut groups: Vec<(usize, usize)> = vec![(0, p)];

    let subsample = |mut samples: Vec<(K, u64, u64)>, limit: usize| -> Vec<(K, u64, u64)> {
        samples.sort();
        if samples.len() <= limit {
            return samples;
        }
        let step = samples.len() as f64 / limit as f64;
        (0..limit)
            .map(|i| samples[(i as f64 * step) as usize].clone())
            .collect()
    };

    while groups.iter().any(|&(lo, hi)| hi - lo > 1) {
        // --- Per-machine samples (decorated with (machine, position) so
        // equal keys split across subranges).
        let machine_samples: Vec<Vec<(K, u64, u64)>> = shards
            .par_iter()
            .enumerate()
            .map(|(src, shard)| {
                let decorate = |i: usize| (key(&shard[i]), src as u64, i as u64);
                if shard.len() <= b {
                    (0..shard.len()).map(decorate).collect()
                } else {
                    let step = shard.len() as f64 / b as f64;
                    (0..b)
                        .map(|i| decorate((i as f64 * step) as usize))
                        .collect()
                }
            })
            .collect();

        // --- Per-group sampling trees (all groups in parallel; rounds =
        // depth of the largest tree).
        let max_group = groups.iter().map(|&(lo, hi)| hi - lo).max().unwrap_or(1);
        let tree_depth = {
            let mut d = 0usize;
            let mut cover = 1usize;
            while cover < max_group {
                cover = cover.saturating_mul(f);
                d += 1;
            }
            d
        };
        let group_samples: Vec<Vec<(K, u64, u64)>> = groups
            .par_iter()
            .map(|&(lo, hi)| {
                let mut level: Vec<Vec<(K, u64, u64)>> = machine_samples[lo..hi].to_vec();
                while level.len() > 1 {
                    let g = level.len().div_ceil(f);
                    let mut next = Vec::with_capacity(g);
                    for gi in 0..g {
                        let a = gi * f;
                        let z = (a + f).min(level.len());
                        let mut merged = Vec::new();
                        for node in &level[a..z] {
                            merged.extend(node.iter().cloned());
                        }
                        next.push(subsample(merged, b));
                    }
                    level = next;
                }
                level.pop().unwrap_or_default()
            })
            .collect();
        for _ in 0..tree_depth {
            sys.charge_round(
                op,
                (0, b * kwords),
                (0, (f - 1) * b * kwords),
                (p * b * kwords) as u64,
            )?;
        }

        // --- Per-group splitters and subranges; broadcast splitters down
        // the same trees (charged as tree_depth rounds).
        struct Plan<K> {
            lo: usize,
            subranges: Vec<(usize, usize)>,
            splitters: Vec<(K, u64, u64)>,
        }
        let plans: Vec<Plan<K>> = groups
            .iter()
            .zip(group_samples)
            .map(|(&(lo, hi), samples)| {
                let g = hi - lo;
                let nsub = f.min(g).max(1);
                // Subranges: split [lo, hi) into nsub near-equal parts.
                let mut subranges = Vec::with_capacity(nsub);
                let base = g / nsub;
                let extra = g % nsub;
                let mut cur = lo;
                for i in 0..nsub {
                    let len = base + usize::from(i < extra);
                    subranges.push((cur, cur + len));
                    cur += len;
                }
                let splitters: Vec<(K, u64, u64)> = if samples.is_empty() {
                    vec![]
                } else {
                    (1..nsub)
                        .map(|i| samples[(i * samples.len()) / nsub].clone())
                        .collect()
                };
                Plan {
                    lo,
                    subranges,
                    splitters,
                }
            })
            .collect();
        for _ in 0..tree_depth.max(1) {
            sys.charge_round(
                op,
                (0, f * (f - 1) * kwords),
                (0, (f - 1) * kwords),
                (p * kwords) as u64,
            )?;
        }

        // --- Route every record one level down (one round).
        let mut plan_of_machine: Vec<usize> = vec![0; p];
        for (pi, plan) in plans.iter().enumerate() {
            let (lo, hi) = groups[pi];
            for slot in plan_of_machine.iter_mut().take(hi).skip(lo) {
                *slot = pi;
            }
            debug_assert_eq!(plan.lo, lo);
        }
        let dests: Vec<Vec<usize>> = shards
            .par_iter()
            .enumerate()
            .map(|(src, shard)| {
                let plan = &plans[plan_of_machine[src]];
                // Round-robin within each subrange (offset by the source
                // index so different sources start at different slots):
                // every source spreads its contribution evenly, keeping
                // bucket imbalance bounded by splitter quality alone.
                let mut cursor = vec![src; plan.subranges.len()];
                (0..shard.len())
                    .map(|i| {
                        let probe = (key(&shard[i]), src as u64, i as u64);
                        let bucket = plan
                            .splitters
                            .partition_point(|s| *s <= probe)
                            .min(plan.subranges.len() - 1);
                        let (slo, shi) = plan.subranges[bucket];
                        let width = (shi - slo).max(1);
                        let slot = slo + cursor[bucket] % width;
                        cursor[bucket] += 1;
                        slot
                    })
                    .collect()
            })
            .collect();
        let routed = route_with(sys, Dist::from_shards(shards), op, &dests)?;
        shards = routed.into_shards();
        shards.par_iter_mut().for_each(|shard| {
            shard.sort_by_key(|a| key(a));
        });
        groups = plans.into_iter().flat_map(|plan| plan.subranges).collect();
        groups.retain(|&(lo, hi)| hi > lo);
    }

    // --- Exact rebalance: one prefix scan over machine counts plus one
    // routing round leaves every machine with ⌈n/p⌉ records, independent
    // of splitter quality. Records arrive in (source, position) order =
    // global key order, so shards stay sorted.
    let counts: Vec<u64> = shards.iter().map(|s| s.len() as u64).collect();
    let offsets = machine_scan(sys, counts, 0u64, op, |a, b| a + b)?;
    let q = n.div_ceil(p).max(1);
    let rb_dests: Vec<Vec<usize>> = shards
        .par_iter()
        .zip(offsets.par_iter())
        .map(|(shard, &off)| {
            (0..shard.len())
                .map(|i| ((off as usize + i) / q).min(p - 1))
                .collect()
        })
        .collect();
    let balanced = route_with(sys, Dist::from_shards(shards), op, &rb_dests)?;
    Ok(balanced)
}

/// Segmented broadcast over a *sorted* collection: records for which
/// `extract` returns `Some(u)` are group leaders; every subsequent record
/// (within the global order, up to the next leader) receives the leader's
/// value via `apply`. Group boundaries may span machines; the cross-
/// machine carry travels through one exclusive machine scan.
pub fn forward_fill<T: Record, U: Record>(
    sys: &mut MpcSystem,
    d: &mut Dist<T>,
    op: &'static str,
    extract: impl Fn(&T) -> Option<U> + Send + Sync,
    apply: impl Fn(&mut T, &U) + Send + Sync,
) -> Result<()> {
    // Per-machine trailing label (the value a following machine would
    // inherit if it had no leader of its own).
    let summaries: Vec<Option<U>> = d.per_machine(|shard| {
        let mut last = None;
        for rec in shard {
            if let Some(u) = extract(rec) {
                last = Some(u);
            }
        }
        last
    });
    let incoming = machine_scan(sys, summaries, None, op, |a, b| b.clone().or(a.clone()))?;

    // Local fill with the scanned carry.
    let shards = std::mem::replace(d, Dist::empty(sys)).into_shards();
    let filled: Vec<Vec<T>> = shards
        .into_par_iter()
        .zip(incoming.into_par_iter())
        .map(|(mut shard, carry_in)| {
            let mut carry = carry_in;
            for rec in &mut shard {
                if let Some(u) = extract(rec) {
                    carry = Some(u);
                } else if let Some(c) = &carry {
                    apply(rec, c);
                }
            }
            shard
        })
        .collect();
    *d = Dist::from_shards(filled);
    Ok(())
}

/// Semisort: routes every record to machine `splitmix64(key) % P` (one
/// round), gathers each machine's records into one contiguous run per
/// key — runs in key order, each run in arrival order — and calls
/// `each_group(run, out)` on every run. Returns the grouped records, which
/// stay on their key's machine, and what the passes pushed to `out`.
///
/// All records of one key land on one machine, so a key whose records
/// exceed a machine's budget fails the round with a typed
/// [`crate::MpcError`]; keys that may be that hot need [`sort_by_key`].
pub fn group_by_key<T: Record, U: Record>(
    sys: &mut MpcSystem,
    d: Dist<T>,
    op: &'static str,
    key: impl Fn(&T) -> u64 + Send + Sync,
    each_group: impl Fn(&[T], &mut Vec<U>) + Send + Sync,
) -> Result<(Dist<T>, Dist<U>)> {
    let p = sys.machines();
    let routed = route(sys, d, op, |rec, _| {
        (splitmix64(key(rec)) % p as u64) as usize
    })?;
    let mut shards = routed.into_shards();
    let emitted: Vec<Vec<U>> = shards
        .par_iter_mut()
        .map(|shard| {
            // Stable: equal keys keep their arrival order.
            shard.sort_by_key(|rec| key(rec));
            let mut out = Vec::new();
            for run in shard.chunk_by(|a, b| key(a) == key(b)) {
                each_group(run, &mut out);
            }
            out
        })
        .collect();
    sys.check_all_storage(&emitted, op)?;
    Ok((Dist::from_shards(shards), Dist::from_shards(emitted)))
}

/// Semisort + aggregate: [`group_by_key`] with a pass that folds each
/// run, in arrival order, with `combine`. Output: one `(key, value)`
/// record per distinct key, sorted by key within each machine.
pub fn aggregate_by_key<T: Record, V: Record>(
    sys: &mut MpcSystem,
    d: Dist<T>,
    op: &'static str,
    key: impl Fn(&T) -> u64 + Send + Sync,
    value: impl Fn(&T) -> V + Send + Sync,
    combine: impl Fn(&V, &V) -> V + Send + Sync,
) -> Result<Dist<(u64, V)>> {
    let (_, folded) = group_by_key(sys, d, op, &key, |run, out| {
        let mut acc = value(&run[0]);
        for rec in &run[1..] {
            acc = combine(&acc, &value(rec));
        }
        out.push((key(&run[0]), acc));
    })?;
    Ok(folded)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MpcConfig;

    fn sys(words: usize, machines: usize, slack: usize) -> MpcSystem {
        MpcSystem::new(MpcConfig::explicit(words, machines, slack))
    }

    #[test]
    fn sort_orders_globally() {
        let mut s = sys(64, 8, 4);
        let data: Vec<u64> = (0..100).map(|i| splitmix64(i) % 1000).collect();
        let d = Dist::distribute(&mut s, data.clone()).unwrap();
        let sorted = sort_by_key(&mut s, d, "sort", |&x| x).unwrap();
        let flat = sorted.collect_out_of_model();
        let mut expect = data;
        expect.sort();
        assert_eq!(flat, expect);
        assert!(s.rounds() >= 2, "sort must cost communication rounds");
    }

    #[test]
    fn sort_splits_equal_keys_across_machines() {
        // All keys equal: the tiebreak must spread them out rather than
        // overload one machine.
        let mut s = sys(32, 16, 2);
        let data: Vec<u64> = vec![7; 100];
        let d = Dist::distribute(&mut s, data).unwrap();
        let sorted = sort_by_key(&mut s, d, "sort", |&x| x).unwrap();
        assert_eq!(sorted.len(), 100);
        // A `u64` record is one word, so a shard's length is its size in
        // words.
        assert!(
            sorted
                .shards()
                .iter()
                .all(|shard| shard.len() <= s.cfg().capacity()),
            "equal keys must not pile up on one machine"
        );
    }

    #[test]
    fn sort_by_tuple_key() {
        let mut s = sys(64, 4, 4);
        let data: Vec<(u64, u64)> = (0..50u64).map(|i| (i % 5, 49 - i)).collect();
        let d = Dist::distribute(&mut s, data).unwrap();
        let sorted = sort_by_key(&mut s, d, "sort", |r| *r).unwrap();
        let flat = sorted.collect_out_of_model();
        assert!(flat.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn forward_fill_carries_across_machines() {
        let mut s = sys(8, 4, 2);
        // Records: (is_leader_value, payload). Leaders carry Some.
        // Layout across 4 machines of 2 records each:
        //   [L(5), d] [d, d] [L(9), d] [d, d]
        let recs: Vec<(u64, u64)> = vec![
            (5, u64::MAX),
            (0, 0),
            (0, 0),
            (0, 0),
            (9, u64::MAX),
            (0, 0),
            (0, 0),
            (0, 0),
        ];
        let mut d = Dist::distribute(&mut s, recs).unwrap();
        forward_fill(
            &mut s,
            &mut d,
            "fill",
            |r| if r.1 == u64::MAX { Some(r.0) } else { None },
            |r, &u| r.1 = u,
        )
        .unwrap();
        let flat = d.collect_out_of_model();
        assert_eq!(flat[1].1, 5);
        assert_eq!(flat[2].1, 5, "carry must cross the machine boundary");
        assert_eq!(flat[3].1, 5);
        assert_eq!(flat[5].1, 9);
        assert_eq!(flat[7].1, 9);
    }

    #[test]
    fn aggregate_min_by_key() {
        let mut s = sys(64, 4, 4);
        let recs: Vec<(u64, u64)> = vec![(1, 10), (2, 5), (1, 3), (2, 20), (3, 7)];
        let d = Dist::distribute(&mut s, recs).unwrap();
        let agg = aggregate_by_key(&mut s, d, "agg", |r| r.0, |r| r.1, |a, b| *a.min(b)).unwrap();
        let mut flat = agg.collect_out_of_model();
        flat.sort();
        assert_eq!(flat, vec![(1, 3), (2, 5), (3, 7)]);
        assert_eq!(s.rounds(), 1, "semisort is one routing round");
    }

    #[test]
    fn group_by_key_gathers_each_key_into_one_run_in_arrival_order() {
        let mut s = sys(64, 6, 4);
        // (key, arrival index): `distribute` places contiguous blocks, so
        // the index order is the (machine, position) order of arrival.
        let recs: Vec<(u64, u64)> = (0..120u64).map(|i| (splitmix64(i) % 9, i)).collect();
        let d = Dist::distribute(&mut s, recs).unwrap();
        let (grouped, sizes) = group_by_key(
            &mut s,
            d,
            "group",
            |r| r.0,
            |run, out| out.push((run[0].0, run.len() as u64)),
        )
        .unwrap();
        assert_eq!(s.rounds(), 1, "a semisort is one routing round");
        assert_eq!(grouped.len(), 120);
        for shard in grouped.shards() {
            let keys: Vec<u64> = shard.chunk_by(|a, b| a.0 == b.0).map(|r| r[0].0).collect();
            assert!(
                keys.windows(2).all(|w| w[0] < w[1]),
                "one run per key: {keys:?}"
            );
            for run in shard.chunk_by(|a, b| a.0 == b.0) {
                assert!(run.windows(2).all(|w| w[0].1 < w[1].1), "arrival order");
            }
        }
        let mut sizes = sizes.collect_out_of_model();
        sizes.sort();
        let mut expect = vec![0u64; 9];
        for i in 0..120u64 {
            expect[(splitmix64(i) % 9) as usize] += 1;
        }
        let expect: Vec<(u64, u64)> = (0..9u64).zip(expect).filter(|&(_, n)| n > 0).collect();
        assert_eq!(sizes, expect);
    }

    #[test]
    fn group_by_key_routes_and_charges_like_aggregate_by_key() {
        let recs: Vec<(u64, u64)> = (0..300u64).map(|i| (splitmix64(i) % 37, i % 11)).collect();
        let mut a = sys(128, 8, 4);
        let d = Dist::distribute(&mut a, recs.clone()).unwrap();
        let agg = aggregate_by_key(&mut a, d, "op", |r| r.0, |r| r.1, |x, y| *x.min(y)).unwrap();
        let mut g = sys(128, 8, 4);
        let d = Dist::distribute(&mut g, recs).unwrap();
        let (grouped, folded) = group_by_key(
            &mut g,
            d,
            "op",
            |r| r.0,
            |run, out| out.push((run[0].0, run.iter().map(|r| r.1).min().unwrap())),
        )
        .unwrap();
        assert_eq!(
            g.metrics(),
            a.metrics(),
            "same words, busiest machines, peak"
        );
        assert_eq!(folded.shards(), agg.shards());
        for (m, shard) in grouped.shards().iter().enumerate() {
            for r in shard {
                assert!(
                    agg.shards()[m].iter().any(|&(k, _)| k == r.0),
                    "key {}",
                    r.0
                );
            }
        }
    }

    #[test]
    fn group_by_key_reports_a_hot_key_as_a_typed_error() {
        let mut s = sys(16, 8, 2);
        let d = Dist::distribute(&mut s, (0u64..100).collect()).unwrap();
        let err = group_by_key(
            &mut s,
            d,
            "hot",
            |_| 7,
            |run: &[u64], out: &mut Vec<u64>| out.extend_from_slice(run),
        )
        .unwrap_err();
        assert!(
            matches!(
                err,
                crate::MpcError::BandwidthExceeded { op: "hot", .. }
                    | crate::MpcError::MemoryExceeded { op: "hot", .. }
            ),
            "{err}"
        );
    }

    #[test]
    fn empty_sort_is_noop() {
        let mut s = sys(16, 4, 2);
        let d: Dist<u64> = Dist::empty(&s);
        let sorted = sort_by_key(&mut s, d, "sort", |&x| x).unwrap();
        assert!(sorted.is_empty());
        assert_eq!(s.rounds(), 0);
    }
}
