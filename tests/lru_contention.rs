//! Contention storm over the budgeted [`LruStore`]: many threads
//! hammering overlapping keys must never break the store's two core
//! invariants, observed live (not just at the end):
//!
//! 1. **Budget** — `used_bytes() <= budget()` at every observation
//!    point (the store evicts down *inside* the mutating call, so no
//!    in-between state is ever visible).
//! 2. **Integrity** — every value handed back decodes to the key it
//!    was requested under (a hit or a follower of a build in flight can
//!    get any thread's build of that key, but never another key's
//!    value).
//!
//! The same storm runs natively (8 OS threads, scheduler-timed) and —
//! under `--features lock-audit` — inside the deterministic
//! interleaving explorer, where the tracked primitives yield at every
//! lock edge and the schedule is driven by a seeded RNG.

use std::sync::Arc;

use mpc_spanners::pipeline::{BuildGuard, HeapSize, LruStore};

const ENTRY_BYTES: usize = 8;

/// A stored value; every one is charged `ENTRY_BYTES`.
#[derive(Debug, Clone, Copy)]
struct Val(u64);

impl HeapSize for Val {
    fn heap_size(&self) -> usize {
        ENTRY_BYTES
    }
}

/// Serves `key`, building `encode(key, thread)` on a miss.
fn serve(store: &LruStore<u64, Val>, key: u64, thread: u64) -> u64 {
    let guard = BuildGuard::new("storm");
    let (Val(value), _) = store
        .serve(&key, &guard, || Ok(Val(encode(key, thread))))
        .expect("an unguarded build succeeds");
    value
}

/// Encode `(key, thread)` into a value so any returned value proves
/// which key it was stored under.
fn encode(key: u64, thread: u64) -> u64 {
    key * 1_000 + thread
}

fn decode_key(value: u64) -> u64 {
    value / 1_000
}

/// One thread's slice of the storm; panics on any invariant violation.
fn storm_ops(store: &LruStore<u64, Val>, thread: u64, ops: usize, key_space: u64) {
    for i in 0..ops {
        let key = (thread.wrapping_mul(31).wrapping_add(i as u64 * 7)) % key_space;
        let value = serve(store, key, thread);
        assert_eq!(
            decode_key(value),
            key,
            "store returned a value stored under a different key"
        );
        if let Some(Val(seen)) = store.get(&key) {
            assert_eq!(decode_key(seen), key);
        }
        let used = store.used_bytes();
        assert!(
            used <= store.budget(),
            "byte budget exceeded mid-storm: {used} > {}",
            store.budget()
        );
    }
}

fn final_invariants(store: &LruStore<u64, Val>) {
    assert!(store.used_bytes() <= store.budget());
    assert_eq!(
        store.used_bytes(),
        store.len() * ENTRY_BYTES,
        "uniform entry sizes: used bytes must be len * entry size"
    );
}

#[test]
fn native_storm_holds_budget_and_integrity() {
    // Budget of 6 entries against a key space of 24 → constant
    // eviction pressure from 8 threads.
    let store = Arc::new(LruStore::<u64, Val>::new(6 * ENTRY_BYTES));
    let evictions_before = store.evictions();

    let handles: Vec<_> = (0..8u64)
        .map(|t| {
            let store = Arc::clone(&store);
            std::thread::spawn(move || storm_ops(&store, t, 200, 24))
        })
        .collect();
    for h in handles {
        h.join().expect("storm thread violated an invariant");
    }

    final_invariants(&store);
    assert!(
        store.evictions() > evictions_before,
        "24 keys into a 6-entry budget must evict"
    );
    // The store stays serviceable after the storm.
    assert_eq!(decode_key(serve(&store, 1_000, 99)), 1_000);
}

/// The same storm under the deterministic explorer: 3 simulated
/// threads, hundreds of seeded schedules, every lock acquisition a
/// scheduling decision. A failure prints the seed; replaying it with
/// `interleave::run_one(seed, ..)` reproduces the exact interleaving.
#[cfg(feature = "lock-audit")]
#[test]
fn explored_storm_holds_budget_and_integrity() {
    use interleave::Explorer;

    let summary = Explorer::new(64).base_seed(0xC0FFEE).explore(|sim| {
        let store = Arc::new(LruStore::<u64, Val>::new(3 * ENTRY_BYTES));
        for t in 0..3u64 {
            let store = Arc::clone(&store);
            sim.spawn(move || storm_ops(&store, t, 6, 8));
        }
        sim.join_all();
        final_invariants(&store);
    });
    assert_eq!(summary.schedules, 64);
    assert!(
        summary.distinct_traces > 1,
        "the explorer must actually vary the schedule (got {} distinct)",
        summary.distinct_traces
    );
}
