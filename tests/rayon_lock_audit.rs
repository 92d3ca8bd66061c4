//! The runtime no-nesting rule covers the vendored `rayon` pool, which
//! the static `lock-nesting` pass never sees (`vendor/` is outside its
//! call graph).
//!
//! Only compiled under `--features lock-audit`. A join inside a 2-thread
//! `install` sends a 2-task batch through the pool's `rayon.queue` lock
//! even when `RAYON_NUM_THREADS=1`. A join inside a 1-thread `install`
//! runs inline on the caller, and still takes each task's `rayon.slot`
//! lock. So both tests behave the same at every pool width, and they fail
//! if the pool's locks, queued or inline, ever stop being tracked.
#![cfg(feature = "lock-audit")]

use std::panic::{self, AssertUnwindSafe};

use mpc_spanners::core::sync::TrackedMutex;

fn join_on(threads: usize) -> (u32, u32) {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .unwrap();
    pool.install(|| rayon::join(|| 1, || 2))
}

/// Runs a join on `threads` threads under a held `test.held` lock and
/// asserts that acquiring `class` panics; then checks that the pool
/// still runs a join once no tracked lock is held.
fn assert_join_under_a_held_lock_panics_naming(threads: usize, class: &str) {
    let held = TrackedMutex::new("test.held", ());
    let nested = panic::catch_unwind(AssertUnwindSafe(|| {
        let _guard = held.lock();
        join_on(threads)
    }));
    let err = nested.expect_err("a pool lock was taken under a held tracked lock");
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default();
    assert!(
        msg.contains(&format!("'{class}' while holding 'test.held'")),
        "unexpected panic: {msg}"
    );

    // `held` is poisoned: its guard was dropped while unwinding. A fresh
    // lock, released before the join, leaves the pool free to run it.
    let fresh = TrackedMutex::new("test.held", ());
    drop(fresh.lock());
    assert_eq!(join_on(threads), (1, 2));
}

#[test]
fn a_pool_join_under_a_held_tracked_lock_panics_naming_rayon_queue() {
    assert_join_under_a_held_lock_panics_naming(2, "rayon.queue");
}

#[test]
fn an_inline_batch_under_a_held_tracked_lock_panics_naming_rayon_slot() {
    assert_join_under_a_held_lock_panics_naming(1, "rayon.slot");
}
