//! The runtime no-nesting rule covers the vendored `rayon` pool, which
//! the static `lock-nesting` pass never sees (`vendor/` is outside its
//! call graph).
//!
//! Only compiled under `--features lock-audit`. A join inside a 2-thread
//! `install` sends a 2-task batch through the pool's `rayon.queue` lock
//! even when `RAYON_NUM_THREADS=1`, so the test behaves the same at every
//! pool width. It fails if the pool's locks ever stop being tracked.
#![cfg(feature = "lock-audit")]

use std::panic::{self, AssertUnwindSafe};

use mpc_spanners::core::sync::TrackedMutex;

fn join_on_two_threads() -> (u32, u32) {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(2)
        .build()
        .unwrap();
    pool.install(|| rayon::join(|| 1, || 2))
}

#[test]
fn a_pool_join_under_a_held_tracked_lock_panics_naming_rayon_queue() {
    let held = TrackedMutex::new("test.held", ());
    let nested = panic::catch_unwind(AssertUnwindSafe(|| {
        let _guard = held.lock();
        join_on_two_threads()
    }));
    let err = nested.expect_err("the pool queue was locked under a held tracked lock");
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default();
    assert!(
        msg.contains("'rayon.queue' while holding 'test.held'"),
        "unexpected panic: {msg}"
    );

    // `held` is poisoned: its guard was dropped while unwinding. A fresh
    // lock, released before the join, leaves the pool free to run it.
    let fresh = TrackedMutex::new("test.held", ());
    drop(fresh.lock());
    assert_eq!(join_on_two_threads(), (1, 2));
}
