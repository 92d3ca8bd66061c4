//! Pins the "zero release-mode overhead" claim of the tracked sync
//! layer: in the default (passthrough) build, `TrackedMutex` /
//! `TrackedCondvar` are `#[inline]` newtypes over `std::sync`, so
//! uncontended lock/unlock and a condvar ping-pong must cost the same
//! as the raw primitives. Run both rows and compare:
//!
//! ```text
//! cargo bench -p spanner-bench --bench sync_overhead
//! ```
//!
//! (Under `--features lock-audit` the tracked rows pay for the
//! thread-local no-nesting check and the explorer's yield points on
//! purpose — that build is a debugging tool, not a shipping
//! configuration; the bench still runs there if you want the
//! instrumented numbers:
//! `cargo bench -p spanner-bench --bench sync_overhead --features spanner-sync/lock-audit`.)

use std::sync::{Condvar, Mutex};

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use spanner_sync::{TrackedCondvar, TrackedMutex};

/// One uncontended lock/increment/unlock — the hot-path shape of every
/// queue and store operation in the pipeline.
fn bench_uncontended_mutex(c: &mut Criterion) {
    let mut group = c.benchmark_group("uncontended_lock");

    let raw = Mutex::new(0u64);
    group.bench_function("raw_std_mutex", |b| {
        b.iter(|| {
            let mut g = raw.lock().unwrap();
            *g = black_box(*g).wrapping_add(1);
        })
    });

    let tracked = TrackedMutex::new("bench.mutex", 0u64);
    group.bench_function("tracked_mutex", |b| {
        b.iter(|| {
            let mut g = tracked.lock();
            *g = black_box(*g).wrapping_add(1);
        })
    });

    group.finish();
}

/// A notify with no waiter plus a flag flip under the lock — the
/// resolution-side shape of the JobQueue (`resolve` → `notify_all`).
fn bench_notify_path(c: &mut Criterion) {
    let mut group = c.benchmark_group("notify_no_waiter");

    let raw = (Mutex::new(0u64), Condvar::new());
    group.bench_function("raw_std_condvar", |b| {
        b.iter(|| {
            *raw.0.lock().unwrap() = black_box(1);
            raw.1.notify_all();
        })
    });

    let tracked = (
        TrackedMutex::new("bench.cv_mutex", 0u64),
        TrackedCondvar::new("bench.cv"),
    );
    group.bench_function("tracked_condvar", |b| {
        b.iter(|| {
            *tracked.0.lock() = black_box(1);
            tracked.1.notify_all();
        })
    });

    group.finish();
}

criterion_group!(benches, bench_uncontended_mutex, bench_notify_path);
criterion_main!(benches);
