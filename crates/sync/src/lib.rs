//! Instrumented synchronisation primitives for the workspace.
//!
//! Every lock and condvar in the serving stack (the `spanner-core`
//! pipeline and the vendored `rayon` pool) is a [`TrackedMutex`] or
//! [`TrackedCondvar`] from this crate instead of a raw `std::sync`
//! primitive. Each is constructed with a `&'static str` *lock class name*
//! (e.g. `"queue.state"`, `"rayon.queue"`), which is what the tooling
//! reports on.
//!
//! The crate compiles in one of two modes:
//!
//! * **Passthrough** (default): zero-cost `#[inline]` newtypes over
//!   `std::sync`. The only behavioural difference from raw primitives is that
//!   poisoning panics with the lock's class name instead of returning a
//!   `Result` — matching how the call sites already `.expect()`ed.
//! * **Audit** (`--features lock-audit`): no tracked lock may be acquired
//!   while another is held. An acquisition by a thread that already holds a
//!   tracked lock panics, naming both classes; no nesting means no
//!   lock-order cycle, no relock and no condvar wait that pins a second
//!   lock. Every acquire/release is also a yield point for the `interleave`
//!   deterministic scheduler, letting small scenarios be model-checked
//!   across hundreds of seeded schedules.
//!
//! Both modes expose the identical API, so call sites never `cfg`.

/// The deterministic interleaving explorer, re-exported so downstream
/// crates (and their unit tests) can drive tracked primitives through
/// seeded schedules without naming the vendored crate directly.
#[cfg(feature = "lock-audit")]
pub use interleave;

#[cfg(feature = "lock-audit")]
mod audit;
#[cfg(feature = "lock-audit")]
pub use audit::{MutexGuard, TrackedCondvar, TrackedMutex, WaitTimeoutResult};

#[cfg(not(feature = "lock-audit"))]
mod passthrough;
#[cfg(not(feature = "lock-audit"))]
pub use passthrough::{MutexGuard, TrackedCondvar, TrackedMutex, WaitTimeoutResult};

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn mutex_roundtrip() {
        let m = TrackedMutex::new("test.roundtrip", 41);
        {
            let mut g = m.lock();
            *g += 1;
        }
        assert_eq!(*m.lock(), 42);
        assert_eq!(m.name(), "test.roundtrip");
    }

    #[test]
    fn condvar_wakes_waiter() {
        let pair = Arc::new((
            TrackedMutex::new("test.cv.mutex", false),
            TrackedCondvar::new("test.cv"),
        ));
        let pair2 = Arc::clone(&pair);
        let waiter = std::thread::spawn(move || {
            let (m, cv) = &*pair2;
            let mut ready = m.lock();
            while !*ready {
                ready = cv.wait(ready);
            }
        });
        std::thread::sleep(Duration::from_millis(10));
        *pair.0.lock() = true;
        pair.1.notify_all();
        waiter.join().unwrap();
    }

    #[test]
    fn condvar_wait_timeout_times_out() {
        let m = TrackedMutex::new("test.cv.timeout.mutex", ());
        let cv = TrackedCondvar::new("test.cv.timeout");
        let g = m.lock();
        let (_g, res) = cv.wait_timeout(g, Duration::from_millis(5));
        assert!(res.timed_out());
    }

    #[cfg(feature = "lock-audit")]
    mod audit_mode {
        use super::*;

        fn expect_panic(f: impl FnOnce() + Send + 'static) -> String {
            let err = std::thread::spawn(f).join().expect_err("expected a panic");
            if let Some(s) = err.downcast_ref::<String>() {
                s.clone()
            } else if let Some(s) = err.downcast_ref::<&str>() {
                (*s).to_string()
            } else {
                String::from("<non-string panic>")
            }
        }

        #[test]
        fn nested_acquisition_panics_naming_both_classes() {
            let a = Arc::new(TrackedMutex::new("nest.a", ()));
            let b = Arc::new(TrackedMutex::new("nest.b", ()));
            let msg = expect_panic(move || {
                let _ga = a.lock();
                let _gb = b.lock();
            });
            assert!(
                msg.contains("'nest.b' while holding 'nest.a'"),
                "panic should name both classes: {msg}"
            );
        }

        #[test]
        fn same_class_nesting_panics() {
            let a = Arc::new(TrackedMutex::new("nest.same", 0u8));
            let b = Arc::new(TrackedMutex::new("nest.same", 0u8));
            let msg = expect_panic(move || {
                let _ga = a.lock();
                let _gb = b.lock();
            });
            assert!(
                msg.contains("nest.same"),
                "panic should name the class: {msg}"
            );
        }

        #[test]
        fn relock_panics_instead_of_deadlocking() {
            let m = Arc::new(TrackedMutex::new("nest.relock", ()));
            let msg = expect_panic(move || {
                let _g = m.lock();
                let _again = m.lock();
            });
            assert!(
                msg.contains("'nest.relock' while holding 'nest.relock'"),
                "{msg}"
            );
        }

        #[test]
        fn condvar_wait_with_unrelated_lock_panics() {
            // The waited mutex is the second lock, so the audit refuses it
            // before the wait could pin `cvcheck.unrelated`.
            let unrelated = Arc::new(TrackedMutex::new("cvcheck.unrelated", ()));
            let m = Arc::new(TrackedMutex::new("cvcheck.mutex", ()));
            let cv = Arc::new(TrackedCondvar::new("cvcheck.cv"));
            let msg = expect_panic(move || {
                let _held = unrelated.lock();
                let g = m.lock();
                let _ = cv.wait_timeout(g, Duration::from_millis(1));
            });
            assert!(
                msg.contains("'cvcheck.mutex' while holding 'cvcheck.unrelated'"),
                "panic should name the held lock and the waited mutex: {msg}"
            );
        }

        #[test]
        fn one_lock_at_a_time_is_allowed() {
            let a = TrackedMutex::new("seq.a", ());
            let b = TrackedMutex::new("seq.b", ());
            let cv = TrackedCondvar::new("seq.cv");
            for _ in 0..3 {
                drop(a.lock());
                drop(b.lock());
            }
            // A guard taken back from a condvar wait is still the only one
            // held, and releasing it frees the thread to lock again.
            let (ga, res) = cv.wait_timeout(a.lock(), Duration::from_millis(1));
            assert!(res.timed_out());
            drop(ga);
            drop(b.lock());
        }

        #[test]
        fn a_caught_nesting_panic_leaves_the_thread_unlocked() {
            let a = TrackedMutex::new("caught.a", ());
            let b = TrackedMutex::new("caught.b", ());
            let nested = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _ga = a.lock();
                let _gb = b.lock();
            }));
            assert!(nested.is_err());
            // `a`'s guard was dropped while unwinding, which poisons `a`
            // and clears this thread's note; `b` was never taken.
            drop(b.lock());
        }
    }
}
