//! Audit mode: the no-nesting rule and the explorer's yield points.
//!
//! Compiled only under `--features lock-audit`. The public surface is
//! identical to `passthrough`, so call sites never notice the swap.
//!
//! # The rule
//!
//! No tracked lock is acquired while another is held. Each thread keeps a
//! thread-local note of the class of the one tracked lock it holds; an
//! acquisition while the note is set panics, naming both classes, before
//! it touches the mutex. A thread that never nests cannot take part in a
//! lock-order cycle, cannot relock a mutex it holds, and can only be
//! holding the waited mutex when it parks on a condvar, so the rule stands
//! in for cycle detection, reentrancy checks and condvar discipline. The
//! static `lock-nesting` lint checks the same rule on source text.
//!
//! A condvar wait keeps the note set: std releases and reacquires the
//! waited mutex internally, and the guard is the caller's again on return.
//!
//! # Explorer integration
//!
//! While an `interleave` simulation is active on the current thread, blocking
//! would stall the simulation's single execution token. Acquisitions
//! therefore spin with `try_lock` + `interleave::yield_point()`, and condvar
//! waits release the mutex and spin on a notify epoch counter. Every
//! acquire/release is a deterministic scheduling decision.

use std::cell::Cell;
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{self, TryLockError};
use std::time::Duration;

thread_local! {
    /// Class of the tracked lock this thread holds, if any.
    static HELD: Cell<Option<&'static str>> = const { Cell::new(None) };
}

#[cold]
fn poisoned(name: &'static str) -> ! {
    panic!("tracked lock '{name}' poisoned: a thread panicked while holding it");
}

/// Panic if this thread already holds a tracked lock.
fn check_not_nested(class: &'static str) {
    if let Some(held) = HELD.get() {
        panic!(
            "lock-audit: acquiring tracked lock '{class}' while holding '{held}' — no tracked \
             lock may be acquired while another is held; release '{held}' first"
        );
    }
}

/// A named mutex (audit mode — see module docs).
pub struct TrackedMutex<T> {
    name: &'static str,
    inner: sync::Mutex<T>,
}

impl<T> TrackedMutex<T> {
    /// Wrap `value` in a mutex belonging to lock class `name`.
    pub fn new(name: &'static str, value: T) -> Self {
        TrackedMutex {
            name,
            inner: sync::Mutex::new(value),
        }
    }

    /// Consume the mutex, returning the inner value. Exclusive ownership
    /// means no acquisition happens, so there is nothing to check.
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(|_| poisoned(self.name))
    }
}

impl<T> TrackedMutex<T> {
    /// Acquire the lock. Panics if this thread already holds a tracked
    /// lock; under the explorer this is a spin of `try_lock` + yield
    /// instead of a blocking wait.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        check_not_nested(self.name);
        let inner = if interleave::is_active() {
            interleave::yield_point();
            loop {
                match self.inner.try_lock() {
                    Ok(g) => break g,
                    Err(TryLockError::WouldBlock) => interleave::yield_point(),
                    Err(TryLockError::Poisoned(_)) => poisoned(self.name),
                }
            }
        } else {
            self.inner.lock().unwrap_or_else(|_| poisoned(self.name))
        };
        HELD.set(Some(self.name));
        MutexGuard {
            lock: self,
            inner: Some(inner),
        }
    }

    /// The lock class name this mutex was constructed with.
    pub fn name(&self) -> &'static str {
        self.name
    }
}

impl<T: fmt::Debug> fmt::Debug for TrackedMutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TrackedMutex")
            .field("name", &self.name)
            .field("inner", &self.inner)
            .finish()
    }
}

/// Guard returned by [`TrackedMutex::lock`].
pub struct MutexGuard<'a, T> {
    lock: &'a TrackedMutex<T>,
    /// `None` only transiently, while dissolved for a condvar wait.
    inner: Option<sync::MutexGuard<'a, T>>,
}

impl<'a, T> MutexGuard<'a, T> {
    /// Dissolve into the raw std guard *without* clearing the held note.
    /// Used around `Condvar::wait`, where std releases and reacquires the
    /// mutex internally.
    fn into_parts(mut self) -> (sync::MutexGuard<'a, T>, &'a TrackedMutex<T>) {
        let inner = self.inner.take().expect("guard already dissolved");
        (inner, self.lock)
    }
}

impl<T> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard dissolved")
    }
}

impl<T> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard dissolved")
    }
}

impl<T> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        if let Some(inner) = self.inner.take() {
            drop(inner);
            HELD.set(None);
            interleave::yield_point();
        }
    }
}

/// A named condition variable (audit mode).
pub struct TrackedCondvar {
    name: &'static str,
    inner: sync::Condvar,
    /// Bumped on every notify; explorer-mode waits spin on it instead of
    /// blocking, so notifications are never lost across managed threads.
    epoch: AtomicU64,
}

impl TrackedCondvar {
    /// A condvar named `name` for reporting purposes.
    pub fn new(name: &'static str) -> Self {
        TrackedCondvar {
            name,
            inner: sync::Condvar::new(),
            epoch: AtomicU64::new(0),
        }
    }

    /// Atomically release the guard's mutex and wait; reacquires on wake.
    pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        if interleave::is_active() {
            self.spin_wait(guard, None).0
        } else {
            let (inner, lock) = guard.into_parts();
            let inner = self
                .inner
                .wait(inner)
                .unwrap_or_else(|_| poisoned(self.name));
            MutexGuard {
                lock,
                inner: Some(inner),
            }
        }
    }

    /// [`Self::wait`] with a timeout. Under the explorer the timeout is
    /// modeled as a fixed budget of scheduler yields, keeping runs
    /// deterministic and wall-clock-free.
    pub fn wait_timeout<'a, T>(
        &self,
        guard: MutexGuard<'a, T>,
        dur: Duration,
    ) -> (MutexGuard<'a, T>, WaitTimeoutResult) {
        if interleave::is_active() {
            let (guard, timed_out) = self.spin_wait(guard, Some(500));
            (guard, WaitTimeoutResult { timed_out })
        } else {
            let (inner, lock) = guard.into_parts();
            let (inner, res) = self
                .inner
                .wait_timeout(inner, dur)
                .unwrap_or_else(|_| poisoned(self.name));
            (
                MutexGuard {
                    lock,
                    inner: Some(inner),
                },
                WaitTimeoutResult {
                    timed_out: res.timed_out(),
                },
            )
        }
    }

    /// Explorer-mode wait: release fully, spin on the notify epoch at yield
    /// points, then reacquire through [`TrackedMutex::lock`], which checks
    /// the rule again. Returns (guard, timed_out).
    fn spin_wait<'a, T>(
        &self,
        guard: MutexGuard<'a, T>,
        budget: Option<u64>,
    ) -> (MutexGuard<'a, T>, bool) {
        let lock = guard.lock;
        let epoch0 = self.epoch.load(Ordering::SeqCst);
        drop(guard);
        let mut spins: u64 = 0;
        loop {
            if self.epoch.load(Ordering::SeqCst) != epoch0 {
                return (lock.lock(), false);
            }
            spins += 1;
            match budget {
                Some(b) if spins > b => return (lock.lock(), true),
                None if spins > 1_000_000 => panic!(
                    "lock-audit: condvar '{}' made no progress after 1M explorer yields — \
                     lost notification or deadlocked schedule",
                    self.name
                ),
                _ => {}
            }
            interleave::yield_point();
        }
    }

    /// Wake one waiter.
    pub fn notify_one(&self) {
        self.epoch.fetch_add(1, Ordering::SeqCst);
        self.inner.notify_one();
        interleave::yield_point();
    }

    /// Wake all waiters.
    pub fn notify_all(&self) {
        self.epoch.fetch_add(1, Ordering::SeqCst);
        self.inner.notify_all();
        interleave::yield_point();
    }

    /// The condvar's name.
    pub fn name(&self) -> &'static str {
        self.name
    }
}

impl fmt::Debug for TrackedCondvar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TrackedCondvar")
            .field("name", &self.name)
            .finish()
    }
}

/// Result of [`TrackedCondvar::wait_timeout`].
#[derive(Clone, Copy, Debug)]
pub struct WaitTimeoutResult {
    timed_out: bool,
}

impl WaitTimeoutResult {
    /// True if the wait ended because the timeout elapsed.
    pub fn timed_out(&self) -> bool {
        self.timed_out
    }
}
