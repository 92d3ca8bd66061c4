//! Passthrough mode: zero-cost newtypes over `std::sync`.
//!
//! Everything here is `#[inline]` and carries no state beyond the class name,
//! so release builds compile tracked primitives down to the raw ones (pinned
//! by the `sync_overhead` bench in `crates/bench`). Poisoning panics with the
//! lock's class name — the call sites previously `.expect()`ed, so this is
//! the same abort-on-poison policy with a better message.

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::{self, PoisonError};
use std::time::Duration;

#[cold]
fn poisoned(name: &'static str) -> ! {
    panic!("tracked lock '{name}' poisoned: a thread panicked while holding it");
}

/// A named mutex. See the crate docs for the two compilation modes.
pub struct TrackedMutex<T> {
    name: &'static str,
    inner: sync::Mutex<T>,
}

impl<T> TrackedMutex<T> {
    /// Wrap `value` in a mutex belonging to lock class `name`.
    #[inline]
    pub fn new(name: &'static str, value: T) -> Self {
        TrackedMutex {
            name,
            inner: sync::Mutex::new(value),
        }
    }

    /// Consume the mutex, returning the inner value.
    #[inline]
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(|_| poisoned(self.name))
    }
}

impl<T> TrackedMutex<T> {
    /// Acquire the lock, blocking. Panics (with the class name) on poison.
    #[inline]
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard {
            inner: self
                .inner
                .lock()
                .unwrap_or_else(|_: PoisonError<_>| poisoned(self.name)),
        }
    }

    /// The lock class name this mutex was constructed with.
    #[inline]
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
    pub(crate) inner: sync::MutexGuard<'a, T>,
}

impl<T> Deref for MutexGuard<'_, T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> DerefMut for MutexGuard<'_, T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

/// A named condition variable.
pub struct TrackedCondvar {
    name: &'static str,
    inner: sync::Condvar,
}

impl TrackedCondvar {
    /// A condvar named `name` for reporting purposes.
    #[inline]
    pub fn new(name: &'static str) -> Self {
        TrackedCondvar {
            name,
            inner: sync::Condvar::new(),
        }
    }

    /// Atomically release the guard's mutex and wait; reacquires on wake.
    #[inline]
    pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        MutexGuard {
            inner: self
                .inner
                .wait(guard.inner)
                .unwrap_or_else(|_| poisoned(self.name)),
        }
    }

    /// [`Self::wait`] with a timeout.
    #[inline]
    pub fn wait_timeout<'a, T>(
        &self,
        guard: MutexGuard<'a, T>,
        dur: Duration,
    ) -> (MutexGuard<'a, T>, WaitTimeoutResult) {
        let (inner, res) = self
            .inner
            .wait_timeout(guard.inner, dur)
            .unwrap_or_else(|_| poisoned(self.name));
        (
            MutexGuard { inner },
            WaitTimeoutResult {
                timed_out: res.timed_out(),
            },
        )
    }

    /// Wake one waiter.
    #[inline]
    pub fn notify_one(&self) {
        self.inner.notify_one();
    }

    /// Wake all waiters.
    #[inline]
    pub fn notify_all(&self) {
        self.inner.notify_all();
    }

    /// The condvar's name.
    #[inline]
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
    pub(crate) timed_out: bool,
}

impl WaitTimeoutResult {
    /// True if the wait ended because the timeout elapsed.
    #[inline]
    pub fn timed_out(&self) -> bool {
        self.timed_out
    }
}
