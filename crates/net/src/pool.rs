//! The thread-per-machine execution pool and the round barrier.
//!
//! [`MachinePool`] runs one OS thread per simulated machine, parked on a
//! tracked condvar between rounds. [`MachinePool::run_round`] publishes
//! one task, wakes every machine thread, and blocks until each has
//! executed it exactly once — the MPC model's synchronous round, made
//! literal. [`RoundBarrier`] is the in-round rendezvous the exchange
//! uses so nobody collects messages before everybody has posted.
//!
//! Everything synchronises through `spanner-sync` tracked primitives,
//! so `--features lock-audit` checks that no tracked lock is acquired
//! while another is held on the executor exactly as it does on the
//! serving stack.

use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;
use std::thread;

use spanner_sync::{TrackedCondvar, TrackedMutex};

/// A lifetime-erased pointer to the current round's task.
#[derive(Clone, Copy)]
struct TaskPtr(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointee is `Sync` (concurrent shared calls are allowed by
// its type) and the pointer never outlives the `run_round` borrow it was
// erased from — the coordinator blocks until every machine thread has
// finished calling it and clears the slot before returning.
unsafe impl Send for TaskPtr {}

struct PoolState {
    /// Bumped once per round; workers run the task when it changes.
    epoch: u64,
    task: Option<TaskPtr>,
    /// Machines finished with the current epoch's task.
    done: usize,
    shutdown: bool,
    /// First panic message captured from a machine thread this round.
    panic_msg: Option<String>,
}

struct Shared {
    state: TrackedMutex<PoolState>,
    cv: TrackedCondvar,
    machines: usize,
}

/// One OS thread per simulated machine, reused across rounds.
pub struct MachinePool {
    shared: Arc<Shared>,
    threads: Vec<thread::JoinHandle<()>>,
}

impl MachinePool {
    /// Spawns one worker thread per machine. Threads park immediately
    /// and cost nothing until the first [`Self::run_round`].
    pub fn spawn(machines: usize) -> Self {
        let shared = Arc::new(Shared {
            state: TrackedMutex::new(
                "net.pool.state",
                PoolState {
                    epoch: 0,
                    task: None,
                    done: 0,
                    shutdown: false,
                    panic_msg: None,
                },
            ),
            cv: TrackedCondvar::new("net.pool.cv"),
            machines,
        });
        let threads = (0..machines)
            .map(|m| {
                let shared = Arc::clone(&shared);
                // The executor's single audited spawn point: one thread per
                // simulated machine, parked between rounds, joined in Drop.
                // analyze:allow(stray-spawn): the threaded executor's one sanctioned nursery
                thread::Builder::new()
                    .name(format!("mpc-machine-{m}"))
                    .spawn(move || worker(m, &shared))
                    // analyze:allow(panic-path): construction-time spawn — an executor that cannot start is fatal by design
                    .expect("spawn machine thread")
            })
            .collect();
        MachinePool { shared, threads }
    }

    /// Number of machine threads.
    pub fn machines(&self) -> usize {
        self.shared.machines
    }

    /// Executes `task(m)` once on every machine thread and returns when
    /// all have finished — one synchronous round. If any machine thread
    /// panicked, the first captured panic is re-raised here.
    pub fn run_round(&self, task: &(dyn Fn(usize) + Sync)) {
        if self.shared.machines == 0 {
            return;
        }
        // SAFETY: erasing the borrow's lifetime is sound because this
        // function does not return until `done == machines` — every
        // dereference happens while the borrow is still live — and the
        // slot is cleared below before the borrow ends.
        let erased = TaskPtr(unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), *const (dyn Fn(usize) + Sync)>(task)
        });
        let mut s = self.shared.state.lock();
        s.epoch += 1;
        s.task = Some(erased);
        s.done = 0;
        s.panic_msg = None;
        self.shared.cv.notify_all();
        while s.done < self.shared.machines {
            s = self.shared.cv.wait(s);
        }
        s.task = None;
        let panicked = s.panic_msg.take();
        drop(s);
        if let Some(msg) = panicked {
            // analyze:allow(panic-path): deliberate re-raise — surfaces a captured machine-thread panic to the coordinator
            panic!("machine thread panicked during round: {msg}");
        }
    }
}

impl fmt::Debug for MachinePool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MachinePool")
            .field("machines", &self.shared.machines)
            .finish()
    }
}

impl Drop for MachinePool {
    fn drop(&mut self) {
        {
            let mut s = self.shared.state.lock();
            s.shutdown = true;
            self.shared.cv.notify_all();
        }
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// Machine thread `m`'s park/run loop: wait for a new epoch, run its
/// task (panics captured, never crossing the pool), report done.
fn worker(m: usize, shared: &Shared) {
    let mut seen_epoch = 0u64;
    let mut s = shared.state.lock();
    loop {
        if s.shutdown {
            return;
        }
        if s.epoch != seen_epoch {
            seen_epoch = s.epoch;
            // analyze:allow(panic-path): the coordinator publishes the task before bumping the epoch under this same mutex
            let task = s.task.expect("task published with its epoch");
            drop(s);
            // SAFETY: the coordinator keeps the task borrow alive until
            // every machine reports done for this epoch; ours is below.
            let result = panic::catch_unwind(AssertUnwindSafe(|| unsafe { (*task.0)(m) }));
            s = shared.state.lock();
            if let Err(payload) = result {
                let msg = panic_message(payload.as_ref());
                s.panic_msg.get_or_insert(msg);
            }
            s.done += 1;
            if s.done == shared.machines {
                shared.cv.notify_all();
            }
        } else {
            s = shared.cv.wait(s);
        }
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else {
        String::from("<non-string panic>")
    }
}

struct BarrierState {
    arrived: usize,
    generation: u64,
    poisoned: bool,
}

/// A reusable sense-reversing barrier: all parties must arrive before
/// any proceeds. The exchange interposes it between "everyone posted"
/// and "anyone collects" — the round's rendezvous point.
pub struct RoundBarrier {
    parties: usize,
    state: TrackedMutex<BarrierState>,
    cv: TrackedCondvar,
}

impl RoundBarrier {
    /// A barrier for `parties` threads (at least one).
    pub fn new(parties: usize) -> Self {
        assert!(parties > 0, "a barrier needs at least one party");
        RoundBarrier {
            parties,
            state: TrackedMutex::new(
                "net.barrier.state",
                BarrierState {
                    arrived: 0,
                    generation: 0,
                    poisoned: false,
                },
            ),
            cv: TrackedCondvar::new("net.barrier.cv"),
        }
    }

    /// Number of parties the barrier synchronises.
    pub fn parties(&self) -> usize {
        self.parties
    }

    /// Blocks until all parties have arrived; the last arriver releases
    /// the generation. Panics if the barrier was [`Self::poison`]ed (a
    /// peer died mid-round and can never arrive).
    pub fn arrive_and_wait(&self) {
        let mut s = self.state.lock();
        if s.poisoned {
            // analyze:allow(panic-path): deliberate fail-fast — a poisoned barrier means a peer died and will never arrive
            panic!("round barrier poisoned: a peer panicked mid-round");
        }
        s.arrived += 1;
        if s.arrived == self.parties {
            s.arrived = 0;
            s.generation = s.generation.wrapping_add(1);
            self.cv.notify_all();
            return;
        }
        let gen = s.generation;
        while s.generation == gen {
            s = self.cv.wait(s);
            if s.poisoned {
                // analyze:allow(panic-path): deliberate fail-fast — a poisoned barrier means a peer died and will never arrive
                panic!("round barrier poisoned: a peer panicked mid-round");
            }
        }
    }

    /// Marks the barrier dead and wakes all waiters, which panic instead
    /// of waiting forever for a party that will never arrive.
    pub fn poison(&self) {
        let mut s = self.state.lock();
        s.poisoned = true;
        self.cv.notify_all();
    }
}

impl fmt::Debug for RoundBarrier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RoundBarrier")
            .field("parties", &self.parties)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn run_round_visits_every_machine_every_round() {
        let pool = MachinePool::spawn(5);
        let hits = AtomicUsize::new(0);
        for round in 1..=4 {
            pool.run_round(&|_m| {
                hits.fetch_add(1, Ordering::SeqCst);
            });
            assert_eq!(hits.load(Ordering::SeqCst), 5 * round);
        }
    }

    #[test]
    fn run_round_passes_distinct_machine_indices() {
        let pool = MachinePool::spawn(8);
        let mask = AtomicUsize::new(0);
        pool.run_round(&|m| {
            mask.fetch_or(1 << m, Ordering::SeqCst);
        });
        assert_eq!(mask.load(Ordering::SeqCst), 0xFF);
    }

    #[test]
    fn machine_panic_surfaces_at_the_coordinator() {
        let pool = MachinePool::spawn(3);
        let err = std::thread::spawn(move || {
            pool.run_round(&|m| {
                if m == 1 {
                    panic!("machine 1 exploded");
                }
            });
        })
        .join()
        .expect_err("panic must propagate");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("machine 1 exploded"), "got: {msg}");
    }

    #[test]
    fn pool_survives_a_panicked_round() {
        let pool = Arc::new(MachinePool::spawn(2));
        let pool2 = Arc::clone(&pool);
        std::thread::spawn(move || {
            pool2.run_round(&|_| panic!("boom"));
        })
        .join()
        .expect_err("panic propagates");
        // The next round still runs on every machine.
        let hits = AtomicUsize::new(0);
        pool.run_round(&|_| {
            hits.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(hits.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn barrier_separates_rounds() {
        let pool = MachinePool::spawn(4);
        let barrier = RoundBarrier::new(4);
        let before = AtomicUsize::new(0);
        let violations = AtomicUsize::new(0);
        pool.run_round(&|_m| {
            before.fetch_add(1, Ordering::SeqCst);
            barrier.arrive_and_wait();
            // After the barrier, every party must have passed "before".
            if before.load(Ordering::SeqCst) != 4 {
                violations.fetch_add(1, Ordering::SeqCst);
            }
        });
        assert_eq!(violations.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn barrier_is_reusable_across_generations() {
        let pool = MachinePool::spawn(3);
        let barrier = RoundBarrier::new(3);
        let counter = AtomicUsize::new(0);
        pool.run_round(&|_m| {
            for step in 1..=5 {
                counter.fetch_add(1, Ordering::SeqCst);
                barrier.arrive_and_wait();
                assert!(counter.load(Ordering::SeqCst) >= 3 * step);
            }
        });
        assert_eq!(counter.load(Ordering::SeqCst), 15);
        assert_eq!(barrier.parties(), 3);
    }

    #[test]
    fn poisoned_barrier_panics_instead_of_hanging() {
        let pool = MachinePool::spawn(2);
        let barrier = Arc::new(RoundBarrier::new(3));
        let b = Arc::clone(&barrier);
        barrier.poison();
        let err = std::thread::spawn(move || b.arrive_and_wait())
            .join()
            .expect_err("poisoned barrier must panic");
        let msg = panic_message(err.as_ref());
        assert!(msg.contains("poisoned"), "got: {msg}");
        drop(pool);
    }
}
