//! `stall` holds `fix.aux` across a call to `settle`, which takes
//! `fix.state` and parks on the condvar `fix.ready` — only the guard
//! passed to the wait is released, so `fix.aux` stays pinned. The
//! lock-nesting pass must fire at the call site with the
//! `stall → settle` chain.

pub struct Gate {
    state: TrackedMutex<u32>,
    aux: TrackedMutex<u32>,
    ready: TrackedCondvar,
}

impl Gate {
    pub fn new() -> Self {
        Gate {
            state: TrackedMutex::new("fix.state", 0),
            aux: TrackedMutex::new("fix.aux", 0),
            ready: TrackedCondvar::new("fix.ready"),
        }
    }

    fn settle(&self) {
        let mut s = self.state.lock();
        s = self.ready.wait(s);
        drop(s);
    }

    pub fn stall(&self) {
        let a = self.aux.lock();
        self.settle();
        drop(a);
    }
}
