//! The same held-lock call as `blocking_while_locked.rs`, waived at the
//! call site.

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
        // analyze:allow(lock-nesting): seeded nesting kept as the firing fixture
        self.settle();
        drop(a);
    }
}
