//! Seeded two-lock inversion: `ab` takes `fix.a` then `fix.b`, `ba`
//! takes them in the opposite order — the classic deadlock pair. Each fn
//! acquires one lock while holding the other, so the lock-nesting pass
//! must report one finding in each.

pub struct Pair {
    a: TrackedMutex<u32>,
    b: TrackedMutex<u32>,
}

impl Pair {
    pub fn new() -> Self {
        Pair {
            a: TrackedMutex::new("fix.a", 0),
            b: TrackedMutex::new("fix.b", 0),
        }
    }

    pub fn ab(&self) {
        let ga = self.a.lock();
        let gb = self.b.lock();
        drop((ga, gb));
    }

    pub fn ba(&self) {
        let gb = self.b.lock();
        let ga = self.a.lock();
        drop((ga, gb));
    }
}
