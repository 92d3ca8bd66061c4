//! Error type for constraint violations and misuse of the runtime.

use std::fmt;

/// Why an MPC execution could not proceed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MpcError {
    /// A machine would exceed its local memory capacity (`slack · S`).
    MemoryExceeded {
        /// Machine index.
        machine: usize,
        /// Words the machine would hold.
        words: usize,
        /// Enforced capacity.
        capacity: usize,
        /// Primitive in which the violation occurred.
        op: &'static str,
    },
    /// A machine would send or receive more than `slack · S` words in one
    /// round.
    BandwidthExceeded {
        /// The busiest machine in `direction` (the lowest index on ties).
        /// Synthetic rounds priced by formula rather than tallied per
        /// machine — aggregation-tree, broadcast and sample-sort splitter
        /// rounds — report machine 0, the first group's leader.
        machine: usize,
        /// Words the machine would transfer this round.
        words: usize,
        /// Enforced capacity.
        capacity: usize,
        /// `"send"` or `"recv"`.
        direction: &'static str,
        /// Primitive in which the violation occurred.
        op: &'static str,
    },
    /// The collection does not fit the deployment at all.
    InputTooLarge {
        /// Words needed.
        needed: usize,
        /// Words available in total.
        available: usize,
    },
    /// A destination machine index out of range was produced by a routing
    /// function.
    BadDestination {
        /// Offending machine index.
        dest: usize,
        /// Number of machines.
        num_machines: usize,
    },
    /// A caller-supplied collection has the wrong shape for the deployment
    /// (e.g. a per-machine vector whose length is not the machine count).
    ShapeMismatch {
        /// What was mis-shaped.
        what: &'static str,
        /// Expected element count.
        expected: usize,
        /// Actual element count.
        got: usize,
        /// Primitive that rejected the input.
        op: &'static str,
    },
}

impl fmt::Display for MpcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MpcError::MemoryExceeded { machine, words, capacity, op } => write!(
                f,
                "machine {machine} exceeds local memory in {op}: {words} words > capacity {capacity}"
            ),
            MpcError::BandwidthExceeded { machine, words, capacity, direction, op } => write!(
                f,
                "machine {machine} exceeds per-round {direction} bandwidth in {op}: {words} > {capacity}"
            ),
            MpcError::InputTooLarge { needed, available } => write!(
                f,
                "input of {needed} words exceeds total deployment memory {available}"
            ),
            MpcError::BadDestination { dest, num_machines } => write!(
                f,
                "routing produced destination {dest} but there are only {num_machines} machines"
            ),
            MpcError::ShapeMismatch {
                what,
                expected,
                got,
                op,
            } => write!(
                f,
                "{op}: expected {expected} {what}, got {got}"
            ),
        }
    }
}

impl std::error::Error for MpcError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display() {
        let e = MpcError::MemoryExceeded {
            machine: 3,
            words: 100,
            capacity: 64,
            op: "route",
        };
        assert!(e.to_string().contains("machine 3"));
        let e = MpcError::BandwidthExceeded {
            machine: 1,
            words: 9,
            capacity: 8,
            direction: "send",
            op: "route",
        };
        assert!(e.to_string().contains("send"));
        let e = MpcError::InputTooLarge {
            needed: 10,
            available: 5,
        };
        assert!(e.to_string().contains("10"));
        let e = MpcError::BadDestination {
            dest: 9,
            num_machines: 4,
        };
        assert!(e.to_string().contains("9"));
        let e = MpcError::ShapeMismatch {
            what: "summaries (one per machine)",
            expected: 4,
            got: 2,
            op: "scan",
        };
        assert!(e.to_string().contains("expected 4"));
        assert!(e.to_string().contains("got 2"));
    }
}
