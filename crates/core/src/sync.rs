//! The sync module: every lock in the pipeline comes from here.
//!
//! This is a facade over the workspace's `spanner-sync` crate (which also
//! instruments the vendored `rayon` pool — the dependency direction forces
//! the shared primitives into a crate below both). Pipeline code must not
//! construct raw `std::sync::{Mutex, Condvar, RwLock}` — `cargo xtask
//! analyze` enforces this (the `raw-sync` lint) so that `--features
//! lock-audit` builds see *every* lock in the serving stack and panic when
//! one is acquired while another is held.
//!
//! Without the feature these wrappers are zero-cost newtypes; the
//! `sync_overhead` bench in `crates/bench` pins that.

pub use spanner_sync::*;
