//! A simulator for the **Massively Parallel Computation (MPC)** model
//! \[Karloff–Suri–Vassilvitskii '10; Beame–Koutris–Suciu '13; Goodrich–
//! Sitchinava–Zhang '11], as used by *"Massively Parallel Algorithms for
//! Distance Approximation and Spanners"* (SPAA 2021).
//!
//! # The model
//!
//! An input of `N` words is distributed across `P` machines, each with
//! local memory `S` words (`S = n^γ` in the strongly sublinear regime,
//! `S = Õ(n)` in the near-linear regime). Computation proceeds in
//! synchronous rounds; per round, each machine sends and receives at most
//! `S` words. The complexity measure is the number of rounds.
//!
//! # What this crate does
//!
//! * [`MpcSystem`] owns the configuration and the **accounting**: every
//!   communication primitive executed through it advances the round
//!   counter by the number of supersteps it actually performs, and
//!   validates the per-machine memory/bandwidth budget of every superstep
//!   (constraint violations surface as [`MpcError`]). Rounds are therefore
//!   *measured*, never asserted.
//! * [`Dist`] is a distributed collection: a vector of machine-local
//!   shards of fixed-width [`Record`]s.
//! * [`comm`] implements the raw communication layer: all-to-all
//!   [`comm::route`], `n^γ`-ary aggregation trees
//!   ([`comm::reduce_tree`], [`comm::machine_scan`]) — the exact
//!   subroutines of the paper's Section 6 ("Sort", "Find Minimum" via
//!   implicit aggregation trees of branching factor `n^γ`) — and
//!   [`comm::gather_to_machine`] (the Section 7 "collect the spanner on
//!   one machine" step).
//! * [`primitives`] builds the Section 6 toolbox on top: sample
//!   [`primitives::sort_by_key`] (Goodrich et al.), the one-round hash
//!   semisort [`primitives::group_by_key`] with aggregation / find-min on
//!   top ([`primitives::aggregate_by_key`]), and segmented broadcast of
//!   group labels ([`primitives::forward_fill`]).
//!
//! Machine-local work within one superstep runs in parallel with rayon
//! (machines are independent by definition), but all observable results
//! are deterministic: shards are combined in machine order.
//!
//! # Predicted cluster time
//!
//! Rounds and words are the model's currency. [`Metrics::predicted_seconds`]
//! converts them into simulated seconds on a concrete cluster under a
//! pluggable [`NetworkModel`] (fixed latency plus critical-link bytes
//! over the link bandwidth, or total bytes over a switch's bisection),
//! in closed form from the metrics a run accumulated.

pub mod comm;
pub mod config;
pub mod dist;
pub mod error;
pub mod metrics;
pub mod primitives;
pub mod record;
pub mod system;

pub use config::MpcConfig;
pub use dist::Dist;
pub use error::MpcError;
pub use metrics::Metrics;
pub use record::Record;
pub use spanner_net::{NetworkModel, WORD_BYTES};
pub use system::MpcSystem;

/// Crate-wide result type.
pub type Result<T> = std::result::Result<T, MpcError>;
