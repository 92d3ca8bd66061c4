//! `spanner-net`: network cost models that price MPC rounds in seconds.
//!
//! The MPC runtime counts abstract rounds and the words each machine
//! sends and receives. A [`NetworkModel`] turns that traffic into
//! simulated seconds on a concrete cluster shape: per round
//! ([`NetworkModel::round_cost`]) or in closed form over a whole run
//! ([`NetworkModel::predict`], which `mpc_runtime::Metrics::predicted_seconds`
//! evaluates on a run's accumulated metrics).

pub mod model;

pub use model::{NetworkModel, WORD_BYTES};
