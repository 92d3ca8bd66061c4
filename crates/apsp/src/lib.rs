//! # spanner-apsp
//!
//! Section 7 of the paper: **distance approximation in near-linear-memory
//! MPC** (Corollary 1.4), and its Congested Clique twin (Corollary 1.5).
//!
//! The pipeline is exactly the paper's:
//!
//! 1. build a spanner with `k = ⌈log₂ n⌉` and `t = ⌈log₂ log₂ n⌉` — size
//!    `O(n log log n)`, stretch `O(log^s n)` with
//!    `s = log(2t+1)/log(t+1)`, in `O(t·log log n / log(t+1))` grow
//!    iterations;
//! 2. collect it: with `Õ(n)` memory per machine, ship the whole spanner
//!    to one machine (a single gather round — the spanner fits); in the
//!    Congested Clique, disseminate it to every node by Lenzen routing;
//! 3. answer any shortest-path query on the spanner; the spanner
//!    property turns them into `O(log^s n)`-approximate answers for the
//!    original graph.
//!
//! The whole flow runs through the pipeline's distance stage:
//! [`apsp_request`] is the Corollary 1.4/1.5 [`DistanceRequest`], and
//! `.on(backend).build()` returns a queryable [`DistanceOracle`] —
//! `Backend::mpc_deployment(MpcDeployment::NearLinear)` for Corollary
//! 1.4, `Backend::CongestedClique { repetitions }` for Corollary 1.5.
//! [`eval`] and [`sketches`] measure empirical approximation ratios
//! against exact Dijkstra — the quantities experiments E6 and E11
//! report against the composed guarantee.
//!
//! [`DistanceRequest`]: spanner_core::pipeline::DistanceRequest
//! [`DistanceOracle`]: spanner_core::pipeline::DistanceOracle

pub mod eval;
pub mod oracle;
pub mod sketches;

pub use eval::{measure_distance_oracle, ApproxReport};
pub use oracle::apsp_request;
pub use sketches::{evaluate_sketch_oracle, SketchReport};
