//! # mpc-spanners
//!
//! A full reproduction of *"Massively Parallel Algorithms for Distance
//! Approximation and Spanners"* (Biswas, Dory, Ghaffari, Mitrović,
//! Nazari — SPAA 2021, arXiv:2003.01254) as a Rust workspace.
//!
//! **Start at [`pipeline`]** — the one front door over every algorithm
//! × execution model: build a [`pipeline::SpannerRequest`], inspect its
//! [`pipeline::SpannerRequest::plan`] (predicted rounds/stretch/size
//! before running), then [`pipeline::SpannerRequest::run`] it on any
//! [`pipeline::Backend`] (sequential, MPC, Congested Clique, PRAM,
//! streaming) for a unified [`pipeline::RunReport`]. Many requests fan
//! out concurrently with `par_iter().map(SpannerRequest::run)`, each
//! with its own deadline ([`pipeline::SpannerRequest::deadline`]). For
//! the paper's headline *application* — serving approximate distance
//! queries (Section 7 / §1.2) — compose a
//! [`pipeline::DistanceRequest`] with a [`pipeline::QueryEngine`]
//! (exact Dijkstra-on-spanner or Thorup–Zwick sketches) and
//! [`pipeline::DistanceRequest::build`] a [`pipeline::DistanceOracle`]
//! whose batched queries carry the composed `σ·(2λ−1)` guarantee; the
//! Corollary 1.4/1.5 oracle is [`apsp::apsp_request`] on MPC or the
//! Congested Clique.
//!
//! **Serving long-lived traffic? Go one level up to
//! [`pipeline::service`]**: a [`pipeline::SpannerService`] turns the
//! one-shot flow into register-once/serve-many —
//! [`pipeline::SpannerService::register`] a graph for an `Arc`'d,
//! fingerprint-deduped, *versioned* [`pipeline::GraphHandle`], then
//! submit handle-based jobs ([`pipeline::SpannerService::spanner`],
//! [`pipeline::SpannerService::oracle`]) that are answered from its one
//! memory-budgeted LRU artifact store, with cancellation
//! ([`pipeline::CancelToken`]) and [`pipeline::ServiceStats`] counters.
//! A [`pipeline::JobSpec`] is the one description of such a job, and
//! blocking and queued jobs are served by one build-or-hit path. Jobs
//! run the same guarded build as the one-shot request types, so both
//! flows produce bit-identical artifacts at equal seeds.
//!
//! **Scaling the tier out?** [`pipeline::ShardedService`] puts N inner
//! services routed by a hash of the registry key (per-shard budgets and
//! locks, cross-shard stats rollup, rebalance-on-reregistration), and
//! [`pipeline::JobQueue`] is its non-blocking front door and the one
//! admission point: submit a [`pipeline::JobSpec`] for a
//! [`pipeline::JobId`] immediately, with a fixed worker pool, priority
//! lanes, per-client fair admission, condvar-driven waits and
//! pre-execution cancel/deadline resolution (a queued job's deadline
//! runs from submission). Warm-up is "submit N at
//! [`pipeline::Priority::Batch`], wait N". The shard count is
//! unobservable in answers — every tier shape returns bit-identical
//! artifacts.
//!
//! This facade crate re-exports the public surface of the workspace:
//!
//! * [`pipeline`] — the unified request/plan/report API (start here);
//! * [`graph`] — graph substrate (CSR graphs, generators, exact
//!   distances, spanner verification);
//! * [`mpc`] — the MPC model simulator (machines, rounds, memory
//!   accounting, Section 6 primitives);
//! * [`core`] — the paper's spanner constructions (Baswana–Sen
//!   baseline, §3 `√k`, §4 cluster merging, §5 general trade-off,
//!   Appendix B unweighted `O(k)`) and their drivers for every model:
//!   sequential, MPC, §8 Congested Clique, PRAM work/depth, streams;
//! * [`apsp`] — §7/§8 distance approximation (Corollaries 1.4 and 1.5)
//!   and its quality measurements.
//!
//! ## Quickstart
//!
//! ```
//! use mpc_spanners::pipeline::{Algorithm, Backend, SpannerRequest, Verification};
//! use mpc_spanners::core::TradeoffParams;
//! use mpc_spanners::graph::generators::{connected_erdos_renyi, WeightModel};
//!
//! let g = connected_erdos_renyi(200, 0.05, WeightModel::Uniform(1, 16), 7);
//! // Corollary 1.2(3): t = log k, stretch k^{1+o(1)} in O(log²k/loglog k) rounds.
//! let request = SpannerRequest::new(&g, Algorithm::General(TradeoffParams::log_k(8)))
//!     .seed(42)
//!     .verification(Verification::Enforce);
//!
//! let plan = request.plan().unwrap(); // predicted bounds, before running
//! let report = request.run().unwrap(); // runs + verifies inline
//! assert_eq!(report.result.iterations, plan.iterations);
//! assert!(report.verification.unwrap().ok());
//!
//! // The same request, unmodified, on the MPC simulator: identical
//! // spanner edges, plus measured rounds/traffic/peak memory.
//! let mpc = request.clone().on(Backend::mpc()).run().unwrap();
//! assert_eq!(mpc.result.edges, report.result.edges);
//! assert!(mpc.stats.model_rounds().unwrap() > 0);
//!
//! // The serving stage: the same construction as a distance oracle
//! // answering batched queries under the composed guarantee.
//! use mpc_spanners::pipeline::{DistanceRequest, QueryEngine};
//! let oracle = DistanceRequest::from_spanner_request(request)
//!     .engine(QueryEngine::Sketches { levels: 2 })
//!     .build()
//!     .unwrap();
//! let answers = oracle.query_batch(&[(0, 150), (7, 42)]);
//! assert!(answers.iter().all(|&d| d < u64::MAX)); // connected pairs stay finite
//! assert_eq!(oracle.stretch_bound(), oracle.substrate_stretch() * 3.0);
//! ```

pub use mpc_runtime as mpc;
pub use spanner_apsp as apsp;
pub use spanner_core as core;
pub use spanner_core::pipeline;
pub use spanner_graph as graph;
