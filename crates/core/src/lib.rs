//! # spanner-core
//!
//! The primary contribution of *"Massively Parallel Algorithms for
//! Distance Approximation and Spanners"* (Biswas, Dory, Ghaffari,
//! Mitrović, Nazari — SPAA 2021): spanner constructions whose parallel
//! round complexity is `poly(log k)` instead of the `O(k)` of
//! Baswana–Sen, at the price of a `k^{o(1)}`-ish factor in the stretch.
//!
//! ## Algorithms
//!
//! | module | paper | rounds (iterations) | stretch | size |
//! |---|---|---|---|---|
//! | [`pipeline::Algorithm::BaswanaSen`] | \[BS07] baseline | `k − 1` | `2k−1` | `O(k·n^{1+1/k})` |
//! | [`pipeline::Algorithm::ClusterMerging`] | §4 (Thm 4.14) | `⌈log k⌉` | `O(k^{log 3})` | `O(n^{1+1/k}log k)` |
//! | [`sqrt_k`] | §3 (Thm 3.4) | `O(√k)` | `O(k)` | `O(√k·n^{1+1/k})` |
//! | [`general`] | §5 (Thm 5.15) | `t·⌈log k/log(t+1)⌉` | `O(k^s)`, `s=log(2t+1)/log(t+1)` | `O(n^{1+1/k}(t+log k))` |
//! | [`presets`] | Cor 1.2 | the 4 named settings | | |
//! | [`unweighted_ok`] | App B (Thm 1.3) | `O(log k)` | `O(k)` (unweighted) | `O(k·n^{1+1/k})` |
//!
//! All of these work on **weighted** graphs except Appendix B's, which is
//! inherently unweighted (as in the paper).
//!
//! ## Execution models — enter through [`pipeline`]
//!
//! Every construction runs through [`pipeline`]: one typed
//! `SpannerRequest` (algorithm × backend × seed × verification policy)
//! with a `plan()` step that predicts the theorem bounds before running
//! and a `run()` that returns a unified `RunReport`; many requests fan
//! out concurrently with `par_iter().map(SpannerRequest::run)`. The
//! algorithm modules hold the constructions and their documentation;
//! their drivers are crate-private. For distance queries, a
//! `DistanceRequest` builds an oracle on the spanner; for long-lived
//! serving (register a graph once, answer many jobs from the budgeted
//! artifact store), continue to [`pipeline::service`], and put a
//! [`pipeline::JobQueue`] in front of it to bound how many jobs execute
//! at once.
//!
//! Every construction exists as a *sequential reference* (it executes
//! the exact per-iteration rules and is what the stretch/size
//! experiments run). The engine-schedule algorithms and Baswana–Sen are
//! schedules, lists of grow, contract and Phase 2 steps, and one loop
//! ([`general`]) walks them on every backend: additionally on a fully
//! *distributed driver* ([`mpc_driver`]) that executes through
//! [`mpc_runtime`]'s primitives with measured rounds and enforced
//! memory, on the Congested Clique, on the PRAM work/depth model, and
//! as a multi-pass stream — all five produce **identical spanners**
//! from the same seed (shared coins in [`coins`], identical
//! `(weight, id)` tie-breaks), which integration tests verify.

pub mod coins;
pub mod engine;
pub mod general;
pub mod mpc_driver;
pub mod params;
pub mod pipeline;
pub mod presets;
pub mod result;
pub mod sqrt_k;
pub mod streaming;
pub mod sync;
pub mod unweighted_ok;

pub use params::TradeoffParams;
pub use result::SpannerResult;
