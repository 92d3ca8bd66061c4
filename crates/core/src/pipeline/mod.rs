//! The **one front door**: a unified request → plan → report API over
//! every algorithm × execution model in the workspace.
//!
//! The paper presents one algorithmic family (clustering/contraction
//! schedules, Theorem 1.1 / Corollary 1.2) realised in several
//! computation models — MPC, Congested Clique, PRAM, multi-pass
//! streams, and the plain sequential reference. Every model is a
//! [`Backend`] of one typed flow:
//!
//! ```
//! use spanner_core::pipeline::{Algorithm, Backend, SpannerRequest};
//! use spanner_core::TradeoffParams;
//! use spanner_graph::generators::{connected_erdos_renyi, WeightModel};
//!
//! let g = connected_erdos_renyi(200, 0.05, WeightModel::Uniform(1, 16), 7);
//! let request = SpannerRequest::new(&g, Algorithm::General(TradeoffParams::log_k(8)))
//!     .on(Backend::mpc())
//!     .seed(42);
//! let plan = request.plan().unwrap();     // predicted bounds, before running
//! let report = request.run().unwrap();    // one unified report
//! assert_eq!(report.result.epochs, plan.epochs);
//! assert!(report.stats.model_rounds().unwrap() > 0);
//! ```
//!
//! * [`SpannerRequest`] — graph + [`Algorithm`] + [`Backend`] + seed +
//!   [`Verification`] policy, built fluently;
//! * [`SpannerRequest::plan`] — the *predicted* schedule and bounds
//!   (epochs, iterations, stretch, size — straight from
//!   [`TradeoffParams`]) without running anything;
//! * [`SpannerRequest::run`] — executes on the chosen backend and
//!   returns a [`RunReport`]: the [`SpannerResult`], the
//!   backend-specific cost ([`ExecutionStats`]), and (optionally) an
//!   inline verification outcome;
//! * [`service`] — **the long-lived serving front door**: a
//!   [`SpannerService`] owning a fingerprint-deduped, versioned graph
//!   registry ([`SpannerService::register`] → [`GraphHandle`]), the one
//!   memory-budgeted LRU artifact store ([`HeapSize`]-sized spanners
//!   and oracles) and [`ServiceStats`]. Register once, serve many; a
//!   [`JobQueue`] in front of a [`ShardedService`] is the one admission
//!   point, and a batch is "submit N, wait N";
//! * [`distance`] — the Section 7 / §1.2 serving stage: a
//!   [`DistanceRequest`] composes any spanner request with a
//!   [`QueryEngine`] (exact Dijkstra or Thorup–Zwick sketches) into a
//!   [`DistanceOracle`] answering distance queries under the composed
//!   `σ·(2λ−1)` guarantee, with batched queries and the MPC "+1
//!   gather" charged faithfully.
//!
//! Many borrowed requests fan out with
//! `par_iter().map(SpannerRequest::run)`: each request fails
//! independently, and results come back in input order. Per-request
//! deadlines ([`SpannerRequest::deadline`]) bound tail latency;
//! cancellation belongs to service and queue jobs
//! ([`SpannerJob::cancel`], [`OracleJob::cancel`], [`JobSpec::cancel`]).
//!
//! ## Algorithm × backend support matrix
//!
//! | algorithm | Sequential | Mpc | CongestedClique | Pram | Streaming |
//! |---|---|---|---|---|---|
//! | [`Algorithm::General`] | ✓ | ✓ | ✓ | ✓ | ✓ |
//! | [`Algorithm::ClusterMerging`] | ✓ | ✓ | ✓ | ✓ | ✓ |
//! | [`Algorithm::Corollary`] | ✓ | ✓ | ✓ | ✓ | ✓ |
//! | [`Algorithm::BaswanaSen`] | ✓ | ✓ | ✓ | ✓ | ✓ |
//! | [`Algorithm::SqrtK`] | ✓ | — | — | — | — |
//! | [`Algorithm::UnweightedOk`] | ✓ | — | — | — | — |
//!
//! The first four rows are schedules: lists of grow, contract and
//! Phase 2 steps that one loop walks on every backend (Baswana–Sen's
//! has no contraction). They draw shared coins from [`crate::coins`],
//! so **the same request produces bit-identical spanner edges on every
//! backend** — the cross-backend agreement tests pin this. The last two
//! rows run on the sequential engine only: Section 3 renumbers its
//! contracted graph for its black box, which the distributed drivers do
//! not model, and Appendix B has no distributed driver. Requesting them
//! on another backend yields [`PipelineError::UnsupportedBackend`] with
//! a hint.

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mpc_runtime::{Metrics, MpcConfig, MpcError};
use spanner_graph::verify::verify_spanner;
use spanner_graph::Graph;

use crate::engine::Engine;
use crate::general::{self, Executor as _, Step};
use crate::params::TradeoffParams;
use crate::result::SpannerResult;
use crate::unweighted_ok::UnweightedOkConfig;

pub mod clique;
pub mod distance;
pub mod pram_cost;
pub mod queue;
pub mod service;
pub mod shard;

pub use clique::CcNetwork;
pub use distance::{
    BuildGuard, DistanceBuildStats, DistanceOracle, DistancePlan, DistanceRequest,
    DistanceSketches, QueryEngine,
};
pub use pram_cost::{log_star, PramTracker};
pub use queue::{ClientId, JobId, JobQueue, JobStatus, Priority, QueueStats};
pub use service::{
    GraphHandle, HeapSize, JobOutput, JobSpec, LruStore, OracleJob, ServiceStats, SpannerJob,
    SpannerService,
};
pub use shard::ShardedService;

// The request vocabulary in one import: algorithms are parameterised by
// these types, so the pipeline re-exports them.
pub use crate::params::ParamError;
pub use crate::presets::CorollarySetting;
pub use crate::unweighted_ok::UnweightedOkStats;
// The network vocabulary, so callers can price a run's `MpcStats` with
// `metrics.predicted_seconds(model)` without importing mpc-runtime
// directly.
pub use mpc_runtime::NetworkModel;

// ---------------------------------------------------------------------
// Request vocabulary
// ---------------------------------------------------------------------

/// Which spanner construction to run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Algorithm {
    /// The \[BS07] baseline: `k − 1` grow iterations and Phase 2 without
    /// a contraction, stretch `2k−1`.
    /// `General(TradeoffParams::baswana_sen(k))` has the same guarantees,
    /// but takes a `k`-th step and contracts, so its spanner differs.
    BaswanaSen {
        /// Size exponent (spanner size `O(k·n^{1+1/k})`).
        k: u32,
    },
    /// Section 4, the cluster-cluster merging algorithm (Theorem 4.14):
    /// the fastest end of the trade-off. `⌈log₂ k⌉` epochs, each a
    /// single grow iteration followed by a contraction, with the
    /// doubly-exponential sampling schedule `p_i = n^{-2^{i-1}/k}`;
    /// stretch `O(k^{log 3})`, expected size `O(n^{1+1/k} log k)`, on
    /// weighted graphs.
    ///
    /// As Section 5 observes, this is exactly the general algorithm at
    /// `t = 1` (the sampling schedule and the per-iteration rules
    /// coincide literally; see
    /// `params::tests::probabilities_decrease_doubly_exponentially`).
    /// The result carries Theorem 4.10's specialised bound (paths of
    /// weight ≤ `k^{log 3}·w_e`), and tracked radii obey Theorem 4.8's
    /// `(3^i − 1)/2` law.
    ClusterMerging {
        /// Size exponent.
        k: u32,
    },
    /// Section 3: two phases of `⌈√k⌉` iterations, stretch `O(k)`
    /// (sequential-only; the paper's `O(√k)`-round construction).
    SqrtK {
        /// Size exponent.
        k: u32,
    },
    /// Section 5: the general round/stretch trade-off at explicit
    /// parameters.
    General(TradeoffParams),
    /// One of the four named Corollary 1.2 settings; `k` is ignored by
    /// [`CorollarySetting::ApspRegime`], which derives it from `n`.
    Corollary {
        /// The named point on the trade-off curve.
        setting: CorollarySetting,
        /// Size exponent handed to the setting.
        k: u32,
    },
    /// Appendix B: `O(k)` stretch on **unweighted** graphs
    /// (sequential-only). The decomposition statistics land in
    /// [`SpannerResult::decomposition`].
    UnweightedOk {
        /// Stretch parameter.
        k: u32,
        /// Appendix B tuning knobs.
        config: UnweightedOkConfig,
    },
}

impl Algorithm {
    /// Human-readable label (the `algorithm` field of the sequential
    /// backend's result).
    pub fn label(&self) -> String {
        match *self {
            Algorithm::BaswanaSen { k } => format!("baswana-sen(k={k})"),
            Algorithm::ClusterMerging { k } => format!("cluster-merging(k={k})"),
            Algorithm::SqrtK { k } => format!("sqrt-k(k={k})"),
            Algorithm::General(p) => format!("general(k={},t={})", p.k, p.t),
            Algorithm::Corollary { setting, .. } => setting.label(),
            Algorithm::UnweightedOk { k, config } => {
                format!("unweighted-ok(k={k},gamma={})", config.gamma)
            }
        }
    }

    /// The engine schedule this algorithm runs, when it is an engine
    /// algorithm (first three rows of the support matrix).
    fn schedule(&self, n: usize) -> Result<Option<TradeoffParams>, PipelineError> {
        match *self {
            Algorithm::General(p) => Ok(Some(p)),
            Algorithm::ClusterMerging { k } => Ok(Some(TradeoffParams::cluster_merging(k))),
            Algorithm::Corollary { setting, k } => setting
                .try_params(n, k)
                .map(Some)
                .map_err(|e| PipelineError::InvalidRequest(e.to_string())),
            _ => Ok(None),
        }
    }

    fn validate(&self, g: &Graph) -> Result<(), PipelineError> {
        let err = |m: String| Err(PipelineError::InvalidRequest(m));
        match *self {
            Algorithm::BaswanaSen { k }
            | Algorithm::ClusterMerging { k }
            | Algorithm::SqrtK { k }
                if k == 0 =>
            {
                err(format!("{}: k must be at least 1", self.label()))
            }
            Algorithm::General(p) if p.k == 0 => err("general: k must be at least 1".into()),
            Algorithm::UnweightedOk { k, config } => {
                if k == 0 {
                    return err("unweighted-ok: k must be at least 1".into());
                }
                if !(config.gamma > 0.0 && config.gamma < 1.0) {
                    return err(format!(
                        "unweighted-ok: gamma must be in (0,1), got {}",
                        config.gamma
                    ));
                }
                if !g.is_unweighted() {
                    return err(
                        "unweighted-ok: Appendix B's algorithm is defined for unweighted \
                         graphs only (use Graph::unweighted_copy)"
                            .into(),
                    );
                }
                Ok(())
            }
            _ => Ok(()),
        }
    }
}

/// How the requested number of MPC machines / words per machine is
/// derived at run time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MpcDeployment {
    /// `S = Θ(n^γ)` words per machine (Theorem 1.1's regime).
    StronglySublinear {
        /// Memory exponent `γ ∈ (0, 1)`.
        gamma: f64,
    },
    /// `S = Θ(n)` words per machine (the Section 7 APSP regime).
    NearLinear,
    /// An explicit deployment, taken as-is.
    Explicit(MpcConfig),
}

impl MpcDeployment {
    fn validate(&self) -> Result<(), PipelineError> {
        if let MpcDeployment::StronglySublinear { gamma } = *self {
            if !(gamma > 0.0 && gamma < 1.0) {
                return Err(PipelineError::InvalidRequest(format!(
                    "mpc: gamma must be in (0,1), got {gamma}"
                )));
            }
        }
        Ok(())
    }

    fn config(&self, g: &Graph) -> MpcConfig {
        let input_words = 4 * g.m() + 2 * g.n() + 64;
        match *self {
            MpcDeployment::StronglySublinear { gamma } => {
                MpcConfig::strongly_sublinear(g.n(), gamma, input_words)
            }
            MpcDeployment::NearLinear => MpcConfig::near_linear(g.n(), input_words),
            MpcDeployment::Explicit(config) => config,
        }
    }
}

impl From<MpcConfig> for MpcDeployment {
    fn from(config: MpcConfig) -> Self {
        MpcDeployment::Explicit(config)
    }
}

/// Which computation model executes the request.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Backend {
    /// The in-memory reference implementation (fastest wall clock; the
    /// answer every other backend must reproduce).
    #[default]
    Sequential,
    /// The MPC simulator: measured rounds/traffic, enforced memory.
    Mpc {
        /// How machine count / words per machine are derived.
        deployment: MpcDeployment,
    },
    /// The Congested Clique with Section 8's parallel repetition
    /// (`repetitions = 1` disables the w.h.p. amplification and is
    /// coin-identical to `Sequential`).
    CongestedClique {
        /// Parallel repetitions per iteration (`1..=64`).
        repetitions: usize,
    },
    /// CRCW PRAM work/depth accounting.
    Pram,
    /// Multi-pass dynamic-stream accounting (Section 2.4).
    Streaming,
}

impl Backend {
    /// The default MPC deployment (`γ = 0.5`, strongly sublinear).
    pub fn mpc() -> Self {
        Backend::mpc_deployment(MpcDeployment::StronglySublinear { gamma: 0.5 })
    }

    /// A strongly sublinear MPC deployment with explicit `γ`.
    pub fn mpc_gamma(gamma: f64) -> Self {
        Backend::mpc_deployment(MpcDeployment::StronglySublinear { gamma })
    }

    /// An MPC backend with the given deployment. Accepts an
    /// [`MpcDeployment`] or a bare [`MpcConfig`].
    pub fn mpc_deployment(deployment: impl Into<MpcDeployment>) -> Self {
        Backend::Mpc {
            deployment: deployment.into(),
        }
    }

    /// The Congested Clique without repetition amplification
    /// (coin-identical to `Sequential`).
    pub fn congested_clique() -> Self {
        Backend::CongestedClique { repetitions: 1 }
    }

    /// Short name for tables and error messages.
    pub fn name(&self) -> &'static str {
        match self {
            Backend::Sequential => "sequential",
            Backend::Mpc { .. } => "mpc",
            Backend::CongestedClique { .. } => "congested-clique",
            Backend::Pram => "pram",
            Backend::Streaming => "streaming",
        }
    }

    /// The cost of a run that built no backend state: the `k = 1` and
    /// edgeless shortcut, which returns the whole graph.
    fn idle_stats(&self, g: &Graph) -> ExecutionStats {
        match *self {
            Backend::Sequential => ExecutionStats::Sequential,
            Backend::Mpc { deployment } => ExecutionStats::Mpc(MpcStats {
                metrics: Metrics::default(),
                config: deployment.config(g),
            }),
            Backend::CongestedClique { repetitions } => ExecutionStats::CongestedClique(CcStats {
                rounds: 0,
                total_words: 0,
                repetitions,
                chosen_runs: vec![],
            }),
            Backend::Pram => ExecutionStats::Pram(PramStats {
                depth: 0,
                work: 0,
                log_star_n: log_star(g.n().max(2)),
            }),
            Backend::Streaming => ExecutionStats::Streaming(StreamingStats {
                passes: 0,
                quoted_stretch_exponent: 1.0,
            }),
        }
    }

    fn validate(&self) -> Result<(), PipelineError> {
        match self {
            Backend::Mpc { deployment, .. } => deployment.validate(),
            Backend::CongestedClique { repetitions } => {
                if *repetitions == 0 {
                    Err(PipelineError::InvalidRequest(
                        "congested-clique: need at least one repetition".into(),
                    ))
                } else if *repetitions > 64 {
                    Err(PipelineError::InvalidRequest(
                        "congested-clique: coins for all runs must pack into one \
                         O(log n)-bit message (repetitions ≤ 64)"
                            .into(),
                    ))
                } else {
                    Ok(())
                }
            }
            _ => Ok(()),
        }
    }
}

/// Whether (and how strictly) to verify the spanner inline after the
/// run. Verification runs exact Dijkstras
/// ([`spanner_graph::verify::verify_spanner`]) — intended for
/// verification-sized graphs, not production traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Verification {
    /// No inline verification (the default).
    #[default]
    Skip,
    /// Verify and record the outcome in [`RunReport::verification`].
    Report,
    /// Verify; a violated guarantee turns the run into
    /// [`PipelineError::VerificationFailed`].
    Enforce,
}

/// Outcome of an inline verification pass.
#[derive(Debug, Clone)]
pub struct VerificationOutcome {
    /// Every host edge is spanned (connectivity preserved).
    pub all_edges_spanned: bool,
    /// Max over host edges of `d_H(u,v)/w(u,v)`.
    pub max_edge_stretch: f64,
    /// The guarantee the construction claimed.
    pub stretch_bound: f64,
}

impl VerificationOutcome {
    /// Did the spanner meet its guarantees?
    pub fn ok(&self) -> bool {
        self.all_edges_spanned && self.max_edge_stretch <= self.stretch_bound + 1e-9
    }
}

// ---------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------

/// Why a request could not be planned or executed. Requests fail
/// *individually* — a malformed request among many fanned out together
/// yields an `Err` slot, never a panic that aborts its neighbours.
#[derive(Debug, Clone)]
pub enum PipelineError {
    /// The request is malformed (k = 0, ε ≤ 0, weighted input to the
    /// unweighted algorithm, γ out of range, …).
    InvalidRequest(String),
    /// The algorithm has no driver for the requested backend.
    UnsupportedBackend {
        /// Label of the requested algorithm.
        algorithm: String,
        /// Name of the requested backend.
        backend: &'static str,
        /// What to request instead.
        hint: String,
    },
    /// The MPC simulator rejected the run (memory/bandwidth violation).
    Mpc(MpcError),
    /// [`Verification::Enforce`] was requested and the spanner violated
    /// its guarantee.
    VerificationFailed {
        /// Label of the algorithm that produced the spanner.
        algorithm: String,
        /// The recorded outcome.
        outcome: VerificationOutcome,
    },
    /// The job's [`CancelToken`] fired. A job still queued fails
    /// without executing; a running build stops at its next
    /// [`BuildGuard`] checkpoint (between grow iterations, between
    /// Thorup–Zwick levels, between cluster-search chunks).
    Cancelled,
    /// The request or job carried a deadline and outlived it: checked
    /// at the same [`BuildGuard`] checkpoints as cancellation, and once
    /// more when execution finishes.
    DeadlineExceeded {
        /// Label of the algorithm that ran.
        algorithm: String,
        /// The per-request deadline.
        deadline: Duration,
        /// How long the request had run when the check fired.
        elapsed: Duration,
    },
    /// A [`JobQueue`] job completed, but its output was already handed
    /// to an earlier `wait` and everyone has since dropped it, so the
    /// queue has nothing left to return.
    ResultReleased(JobId),
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::InvalidRequest(m) => write!(f, "invalid request: {m}"),
            PipelineError::UnsupportedBackend {
                algorithm,
                backend,
                hint,
            } => write!(f, "{algorithm} has no {backend} driver ({hint})"),
            PipelineError::Mpc(e) => write!(f, "mpc execution failed: {e}"),
            PipelineError::VerificationFailed { algorithm, outcome } => write!(
                f,
                "{algorithm}: verification failed (spanned={}, stretch {} > bound {})",
                outcome.all_edges_spanned, outcome.max_edge_stretch, outcome.stretch_bound
            ),
            PipelineError::Cancelled => write!(f, "request cancelled"),
            PipelineError::DeadlineExceeded {
                algorithm,
                deadline,
                elapsed,
            } => write!(
                f,
                "{algorithm}: deadline exceeded ({elapsed:?} > {deadline:?})"
            ),
            PipelineError::ResultReleased(job) => {
                write!(f, "{job} completed, but its result was waited and released")
            }
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<MpcError> for PipelineError {
    fn from(e: MpcError) -> Self {
        PipelineError::Mpc(e)
    }
}

/// A shared, cloneable cancellation flag for service and queue jobs.
/// Cancellation is *cooperative*: builds check the token at their
/// [`BuildGuard`] checkpoints, so an execution between checkpoints runs
/// to the next one.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-fired token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Fires the token: every job observing it afterwards fails with
    /// [`PipelineError::Cancelled`].
    pub fn cancel(&self) {
        self.0.store(true, Ordering::SeqCst);
    }

    /// Whether the token has fired.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::SeqCst)
    }
}

// ---------------------------------------------------------------------
// Plan
// ---------------------------------------------------------------------

/// The predicted schedule and bounds of a request — everything the
/// theorems quantify, computed *before* running. Experiments print
/// `Plan` next to the measured [`RunReport`] for predicted-vs-measured
/// tables.
///
/// `epochs`/`iterations` are the scheduled counts. Every backend walks
/// every scheduled step, so the measured counts equal them, except on a
/// graph with no edges, where the run returns the graph itself after no
/// step. `SqrtK`'s inner Baswana–Sen returns early when the contracted
/// graph has no edges, so there the measured counts can fall short of
/// the plan.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Algorithm label.
    pub algorithm: String,
    /// Backend name.
    pub backend: &'static str,
    /// The resolved engine schedule, for engine algorithms; `None` for
    /// Baswana–Sen, whose `k − 1` grow steps never contract, and for
    /// Section 3 and Appendix B, which build around Baswana–Sen.
    pub schedule: Option<TradeoffParams>,
    /// Scheduled clustering epochs (`l = ⌈log k / log(t+1)⌉`).
    pub epochs: u32,
    /// Scheduled grow iterations (`t·l`).
    pub iterations: u32,
    /// The stretch guarantee the result will carry.
    pub stretch_bound: f64,
    /// Expected-size envelope (Theorem 5.15's quantity, without the
    /// `O(·)` constant).
    pub size_bound: f64,
    /// Stream passes (`iterations + 1`), on the streaming backend.
    pub streaming_passes: Option<u32>,
}

// ---------------------------------------------------------------------
// Execution stats
// ---------------------------------------------------------------------

/// Measured MPC rounds / traffic / peak memory and the deployment.
#[derive(Debug, Clone)]
pub struct MpcStats {
    /// Rounds, traffic and peak-memory measurements.
    pub metrics: Metrics,
    /// The deployment that ran.
    pub config: MpcConfig,
}

/// Congested Clique rounds and the Section 8 repetition trace.
#[derive(Debug, Clone)]
pub struct CcStats {
    /// Measured clique rounds.
    pub rounds: u64,
    /// Total words communicated.
    pub total_words: u64,
    /// Parallel repetitions per iteration.
    pub repetitions: usize,
    /// Which run index each iteration committed to.
    pub chosen_runs: Vec<usize>,
}

/// CRCW PRAM work/depth.
#[derive(Debug, Clone)]
pub struct PramStats {
    /// Measured depth.
    pub depth: u64,
    /// Measured work.
    pub work: u64,
    /// `log* n` (the per-primitive depth factor).
    pub log_star_n: u32,
}

/// Dynamic-stream pass accounting.
#[derive(Debug, Clone)]
pub struct StreamingStats {
    /// Stream passes consumed.
    pub passes: u32,
    /// The stretch exponent the Section 2.4 table quotes.
    pub quoted_stretch_exponent: f64,
}

/// Backend-specific cost measurements behind one common surface.
/// Consumers that know which backend ran reach the typed stats through
/// the [`ExecutionStats::mpc`]-style accessors instead of matching.
#[derive(Debug, Clone)]
pub enum ExecutionStats {
    /// The sequential reference has no model cost.
    Sequential,
    /// Measured MPC cost.
    Mpc(MpcStats),
    /// Measured Congested Clique cost.
    CongestedClique(CcStats),
    /// Measured PRAM cost.
    Pram(PramStats),
    /// Measured stream passes.
    Streaming(StreamingStats),
}

impl ExecutionStats {
    /// Name of the backend that produced these stats.
    pub fn backend(&self) -> &'static str {
        match self {
            ExecutionStats::Sequential => "sequential",
            ExecutionStats::Mpc(_) => "mpc",
            ExecutionStats::CongestedClique(_) => "congested-clique",
            ExecutionStats::Pram(_) => "pram",
            ExecutionStats::Streaming(_) => "streaming",
        }
    }

    /// The MPC measurements, when the MPC backend ran.
    pub fn mpc(&self) -> Option<&MpcStats> {
        match self {
            ExecutionStats::Mpc(s) => Some(s),
            _ => None,
        }
    }

    /// The Congested Clique measurements, when that backend ran.
    pub fn congested_clique(&self) -> Option<&CcStats> {
        match self {
            ExecutionStats::CongestedClique(s) => Some(s),
            _ => None,
        }
    }

    /// The PRAM measurements, when that backend ran.
    pub fn pram(&self) -> Option<&PramStats> {
        match self {
            ExecutionStats::Pram(s) => Some(s),
            _ => None,
        }
    }

    /// The streaming measurements, when that backend ran.
    pub fn streaming(&self) -> Option<&StreamingStats> {
        match self {
            ExecutionStats::Streaming(s) => Some(s),
            _ => None,
        }
    }

    /// The model's headline cost: MPC rounds, clique rounds, PRAM
    /// depth, or stream passes. `None` for the sequential reference.
    pub fn model_rounds(&self) -> Option<u64> {
        match self {
            ExecutionStats::Sequential => None,
            ExecutionStats::Mpc(s) => Some(s.metrics.rounds),
            ExecutionStats::CongestedClique(s) => Some(s.rounds),
            ExecutionStats::Pram(s) => Some(s.depth),
            ExecutionStats::Streaming(s) => Some(s.passes as u64),
        }
    }

    /// Total words communicated, where the model measures traffic.
    pub fn communication_words(&self) -> Option<u64> {
        match self {
            ExecutionStats::Mpc(s) => Some(s.metrics.total_comm_words),
            ExecutionStats::CongestedClique(s) => Some(s.total_words),
            _ => None,
        }
    }

    /// One-line summary for experiment tables.
    pub fn summary(&self) -> String {
        match self {
            ExecutionStats::Sequential => "sequential".into(),
            ExecutionStats::Mpc(s) => format!(
                "mpc[S={}w,P={}]: {}",
                s.config.machine_words,
                s.config.num_machines,
                s.metrics.summary()
            ),
            ExecutionStats::CongestedClique(s) => format!(
                "cc[R={}]: rounds={} comm={}w",
                s.repetitions, s.rounds, s.total_words
            ),
            ExecutionStats::Pram(s) => format!(
                "pram: depth={} work={} (log*n={})",
                s.depth, s.work, s.log_star_n
            ),
            ExecutionStats::Streaming(s) => format!("stream: passes={}", s.passes),
        }
    }
}

// ---------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------

/// Everything one executed request produced: the plan it was checked
/// against, the spanner, the backend cost, and the optional inline
/// verification.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// The predictions this run was launched with.
    pub plan: Plan,
    /// The shared-randomness seed used.
    pub seed: u64,
    /// The constructed spanner and schedule statistics.
    pub result: SpannerResult,
    /// Backend-specific cost measurements.
    pub stats: ExecutionStats,
    /// Present under [`Verification::Report`] / [`Verification::Enforce`].
    pub verification: Option<VerificationOutcome>,
    /// Wall-clock execution time (excludes planning and verification).
    pub elapsed: Duration,
}

impl RunReport {
    /// Number of spanner edges.
    pub fn size(&self) -> usize {
        self.result.size()
    }

    /// One-line predicted-vs-measured summary for tables.
    pub fn summary(&self) -> String {
        format!(
            "{} on {}: {} edges | iters {}/{} | stretch ≤ {:.2} | {}",
            self.result.algorithm,
            self.stats.backend(),
            self.result.size(),
            self.result.iterations,
            self.plan.iterations,
            self.result.stretch_bound,
            self.stats.summary()
        )
    }
}

// ---------------------------------------------------------------------
// The request itself
// ---------------------------------------------------------------------

/// A fully-specified spanner construction: graph + algorithm + backend
/// + seed + verification policy. Cheap to clone; borrows the graph.
#[derive(Debug, Clone)]
pub struct SpannerRequest<'g> {
    graph: &'g Graph,
    algorithm: Algorithm,
    backend: Backend,
    seed: u64,
    verification: Verification,
    track_radii: bool,
    deadline: Option<Duration>,
}

impl<'g> SpannerRequest<'g> {
    /// A request on the [`Backend::Sequential`] backend with seed 0 and
    /// no verification; refine with the builder methods.
    pub fn new(graph: &'g Graph, algorithm: Algorithm) -> Self {
        SpannerRequest {
            graph,
            algorithm,
            backend: Backend::Sequential,
            seed: 0,
            verification: Verification::Skip,
            track_radii: false,
            deadline: None,
        }
    }

    /// Chooses the execution backend.
    pub fn on(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Sets the shared-randomness seed (same seed + same engine
    /// schedule ⇒ same spanner on every backend).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the inline verification policy.
    pub fn verification(mut self, verification: Verification) -> Self {
        self.verification = verification;
        self
    }

    /// Measure cluster radii at every contraction (sequential backend
    /// only; costs a BFS per super-node — ablation A1's knob).
    pub fn track_radii(mut self, track: bool) -> Self {
        self.track_radii = track;
        self
    }

    /// Per-request deadline, measured from the start of
    /// [`SpannerRequest::run`]: once it passes, `run` returns
    /// [`PipelineError::DeadlineExceeded`] instead of a report. The
    /// check is cooperative: every backend checks it before each grow
    /// iteration and before Phase 2, and once more when execution
    /// finishes.
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// The host graph.
    pub fn graph(&self) -> &'g Graph {
        self.graph
    }

    /// The requested algorithm.
    pub fn algorithm(&self) -> Algorithm {
        self.algorithm
    }

    /// The requested backend.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// The shared-randomness seed the request will run with.
    pub fn seed_value(&self) -> u64 {
        self.seed
    }

    /// The configured per-request deadline, if any.
    pub fn deadline_limit(&self) -> Option<Duration> {
        self.deadline
    }

    /// Validates the request and computes the predicted schedule and
    /// bounds without executing anything.
    pub fn plan(&self) -> Result<Plan, PipelineError> {
        self.algorithm.validate(self.graph)?;
        self.backend.validate()?;
        let n = self.graph.n();
        let nf = n.max(2) as f64;
        let label = self.algorithm.label();

        let (schedule, epochs, iterations, stretch_bound, size_bound) = match self.algorithm {
            Algorithm::BaswanaSen { k } => {
                // One epoch of k − 1 steps, bound 2k − 1; at k = 1 these
                // read 0 epochs, 0 steps and stretch 1. No engine
                // schedule: `TradeoffParams::baswana_sen(k)` takes a k-th
                // step and contracts, which is another spanner.
                let p = TradeoffParams::baswana_sen(k);
                let size = k as f64 * nf.powf(1.0 + 1.0 / k as f64);
                (None, p.epochs(), k - 1, p.stretch_bound(), size)
            }
            Algorithm::SqrtK { k } => {
                require_sequential(&self.backend, &label, || {
                    format!(
                        "request Algorithm::General(TradeoffParams::sqrt_k({k})) \
                         for the engine schedule at t = ⌈√k⌉"
                    )
                })?;
                let t = (k as f64).sqrt().ceil() as u32;
                // Stretch: clusters of radius ≤ t (in hops,
                // weighted-stretch property) connected by (2t−1)-stretch
                // super-paths; the Theorem 3.4 accounting gives
                // O(t·t') = O(k) with constant 4t·t' + 2t' + 1 ≤ 8k for
                // t = t' = ⌈√k⌉ (each super-edge on the path detours
                // through two cluster trees).
                let (e, i, s) = if k == 1 {
                    (0, 0, 1.0)
                } else {
                    let tt = t as f64;
                    (2, 2 * t - 1, (2.0 * tt + 1.0) * (2.0 * tt - 1.0) + 2.0 * tt)
                };
                (
                    None,
                    e,
                    i,
                    s,
                    (t as f64 + 1.0) * nf.powf(1.0 + 1.0 / k.max(1) as f64),
                )
            }
            Algorithm::UnweightedOk { k, config } => {
                require_sequential(&self.backend, &label, || {
                    "Appendix B's algorithm has no distributed driver in this \
                     workspace; its MPC analysis is Theorem 1.3"
                        .to_string()
                })?;
                let (e, i, s) = if k == 1 {
                    (0, 0, 1.0)
                } else {
                    let (_, iterations, stretch) = crate::unweighted_ok::schedule(k, config);
                    (1, iterations, stretch)
                };
                let size = k as f64 * nf.powf(1.0 + 1.0 / k as f64) + 2.0 * k as f64 * nf;
                (None, e, i, s, size)
            }
            // Engine-schedule algorithms: everything comes from the
            // TradeoffParams formulas.
            _ => {
                let p = self
                    .algorithm
                    .schedule(n)?
                    .expect("engine algorithms resolve to a schedule");
                // Cluster merging carries Theorem 4.10's tighter bound.
                let stretch = match self.algorithm {
                    _ if p.k == 1 => 1.0,
                    Algorithm::ClusterMerging { k } => (k as f64).powf(3f64.log2()),
                    _ => p.stretch_bound(),
                };
                (
                    Some(p),
                    p.epochs(),
                    p.iterations(),
                    stretch,
                    p.size_bound(n),
                )
            }
        };

        let streaming_passes = match self.backend {
            Backend::Streaming => Some(iterations.saturating_add(u32::from(iterations > 0))),
            _ => None,
        };
        Ok(Plan {
            algorithm: label,
            backend: self.backend.name(),
            schedule,
            epochs,
            iterations,
            stretch_bound,
            size_bound,
            streaming_passes,
        })
    }

    /// Executes the request on its backend, under a [`BuildGuard`] armed
    /// with the request's deadline. Handle-based [`SpannerJob`]s run the
    /// same path, so both produce bit-identical reports at equal seeds.
    pub fn run(&self) -> Result<RunReport, PipelineError> {
        self.run_guarded(&BuildGuard::armed(self.algorithm, self.deadline, None))
    }

    /// The execution path (plan → execute → deadline → verification)
    /// under an explicit [`BuildGuard`], shared by [`Self::run`] and by
    /// the service's spanner jobs, which add the registry and the store
    /// around it.
    /// Every backend checks the guard before each grow iteration and
    /// before Phase 2, so a fired token or expired deadline stops a
    /// spanner construction mid-build instead of after it.
    pub(crate) fn run_guarded(&self, guard: &BuildGuard) -> Result<RunReport, PipelineError> {
        let plan = self.plan()?;
        // analyze:allow(determinism-taint): build-latency telemetry only — never in artifacts
        let started = Instant::now();
        let (result, stats) = self.execute(&plan, guard)?;
        let elapsed = started.elapsed();
        // The guard's clock predates execution (it counts planning);
        // this final check charges that whole span against the
        // caller's deadline.
        guard.check()?;

        let verification = match self.verification {
            Verification::Skip => None,
            Verification::Report | Verification::Enforce => {
                let rep = verify_spanner(self.graph, &result.edges);
                let outcome = VerificationOutcome {
                    all_edges_spanned: rep.all_edges_spanned,
                    max_edge_stretch: rep.max_edge_stretch,
                    stretch_bound: result.stretch_bound,
                };
                if self.verification == Verification::Enforce && !outcome.ok() {
                    return Err(PipelineError::VerificationFailed {
                        algorithm: result.algorithm,
                        outcome,
                    });
                }
                Some(outcome)
            }
        };

        Ok(RunReport {
            plan,
            seed: self.seed,
            result,
            stats,
            verification,
            elapsed,
        })
    }

    /// Runs the request on its backend and stamps the result with the
    /// plan's label (a Corollary setting adds its `[k,t]`) and stretch
    /// bound.
    fn execute(
        &self,
        plan: &Plan,
        guard: &BuildGuard,
    ) -> Result<(SpannerResult, ExecutionStats), PipelineError> {
        // Every walk checks the guard before each grow step and before
        // Phase 2; this check also covers the k = 1 and edgeless
        // shortcuts.
        guard.check()?;
        let (g, seed) = (self.graph, self.seed);
        let (mut result, stats) = match self.algorithm {
            Algorithm::SqrtK { k } => (
                crate::sqrt_k::build(g, k, seed, guard)?,
                ExecutionStats::Sequential,
            ),
            Algorithm::UnweightedOk { k, config } => (
                crate::unweighted_ok::build(g, k, config, seed, guard)?,
                ExecutionStats::Sequential,
            ),
            _ => self.walk_schedule(plan, guard)?,
        };
        result.algorithm = match (self.algorithm, plan.schedule) {
            (Algorithm::Corollary { .. }, Some(p)) => {
                format!("{} [k={},t={}]", plan.algorithm, p.k, p.t)
            }
            _ => plan.algorithm.clone(),
        };
        result.stretch_bound = plan.stretch_bound;
        Ok((result, stats))
    }

    /// Walks an engine or Baswana–Sen schedule on the request's backend,
    /// and reports the walk's epochs and grow steps. `k = 1` keeps every
    /// edge (a 1-spanner), and so does a graph without edges; both
    /// return before any backend state is built.
    fn walk_schedule(
        &self,
        plan: &Plan,
        guard: &BuildGuard,
    ) -> Result<(SpannerResult, ExecutionStats), PipelineError> {
        let (g, seed) = (self.graph, self.seed);
        let (params, steps): (_, Box<dyn Iterator<Item = Step>>) = match self.algorithm {
            Algorithm::BaswanaSen { k } => (
                TradeoffParams::baswana_sen(k),
                Box::new(general::baswana_sen_steps(k, g.n())),
            ),
            _ => {
                let params = plan
                    .schedule
                    .expect("engine algorithms resolve to a schedule");
                (params, Box::new(general::engine_steps(params, g.n())))
            }
        };
        if params.k == 1 || g.m() == 0 {
            return Ok((SpannerResult::whole_graph(g), self.backend.idle_stats(g)));
        }
        match self.backend {
            Backend::Sequential => {
                let mut engine = Engine::new(g, seed);
                engine.track_radii = self.track_radii;
                engine.run(steps, guard)
            }
            Backend::Mpc { deployment } => {
                crate::mpc_driver::Driver::new(g, deployment.config(g), seed)?.run(steps, guard)
            }
            Backend::CongestedClique { repetitions } => {
                clique::CcRun::new(g, seed, repetitions).run(steps, guard)
            }
            Backend::Pram => pram_cost::PramRun::new(g, seed).run(steps, guard),
            Backend::Streaming => {
                let (result, _) = Engine::new(g, seed).run(steps, guard)?;
                // One pass per grow step, into which each contraction
                // folds, and one for Phase 2.
                let stats = StreamingStats {
                    passes: result.iterations + 1,
                    quoted_stretch_exponent: params.stretch_exponent(),
                };
                Ok((result, ExecutionStats::Streaming(stats)))
            }
        }
    }
}

fn require_sequential(
    backend: &Backend,
    label: &str,
    hint: impl FnOnce() -> String,
) -> Result<(), PipelineError> {
    if matches!(backend, Backend::Sequential) {
        Ok(())
    } else {
        Err(PipelineError::UnsupportedBackend {
            algorithm: label.to_string(),
            backend: backend.name(),
            hint: hint(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spanner_graph::generators::{self, WeightModel};

    fn graph() -> Graph {
        generators::connected_erdos_renyi(80, 0.1, WeightModel::Uniform(1, 8), 3)
    }

    #[test]
    fn plan_predicts_engine_schedule() {
        let g = graph();
        let params = TradeoffParams::new(8, 2);
        let plan = SpannerRequest::new(&g, Algorithm::General(params))
            .plan()
            .unwrap();
        assert_eq!(plan.epochs, params.epochs());
        assert_eq!(plan.iterations, params.iterations());
        assert_eq!(plan.stretch_bound, params.stretch_bound());
        assert_eq!(plan.schedule, Some(params));
    }

    #[test]
    fn sequential_run_matches_plan_bounds() {
        let g = graph();
        let report = SpannerRequest::new(&g, Algorithm::General(TradeoffParams::new(4, 2)))
            .seed(7)
            .verification(Verification::Report)
            .run()
            .unwrap();
        assert_eq!(report.result.epochs, report.plan.epochs);
        assert_eq!(report.result.iterations, report.plan.iterations);
        assert_eq!(report.result.stretch_bound, report.plan.stretch_bound);
        assert!(report.verification.unwrap().ok());
    }

    #[test]
    fn invalid_requests_error_instead_of_panicking() {
        let g = graph();
        // k = 0.
        assert!(matches!(
            SpannerRequest::new(&g, Algorithm::BaswanaSen { k: 0 }).plan(),
            Err(PipelineError::InvalidRequest(_))
        ));
        // Malformed epsilon.
        assert!(matches!(
            SpannerRequest::new(
                &g,
                Algorithm::Corollary {
                    setting: CorollarySetting::Epsilon(-1.0),
                    k: 8
                }
            )
            .plan(),
            Err(PipelineError::InvalidRequest(_))
        ));
        // Weighted input to the unweighted algorithm.
        assert!(matches!(
            SpannerRequest::new(
                &g,
                Algorithm::UnweightedOk {
                    k: 2,
                    config: UnweightedOkConfig::default()
                }
            )
            .plan(),
            Err(PipelineError::InvalidRequest(_))
        ));
        // Zero repetitions.
        assert!(matches!(
            SpannerRequest::new(&g, Algorithm::General(TradeoffParams::new(4, 2)))
                .on(Backend::CongestedClique { repetitions: 0 })
                .plan(),
            Err(PipelineError::InvalidRequest(_))
        ));
    }

    #[test]
    fn unsupported_backend_is_a_typed_error_with_hint() {
        let g = graph();
        let err = SpannerRequest::new(&g, Algorithm::SqrtK { k: 9 })
            .on(Backend::Pram)
            .plan()
            .unwrap_err();
        match err {
            PipelineError::UnsupportedBackend { backend, hint, .. } => {
                assert_eq!(backend, "pram");
                assert!(hint.contains("sqrt_k"));
            }
            other => panic!("wrong error: {other}"),
        }
    }

    #[test]
    fn enforce_verification_passes_on_valid_spanners() {
        let g = graph();
        let report = SpannerRequest::new(&g, Algorithm::ClusterMerging { k: 4 })
            .seed(5)
            .verification(Verification::Enforce)
            .run()
            .unwrap();
        assert!(report.verification.unwrap().ok());
        assert_eq!(
            report.result.stretch_bound,
            (4f64).powf(3f64.log2()),
            "cluster merging carries its specialised bound"
        );
    }

    #[test]
    fn cluster_merging_runs_log_k_epochs() {
        let g = generators::connected_erdos_renyi(200, 0.06, WeightModel::Uniform(1, 8), 1);
        let r = SpannerRequest::new(&g, Algorithm::ClusterMerging { k: 16 })
            .seed(5)
            .run()
            .unwrap()
            .result;
        assert_eq!(r.epochs, 4, "log2(16) = 4 epochs");
        assert_eq!(r.iterations, r.epochs, "t = 1: one iteration per epoch");
    }

    #[test]
    fn cluster_merging_stretch_respects_k_log3() {
        let g = generators::connected_erdos_renyi(150, 0.08, WeightModel::PowersOfTwo(6), 2);
        for k in [2u32, 4, 8] {
            let r = SpannerRequest::new(&g, Algorithm::ClusterMerging { k })
                .seed(31)
                .run()
                .unwrap()
                .result;
            let rep = verify_spanner(&g, &r.edges);
            assert!(rep.all_edges_spanned);
            let bound = (k as f64).powf(3f64.log2());
            assert!(
                rep.max_edge_stretch <= bound + 1e-9,
                "k={k}: measured {} > k^log3 = {bound}",
                rep.max_edge_stretch
            );
        }
    }

    #[test]
    fn cluster_merging_radius_follows_power_of_three_law() {
        let g = generators::torus(14, 14, WeightModel::Unit, 0);
        let r = SpannerRequest::new(&g, Algorithm::ClusterMerging { k: 16 })
            .seed(3)
            .track_radii(true)
            .run()
            .unwrap()
            .result;
        for (i, &radius) in r.radius_per_epoch.iter().enumerate() {
            let bound = (3f64.powi(i as i32 + 1) - 1.0) / 2.0;
            assert!(
                radius as f64 <= bound,
                "epoch {}: radius {} > (3^i-1)/2 = {}",
                i + 1,
                radius,
                bound
            );
        }
    }

    #[test]
    fn cluster_merging_supernode_counts_decay() {
        let g = generators::connected_erdos_renyi(300, 0.05, WeightModel::Unit, 7);
        let r = SpannerRequest::new(&g, Algorithm::ClusterMerging { k: 8 })
            .seed(11)
            .run()
            .unwrap()
            .result;
        for w in r.supernodes_per_epoch.windows(2) {
            assert!(w[1] <= w[0], "super-node counts must be non-increasing");
        }
    }

    #[test]
    fn streaming_plan_predicts_passes() {
        let g = graph();
        let plan = SpannerRequest::new(&g, Algorithm::General(TradeoffParams::new(16, 1)))
            .on(Backend::Streaming)
            .plan()
            .unwrap();
        assert_eq!(plan.streaming_passes, Some(plan.iterations + 1));
    }
}
