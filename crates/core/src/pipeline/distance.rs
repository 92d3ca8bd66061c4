//! The **distance-query serving stage** of the pipeline: from "build a
//! spanner" to "answer distance queries at scale".
//!
//! The paper's headline application (Section 7 / Corollary 1.4) is
//! *distance approximation* — the spanner is the preprocessing step, not
//! the product. This module composes a [`SpannerRequest`] with a query
//! substrate into a [`DistanceRequest`]:
//!
//! ```
//! use spanner_core::pipeline::{Algorithm, DistanceRequest, QueryEngine};
//! use spanner_core::TradeoffParams;
//! use spanner_graph::generators::{connected_erdos_renyi, WeightModel};
//!
//! let g = connected_erdos_renyi(120, 0.08, WeightModel::Uniform(1, 16), 7);
//! let oracle = DistanceRequest::new(&g, Algorithm::General(TradeoffParams::new(4, 2)))
//!     .engine(QueryEngine::Sketches { levels: 2 })
//!     .seed(42)
//!     .build()
//!     .unwrap();
//! let d = oracle.query(0, 50);
//! assert!(d >= 1); // connected pairs never come back INFINITY
//! assert!(oracle.stretch_bound() >= oracle.substrate_stretch());
//! ```
//!
//! * [`QueryEngine`] picks how queries are served off the spanner:
//!   exact Dijkstra on the `Õ(n)`-edge spanner (the Section 7 oracle),
//!   or Thorup–Zwick [`DistanceSketches`] (§1.2 / \[DN19]) with `λ`
//!   levels and an extra `2λ−1` stretch factor;
//! * [`DistanceRequest::plan`] predicts the composed guarantee
//!   `σ·(2λ−1)` and the MPC gather cost before running anything;
//! * [`DistanceRequest::build`] constructs the spanner on the requested
//!   [`Backend`], collects it, and preprocesses the query substrate.
//!   The collection is the one step in which Corollaries 1.4 and 1.5
//!   differ: on MPC the build pays the paper's "+1 gather" round onto
//!   one machine, charging **only** the gather (the harness's
//!   re-distribution of the already-in-model spanner costs no rounds
//!   and is not billed); on the Congested Clique every node learns the
//!   whole spanner by Lenzen dissemination (§8). So the Corollary
//!   1.2(4) spanner ([`CorollarySetting::ApspRegime`](super::CorollarySetting))
//!   built on `Backend::CongestedClique { repetitions }` is
//!   Corollary 1.5;
//! * [`DistanceOracle::query_batch`] fans queries out on the rayon pool
//!   with order-preserving results, bit-identical to one-by-one
//!   [`DistanceOracle::query`] at any thread count.
//!
//! A one-shot build owns its oracle. To build once and share the oracle
//! across callers, register the graph with a
//! [`SpannerService`](super::SpannerService) and submit oracle jobs:
//! jobs agreeing on (graph, version, algorithm, backend, seed, engine)
//! are served one `Arc`'d oracle from the service's artifact store.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use rayon::prelude::*;

use mpc_runtime::{comm, Dist, MpcSystem};
use spanner_graph::edge::{Distance, Edge, EdgeId, EdgeList, INFINITY};
use spanner_graph::scatter::{bucket_starts, ranges};
use spanner_graph::shortest_paths::dijkstra;
use spanner_graph::Graph;

use super::clique::CcNetwork;
use super::service::{graph_heap_size, HeapSize};
use super::{Algorithm, Backend, CancelToken, ExecutionStats, PipelineError, Plan, SpannerRequest};

// ---------------------------------------------------------------------
// Cooperative build interruption
// ---------------------------------------------------------------------

/// Cooperative cancellation/deadline checkpoints for long-running
/// builds. A guard bundles an optional [`CancelToken`] and an optional
/// deadline (measured from the guard's creation); [`BuildGuard::check`]
/// turns a fired token or an expired deadline into the matching typed
/// [`PipelineError`].
///
/// Builds check their guard *during* the work — the spanner
/// construction, on every backend, before each grow iteration and
/// before Phase 2, the
/// distance stage before and after the spanner construction, between
/// Thorup–Zwick levels and every 256 cluster searches
/// ([`DistanceSketches::preprocess_guarded`]) — so a cancelled or
/// deadline-blown build stops within one chunk of work instead of
/// running to completion.
#[derive(Debug, Clone)]
pub struct BuildGuard {
    label: String,
    cancel: Option<CancelToken>,
    deadline: Option<Duration>,
    started: Instant,
}

impl BuildGuard {
    /// An unbounded guard (never interrupts) carrying the algorithm
    /// label used in deadline errors.
    pub fn new(label: impl Into<String>) -> Self {
        BuildGuard {
            label: label.into(),
            cancel: None,
            deadline: None,
            // analyze:allow(determinism-taint): deadline/latency telemetry only — never in artifacts
            started: Instant::now(),
        }
    }

    /// The guard a request or job runs under: labelled with its
    /// algorithm and armed with its deadline and token, when it has
    /// them. The deadline is measured from this call.
    pub(crate) fn armed(
        algorithm: Algorithm,
        deadline: Option<Duration>,
        cancel: Option<&CancelToken>,
    ) -> Self {
        BuildGuard {
            label: algorithm.label(),
            cancel: cancel.cloned(),
            deadline,
            // analyze:allow(determinism-taint): deadline/latency telemetry only — never in artifacts
            started: Instant::now(),
        }
    }

    /// Attaches a cancellation token.
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Attaches a deadline, measured from the guard's creation.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Time since the guard was created.
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }

    /// Time left before the deadline (zero once it has passed), or
    /// `None` without one.
    pub(crate) fn remaining(&self) -> Option<Duration> {
        self.deadline
            .map(|deadline| deadline.saturating_sub(self.started.elapsed()))
    }

    /// Errs with [`PipelineError::Cancelled`] /
    /// [`PipelineError::DeadlineExceeded`] once the token has fired or
    /// the deadline has passed. Both conditions are monotone, so a
    /// check placed *after* a parallel section reliably reports any
    /// interruption that occurred during it.
    pub fn check(&self) -> Result<(), PipelineError> {
        if let Some(token) = &self.cancel {
            if token.is_cancelled() {
                return Err(PipelineError::Cancelled);
            }
        }
        if let Some(deadline) = self.deadline {
            let elapsed = self.started.elapsed();
            if elapsed > deadline {
                return Err(PipelineError::DeadlineExceeded {
                    algorithm: self.label.clone(),
                    deadline,
                    elapsed,
                });
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Query engines
// ---------------------------------------------------------------------

/// How a [`DistanceOracle`] serves queries off its spanner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryEngine {
    /// One exact Dijkstra on the spanner per source (the Section 7
    /// oracle): no extra stretch, `O(size(H) log n)` per source.
    Dijkstra,
    /// Thorup–Zwick [`DistanceSketches`] with `λ` levels (§1.2 /
    /// \[DN19]): `O(λ)` time per query after preprocessing, at an extra
    /// `2λ−1` stretch factor on top of the spanner's.
    Sketches {
        /// Number of landmark levels `λ ≥ 1`.
        levels: u32,
    },
}

impl QueryEngine {
    /// The multiplicative stretch this engine adds on top of the
    /// substrate's (`1` for exact Dijkstra, `2λ−1` for sketches).
    pub fn stretch_factor(&self) -> f64 {
        match *self {
            QueryEngine::Dijkstra => 1.0,
            QueryEngine::Sketches { levels } => (2 * levels.max(1) - 1) as f64,
        }
    }

    /// Short label for tables and cache keys.
    pub fn label(&self) -> String {
        match *self {
            QueryEngine::Dijkstra => "dijkstra".into(),
            QueryEngine::Sketches { levels } => format!("sketches(λ={levels})"),
        }
    }

    fn validate(&self) -> Result<(), PipelineError> {
        if let QueryEngine::Sketches { levels: 0 } = *self {
            return Err(PipelineError::InvalidRequest(
                "sketches: need at least one level (λ ≥ 1)".into(),
            ));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Thorup–Zwick distance sketches (the query substrate of §1.2 / [DN19])
// ---------------------------------------------------------------------

/// Distance sketches for every vertex, supporting constant-time-ish
/// approximate queries.
///
/// The sketch is the classic Thorup–Zwick construction with `λ` levels:
/// sample nested landmark sets `V = A₀ ⊇ A₁ ⊇ … ⊇ A_{λ−1}` (each level
/// keeps a vertex with probability `n^{-1/λ}`); each vertex stores, per
/// level, its nearest level-`i` landmark (`pᵢ(v)`, the *pivot*) and its
/// *bunch* (level-`i` vertices strictly closer than `p_{i+1}(v)`).
/// A query `(u, v)` walks the levels, returning
/// `d(u, pᵢ(u)) + d(pᵢ(u), v)` for the first level whose pivot lands in
/// the other endpoint's bunch — a `2λ−1`-approximation of the distance
/// *of the preprocessed graph*. Every connected component is guaranteed
/// a top-level landmark, so the walk always terminates with a finite
/// answer for connected pairs.
///
/// Built on a `σ`-stretch spanner, the end-to-end guarantee is
/// `σ·(2λ−1)`; the preprocessing touches only `O(n^{1+1/k}·polylog)`
/// edges.
///
/// **Layout.** Flat arrays, with no per-vertex allocation and no
/// hashing:
/// * the pivots, one `n·λ` array: [`Self::pivot`]`(v, i)` is entry
///   `v·λ + i`;
/// * the bunches in CSR form: `n + 1` offsets, then the landmark ids
///   (`u32`) and their distances in two parallel arrays. Each vertex's
///   run is sorted by landmark id ([`Self::bunch`]), so a query finds a
///   landmark by binary search over 4-byte ids.
///
/// [`HeapSize`] counts these arrays exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct DistanceSketches {
    /// Number of levels `λ`, the stride of `pivots`.
    levels: u32,
    /// `pivots[v·λ + i] = (pᵢ(v), d(v, pᵢ(v)))`; level 0 is `v` itself
    /// at distance 0.
    pivots: Vec<(u32, Distance)>,
    /// `v`'s bunch is entries `bunch_start[v]..bunch_start[v + 1]` of
    /// the two arrays below.
    bunch_start: Vec<usize>,
    /// Bunch landmarks, ascending within each vertex's run.
    bunch_ids: Vec<u32>,
    /// `bunch_dists[j]` is the exact distance (on the preprocessed
    /// graph) to `bunch_ids[j]`.
    bunch_dists: Vec<Distance>,
    /// The multiplicative guarantee of the sketch itself (`2λ−1`),
    /// *relative to the preprocessed graph*.
    pub sketch_stretch: f64,
    /// Stretch of the preprocessing substrate relative to the original
    /// graph (1.0 when preprocessing ran on the graph itself).
    pub substrate_stretch: f64,
}

/// Cluster searches between two guard checks in each range.
const SEARCHES_PER_CHECK: usize = 256;

impl DistanceSketches {
    /// Builds `λ`-level sketches by preprocessing `g` directly.
    ///
    /// # Panics
    /// Panics if `levels == 0`.
    pub fn preprocess(g: &Graph, levels: u32, seed: u64) -> Self {
        Self::preprocess_guarded(g, levels, seed, 1.0, &BuildGuard::new("sketches"))
            .expect("an unbounded guard never interrupts")
    }

    /// Builds sketches on a substrate graph (e.g. a spanner of the real
    /// graph) whose stretch relative to the original is
    /// `substrate_stretch`, under a [`BuildGuard`]; queries then carry
    /// the combined guarantee.
    ///
    /// Cost profile (the textbook Thorup–Zwick preprocessing): one
    /// multi-source Dijkstra per level for the pivots (`O(λ·n)` memory
    /// total), plus one *pruned* cluster search per vertex whose total
    /// work is proportional to the sketch entries it produces — there
    /// is no full-Dijkstra-per-vertex pass and no dense per-landmark
    /// distance row, which is what keeps preprocessing usable beyond
    /// toy `n` (and keeps fragmented graphs cheap: a promoted
    /// per-component landmark only ever floods its own component).
    ///
    /// The cluster searches run in one contiguous landmark range per
    /// pool thread (balanced by degree, [`spanner_graph::scatter::ranges`]).
    /// A range reuses one `n`-sized distance array and one heap for all
    /// its searches, and after each search resets only the entries the
    /// search touched, so a search costs its own entries and their
    /// edges, not `n`. The bunches are then one counting transpose of
    /// the clusters, taken in landmark order, which leaves every bunch
    /// sorted by landmark without a sort. The output does not depend on
    /// the thread count.
    ///
    /// The guard is checked **between Thorup–Zwick levels** (each
    /// level's multi-source Dijkstra re-checks before starting) and
    /// **every 256 cluster searches** in each landmark range, so a
    /// fired token or an expired deadline stops the preprocessing
    /// within 256 searches per pool thread. On the success path the
    /// output does not depend on the guard.
    ///
    /// # Panics
    /// Panics if `levels == 0`.
    pub fn preprocess_guarded(
        g: &Graph,
        levels: u32,
        seed: u64,
        substrate_stretch: f64,
        guard: &BuildGuard,
    ) -> Result<Self, PipelineError> {
        assert!(levels >= 1, "need at least one level");
        guard.check()?;
        let n = g.n();
        let lam = levels as usize;

        // Nested landmark sets A_0 ⊇ A_1 ⊇ … (A_0 = V).
        let q = (n.max(2) as f64).powf(-1.0 / lam as f64);
        let mut level_of: Vec<u32> = vec![0; n];
        for (v, slot) in level_of.iter_mut().enumerate() {
            let mut lvl = 0u32;
            let mut h = crate::coins::splitmix64(seed ^ 0x5e7c4 ^ v as u64);
            while lvl + 1 < levels {
                h = crate::coins::splitmix64(h);
                if ((h >> 11) as f64 / (1u64 << 53) as f64) < q {
                    lvl += 1;
                } else {
                    break;
                }
            }
            *slot = lvl;
        }
        // Guarantee a top-level landmark in EVERY connected component
        // (promote each lacking component's smallest vertex id): the
        // query walk terminates at a finite top-level pivot only if the
        // component has one, so a missing landmark would drop queries
        // for *connected* pairs in that component.
        if n > 0 && levels > 1 {
            let labels = spanner_graph::components::component_labels(g);
            let mut has_top = vec![false; n];
            for v in 0..n {
                if level_of[v] == levels - 1 {
                    has_top[labels[v] as usize] = true;
                }
            }
            for v in 0..n {
                if labels[v] as usize == v && !has_top[v] {
                    level_of[v] = levels - 1;
                }
            }
        }

        // Pivots: per level i ≥ 1, p_i(v) is the (distance, id)-smallest
        // member of A_i — one lexicographic multi-source Dijkstra per
        // level (parallel over levels), O(λ·n) memory total instead of a
        // dense distance row per landmark.
        // Guard protocol: each level's task re-checks before starting
        // (skipping its Dijkstra once interrupted); the post-collect
        // check surfaces the typed error — cancellation and deadlines
        // are monotone, so nothing observed inside the section is lost.
        let per_level: Vec<Vec<(u32, Distance)>> = (1..lam)
            .collect::<Vec<_>>()
            .par_iter()
            .map(|&i| {
                if guard.check().is_err() {
                    return Vec::new();
                }
                let sources: Vec<u32> = (0..n as u32)
                    .filter(|&v| level_of[v as usize] >= i as u32)
                    .collect();
                nearest_landmark(g, &sources)
            })
            .collect();
        guard.check()?;
        let mut pivots = Vec::with_capacity(n * lam);
        for v in 0..n {
            pivots.push((v as u32, 0));
            pivots.extend(per_level.iter().map(|lvl| lvl[v]));
        }

        // Bunches via Thorup–Zwick cluster searches, one per vertex:
        // for w ∈ A_i \ A_{i+1} (i.e. i = level_of[w], since those sets
        // partition V), C(w) = { v : d(w,v) < d(v, p_{i+1}(v)) } and
        // w ∈ B(v) ⇔ v ∈ C(w). Clusters are closed under shortest-path
        // predecessors, so a Dijkstra from w that settles only
        // qualifying vertices stays exact while touching only the
        // entries it emits — total work is proportional to the sketch
        // size, not n Dijkstras.
        let limits: Vec<Vec<Distance>> = (0..lam)
            .map(|i| {
                if i + 1 < lam {
                    (0..n).map(|v| pivots[v * lam + i + 1].1).collect()
                } else {
                    // Top level: no next pivot cuts the bunch off; the
                    // search floods w's whole component.
                    vec![INFINITY; n]
                }
            })
            .collect();
        // One landmark range per pool thread, each with its own scratch.
        // A range checks the guard every SEARCHES_PER_CHECK searches and
        // stops once interrupted; the check after the collect surfaces
        // the typed error. Ranges are concatenated in order, so the
        // entries come out in landmark order at any thread count.
        let clusters: Vec<Vec<(u32, u32, Distance)>> = ranges(g.offsets())
            .into_par_iter()
            .map(|(lo, hi)| {
                let mut search = ClusterSearch::new(n);
                let mut out = Vec::new();
                for w in lo..hi {
                    if (w - lo) % SEARCHES_PER_CHECK == 0 && guard.check().is_err() {
                        break;
                    }
                    search.run(g, w as u32, &limits[level_of[w] as usize], &mut out);
                }
                out
            })
            .collect();
        guard.check()?;

        // w ∈ B(v) ⇔ v ∈ C(w): a counting transpose of the clusters.
        // Placing the entries in landmark order leaves each bunch sorted
        // by landmark.
        let bunch_start = bucket_starts(&clusters, n, |part, count| {
            for &(_, v, _) in part {
                count[v as usize + 1] += 1;
            }
        });
        let mut next = bunch_start.clone();
        let mut bunch_ids = vec![0; bunch_start[n]];
        let mut bunch_dists = vec![0; bunch_start[n]];
        for &(w, v, d) in clusters.iter().flatten() {
            let slot = &mut next[v as usize];
            bunch_ids[*slot] = w;
            bunch_dists[*slot] = d;
            *slot += 1;
        }

        Ok(DistanceSketches {
            levels,
            pivots,
            bunch_start,
            bunch_ids,
            bunch_dists,
            sketch_stretch: (2 * levels - 1) as f64,
            substrate_stretch,
        })
    }

    /// The combined end-to-end guarantee relative to the original graph.
    pub fn stretch_bound(&self) -> f64 {
        self.sketch_stretch * self.substrate_stretch
    }

    /// Number of levels `λ`.
    pub fn levels(&self) -> u32 {
        self.levels
    }

    /// `(pᵢ(v), d(v, pᵢ(v)))`: `v`'s nearest level-`i` landmark and its
    /// distance (level 0 is `v` itself at distance 0). A vertex whose
    /// component holds no level-`i` landmark reads
    /// `(u32::MAX, INFINITY)`.
    ///
    /// # Panics
    /// Panics if `v` is not a vertex or `i ≥ λ`.
    pub fn pivot(&self, v: u32, i: usize) -> (u32, Distance) {
        assert!(i < self.levels as usize, "level {i} ≥ λ = {}", self.levels);
        self.pivots[v as usize * self.levels as usize + i]
    }

    /// `v`'s bunch: its landmarks in ascending id order and, at the same
    /// positions, their exact distances from `v` on the preprocessed
    /// graph.
    ///
    /// # Panics
    /// Panics if `v` is not a vertex.
    pub fn bunch(&self, v: u32) -> (&[u32], &[Distance]) {
        let run = self.bunch_start[v as usize]..self.bunch_start[v as usize + 1];
        (&self.bunch_ids[run.clone()], &self.bunch_dists[run])
    }

    /// Approximate distance query — the Thorup–Zwick level walk.
    /// Returns [`INFINITY`] only when `u` and `v` are in different
    /// components (every component owns a top-level landmark, so the
    /// walk always lands in a bunch for connected pairs).
    pub fn query(&self, u: u32, v: u32) -> Distance {
        if u == v {
            return 0;
        }
        let (mut a, mut b) = (u, v);
        let mut w = a; // current pivot, starts as u itself (level 0)
        let mut d_aw: Distance = 0;
        for i in 0..self.levels as usize {
            let (ids, dists) = self.bunch(b);
            if let Ok(j) = ids.binary_search(&w) {
                return d_aw.saturating_add(dists[j]);
            }
            let next = i + 1;
            if next >= self.levels as usize {
                break;
            }
            // Swap roles and climb a level.
            std::mem::swap(&mut a, &mut b);
            let (p, d) = self.pivot(a, next);
            if p == u32::MAX || d == INFINITY {
                break;
            }
            w = p;
            d_aw = d;
        }
        INFINITY
    }

    /// Total sketch entries (the memory the sketches occupy) — the
    /// quantity \[DN19]'s spanner preprocessing keeps near-linear.
    pub fn total_entries(&self) -> usize {
        self.bunch_ids.len() + self.pivots.len()
    }
}

/// Lexicographic multi-source Dijkstra: for every vertex `v`, the
/// `(distance, source)`-smallest pair over `sources` — exactly the
/// Thorup–Zwick pivot `p_i(v)` with the deterministic
/// smallest-distance-then-smallest-id tie-break. Correct under
/// lexicographic keys because adding an edge weight to both sides
/// preserves the order.
fn nearest_landmark(g: &Graph, sources: &[u32]) -> Vec<(u32, Distance)> {
    let mut best: Vec<(u32, Distance)> = vec![(u32::MAX, INFINITY); g.n()];
    let mut heap: BinaryHeap<Reverse<(Distance, u32, u32)>> = BinaryHeap::new();
    for &a in sources {
        best[a as usize] = (a, 0);
        heap.push(Reverse((0, a, a)));
    }
    while let Some(Reverse((d, s, v))) = heap.pop() {
        if (d, s) > (best[v as usize].1, best[v as usize].0) {
            continue; // stale entry
        }
        for (u, w, _id) in g.neighbors(v) {
            let nd = d.saturating_add(w);
            if (nd, s) < (best[u as usize].1, best[u as usize].0) {
                best[u as usize] = (s, nd);
                heap.push(Reverse((nd, s, u)));
            }
        }
    }
    best
}

/// The reused scratch of one range's cluster searches.
struct ClusterSearch {
    /// Tentative distances from the current root; [`INFINITY`] between
    /// searches.
    dist: Vec<Distance>,
    /// The vertices the current search set in `dist`.
    touched: Vec<u32>,
    /// The frontier, popped in `(distance, vertex)` order; empty between
    /// searches.
    heap: BinaryHeap<Reverse<(Distance, u32)>>,
}

impl ClusterSearch {
    fn new(n: usize) -> Self {
        ClusterSearch {
            dist: vec![INFINITY; n],
            touched: Vec::new(),
            heap: BinaryHeap::new(),
        }
    }

    /// Pruned Dijkstra from `w` that settles `v` only while
    /// `d(w,v) < limit[v]`: exactly Thorup–Zwick's cluster `C(w)`.
    /// Appends `(w, v, d(w,v))` to `out` in settle order; distances are
    /// exact because clusters are closed under shortest-path
    /// predecessors.
    fn run(&mut self, g: &Graph, w: u32, limit: &[Distance], out: &mut Vec<(u32, u32, Distance)>) {
        if limit[w as usize] == 0 {
            return;
        }
        self.dist[w as usize] = 0;
        self.touched.push(w);
        self.heap.push(Reverse((0, w)));
        while let Some(Reverse((d, v))) = self.heap.pop() {
            if d > self.dist[v as usize] {
                continue;
            }
            out.push((w, v, d));
            for &(u, wt, _id) in g.adjacency(v) {
                let nd = d.saturating_add(wt);
                let cur = &mut self.dist[u as usize];
                if nd < limit[u as usize] && nd < *cur {
                    if *cur == INFINITY {
                        self.touched.push(u);
                    }
                    *cur = nd;
                    self.heap.push(Reverse((nd, u)));
                }
            }
        }
        for v in self.touched.drain(..) {
            self.dist[v as usize] = INFINITY;
        }
    }
}

// ---------------------------------------------------------------------
// The distance request
// ---------------------------------------------------------------------

/// A fully-specified distance-serving deployment: a [`SpannerRequest`]
/// (graph + algorithm + backend + seed) composed with a [`QueryEngine`].
/// Cheap to clone; borrows the graph.
#[derive(Debug, Clone)]
pub struct DistanceRequest<'g> {
    spanner: SpannerRequest<'g>,
    engine: QueryEngine,
}

impl<'g> DistanceRequest<'g> {
    /// A request on the sequential backend with seed 0 and the exact
    /// [`QueryEngine::Dijkstra`] engine; refine with the builders.
    pub fn new(graph: &'g Graph, algorithm: Algorithm) -> Self {
        DistanceRequest {
            spanner: SpannerRequest::new(graph, algorithm),
            engine: QueryEngine::Dijkstra,
        }
    }

    /// Wraps an already-configured spanner request.
    pub fn from_spanner_request(spanner: SpannerRequest<'g>) -> Self {
        DistanceRequest {
            spanner,
            engine: QueryEngine::Dijkstra,
        }
    }

    /// Chooses the execution backend for the spanner construction.
    pub fn on(mut self, backend: Backend) -> Self {
        self.spanner = self.spanner.on(backend);
        self
    }

    /// Sets the shared-randomness seed (spanner coins *and* sketch
    /// landmark sampling).
    pub fn seed(mut self, seed: u64) -> Self {
        self.spanner = self.spanner.seed(seed);
        self
    }

    /// Chooses the query engine.
    pub fn engine(mut self, engine: QueryEngine) -> Self {
        self.engine = engine;
        self
    }

    /// Per-request build deadline, measured from the start of
    /// [`Self::build`]. It is checked inside the spanner construction
    /// (see [`SpannerRequest::deadline`]), after it, between
    /// Thorup–Zwick levels and every 256 cluster searches, and once more
    /// when the oracle is complete.
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.spanner = self.spanner.deadline(deadline);
        self
    }

    /// The underlying spanner request.
    pub fn spanner_request(&self) -> &SpannerRequest<'g> {
        &self.spanner
    }

    /// Validates the request and predicts the composed guarantee and
    /// model cost without executing anything.
    pub fn plan(&self) -> Result<DistancePlan, PipelineError> {
        self.engine.validate()?;
        let spanner = self.spanner.plan()?;
        let factor = self.engine.stretch_factor();
        Ok(DistancePlan {
            stretch_bound: spanner.stretch_bound * factor,
            query_stretch_factor: factor,
            engine: self.engine,
            gather_rounds: match self.spanner.backend() {
                Backend::Mpc { .. } => Some(1),
                _ => None,
            },
            spanner,
        })
    }

    /// Executes the request: builds the spanner on the chosen backend
    /// and collects it (on MPC, the Section 7 "+1 gather" onto machine
    /// 0; on the Congested Clique, the Lenzen dissemination to every
    /// node), preprocesses the query substrate, and returns
    /// the queryable [`DistanceOracle`], under a [`BuildGuard`] armed
    /// with the request's deadline. Handle-based oracle jobs run the
    /// same path, so both produce bit-identical oracles at equal seeds.
    pub fn build(&self) -> Result<DistanceOracle, PipelineError> {
        let spanner = &self.spanner;
        self.build_guarded(&BuildGuard::armed(
            spanner.algorithm(),
            spanner.deadline_limit(),
            None,
        ))
    }

    /// The guarded build (plan → spanner → collection → substrate),
    /// shared by [`Self::build`] and by the service's oracle jobs.
    pub(crate) fn build_guarded(
        &self,
        guard: &BuildGuard,
    ) -> Result<DistanceOracle, PipelineError> {
        let plan = self.plan()?;
        // analyze:allow(determinism-taint): build-latency telemetry only — never in artifacts
        let started = Instant::now();
        guard.check()?;
        // The guard rides into the spanner construction itself: engine
        // grow iterations are preemptible, not just the sketch phases.
        let report = self.spanner.run_guarded(guard)?;
        guard.check()?;
        let result = report.result;

        // Step 2 of Section 7 on the MPC backend: a real in-model gather
        // of the spanner onto machine 0, whose Õ(n) memory must absorb
        // it (enforced by the runtime). Only the gather is charged to
        // the run's rounds — placing the already-in-model spanner back
        // into the fresh accounting system is a harness artifact the
        // paper's "+1" doesn't pay.
        let (execution, gather_rounds) = match report.stats {
            ExecutionStats::Mpc(mut stats) => {
                let mut sys = MpcSystem::new(stats.config);
                let ids: Vec<u64> = result.edges.iter().map(|&id| id as u64).collect();
                let dist = Dist::distribute(&mut sys, ids)?;
                comm::gather_to_machine(&mut sys, dist, 0, "apsp.collect")?;
                stats.metrics.absorb(sys.metrics());
                (ExecutionStats::Mpc(stats), Some(sys.rounds()))
            }
            // Corollary 1.5's collection step: every node learns the
            // whole spanner, 4 words per edge, by Lenzen dissemination,
            // charged to the run's rounds and words like the MPC gather.
            ExecutionStats::CongestedClique(mut stats) => {
                let mut net = CcNetwork::new(self.spanner.graph().n().max(2));
                let rounds = net.disseminate_to_all(4 * result.size());
                stats.rounds += rounds;
                stats.total_words += net.total_words();
                (ExecutionStats::CongestedClique(stats), Some(rounds))
            }
            stats => (stats, None),
        };

        guard.check()?;
        let spanner = self.spanner.graph().edge_subgraph(&result.edges);
        let substrate = match self.engine {
            QueryEngine::Dijkstra => Substrate::Dijkstra(spanner),
            QueryEngine::Sketches { levels } => {
                let sketches = DistanceSketches::preprocess_guarded(
                    &spanner,
                    levels,
                    self.spanner.seed_value(),
                    result.stretch_bound,
                    guard,
                )?;
                // Sketch queries never read the CSR: keep the canonical
                // edge list, from which `spanner()` rebuilds it.
                Substrate::Sketches {
                    sketches,
                    n: spanner.n(),
                    edges: spanner.edges().to_vec(),
                    graph: OnceLock::new(),
                }
            }
        };

        // The deadline covers the whole build — gather and substrate
        // preprocessing included, since for sketch oracles those
        // dominate.
        guard.check()?;

        Ok(DistanceOracle {
            substrate,
            spanner_edges: result.edges,
            substrate_stretch: result.stretch_bound,
            engine: self.engine,
            stats: DistanceBuildStats {
                algorithm: result.algorithm,
                backend: plan.spanner.backend,
                seed: self.spanner.seed_value(),
                iterations: result.iterations,
                execution,
                gather_rounds,
                build_elapsed: started.elapsed(),
            },
        })
    }
}

/// The predicted composition of a [`DistanceRequest`], computed before
/// running anything.
#[derive(Debug, Clone)]
pub struct DistancePlan {
    /// The underlying spanner construction's plan.
    pub spanner: Plan,
    /// The query engine that will serve.
    pub engine: QueryEngine,
    /// The engine's extra stretch factor (`2λ−1` for sketches).
    pub query_stretch_factor: f64,
    /// The composed end-to-end guarantee `σ·(2λ−1)`.
    pub stretch_bound: f64,
    /// Predicted rounds for the Section 7 gather (`Some(1)` on MPC —
    /// the spanner fits one near-linear machine). `None` on the
    /// Congested Clique, whose dissemination cost depends on the
    /// spanner's size and is reported by
    /// [`DistanceBuildStats::gather_rounds`] after the build.
    pub gather_rounds: Option<u64>,
}

/// What building a [`DistanceOracle`] cost, per backend.
#[derive(Debug, Clone)]
pub struct DistanceBuildStats {
    /// Label of the algorithm that produced the spanner.
    pub algorithm: String,
    /// Backend the spanner construction ran on.
    pub backend: &'static str,
    /// The shared-randomness seed used.
    pub seed: u64,
    /// Grow iterations the construction used.
    pub iterations: u32,
    /// Backend cost of the construction. On MPC this *includes* the
    /// gather (rounds, traffic and the host machine's peak storage); on
    /// the Congested Clique it includes the dissemination (rounds and
    /// words).
    pub execution: ExecutionStats,
    /// Rounds the collection step cost: the Section 7 gather on MPC,
    /// the Corollary 1.5 Lenzen dissemination of `4·|E_S|` words on the
    /// Congested Clique, `None` on the other backends.
    pub gather_rounds: Option<u64>,
    /// Wall clock for construction + collection + substrate
    /// preprocessing.
    pub build_elapsed: Duration,
}

// ---------------------------------------------------------------------
// The oracle
// ---------------------------------------------------------------------

/// A queryable distance oracle: the spanner (collected onto "one
/// machine") plus the preprocessed query substrate. Every answer `d̂`
/// satisfies `d_G(u,v) ≤ d̂ ≤ stretch_bound() · d_G(u,v)`, and connected
/// pairs never answer [`INFINITY`].
#[derive(Debug, Clone)]
pub struct DistanceOracle {
    substrate: Substrate,
    spanner_edges: Vec<EdgeId>,
    substrate_stretch: f64,
    engine: QueryEngine,
    stats: DistanceBuildStats,
}

/// What an oracle's queries run on.
#[derive(Debug, Clone)]
enum Substrate {
    /// Exact Dijkstra searches on the spanner's CSR.
    Dijkstra(Graph),
    /// Thorup–Zwick sketches. No query reads the spanner, so it is kept
    /// as its canonical edge list; [`DistanceOracle::spanner`] builds
    /// the CSR from it on the first call.
    Sketches {
        sketches: DistanceSketches,
        n: usize,
        edges: EdgeList,
        graph: OnceLock<Graph>,
    },
}

impl DistanceOracle {
    /// Approximate distance from `u` to `v` under the composed
    /// guarantee.
    pub fn query(&self, u: u32, v: u32) -> Distance {
        match &self.substrate {
            Substrate::Dijkstra(spanner) => dijkstra(spanner, u).dist[v as usize],
            Substrate::Sketches { sketches, .. } => sketches.query(u, v),
        }
    }

    /// Approximate distances from `source` to every vertex.
    pub fn distances_from(&self, source: u32) -> Vec<Distance> {
        match &self.substrate {
            Substrate::Dijkstra(spanner) => dijkstra(spanner, source).dist,
            Substrate::Sketches { sketches, n, .. } => {
                (0..*n as u32).map(|v| sketches.query(source, v)).collect()
            }
        }
    }

    /// Serves a batch of `(u, v)` queries on the rayon pool. Results are
    /// order-preserving and bit-identical to one-by-one [`Self::query`]
    /// calls at every thread count. Dijkstra-engine batches share one
    /// traversal per distinct source.
    pub fn query_batch(&self, queries: &[(u32, u32)]) -> Vec<Distance> {
        match &self.substrate {
            Substrate::Sketches { sketches, .. } => queries
                .par_iter()
                .map(|&(u, v)| sketches.query(u, v))
                .collect(),
            Substrate::Dijkstra(spanner) => {
                let mut sources: Vec<u32> = queries.iter().map(|&(u, _)| u).collect();
                sources.sort_unstable();
                sources.dedup();
                let rows: Vec<Vec<Distance>> = sources
                    .par_iter()
                    .map(|&s| dijkstra(spanner, s).dist)
                    .collect();
                let row_of: HashMap<u32, usize> =
                    sources.iter().enumerate().map(|(i, &s)| (s, i)).collect();
                queries
                    .iter()
                    .map(|&(u, v)| rows[row_of[&u]][v as usize])
                    .collect()
            }
        }
    }

    /// The composed end-to-end guarantee `σ·(2λ−1)` relative to the
    /// original graph.
    pub fn stretch_bound(&self) -> f64 {
        self.substrate_stretch * self.engine.stretch_factor()
    }

    /// The spanner's own stretch `σ`.
    pub fn substrate_stretch(&self) -> f64 {
        self.substrate_stretch
    }

    /// The engine serving the queries.
    pub fn engine(&self) -> QueryEngine {
        self.engine
    }

    /// The preprocessed sketches, when [`QueryEngine::Sketches`] serves.
    pub fn sketches(&self) -> Option<&DistanceSketches> {
        match &self.substrate {
            Substrate::Dijkstra(_) => None,
            Substrate::Sketches { sketches, .. } => Some(sketches),
        }
    }

    /// Number of spanner edges the oracle stores — the paper's
    /// `O(n log log n)` for the Corollary 1.4 parameters.
    pub fn size(&self) -> usize {
        match &self.substrate {
            Substrate::Dijkstra(spanner) => spanner.m(),
            Substrate::Sketches { edges, .. } => edges.len(),
        }
    }

    /// The spanner as a standalone graph (same vertex set as the host).
    /// A Dijkstra oracle searches this graph and holds it from the
    /// build on. A sketch oracle's queries never read it, so it holds
    /// only the spanner's edge list and builds the graph on the first
    /// call, once.
    pub fn spanner(&self) -> &Graph {
        match &self.substrate {
            Substrate::Dijkstra(spanner) => spanner,
            Substrate::Sketches {
                n, edges, graph, ..
            } => graph.get_or_init(|| Graph::from_edges(*n, edges.iter().copied())),
        }
    }

    /// Edge ids of the spanner within the host graph.
    pub fn spanner_edges(&self) -> &[EdgeId] {
        &self.spanner_edges
    }

    /// Per-backend build statistics (construction + gather + substrate).
    pub fn stats(&self) -> &DistanceBuildStats {
        &self.stats
    }
}

impl HeapSize for DistanceSketches {
    fn heap_size(&self) -> usize {
        self.pivots.len() * std::mem::size_of::<(u32, Distance)>()
            + self.bunch_start.len() * std::mem::size_of::<usize>()
            + self.bunch_ids.len() * std::mem::size_of::<u32>()
            + self.bunch_dists.len() * std::mem::size_of::<Distance>()
    }
}

impl HeapSize for DistanceOracle {
    /// A sketch oracle is charged for its spanner's graph whether or not
    /// [`DistanceOracle::spanner`] has built it yet: the store records
    /// an artifact's size once, at insertion, so the charge must not
    /// grow afterwards.
    fn heap_size(&self) -> usize {
        let substrate = match &self.substrate {
            Substrate::Dijkstra(spanner) => spanner.heap_size(),
            Substrate::Sketches {
                sketches, n, edges, ..
            } => {
                sketches.heap_size()
                    + edges.len() * std::mem::size_of::<Edge>()
                    + graph_heap_size(*n, edges.len())
            }
        };
        substrate
            + self.spanner_edges.len() * std::mem::size_of::<EdgeId>()
            + std::mem::size_of::<Self>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TradeoffParams;
    use spanner_graph::edge::Edge;
    use spanner_graph::generators::{self, WeightModel};

    fn graph() -> Graph {
        generators::connected_erdos_renyi(100, 0.08, WeightModel::Uniform(1, 16), 3)
    }

    fn request(g: &Graph) -> DistanceRequest<'_> {
        DistanceRequest::new(g, Algorithm::General(TradeoffParams::new(4, 2))).seed(11)
    }

    #[test]
    fn single_level_is_exact_everywhere() {
        // λ = 1: every vertex's bunch is the whole component (no next
        // pivot to cut it off) ⇒ queries are exact.
        let g = graph();
        let sk = DistanceSketches::preprocess(&g, 1, 5);
        let exact = dijkstra(&g, 0).dist;
        for v in 0..g.n() as u32 {
            assert_eq!(sk.query(0, v), exact[v as usize], "v={v}");
        }
    }

    #[test]
    fn queries_respect_2k_minus_1() {
        let g = graph();
        for levels in [2u32, 3] {
            let sk = DistanceSketches::preprocess(&g, levels, 7);
            let bound = (2 * levels - 1) as f64;
            for s in [0u32, 17, 55] {
                let exact = dijkstra(&g, s).dist;
                for v in 0..g.n() as u32 {
                    if v == s || exact[v as usize] == INFINITY {
                        continue;
                    }
                    let est = sk.query(s, v);
                    assert!(est != INFINITY, "query must succeed within a component");
                    assert!(est >= exact[v as usize], "never underestimate");
                    assert!(
                        est as f64 <= bound * exact[v as usize] as f64 + 1e-9,
                        "λ={levels}, ({s},{v}): {est} > {bound}·{}",
                        exact[v as usize]
                    );
                }
            }
        }
    }

    #[test]
    fn bunches_match_the_reference_construction() {
        // The landmark-row + cluster-search preprocessing must produce
        // exactly the textbook bunches: w ∈ B(v) ⇔ d(v,w) < d(v, p_{i+1}(v))
        // with exact distances, here recomputed the slow way.
        let g = generators::connected_erdos_renyi(60, 0.1, WeightModel::Uniform(1, 8), 9);
        let lam = 3u32;
        let sk = DistanceSketches::preprocess(&g, lam, 13);
        let all = spanner_graph::shortest_paths::apsp(&g);
        for (v, row) in all.iter().enumerate() {
            let (ids, dists) = sk.bunch(v as u32);
            assert!(
                ids.windows(2).all(|pair| pair[0] < pair[1]),
                "bunch of {v} is not sorted by landmark"
            );
            for (w, &d) in row.iter().enumerate() {
                let found = ids.binary_search(&(w as u32)).ok();
                // w's level is the deepest i with p_i(w) = w; its bunch
                // rule is cut off by v's next pivot.
                let i = level_of_vertex(&sk, w as u32) as usize;
                let nxt = if i + 1 < lam as usize {
                    sk.pivot(v as u32, i + 1).1
                } else {
                    INFINITY
                };
                let expected = d != INFINITY && d < nxt;
                assert_eq!(
                    found.is_some(),
                    expected,
                    "bunch membership mismatch for (v={v}, w={w})"
                );
                if let Some(j) = found {
                    assert_eq!(dists[j], d, "inexact bunch distance");
                }
            }
        }
    }

    /// Recovers a vertex's landmark level from its own pivot row: `w`'s
    /// level is the deepest `i` with `p_i(w) = w`.
    fn level_of_vertex(sk: &DistanceSketches, w: u32) -> u32 {
        (0..sk.levels() as usize)
            .rev()
            .find(|&i| sk.pivot(w, i) == (w, 0))
            .expect("level 0 pivot is always v itself") as u32
    }

    #[test]
    fn heap_size_counts_the_flat_arrays() {
        let g = graph();
        let sk = DistanceSketches::preprocess(&g, 2, 7);
        let n = g.n();
        let bunch_entries = sk.total_entries() - 2 * n;
        assert_eq!(
            sk.heap_size(),
            2 * n * std::mem::size_of::<(u32, Distance)>()
                + (n + 1) * std::mem::size_of::<usize>()
                + bunch_entries * (std::mem::size_of::<u32>() + std::mem::size_of::<Distance>())
        );
    }

    #[test]
    fn more_levels_means_smaller_bunches() {
        let g = generators::connected_erdos_renyi(150, 0.1, WeightModel::Unit, 11);
        let s1 = DistanceSketches::preprocess(&g, 1, 3).total_entries();
        let s3 = DistanceSketches::preprocess(&g, 3, 3).total_entries();
        assert!(
            s3 < s1,
            "λ=3 bunches ({s3}) must be smaller than λ=1 full tables ({s1})"
        );
    }

    #[test]
    fn every_component_gets_a_top_level_landmark() {
        // Two components; make the graph big enough that landmark
        // sampling concentrates in one component for most seeds. Every
        // connected pair must answer finitely for every seed.
        let mut edges = Vec::new();
        for v in 0..30u32 {
            edges.push(Edge::new(v, (v + 1) % 31, 1 + v as u64 % 3));
        }
        for v in 31..40u32 {
            edges.push(Edge::new(v, v + 1, 2));
        }
        let g = Graph::from_edges(41, edges);
        for seed in 0..20u64 {
            for levels in [2u32, 3] {
                let sk = DistanceSketches::preprocess(&g, levels, seed);
                let exact = dijkstra(&g, 35).dist;
                for v in 31..=40u32 {
                    assert!(
                        sk.query(35, v) != INFINITY,
                        "seed {seed}, λ={levels}: connected pair (35,{v}) dropped"
                    );
                    assert!(sk.query(35, v) >= exact[v as usize]);
                }
                // Cross-component pairs stay INFINITY.
                assert_eq!(sk.query(0, 35), INFINITY);
            }
        }
    }

    #[test]
    fn dijkstra_oracle_answers_within_composed_bound() {
        let g = graph();
        let oracle = request(&g).build().unwrap();
        assert_eq!(oracle.engine(), QueryEngine::Dijkstra);
        assert_eq!(oracle.stretch_bound(), oracle.substrate_stretch());
        let exact = dijkstra(&g, 5).dist;
        let approx = oracle.distances_from(5);
        for v in 0..g.n() {
            assert!(approx[v] >= exact[v]);
            assert!(approx[v] != INFINITY, "connectivity preserved");
            assert!(approx[v] as f64 <= oracle.stretch_bound() * exact[v].max(1) as f64 + 1e-9);
        }
    }

    #[test]
    fn plan_composes_the_guarantee() {
        let g = graph();
        let req = request(&g).engine(QueryEngine::Sketches { levels: 3 });
        let plan = req.plan().unwrap();
        assert_eq!(plan.query_stretch_factor, 5.0);
        assert_eq!(plan.stretch_bound, plan.spanner.stretch_bound * 5.0);
        assert_eq!(plan.gather_rounds, None);
        let oracle = req.build().unwrap();
        assert_eq!(oracle.stretch_bound(), plan.stretch_bound);
    }

    #[test]
    fn zero_levels_is_a_typed_error() {
        let g = graph();
        assert!(matches!(
            request(&g)
                .engine(QueryEngine::Sketches { levels: 0 })
                .plan(),
            Err(PipelineError::InvalidRequest(_))
        ));
    }

    #[test]
    fn cc_apsp_spanner_is_sized_near_linearly() {
        // Corollary 1.5: the Corollary 1.2(4) spanner on the Congested
        // Clique with 8 repetitions, disseminated to every node.
        let g = generators::connected_erdos_renyi(256, 0.2, WeightModel::Unit, 11);
        let params = crate::presets::CorollarySetting::ApspRegime
            .try_params(g.n(), 0)
            .unwrap();
        let oracle = DistanceRequest::new(&g, Algorithm::General(params))
            .on(Backend::CongestedClique { repetitions: 8 })
            .seed(13)
            .build()
            .unwrap();
        // O(n log log n) with slack; certainly far below m here.
        assert!(
            oracle.size() < g.m() / 2,
            "spanner {} vs m {}",
            oracle.size(),
            g.m()
        );
    }

    #[test]
    fn query_batch_matches_one_by_one() {
        let g = graph();
        for engine in [QueryEngine::Dijkstra, QueryEngine::Sketches { levels: 2 }] {
            let oracle = request(&g).engine(engine).build().unwrap();
            let queries: Vec<(u32, u32)> =
                (0..60u32).map(|i| (i % 7, (i * 13 + 3) % 100)).collect();
            let batch = oracle.query_batch(&queries);
            for (&(u, v), &got) in queries.iter().zip(&batch) {
                assert_eq!(got, oracle.query(u, v), "({u},{v})");
            }
        }
    }
}
