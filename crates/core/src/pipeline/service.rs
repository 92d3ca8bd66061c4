//! The **long-lived serving front door**: register a graph once, serve
//! many jobs against the handle.
//!
//! The one-shot API ([`SpannerRequest`] / [`super::DistanceRequest`])
//! borrows a `&Graph` per call: every caller re-submits the full graph
//! and every derived artefact (spanner, oracle) dies with the call. The
//! paper's headline application (§1.2, §7) is the opposite shape — one
//! expensive parallel preprocessing, then *many* cheap distance queries
//! — so this module redesigns the front door around long-lived state:
//!
//! ```
//! use spanner_core::pipeline::{Algorithm, QueryEngine, SpannerService};
//! use spanner_core::TradeoffParams;
//! use spanner_graph::generators::{connected_erdos_renyi, WeightModel};
//!
//! let service = SpannerService::new();
//! let g = connected_erdos_renyi(120, 0.08, WeightModel::Uniform(1, 16), 7);
//! let handle = service.register(g); // fingerprint-deduped, versioned
//!
//! // First build is a miss; the artifact lands in the budgeted store.
//! let oracle = service
//!     .oracle(&handle, Algorithm::General(TradeoffParams::new(4, 2)))
//!     .engine(QueryEngine::Sketches { levels: 2 })
//!     .seed(42)
//!     .build()
//!     .unwrap();
//! let d = oracle.query(0, 50);
//! assert!(d >= 1);
//!
//! // Same job again: served from the store, no recomputation.
//! let again = service
//!     .oracle(&handle, Algorithm::General(TradeoffParams::new(4, 2)))
//!     .engine(QueryEngine::Sketches { levels: 2 })
//!     .seed(42)
//!     .build()
//!     .unwrap();
//! assert!(std::sync::Arc::ptr_eq(&oracle, &again));
//! assert_eq!(service.stats().hits, 1);
//! ```
//!
//! * [`SpannerService::register`] — graph registry: handles are `Arc`'d
//!   (zero-copy sharing across jobs and threads), deduplicated by
//!   [`Graph::fingerprint`] *plus a full content comparison* (a
//!   fingerprint collision must never alias two different graphs), and
//!   **versioned**: re-registering a mutated graph under the same
//!   registry key bumps the version and invalidates every dependent
//!   artifact, and a key never issues a version twice, not even after
//!   [`SpannerService::invalidate`], so a stale oracle can never be
//!   served;
//! * [`JobSpec`] — the one description of a serving job, in the
//!   one-shot vocabulary ([`Algorithm`], [`Backend`], [`Verification`],
//!   [`QueryEngine`], seeds, deadlines, [`CancelToken`]s). The builders
//!   [`SpannerService::spanner`] / [`SpannerService::oracle`] bind a
//!   spec to the service and return the same [`RunReport`] /
//!   [`DistanceOracle`] types, `Arc`'d out of the artifact store; the
//!   [`JobQueue`](super::JobQueue) schedules specs;
//! * [`LruStore`] — the one cache: a memory-budgeted artifact store
//!   whose one map holds, per key, the build in flight or the stored
//!   artifact. Every artifact is sized through the [`HeapSize`] trait
//!   and the least-recently-used ones are evicted once the byte budget
//!   ([`SpannerService::with_budget`], the service's only setting) is
//!   exceeded;
//! * [`ServiceStats`] — hit/miss/eviction/latency counters.
//!
//! Every job, blocking or queued, renders its artifact key and is served
//! by one path, [`LruStore::serve`]: a hit answers from the store, and a
//! miss checks the job's [`BuildGuard`] and builds.
//!
//! Builds are **single-flight**: one build per key at a time. The first
//! job to miss a key puts its build in flight into the store's map and
//! leads it; every job that misses the same key meanwhile finds that
//! entry, follows it, waits, and is handed the leader's `Arc`, counted
//! as a hit. When the build lands, the leader swaps its entry for the
//! artifact under the store's lock (or removes it, if the build failed
//! or the artifact outgrows the budget), evicts down to budget, and
//! only then wakes its followers. A follower also shares the leader's
//! error, except one from the leader's own guard
//! ([`PipelineError::Cancelled`], [`PipelineError::DeadlineExceeded`]):
//! then the followers go back to the store, and one of them builds under
//! its own guard. A follower waits under its own guard too, so its own
//! token or deadline ends its wait, while the leader's build lands in
//! the store regardless.
//!
//! A blocking job runs on the calling thread, with no admission limit of
//! its own: the one admission point for serving traffic is the
//! [`JobQueue`](super::JobQueue), whose worker count bounds how many
//! jobs execute at once. A job builds its artifact through
//! [`SpannerRequest`] / [`DistanceRequest`], like the one-shot
//! [`SpannerRequest::run`] / [`DistanceRequest::build`], so both produce
//! bit-identical artifacts at equal seeds.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use spanner_graph::edge::{Edge, EdgeId, Weight};
use spanner_graph::Graph;

use super::distance::{BuildGuard, DistanceOracle, DistanceRequest, QueryEngine};
use super::queue::{ClientId, Priority};
use super::{
    Algorithm, Backend, CancelToken, PipelineError, RunReport, SpannerRequest, Verification,
};
use crate::result::SpannerResult;
use crate::sync::{MutexGuard, TrackedCondvar, TrackedMutex};

// ---------------------------------------------------------------------
// HeapSize
// ---------------------------------------------------------------------

/// Estimated heap footprint in bytes — what the artifact store's budget
/// is denominated in.
///
/// Estimates count the dominant owned allocations (edge lists, CSR
/// arrays, sketch tables); constant-size headers and allocator slack are
/// ignored. The store only needs *relative* sizes to be faithful for
/// its eviction decisions, not byte-exact accounting.
pub trait HeapSize {
    /// Estimated owned heap bytes.
    fn heap_size(&self) -> usize;
}

/// The heap size of a [`Graph`] with `n` vertices and `m` edges: the
/// canonical edge list, two CSR adjacency entries per edge and the
/// offset array.
pub(crate) fn graph_heap_size(n: usize, m: usize) -> usize {
    m * std::mem::size_of::<Edge>()
        + 2 * m * std::mem::size_of::<(u32, Weight, EdgeId)>()
        + (n + 1) * std::mem::size_of::<usize>()
}

impl HeapSize for Graph {
    fn heap_size(&self) -> usize {
        graph_heap_size(self.n(), self.m())
    }
}

impl HeapSize for SpannerResult {
    fn heap_size(&self) -> usize {
        self.edges.len() * std::mem::size_of::<EdgeId>()
            + self.radius_per_epoch.len() * std::mem::size_of::<u32>()
            + self.supernodes_per_epoch.len() * std::mem::size_of::<usize>()
            + self.algorithm.len()
    }
}

impl HeapSize for RunReport {
    fn heap_size(&self) -> usize {
        self.result.heap_size() + self.plan.algorithm.len() + std::mem::size_of::<Self>()
    }
}

impl<T: HeapSize> HeapSize for Arc<T> {
    fn heap_size(&self) -> usize {
        T::heap_size(self)
    }
}

impl HeapSize for JobOutput {
    fn heap_size(&self) -> usize {
        match self {
            JobOutput::Spanner(report) => report.heap_size(),
            JobOutput::Oracle(oracle) => oracle.heap_size(),
        }
    }
}

// ---------------------------------------------------------------------
// The budgeted LRU store
// ---------------------------------------------------------------------

/// What the store holds for a key: the build in flight, or the stored
/// artifact.
#[derive(Debug)]
enum Slot<V> {
    Building(Arc<Flight<V>>),
    Stored(StoreEntry<V>),
}

#[derive(Debug)]
struct StoreEntry<V> {
    value: V,
    size: usize,
    last_used: u64,
}

#[derive(Debug)]
struct LruInner<K, V> {
    map: HashMap<K, Slot<V>>,
    /// Recency index over the stored artifacts: `last_used` tick → key
    /// (ticks are unique), so the LRU victim is `pop_first()` instead of
    /// a full map scan.
    order: std::collections::BTreeMap<u64, K>,
    used: usize,
    tick: u64,
    evictions: u64,
}

impl<K: Eq + Hash + Clone, V> LruInner<K, V> {
    /// The slot for `key`; a stored artifact moves to the front of the
    /// recency order.
    fn touch(&mut self, key: &K) -> Option<&Slot<V>> {
        self.tick += 1;
        let tick = self.tick;
        let slot = self.map.get_mut(key)?;
        if let Slot::Stored(entry) = slot {
            self.order.remove(&entry.last_used);
            entry.last_used = tick;
            self.order.insert(tick, key.clone());
        }
        Some(slot)
    }
}

/// A thread-safe, memory-budgeted artifact store with single-flight
/// builds and least-recently-used eviction. One map holds everything
/// the store knows about a key: the build in flight, or the stored
/// artifact with its [`HeapSize`] and recency. [`LruStore::serve`] is
/// its one way in.
///
/// Once the stored total exceeds the budget, least-recently-touched
/// artifacts are evicted until it fits. An artifact larger than the
/// whole budget is never stored in the first place — its callers still
/// get it, and the warm entries (which do fit) are left untouched.
///
/// This is the artifact store behind [`SpannerService`].
#[derive(Debug)]
pub struct LruStore<K, V> {
    budget: usize,
    inner: TrackedMutex<LruInner<K, V>>,
}

impl<K: Eq + Hash + Clone, V: Clone + HeapSize> LruStore<K, V> {
    /// An empty store with the given byte budget (`usize::MAX` for
    /// "track recency but never evict"). At `0` it stores no artifact of
    /// positive size, while jobs that miss one key at once still share
    /// one build.
    pub fn new(budget_bytes: usize) -> Self {
        LruStore {
            budget: budget_bytes,
            inner: TrackedMutex::new(
                "core.lru_store",
                LruInner {
                    map: HashMap::new(),
                    order: std::collections::BTreeMap::new(),
                    used: 0,
                    tick: 0,
                    evictions: 0,
                },
            ),
        }
    }

    /// The configured byte budget.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Number of stored artifacts (builds in flight are not counted).
    pub fn len(&self) -> usize {
        self.lock().order.len()
    }

    /// Whether no artifact is stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes currently held.
    pub fn used_bytes(&self) -> usize {
        self.lock().used
    }

    /// Artifacts evicted or never admitted under budget pressure over
    /// the store's lifetime (explicit [`LruStore::purge`] removals are
    /// not counted).
    pub fn evictions(&self) -> u64 {
        self.lock().evictions
    }

    /// Fetches and touches (marks most-recently-used) a stored artifact.
    pub fn get(&self, key: &K) -> Option<V> {
        match self.lock().touch(key) {
            Some(Slot::Stored(entry)) => Some(entry.value.clone()),
            _ => None,
        }
    }

    /// Serves `key`: a stored artifact, touched; else the outcome of the
    /// build in flight for `key`, once it lands; else, after checking
    /// `guard`, a build of its own through `build`, which every miss on
    /// `key` arriving meanwhile follows. Returns the value and whether
    /// this call built it.
    ///
    /// The leader stores its artifact, if it fits the budget, and evicts
    /// down to budget before it wakes its followers. A follower waits
    /// under its own `guard` and fails with its own error once that
    /// fires. It shares the leader's artifact or error, except the
    /// leader's [`PipelineError::Cancelled`] or
    /// [`PipelineError::DeadlineExceeded`]: those belong to the leader's
    /// guard, so the follower starts over.
    pub fn serve(
        &self,
        key: &K,
        guard: &BuildGuard,
        build: impl FnOnce() -> Outcome<V>,
    ) -> Outcome<(V, bool)> {
        loop {
            let (flight, leads) = {
                let mut inner = self.lock();
                match inner.touch(key) {
                    Some(Slot::Stored(entry)) => return Ok((entry.value.clone(), false)),
                    Some(Slot::Building(flight)) => {
                        guard.check()?;
                        (Arc::clone(flight), false)
                    }
                    None => {
                        guard.check()?;
                        let flight = Arc::new(Flight::new());
                        let slot = Slot::Building(Arc::clone(&flight));
                        inner.map.insert(key.clone(), slot);
                        (flight, true)
                    }
                }
            };
            if leads {
                let lead = Lead {
                    store: self,
                    key,
                    flight,
                    landing: Landing::Abandoned,
                };
                return lead.run(build);
            }
            if let Some(outcome) = flight.follow(guard)? {
                return outcome.map(|value| (value, false));
            }
        }
    }

    /// Removes every stored artifact whose key fails `keep`; returns how
    /// many were removed. Used for artifact invalidation on graph
    /// re-registration (not counted as budget evictions). Builds in
    /// flight are left to land.
    pub fn purge(&self, mut keep: impl FnMut(&K) -> bool) -> usize {
        let mut inner = self.lock();
        let mut freed = 0usize;
        let mut dropped_ticks = Vec::new();
        // analyze:allow(determinism-taint): per-key predicate; freed sum and per-tick order removals are order-insensitive
        inner.map.retain(|k, slot| match slot {
            Slot::Stored(e) if !keep(k) => {
                freed += e.size;
                dropped_ticks.push(e.last_used);
                false
            }
            _ => true,
        });
        for tick in &dropped_ticks {
            inner.order.remove(tick);
        }
        inner.used -= freed;
        dropped_ticks.len()
    }

    /// Replaces the build in flight for `key` with its artifact, when
    /// there is one and it fits the budget, and evicts down to budget.
    fn land(&self, key: &K, artifact: Option<V>) {
        let size = artifact.as_ref().map_or(0, HeapSize::heap_size);
        let mut inner = self.lock();
        match artifact {
            Some(value) if size <= self.budget => {
                inner.tick += 1;
                let tick = inner.tick;
                let entry = StoreEntry {
                    value,
                    size,
                    last_used: tick,
                };
                inner.map.insert(key.clone(), Slot::Stored(entry));
                inner.order.insert(tick, key.clone());
                inner.used += size;
                self.evict_to_budget(&mut inner);
            }
            artifact => {
                // No artifact, or one never cacheable: storing it and
                // evicting down would pop every (still-fitting) warm
                // entry before this one — wiping the store for nothing.
                // Leave the warm entries be.
                inner.map.remove(key);
                inner.evictions += u64::from(artifact.is_some());
            }
        }
    }

    fn evict_to_budget(&self, inner: &mut LruInner<K, V>) {
        while inner.used > self.budget {
            let Some((_, victim)) = inner.order.pop_first() else {
                break;
            };
            // A stale order entry (index/map drift) is skipped rather
            // than panicking a serving thread that holds the store
            // lock; the loop still terminates because `order` shrinks.
            let Some(Slot::Stored(e)) = inner.map.remove(&victim) else {
                debug_assert!(false, "order index and map out of sync");
                continue;
            };
            inner.used -= e.size;
            inner.evictions += 1;
        }
    }

    fn lock(&self) -> MutexGuard<'_, LruInner<K, V>> {
        self.inner.lock()
    }
}

// ---------------------------------------------------------------------
// Single-flight
// ---------------------------------------------------------------------

/// How long a follower waits between checks of its own guard. A landing
/// wakes it at once; the slice only bounds how late it notices its own
/// fired token.
const FOLLOWER_CHECK: Duration = Duration::from_millis(10);

/// A build in flight. Each flight has its own lock and condvar, so a
/// follower parks holding only its flight's lock, and the store's lock
/// is never held with another tracked lock.
#[derive(Debug)]
struct Flight<V> {
    state: TrackedMutex<FlightState<V>>,
    /// Notified when the flight lands and when a follower joins.
    changed: TrackedCondvar,
}

#[derive(Debug)]
struct FlightState<V> {
    landing: Landing<V>,
    /// Jobs that have joined the flight as followers. The tests wait on
    /// it (through `changed`) to force their interleavings.
    followers: usize,
}

/// A finished build: its artifact, or its error.
type Outcome<V> = Result<V, PipelineError>;

/// Where a flight stands.
#[derive(Debug)]
enum Landing<V> {
    /// The leader is building.
    Pending,
    /// The leader finished: its artifact, or an error its followers
    /// share.
    Landed(Outcome<V>),
    /// The leader's own guard stopped it, or its build unwound: its
    /// followers go back to the store.
    Abandoned,
}

impl<V: Clone> Flight<V> {
    fn new() -> Self {
        Flight {
            state: TrackedMutex::new(
                "service.flight",
                FlightState {
                    landing: Landing::Pending,
                    followers: 0,
                },
            ),
            changed: TrackedCondvar::new("service.flight_changed"),
        }
    }

    /// Follows the flight under `guard` until it lands: `Some` with the
    /// leader's outcome, or `None` once the flight is abandoned.
    fn follow(&self, guard: &BuildGuard) -> Outcome<Option<Outcome<V>>> {
        let mut state = self.state.lock();
        state.followers += 1;
        self.changed.notify_all();
        loop {
            match &state.landing {
                Landing::Landed(outcome) => return Ok(Some(outcome.clone())),
                Landing::Abandoned => return Ok(None),
                Landing::Pending => guard.check()?,
            }
            let slice = guard
                .remaining()
                .map_or(FOLLOWER_CHECK, |left| left.min(FOLLOWER_CHECK));
            state = self.changed.wait_timeout(state, slice).0;
        }
    }
}

/// A leader's claim on its flight. Dropping it lands `landing`, which
/// stays [`Landing::Abandoned`] unless the leader sets an outcome, so a
/// build that unwinds never strands its followers.
struct Lead<'a, K: Eq + Hash + Clone, V: Clone + HeapSize> {
    store: &'a LruStore<K, V>,
    key: &'a K,
    flight: Arc<Flight<V>>,
    landing: Landing<V>,
}

impl<K: Eq + Hash + Clone, V: Clone + HeapSize> Lead<'_, K, V> {
    /// The leader's side: the build. Dropping `self` lands its outcome.
    fn run(mut self, build: impl FnOnce() -> Outcome<V>) -> Outcome<(V, bool)> {
        let built = build();
        self.landing = match &built {
            Err(PipelineError::Cancelled | PipelineError::DeadlineExceeded { .. }) => {
                Landing::Abandoned
            }
            outcome => Landing::Landed(outcome.clone()),
        };
        built.map(|value| (value, true))
    }
}

impl<K: Eq + Hash + Clone, V: Clone + HeapSize> Drop for Lead<'_, K, V> {
    fn drop(&mut self) {
        let landing = std::mem::replace(&mut self.landing, Landing::Abandoned);
        // The store first: a job arriving after this finds the artifact,
        // or no entry and leads a build of its own. Only then wake the
        // followers.
        let artifact = match &landing {
            Landing::Landed(Ok(value)) => Some(value.clone()),
            _ => None,
        };
        self.store.land(self.key, artifact);
        self.flight.state.lock().landing = landing;
        self.flight.changed.notify_all();
    }
}

// ---------------------------------------------------------------------
// Stats
// ---------------------------------------------------------------------

/// The store budget of [`SpannerService::new`] and
/// [`ShardedService::new`](super::ShardedService::new): generous for
/// the reproduction's workloads; production deployments size it to the
/// serving tier's RAM.
pub(crate) const DEFAULT_STORE_BUDGET: usize = 256 << 20;

/// A point-in-time snapshot of a service's counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServiceStats {
    /// Jobs answered from the artifact store, or by a build already in
    /// flight for the same artifact (a follower of that build).
    pub hits: u64,
    /// Jobs that missed the store and actually executed. Jobs cancelled
    /// or out of time before execution are *not* misses — they appear
    /// only as the caller's error, so [`ServiceStats::hit_rate`] and
    /// [`ServiceStats::avg_job_latency`] describe real traffic.
    pub misses: u64,
    /// Artifacts evicted under budget pressure.
    pub evictions: u64,
    /// Artifacts invalidated by graph re-registration /
    /// [`SpannerService::invalidate`].
    pub invalidations: u64,
    /// Executed jobs that completed successfully.
    pub completed: u64,
    /// Executed jobs that returned an error.
    pub failed: u64,
    /// Total wall-clock across executed jobs.
    pub busy: Duration,
    /// Artifacts currently cached.
    pub store_len: usize,
    /// Bytes currently cached.
    pub store_used_bytes: usize,
}

impl ServiceStats {
    /// Accumulates another snapshot into this one — the cross-shard
    /// rollup behind [`super::ShardedService::stats`]. Every counter is
    /// a sum, so derived figures ([`ServiceStats::hit_rate`],
    /// [`ServiceStats::avg_job_latency`], [`ServiceStats::summary`])
    /// aggregate across shards for free.
    pub fn merge(&mut self, other: &ServiceStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.evictions += other.evictions;
        self.invalidations += other.invalidations;
        self.completed += other.completed;
        self.failed += other.failed;
        self.busy += other.busy;
        self.store_len += other.store_len;
        self.store_used_bytes += other.store_used_bytes;
    }

    /// Mean wall-clock latency of executed (miss-path) jobs.
    pub fn avg_job_latency(&self) -> Duration {
        let executed = self.completed + self.failed;
        if executed == 0 {
            Duration::ZERO
        } else {
            // analyze:allow(panic-path): guarded — the `executed == 0` arm above returns ZERO
            self.busy / executed as u32
        }
    }

    /// Store hit rate over all served jobs (0.0 when nothing served).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// One-line summary for logs and experiment tables.
    pub fn summary(&self) -> String {
        format!(
            "hits={} misses={} (rate {:.0}%) evictions={} invalidations={} \
             avg_latency={:.3?} store={}B/{} entries",
            self.hits,
            self.misses,
            100.0 * self.hit_rate(),
            self.evictions,
            self.invalidations,
            self.avg_job_latency(),
            self.store_used_bytes,
            self.store_len,
        )
    }
}

#[derive(Debug, Default)]
struct Counters {
    hits: AtomicU64,
    misses: AtomicU64,
    invalidations: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    busy_micros: AtomicU64,
}

// ---------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------

/// A registry key's slot: its live registration, if any, and the last
/// version the key issued. The slot outlives
/// [`SpannerService::invalidate`], so a key never issues a version twice:
/// a job on an invalidated handle may still store artifacts under the
/// old version, and new content must never be served them.
#[derive(Debug, Default)]
struct KeySlot {
    live: Option<GraphHandle>,
    version: u64,
}

#[derive(Debug)]
struct RegisteredGraph {
    graph: Arc<Graph>,
    key: u64,
    version: u64,
}

/// A registered graph: an `Arc`'d zero-copy reference plus the
/// `(registry key, version)` identity that scopes every derived
/// artifact. Cloning is cheap; clones refer to the same registration.
///
/// Handles stay valid forever — a handle obtained *before* a graph was
/// re-registered still pins its own (old) graph and version, so jobs
/// submitted through it keep answering for the graph the caller
/// actually holds; they simply no longer share artifacts with the new
/// version.
#[derive(Debug, Clone)]
pub struct GraphHandle {
    inner: Arc<RegisteredGraph>,
}

impl GraphHandle {
    /// The registered graph.
    pub fn graph(&self) -> &Graph {
        &self.inner.graph
    }

    /// The `Arc` the registry shares (for callers that need to move the
    /// graph across threads without a handle).
    pub fn graph_arc(&self) -> Arc<Graph> {
        Arc::clone(&self.inner.graph)
    }

    /// The registry key (normally [`Graph::fingerprint`]).
    pub fn fingerprint(&self) -> u64 {
        self.inner.key
    }

    /// The registration version (bumped each time different content is
    /// registered under the same key).
    pub fn version(&self) -> u64 {
        self.inner.version
    }
}

fn same_content(a: &Graph, b: &Graph) -> bool {
    a.n() == b.n() && a.edges() == b.edges()
}

// ---------------------------------------------------------------------
// Artifact identity
// ---------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct ArtifactKey {
    graph: u64,
    version: u64,
    /// Everything else that determines the artifact, rendered
    /// deterministically: kind, algorithm label, backend, seed, engine,
    /// verification policy.
    job: String,
}

// ---------------------------------------------------------------------
// The service
// ---------------------------------------------------------------------

/// A long-lived serving front end over the pipeline: a graph registry,
/// a memory-budgeted artifact store and counters.
/// See the [module docs](self) for the full tour.
///
/// The service is `Sync`: one instance serves jobs from any number of
/// threads concurrently.
#[derive(Debug)]
pub struct SpannerService {
    registry: TrackedMutex<HashMap<u64, KeySlot>>,
    store: LruStore<ArtifactKey, JobOutput>,
    counters: Counters,
}

impl Default for SpannerService {
    fn default() -> Self {
        SpannerService::new()
    }
}

impl SpannerService {
    /// A service with a 256 MiB artifact store.
    pub fn new() -> Self {
        SpannerService::with_budget(DEFAULT_STORE_BUDGET)
    }

    /// A service whose artifact store holds at most `store_budget_bytes`
    /// ([`HeapSize`] accounting). At `0` it stores nothing: every job
    /// that finds no build in flight for its key builds, while jobs that
    /// miss one key at once still share one build.
    pub fn with_budget(store_budget_bytes: usize) -> Self {
        SpannerService {
            registry: TrackedMutex::new("service.registry", HashMap::new()),
            store: LruStore::new(store_budget_bytes),
            counters: Counters::default(),
        }
    }

    /// Registers a graph and returns its handle.
    ///
    /// Registration is idempotent and zero-copy-friendly: pass an
    /// `Arc<Graph>` (or a `Graph`, which is wrapped) and re-registering
    /// identical content returns the *same* registration (same version,
    /// same `Arc`). Registering **different** content whose fingerprint
    /// collides with an existing registration bumps the version and
    /// invalidates every artifact of the old version — the fingerprint
    /// is a hash, not a proof of identity, so the registry always
    /// confirms equality on the actual edge lists.
    pub fn register(&self, graph: impl Into<Arc<Graph>>) -> GraphHandle {
        let graph = graph.into();
        let key = graph.fingerprint();
        self.register_keyed(key, graph)
    }

    /// [`SpannerService::register`] under an explicit registry key
    /// instead of the graph's own fingerprint.
    ///
    /// This is the collision-handling entry point: production callers
    /// never need it, but it lets tests (and sharding layers that
    /// assign their own keys) exercise the "same key, different
    /// content" path deterministically.
    pub fn register_keyed(&self, key: u64, graph: impl Into<Arc<Graph>>) -> GraphHandle {
        let graph = graph.into();
        // The content comparison is O(V + E); running it under the
        // registry lock would stall every other registration (and
        // lookup) behind one large graph. Snapshot the entry, compare
        // unlocked, then re-check the entry is unchanged before
        // inserting — a racing registration for the same key restarts
        // the comparison rather than aliasing a different graph.
        loop {
            let (prior, last) = match self.registry.lock().get(&key) {
                Some(slot) => (slot.live.clone(), slot.version),
                None => (None, 0),
            };
            if let Some(existing) = &prior {
                if Arc::ptr_eq(&existing.inner.graph, &graph)
                    || same_content(&existing.inner.graph, &graph)
                {
                    return existing.clone();
                }
            }
            // New content under this key: a mutated graph (or a genuine
            // fingerprint collision), or any graph after `invalidate`.
            // Never alias — take the next version and drop every
            // artifact derived from an older one.
            let version = last + 1;
            let handle = GraphHandle {
                inner: Arc::new(RegisteredGraph {
                    graph: graph.clone(),
                    key,
                    version,
                }),
            };
            {
                // A key's versions never repeat, so an unchanged version
                // means no registration raced this one.
                let mut registry = self.registry.lock();
                let slot = registry.entry(key).or_default();
                if slot.version != last {
                    continue;
                }
                *slot = KeySlot {
                    live: Some(handle.clone()),
                    version,
                };
            }
            if version > 1 {
                let purged = self
                    .store
                    .purge(|k| !(k.graph == key && k.version < version));
                self.counters
                    .invalidations
                    .fetch_add(purged as u64, Ordering::Relaxed);
            }
            return handle;
        }
    }

    /// Number of currently registered graphs.
    pub fn registered(&self) -> usize {
        self.registry
            .lock()
            .values()
            .filter(|slot| slot.live.is_some())
            .count()
    }

    /// Drops a registration and every artifact derived from it; returns
    /// how many artifacts were invalidated. The handle itself (and any
    /// `Arc`'d artifacts already handed out) stay usable — invalidation
    /// only empties the *shared* store. The key's next registration gets
    /// a new version, so it never shares an artifact with this one.
    pub fn invalidate(&self, handle: &GraphHandle) -> usize {
        let mut registry = self.registry.lock();
        if let Some(slot) = registry.get_mut(&handle.inner.key) {
            if slot.version == handle.inner.version {
                slot.live = None;
            }
        }
        drop(registry);
        let purged = self
            .store
            .purge(|k| !(k.graph == handle.inner.key && k.version == handle.inner.version));
        self.counters
            .invalidations
            .fetch_add(purged as u64, Ordering::Relaxed);
        purged
    }

    /// Starts describing a spanner-construction job against a
    /// registered graph. Terminal call: [`SpannerJob::run`].
    pub fn spanner(&self, handle: &GraphHandle, algorithm: Algorithm) -> SpannerJob<'_> {
        SpannerJob {
            service: self,
            spec: JobSpec::spanner(handle, algorithm),
        }
    }

    /// Starts describing a distance-oracle job against a registered
    /// graph. Terminal call: [`OracleJob::build`].
    pub fn oracle(&self, handle: &GraphHandle, algorithm: Algorithm) -> OracleJob<'_> {
        OracleJob {
            service: self,
            spec: JobSpec::oracle(handle, algorithm),
        }
    }

    /// A point-in-time snapshot of the service's counters.
    pub fn stats(&self) -> ServiceStats {
        let c = &self.counters;
        ServiceStats {
            hits: c.hits.load(Ordering::Relaxed),
            misses: c.misses.load(Ordering::Relaxed),
            evictions: self.store.evictions(),
            invalidations: c.invalidations.load(Ordering::Relaxed),
            completed: c.completed.load(Ordering::Relaxed),
            failed: c.failed.load(Ordering::Relaxed),
            busy: Duration::from_micros(c.busy_micros.load(Ordering::Relaxed)),
            store_len: self.store.len(),
            store_used_bytes: self.store.used_bytes(),
        }
    }

    /// Serves one job through [`LruStore::serve`] under its artifact
    /// key: a store hit, or a follower of the build already in flight
    /// for the key, counts as a hit; otherwise the job checks `guard`
    /// and builds the artifact under it. The blocking builders and the
    /// queue workers all serve through here. A store hit skips the
    /// guard, so a fired token or a spent deadline fails only jobs that
    /// would execute, and only executed jobs count as misses.
    pub(crate) fn execute(
        &self,
        spec: &JobSpec,
        guard: &BuildGuard,
    ) -> Result<JobOutput, PipelineError> {
        let (output, built) = self
            .store
            .serve(&spec.key(), guard, || self.build(spec, guard))?;
        if !built {
            self.counters.hits.fetch_add(1, Ordering::Relaxed);
        }
        Ok(output)
    }

    /// Builds a job's artifact: one miss, timed, its outcome counted.
    fn build(&self, spec: &JobSpec, guard: &BuildGuard) -> Result<JobOutput, PipelineError> {
        let c = &self.counters;
        c.misses.fetch_add(1, Ordering::Relaxed);
        // analyze:allow(determinism-taint): job-latency telemetry only — never reaches artifacts
        let started = Instant::now();
        let built = spec.build(guard);
        c.busy_micros
            .fetch_add(started.elapsed().as_micros() as u64, Ordering::Relaxed);
        let outcome = if built.is_ok() {
            &c.completed
        } else {
            &c.failed
        };
        outcome.fetch_add(1, Ordering::Relaxed);
        built
    }
}

// ---------------------------------------------------------------------
// Jobs
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum JobKind {
    Spanner,
    Oracle,
}

/// The one description of a serving job: the graph handle, what to
/// build (algorithm, backend, seed, and the verification policy of a
/// spanner or the query engine of an oracle), the deadline and
/// [`CancelToken`], and the [`Priority`] and [`ClientId`] that only a
/// [`JobQueue`](super::JobQueue) reads. Owned (the [`GraphHandle`] is
/// `Arc`'d), so it can cross into the queue's worker threads.
/// [`SpannerJob`] and [`OracleJob`] are a spec bound to a service.
#[derive(Debug, Clone)]
pub struct JobSpec {
    kind: JobKind,
    pub(super) handle: GraphHandle,
    algorithm: Algorithm,
    backend: Backend,
    seed: u64,
    verification: Verification,
    engine: QueryEngine,
    deadline: Option<Duration>,
    pub(super) cancel: CancelToken,
    pub(super) priority: Priority,
    pub(super) client: ClientId,
}

impl JobSpec {
    fn new(kind: JobKind, handle: &GraphHandle, algorithm: Algorithm) -> Self {
        JobSpec {
            kind,
            handle: handle.clone(),
            algorithm,
            backend: Backend::Sequential,
            seed: 0,
            verification: Verification::Skip,
            engine: QueryEngine::Dijkstra,
            deadline: None,
            cancel: CancelToken::new(),
            priority: Priority::default(),
            client: ClientId::default(),
        }
    }

    /// A spanner-construction job (resolves to
    /// [`JobOutput::Spanner`]).
    pub fn spanner(handle: &GraphHandle, algorithm: Algorithm) -> Self {
        JobSpec::new(JobKind::Spanner, handle, algorithm)
    }

    /// A distance-oracle job (resolves to [`JobOutput::Oracle`]).
    pub fn oracle(handle: &GraphHandle, algorithm: Algorithm) -> Self {
        JobSpec::new(JobKind::Oracle, handle, algorithm)
    }

    /// Chooses the execution backend.
    pub fn on(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Sets the shared-randomness seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Inline verification policy (spanner jobs; part of a spanner's
    /// artifact identity).
    pub fn verification(mut self, verification: Verification) -> Self {
        self.verification = verification;
        self
    }

    /// Query engine (oracle jobs; part of an oracle's artifact
    /// identity).
    pub fn engine(mut self, engine: QueryEngine) -> Self {
        self.engine = engine;
        self
    }

    /// Deadline, checked before execution and cooperatively during the
    /// build (on every backend, before each grow iteration and before
    /// Phase 2). A queued job measures it from submission, so it covers
    /// queue wait *and* execution; a blocking job measures it from the
    /// call.
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Uses `token` instead of the spec's own fresh token — lets one
    /// token cancel a group of jobs. It is checked at the same points as
    /// the deadline.
    pub fn cancel(mut self, token: CancelToken) -> Self {
        self.cancel = token;
        self
    }

    /// Dispatch lane (queued jobs).
    pub fn priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Submitting client, for fair admission (queued jobs).
    pub fn client(mut self, client: ClientId) -> Self {
        self.client = client;
        self
    }

    /// The guard the job runs under: its token, and its deadline
    /// measured from this call.
    pub(super) fn guard(&self) -> BuildGuard {
        BuildGuard::armed(self.algorithm, self.deadline, Some(&self.cancel))
    }

    /// The artifact identity: the graph's `(key, version)` plus every
    /// setting that changes what is built. The algorithm is
    /// Debug-rendered, not its `label()`: the label drops `Corollary`'s
    /// `k`, and two jobs differing only in `k` build different spanners —
    /// they must never alias in the store.
    fn key(&self) -> ArtifactKey {
        let job = match self.kind {
            JobKind::Spanner => format!(
                "spanner|{:?}|{:?}|seed={}|verify={:?}",
                self.algorithm, self.backend, self.seed, self.verification
            ),
            JobKind::Oracle => format!(
                "oracle|{:?}|{:?}|seed={}|engine={}",
                self.algorithm,
                self.backend,
                self.seed,
                self.engine.label()
            ),
        };
        ArtifactKey {
            graph: self.handle.inner.key,
            version: self.handle.inner.version,
            job,
        }
    }

    /// Builds the artifact under `guard`, which rides into the engine
    /// loops, so a token fired mid-build stops the construction between
    /// grow iterations.
    fn build(&self, guard: &BuildGuard) -> Result<JobOutput, PipelineError> {
        let graph = self.handle.graph();
        match self.kind {
            JobKind::Spanner => SpannerRequest::new(graph, self.algorithm)
                .on(self.backend)
                .seed(self.seed)
                .verification(self.verification)
                .run_guarded(guard)
                .map(|report| JobOutput::Spanner(Arc::new(report))),
            JobKind::Oracle => DistanceRequest::new(graph, self.algorithm)
                .on(self.backend)
                .seed(self.seed)
                .engine(self.engine)
                .build_guarded(guard)
                .map(|oracle| JobOutput::Oracle(Arc::new(oracle))),
        }
    }
}

/// What a served job produced — the `Arc`'d artifact the store holds.
#[derive(Debug, Clone)]
pub enum JobOutput {
    /// From a spanner job.
    Spanner(Arc<RunReport>),
    /// From an oracle job.
    Oracle(Arc<DistanceOracle>),
}

impl JobOutput {
    /// The spanner report, if this is a spanner job's output.
    pub fn spanner(&self) -> Option<&Arc<RunReport>> {
        match self {
            JobOutput::Spanner(report) => Some(report),
            JobOutput::Oracle(_) => None,
        }
    }

    /// The oracle, if this is an oracle job's output.
    pub fn oracle(&self) -> Option<&Arc<DistanceOracle>> {
        match self {
            JobOutput::Oracle(oracle) => Some(oracle),
            JobOutput::Spanner(_) => None,
        }
    }
}

/// A spanner-construction job against a registered graph — the
/// handle-based counterpart of [`SpannerRequest`]: a [`JobSpec`] bound to
/// a service. Built by [`SpannerService::spanner`].
#[derive(Debug, Clone)]
pub struct SpannerJob<'s> {
    service: &'s SpannerService,
    spec: JobSpec,
}

impl SpannerJob<'_> {
    /// Chooses the execution backend.
    pub fn on(mut self, backend: Backend) -> Self {
        self.spec = self.spec.on(backend);
        self
    }

    /// Sets the shared-randomness seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.spec = self.spec.seed(seed);
        self
    }

    /// Sets the inline verification policy (part of the artifact
    /// identity: jobs differing only in policy do not share artifacts).
    pub fn verification(mut self, verification: Verification) -> Self {
        self.spec = self.spec.verification(verification);
        self
    }

    /// Per-job deadline, measured from the call to [`SpannerJob::run`]
    /// and checked cooperatively during the build (on every backend,
    /// before each grow iteration and before Phase 2) and once more
    /// when it finishes.
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.spec = self.spec.deadline(deadline);
        self
    }

    /// Attaches a cancellation token, checked before execution and
    /// cooperatively during the build (on every backend, before each
    /// grow iteration and before Phase 2).
    pub fn cancel(mut self, token: CancelToken) -> Self {
        self.spec = self.spec.cancel(token);
        self
    }

    /// Serves the job: store hit, or execution whose report enters the
    /// budgeted store.
    pub fn run(&self) -> Result<Arc<RunReport>, PipelineError> {
        match self.service.execute(&self.spec, &self.spec.guard())? {
            JobOutput::Spanner(report) => Ok(report),
            // analyze:allow(panic-path): spanner/oracle key namespaces are disjoint by construction
            JobOutput::Oracle(_) => unreachable!("spanner keys never map to oracle artifacts"),
        }
    }
}

/// A distance-oracle job against a registered graph — the handle-based
/// counterpart of [`DistanceRequest`]: a [`JobSpec`] bound to a service.
/// Built by [`SpannerService::oracle`].
#[derive(Debug, Clone)]
pub struct OracleJob<'s> {
    service: &'s SpannerService,
    spec: JobSpec,
}

impl OracleJob<'_> {
    /// Chooses the execution backend for the spanner construction.
    pub fn on(mut self, backend: Backend) -> Self {
        self.spec = self.spec.on(backend);
        self
    }

    /// Sets the shared-randomness seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.spec = self.spec.seed(seed);
        self
    }

    /// Chooses the query engine.
    pub fn engine(mut self, engine: QueryEngine) -> Self {
        self.spec = self.spec.engine(engine);
        self
    }

    /// Per-job build deadline, measured from the call to
    /// [`OracleJob::build`] and checked cooperatively *during* the build
    /// (spanner phases, between sketch levels and cluster-search
    /// chunks).
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.spec = self.spec.deadline(deadline);
        self
    }

    /// Attaches a cancellation token, checked cooperatively during the
    /// build (between Thorup–Zwick levels and cluster-search chunks).
    pub fn cancel(mut self, token: CancelToken) -> Self {
        self.spec = self.spec.cancel(token);
        self
    }

    /// Serves the job: store hit, or a build whose oracle enters the
    /// budgeted store.
    pub fn build(&self) -> Result<Arc<DistanceOracle>, PipelineError> {
        match self.service.execute(&self.spec, &self.spec.guard())? {
            JobOutput::Oracle(oracle) => Ok(oracle),
            // analyze:allow(panic-path): spanner/oracle key namespaces are disjoint by construction
            JobOutput::Spanner(_) => unreachable!("oracle keys never map to spanner artifacts"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TradeoffParams;
    use spanner_graph::generators::{self, WeightModel};
    use std::sync::mpsc;

    fn graph(seed: u64) -> Graph {
        generators::connected_erdos_renyi(80, 0.1, WeightModel::Uniform(1, 8), seed)
    }

    fn alg() -> Algorithm {
        Algorithm::General(TradeoffParams::new(4, 2))
    }

    /// A test artifact: an id and the byte size the store charges.
    #[derive(Debug, Clone, Copy, PartialEq)]
    struct Blob(u64, usize);

    impl HeapSize for Blob {
        fn heap_size(&self) -> usize {
            self.1
        }
    }

    /// Serves `key` from `store`, building `blob` on a miss; returns the
    /// served blob and whether this call built it.
    fn put(store: &LruStore<&'static str, Blob>, key: &'static str, blob: Blob) -> (Blob, bool) {
        let guard = BuildGuard::new("test");
        store
            .serve(&key, &guard, || Ok(blob))
            .expect("an unguarded build")
    }

    #[test]
    fn lru_store_evicts_least_recently_used_first() {
        let store = LruStore::new(100);
        put(&store, "a", Blob(1, 40));
        put(&store, "b", Blob(2, 40));
        assert_eq!(store.get(&"a"), Some(Blob(1, 40))); // touch a → b is now LRU
        put(&store, "c", Blob(3, 40)); // over budget → evict b
        assert_eq!(store.get(&"b"), None, "LRU entry must go first");
        assert_eq!(store.get(&"a"), Some(Blob(1, 40)));
        assert_eq!(store.get(&"c"), Some(Blob(3, 40)));
        assert_eq!(store.evictions(), 1);
        assert_eq!(store.used_bytes(), 80);
    }

    #[test]
    fn lru_store_never_retains_an_oversized_entry() {
        let store = LruStore::new(10);
        put(&store, "big", Blob(1, 50));
        assert_eq!(store.len(), 0, "entry larger than the budget is dropped");
        assert_eq!(store.evictions(), 1);
        assert_eq!(store.used_bytes(), 0);
    }

    #[test]
    fn oversized_insert_leaves_warm_entries_untouched() {
        let store = LruStore::new(100);
        put(&store, "a", Blob(1, 40));
        put(&store, "b", Blob(2, 40));
        let huge = Blob(3, 500);
        assert_eq!(put(&store, "huge", huge), (huge, true), "value handed back");
        assert_eq!(store.len(), 2, "warm entries survive an uncacheable insert");
        assert_eq!(store.get(&"a"), Some(Blob(1, 40)));
        assert_eq!(store.get(&"b"), Some(Blob(2, 40)));
        assert_eq!(store.get(&"huge"), None);
        assert_eq!(store.evictions(), 1);
    }

    #[test]
    fn a_stored_artifact_is_served_without_a_build() {
        let store = LruStore::new(usize::MAX);
        assert_eq!(put(&store, "k", Blob(1, 8)), (Blob(1, 8), true));
        assert_eq!(put(&store, "k", Blob(2, 8)), (Blob(1, 8), false), "a hit");
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn zero_budget_disables_caching() {
        let store = LruStore::new(0);
        assert_eq!(put(&store, "k", Blob(1, 8)), (Blob(1, 8), true));
        assert_eq!(store.get(&"k"), None);
        assert_eq!(
            put(&store, "k", Blob(2, 8)),
            (Blob(2, 8), true),
            "a rebuild"
        );
        assert_eq!((store.len(), store.evictions()), (0, 2));
    }

    #[test]
    fn register_dedupes_identical_content() {
        let service = SpannerService::new();
        let g = Arc::new(graph(1));
        let h1 = service.register(Arc::clone(&g));
        let h2 = service.register(Arc::clone(&g)); // same Arc
        let h3 = service.register(graph(1)); // equal content, fresh allocation
        assert_eq!(h1.version(), 1);
        assert_eq!(h2.version(), 1);
        assert_eq!(h3.version(), 1);
        assert!(Arc::ptr_eq(&h1.graph_arc(), &h3.graph_arc()));
        assert_eq!(service.registered(), 1);
    }

    #[test]
    fn spanner_jobs_hit_the_store_on_repeat() {
        let service = SpannerService::new();
        let handle = service.register(graph(2));
        let first = service.spanner(&handle, alg()).seed(7).run().unwrap();
        let second = service.spanner(&handle, alg()).seed(7).run().unwrap();
        assert!(Arc::ptr_eq(&first, &second));
        let other = service.spanner(&handle, alg()).seed(8).run().unwrap();
        assert!(!Arc::ptr_eq(&first, &other));
        let stats = service.stats();
        assert_eq!((stats.hits, stats.misses), (1, 2));
        assert_eq!(stats.store_len, 2);
        assert!(stats.avg_job_latency() > Duration::ZERO);
    }

    #[test]
    fn invalidate_drops_only_the_handles_artifacts() {
        let service = SpannerService::new();
        let h1 = service.register(graph(4));
        let h2 = service.register(graph(5));
        service.spanner(&h1, alg()).run().unwrap();
        service.spanner(&h2, alg()).run().unwrap();
        assert_eq!(service.stats().store_len, 2);
        let purged = service.invalidate(&h1);
        assert_eq!(purged, 1);
        assert_eq!(service.stats().store_len, 1);
        assert_eq!(service.registered(), 1);
        assert_eq!(service.stats().invalidations, 1);
    }

    #[test]
    fn corollary_jobs_differing_only_in_k_never_alias() {
        use crate::presets::CorollarySetting;
        let service = SpannerService::new();
        let handle = service.register(graph(9));
        let corollary = |k: u32| Algorithm::Corollary {
            setting: CorollarySetting::Fastest,
            k,
        };
        let a = service
            .spanner(&handle, corollary(2))
            .seed(7)
            .run()
            .unwrap();
        let b = service
            .spanner(&handle, corollary(4))
            .seed(7)
            .run()
            .unwrap();
        assert!(
            !Arc::ptr_eq(&a, &b),
            "k is part of the artifact identity — k=4 must not be served the k=2 spanner"
        );
        assert_eq!(service.stats().hits, 0);
        assert_eq!(service.stats().store_len, 2);
        // Same shape through the oracle path.
        let oa = service
            .oracle(&handle, corollary(2))
            .seed(7)
            .build()
            .unwrap();
        let ob = service
            .oracle(&handle, corollary(4))
            .seed(7)
            .build()
            .unwrap();
        assert!(!Arc::ptr_eq(&oa, &ob));
    }

    #[test]
    fn cancelled_job_never_executes() {
        let service = SpannerService::new();
        let handle = service.register(graph(7));
        let token = CancelToken::new();
        token.cancel();
        let err = service
            .spanner(&handle, alg())
            .cancel(token)
            .run()
            .expect_err("fired token → cancelled");
        assert!(matches!(err, PipelineError::Cancelled));
        // A job that never executed is neither a miss nor a failure, so
        // latency and hit-rate numbers stay truthful.
        let stats = service.stats();
        assert_eq!((stats.misses, stats.failed), (0, 0));
    }

    /// The flight in progress for `key`.
    fn flight(service: &SpannerService, key: &ArtifactKey) -> Arc<Flight<JobOutput>> {
        match service.store.lock().map.get(key) {
            Some(Slot::Building(flight)) => Arc::clone(flight),
            _ => panic!("no build in flight for the key"),
        }
    }

    /// Blocks until `n` jobs follow the build in flight for `key`.
    fn await_followers(service: &SpannerService, key: &ArtifactKey, n: usize) {
        let flight = flight(service, key);
        let mut state = flight.state.lock();
        while state.followers < n {
            state = flight.changed.wait(state);
        }
    }

    /// Leads the build of `spec` on its own thread through the service's
    /// store, but holds the build until `release` fires.
    /// Returns once the flight is open, with the leader's handle.
    fn held_leader<'s>(
        scope: &'s std::thread::Scope<'s, '_>,
        service: &'s SpannerService,
        spec: JobSpec,
        release: mpsc::Receiver<()>,
    ) -> std::thread::ScopedJoinHandle<'s, Result<JobOutput, PipelineError>> {
        let (open, opened) = mpsc::channel();
        let leader = scope.spawn(move || {
            let guard = spec.guard();
            let served = service.store.serve(&spec.key(), &guard, || {
                open.send(()).expect("the test waits for the flight");
                release.recv().expect("the test releases the leader");
                service.build(&spec, &guard)
            });
            served.map(|(output, _)| output)
        });
        opened.recv().expect("the leader opens its flight");
        leader
    }

    fn sketch_oracle(handle: &GraphHandle) -> JobSpec {
        JobSpec::oracle(handle, alg())
            .engine(QueryEngine::Sketches { levels: 2 })
            .seed(3)
    }

    #[test]
    fn a_cancelled_leader_hands_its_followers_one_more_build() {
        let service = SpannerService::new();
        let handle = service.register(graph(11));
        let spec = sketch_oracle(&handle);
        let key = spec.key();
        let token = CancelToken::new();
        let (release, released) = mpsc::channel();
        std::thread::scope(|scope| {
            let leader = held_leader(
                scope,
                &service,
                spec.clone().cancel(token.clone()),
                released,
            );
            let followers: Vec<_> = (0..3)
                .map(|_| scope.spawn(|| service.execute(&spec, &spec.guard())))
                .collect();
            await_followers(&service, &key, 3);
            // The token fires mid-build: the held build stops at its
            // first checkpoint.
            token.cancel();
            release.send(()).expect("the leader waits");
            let led = leader.join().expect("the leader returns");
            assert!(matches!(led, Err(PipelineError::Cancelled)), "{led:?}");
            let oracles: Vec<Arc<DistanceOracle>> = followers
                .into_iter()
                .map(|f| {
                    let output = f.join().expect("a follower returns");
                    let output = output.expect("followers of a cancelled leader still succeed");
                    Arc::clone(output.oracle().expect("an oracle job"))
                })
                .collect();
            assert!(oracles.iter().all(|o| Arc::ptr_eq(o, &oracles[0])));
        });
        let stats = service.stats();
        assert_eq!(stats.misses, 2, "the cancelled build and exactly one more");
        assert_eq!(stats.hits, 2, "the other followers follow the rebuild");
        assert_eq!((stats.failed, stats.store_len), (1, 1));
    }

    #[test]
    fn a_follower_fails_on_its_own_deadline_and_the_leader_still_stores() {
        let service = SpannerService::new();
        let handle = service.register(graph(12));
        let spec = sketch_oracle(&handle);
        let key = spec.key();
        let (release, released) = mpsc::channel();
        std::thread::scope(|scope| {
            let leader = held_leader(scope, &service, spec.clone(), released);
            // The leader is held until this follower has given up.
            let impatient = spec.clone().deadline(Duration::from_millis(100));
            let err = service
                .execute(&impatient, &impatient.guard())
                .expect_err("the held build cannot land before the deadline");
            assert!(
                matches!(err, PipelineError::DeadlineExceeded { .. }),
                "{err}"
            );
            assert_eq!(
                flight(&service, &key).state.lock().followers,
                1,
                "the deadline passed while the job followed the build"
            );
            release.send(()).expect("the leader waits");
            let led = leader.join().expect("the leader returns");
            let led = led.expect("the leader's build is unaffected");
            let again = service.execute(&spec, &spec.guard()).expect("a store hit");
            assert!(Arc::ptr_eq(
                led.oracle().expect("an oracle"),
                again.oracle().expect("an oracle")
            ));
        });
        let stats = service.stats();
        assert_eq!((stats.misses, stats.hits, stats.store_len), (1, 1, 1));
    }

    #[test]
    fn a_failed_leader_hands_its_error_to_its_followers() {
        let service = SpannerService::new();
        let handle = service.register(graph(13));
        // Appendix B refuses a weighted graph: an error no guard raised.
        let spec = JobSpec::spanner(
            &handle,
            Algorithm::UnweightedOk {
                k: 3,
                config: crate::unweighted_ok::UnweightedOkConfig::default(),
            },
        );
        let key = spec.key();
        let (release, released) = mpsc::channel();
        std::thread::scope(|scope| {
            let leader = held_leader(scope, &service, spec.clone(), released);
            let followers: Vec<_> = (0..3)
                .map(|_| scope.spawn(|| service.execute(&spec, &spec.guard())))
                .collect();
            await_followers(&service, &key, 3);
            release.send(()).expect("the leader waits");
            let led = leader.join().expect("the leader returns");
            assert!(
                matches!(led, Err(PipelineError::InvalidRequest(_))),
                "{led:?}"
            );
            for follower in followers {
                let followed = follower.join().expect("a follower returns");
                assert!(
                    matches!(followed, Err(PipelineError::InvalidRequest(_))),
                    "{followed:?}"
                );
            }
        });
        let stats = service.stats();
        assert_eq!(
            (stats.misses, stats.failed, stats.hits),
            (1, 1, 0),
            "one failed build, no further builds"
        );
    }

    #[test]
    fn a_zero_budget_stores_nothing_yet_shares_one_build() {
        let service = SpannerService::with_budget(0);
        let handle = service.register(graph(14));
        let spec = sketch_oracle(&handle);
        let key = spec.key();
        let (release, released) = mpsc::channel();
        std::thread::scope(|scope| {
            let leader = held_leader(scope, &service, spec.clone(), released);
            let followers: Vec<_> = (0..3)
                .map(|_| scope.spawn(|| service.execute(&spec, &spec.guard())))
                .collect();
            await_followers(&service, &key, 3);
            release.send(()).expect("the leader waits");
            let led = leader.join().expect("the leader returns");
            let led = led.expect("the leader builds");
            let led = led.oracle().expect("an oracle job");
            for follower in followers {
                let followed = follower.join().expect("a follower returns");
                let followed = followed.expect("followers share the leader's build");
                assert!(Arc::ptr_eq(led, followed.oracle().expect("an oracle job")));
            }
        });
        let stats = service.stats();
        assert_eq!((stats.misses, stats.hits), (1, 3), "one build, shared");
        assert_eq!(
            (stats.store_len, stats.evictions),
            (0, 1),
            "the build outgrows a zero budget"
        );
        service.execute(&spec, &spec.guard()).expect("a rebuild");
        assert_eq!(service.stats().misses, 2, "nothing was stored");
    }

    /// The handshake under the deterministic explorer: three jobs miss
    /// one key, and whichever leads decides the schedule's story. Job 0's
    /// build stops on its own guard, job 1's fails, job 2's succeeds. A
    /// failing schedule prints its seed; `interleave::run_one(seed, ..)`
    /// replays it.
    #[cfg(feature = "lock-audit")]
    #[test]
    fn explored_single_flight_handshake() {
        use crate::sync::interleave::{self, Explorer};
        use std::sync::atomic::AtomicUsize;

        const SCHEDULES: usize = 300;
        const BASE_SEED: u64 = 0x51_F117;
        eprintln!(
            "single-flight model check: seeds {BASE_SEED}..{}; replay one with \
             interleave::run_one(seed, ..)",
            BASE_SEED + SCHEDULES as u64
        );
        let led_by = [0, 1, 2].map(|_| AtomicUsize::new(0));
        let summary = Explorer::new(SCHEDULES)
            .base_seed(BASE_SEED)
            .explore(|sim| {
                let store = Arc::new(LruStore::<u8, Blob>::new(usize::MAX));
                let building = Arc::new(AtomicU64::new(0));
                let results = Arc::new(TrackedMutex::new("model.results", Vec::new()));
                for job in 0..3u64 {
                    let (store, building, results) = (
                        Arc::clone(&store),
                        Arc::clone(&building),
                        Arc::clone(&results),
                    );
                    sim.spawn(move || {
                        let guard = BuildGuard::new("model");
                        let served = store.serve(&0, &guard, || {
                            let before = building.fetch_add(1, Ordering::SeqCst);
                            assert_eq!(before, 0, "two builds of one key at once");
                            interleave::yield_point();
                            building.fetch_sub(1, Ordering::SeqCst);
                            match job {
                                0 => Err(PipelineError::Cancelled),
                                1 => Err(PipelineError::InvalidRequest("refused".into())),
                                _ => Ok(Blob(7, 8)),
                            }
                        });
                        results.lock().push((job, served));
                    });
                }
                sim.join_all();
                let results = std::mem::take(&mut *results.lock());
                assert_eq!(results.len(), 3, "every job returns");
                let mut built = 0;
                for (job, served) in &results {
                    match served {
                        Ok((value, leader)) => {
                            assert_eq!(*value, Blob(7, 8));
                            if *leader {
                                assert_eq!(*job, 2, "only job 2 builds successfully");
                                built += 1;
                            }
                        }
                        Err(PipelineError::Cancelled) => {
                            assert_eq!(*job, 0, "a guard error stays with its leader")
                        }
                        Err(PipelineError::InvalidRequest(_)) => {}
                        Err(e) => panic!("job {job}: unexpected {e}"),
                    }
                }
                assert!(built <= 1, "at most one successful build");
                let refused = results
                    .iter()
                    .any(|(_, r)| matches!(r, Err(PipelineError::InvalidRequest(_))));
                let job1_refused = results
                    .iter()
                    .any(|(j, r)| *j == 1 && matches!(r, Err(PipelineError::InvalidRequest(_))));
                assert!(!refused || job1_refused, "only job 1's build refuses");
                for (job, served) in &results {
                    let leader = match served {
                        Ok((_, leader)) => *leader,
                        Err(PipelineError::Cancelled) => true,
                        Err(_) => *job == 1,
                    };
                    if leader {
                        led_by[*job as usize].fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        assert_eq!(summary.schedules, SCHEDULES);
        assert!(
            summary.distinct_traces > 1,
            "the explorer varied the schedule"
        );
        for (job, count) in led_by.iter().enumerate() {
            assert!(
                count.load(Ordering::Relaxed) > 0,
                "job {job} never led a build in {SCHEDULES} schedules"
            );
        }
    }

    #[test]
    fn heap_sizes_are_positive_and_monotone() {
        let small = graph(8);
        let big = generators::connected_erdos_renyi(200, 0.1, WeightModel::Uniform(1, 8), 8);
        assert!(small.heap_size() > 0);
        assert!(big.heap_size() > small.heap_size());
    }
}
