//! **Horizontal scale-out for the serving tier**: one front door over
//! N inner [`SpannerService`] shards.
//!
//! PR 5's [`SpannerService`] is one registry and one LRU store behind a
//! single lock — a cache, not a serving tier. [`ShardedService`] splits
//! the registry and the artifact store across independent shards by
//! **hashing the registry key** (normally the graph fingerprint): the
//! owner of `key` is `splitmix64(key ^ KEY_SALT) % N`.
//!
//! * every key maps to exactly one shard, deterministically — a
//!   re-registration under an equal key (`register_keyed`) lands on the
//!   shard that already holds the old version, whose version bump
//!   purges the stale artifacts *on that shard*;
//! * each shard has its own lock and its own memory budget
//!   ([`ShardedService::with_budget`] is per shard), so unrelated
//!   graphs never contend;
//! * the hash spreads keys evenly over the shards. The shard count is
//!   fixed at construction and nothing reshards, so there is no
//!   mapping to keep stable across shard counts.
//!
//! Because every artifact is a pure function of
//! `(graph, version, algorithm, backend, seed, engine)` — the engines
//! draw shared coins, not thread-local randomness — the shard count is
//! **unobservable in answers**: `ShardedService::new(n)` returns
//! bit-identical [`RunReport`]s and oracle answers for every `n`,
//! including `n = 1` and a bare [`SpannerService`]
//! (`tests/sharded_service.rs` pins this with proptests).
//!
//! [`ShardedService::stats`] rolls the per-shard [`ServiceStats`] into
//! one snapshot (sums per counter, so `summary()` / `hit_rate()` /
//! `avg_job_latency()` aggregate for free); [`per_shard_stats`] keeps
//! the per-shard view for balance dashboards.
//!
//! For a *non-blocking* front end over a sharded service — job ids,
//! priority lanes, per-client fairness — see [`super::queue`]. Its
//! workers take the same route as the blocking builders: each
//! [`JobSpec`] is served on the shard owning its graph's key, through
//! that shard's one build-or-hit path.
//!
//! [`per_shard_stats`]: ShardedService::per_shard_stats
//! [`RunReport`]: super::RunReport

use std::sync::Arc;

use spanner_graph::Graph;

use super::distance::BuildGuard;
use super::service::{
    GraphHandle, JobOutput, JobSpec, OracleJob, ServiceStats, SpannerJob, SpannerService,
    DEFAULT_STORE_BUDGET,
};
use super::{Algorithm, PipelineError};

/// Salt mixed into registry keys before hashing, so the shard a key
/// lands on is independent of the fingerprint function.
const KEY_SALT: u64 = 0x9e37_79b9_7f4a_7c15;

/// N independent [`SpannerService`] shards behind one hash-routed front
/// door. See the [module docs](self) for the design.
///
/// `Sync` like the inner service: one instance serves registrations and
/// jobs from any number of threads. All [`SpannerService`] job-builder
/// methods are mirrored and route to the owning shard, so swapping a
/// `SpannerService` for a `ShardedService` is a drop-in change.
#[derive(Debug)]
pub struct ShardedService {
    shards: Vec<SpannerService>,
}

impl ShardedService {
    /// `shards` inner services, each with the 256 MiB store of
    /// [`SpannerService::new`].
    ///
    /// # Panics
    /// If `shards` is zero.
    pub fn new(shards: usize) -> Self {
        ShardedService::with_budget(shards, DEFAULT_STORE_BUDGET)
    }

    /// `shards` inner services, each with a store of
    /// `per_shard_budget_bytes` — the budget applies *per shard*, so
    /// total store capacity scales with the shard count. At `0` no shard
    /// stores anything, while jobs that miss one key at once still
    /// share one build ([`SpannerService::with_budget`]).
    ///
    /// # Panics
    /// If `shards` is zero.
    pub fn with_budget(shards: usize, per_shard_budget_bytes: usize) -> Self {
        assert!(shards >= 1, "a sharded service needs at least one shard");
        ShardedService {
            shards: (0..shards)
                .map(|_| SpannerService::with_budget(per_shard_budget_bytes))
                .collect(),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard index owning a registry key, stable for the lifetime of
    /// the service: `splitmix64(key ^ KEY_SALT) % shard_count()`.
    pub fn shard_for(&self, key: u64) -> usize {
        let hash = crate::coins::splitmix64(key ^ KEY_SALT);
        // analyze:allow(panic-path): `with_budget` asserts at least one shard
        (hash % self.shards.len() as u64) as usize
    }

    /// Direct access to one shard's [`SpannerService`] (dashboards,
    /// tests). Job submission should go through the routing methods.
    pub fn shard(&self, index: usize) -> &SpannerService {
        // analyze:allow(panic-path): accessor contract — `index < shard_count()`, mirroring slice indexing
        &self.shards[index]
    }

    fn owner(&self, handle: &GraphHandle) -> &SpannerService {
        // analyze:allow(panic-path): shard_for() returns a valid shard index by construction
        &self.shards[self.shard_for(handle.fingerprint())]
    }

    /// Registers a graph on its owning shard; same dedup/versioning
    /// semantics as [`SpannerService::register`].
    pub fn register(&self, graph: impl Into<Arc<Graph>>) -> GraphHandle {
        let graph = graph.into();
        let key = graph.fingerprint();
        self.register_keyed(key, graph)
    }

    /// [`ShardedService::register`] under an explicit registry key.
    ///
    /// Routing is by key, so re-registering changed content under an
    /// equal key always lands on the shard holding the previous
    /// version: the version bump and artifact purge happen exactly
    /// where the stale artifacts live.
    pub fn register_keyed(&self, key: u64, graph: impl Into<Arc<Graph>>) -> GraphHandle {
        // analyze:allow(panic-path): shard_for() returns a valid shard index by construction
        self.shards[self.shard_for(key)].register_keyed(key, graph)
    }

    /// Total registrations across all shards.
    pub fn registered(&self) -> usize {
        self.shards.iter().map(SpannerService::registered).sum()
    }

    /// Drops a registration and its artifacts on the owning shard;
    /// returns how many artifacts were invalidated.
    pub fn invalidate(&self, handle: &GraphHandle) -> usize {
        self.owner(handle).invalidate(handle)
    }

    /// Starts a spanner job on the shard owning the handle's key. The
    /// returned builder *is* the inner shard's [`SpannerJob`] — the
    /// whole job vocabulary (backend, seed, verification, deadline,
    /// cancel) carries over unchanged.
    pub fn spanner(&self, handle: &GraphHandle, algorithm: Algorithm) -> SpannerJob<'_> {
        self.owner(handle).spanner(handle, algorithm)
    }

    /// Starts an oracle job on the shard owning the handle's key.
    pub fn oracle(&self, handle: &GraphHandle, algorithm: Algorithm) -> OracleJob<'_> {
        self.owner(handle).oracle(handle, algorithm)
    }

    /// Serves a job on the shard owning its graph's key — the queue
    /// workers' route to [`SpannerService`]'s build-or-hit path.
    pub(crate) fn execute(
        &self,
        spec: &JobSpec,
        guard: &BuildGuard,
    ) -> Result<JobOutput, PipelineError> {
        self.owner(&spec.handle).execute(spec, guard)
    }

    /// The cross-shard rollup: every per-shard counter summed into one
    /// [`ServiceStats`], so `summary()` aggregates hit/miss/eviction/
    /// latency over the whole tier.
    pub fn stats(&self) -> ServiceStats {
        let mut total = ServiceStats::default();
        for shard in &self.shards {
            total.merge(&shard.stats());
        }
        total
    }

    /// Per-shard snapshots, indexed like [`ShardedService::shard`].
    pub fn per_shard_stats(&self) -> Vec<ServiceStats> {
        self.shards.iter().map(SpannerService::stats).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TradeoffParams;
    use spanner_graph::generators::{self, WeightModel};

    fn graph(seed: u64) -> Graph {
        generators::connected_erdos_renyi(60, 0.1, WeightModel::Uniform(1, 8), seed)
    }

    fn alg() -> Algorithm {
        Algorithm::General(TradeoffParams::new(4, 2))
    }

    #[test]
    fn routing_covers_every_shard_and_is_roughly_balanced() {
        let sharded = ShardedService::new(8);
        let mut per_shard = [0usize; 8];
        for key in 0..8000u64 {
            per_shard[sharded.shard_for(key)] += 1;
        }
        for (shard, &count) in per_shard.iter().enumerate() {
            assert!(count > 0, "shard {shard} owns no keys");
            // The hash keeps every shard near the 1000 mean; assert a
            // loose envelope so the test pins balance, not the exact
            // hash values.
            assert!(
                (250..=4000).contains(&count),
                "shard {shard} owns {count} of 8000 keys — routing is badly unbalanced"
            );
        }
    }

    #[test]
    fn shard_routing_is_deterministic_and_single_shard_takes_all() {
        let sharded = ShardedService::new(4);
        for key in [0u64, 1, 42, u64::MAX] {
            assert_eq!(sharded.shard_for(key), sharded.shard_for(key));
        }
        let single = ShardedService::new(1);
        for key in 0..100u64 {
            assert_eq!(single.shard_for(key), 0);
        }
    }

    #[test]
    fn registration_lands_on_the_owning_shard() {
        let sharded = ShardedService::new(4);
        let g = graph(1);
        let key = g.fingerprint();
        let handle = sharded.register(g);
        assert_eq!(handle.fingerprint(), key);
        let owner = sharded.shard_for(key);
        assert_eq!(sharded.shard(owner).registered(), 1);
        assert_eq!(sharded.registered(), 1);
        for (i, shard) in sharded.shards.iter().enumerate() {
            if i != owner {
                assert_eq!(shard.registered(), 0, "key leaked onto shard {i}");
            }
        }
    }

    #[test]
    fn jobs_route_to_the_owning_shard_and_hit_its_store() {
        let sharded = ShardedService::new(4);
        let handle = sharded.register(graph(2));
        let first = sharded.spanner(&handle, alg()).seed(7).run().unwrap();
        let second = sharded.spanner(&handle, alg()).seed(7).run().unwrap();
        assert!(Arc::ptr_eq(&first, &second), "repeat job is a store hit");
        let owner = sharded.shard_for(handle.fingerprint());
        let on_owner = sharded.shard(owner).stats();
        assert_eq!((on_owner.hits, on_owner.misses), (1, 1));
        let rollup = sharded.stats();
        assert_eq!((rollup.hits, rollup.misses), (1, 1));
        assert_eq!(sharded.stats().store_len, 1);
    }

    #[test]
    fn rollup_sums_per_shard_stats() {
        let sharded = ShardedService::new(3);
        // Register enough distinct graphs that at least two shards see
        // traffic with high probability.
        let handles: Vec<GraphHandle> = (0..6).map(|s| sharded.register(graph(10 + s))).collect();
        for h in &handles {
            sharded.spanner(h, alg()).run().unwrap();
        }
        let per_shard = sharded.per_shard_stats();
        let rollup = sharded.stats();
        assert_eq!(
            rollup.misses,
            per_shard.iter().map(|s| s.misses).sum::<u64>()
        );
        assert_eq!(rollup.misses, 6);
        assert_eq!(
            rollup.store_len,
            per_shard.iter().map(|s| s.store_len).sum::<usize>()
        );
        assert!(rollup.busy >= per_shard.iter().map(|s| s.busy).max().unwrap());
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_is_rejected() {
        let _ = ShardedService::new(0);
    }
}
