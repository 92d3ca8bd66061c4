//! What names a stored artifact. One two-shard tier serves a fixed
//! table of jobs, each through either the blocking builders
//! (`spanner(..).run()`, `oracle(..).build()`) or a one-worker
//! `JobQueue`. For every job the table records whether it must miss the
//! store (a fresh artifact, one more miss in `stats()`) or hit it (one
//! more hit, and the very `Arc` an earlier job returned). The rows pin:
//!
//! * a repeat hits, and the queue and the blocking builders share
//!   entries in both directions;
//! * seed, backend and verification policy each name a different
//!   spanner; seed, backend and query engine each name a different
//!   oracle;
//! * a spanner job ignores a query engine, and an oracle job ignores a
//!   verification policy;
//! * client, priority and deadline never change what is served;
//! * a spanner and an oracle of the same graph, algorithm and seed never
//!   share an entry, and neither do two graphs on one shard.
//!
//! The expectations were recorded before the blocking builders and the
//! queue workers were merged onto one build-or-hit path.

use std::sync::Arc;
use std::time::Duration;

use mpc_spanners::core::TradeoffParams;
use mpc_spanners::graph::generators::{connected_erdos_renyi, WeightModel};
use mpc_spanners::pipeline::{
    Algorithm, Backend, ClientId, GraphHandle, JobOutput, JobQueue, JobSpec, Priority, QueryEngine,
    ShardedService, SpannerRequest, SpannerService, Verification,
};

/// How a row reaches the tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Path {
    Blocking,
    Queued,
}

/// What a row must observe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Expect {
    /// A store miss: one more miss, and an artifact no earlier row got.
    Miss,
    /// A store hit on the artifact row `i` returned.
    Hit(usize),
}

/// One job of the table. `engine` on a spanner job and `verification`
/// on an oracle job only reach the tier through a `JobSpec`; the
/// blocking builders have no such setter.
#[derive(Debug, Clone, Copy)]
struct Job {
    path: Path,
    oracle: bool,
    graph: usize,
    seed: u64,
    backend: Backend,
    verification: Verification,
    engine: QueryEngine,
    client: u64,
    priority: Priority,
    deadline: Option<Duration>,
}

const SKETCHES: QueryEngine = QueryEngine::Sketches { levels: 2 };
const LONG: Option<Duration> = Some(Duration::from_secs(3600));

fn job(path: Path, oracle: bool) -> Job {
    Job {
        path,
        oracle,
        graph: 0,
        seed: 1,
        backend: Backend::Sequential,
        verification: Verification::Skip,
        engine: QueryEngine::Dijkstra,
        client: 0,
        priority: Priority::Interactive,
        deadline: None,
    }
}

fn spanner(path: Path) -> Job {
    job(path, false)
}

fn oracle(path: Path) -> Job {
    job(path, true)
}

impl Job {
    fn graph(self, graph: usize) -> Job {
        Job { graph, ..self }
    }
    fn seed(self, seed: u64) -> Job {
        Job { seed, ..self }
    }
    fn on(self, backend: Backend) -> Job {
        Job { backend, ..self }
    }
    fn verification(self, verification: Verification) -> Job {
        Job {
            verification,
            ..self
        }
    }
    fn engine(self, engine: QueryEngine) -> Job {
        Job { engine, ..self }
    }
    fn queue_attributes(self) -> Job {
        Job {
            client: 7,
            priority: Priority::Batch,
            deadline: LONG,
            ..self
        }
    }
    fn deadline(self) -> Job {
        Job {
            deadline: LONG,
            ..self
        }
    }
}

fn table() -> Vec<(Job, Expect)> {
    use Expect::{Hit, Miss};
    use Path::{Blocking as B, Queued as Q};
    vec![
        // 0–4: repeats, across the two paths in both directions.
        (spanner(B), Miss),
        (spanner(B), Hit(0)),
        (spanner(Q), Hit(0)),
        (spanner(Q).seed(2), Miss),
        (spanner(B).seed(2), Hit(3)),
        // 5–8: backend and verification name a different spanner.
        (spanner(B).on(Backend::Pram), Miss),
        (spanner(Q).on(Backend::Pram), Hit(5)),
        (spanner(B).verification(Verification::Report), Miss),
        (spanner(Q).verification(Verification::Report), Hit(7)),
        // 9–11: what a spanner job ignores.
        (spanner(Q).engine(SKETCHES), Hit(0)),
        (spanner(Q).queue_attributes(), Hit(0)),
        (spanner(B).deadline(), Hit(0)),
        // 12–13: an oracle never shares the spanner's entry.
        (oracle(B), Miss),
        (oracle(Q), Hit(12)),
        // 14–15: the query engine names a different oracle.
        (oracle(B).engine(SKETCHES), Miss),
        (oracle(Q).engine(SKETCHES), Hit(14)),
        // 16–18: what an oracle job ignores.
        (oracle(Q).verification(Verification::Report), Hit(12)),
        (oracle(Q).queue_attributes(), Hit(12)),
        (oracle(B).deadline(), Hit(12)),
        // 19–20: seed and backend name a different oracle.
        (oracle(Q).seed(2), Miss),
        (oracle(B).on(Backend::Pram), Miss),
        // 21–24: a second graph on the same shard shares nothing.
        (spanner(B).graph(1), Miss),
        (spanner(Q).graph(1), Hit(21)),
        (oracle(B).graph(1), Miss),
        (oracle(Q).graph(1), Hit(23)),
        // 25–26: the first entries are still served.
        (spanner(Q), Hit(0)),
        (oracle(B), Hit(12)),
    ]
}

/// Two graphs registered under keys that route to one shard, so
/// that keeping their artifacts apart is the artifact key's doing.
fn tier() -> (Arc<ShardedService>, [GraphHandle; 2]) {
    let tier = Arc::new(ShardedService::new(2));
    let first = connected_erdos_renyi(60, 0.1, WeightModel::Uniform(1, 8), 11);
    let second = connected_erdos_renyi(60, 0.1, WeightModel::Uniform(1, 8), 12);
    let key = first.fingerprint();
    let shard = tier.shard_for(key);
    let other = (1u64..)
        .map(|i| key.wrapping_add(i))
        .find(|&k| tier.shard_for(k) == shard)
        .expect("some nearby key routes to the same shard");
    let handles = [
        tier.register_keyed(key, first),
        tier.register_keyed(other, second),
    ];
    (tier, handles)
}

fn alg() -> Algorithm {
    Algorithm::General(TradeoffParams::new(4, 2))
}

fn serve(tier: &ShardedService, queue: &JobQueue, handle: &GraphHandle, job: Job) -> JobOutput {
    match job.path {
        Path::Blocking if job.oracle => {
            let mut builder = tier
                .oracle(handle, alg())
                .on(job.backend)
                .seed(job.seed)
                .engine(job.engine);
            if let Some(deadline) = job.deadline {
                builder = builder.deadline(deadline);
            }
            JobOutput::Oracle(builder.build().expect("oracle job succeeds"))
        }
        Path::Blocking => {
            let mut builder = tier
                .spanner(handle, alg())
                .on(job.backend)
                .seed(job.seed)
                .verification(job.verification);
            if let Some(deadline) = job.deadline {
                builder = builder.deadline(deadline);
            }
            JobOutput::Spanner(builder.run().expect("spanner job succeeds"))
        }
        Path::Queued => {
            let spec = if job.oracle {
                JobSpec::oracle(handle, alg())
            } else {
                JobSpec::spanner(handle, alg())
            };
            let mut spec = spec
                .on(job.backend)
                .seed(job.seed)
                .verification(job.verification)
                .engine(job.engine)
                .client(ClientId(job.client))
                .priority(job.priority);
            if let Some(deadline) = job.deadline {
                spec = spec.deadline(deadline);
            }
            queue.wait(queue.submit(spec)).expect("queued job succeeds")
        }
    }
}

fn same_artifact(a: &JobOutput, b: &JobOutput) -> bool {
    match (a, b) {
        (JobOutput::Spanner(a), JobOutput::Spanner(b)) => Arc::ptr_eq(a, b),
        (JobOutput::Oracle(a), JobOutput::Oracle(b)) => Arc::ptr_eq(a, b),
        _ => false,
    }
}

#[test]
fn jobs_hit_exactly_the_artifacts_their_identity_names() {
    let (tier, handles) = tier();
    let queue = JobQueue::start(Arc::clone(&tier), 1);
    let mut outputs: Vec<JobOutput> = Vec::new();
    for (row, (job, expect)) in table().into_iter().enumerate() {
        let before = tier.stats();
        let output = serve(&tier, &queue, &handles[job.graph], job);
        let after = tier.stats();
        let delta = (after.hits - before.hits, after.misses - before.misses);
        match expect {
            Expect::Miss => {
                assert_eq!(delta, (0, 1), "row {row} {job:?} must miss the store");
                if let Some(earlier) = outputs.iter().position(|o| same_artifact(o, &output)) {
                    panic!("row {row} {job:?} missed but returned row {earlier}'s artifact");
                }
            }
            Expect::Hit(earlier) => {
                assert_eq!(delta, (1, 0), "row {row} {job:?} must hit the store");
                assert!(
                    same_artifact(&outputs[earlier], &output),
                    "row {row} {job:?} must return row {earlier}'s artifact"
                );
            }
        }
        outputs.push(output);
    }
    let misses = table()
        .iter()
        .filter(|(_, expect)| *expect == Expect::Miss)
        .count();
    let stats = tier.stats();
    assert_eq!(stats.misses, misses as u64);
    assert_eq!(stats.store_len, misses, "one stored entry per miss");
    assert_eq!(stats.evictions, 0);
    queue.drain();
}

/// After `invalidate`, the old handle stays usable, and a job on it puts
/// its artifact back into the store. New content registered under the
/// same key must get a version of its own, so that it is never served
/// that artifact.
#[test]
fn a_key_never_reissues_a_version_after_invalidate() {
    macro_rules! scenario {
        ($service:expr) => {{
            let service = $service;
            let old = connected_erdos_renyi(60, 0.1, WeightModel::Uniform(1, 8), 21);
            let new = connected_erdos_renyi(60, 0.1, WeightModel::Uniform(1, 8), 22);
            let direct = SpannerRequest::new(&new, alg()).seed(1).run().unwrap();
            let h1 = service.register_keyed(7, old);
            service.invalidate(&h1);
            assert_eq!(service.registered(), 0);
            let stale = service.spanner(&h1, alg()).seed(1).run().unwrap();
            let h2 = service.register_keyed(7, new);
            assert_eq!(service.registered(), 1);
            assert_ne!(h2.version(), h1.version(), "a key never reissues a version");
            let fresh = service.spanner(&h2, alg()).seed(1).run().unwrap();
            assert!(
                !Arc::ptr_eq(&stale, &fresh),
                "the new graph was served the invalidated graph's spanner"
            );
            assert_eq!(fresh.result.edges, direct.result.edges);
        }};
    }
    scenario!(SpannerService::new());
    scenario!(ShardedService::new(2));
}
