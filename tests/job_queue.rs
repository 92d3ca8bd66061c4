//! The async job-queue front door's concurrency contract:
//!
//! 1. **Exactly-once resolution** — under 8+ concurrent client threads
//!    mixing priority lanes, every submitted `JobId` resolves exactly
//!    once: ids are unique, every `wait` returns, repeated waits return
//!    the same artifact, and the resolution sequence is a permutation
//!    of `1..=N`.
//! 2. **Bounded overtake** — interactive jobs are never starved behind
//!    a batch backlog, and the batch lane still makes progress (every
//!    fourth dispatch) while interactive work is pending.
//! 3. **Per-client fairness** — within a lane, dispatch rotates across
//!    clients: no client's completed count lags the maximum by more
//!    than one rotation while all clients still have queued work.
//! 4. **Cancel/deadline without execution** — a token fired (or a
//!    deadline expired) while a job is still queued resolves it at
//!    dispatch without ever reaching a shard.
//! 5. **One build per key** — jobs that miss one key at once, on
//!    different workers, share one build: one miss, the rest hits, one
//!    `Arc`.
//!
//! 7. **Hand-off, not retention** — the first `wait` takes a completed
//!    output off the queue, which then holds it only weakly: once the
//!    waiter and the store drop it, it is freed, `poll` reports
//!    `Released` and `wait` a typed error. A job nobody waited keeps its
//!    result.
//!
//! Timing-dependent assertions follow the repo's escalating-workload
//! idiom: grow the blocker job until one full build is long enough to
//! make the race unambiguous, and skip the timing assertions (never
//! the correctness ones) if the machine is too fast.

use std::collections::BTreeSet;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use mpc_spanners::core::TradeoffParams;
use mpc_spanners::graph::generators::{connected_erdos_renyi, Family, WeightModel};
use mpc_spanners::graph::Graph;
use mpc_spanners::pipeline::{
    Algorithm, ClientId, DistanceOracle, GraphHandle, JobQueue, JobSpec, JobStatus, PipelineError,
    Priority, QueryEngine, ShardedService,
};

fn alg() -> Algorithm {
    Algorithm::General(TradeoffParams::new(4, 2))
}

fn small_graph(seed: u64) -> Graph {
    connected_erdos_renyi(50, 0.12, WeightModel::Uniform(1, 8), seed)
}

/// A tier with one prewarmed handle, so probe jobs are instant store
/// hits (prewarming goes through the service directly and leaves queue
/// counters untouched).
fn warmed_tier(seeds: std::ops::Range<u64>) -> (Arc<ShardedService>, GraphHandle) {
    let tier = Arc::new(ShardedService::new(2));
    let handle = tier.register(small_graph(0));
    for seed in seeds {
        tier.spanner(&handle, alg()).seed(seed).run().unwrap();
    }
    (tier, handle)
}

/// Escalates a cold oracle build until it takes at least `floor`,
/// returning `(graph, full_build_time)`. Registers nothing.
fn escalating_blocker(floor: Duration) -> (Graph, Duration) {
    let mut workload = None;
    for n in [600usize, 1200, 2400, 4800] {
        let g = Family::ErdosRenyi { n, avg_deg: 6.0 }.generate(WeightModel::Uniform(1, 8), 0xB1);
        let probe = ShardedService::new(1);
        let h = probe.register(g.clone());
        let started = Instant::now();
        probe
            .oracle(&h, alg())
            .engine(QueryEngine::Sketches { levels: 3 })
            .seed(1)
            .build()
            .expect("full build");
        let full = started.elapsed();
        workload = Some((g, full));
        if full >= floor {
            break;
        }
    }
    workload.expect("at least one workload measured")
}

/// Submits `blocker_graph` cold on a 1-worker queue and waits until the
/// worker picks it up — from then until the blocker finishes, every
/// later submission sits in its lane.
fn occupy_worker(
    queue: &JobQueue,
    tier: &ShardedService,
    blocker_graph: Graph,
) -> mpc_spanners::pipeline::JobId {
    let h = tier.register(blocker_graph);
    let blocker = queue.submit(
        JobSpec::oracle(&h, alg())
            .engine(QueryEngine::Sketches { levels: 3 })
            .seed(1),
    );
    while matches!(queue.poll(blocker), Some(JobStatus::Queued)) {
        std::thread::yield_now();
    }
    blocker
}

#[test]
fn every_job_resolves_exactly_once_under_eight_clients() {
    let (tier, handle) = warmed_tier(0..3);
    let queue = Arc::new(JobQueue::start(Arc::clone(&tier), 2));

    const CLIENTS: u64 = 8;
    const PER_CLIENT: u64 = 6;
    let mut ids = Vec::new();
    std::thread::scope(|scope| {
        let mut collectors = Vec::new();
        for t in 0..CLIENTS {
            let queue = Arc::clone(&queue);
            let handle = handle.clone();
            collectors.push(scope.spawn(move || {
                let mut mine = Vec::new();
                for j in 0..PER_CLIENT {
                    let priority = if (t + j) % 2 == 0 {
                        Priority::Interactive
                    } else {
                        Priority::Batch
                    };
                    let spec = JobSpec::spanner(&handle, alg())
                        .seed((t + j) % 3)
                        .priority(priority)
                        .client(ClientId(t));
                    mine.push(queue.submit(spec));
                }
                // Wait from the submitting thread, like a real client.
                for &id in &mine {
                    let output = queue.wait(id).expect("store-hit job succeeds");
                    let again = queue.wait(id).expect("second wait succeeds");
                    assert!(
                        Arc::ptr_eq(
                            output.spanner().expect("spanner job"),
                            again.spanner().expect("spanner job")
                        ),
                        "repeated waits must return the same artifact"
                    );
                }
                mine
            }));
        }
        for collector in collectors {
            ids.extend(collector.join().expect("client thread"));
        }
    });

    let total = CLIENTS * PER_CLIENT;
    assert_eq!(
        ids.iter().collect::<BTreeSet<_>>().len(),
        total as usize,
        "job ids must be unique"
    );
    // Exactly-once: the resolution sequence is a permutation of 1..=N.
    let orders: BTreeSet<u64> = ids
        .iter()
        .map(|&id| queue.resolution_order(id).expect("resolved"))
        .collect();
    assert_eq!(orders, (1..=total).collect::<BTreeSet<u64>>());

    let stats = queue.stats();
    assert_eq!(stats.submitted, total);
    assert_eq!(stats.completed, total);
    assert_eq!(stats.failed, 0);
    assert_eq!(stats.executed, total);
    assert_eq!(stats.queued_now, 0);
    assert!(stats.peak_queued >= 1);

    // Every executed job is accounted on the shards, and every answer
    // came from the 3 prewarmed artifacts (all hits, no new builds).
    let tier_stats = tier.stats();
    assert_eq!(tier_stats.hits + tier_stats.misses, 3 + total);
    assert_eq!(tier_stats.misses, 3, "queued traffic was all store hits");
}

#[test]
fn queued_misses_on_one_key_share_one_build() {
    const CLIENTS: usize = 4;
    let tier = Arc::new(ShardedService::new(2));
    let handle = tier.register(connected_erdos_renyi(
        2000,
        0.004,
        WeightModel::Uniform(1, 8),
        23,
    ));
    // A worker per client, so every job runs at once.
    let queue = JobQueue::start(Arc::clone(&tier), CLIENTS);
    let start = Barrier::new(CLIENTS);
    let oracles: Vec<Arc<DistanceOracle>> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS as u64)
            .map(|c| {
                let (queue, handle, start) = (&queue, &handle, &start);
                scope.spawn(move || {
                    start.wait();
                    let id = queue.submit(
                        JobSpec::oracle(handle, alg())
                            .engine(QueryEngine::Sketches { levels: 2 })
                            .seed(6)
                            .client(ClientId(c)),
                    );
                    let output = queue.wait(id).expect("oracle job");
                    Arc::clone(output.oracle().expect("an oracle job"))
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|c| c.join().expect("client thread"))
            .collect()
    });
    queue.drain();
    let stats = tier.stats();
    assert_eq!(stats.misses, 1, "one build for the key");
    assert_eq!(stats.hits, CLIENTS as u64 - 1, "the rest follow it or hit");
    assert!(oracles.iter().all(|o| Arc::ptr_eq(o, &oracles[0])));
}

#[test]
fn interactive_is_never_starved_and_batch_still_progresses() {
    let (tier, handle) = warmed_tier(0..1);
    let queue = JobQueue::start(Arc::clone(&tier), 1);
    let (blocker_graph, full) = escalating_blocker(Duration::from_millis(200));
    let timing_reliable = full >= Duration::from_millis(200);
    let blocker = occupy_worker(&queue, &tier, blocker_graph);

    // While the single worker is pinned, build a deep batch backlog and
    // then a burst of interactive jobs behind it.
    const BATCH: u64 = 12;
    const INTERACTIVE: u64 = 6;
    let batch_ids: Vec<_> = (0..BATCH)
        .map(|_| {
            queue.submit(
                JobSpec::spanner(&handle, alg())
                    .seed(0)
                    .priority(Priority::Batch),
            )
        })
        .collect();
    let submitted_in_time = matches!(queue.poll(blocker), Some(JobStatus::Running));
    let interactive_ids: Vec<_> = (0..INTERACTIVE)
        .map(|_| {
            queue.submit(
                JobSpec::spanner(&handle, alg())
                    .seed(0)
                    .priority(Priority::Interactive),
            )
        })
        .collect();

    for id in batch_ids.iter().chain(&interactive_ids) {
        queue.wait(*id).expect("store-hit job succeeds");
    }
    queue.wait(blocker).expect("blocker succeeds");

    if timing_reliable && submitted_in_time {
        // Bounded overtake, both directions. With escape-every-4 the
        // dispatcher serves at most one batch job per three interactive
        // ones while both lanes hold work — so across the 6-job
        // interactive burst at most ceil(6/3) + 1 = 3 batch jobs may
        // resolve first...
        let last_interactive = interactive_ids
            .iter()
            .map(|&id| queue.resolution_order(id).expect("resolved"))
            .max()
            .unwrap();
        let batch_before = batch_ids
            .iter()
            .filter(|&&id| queue.resolution_order(id).expect("resolved") < last_interactive)
            .count();
        assert!(
            batch_before <= 1 + (INTERACTIVE as usize).div_ceil(3),
            "interactive burst was starved: {batch_before} of {BATCH} batch jobs \
             resolved before the last interactive job"
        );
        // ...and the escape valve guarantees those early batch slots
        // exist at all — strict priority would let the backlog rot.
        assert!(
            batch_before >= 1,
            "batch lane made no progress while interactive work was pending"
        );
    }
}

#[test]
fn dispatch_rotates_fairly_across_clients() {
    let (tier, handle) = warmed_tier(0..1);
    let queue = JobQueue::start(Arc::clone(&tier), 1);
    let (blocker_graph, full) = escalating_blocker(Duration::from_millis(200));
    let timing_reliable = full >= Duration::from_millis(200);
    let blocker = occupy_worker(&queue, &tier, blocker_graph);

    // Client 0 floods the lane; clients 1 and 2 each submit a trickle.
    const FLOOD: usize = 9;
    const TRICKLE: usize = 3;
    let mut per_client: Vec<Vec<_>> = Vec::new();
    per_client.push(
        (0..FLOOD)
            .map(|_| queue.submit(JobSpec::spanner(&handle, alg()).seed(0).client(ClientId(0))))
            .collect(),
    );
    for c in 1..=2u64 {
        per_client.push(
            (0..TRICKLE)
                .map(|_| queue.submit(JobSpec::spanner(&handle, alg()).seed(0).client(ClientId(c))))
                .collect(),
        );
    }
    let submitted_in_time = matches!(queue.poll(blocker), Some(JobStatus::Running));

    for ids in &per_client {
        for &id in ids {
            queue.wait(id).expect("store-hit job succeeds");
        }
    }

    if timing_reliable && submitted_in_time {
        // Round-robin: while every client still has queued work (the
        // first TRICKLE rotations), the k-th job of each client must
        // resolve before any client's (k+1)-th — no client lags the
        // leader by more than one rotation.
        let order = |id| queue.resolution_order(id).expect("resolved");
        for k in 0..TRICKLE {
            let kth_max = per_client.iter().map(|ids| order(ids[k])).max().unwrap();
            let next_min = per_client
                .iter()
                .filter_map(|ids| ids.get(k + 1).map(|&id| order(id)))
                .min();
            if let Some(next_min) = next_min {
                assert!(
                    kth_max < next_min,
                    "rotation {k}: a client started its next job (seq {next_min}) before \
                     every client finished round {k} (seq {kth_max})"
                );
            }
        }
        // The flooding client's surplus runs only after the trickle
        // clients drained.
        let trickle_max = per_client[1..]
            .iter()
            .flatten()
            .map(|&id| order(id))
            .max()
            .unwrap();
        let flood_last = order(per_client[0][FLOOD - 1]);
        assert!(
            trickle_max < flood_last,
            "the flood monopolised the lane past the trickle clients"
        );
    }
}

#[test]
fn queued_jobs_cancelled_or_expired_never_execute() {
    let (tier, handle) = warmed_tier(0..1);
    let misses_before = tier.stats().misses;
    let queue = JobQueue::start(Arc::clone(&tier), 1);

    // Deterministic halves: a pre-fired token and an already-expired
    // deadline must resolve at dispatch, whatever the scheduling.
    let fired = mpc_spanners::pipeline::CancelToken::new();
    fired.cancel();
    let cancelled = queue.submit(
        JobSpec::spanner(&handle, alg())
            .seed(9)
            .cancel(fired.clone()),
    );
    let expired = queue.submit(
        JobSpec::spanner(&handle, alg())
            .seed(9)
            .deadline(Duration::ZERO),
    );
    assert!(matches!(
        queue.wait(cancelled),
        Err(PipelineError::Cancelled)
    ));
    assert!(matches!(
        queue.wait(expired),
        Err(PipelineError::DeadlineExceeded { .. })
    ));

    // Timing half: cancel a job while it demonstrably sits behind a
    // blocker on the single worker.
    let (blocker_graph, full) = escalating_blocker(Duration::from_millis(200));
    let timing_reliable = full >= Duration::from_millis(200);
    let blocker = occupy_worker(&queue, &tier, blocker_graph);
    // Seed 0 is prewarmed: even if scheduling executes this job, it is
    // a store hit and the miss accounting below stays exact.
    let behind = queue.submit(JobSpec::spanner(&handle, alg()).seed(0));
    let was_queued = matches!(queue.poll(behind), Some(JobStatus::Queued));
    assert!(queue.cancel(behind), "pending job accepts cancellation");
    let result = queue.wait(behind);
    queue.wait(blocker).expect("blocker succeeds");

    if timing_reliable && was_queued {
        assert!(
            matches!(result, Err(PipelineError::Cancelled)),
            "job cancelled while queued must resolve Cancelled, got {result:?}"
        );
    }

    let stats = queue.stats();
    assert!(
        stats.skipped_cancelled >= 1,
        "pre-fired token never executes"
    );
    assert!(
        stats.skipped_deadline >= 1,
        "expired deadline never executes"
    );
    assert_eq!(
        stats.submitted,
        stats.completed + stats.failed + stats.queued_now as u64
    );
    // Skipped jobs never reached a shard: seed 9 was never built, so
    // the only misses are the prewarm and the blocker.
    assert_eq!(
        tier.stats().misses,
        misses_before + 1,
        "a skipped job must not execute on any shard"
    );
    // Cancelling an already-resolved job is a no-op.
    assert!(!queue.cancel(cancelled));
}

/// 5. **Graceful drain** — `drain()` returns only once every job
///    submitted before it resolved, so a queue dropped after a drain
///    abandons nothing (`lock-audit` builds additionally enforce this
///    quiesce contract with a drop-time `debug_assert`).
#[test]
fn drain_resolves_every_job_before_drop() {
    let (tier, handle) = warmed_tier(0..6);
    let queue = JobQueue::start(Arc::clone(&tier), 2);
    let ids: Vec<_> = (0..12u64)
        .map(|i| {
            let lane = if i % 2 == 0 {
                Priority::Interactive
            } else {
                Priority::Batch
            };
            queue.submit(
                JobSpec::spanner(&handle, alg())
                    .seed(i % 6)
                    .client(ClientId(i % 3))
                    .priority(lane),
            )
        })
        .collect();

    queue.drain();

    for id in &ids {
        let status = queue.poll(*id).expect("drained job is still known");
        assert!(
            status.is_terminal(),
            "drain returned with an unresolved job: {status:?}"
        );
    }
    let stats = queue.stats();
    assert_eq!(stats.queued_now, 0, "drain leaves no backlog");
    assert_eq!(stats.submitted, 12);
    assert_eq!(
        stats.completed + stats.failed,
        12,
        "every pre-drain job resolved"
    );
    // Nothing left to abandon: under `--features lock-audit` the drop
    // below debug-asserts exactly that.
    drop(queue);
}

/// 6. **Drain refuses latecomers** — once `drain()` begins, new
///    submissions are turned away at the door: they get a valid id that
///    resolves [`PipelineError::Cancelled`] immediately (no execution,
///    no lane entry) and are counted in `stats().refused`.
#[test]
fn draining_queue_refuses_new_submissions() {
    let (tier, handle) = warmed_tier(0..1);
    let (blocker_graph, full) = escalating_blocker(Duration::from_millis(200));
    let queue = Arc::new(JobQueue::start(Arc::clone(&tier), 1));
    let _blocker = occupy_worker(&queue, &tier, blocker_graph);

    let drainer = {
        let queue = Arc::clone(&queue);
        std::thread::spawn(move || queue.drain())
    };

    // `drain()` flips the refusal flag before blocking on quiescence,
    // and the flag stays up after it returns — so probing until a
    // submission bounces terminates no matter how fast the machine is.
    let started = Instant::now();
    let cap = full * 4 + Duration::from_secs(5);
    let refused_id = loop {
        let id = queue.submit(JobSpec::spanner(&handle, alg()).seed(0));
        if matches!(
            queue.poll(id),
            Some(JobStatus::Failed(PipelineError::Cancelled))
        ) {
            break id;
        }
        assert!(
            started.elapsed() < cap,
            "no submission was refused within {cap:?} of starting a drain"
        );
        std::thread::sleep(Duration::from_millis(1));
    };

    assert!(
        matches!(queue.wait(refused_id), Err(PipelineError::Cancelled)),
        "a refused job resolves Cancelled through the normal wait path"
    );
    drainer.join().expect("drain thread");

    let stats = queue.stats();
    assert!(
        stats.refused >= 1,
        "refusals are counted: {}",
        stats.summary()
    );
    assert_eq!(stats.queued_now, 0, "drain leaves no backlog");
    assert_eq!(
        stats.submitted,
        stats.completed + stats.failed,
        "every id ever handed out resolved exactly once: {}",
        stats.summary()
    );
}

/// 7a. A waited oracle is held by the queue only weakly: dropping the
///     waiter's copy and invalidating the store's frees it, after which
///     `poll` reports `Released`, `wait` fails with a typed error, and
///     `resolution_order` still answers.
#[test]
fn waited_output_is_freed_once_waiter_and_store_drop_it() {
    let tier = Arc::new(ShardedService::new(2));
    let handle = tier.register(small_graph(3));
    let queue = JobQueue::with_defaults(Arc::clone(&tier));
    let id = queue.submit(JobSpec::oracle(&handle, alg()).seed(4));

    let output = queue.wait(id).expect("oracle job succeeds");
    let oracle = Arc::downgrade(output.oracle().expect("oracle job yields an oracle"));
    let again = queue
        .wait(id)
        .expect("the output is alive, so a second wait succeeds");
    assert!(
        Arc::ptr_eq(
            output.oracle().expect("oracle job"),
            again.oracle().expect("oracle job")
        ),
        "while held, repeated waits return the same artifact"
    );
    assert!(matches!(queue.poll(id), Some(JobStatus::Completed(_))));
    drop((output, again));
    assert!(oracle.upgrade().is_some(), "the store still holds its copy");

    assert_eq!(
        tier.invalidate(&handle),
        1,
        "the oracle was the only artifact"
    );
    assert!(
        oracle.upgrade().is_none(),
        "with the waiter and the store gone, the queue must not keep the oracle alive"
    );
    assert!(matches!(queue.poll(id), Some(JobStatus::Released)));
    assert!(queue.poll(id).is_some_and(|status| status.is_terminal()));
    assert!(matches!(
        queue.wait(id),
        Err(PipelineError::ResultReleased(job)) if job == id
    ));
    assert!(matches!(
        queue.wait_timeout(id, Duration::from_secs(1)),
        Some(Err(PipelineError::ResultReleased(_)))
    ));
    assert_eq!(queue.resolution_order(id), Some(1));
    assert!(!queue.cancel(id), "a released job is resolved");
}

/// 7b. A job nobody waited keeps its result: after `drain`, even with
///     the store emptied, `poll` and then `wait` return it.
#[test]
fn unwaited_job_keeps_its_result_through_drain() {
    let tier = Arc::new(ShardedService::new(2));
    let handle = tier.register(small_graph(5));
    let queue = JobQueue::with_defaults(Arc::clone(&tier));
    let id = queue.submit(JobSpec::spanner(&handle, alg()).seed(6));
    queue.drain();
    tier.invalidate(&handle);

    assert!(matches!(queue.poll(id), Some(JobStatus::Completed(_))));
    let output = queue.wait(id).expect("an unwaited result is kept");
    let report = output.spanner().expect("spanner job yields a report");
    let direct = tier.spanner(&handle, alg()).seed(6).run().unwrap();
    assert_eq!(report.result.edges, direct.result.edges);
    assert_eq!(queue.resolution_order(id), Some(1));
}
