//! The long-lived serving API's contract:
//!
//! 1. **One-shot and handle-based builds agree** — the one-shot
//!    `SpannerRequest` / `DistanceRequest` calls and handle-based
//!    service jobs run the same guarded build and produce
//!    **bit-identical** artifacts at fixed seeds: spanners on every
//!    backend, oracles (with the MPC gather's cost) on the serving
//!    backends.
//! 2. **Concurrency is deterministic per request** — N threads
//!    hammering one `SpannerService` each observe exactly the artifact
//!    their request determines, store hits or not.
//! 3. **The store is budgeted** — an over-budget store evicts
//!    least-recently-used artifacts and re-serves *recomputed, correct*
//!    answers afterwards.
//! 4. **Versioning defeats stale serving** — re-registering different
//!    content under an equal registry key (a fingerprint collision or a
//!    mutated graph) bumps the version and invalidates dependent
//!    artifacts; the new handle can never be served the old oracle.
//! 5. **Builds are cooperatively interruptible** — a token fired while
//!    concurrent oracle jobs build stops them between Thorup–Zwick
//!    levels / cluster chunks instead of running them to completion.
//! 6. **Spanner construction itself is preemptible** — the token is
//!    also checked between grow iterations (Baswana–Sen and the
//!    general engine), so a mid-spanner cancel returns `Cancelled` in
//!    well under one full build, not only at oracle-stage boundaries.
//!    A one-shot request's deadline fires at the same checkpoints.

use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use rayon::prelude::*;

use mpc_spanners::core::TradeoffParams;
use mpc_spanners::graph::edge::{Distance, Edge, EdgeId};
use mpc_spanners::graph::generators::{connected_erdos_renyi, Family, WeightModel};
use mpc_spanners::graph::Graph;
use mpc_spanners::pipeline::{
    Algorithm, Backend, BuildGuard, CancelToken, ClientId, DistanceOracle, DistanceRequest,
    DistanceSketches, HeapSize, JobId, JobQueue, JobSpec, MpcDeployment, PipelineError, Priority,
    QueryEngine, ShardedService, SpannerRequest, SpannerService,
};

fn params() -> TradeoffParams {
    TradeoffParams::new(4, 2)
}

fn alg() -> Algorithm {
    Algorithm::General(params())
}

fn sample_queries(n: u32) -> Vec<(u32, u32)> {
    (0..64u32)
        .map(|i| ((i * 7) % n, (i * 31 + 3) % n))
        .collect()
}

#[test]
fn one_shot_requests_are_bit_identical_to_handle_based_jobs() {
    let g = connected_erdos_renyi(100, 0.08, WeightModel::Uniform(1, 16), 3);
    let service = SpannerService::new();
    let handle = service.register(g.clone());

    for backend in [
        Backend::Sequential,
        Backend::mpc(),
        Backend::congested_clique(),
        Backend::Pram,
        Backend::Streaming,
    ] {
        for seed in [0u64, 7] {
            let legacy = SpannerRequest::new(&g, alg())
                .on(backend)
                .seed(seed)
                .run()
                .expect("one-shot run");
            let job = service
                .spanner(&handle, alg())
                .on(backend)
                .seed(seed)
                .run()
                .expect("handle-based run");
            assert_eq!(
                legacy.result.edges,
                job.result.edges,
                "{} seed {seed}: one-shot and handle-based spanners diverged",
                backend.name()
            );
            assert_eq!(legacy.stats.model_rounds(), job.stats.model_rounds());
            assert_eq!(legacy.plan.stretch_bound, job.plan.stretch_bound);
            assert_eq!(legacy.result.iterations, job.result.iterations);
        }
    }

    let queries = sample_queries(g.n() as u32);
    for backend in [
        Backend::Sequential,
        Backend::mpc_deployment(MpcDeployment::NearLinear),
    ] {
        for engine in [QueryEngine::Dijkstra, QueryEngine::Sketches { levels: 2 }] {
            let legacy = DistanceRequest::new(&g, alg())
                .on(backend)
                .engine(engine)
                .seed(11)
                .build()
                .expect("one-shot build");
            let job = service
                .oracle(&handle, alg())
                .on(backend)
                .engine(engine)
                .seed(11)
                .build()
                .expect("handle-based build");
            let what = format!("{} {engine:?}", backend.name());
            assert_eq!(legacy.spanner_edges(), job.spanner_edges(), "{what}");
            assert_eq!(legacy.stretch_bound(), job.stretch_bound(), "{what}");
            // On MPC both paths charge the same "+1" gather on top of
            // the same construction.
            assert_eq!(
                legacy.stats().gather_rounds,
                job.stats().gather_rounds,
                "{what}: gather rounds diverged"
            );
            assert_eq!(
                legacy.stats().execution.model_rounds(),
                job.stats().execution.model_rounds(),
                "{what}: model rounds diverged"
            );
            assert_eq!(
                legacy.query_batch(&queries),
                job.query_batch(&queries),
                "{what}: one-shot and handle-based oracles answer differently"
            );
        }
    }
}

#[test]
fn concurrent_submissions_against_one_service_are_deterministic_per_request() {
    let g = connected_erdos_renyi(90, 0.09, WeightModel::Uniform(1, 8), 5);
    let queries = sample_queries(g.n() as u32);

    // Ground truth through the one-shot API, per seed.
    let expected_edges: Vec<Vec<EdgeId>> = (0..3u64)
        .map(|s| {
            SpannerRequest::new(&g, alg())
                .seed(s)
                .run()
                .unwrap()
                .result
                .edges
        })
        .collect();
    let expected_answers: Vec<Vec<Distance>> = (0..3u64)
        .map(|s| {
            DistanceRequest::new(&g, alg())
                .engine(QueryEngine::Sketches { levels: 2 })
                .seed(s)
                .build()
                .unwrap()
                .query_batch(&queries)
        })
        .collect();

    let service = SpannerService::new();
    let handle = service.register(g);
    let (service, handle, queries) = (&service, &handle, &queries);
    let (expected_edges, expected_answers) = (&expected_edges, &expected_answers);

    std::thread::scope(|scope| {
        for t in 0..8u64 {
            scope.spawn(move || {
                for j in 0..6u64 {
                    let seed = (t + j) % 3;
                    let report = service
                        .spanner(handle, alg())
                        .seed(seed)
                        .run()
                        .expect("spanner job");
                    assert_eq!(
                        report.result.edges, expected_edges[seed as usize],
                        "thread {t}, job {j}: non-deterministic spanner for seed {seed}"
                    );
                    let oracle = service
                        .oracle(handle, alg())
                        .engine(QueryEngine::Sketches { levels: 2 })
                        .seed(seed)
                        .build()
                        .expect("oracle job");
                    assert_eq!(
                        oracle.query_batch(queries),
                        expected_answers[seed as usize],
                        "thread {t}, job {j}: non-deterministic oracle for seed {seed}"
                    );
                }
            });
        }
    });

    let stats = service.stats();
    assert_eq!(stats.hits + stats.misses, 8 * 6 * 2, "every job accounted");
    // 3 spanner keys + 3 oracle keys, each built once: a concurrent
    // first miss follows the build in flight.
    assert_eq!(stats.misses, 6);
    assert_eq!(service.stats().store_len, 6);
}

#[test]
fn concurrent_misses_on_one_key_share_one_build() {
    const CLIENTS: usize = 6;
    let g = connected_erdos_renyi(2000, 0.004, WeightModel::Uniform(1, 16), 21);
    let service = SpannerService::new();
    let handle = service.register(g);
    let start = Barrier::new(CLIENTS);
    let oracles: Vec<Arc<DistanceOracle>> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|_| {
                scope.spawn(|| {
                    start.wait();
                    service
                        .oracle(&handle, alg())
                        .engine(QueryEngine::Sketches { levels: 2 })
                        .seed(4)
                        .build()
                        .expect("oracle job")
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|c| c.join().expect("client thread"))
            .collect()
    });
    let stats = service.stats();
    assert_eq!(stats.misses, 1, "one build for the key");
    assert_eq!(stats.hits, CLIENTS as u64 - 1, "the rest follow it or hit");
    assert!(oracles.iter().all(|o| Arc::ptr_eq(o, &oracles[0])));
}

#[test]
fn a_pool_batch_of_identical_oracle_jobs_builds_once() {
    // Followers block pool threads here. The leader's build fans out on
    // the same 2-thread pool and runs its own batch itself, so it keeps
    // moving while the other pool thread waits for it.
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(2)
        .build()
        .expect("pool");
    let g = connected_erdos_renyi(2000, 0.004, WeightModel::Uniform(1, 16), 22);
    let service = SpannerService::new();
    let handle = service.register(g);
    let oracles: Vec<Arc<DistanceOracle>> = pool.install(|| {
        (0..8u32)
            .into_par_iter()
            .map(|_| {
                service
                    .oracle(&handle, alg())
                    .engine(QueryEngine::Sketches { levels: 2 })
                    .seed(5)
                    .build()
                    .expect("oracle job")
            })
            .collect()
    });
    let stats = service.stats();
    assert_eq!((stats.misses, stats.hits), (1, 7));
    assert!(oracles.iter().all(|o| Arc::ptr_eq(o, &oracles[0])));
}

#[test]
fn over_budget_store_evicts_lru_and_reserves_recomputed_answers() {
    let g = connected_erdos_renyi(80, 0.1, WeightModel::Uniform(1, 8), 9);
    let queries = sample_queries(g.n() as u32);

    // Size the budget from real artifacts: room for either oracle alone,
    // never both.
    let size_of = |seed: u64| {
        DistanceRequest::new(&g, alg())
            .seed(seed)
            .build()
            .unwrap()
            .heap_size()
    };
    let budget = size_of(1).max(size_of(2));
    let service = SpannerService::with_budget(budget);
    let handle = service.register(g);

    let a1 = service.oracle(&handle, alg()).seed(1).build().unwrap();
    assert_eq!(service.stats().store_len, 1);
    let _b = service.oracle(&handle, alg()).seed(2).build().unwrap();
    assert_eq!(service.stats().store_len, 1, "budget holds one oracle");
    assert!(service.stats().evictions >= 1, "inserting B must evict A");

    // A was evicted: re-serving it recomputes — a different allocation
    // with identical answers.
    let a2 = service.oracle(&handle, alg()).seed(1).build().unwrap();
    assert!(
        !Arc::ptr_eq(&a1, &a2),
        "evicted artifact must be recomputed, not resurrected"
    );
    assert_eq!(a1.query_batch(&queries), a2.query_batch(&queries));
    let stats = service.stats();
    assert_eq!(stats.hits, 0);
    assert_eq!(stats.misses, 3);
    assert!(service.stats().store_used_bytes <= budget);
}

#[test]
fn the_store_charge_covers_a_sketch_oracles_lazily_built_spanner() {
    // A sketch oracle builds its spanner's graph on the first
    // `spanner()` call. The store records an oracle's size once, at
    // insertion, so that size must already count the graph.
    let g = connected_erdos_renyi(400, 0.03, WeightModel::Uniform(1, 16), 23);
    let service = SpannerService::new();
    let handle = service.register(g);
    let oracle = service
        .oracle(&handle, alg())
        .engine(QueryEngine::Sketches { levels: 2 })
        .seed(6)
        .build()
        .expect("oracle job");
    let charged = oracle.heap_size();
    assert!(oracle.spanner().m() > 0);
    assert!(service.stats().store_used_bytes >= oracle.heap_size());
    assert_eq!(
        oracle.heap_size(),
        charged,
        "building the graph moves no charge"
    );
}

#[test]
fn reregistering_mutated_content_under_an_equal_key_never_serves_stale_oracles() {
    // A path graph and a mutated copy: identical shape, one bridge edge
    // re-weighted, so true distances across the bridge differ.
    let n = 24u32;
    let path = |bridge_weight: u64| -> Graph {
        Graph::from_edges(
            n as usize,
            (0..n - 1).map(|v| Edge::new(v, v + 1, if v == 10 { bridge_weight } else { 1 })),
        )
    };
    let g1 = path(1);
    let g2 = path(9);
    assert_ne!(
        g1.fingerprint(),
        g2.fingerprint(),
        "sanity: contents differ"
    );

    // Force both under ONE registry key — the fingerprint-collision
    // scenario: the registry must fall back to content comparison and
    // version the re-registration instead of aliasing.
    let key = 0x0C01_11DE_u64;
    let service = SpannerService::new();
    let h1 = service.register_keyed(key, g1.clone());
    let o1 = service.oracle(&h1, alg()).seed(4).build().unwrap();
    assert_eq!(o1.query(0, n - 1), 23, "unit-weight path end to end");

    let h2 = service.register_keyed(key, g2.clone());
    assert_eq!(h1.fingerprint(), h2.fingerprint(), "same registry key");
    assert_eq!(h1.version(), 1);
    assert_eq!(h2.version(), 2, "different content must bump the version");
    assert!(
        service.stats().invalidations >= 1,
        "old version's artifacts must be invalidated"
    );

    // The new handle must be served a fresh oracle for g2 — the answer a
    // direct one-shot build on g2 gives — never g1's cached one.
    let o2 = service.oracle(&h2, alg()).seed(4).build().unwrap();
    let direct = DistanceRequest::new(&g2, alg()).seed(4).build().unwrap();
    assert_eq!(o2.query(0, n - 1), direct.query(0, n - 1));
    assert_eq!(
        o2.query(0, n - 1),
        31,
        "re-weighted bridge must be visible through the new handle"
    );
    assert_ne!(o1.query(0, n - 1), o2.query(0, n - 1));

    // The old handle keeps answering for the graph it pins (its version
    // is simply no longer shared).
    let o1_again = service.oracle(&h1, alg()).seed(4).build().unwrap();
    assert_eq!(o1_again.query(0, n - 1), 23);
}

#[test]
fn prebuild_warms_the_store_for_admission_controlled_traffic() {
    let g = connected_erdos_renyi(70, 0.1, WeightModel::Uniform(1, 8), 13);
    // One shard: a single service's store, behind the job queue — the
    // one admission point — with one worker.
    let tier = Arc::new(ShardedService::new(1));
    let handle = tier.register(g);
    let queue = JobQueue::start(Arc::clone(&tier), 1);
    // Warm-up: submit N at batch priority, wait N.
    let warmup = [
        JobSpec::oracle(&handle, alg()).seed(1),
        JobSpec::oracle(&handle, alg())
            .engine(QueryEngine::Sketches { levels: 2 })
            .seed(1),
        JobSpec::spanner(&handle, alg()).seed(1),
    ];
    let ids: Vec<JobId> = warmup
        .into_iter()
        .map(|spec| queue.submit(spec.priority(Priority::Batch)))
        .collect();
    for id in ids {
        queue.wait(id).expect("warm-up build");
    }
    assert_eq!(tier.stats().store_len, 3);

    let misses_after_warmup = tier.stats().misses;
    let (queue, handle) = (&queue, &handle);
    std::thread::scope(|scope| {
        for client in 0..4u64 {
            scope.spawn(move || {
                // Submit N, wait N.
                let ids: Vec<JobId> = (0..3)
                    .map(|_| {
                        queue.submit(
                            JobSpec::oracle(handle, alg())
                                .seed(1)
                                .client(ClientId(client)),
                        )
                    })
                    .collect();
                for id in ids {
                    queue.wait(id).expect("warm hit");
                }
            });
        }
    });
    let stats = tier.stats();
    assert_eq!(
        stats.misses, misses_after_warmup,
        "warm traffic never executes"
    );
    assert_eq!(stats.hits, 12);
}

#[test]
fn guarded_preprocessing_observes_tokens_and_deadlines_mid_machinery() {
    let g = connected_erdos_renyi(60, 0.1, WeightModel::Uniform(1, 8), 1);
    let fired = CancelToken::new();
    fired.cancel();
    let err = DistanceSketches::preprocess_guarded(
        &g,
        2,
        1,
        1.0,
        &BuildGuard::new("sketches").with_cancel(fired),
    )
    .expect_err("fired token must interrupt preprocessing");
    assert!(matches!(err, PipelineError::Cancelled));

    let err = DistanceSketches::preprocess_guarded(
        &g,
        2,
        1,
        1.0,
        &BuildGuard::new("sketches").with_deadline(Duration::ZERO),
    )
    .expect_err("expired deadline must interrupt preprocessing");
    assert!(matches!(err, PipelineError::DeadlineExceeded { .. }));

    // An unbounded guard changes nothing: bit-identical to the plain
    // entry point.
    let guarded =
        DistanceSketches::preprocess_guarded(&g, 2, 5, 1.0, &BuildGuard::new("sketches")).unwrap();
    assert_eq!(guarded, DistanceSketches::preprocess(&g, 2, 5));
}

#[test]
fn cancelled_mid_batch_build_stops_early() {
    let params = TradeoffParams::new(3, 1);
    let algorithm = Algorithm::General(params);
    let engine = QueryEngine::Sketches { levels: 3 };

    // Escalate the workload until one full build takes long enough that
    // a mid-build cancellation is unambiguous on this machine. The top
    // rungs are for release builds, where n = 4800 builds in well under
    // the 200 ms floor.
    let mut workload: Option<(Graph, Duration)> = None;
    for n in [600usize, 1200, 2400, 4800, 9600, 19200, 38400] {
        let g = Family::ErdosRenyi { n, avg_deg: 6.0 }.generate(WeightModel::Uniform(1, 8), 0xCA);
        let started = Instant::now();
        DistanceRequest::new(&g, algorithm)
            .engine(engine)
            .seed(1)
            .build()
            .expect("full build");
        let full = started.elapsed();
        workload = Some((g, full));
        if full >= Duration::from_millis(200) {
            break;
        }
    }
    let (g, full) = workload.expect("at least one workload measured");
    let timing_reliable = full >= Duration::from_millis(200);

    // Three distinct concurrent oracle jobs sharing one token; it fires
    // while they are in flight.
    let service = SpannerService::new();
    let handle = service.register(g);
    let token = CancelToken::new();
    let canceller = {
        let token = token.clone();
        let delay = (full / 8).max(Duration::from_millis(5));
        std::thread::spawn(move || {
            std::thread::sleep(delay);
            token.cancel();
        })
    };
    let started = Instant::now();
    let results: Vec<Result<Arc<DistanceOracle>, PipelineError>> = std::thread::scope(|scope| {
        let jobs: Vec<_> = [2u64, 3, 4]
            .into_iter()
            .map(|seed| {
                let job = service
                    .oracle(&handle, algorithm)
                    .engine(engine)
                    .seed(seed)
                    .cancel(token.clone());
                scope.spawn(move || job.build())
            })
            .collect();
        jobs.into_iter()
            .map(|job| job.join().expect("oracle job thread"))
            .collect()
    });
    let elapsed = started.elapsed();
    canceller.join().expect("canceller finishes");

    for (i, result) in results.iter().enumerate() {
        assert!(
            matches!(result, Err(PipelineError::Cancelled)),
            "job {i}: expected Cancelled, got {result:?}"
        );
    }
    assert_eq!(
        service.stats().store_len,
        0,
        "cancelled builds store nothing"
    );
    if timing_reliable {
        // Had any in-flight build run to completion it alone would have
        // taken ≥ `full`; stopping between levels/chunks must come in
        // well under that.
        assert!(
            elapsed < full.mul_f64(0.75),
            "cancelled jobs took {elapsed:?}, full build takes {full:?} — \
             in-flight builds did not stop early"
        );
    }
}

/// The median of three or more wall times.
fn median(mut times: Vec<Duration>) -> Duration {
    times.sort_unstable();
    times[times.len() / 2]
}

/// How many full and how many interrupted builds the two grow-iteration
/// checkpoint tests interleave. One pair can be skewed by the other
/// tests sharing the CPUs; the medians of three pairs are not.
const TIMED_PAIRS: u64 = 3;

/// The input sizes the two grow-iteration checkpoint tests climb.
const CHECKPOINT_SIZES: [usize; 6] = [5_000, 20_000, 60_000, 120_000, 250_000, 500_000];

/// The checkpoint tests climb [`CHECKPOINT_SIZES`] until one full build
/// takes this long: twice the 200 ms that the medians of the timed full
/// builds must reach for the timing assertion to run. With another test
/// on the CPUs, the first build of an input can take twice the median
/// of the builds after it.
const CHECKPOINT_ESCALATION: Duration = Duration::from_millis(400);

/// Says that a checkpoint test skipped its timing assertion, so the skip
/// shows in the test output.
fn skipped_timing(n: usize, full: Duration) {
    eprintln!(
        "checkpoint input: n = {n} builds in {full:?} (median), under 200 ms, \
         so the timing assertion was skipped"
    );
}

#[test]
fn cancelled_mid_spanner_build_stops_between_grow_iterations() {
    // Baswana–Sen at k = 8 runs seven grow iterations plus Phase 2, so
    // the guard gets checked 8 times per build — fine-grained enough
    // that a mid-build cancel must land well inside one build.
    let algorithm = Algorithm::BaswanaSen { k: 8 };
    let service = SpannerService::new();

    // Escalate the workload until one full spanner build takes long
    // enough that a mid-build cancellation is unambiguous here.
    let mut workload = None;
    for n in CHECKPOINT_SIZES {
        let g = Family::ErdosRenyi { n, avg_deg: 8.0 }.generate(WeightModel::Uniform(1, 8), 0x5B);
        let handle = service.register(g);
        let started = Instant::now();
        service
            .spanner(&handle, algorithm)
            .seed(1)
            .run()
            .expect("full build");
        let full = started.elapsed();
        workload = Some((n, handle, full));
        if full >= CHECKPOINT_ESCALATION {
            break;
        }
    }
    let (n, handle, first_full) = workload.expect("at least one workload measured");
    eprintln!("checkpoint input: n = {n}, one full build took {first_full:?}");
    let delay = (first_full / 8).max(Duration::from_millis(5));

    // Full builds alternate with interrupted ones. Every build takes a
    // fresh seed, so none is a store hit; the token fires while the
    // interrupted build's grow iterations are in flight.
    let (mut full, mut interrupted) = (Vec::new(), Vec::new());
    for pair in 0..TIMED_PAIRS {
        let started = Instant::now();
        service
            .spanner(&handle, algorithm)
            .seed(3 + 2 * pair)
            .run()
            .expect("full build");
        full.push(started.elapsed());

        let token = CancelToken::new();
        let canceller = {
            let token = token.clone();
            std::thread::spawn(move || {
                std::thread::sleep(delay);
                token.cancel();
            })
        };
        let started = Instant::now();
        let result = service
            .spanner(&handle, algorithm)
            .seed(2 + 2 * pair)
            .cancel(token)
            .run();
        interrupted.push(started.elapsed());
        canceller.join().expect("canceller finishes");
        assert!(
            matches!(result, Err(PipelineError::Cancelled)),
            "expected Cancelled, got {result:?}"
        );
    }
    let (full, elapsed) = (median(full), median(interrupted));
    if full >= Duration::from_millis(200) {
        assert!(
            elapsed < full.mul_f64(0.75),
            "cancelled spanner builds took {elapsed:?} (median), full builds take \
             {full:?} — construction did not stop at a grow-iteration checkpoint"
        );
    } else {
        skipped_timing(n, full);
    }

    // The interrupted builds left nothing behind: the same job re-run
    // without a token completes normally.
    let fresh = service
        .spanner(&handle, algorithm)
        .seed(2)
        .run()
        .expect("uncancelled re-run completes");
    assert!(!fresh.result.edges.is_empty());
}

#[test]
fn one_shot_deadline_stops_a_spanner_build_between_grow_iterations() {
    // The one-shot twin of the mid-spanner cancel test above: the
    // request's own deadline arms the same grow-iteration checkpoints.
    let algorithm = Algorithm::BaswanaSen { k: 8 };

    // Escalate the workload until one full spanner build takes long
    // enough that a mid-build deadline is unambiguous here.
    let mut workload = None;
    for n in CHECKPOINT_SIZES {
        let g = Family::ErdosRenyi { n, avg_deg: 8.0 }.generate(WeightModel::Uniform(1, 8), 0x5B);
        let started = Instant::now();
        SpannerRequest::new(&g, algorithm)
            .seed(1)
            .run()
            .expect("full build");
        let full = started.elapsed();
        workload = Some((g, full));
        if full >= CHECKPOINT_ESCALATION {
            break;
        }
    }
    let (g, first_full) = workload.expect("at least one workload measured");
    let n = g.n();
    eprintln!("checkpoint input: n = {n}, one full build took {first_full:?}");

    // Full builds alternate with deadline-bound ones; a one-shot request
    // has no store, so every full build builds.
    let (mut full, mut interrupted) = (Vec::new(), Vec::new());
    for _ in 0..TIMED_PAIRS {
        let started = Instant::now();
        SpannerRequest::new(&g, algorithm)
            .seed(1)
            .run()
            .expect("full build");
        full.push(started.elapsed());

        let started = Instant::now();
        let result = SpannerRequest::new(&g, algorithm)
            .seed(1)
            .deadline(first_full / 8)
            .run();
        interrupted.push(started.elapsed());
        assert!(
            matches!(result, Err(PipelineError::DeadlineExceeded { .. })),
            "expected DeadlineExceeded, got {result:?}"
        );
    }
    let (full, elapsed) = (median(full), median(interrupted));
    if full >= Duration::from_millis(200) {
        assert!(
            elapsed < full.mul_f64(0.75),
            "deadline-bound spanner builds took {elapsed:?} (median), full builds take \
             {full:?} — construction did not stop at a grow-iteration checkpoint"
        );
    } else {
        skipped_timing(n, full);
    }
}
