//! `serve-mixed`: two closed-loop clients sharing one handle table send
//! work through `JobQueue` (default two workers) over
//! `ShardedService::new(2)` with the default 256 MiB stores.
//!
//! Set-up registers eight Erdős–Rényi graphs (n = 4096, average degree
//! 12) and prebuilds their `General(TradeoffParams::new(8, 2))` oracles
//! with `QueryEngine::Sketches { levels: 3 }`. Each client's seeded mix:
//!
//! * ≈90% oracle jobs, each followed by a 256-query `query_batch` —
//!   store hits, so p50 measures the queue handoff, the store lookup
//!   and the rayon-dispatched batch;
//! * ≈8% spanner jobs at fresh seeds — store misses that run an engine
//!   build;
//! * ≈2% `register_keyed` re-registrations of a mutated graph — writes
//!   that invalidate the graph's artifacts, so the next oracle jobs on
//!   that graph rebuild (engine plus Thorup–Zwick), which is what p99
//!   measures.

use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use rand::prelude::*;
use rayon::prelude::*;
use spanner_core::pipeline::{
    Algorithm, ClientId, DistanceOracle, DistanceRequest, DistanceSketches, GraphHandle, JobId,
    JobQueue, JobSpec, PipelineError, QueryEngine, ServiceStats, ShardedService, SpannerRequest,
};
use spanner_core::TradeoffParams;
use spanner_graph::edge::{Distance, Edge, EdgeId};
use spanner_graph::Graph;

use crate::report::{beyond, median, percentile};
use crate::{
    check_answers, derive, er_graph, exact_distances, setup, time, Config, EndToEnd, Outcome, Scale,
};

/// Input shape.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Registered graphs.
    pub graphs: usize,
    /// Vertices per graph.
    pub n: usize,
    /// Average degree.
    pub avg_deg: f64,
    /// Queries per oracle job.
    pub batch: usize,
    /// Fewest operations per run (p99 needs ≥ 1000 for ten samples
    /// beyond it).
    pub min_jobs: usize,
    /// Every how many oracle (spanner) jobs a client keeps the answer
    /// for the post-run check.
    pub sample_every: usize,
}

/// Closed-loop client threads.
const CLIENTS: u64 = 2;

/// Thorup–Zwick levels of the oracles.
const LEVELS: u32 = 3;

/// Each client's operations come in shuffled blocks of this many oracle
/// jobs, spanner jobs and writes, so the mix is exact rather than
/// binomial.
const BLOCK: [usize; 3] = [45, 4, 1];

/// The shape at a scale.
pub fn shape(scale: Scale) -> Shape {
    match scale {
        Scale::Full => Shape {
            graphs: 8,
            n: 4096,
            avg_deg: 12.0,
            batch: 256,
            min_jobs: 1000,
            sample_every: 100,
        },
        Scale::Smoke => Shape {
            graphs: 3,
            n: 256,
            avg_deg: 6.0,
            batch: 16,
            min_jobs: 60,
            sample_every: 10,
        },
    }
}

fn algorithm() -> Algorithm {
    Algorithm::General(TradeoffParams::new(8, 2))
}

/// Coin seed of the prebuilt oracles (fixed, so their sizes vary only
/// with the graphs).
pub const ORACLE_SEED: u64 = 0x0AC1E;

fn engine() -> QueryEngine {
    QueryEngine::Sketches { levels: LEVELS }
}

/// The serving tier of one run.
pub struct Tier {
    service: Arc<ShardedService>,
    queue: JobQueue,
    /// The shared handle table: the current registration of each graph.
    slots: Vec<Mutex<GraphHandle>>,
    /// Registry key of each slot (its first graph's fingerprint).
    keys: Vec<u64>,
    /// Σ spanner edges of the prebuilt oracles.
    prebuilt_edges: usize,
}

/// Generates and registers the graphs and prebuilds their oracles (the
/// warm-up of this workload).
pub fn build_tier(shape: &Shape, seed: u64) -> Result<Tier, PipelineError> {
    let service = Arc::new(ShardedService::new(2));
    let queue = JobQueue::with_defaults(Arc::clone(&service));
    let handles: Vec<GraphHandle> = (0..shape.graphs as u64)
        .map(|i| {
            let g = er_graph(shape.n, shape.avg_deg, derive(seed, 100 + i));
            service.register_keyed(g.fingerprint(), g)
        })
        .collect();
    let built: Vec<Result<usize, PipelineError>> = handles
        .par_iter()
        .map(|h| {
            service
                .oracle(h, algorithm())
                .seed(ORACLE_SEED)
                .engine(engine())
                .build()
                .map(|o| o.spanner_edges().len())
        })
        .collect();
    let edges = built.into_iter().collect::<Result<Vec<_>, _>>()?;
    Ok(Tier {
        keys: handles.iter().map(GraphHandle::fingerprint).collect(),
        slots: handles.into_iter().map(Mutex::new).collect(),
        service,
        queue,
        prebuilt_edges: edges.iter().sum(),
    })
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Oracle,
    Spanner,
    Write,
}

#[derive(Debug, Clone, Copy)]
struct Op {
    kind: Kind,
    /// Submit (or write call) to result, query batch included.
    latency_s: f64,
    /// Submit to `wait` returning (queue jobs only).
    resolved_s: f64,
    ok: bool,
}

/// A kept answer, checked after the run against a direct request at
/// the same seed and graph version.
enum Sample {
    Oracle {
        graph: Arc<Graph>,
        pairs: Vec<(u32, u32)>,
        answers: Vec<Distance>,
    },
    Spanner {
        graph: Arc<Graph>,
        seed: u64,
        edges: Vec<EdgeId>,
    },
}

#[derive(Default)]
struct ClientLog {
    ops: Vec<Op>,
    ids: Vec<JobId>,
    submit_s: Vec<f64>,
    samples: Vec<Sample>,
    /// `(slot, version)` of every oracle job.
    oracle_keys: Vec<(usize, u64)>,
    errors: Vec<String>,
}

/// Changes one edge's weight to another power of two: different
/// content under the same registry key.
fn mutate(g: &Graph, rng: &mut StdRng) -> Graph {
    let pick = rng.gen_range(0..g.m());
    let edges = g.edges().iter().enumerate().map(|(i, e)| {
        if i == pick {
            Edge::new(e.u, e.v, if e.w >= 128 { 1 } else { e.w * 2 })
        } else {
            *e
        }
    });
    Graph::from_edges(g.n(), edges.collect::<Vec<_>>())
}

fn client(
    tier: &Tier,
    shape: &Shape,
    seed: u64,
    client: u64,
    done: &AtomicUsize,
    until: (Instant, f64, usize),
    traced: bool,
) -> ClientLog {
    let (started, seconds, min_jobs) = until;
    let mut rng = StdRng::seed_from_u64(derive(seed, 1000 + client));
    let mut log = ClientLog::default();
    let (mut oracle_jobs, mut spanner_jobs) = (0usize, 0usize);
    let mut block: Vec<Kind> = Vec::new();
    while started.elapsed().as_secs_f64() < seconds || done.load(Ordering::Relaxed) < min_jobs {
        if block.is_empty() {
            let [oracles, spanners, writes] = BLOCK;
            block.extend(std::iter::repeat_n(Kind::Oracle, oracles));
            block.extend(std::iter::repeat_n(Kind::Spanner, spanners));
            block.extend(std::iter::repeat_n(Kind::Write, writes));
            block.shuffle(&mut rng);
        }
        let next = block.pop().expect("refilled above");
        let slot = rng.gen_range(0..shape.graphs);
        let op = if next != Kind::Write {
            let handle = tier.slots[slot].lock().expect("slot lock").clone();
            let oracle = next == Kind::Oracle;
            let (spec, pairs, job_seed) = if oracle {
                let n = shape.n as u32;
                let pairs: Vec<(u32, u32)> = (0..shape.batch)
                    .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
                    .collect();
                let spec = JobSpec::oracle(&handle, algorithm())
                    .seed(ORACLE_SEED)
                    .engine(engine());
                (spec, pairs, ORACLE_SEED)
            } else {
                let job_seed = derive(seed, (client << 32) | spanner_jobs as u64);
                (
                    JobSpec::spanner(&handle, algorithm()).seed(job_seed),
                    Vec::new(),
                    job_seed,
                )
            };
            let t0 = Instant::now();
            let id = tier.queue.submit(spec.client(ClientId(client)));
            if traced {
                log.submit_s.push(t0.elapsed().as_secs_f64());
            }
            log.ids.push(id);
            let output = tier.queue.wait(id);
            let resolved_s = t0.elapsed().as_secs_f64();
            let (kind, ok) = if oracle {
                log.oracle_keys.push((slot, handle.version()));
                oracle_jobs += 1;
                match output.as_ref().map(|o| o.oracle()) {
                    Ok(Some(o)) => {
                        let answers = o.query_batch(&pairs);
                        if oracle_jobs % shape.sample_every == 1 {
                            log.samples.push(Sample::Oracle {
                                graph: handle.graph_arc(),
                                pairs,
                                answers,
                            });
                        }
                        (Kind::Oracle, true)
                    }
                    _ => (Kind::Oracle, false),
                }
            } else {
                spanner_jobs += 1;
                match output.as_ref().map(|o| o.spanner()) {
                    Ok(Some(report)) => {
                        if spanner_jobs % (shape.sample_every / 10).max(1) == 1 {
                            log.samples.push(Sample::Spanner {
                                graph: handle.graph_arc(),
                                seed: job_seed,
                                edges: report.result.edges.clone(),
                            });
                        }
                        (Kind::Spanner, true)
                    }
                    _ => (Kind::Spanner, false),
                }
            };
            if let Err(e) = &output {
                log.errors.push(format!("{kind:?} job failed: {e}"));
            }
            Op {
                kind,
                latency_s: t0.elapsed().as_secs_f64(),
                resolved_s,
                ok,
            }
        } else {
            let mut current = tier.slots[slot].lock().expect("slot lock");
            let mutated = mutate(current.graph(), &mut rng);
            let t0 = Instant::now();
            *current = tier.service.register_keyed(tier.keys[slot], mutated);
            let latency_s = t0.elapsed().as_secs_f64();
            Op {
                kind: Kind::Write,
                latency_s,
                resolved_s: latency_s,
                ok: true,
            }
        };
        log.ops.push(op);
        done.fetch_add(1, Ordering::Relaxed);
    }
    log
}

/// One closed-loop run over a fresh tier.
struct Served {
    logs: Vec<ClientLog>,
    wall_s: f64,
    before: ServiceStats,
    after: ServiceStats,
    shards_before: Vec<ServiceStats>,
    shards_after: Vec<ServiceStats>,
}

impl Served {
    fn ops(&self) -> impl Iterator<Item = &Op> {
        self.logs.iter().flat_map(|l| &l.ops)
    }

    fn latencies(&self, kind: Option<Kind>) -> Vec<f64> {
        self.ops()
            .filter(|op| kind.is_none_or(|k| op.kind == k))
            .map(|op| op.latency_s)
            .collect()
    }

    fn completed(&self) -> usize {
        self.ops().filter(|op| op.ok).count()
    }
}

fn serve(
    tier: &Tier,
    shape: &Shape,
    seed: u64,
    (seconds, min_jobs): (f64, usize),
    traced: bool,
) -> Served {
    let before = tier.service.stats();
    let shards_before = tier.service.per_shard_stats();
    let done = AtomicUsize::new(0);
    let started = Instant::now();
    let logs = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let done = &done;
                scope.spawn(move || {
                    client(
                        tier,
                        shape,
                        seed,
                        c,
                        done,
                        (started, seconds, min_jobs),
                        traced,
                    )
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread panicked"))
            .collect::<Vec<_>>()
    });
    let wall_s = started.elapsed().as_secs_f64();
    tier.queue.drain();
    Served {
        logs,
        wall_s,
        before,
        after: tier.service.stats(),
        shards_before,
        shards_after: tier.service.per_shard_stats(),
    }
}

/// The post-run checks: every job resolved exactly once, and the kept
/// answers match direct requests at the same seed and graph version.
/// Returns the mean and the largest `d̂/d_G` over the kept oracle
/// answers.
fn verify(tier: &Tier, served: &Served, out: &mut Outcome) -> (f64, f64) {
    let ids: Vec<JobId> = served
        .logs
        .iter()
        .flat_map(|l| l.ids.iter().copied())
        .collect();
    let orders: BTreeSet<u64> = ids
        .iter()
        .filter_map(|&id| tier.queue.resolution_order(id))
        .collect();
    let stats = tier.queue.stats();
    out.check(
        orders.len() == ids.len()
            && stats.submitted == ids.len() as u64
            && stats.completed + stats.failed == stats.submitted,
        || {
            format!(
                "jobs did not resolve exactly once: {} submitted, {} distinct resolutions, \
                 queue says {} submitted / {} completed / {} failed",
                ids.len(),
                orders.len(),
                stats.submitted,
                stats.completed,
                stats.failed
            )
        },
    );
    for log in &served.logs {
        for e in &log.errors {
            out.check(false, || e.clone());
        }
    }

    let mut ratios = Vec::new();
    let mut stretch_max = 1.0f64;
    // One direct build per graph version, shared by its samples.
    let mut direct: HashMap<*const Graph, Result<DistanceOracle, PipelineError>> = HashMap::new();
    for sample in served.logs.iter().flat_map(|l| &l.samples) {
        out.attempted += 1;
        match sample {
            Sample::Oracle {
                graph,
                pairs,
                answers,
            } => {
                let built = direct.entry(Arc::as_ptr(graph)).or_insert_with(|| {
                    DistanceRequest::new(graph, algorithm())
                        .seed(ORACLE_SEED)
                        .engine(engine())
                        .build()
                });
                match built {
                    Ok(oracle) => {
                        out.check(oracle.query_batch(pairs) == *answers, || {
                            "a served oracle answer differs from a direct DistanceRequest".into()
                        });
                        let exact = exact_distances(graph, pairs);
                        let check = check_answers(&exact, answers, oracle.stretch_bound());
                        ratios.push(check.mean_ratio);
                        stretch_max = stretch_max.max(check.max_ratio);
                        out.check(check.violations == 0, || {
                            format!(
                                "{} served oracle answers outside [d_G, bound·d_G]",
                                check.violations
                            )
                        });
                    }
                    Err(e) => {
                        out.failed += 1;
                        out.check(false, || format!("direct DistanceRequest failed: {e}"));
                    }
                }
            }
            Sample::Spanner { graph, seed, edges } => {
                match SpannerRequest::new(graph, algorithm()).seed(*seed).run() {
                    Ok(report) => out.check(report.result.edges == *edges, || {
                        "a served spanner differs from a direct SpannerRequest".into()
                    }),
                    Err(e) => {
                        out.failed += 1;
                        out.check(false, || format!("direct SpannerRequest failed: {e}"));
                    }
                }
            }
        }
    }
    let mean = ratios.iter().sum::<f64>() / ratios.len().max(1) as f64;
    (mean, stretch_max)
}

fn count_failures(served: &Served, out: &mut Outcome) {
    let ops = served.ops().count() as u64;
    let failed = served.ops().filter(|op| !op.ok).count() as u64;
    out.attempted += ops;
    out.failed += failed;
    out.check(failed == 0, || {
        format!("{failed} of {ops} served operations failed")
    });
}

/// The `serve-mixed` end-to-end run.
pub fn run(config: &Config) -> Outcome {
    let shape = shape(config.scale);
    let mut out = Outcome::default();
    let (tier, setup_s) = setup(|| build_tier(&shape, config.seed));
    let tier = match tier {
        Ok(tier) => tier,
        Err(e) => {
            out.check(false, || format!("set-up failed: {e}"));
            return out;
        }
    };
    let served = serve(
        &tier,
        &shape,
        config.seed,
        (config.seconds, shape.min_jobs),
        false,
    );
    count_failures(&served, &mut out);
    let (stretch_mean, stretch_max) = verify(&tier, &served, &mut out);

    let all = served.latencies(None);
    let spanner = served.latencies(Some(Kind::Spanner));
    out.check(!spanner.is_empty(), || "no spanner job ran".into());
    EndToEnd {
        setup_s,
        build_s: median(&spanner),
        spanner_edges: tier.prebuilt_edges as f64,
        stretch_mean,
        jobs_per_s: served.completed() as f64 / served.wall_s,
        job_p50_ms: 1e3 * median(&all),
    }
    .record(&mut out);
    let count = |k| served.ops().filter(|op| op.kind == k).count();
    out.meta("jobs", all.len().to_string());
    out.meta("job_p50_samples", all.len().to_string());
    out.meta("job_p99_ms", (1e3 * percentile(&all, 0.99)).to_string());
    out.meta("job_p99_samples_beyond", beyond(&all, 0.99).to_string());
    out.meta("build_samples", spanner.len().to_string());
    out.meta("oracle_jobs", count(Kind::Oracle).to_string());
    out.meta("spanner_jobs", count(Kind::Spanner).to_string());
    out.meta("writes", count(Kind::Write).to_string());
    out.meta("hits", (served.after.hits - served.before.hits).to_string());
    out.meta(
        "misses",
        (served.after.misses - served.before.misses).to_string(),
    );
    out.meta("evictions", served.after.evictions.to_string());
    out.meta("stretch_max", stretch_max.to_string());
    out
}

/// The traced table of `serve-mixed`: service, queue, shard and
/// distance-layer counts and times from an instrumented loop of
/// `min_jobs` operations on a fresh tier.
pub fn trace(config: &Config) -> Outcome {
    let shape = shape(config.scale);
    let mut out = Outcome::default();
    let tier = match build_tier(&shape, config.seed) {
        Ok(tier) => tier,
        Err(e) => {
            out.check(false, || format!("set-up failed: {e}"));
            return out;
        }
    };
    let served = serve(&tier, &shape, config.seed, (0.0, shape.min_jobs), true);
    count_failures(&served, &mut out);
    verify(&tier, &served, &mut out);

    let (before, after) = (served.before, served.after);
    let hits = after.hits - before.hits;
    let misses = after.misses - before.misses;
    let executed = (after.completed + after.failed) - (before.completed + before.failed);
    let busy_s = (after.busy - before.busy).as_secs_f64();
    out.metric("service.hits", hits as f64, "count");
    out.metric("service.misses", misses as f64, "count");
    out.metric(
        "service.hit_rate",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
    );
    out.metric(
        "service.invalidations",
        (after.invalidations - before.invalidations) as f64,
        "count",
    );
    out.metric("service.evictions", after.evictions as f64, "count");
    out.metric(
        "service.store_mb",
        after.store_used_bytes as f64 / (1u64 << 20) as f64,
        "MiB",
    );
    out.metric(
        "service.exec_ms_mean",
        1e3 * busy_s / executed.max(1) as f64,
        "ms",
    );
    // Oracle misses beyond one build per oracle key requested after a
    // write: concurrent misses on one key each build.
    let spanner_jobs = served.latencies(Some(Kind::Spanner)).len() as u64;
    let new_keys: BTreeSet<(usize, u64)> = served
        .logs
        .iter()
        .flat_map(|l| l.oracle_keys.iter().copied())
        .filter(|&(_, version)| version > 1)
        .collect();
    out.metric(
        "service.dup_builds",
        misses as f64 - spanner_jobs as f64 - new_keys.len() as f64,
        "count",
    );

    let queue_resolved: Vec<f64> = served
        .ops()
        .filter(|op| op.kind != Kind::Write)
        .map(|op| op.resolved_s)
        .collect();
    let submits: Vec<f64> = served
        .logs
        .iter()
        .flat_map(|l| l.submit_s.iter().copied())
        .collect();
    out.metric("queue.submit_us", 1e6 * median(&submits), "us");
    out.metric(
        "queue.wait_ms_mean",
        1e3 * (queue_resolved.iter().sum::<f64>() - busy_s) / queue_resolved.len().max(1) as f64,
        "ms",
    );
    out.metric(
        "queue.peak_queued",
        tier.queue.stats().peak_queued as f64,
        "count",
    );
    let all = served.latencies(None);
    out.metric("queue.job_p99_ms", 1e3 * percentile(&all, 0.99), "ms");
    out.meta(
        "serve.job_p99_samples_beyond",
        beyond(&all, 0.99).to_string(),
    );
    out.meta("serve.jobs", all.len().to_string());

    let per_shard: Vec<f64> = served
        .shards_after
        .iter()
        .zip(&served.shards_before)
        .map(|(a, b)| ((a.hits + a.misses) - (b.hits + b.misses)) as f64)
        .collect();
    let mean = per_shard.iter().sum::<f64>() / per_shard.len().max(1) as f64;
    let max = per_shard.iter().copied().fold(0.0, f64::max);
    out.metric(
        "shard.imbalance",
        if mean > 0.0 { max / mean } else { 1.0 },
        "ratio",
    );

    // Warm store hit outside the queue, then the distance layer on the
    // same oracle.
    let handle = tier.slots[0].lock().expect("slot lock").clone();
    let job = tier
        .service
        .oracle(&handle, algorithm())
        .seed(ORACLE_SEED)
        .engine(engine());
    out.attempted += 1;
    match job.build() {
        Ok(oracle) => {
            let hit_times: Vec<f64> = (0..200).map(|_| time(|| job.build()).1).collect();
            out.metric("service.hit_us", 1e6 * median(&hit_times), "us");
            let tz: Vec<(DistanceSketches, f64)> = (0..3)
                .map(|_| {
                    time(|| DistanceSketches::preprocess(oracle.spanner(), LEVELS, ORACLE_SEED))
                })
                .collect();
            out.metric(
                "distance.tz_preprocess_s",
                median(&tz.iter().map(|t| t.1).collect::<Vec<_>>()),
                "s",
            );
            out.metric(
                "distance.tz_entries",
                tz[0].0.total_entries() as f64,
                "count",
            );
            let mut rng = StdRng::seed_from_u64(derive(config.seed, 7));
            let n = shape.n as u32;
            let pairs: Vec<(u32, u32)> = (0..shape.batch)
                .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
                .collect();
            let batches: Vec<f64> = (0..200)
                .map(|_| time(|| oracle.query_batch(&pairs)).1)
                .collect();
            out.metric("distance.sketch_batch_us", 1e6 * median(&batches), "us");
        }
        Err(e) => {
            out.failed += 1;
            out.check(false, || format!("warm oracle job failed: {e}"));
        }
    }
    out
}
