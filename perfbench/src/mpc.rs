//! The two MPC workloads, which use the same runtime in opposite
//! regimes:
//!
//! * `mpc-sublinear` — the Theorem 1.1 spanner,
//!   `General(TradeoffParams::log_k(8))` on `Backend::mpc_gamma(0.5)`
//!   (loop executor) over Erdős–Rényi n = 8192, average degree 12:
//!   hundreds of 512-word machines, so per-round and per-machine
//!   overhead dominates;
//! * `mpc-apsp` — the Corollary 1.4 oracle, `spanner_apsp::apsp_request`
//!   on `MpcDeployment::NearLinear` with the in-model gather, over
//!   Erdős–Rényi n = 16384, average degree 12, followed by a
//!   Dijkstra-engine `query_batch` from fixed sampled sources: a few
//!   large machines, so per-record sort and aggregate work dominates.
//!
//! n = 16384 at γ ∈ {0.5, 0.6} fails with `BandwidthExceeded` in the
//! sublinear driver, which is why that workload stays at 8192.

use std::hint::black_box;
use std::time::Instant;

use mpc_runtime::{comm, primitives, Dist, Metrics, MpcConfig, MpcSystem};
use spanner_apsp::apsp_request;
use spanner_core::pipeline::{
    Algorithm, Backend, DistanceOracle, MpcDeployment, PipelineError, RunReport, SpannerRequest,
};
use spanner_core::TradeoffParams;
use spanner_graph::edge::{Distance, EdgeId};
use spanner_graph::shortest_paths::dijkstra;
use spanner_graph::Graph;

use crate::report::{mean, median};
use crate::{
    build_once, check_answers, check_stretch, cycle_builds, derive, er_graph, exact_distances,
    sample_vertices, setup, time, timed_loop, with_threads, Config, EndToEnd, Outcome, Scale,
};

/// Input shape of both MPC workloads.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Vertices.
    pub n: usize,
    /// Average degree.
    pub avg_deg: f64,
    /// Graph instances per run; the timed builds cycle through them.
    pub instances: usize,
    /// Sources of the stretch check (sublinear) or of the query batch
    /// (APSP).
    pub sources: usize,
    /// Targets per query source (APSP).
    pub targets: usize,
    /// Fewest timed operations per run.
    pub min_ops: usize,
}

/// The `mpc-sublinear` shape at a scale.
pub fn sublinear_shape(scale: Scale) -> Shape {
    match scale {
        Scale::Full => Shape {
            n: 8192,
            avg_deg: 12.0,
            instances: 4,
            sources: 64,
            targets: 0,
            min_ops: 4,
        },
        Scale::Smoke => Shape {
            n: 256,
            avg_deg: 8.0,
            instances: 2,
            sources: 8,
            targets: 0,
            min_ops: 2,
        },
    }
}

/// The `mpc-apsp` shape at a scale.
pub fn apsp_shape(scale: Scale) -> Shape {
    match scale {
        Scale::Full => Shape {
            n: 16384,
            avg_deg: 12.0,
            instances: 4,
            sources: 16,
            targets: 256,
            min_ops: 4,
        },
        Scale::Smoke => Shape {
            n: 256,
            avg_deg: 8.0,
            instances: 2,
            sources: 4,
            targets: 16,
            min_ops: 2,
        },
    }
}

const GAMMA: f64 = 0.5;

/// Coin seed of the sublinear spanner request (fixed, like
/// `spanner_seq::BUILD_SEED`, so the work per build does not vary).
pub const SUBLINEAR_SEED: u64 = 1002;

/// Graph instances the sublinear workload draws from (graph seed
/// `derive(i, 1)`). At n = 8192 with 512-word machines, about one
/// Erdős–Rényi graph in ten overflows a machine's receive budget in
/// `iter.best` under `SUBLINEAR_SEED`; these sixteen build with every
/// machine at most 3736 of its 4096 words, so no operation fails.
pub const SUBLINEAR_GRAPHS: [u64; 16] = [0, 1, 2, 3, 4, 5, 6, 7, 9, 12, 13, 14, 15, 16, 17, 18];

/// Coin seed of the APSP request.
pub const APSP_SEED: u64 = 0xA95F;

fn sublinear_graph(shape: &Shape, seed: u64, i: usize) -> Graph {
    let pick = (seed as usize % SUBLINEAR_GRAPHS.len() + i) % SUBLINEAR_GRAPHS.len();
    er_graph(shape.n, shape.avg_deg, derive(SUBLINEAR_GRAPHS[pick], 1))
}

fn apsp_graph(shape: &Shape, seed: u64, i: usize) -> Graph {
    er_graph(shape.n, shape.avg_deg, derive(derive(seed, 1), i as u64))
}

fn sublinear_request(g: &Graph) -> SpannerRequest<'_> {
    SpannerRequest::new(g, Algorithm::General(TradeoffParams::log_k(8)))
        .on(Backend::mpc_gamma(GAMMA))
        .seed(SUBLINEAR_SEED)
}

fn mpc_metrics(report: &RunReport) -> Option<(&Metrics, MpcConfig)> {
    report.stats.mpc().map(|s| (&s.metrics, s.config))
}

/// The `mpc-sublinear` end-to-end run: MPC builds cycling over the
/// run's graph instances. A set-up generates every instance and runs
/// the warm-up build of the first.
pub fn run_sublinear(config: &Config) -> Outcome {
    let shape = sublinear_shape(config.scale);
    let mut out = Outcome::default();
    let (graphs, setup_s) = setup(|| {
        let graphs: Vec<Graph> = (0..shape.instances)
            .map(|i| sublinear_graph(&shape, config.seed, i))
            .collect();
        build_once(&mut out, &sublinear_request(&graphs[0]));
        graphs
    });
    let requests: Vec<SpannerRequest<'_>> = graphs.iter().map(sublinear_request).collect();

    let (reports, times, wall) = cycle_builds(&mut out, &requests, config.seconds, shape.min_ops);
    let Some(Some(report)) = reports.first() else {
        return out;
    };

    // The same request on the sequential reference must give the same
    // edges, bit for bit.
    let g = &graphs[0];
    if let Some(seq) = build_once(&mut out, &requests[0].clone().on(Backend::Sequential)) {
        out.check(seq.result.edges == report.result.edges, || {
            "MPC edges differ from the sequential reference".into()
        });
    }
    let stretch = check_stretch(
        &mut out,
        g,
        &report.result.edges,
        (shape.sources, derive(config.seed, 3)),
        report.plan.stretch_bound,
    );

    let edges: Vec<f64> = reports
        .iter()
        .flatten()
        .map(|r| r.result.edges.len() as f64)
        .collect();
    EndToEnd {
        setup_s,
        build_s: median(&times),
        spanner_edges: mean(&edges),
        stretch_mean: stretch.avg,
        jobs_per_s: times.len() as f64 / wall,
        job_p50_ms: 1e3 * median(&times),
    }
    .record(&mut out);
    if let Some((metrics, cfg)) = mpc_metrics(report) {
        out.meta("mpc_rounds", metrics.rounds.to_string());
        out.meta("comm_words", metrics.total_comm_words.to_string());
        out.meta("max_recv_words", metrics.max_recv_words.to_string());
        out.meta("machines", cfg.num_machines.to_string());
        out.meta("machine_words", cfg.machine_words.to_string());
    }
    out.meta("n", g.n().to_string());
    out.meta("m", g.m().to_string());
    out.meta("instances", graphs.len().to_string());
    out.meta("build_samples", times.len().to_string());
    out.meta("job_p50_samples", times.len().to_string());
    out.meta("stretch_max", stretch.max.to_string());
    out
}

/// The fixed query batch of `mpc-apsp`: `targets` random targets from
/// each of `sources` sampled sources.
fn apsp_queries(shape: &Shape, n: usize, seed: u64) -> Vec<(u32, u32)> {
    let sources = sample_vertices(n, shape.sources, derive(seed, 3));
    let targets = sample_vertices(n, shape.sources * shape.targets, derive(seed, 4));
    targets
        .chunks(shape.targets.max(1))
        .zip(&sources)
        .flat_map(|(ts, &s)| ts.iter().map(move |&t| (s, t)))
        .collect()
}

fn apsp_build(g: &Graph) -> Result<DistanceOracle, PipelineError> {
    apsp_request(g)
        .on(Backend::mpc_deployment(MpcDeployment::NearLinear))
        .seed(APSP_SEED)
        .build()
}

/// The `mpc-apsp` end-to-end run: each operation builds the oracle of
/// the next graph instance and serves the fixed query batch. A set-up
/// generates every instance and runs the warm-up operation on the
/// first.
pub fn run_apsp(config: &Config) -> Outcome {
    let shape = apsp_shape(config.scale);
    let mut out = Outcome::default();
    let queries = apsp_queries(&shape, shape.n, config.seed);
    let (graphs, setup_s) = setup(|| {
        let graphs: Vec<Graph> = (0..shape.instances)
            .map(|i| apsp_graph(&shape, config.seed, i))
            .collect();
        out.attempted += 1;
        match apsp_build(&graphs[0]) {
            Ok(oracle) => {
                black_box(oracle.query_batch(&queries));
            }
            Err(e) => {
                out.failed += 1;
                out.check(false, || format!("oracle build failed: {e}"));
            }
        }
        graphs
    });

    let mut builds = Vec::new();
    let mut batches = Vec::new();
    let mut first: Vec<Option<(DistanceOracle, Vec<Distance>)>> = vec![None; graphs.len()];
    let mut next = 0;
    let (times, wall) = timed_loop(config.seconds, shape.min_ops, || {
        let i = next % graphs.len();
        next += 1;
        let started = Instant::now();
        let (built, build_s) = time(|| apsp_build(&graphs[i]));
        out.attempted += 1;
        match built {
            Ok(oracle) => {
                let (answers, batch_s) = time(|| oracle.query_batch(&queries));
                builds.push(build_s);
                batches.push(batch_s);
                out.check(oracle.stats().gather_rounds == Some(1), || {
                    format!(
                        "the Section 7 gather took {:?} rounds, expected 1",
                        oracle.stats().gather_rounds
                    )
                });
                match &first[i] {
                    None => first[i] = Some((oracle, answers)),
                    Some((o, a)) => out.check(
                        o.spanner_edges() == oracle.spanner_edges() && *a == answers,
                        || "repeated oracle builds of one request differ".into(),
                    ),
                }
            }
            Err(e) => {
                out.failed += 1;
                out.check(false, || format!("oracle build failed: {e}"));
            }
        }
        started.elapsed()
    });

    let mut edges = Vec::new();
    let mut ratios = Vec::new();
    let mut stretch_max = 1.0f64;
    for (g, built) in graphs.iter().zip(&first) {
        let Some((oracle, answers)) = built else {
            continue;
        };
        let exact = exact_distances(g, &queries);
        let check = check_answers(&exact, answers, oracle.stretch_bound());
        out.check(check.violations == 0, || {
            format!(
                "{} of {} sampled answers outside [d_G, {}·d_G]",
                check.violations,
                queries.len(),
                oracle.stretch_bound()
            )
        });
        edges.push(oracle.spanner_edges().len() as f64);
        ratios.push(check.mean_ratio);
        stretch_max = stretch_max.max(check.max_ratio);
    }
    let Some(Some((oracle, _))) = first.first() else {
        return out;
    };

    EndToEnd {
        setup_s,
        build_s: median(&builds),
        spanner_edges: mean(&edges),
        stretch_mean: median(&ratios),
        jobs_per_s: times.len() as f64 / wall,
        job_p50_ms: 1e3 * median(&times),
    }
    .record(&mut out);
    if let Some(stats) = oracle.stats().execution.mpc() {
        out.meta("mpc_rounds", stats.metrics.rounds.to_string());
        out.meta("comm_words", stats.metrics.total_comm_words.to_string());
        out.meta("machines", stats.config.num_machines.to_string());
    }
    out.meta(
        "queries_per_s",
        (queries.len() as f64 / median(&batches)).to_string(),
    );
    out.meta("n", shape.n.to_string());
    out.meta("instances", graphs.len().to_string());
    out.meta("build_samples", builds.len().to_string());
    out.meta("job_p50_samples", times.len().to_string());
    out.meta("queries_per_batch", queries.len().to_string());
    out.meta("stretch_max", stretch_max.to_string());
    out
}

/// Times `sort_by_key` and `aggregate_by_key` over the host graph's edge
/// records `(u, v, w, id)` under `cfg`, and the gather of `spanner` edge
/// ids onto machine 0 when `gather` is set. Returns
/// `(sort_s, aggregate_s, gather_s)`.
fn primitive_probe(
    g: &Graph,
    cfg: MpcConfig,
    spanner: &[EdgeId],
    gather: bool,
) -> Result<(f64, f64, f64), mpc_runtime::MpcError> {
    let records: Vec<(u64, u64, u64, u64)> = g
        .edges()
        .iter()
        .enumerate()
        .map(|(id, e)| (e.u as u64, e.v as u64, e.w, id as u64))
        .collect();
    let mut sys = MpcSystem::new(cfg);
    let dist = Dist::distribute(&mut sys, records.clone())?;
    let (sorted, sort_s) =
        time(|| primitives::sort_by_key(&mut sys, dist, "bench.sort", |r| (r.2, r.3)));
    sorted?;
    let dist = Dist::distribute(&mut sys, records)?;
    let (aggregated, aggregate_s) = time(|| {
        primitives::aggregate_by_key(
            &mut sys,
            dist,
            "bench.aggregate",
            |r| r.0,
            |r| r.2,
            |a, b| *a.min(b),
        )
    });
    aggregated?;
    let mut gather_s = 0.0;
    if gather {
        let ids: Vec<u64> = spanner.iter().map(|&id| id as u64).collect();
        let dist = Dist::distribute(&mut sys, ids)?;
        let (gathered, t) = time(|| comm::gather_to_machine(&mut sys, dist, 0, "bench.gather"));
        gathered?;
        gather_s = t;
    }
    Ok((sort_s, aggregate_s, gather_s))
}

/// The MPC driver's primitive labels whose rounds the table reports;
/// any other label lands in `other`. `mpc-apsp` adds `apsp.collect`,
/// the Section 7 gather.
pub const DRIVER_OPS: &[&str] = &[
    "contract",
    "contract.labels",
    "finish.dedup",
    "iter.b6",
    "iter.best",
    "iter.bestjoin",
    "iter.join_o",
    "iter.join_v",
    "iter.kill",
    "iter.labels",
    "iter.minpair",
    "iter.rebuild",
    "p2.join",
    "p2.min",
];

fn mpc_layer_metrics(
    out: &mut Outcome,
    workload: &str,
    metrics: &Metrics,
    cfg: MpcConfig,
    build_s: f64,
    ops: &[&str],
) {
    out.metric(
        format!("mpc.wall_per_round_ms.{workload}"),
        1e3 * build_s / metrics.rounds.max(1) as f64,
        "ms",
    );
    out.metric(
        format!("mpc.rounds.{workload}"),
        metrics.rounds as f64,
        "count",
    );
    out.metric(
        format!("mpc.comm_words.{workload}"),
        metrics.total_comm_words as f64,
        "count",
    );
    out.metric(
        format!("mpc.machines.{workload}"),
        cfg.num_machines as f64,
        "count",
    );
    out.metric(
        format!("mpc.peak_machine_words.{workload}"),
        metrics.peak_machine_words as f64,
        "count",
    );
    out.metric(
        format!("mpc.max_recv_words.{workload}"),
        metrics.max_recv_words as f64,
        "count",
    );
    let by_op: Vec<String> = metrics
        .rounds_by_op
        .iter()
        .map(|(op, rounds)| format!("{}: {rounds}", crate::report::json_string(op)))
        .collect();
    out.meta(
        format!("mpc.rounds_by_op.{workload}"),
        format!("{{{}}}", by_op.join(", ")),
    );
    let mut other = 0;
    for (op, &rounds) in &metrics.rounds_by_op {
        if !ops.contains(op) {
            other += rounds;
        }
    }
    for op in ops {
        let rounds = metrics.rounds_by_op.get(op).copied().unwrap_or(0);
        out.metric(
            format!("mpc.rounds_by_op.{workload}.{op}"),
            rounds as f64,
            "count",
        );
    }
    out.metric(
        format!("mpc.rounds_by_op.{workload}.other"),
        other as f64,
        "count",
    );
}

/// One warm-up build, then `spanner_seq::TRACE_ROUNDS` interleaved
/// rounds with one build per entry of `threads` (a pool cap). Returns
/// the warm-up's output and each entry's wall times; every build must
/// agree with the warm-up under `same`.
fn trace_builds<R>(
    out: &mut Outcome,
    threads: &[usize],
    build: impl Fn() -> Result<R, PipelineError>,
    same: impl Fn(&R, &R) -> bool,
) -> Option<(R, Vec<Vec<f64>>)> {
    out.attempted += 1;
    let first = match build() {
        Ok(r) => r,
        Err(e) => {
            out.failed += 1;
            out.check(false, || format!("mpc build failed: {e}"));
            return None;
        }
    };
    let mut times = vec![Vec::new(); threads.len()];
    for _ in 0..crate::spanner_seq::TRACE_ROUNDS {
        for (slot, &cap) in threads.iter().enumerate() {
            let (built, t) = time(|| with_threads(cap, &build));
            times[slot].push(t);
            out.attempted += 1;
            match built {
                Ok(r) => out.check(same(&first, &r), || {
                    format!("a {cap}-thread MPC build differs from the first build")
                }),
                Err(e) => {
                    out.failed += 1;
                    out.check(false, || format!("mpc build failed: {e}"));
                }
            }
        }
    }
    Some((first, times))
}

/// Medians over three runs of [`primitive_probe`].
fn probe_medians(
    out: &mut Outcome,
    g: &Graph,
    cfg: MpcConfig,
    spanner: &[EdgeId],
    gather: bool,
) -> Option<(f64, f64, f64)> {
    let mut runs = Vec::new();
    for _ in 0..3 {
        out.attempted += 1;
        match primitive_probe(g, cfg, spanner, gather) {
            Ok(r) => runs.push(r),
            Err(e) => {
                out.failed += 1;
                out.check(false, || format!("primitive probe failed: {e}"));
                return None;
            }
        }
    }
    let med = |f: fn(&(f64, f64, f64)) -> f64| median(&runs.iter().map(f).collect::<Vec<_>>());
    Some((med(|r| r.0), med(|r| r.1), med(|r| r.2)))
}

/// The traced table of `mpc-sublinear`: MPC counts by primitive, wall
/// time per round, the sort/aggregate probes under the workload's
/// deployment and the 1-vs-2-thread row.
pub fn trace_sublinear(config: &Config) -> Outcome {
    let shape = sublinear_shape(config.scale);
    let mut out = Outcome::default();
    let g = sublinear_graph(&shape, config.seed, 0);
    let request = sublinear_request(&g);
    let Some((report, times)) = trace_builds(
        &mut out,
        &[2, 1],
        || request.run(),
        |a, b| a.result.edges == b.result.edges,
    ) else {
        return out;
    };
    let (two_s, one_s) = (median(&times[0]), median(&times[1]));
    let Some((metrics, cfg)) = mpc_metrics(&report) else {
        out.check(false, || "the MPC backend reported no MPC stats".into());
        return out;
    };
    mpc_layer_metrics(&mut out, "mpc-sublinear", metrics, cfg, two_s, DRIVER_OPS);
    if let Some((sort_s, aggregate_s, _)) = probe_medians(&mut out, &g, cfg, &[], false) {
        out.metric("mpc.sort_s.mpc-sublinear", sort_s, "s");
        out.metric("mpc.aggregate_s.mpc-sublinear", aggregate_s, "s");
    }
    out.metric("rayon.speedup_2v1.mpc-sublinear", one_s / two_s, "ratio");
    out.meta("mpc_sublinear.build_2t_s", format!("{:?}", times[0]));
    out.meta("mpc_sublinear.build_1t_s", format!("{:?}", times[1]));
    out
}

/// The traced table of `mpc-apsp`: MPC counts, the gather, the
/// sort/aggregate probes, the graph layer (`edge_subgraph`, Dijkstra)
/// and the Dijkstra query batch.
pub fn trace_apsp(config: &Config) -> Outcome {
    let shape = apsp_shape(config.scale);
    let mut out = Outcome::default();
    let g = apsp_graph(&shape, config.seed, 0);
    let queries = apsp_queries(&shape, g.n(), config.seed);
    let Some((oracle, times)) = trace_builds(
        &mut out,
        &[2],
        || apsp_build(&g),
        |a, b| a.spanner_edges() == b.spanner_edges(),
    ) else {
        return out;
    };
    let build_s = median(&times[0]);
    let gather_rounds = oracle.stats().gather_rounds.unwrap_or(0);
    out.check(gather_rounds == 1, || {
        format!("the Section 7 gather took {gather_rounds} rounds, expected 1")
    });
    let Some(stats) = oracle.stats().execution.mpc() else {
        out.check(false, || "the MPC backend reported no MPC stats".into());
        return out;
    };
    let ops = [&["apsp.collect"], DRIVER_OPS].concat();
    mpc_layer_metrics(
        &mut out,
        "mpc-apsp",
        &stats.metrics,
        stats.config,
        build_s,
        &ops,
    );
    if let Some((sort_s, aggregate_s, gather_s)) =
        probe_medians(&mut out, &g, stats.config, oracle.spanner_edges(), true)
    {
        out.metric("mpc.sort_s.mpc-apsp", sort_s, "s");
        out.metric("mpc.aggregate_s.mpc-apsp", aggregate_s, "s");
        out.metric("mpc.gather_s", gather_s, "s");
    }
    out.metric("mpc.gather_rounds", gather_rounds as f64, "count");

    let subgraph: Vec<f64> = (0..5)
        .map(|_| time(|| g.edge_subgraph(oracle.spanner_edges())).1)
        .collect();
    out.metric("graph.edge_subgraph_s", median(&subgraph), "s");
    let sources = sample_vertices(g.n(), 8, derive(config.seed, 5));
    let dijkstras: Vec<f64> = sources
        .iter()
        .map(|&s| time(|| dijkstra(&g, s)).1)
        .collect();
    out.metric("graph.dijkstra_ms", 1e3 * median(&dijkstras), "ms");
    let batches: Vec<f64> = (0..3)
        .map(|_| time(|| oracle.query_batch(&queries)).1)
        .collect();
    out.metric("distance.dijkstra_batch_s", median(&batches), "s");
    out.metric(
        "distance.queries_per_s",
        queries.len() as f64 / median(&batches),
        "1/s",
    );
    out
}
