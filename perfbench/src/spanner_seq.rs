//! `spanner-seq`: Theorem 1.1's general schedule
//! (`General(TradeoffParams::log_k(16))`) on `Backend::Sequential` over
//! a connected Erdős–Rényi graph with n = 2¹⁷ and average degree 32
//! (m ≈ 2.23M). The engine's grow steps are most of the build; the MPC
//! runtime, queue and store sit idle.
//!
//! The traced table replays `run_general`'s epoch/iteration loop through
//! the public [`Engine`] so each engine step gets its own span, and
//! asserts the replay's edges are bit-identical to the pipeline's.

use spanner_core::engine::Engine;
use spanner_core::pipeline::{Algorithm, SpannerRequest};
use spanner_core::{SpannerResult, TradeoffParams};
use spanner_graph::Graph;

use crate::report::{mean, median};
use crate::{
    build_once, check_stretch, cycle_builds, derive, er_graph, setup, time, with_threads, Config,
    EndToEnd, Outcome, Scale,
};

/// Input shape.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Vertices.
    pub n: usize,
    /// Average degree of the Erdős–Rényi part.
    pub avg_deg: f64,
    /// Graph instances per run; the timed builds cycle through them.
    pub instances: usize,
    /// Sources of the stretch check.
    pub check_sources: usize,
    /// Fewest timed builds per run.
    pub min_builds: usize,
}

/// The shape at a scale.
pub fn shape(scale: Scale) -> Shape {
    match scale {
        Scale::Full => Shape {
            n: 1 << 17,
            avg_deg: 32.0,
            instances: 3,
            check_sources: 16,
            min_builds: 2,
        },
        Scale::Smoke => Shape {
            n: 1 << 9,
            avg_deg: 8.0,
            instances: 2,
            check_sources: 4,
            min_builds: 2,
        },
    }
}

/// Size exponent of `TradeoffParams::log_k`.
const K: u32 = 16;

/// The request's coin seed. It is fixed so that every run samples the
/// same clusters (their count per iteration does not depend on the
/// graph); the workload seed varies the graphs.
pub const BUILD_SEED: u64 = 0x5EED_0001;

fn params() -> TradeoffParams {
    TradeoffParams::log_k(K)
}

fn request(g: &Graph) -> SpannerRequest<'_> {
    SpannerRequest::new(g, Algorithm::General(params())).seed(BUILD_SEED)
}

/// Graph instance `i` of a run.
pub fn graph(shape: &Shape, seed: u64, i: usize) -> Graph {
    er_graph(shape.n, shape.avg_deg, derive(derive(seed, 1), i as u64))
}

/// The end-to-end run: sequential builds cycling over the run's graph
/// instances; `spanner_edges` is the mean over instances. A set-up
/// generates every instance and runs the warm-up build of the first.
pub fn run(config: &Config) -> Outcome {
    let shape = shape(config.scale);
    let mut out = Outcome::default();
    let (graphs, setup_s) = setup(|| {
        let graphs: Vec<Graph> = (0..shape.instances)
            .map(|i| graph(&shape, config.seed, i))
            .collect();
        build_once(&mut out, &request(&graphs[0]));
        graphs
    });
    let requests: Vec<SpannerRequest<'_>> = graphs.iter().map(request).collect();
    let plan = match requests[0].plan() {
        Ok(plan) => plan,
        Err(e) => {
            out.check(false, || format!("plan failed: {e}"));
            return out;
        }
    };

    let (reports, times, wall) =
        cycle_builds(&mut out, &requests, config.seconds, shape.min_builds);
    let Some(Some(first)) = reports.first() else {
        return out;
    };
    let result = &first.result;

    let g = &graphs[0];
    let stretch = check_stretch(
        &mut out,
        g,
        &result.edges,
        (shape.check_sources, derive(config.seed, 3)),
        plan.stretch_bound,
    );
    out.check(result.stretch_bound == plan.stretch_bound, || {
        "result carries a different stretch bound than its plan".into()
    });

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
    out.meta("n", g.n().to_string());
    out.meta("m", g.m().to_string());
    out.meta("instances", graphs.len().to_string());
    out.meta("build_samples", times.len().to_string());
    out.meta("job_p50_samples", times.len().to_string());
    out.meta("check_sources", shape.check_sources.to_string());
    out.meta("check_pairs", stretch.pairs.to_string());
    out.meta("stretch_max", stretch.max.to_string());
    out.meta("stretch_bound", plan.stretch_bound.to_string());
    out
}

/// Per-step spans and counts of one replayed engine build.
#[derive(Debug, Clone)]
pub struct Replay {
    /// The replay's spanner.
    pub result: SpannerResult,
    /// `Engine::new`.
    pub init_s: f64,
    /// All `run_iteration` calls.
    pub grow_s: f64,
    /// All `contract` calls.
    pub contract_s: f64,
    /// `phase2`.
    pub phase2_s: f64,
    /// `finish`.
    pub finish_s: f64,
    /// Grow iterations run.
    pub iterations: u64,
    /// Σ live edges before each iteration.
    pub edges_scanned: u64,
    /// Σ edges the grow steps added (`IterStats::edges_added`).
    pub edges_added: u64,
}

impl Replay {
    /// Sum of the step spans.
    pub fn spans_s(&self) -> f64 {
        self.init_s + self.grow_s + self.contract_s + self.phase2_s + self.finish_s
    }
}

/// Replays the sequential driver's loop (`general::run_general`) step
/// by step through the public engine API.
pub fn replay(g: &Graph, params: TradeoffParams, seed: u64) -> Replay {
    let (mut engine, init_s) = time(|| Engine::new(g, seed));
    let (mut grow_s, mut contract_s) = (0.0, 0.0);
    let (mut iterations, mut edges_scanned, mut edges_added) = (0, 0, 0);
    let n = g.n();
    for epoch in 1..=params.epochs() {
        let p = params.sampling_probability(n, epoch);
        for iter in 1..=params.t {
            edges_scanned += engine.live_edge_count() as u64;
            let (stats, t) = time(|| engine.run_iteration(p, epoch, iter));
            grow_s += t;
            iterations += 1;
            edges_added += stats.edges_added as u64;
        }
        let ((), t) = time(|| engine.contract());
        contract_s += t;
        if engine.live_edge_count() == 0 && engine.supernode_count() <= 1 {
            break;
        }
    }
    let ((), phase2_s) = time(|| engine.phase2());
    let label = format!("general(k={},t={})", params.k, params.t);
    let (result, finish_s) = time(|| engine.finish(label, params.stretch_bound()));
    Replay {
        result,
        init_s,
        grow_s,
        contract_s,
        phase2_s,
        finish_s,
        iterations,
        edges_scanned,
        edges_added,
    }
}

/// Interleaved rounds of (2-thread build, 1-thread build, replay) in a
/// traced run, after one warm-up build; the table reports medians. One
/// round keeps a traced run near a minute on a 2-CPU host; more rounds
/// steady the per-layer numbers at the cost of traced-run time.
pub const TRACE_ROUNDS: usize = 1;

/// The traced layer table of this workload: engine spans and counts,
/// pipeline overhead and the 1-vs-2-thread row.
pub fn trace(config: &Config) -> Outcome {
    let shape = shape(config.scale);
    let mut out = Outcome::default();
    let g = graph(&shape, config.seed, 0);
    let request = request(&g);
    let Some(reference) = build_once(&mut out, &request).map(|r| r.result) else {
        return out;
    };
    let (mut two, mut one, mut replays) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..TRACE_ROUNDS {
        for threads in [2, 1] {
            let (built, t) = time(|| with_threads(threads, || request.run()));
            out.attempted += 1;
            match built {
                Ok(report) => out.check(report.result.edges == reference.edges, || {
                    format!("the {threads}-thread build differs from the first build")
                }),
                Err(e) => {
                    out.failed += 1;
                    out.check(false, || format!("build failed: {e}"));
                }
            }
            if threads == 2 {
                two.push(t)
            } else {
                one.push(t)
            }
        }
        let r = replay(&g, params(), BUILD_SEED);
        out.check(
            r.result.edges == reference.edges && r.result.iterations == reference.iterations,
            || "engine replay differs from SpannerRequest::run".into(),
        );
        replays.push(r);
    }

    let med = |f: fn(&Replay) -> f64| median(&replays.iter().map(f).collect::<Vec<_>>());
    let (two_s, one_s) = (median(&two), median(&one));
    let first = &replays[0];
    out.metric("engine.init_s", med(|r| r.init_s), "s");
    out.metric("engine.grow_s", med(|r| r.grow_s), "s");
    out.metric("engine.contract_s", med(|r| r.contract_s), "s");
    out.metric("engine.phase2_s", med(|r| r.phase2_s), "s");
    out.metric("engine.finish_s", med(|r| r.finish_s), "s");
    out.metric("engine.iterations", first.iterations as f64, "count");
    out.metric("engine.edges_scanned", first.edges_scanned as f64, "count");
    out.metric("engine.edges_added", first.edges_added as f64, "count");
    out.metric(
        "engine.added_per_scanned",
        first.edges_added as f64 / first.edges_scanned.max(1) as f64,
        "ratio",
    );
    out.metric("pipeline.overhead_s", two_s - med(Replay::spans_s), "s");
    out.metric("rayon.speedup_2v1.spanner-seq", one_s / two_s, "ratio");
    out.meta("spanner_seq.build_2t_s", format!("{two:?}"));
    out.meta("spanner_seq.build_1t_s", format!("{one:?}"));
    out
}
