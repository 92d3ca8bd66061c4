//! The repository benchmark: four seeded, offline workloads over the
//! `mpc-spanners` crates, measured end to end (`--trace 0`) and layer by
//! layer (`--trace 1`).
//!
//! * [`spanner_seq`] — Theorem 1.1's schedule on the sequential backend
//!   at n = 2¹⁷ (the engine's grow steps dominate);
//! * [`mpc`] — the strongly sublinear MPC spanner (many small machines)
//!   and the Corollary 1.4 APSP oracle in near-linear MPC (few large
//!   machines, plus the Section 7 gather and exact queries);
//! * [`serve`] — two closed-loop clients mixing store-hit oracle jobs,
//!   store-miss spanner jobs and graph re-registrations through
//!   `JobQueue` over a two-shard `ShardedService`.
//!
//! Every workload checks its outputs outside the timed region; a
//! violated check makes the run incorrect. The per-layer table
//! ([`trace`]) times calls into each layer's public functions from here,
//! without tracing inside the program.

pub mod mpc;
pub mod report;
pub mod serve;
pub mod spanner_seq;
pub mod trace;

use std::time::{Duration, Instant};

use rayon::prelude::*;
use spanner_core::pipeline::{RunReport, SpannerRequest};
use spanner_graph::edge::{Distance, EdgeId};
use spanner_graph::generators::{Family, WeightModel};
use spanner_graph::shortest_paths::dijkstra;
use spanner_graph::verify::{sampled_pairwise_stretch, PairwiseStretch};
use spanner_graph::{Graph, INFINITY};

pub use report::Outcome;

/// The four workloads, by their `BENCHMARK.json` names.
pub const WORKLOADS: [&str; 4] = ["spanner-seq", "mpc-sublinear", "mpc-apsp", "serve-mixed"];

/// Input scale: the benchmark's real shapes, or a tiny smoke size that
/// runs the same code paths and checks in well under a second.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The shapes `BENCHMARK.json` describes.
    Full,
    /// Tiny inputs for the harness's own tests.
    Smoke,
}

/// One invocation's settings.
#[derive(Debug, Clone)]
pub struct Config {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: String,
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Per-layer table instead of end-to-end metrics.
    pub trace: bool,
    /// Input scale.
    pub scale: Scale,
}

/// Runs one invocation and returns its outcome.
pub fn run(config: &Config) -> Result<Outcome, String> {
    if !WORKLOADS.contains(&config.workload.as_str()) {
        return Err(format!(
            "unknown workload {:?} (expected one of {})",
            config.workload,
            WORKLOADS.join(", ")
        ));
    }
    let mut outcome = if config.trace {
        trace::run(config)
    } else {
        match config.workload.as_str() {
            "spanner-seq" => spanner_seq::run(config),
            "mpc-sublinear" => mpc::run_sublinear(config),
            "mpc-apsp" => mpc::run_apsp(config),
            _ => serve::run(config),
        }
    };
    add_run_meta(config, &mut outcome);
    Ok(outcome)
}

fn add_run_meta(config: &Config, outcome: &mut Outcome) {
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rayon_env = std::env::var("RAYON_NUM_THREADS").unwrap_or_default();
    let mut meta = vec![
        (
            "workload".to_string(),
            report::json_string(&config.workload),
        ),
        ("seed".to_string(), config.seed.to_string()),
        ("seconds".to_string(), config.seconds.to_string()),
        ("trace".to_string(), config.trace.to_string()),
        (
            "scale".to_string(),
            report::json_string(match config.scale {
                Scale::Full => "full",
                Scale::Smoke => "smoke",
            }),
        ),
        ("available_parallelism".to_string(), parallelism.to_string()),
        (
            "rayon_num_threads_env".to_string(),
            report::json_string(&rayon_env),
        ),
        (
            "rayon_pool_threads".to_string(),
            rayon::current_num_threads().to_string(),
        ),
        ("git_rev".to_string(), report::json_string(&git_rev())),
        (
            "violations".to_string(),
            format!(
                "[{}]",
                outcome
                    .violations
                    .iter()
                    .map(|v| report::json_string(v))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        ),
    ];
    meta.append(&mut outcome.meta);
    outcome.meta = meta;
}

/// The commit of the checkout, read from `.git` in the working
/// directory without running git; `"unknown"` outside a git checkout.
fn git_rev() -> String {
    let read = |path: &str| std::fs::read_to_string(path).ok();
    match read(".git/HEAD") {
        Some(head) => match head.trim().strip_prefix("ref: ") {
            Some(reference) => read(&format!(".git/{reference}"))
                .map(|rev| rev.trim().to_string())
                .unwrap_or_else(|| reference.to_string()),
            None => head.trim().to_string(),
        },
        None => "unknown".to_string(),
    }
}

/// A seed for one purpose within a run, derived from the workload seed.
pub fn derive(seed: u64, purpose: u64) -> u64 {
    spanner_core::coins::splitmix64(seed ^ spanner_core::coins::splitmix64(purpose))
}

/// The workloads' host graphs: connected Erdős–Rényi with log-uniform
/// power-of-two weights (2⁰..2⁸).
pub fn er_graph(n: usize, avg_deg: f64, seed: u64) -> Graph {
    Family::ErdosRenyi { n, avg_deg }.generate(WeightModel::PowersOfTwo(8), seed)
}

/// Whole set-ups per run behind `setup_s`.
pub const SETUP_REPS: usize = 2;

/// Runs `setup_once` — the workload's whole set-up: generating every
/// input instance, registering, and the untimed warm-up operation —
/// [`SETUP_REPS`] times, each replacing (and dropping) the previous
/// result. Returns the last set-up with the median wall time of one,
/// which is `setup_s`.
pub fn setup<T>(mut setup_once: impl FnMut() -> T) -> (T, f64) {
    let mut last = None;
    let mut times = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let (value, t) = time(&mut setup_once);
        times.push(t);
        last = Some(value);
    }
    (
        last.expect("SETUP_REPS is positive"),
        report::median(&times),
    )
}

/// Repeats `op` back to back until `seconds` have passed and at least
/// `min_ops` operations ran (the set-up already ran the warm-up).
/// Returns each operation's wall time and the timed phase's total wall
/// time.
pub fn timed_loop(
    seconds: f64,
    min_ops: usize,
    mut op: impl FnMut() -> Duration,
) -> (Vec<f64>, f64) {
    let started = Instant::now();
    let mut times = Vec::new();
    while times.len() < min_ops || started.elapsed().as_secs_f64() < seconds {
        times.push(op().as_secs_f64());
    }
    (times, started.elapsed().as_secs_f64())
}

/// One build outside the timed phase (a set-up's warm-up or a
/// reference build); a failure is a failed operation.
pub fn build_once(out: &mut Outcome, request: &SpannerRequest<'_>) -> Option<RunReport> {
    out.attempted += 1;
    match request.run() {
        Ok(report) => Some(report),
        Err(e) => {
            out.failed += 1;
            out.check(false, || format!("build failed: {e}"));
            None
        }
    }
}

/// The build workloads' timed phase: operation `i` runs request
/// `i % requests.len()`. Keeps each request's first report; a repeated
/// build must return the same edges and model rounds. Returns the
/// reports with the timed loop's samples and wall time.
pub fn cycle_builds(
    out: &mut Outcome,
    requests: &[SpannerRequest<'_>],
    seconds: f64,
    min_ops: usize,
) -> (Vec<Option<RunReport>>, Vec<f64>, f64) {
    let mut reports: Vec<Option<RunReport>> = vec![None; requests.len()];
    let mut next = 0;
    let (times, wall) = timed_loop(seconds, min_ops, || {
        let i = next % requests.len();
        next += 1;
        let started = Instant::now();
        let built = requests[i].run();
        let elapsed = started.elapsed();
        out.attempted += 1;
        match built {
            Ok(report) => match &reports[i] {
                None => reports[i] = Some(report),
                Some(first) => out.check(
                    first.result.edges == report.result.edges
                        && first.stats.model_rounds() == report.stats.model_rounds(),
                    || "repeated builds of one request differ".into(),
                ),
            },
            Err(e) => {
                out.failed += 1;
                out.check(false, || format!("build failed: {e}"));
            }
        }
        elapsed
    });
    (reports, times, wall)
}

/// `count` distinct-ish vertices sampled from `0..n` by a seeded
/// generator (the fixed sample a correctness check or query batch uses).
pub fn sample_vertices(n: usize, count: usize, seed: u64) -> Vec<u32> {
    use rand::prelude::*;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    (0..count).map(|_| rng.gen_range(0..n as u32)).collect()
}

/// The spanner check at `sources` sampled sources (drawn from `seed`):
/// the pairwise stretch `d_H(s,v)/d_G(s,v)` from each source to every
/// vertex it reaches must stay within `bound`. That covers every host
/// edge `(s, v, w)` at a sampled source, since `d_G(s,v) ≤ w`, and a
/// vertex cut off in `H` shows as an unbounded ratio.
pub fn check_stretch(
    out: &mut Outcome,
    g: &Graph,
    edges: &[EdgeId],
    (sources, seed): (usize, u64),
    bound: f64,
) -> PairwiseStretch {
    let stretch = sampled_pairwise_stretch(g, edges, sources, seed);
    out.check(stretch.max <= bound + 1e-9, || {
        format!(
            "sampled pairwise stretch {} exceeds the bound {bound}",
            stretch.max
        )
    });
    stretch
}

/// Exact distances for query pairs, one Dijkstra on `g` per distinct
/// source.
pub fn exact_distances(g: &Graph, pairs: &[(u32, u32)]) -> Vec<Distance> {
    let mut sources: Vec<u32> = pairs.iter().map(|&(u, _)| u).collect();
    sources.sort_unstable();
    sources.dedup();
    let rows: Vec<Vec<Distance>> = sources.par_iter().map(|&s| dijkstra(g, s).dist).collect();
    pairs
        .iter()
        .map(|&(u, v)| {
            let row = sources.binary_search(&u).expect("source was collected");
            rows[row][v as usize]
        })
        .collect()
}

/// How approximate answers compare with exact distances.
#[derive(Debug, Clone, Copy, Default)]
pub struct AnswerCheck {
    /// Largest `d̂/d_G` over pairs at positive finite distance.
    pub max_ratio: f64,
    /// Mean `d̂/d_G` over those pairs.
    pub mean_ratio: f64,
    /// Pairs outside `d_G ≤ d̂ ≤ bound·d_G` (or answered for a
    /// disconnected or identical pair with anything but the exact value).
    pub violations: usize,
}

/// Checks approximate answers against exact distances:
/// `d_G ≤ d̂ ≤ bound·d_G` for every pair.
pub fn check_answers(exact: &[Distance], answers: &[Distance], bound: f64) -> AnswerCheck {
    let mut check = AnswerCheck {
        max_ratio: 1.0,
        ..AnswerCheck::default()
    };
    let (mut sum, mut pairs) = (0.0, 0usize);
    for (&d, &a) in exact.iter().zip(answers) {
        if d == INFINITY || d == 0 {
            check.violations += usize::from(a != d);
            continue;
        }
        if a < d || a as f64 > bound * d as f64 + 1e-9 {
            check.violations += 1;
        }
        let ratio = a as f64 / d as f64;
        check.max_ratio = check.max_ratio.max(ratio);
        sum += ratio;
        pairs += 1;
    }
    check.violations += exact.len().abs_diff(answers.len());
    check.mean_ratio = if pairs == 0 { 1.0 } else { sum / pairs as f64 };
    check
}

/// The end-to-end metrics every workload reports, in `BENCHMARK.json`
/// order. `build_s` is one spanner construction from request to report;
/// an *operation* is the workload's unit of work (a build, an oracle
/// build plus its query batch, or a served job).
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Median wall time of one whole set-up.
    pub setup_s: f64,
    /// Median wall time of one build.
    pub build_s: f64,
    /// Output spanner edges (a mean over instances).
    pub spanner_edges: f64,
    /// Mean stretch over the sampled correctness check's pairs.
    pub stretch_mean: f64,
    /// Completed operations per second of timed wall time.
    pub jobs_per_s: f64,
    /// Median operation latency in milliseconds.
    pub job_p50_ms: f64,
}

impl EndToEnd {
    /// Records the metrics, with the process's peak RSS measured now.
    pub fn record(self, outcome: &mut Outcome) {
        outcome.metric("setup_s", self.setup_s, "s");
        outcome.metric("build_s", self.build_s, "s");
        outcome.metric("spanner_edges", self.spanner_edges, "count");
        outcome.metric("stretch_mean", self.stretch_mean, "ratio");
        outcome.metric("jobs_per_s", self.jobs_per_s, "1/s");
        outcome.metric("job_p50_ms", self.job_p50_ms, "ms");
        outcome.metric("peak_rss_mb", report::peak_rss_mb(), "MiB");
    }
}

/// Runs `op` on the calling thread with parallel operations capped at
/// `threads` (the rayon shim's `ThreadPool::install`).
pub fn with_threads<R>(threads: usize, op: impl FnOnce() -> R) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("the rayon shim's pool builder is infallible")
        .install(op)
}

/// Wall time of one call.
pub fn time<R>(op: impl FnOnce() -> R) -> (R, f64) {
    let started = Instant::now();
    let value = op();
    (value, started.elapsed().as_secs_f64())
}
