//! Work/depth accounting for the CRCW PRAM model and the PRAM
//! execution loop (the pipeline's `Backend::Pram` driver).
//!
//! The paper's PRAM extension (end of Section 6): on a CRCW PRAM, each
//! grow iteration costs `O(log* n)` depth — the hashing / semisorting /
//! generalised find-min primitives of \[BS07], plus an `O(1)`-depth
//! leader-pointer merge — so the total depth is the MPC round count
//! times an `O(log* n)` factor, with near-linear work. Experiment E10
//! reports `depth ≈ iterations × Θ(log* n)`.

use crate::engine::Engine;
use crate::params::TradeoffParams;
use crate::result::SpannerResult;
use spanner_graph::Graph;

use super::{BuildGuard, PipelineError, PramStats};

/// Iterated logarithm: the number of times `log₂` must be applied to `n`
/// before the value drops to ≤ 1.
pub fn log_star(n: usize) -> u32 {
    let mut x = n as f64;
    let mut c = 0;
    while x > 1.0 {
        x = x.log2();
        c += 1;
    }
    c
}

/// Accumulates the work and depth of a PRAM execution.
///
/// Two charging modes:
/// * [`PramTracker::step`] — one synchronous parallel step
///   (depth 1, given work);
/// * [`PramTracker::primitive`] — one of the \[BS07] CRCW primitives
///   (hashing, semisorting, generalised find-min), each `O(log* n)`
///   depth with the given work.
#[derive(Debug, Clone)]
pub struct PramTracker {
    /// Problem size the `log* n` factors refer to.
    pub n: usize,
    depth: u64,
    work: u64,
    primitive_invocations: u64,
}

impl PramTracker {
    /// Fresh tracker for problem size `n`.
    pub fn new(n: usize) -> Self {
        PramTracker {
            n,
            depth: 0,
            work: 0,
            primitive_invocations: 0,
        }
    }

    /// One parallel step: depth 1, `work` total operations.
    pub fn step(&mut self, work: u64) {
        self.depth += 1;
        self.work += work;
    }

    /// One `O(log* n)`-depth CRCW primitive with the given work.
    pub fn primitive(&mut self, work: u64) {
        self.depth += log_star(self.n).max(1) as u64;
        self.work += work;
        self.primitive_invocations += 1;
    }

    /// Accumulated depth.
    pub fn depth(&self) -> u64 {
        self.depth
    }

    /// Accumulated work.
    pub fn work(&self) -> u64 {
        self.work
    }

    /// Number of `log*`-depth primitives invoked.
    pub fn primitive_invocations(&self) -> u64 {
        self.primitive_invocations
    }
}

/// The general trade-off spanner on the CRCW PRAM, with measured
/// work/depth (the cost model of Section 6's closing paragraphs):
///
/// * per grow iteration: one hashing pass (cluster sampling lookup
///   tables), one semisort (grouping edges by (super-node, neighbouring
///   cluster)), one generalised find-min (nearest sampled cluster) —
///   three `O(log* n)`-depth primitives — plus `O(1)`-depth
///   leader-pointer merges;
/// * per contraction: one semisort (minimum edge per super-node pair)
///   and an `O(1)`-depth pointer relabel;
/// * work: proportional to the live edges touched.
///
/// State evolution reuses the engine (identical coins and tie-breaks ⇒
/// the spanner equals the sequential reference bit-for-bit).
pub(crate) fn run_pram(
    g: &Graph,
    params: TradeoffParams,
    seed: u64,
    guard: &BuildGuard,
) -> Result<(SpannerResult, PramStats), PipelineError> {
    let n = g.n();
    let mut tracker = PramTracker::new(n.max(2));
    let algorithm = format!("pram-general(k={},t={})", params.k, params.t);

    if params.k == 1 || g.m() == 0 {
        let stats = PramStats {
            depth: 0,
            work: 0,
            log_star_n: log_star(n.max(2)),
        };
        return Ok((SpannerResult::whole_graph(g, algorithm), stats));
    }

    let mut engine = Engine::new(g, seed);
    let l = params.epochs();
    for epoch in 1..=l {
        let p = params.sampling_probability(n, epoch);
        for iter in 1..=params.t {
            guard.check()?;
            let live = engine.live_edge_count() as u64;
            let clusters = engine.cluster_count() as u64;
            // Hashing: coin lookups per cluster.
            tracker.primitive(clusters);
            // Semisort: group candidate edges by (super-node, cluster).
            tracker.primitive(2 * live);
            // Generalised find-min: nearest sampled cluster per node.
            tracker.primitive(live);
            // Leader-pointer merge of joiners (union-find style, O(1)).
            tracker.step(clusters);
            engine.run_iteration(p, epoch, iter);
        }
        // Contraction: semisort for min-per-pair, pointer relabel.
        let live = engine.live_edge_count() as u64;
        tracker.primitive(live);
        tracker.step(engine.supernode_count() as u64);
        engine.contract();
    }
    // Phase 2: one more semisort over the residual edges.
    guard.check()?;
    tracker.primitive(engine.live_edge_count() as u64);
    engine.phase2();

    let result = engine.finish(algorithm, params.stretch_bound());
    let stats = PramStats {
        depth: tracker.depth(),
        work: tracker.work(),
        log_star_n: log_star(n.max(2)),
    };
    Ok((result, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{Algorithm, Backend, PramStats, SpannerRequest};
    use spanner_graph::generators::{self, WeightModel};

    /// The pipeline's PRAM run: the spanner and its work/depth.
    fn pram(g: &Graph, params: TradeoffParams, seed: u64) -> (SpannerResult, PramStats) {
        let report = SpannerRequest::new(g, Algorithm::General(params))
            .on(Backend::Pram)
            .seed(seed)
            .run()
            .expect("valid request");
        let stats = report.stats.pram().expect("pram stats").clone();
        (report.result, stats)
    }

    #[test]
    fn depth_is_iterations_times_log_star() {
        let g = generators::connected_erdos_renyi(200, 0.06, WeightModel::Unit, 5);
        let (result, run) = pram(&g, TradeoffParams::new(16, 2), 7);
        let iters = result.iterations as u64;
        let ls = run.log_star_n as u64;
        // 3 primitives + 1 step per iteration, plus per-epoch and final
        // charges: depth ∈ [3·iters·log*, 6·(iters+epochs+1)·log*].
        assert!(run.depth >= 3 * iters * ls, "depth {} too small", run.depth);
        let upper = 6 * (iters + result.epochs as u64 + 1) * ls.max(1);
        assert!(run.depth <= upper, "depth {} > {upper}", run.depth);
    }

    #[test]
    fn work_is_near_linear_in_m_per_iteration() {
        let g = generators::connected_erdos_renyi(300, 0.05, WeightModel::Unit, 9);
        let (result, run) = pram(&g, TradeoffParams::new(8, 2), 11);
        let m = g.m() as u64;
        let iters = result.iterations as u64 + result.epochs as u64 + 1;
        assert!(
            run.work <= 6 * m * iters,
            "work {} vs 6·m·iters {}",
            run.work,
            6 * m * iters
        );
    }

    #[test]
    fn pram_depth_beats_baswana_sen_for_large_k() {
        // The point of the paper: o(k) depth. Compare against k·log* n.
        let g = generators::connected_erdos_renyi(150, 0.08, WeightModel::Unit, 13);
        let k = 64u32;
        let (_, run) = pram(&g, TradeoffParams::log_k(k), 3);
        let ls = run.log_star_n as u64;
        let bs_depth = k as u64 * ls; // [BS07]: k iterations of the same primitives
        assert!(
            run.depth < bs_depth,
            "poly(log k) depth {} must beat BS {}",
            run.depth,
            bs_depth
        );
    }

    #[test]
    fn log_star_values() {
        assert_eq!(log_star(1), 0);
        assert_eq!(log_star(2), 1);
        assert_eq!(log_star(4), 2);
        assert_eq!(log_star(16), 3);
        assert_eq!(log_star(65536), 4);
        // 2^65536 is out of range; anything practical is ≤ 5.
        assert_eq!(log_star(usize::MAX), 5);
    }

    #[test]
    fn charges_accumulate() {
        let mut t = PramTracker::new(65536);
        t.step(100);
        t.primitive(1000);
        assert_eq!(t.depth(), 1 + 4);
        assert_eq!(t.work(), 1100);
        assert_eq!(t.primitive_invocations(), 1);
    }
}
