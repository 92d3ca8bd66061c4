//! Work/depth accounting for the CRCW PRAM model and the PRAM
//! executor of a schedule (the pipeline's `Backend::Pram`).
//!
//! The paper's PRAM extension (end of Section 6): on a CRCW PRAM, each
//! grow iteration costs `O(log* n)` depth — the hashing / semisorting /
//! generalised find-min primitives of \[BS07], plus an `O(1)`-depth
//! leader-pointer merge — so the total depth is the MPC round count
//! times an `O(log* n)` factor, with near-linear work. Experiment E10
//! reports `depth ≈ iterations × Θ(log* n)`.

use crate::engine::Engine;
use crate::general::Executor;
use crate::result::SpannerResult;
use spanner_graph::Graph;

use super::{ExecutionStats, PipelineError, PramStats};

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
}

impl PramTracker {
    /// Fresh tracker for problem size `n`.
    pub fn new(n: usize) -> Self {
        PramTracker {
            n,
            depth: 0,
            work: 0,
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
    }

    /// Accumulated depth.
    pub fn depth(&self) -> u64 {
        self.depth
    }

    /// Accumulated work.
    pub fn work(&self) -> u64 {
        self.work
    }
}

/// A schedule on the CRCW PRAM, with measured work/depth (the
/// pipeline's `Backend::Pram` executor; the cost model of Section 6's
/// closing paragraphs):
///
/// * per grow iteration: one hashing pass (cluster sampling lookup
///   tables), one semisort (grouping edges by (super-node, neighbouring
///   cluster)), one generalised find-min (nearest sampled cluster) —
///   three `O(log* n)`-depth primitives — plus `O(1)`-depth
///   leader-pointer merges;
/// * per contraction: one semisort (minimum edge per super-node pair)
///   and an `O(1)`-depth pointer relabel;
/// * Phase 2: one more semisort over the residual edges;
/// * work: proportional to the live edges touched.
///
/// State evolution reuses the engine (identical coins and tie-breaks ⇒
/// the spanner equals the sequential reference bit-for-bit).
pub(crate) struct PramRun<'g> {
    engine: Engine<'g>,
    tracker: PramTracker,
}

impl<'g> PramRun<'g> {
    /// A fresh engine on `g` and a zeroed tracker.
    pub(crate) fn new(g: &'g Graph, seed: u64) -> Self {
        PramRun {
            engine: Engine::new(g, seed),
            tracker: PramTracker::new(g.n().max(2)),
        }
    }
}

impl Executor for PramRun<'_> {
    fn grow(&mut self, p: f64, epoch: u32, iter: u32) -> Result<(), PipelineError> {
        let live = self.engine.live_edge_count() as u64;
        let clusters = self.engine.cluster_count() as u64;
        // Hashing: coin lookups per cluster.
        self.tracker.primitive(clusters);
        // Semisort: group candidate edges by (super-node, cluster).
        self.tracker.primitive(2 * live);
        // Generalised find-min: nearest sampled cluster per node.
        self.tracker.primitive(live);
        // Leader-pointer merge of joiners (union-find style, O(1)).
        self.tracker.step(clusters);
        self.engine.run_iteration(p, epoch, iter);
        Ok(())
    }

    fn contract(&mut self) -> Result<(), PipelineError> {
        // Semisort for min-per-pair, pointer relabel.
        self.tracker.primitive(self.engine.live_edge_count() as u64);
        self.tracker.step(self.engine.supernode_count() as u64);
        self.engine.contract();
        Ok(())
    }

    fn phase2(&mut self) -> Result<(), PipelineError> {
        self.tracker.primitive(self.engine.live_edge_count() as u64);
        self.engine.phase2();
        Ok(())
    }

    fn finish(self) -> Result<(SpannerResult, ExecutionStats), PipelineError> {
        let stats = PramStats {
            depth: self.tracker.depth(),
            work: self.tracker.work(),
            log_star_n: log_star(self.tracker.n),
        };
        let (result, _) = Executor::finish(self.engine)?;
        Ok((result, ExecutionStats::Pram(stats)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::TradeoffParams;
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
    }
}
