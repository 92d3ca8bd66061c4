//! Section 5: the general round/stretch trade-off algorithm
//! (Theorem 5.15 / Theorem 1.1), and the one loop every backend runs.
//!
//! For parameters `(k, t)` the algorithm runs `l = ⌈log k / log(t+1)⌉`
//! epochs; epoch `i` performs `t` Baswana–Sen-style grow iterations with
//! sampling probability `p_i = n^{-(t+1)^{i-1}/k}` on the current
//! quotient graph and then contracts. Phase 2 connects what is left.
//!
//! Guarantees (w.r.t. the *original, weighted* graph):
//! * stretch `O(k^s)` with `s = log(2t+1)/log(t+1)` (Theorem 5.11),
//! * expected size `O(n^{1+1/k}·(t + log k))` (Lemma 5.14),
//! * `t·l` iterations, i.e. `O((1/γ)·t·log k/log(t+1))` MPC rounds
//!   (Theorem 1.1).
//!
//! The `O(k)`-round baseline that Theorem 1.1 improves, Baswana–Sen
//! \[BS07], runs here too ([`crate::pipeline::Algorithm::BaswanaSen`]).
//!
//! Both are schedules, and a schedule is data: a lazy list of grow,
//! contract and Phase 2 steps. One crate-private loop walks a schedule
//! on any backend — the sequential engine, the MPC driver, the
//! Congested Clique's trial-and-commit state or the PRAM cost counter —
//! and checks the build guard before each grow step and before Phase 2.

use std::iter;

use crate::engine::Engine;
use crate::params::TradeoffParams;
use crate::pipeline::{BuildGuard, ExecutionStats, PipelineError};
use crate::result::SpannerResult;

/// One step of a schedule.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Step {
    /// A grow iteration (Step B) at sampling probability `p`; `epoch`
    /// and `iter` (1-based) number it for the shared coins.
    Grow { p: f64, epoch: u32, iter: u32 },
    /// A contraction (Step C): the clusters become the super-nodes.
    Contract,
    /// Phase 2: the lightest edge per super-node and neighbouring
    /// cluster.
    Phase2,
}

/// The engine schedule of `params` on `n` vertices: `l` epochs of `t`
/// grow steps at `p_i` and a contraction, then Phase 2.
pub(crate) fn engine_steps(params: TradeoffParams, n: usize) -> impl Iterator<Item = Step> {
    (1..=params.epochs())
        .flat_map(move |epoch| {
            let p = params.sampling_probability(n, epoch);
            (1..=params.t)
                .map(move |iter| Step::Grow { p, epoch, iter })
                .chain(iter::once(Step::Contract))
        })
        .chain(iter::once(Step::Phase2))
}

/// The classic Baswana–Sen `(2k−1)`-spanner \[BS07] on `n` vertices:
/// `k − 1` grow steps at `p = n^{-1/k}` in one epoch, then Phase 2 on
/// the un-contracted clustering. (`General(TradeoffParams::baswana_sen(k))`
/// takes a `k`-th step and contracts first, so its spanner differs.)
/// Section 3 runs it as a black box on its contracted graph, and
/// Appendix B on the whole graph and on its auxiliary graph.
pub(crate) fn baswana_sen_steps(k: u32, n: usize) -> impl Iterator<Item = Step> {
    let p = TradeoffParams::baswana_sen(k).sampling_probability(n, 1);
    (1..k)
        .map(move |iter| Step::Grow { p, epoch: 1, iter })
        .chain(iter::once(Step::Phase2))
}

/// What a backend does at each step of a schedule.
pub(crate) trait Executor: Sized {
    /// One grow iteration.
    fn grow(&mut self, p: f64, epoch: u32, iter: u32) -> Result<(), PipelineError>;
    /// One contraction.
    fn contract(&mut self) -> Result<(), PipelineError>;
    /// Phase 2, after a contraction or on an un-contracted clustering.
    fn phase2(&mut self) -> Result<(), PipelineError>;
    /// The spanner and the model cost, after the last step. The pipeline
    /// stamps the label and the stretch bound on the result.
    fn finish(self) -> Result<(SpannerResult, ExecutionStats), PipelineError>;

    /// Walks `steps`, then finishes, with the walk's counts on the result.
    fn run(
        mut self,
        steps: impl IntoIterator<Item = Step>,
        guard: &BuildGuard,
    ) -> Result<(SpannerResult, ExecutionStats), PipelineError> {
        let (epochs, iterations) = walk(steps, &mut self, guard)?;
        let (mut result, stats) = self.finish()?;
        (result.epochs, result.iterations) = (epochs, iterations);
        Ok((result, stats))
    }
}

/// The one loop over a schedule; returns the epoch of the last grow step
/// and the number of grow steps. The guard is checked before every grow
/// step and before Phase 2, so a fired [`crate::pipeline::CancelToken`]
/// or an expired deadline stops the build within one step of work
/// instead of running the whole schedule.
pub(crate) fn walk(
    steps: impl IntoIterator<Item = Step>,
    executor: &mut impl Executor,
    guard: &BuildGuard,
) -> Result<(u32, u32), PipelineError> {
    let (mut epochs, mut iterations) = (0, 0);
    for step in steps {
        match step {
            Step::Grow { p, epoch, iter } => {
                guard.check()?;
                executor.grow(p, epoch, iter)?;
                (epochs, iterations) = (epoch, iterations + 1);
            }
            Step::Contract => executor.contract()?,
            Step::Phase2 => {
                guard.check()?;
                executor.phase2()?;
            }
        }
    }
    Ok((epochs, iterations))
}

/// The sequential reference, and the streaming backend's engine.
impl Executor for Engine<'_> {
    fn grow(&mut self, p: f64, epoch: u32, iter: u32) -> Result<(), PipelineError> {
        self.run_iteration(p, epoch, iter);
        Ok(())
    }

    fn contract(&mut self) -> Result<(), PipelineError> {
        Engine::contract(self);
        Ok(())
    }

    fn phase2(&mut self) -> Result<(), PipelineError> {
        Engine::phase2(self);
        Ok(())
    }

    fn finish(self) -> Result<(SpannerResult, ExecutionStats), PipelineError> {
        Ok((Engine::finish(self, "", 0.0), ExecutionStats::Sequential))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{Algorithm, SpannerRequest};
    use spanner_graph::generators::{self, Family, WeightModel};
    use spanner_graph::verify::verify_spanner;
    use spanner_graph::Graph;

    fn run(g: &Graph, algorithm: Algorithm, seed: u64) -> SpannerResult {
        SpannerRequest::new(g, algorithm)
            .seed(seed)
            .run()
            .expect("valid request")
            .result
    }

    fn general(g: &Graph, params: TradeoffParams, seed: u64) -> SpannerResult {
        run(g, Algorithm::General(params), seed)
    }

    fn check(g: &Graph, algorithm: Algorithm, seed: u64) -> (SpannerResult, f64) {
        let r = run(g, algorithm, seed);
        spanner_graph::verify::assert_valid_edge_ids(g, &r.edges);
        let rep = verify_spanner(g, &r.edges);
        assert!(rep.all_edges_spanned, "{}: unspanned edges", r.algorithm);
        assert!(
            rep.max_edge_stretch <= r.stretch_bound + 1e-9,
            "{}: stretch {} exceeds bound {}",
            r.algorithm,
            rep.max_edge_stretch,
            r.stretch_bound
        );
        (r, rep.max_edge_stretch)
    }

    #[test]
    fn k1_returns_whole_graph() {
        let g = generators::connected_erdos_renyi(40, 0.1, WeightModel::Unit, 1);
        let r = general(&g, TradeoffParams::new(1, 1), 0);
        assert_eq!(r.size(), g.m());
        assert_eq!(r.iterations, 0);
    }

    #[test]
    fn weighted_er_respects_stretch_bound() {
        let g = generators::connected_erdos_renyi(150, 0.06, WeightModel::PowersOfTwo(8), 3);
        for (k, t) in [(2, 1), (4, 2), (8, 3), (16, 4)] {
            check(&g, Algorithm::General(TradeoffParams::new(k, t)), 42);
        }
    }

    #[test]
    fn unit_torus_respects_stretch_bound() {
        let g = generators::torus(10, 10, WeightModel::Unit, 0);
        for (k, t) in [(3, 1), (9, 3)] {
            check(&g, Algorithm::General(TradeoffParams::new(k, t)), 7);
        }
    }

    #[test]
    fn epoch_count_matches_schedule() {
        let g = generators::connected_erdos_renyi(120, 0.08, WeightModel::Unit, 5);
        let params = TradeoffParams::new(16, 1);
        let r = general(&g, params, 9);
        assert_eq!(r.epochs, params.epochs());
        assert_eq!(r.iterations, params.iterations());
    }

    #[test]
    fn size_is_within_theorem_envelope() {
        // Average over seeds: expected size O(n^{1+1/k}(t + log k)).
        let g = generators::connected_erdos_renyi(200, 0.2, WeightModel::Uniform(1, 64), 11);
        let params = TradeoffParams::new(4, 2);
        let sizes: Vec<usize> = (0..5).map(|s| general(&g, params, s).size()).collect();
        let avg = sizes.iter().sum::<usize>() as f64 / sizes.len() as f64;
        let bound = params.size_bound(g.n());
        assert!(
            avg <= 4.0 * bound,
            "avg size {avg} vs envelope {bound} (4x slack)"
        );
    }

    #[test]
    fn larger_t_gives_no_worse_stretch_bound() {
        // Along the trade-off curve the *guarantee* improves with t.
        let bounds: Vec<f64> = [1u32, 2, 4, 8, 16]
            .iter()
            .map(|&t| TradeoffParams::new(16, t).stretch_bound())
            .collect();
        for w in bounds.windows(2) {
            assert!(w[1] <= w[0] + 1e-9, "{bounds:?}");
        }
    }

    #[test]
    fn radius_tracking_respects_corollary_5_9() {
        let g = generators::torus(12, 12, WeightModel::Unit, 0);
        let params = TradeoffParams::new(9, 2);
        let r = SpannerRequest::new(&g, Algorithm::General(params))
            .seed(3)
            .track_radii(true)
            .run()
            .expect("valid request")
            .result;
        for (i, &radius) in r.radius_per_epoch.iter().enumerate() {
            let bound = params.radius_bound(i as u32 + 1);
            assert!(
                radius as f64 <= bound + 1e-9,
                "epoch {}: radius {} exceeds bound {}",
                i + 1,
                radius,
                bound
            );
        }
    }

    #[test]
    fn disconnected_graph_is_fine() {
        // Two components; spanner must span each.
        let g = generators::erdos_renyi(100, 0.08, WeightModel::Uniform(1, 4), 13);
        let r = general(&g, TradeoffParams::new(4, 2), 5);
        let rep = verify_spanner(&g, &r.edges);
        assert!(rep.all_edges_spanned);
    }

    #[test]
    fn all_families_produce_valid_spanners() {
        for fam in [
            Family::ErdosRenyi {
                n: 120,
                avg_deg: 8.0,
            },
            Family::Torus { side: 10 },
            Family::Hypercube { d: 7 },
            Family::PowerLaw {
                n: 120,
                avg_deg: 6.0,
            },
            Family::CliqueChain {
                cliques: 6,
                size: 6,
            },
        ] {
            let g = fam.generate(WeightModel::Uniform(1, 32), 17);
            check(&g, Algorithm::General(TradeoffParams::new(8, 3)), 23);
        }
    }

    #[test]
    fn baswana_sen_k1_is_identity() {
        let g = generators::connected_erdos_renyi(30, 0.2, WeightModel::Unit, 0);
        assert_eq!(run(&g, Algorithm::BaswanaSen { k: 1 }, 0).size(), g.m());
    }

    #[test]
    fn baswana_sen_stretch_bound_holds_on_weighted_graphs() {
        let g = generators::connected_erdos_renyi(150, 0.08, WeightModel::PowersOfTwo(10), 3);
        for k in [2, 3, 5, 8] {
            let (r, _) = check(&g, Algorithm::BaswanaSen { k }, 101);
            assert_eq!(r.stretch_bound, (2 * k - 1) as f64);
        }
    }

    #[test]
    fn baswana_sen_stretch_bound_holds_on_tori_and_cliques() {
        let t = generators::torus(9, 9, WeightModel::Uniform(1, 7), 2);
        check(&t, Algorithm::BaswanaSen { k: 3 }, 5);
        let c = generators::clique_chain(4, 8, WeightModel::Uniform(1, 7), 2);
        check(&c, Algorithm::BaswanaSen { k: 4 }, 5);
    }

    #[test]
    fn baswana_sen_size_shrinks_with_k_on_dense_graphs() {
        let g = generators::complete(60, WeightModel::Uniform(1, 100), 4);
        let size = |k| -> usize {
            (0..5)
                .map(|s| check(&g, Algorithm::BaswanaSen { k }, s).0.size())
                .sum()
        };
        let (s2, s6) = (size(2), size(6));
        assert!(
            s6 < s2,
            "larger k must sparsify more on K_n: k=2 → {s2}, k=6 → {s6}"
        );
    }

    #[test]
    fn baswana_sen_unweighted_size_envelope() {
        // Expected size O(k n^{1+1/k}); allow a generous constant.
        let g = generators::connected_erdos_renyi(300, 0.15, WeightModel::Unit, 6);
        let k = 3u32;
        let sizes: Vec<usize> = (0..5)
            .map(|s| run(&g, Algorithm::BaswanaSen { k }, s).size())
            .collect();
        let avg = sizes.iter().sum::<usize>() as f64 / sizes.len() as f64;
        let bound = k as f64 * (g.n() as f64).powf(1.0 + 1.0 / k as f64);
        assert!(avg <= 3.0 * bound, "avg {avg} vs k·n^(1+1/k) = {bound}");
    }

    #[test]
    fn baswana_sen_is_deterministic_per_seed() {
        let g = generators::connected_erdos_renyi(80, 0.1, WeightModel::Uniform(1, 9), 8);
        let bs = || run(&g, Algorithm::BaswanaSen { k: 4 }, 9).edges;
        assert_eq!(bs(), bs());
    }

    #[test]
    fn baswana_sen_keeps_every_tree_edge() {
        // A spanner of a tree must contain every edge (removing any
        // disconnects it).
        let g = generators::random_tree(60, WeightModel::Uniform(1, 5), 10);
        let (r, _) = check(&g, Algorithm::BaswanaSen { k: 4 }, 11);
        assert_eq!(r.size(), g.m());
    }
}
