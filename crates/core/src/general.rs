//! Section 5: the general round/stretch trade-off algorithm
//! (Theorem 5.15 / Theorem 1.1).
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

use rayon::prelude::*;
use spanner_graph::Graph;

use crate::engine::Engine;
use crate::params::TradeoffParams;
use crate::pipeline::{Algorithm, BuildGuard, PipelineError, SpannerRequest};
use crate::result::SpannerResult;

/// Options shared by the engine-based constructions.
#[derive(Debug, Clone, Copy, Default)]
pub struct BuildOptions {
    /// Measure cluster radii at every contraction (costs a BFS per
    /// super-node; used by ablation A1).
    pub track_radii: bool,
}

/// Builds a spanner with the Section 5 general trade-off algorithm.
///
/// `k = 1` degenerates to the graph itself (stretch 1), per the
/// definition of a 1-spanner.
///
/// Shim over [`crate::pipeline`]: equivalent to running a
/// [`SpannerRequest`] with [`Algorithm::General`] on the sequential
/// backend (bit-identical output, pinned by tests).
pub fn general_spanner(
    g: &Graph,
    params: TradeoffParams,
    seed: u64,
    opts: BuildOptions,
) -> SpannerResult {
    SpannerRequest::new(g, Algorithm::General(params))
        .seed(seed)
        .track_radii(opts.track_radii)
        .run()
        .expect("sequential execution of a valid schedule is infallible")
        .result
}

/// The engine loop behind [`general_spanner`] — the pipeline's
/// sequential driver for every engine-schedule algorithm.
///
/// The guard is checked before every grow iteration and before
/// Phase 2, so a fired [`crate::pipeline::CancelToken`] or an expired
/// deadline aborts the build within one iteration of work instead of
/// running the whole schedule.
pub(crate) fn run_general(
    g: &Graph,
    params: TradeoffParams,
    seed: u64,
    opts: BuildOptions,
    guard: &BuildGuard,
) -> Result<SpannerResult, PipelineError> {
    let algorithm = format!("general(k={},t={})", params.k, params.t);
    if params.k == 1 || g.m() == 0 {
        return Ok(SpannerResult::whole_graph(g, algorithm));
    }

    let n = g.n();
    let mut engine = Engine::new(g, seed);
    engine.track_radii = opts.track_radii;

    let l = params.epochs();
    for epoch in 1..=l {
        let p = params.sampling_probability(n, epoch);
        for iter in 1..=params.t {
            guard.check()?;
            engine.run_iteration(p, epoch, iter);
        }
        engine.contract();
        if engine.live_edge_count() == 0 && engine.supernode_count() <= 1 {
            break;
        }
    }
    guard.check()?;
    engine.phase2();
    Ok(engine.finish(algorithm, params.stretch_bound()))
}

/// Convenience wrapper: the `t = log k` configuration used by the
/// distance-approximation application (stretch `k^{1+o(1)}` in
/// `O(log²k/log log k)` iterations; Corollary 1.2(3)).
pub fn log_k_spanner(g: &Graph, k: u32, seed: u64) -> SpannerResult {
    general_spanner(g, TradeoffParams::log_k(k), seed, BuildOptions::default())
}

/// Runs `repetitions` independent copies (different derived seeds) and
/// returns the smallest spanner — the paper's expected-size-to-w.h.p.
/// amplification. Section 6 runs `O(log n)` copies in parallel, and so
/// do we: the copies' requests fan out on the rayon pool (each copy is
/// the identical per-copy algorithm, results come back in seed order,
/// and the selection is deterministic regardless of thread count).
pub fn best_of(
    g: &Graph,
    params: TradeoffParams,
    base_seed: u64,
    repetitions: usize,
    opts: BuildOptions,
) -> SpannerResult {
    assert!(repetitions >= 1, "need at least one repetition");
    let requests: Vec<SpannerRequest<'_>> = (0..repetitions as u64)
        .map(|r| {
            SpannerRequest::new(g, Algorithm::General(params))
                .seed(crate::coins::splitmix64(base_seed ^ r))
                .track_radii(opts.track_radii)
        })
        .collect();
    let reports: Vec<_> = requests.par_iter().map(SpannerRequest::run).collect();
    reports
        .into_iter()
        .map(|report| {
            report
                .expect("sequential execution of a valid schedule is infallible")
                .result
        })
        .min_by_key(SpannerResult::size)
        .expect("at least one repetition")
}

#[cfg(test)]
mod tests {
    use super::*;
    use spanner_graph::generators::{self, Family, WeightModel};
    use spanner_graph::verify::verify_spanner;

    fn check(g: &Graph, params: TradeoffParams, seed: u64) -> (SpannerResult, f64) {
        let r = general_spanner(g, params, seed, BuildOptions::default());
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
        let r = general_spanner(&g, TradeoffParams::new(1, 1), 0, BuildOptions::default());
        assert_eq!(r.size(), g.m());
        assert_eq!(r.iterations, 0);
    }

    #[test]
    fn weighted_er_respects_stretch_bound() {
        let g = generators::connected_erdos_renyi(150, 0.06, WeightModel::PowersOfTwo(8), 3);
        for (k, t) in [(2, 1), (4, 2), (8, 3), (16, 4)] {
            check(&g, TradeoffParams::new(k, t), 42);
        }
    }

    #[test]
    fn unit_torus_respects_stretch_bound() {
        let g = generators::torus(10, 10, WeightModel::Unit, 0);
        for (k, t) in [(3, 1), (9, 3)] {
            check(&g, TradeoffParams::new(k, t), 7);
        }
    }

    #[test]
    fn epoch_count_matches_schedule() {
        let g = generators::connected_erdos_renyi(120, 0.08, WeightModel::Unit, 5);
        let params = TradeoffParams::new(16, 1);
        let r = general_spanner(&g, params, 9, BuildOptions::default());
        assert!(r.epochs <= params.epochs());
        assert!(r.iterations <= params.iterations());
    }

    #[test]
    fn size_is_within_theorem_envelope() {
        // Average over seeds: expected size O(n^{1+1/k}(t + log k)).
        let g = generators::connected_erdos_renyi(200, 0.2, WeightModel::Uniform(1, 64), 11);
        let params = TradeoffParams::new(4, 2);
        let sizes: Vec<usize> = (0..5)
            .map(|s| general_spanner(&g, params, s, BuildOptions::default()).size())
            .collect();
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
        let r = general_spanner(&g, params, 3, BuildOptions { track_radii: true });
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
        let r = general_spanner(&g, TradeoffParams::new(4, 2), 5, BuildOptions::default());
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
            check(&g, TradeoffParams::new(8, 3), 23);
        }
    }

    #[test]
    fn best_of_is_no_larger_than_single() {
        let g = generators::connected_erdos_renyi(150, 0.1, WeightModel::Unit, 19);
        let params = TradeoffParams::new(4, 2);
        let single = general_spanner(
            &g,
            params,
            crate::coins::splitmix64(77),
            BuildOptions::default(),
        );
        let best = best_of(&g, params, 77, 5, BuildOptions::default());
        assert!(best.size() <= single.size());
    }
}
