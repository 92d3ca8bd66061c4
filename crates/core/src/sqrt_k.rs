//! Section 3: the `O(√k)`-round near-optimal spanner (Theorems 3.1/3.4).
//!
//! Two phases:
//!
//! 1. run `t = ⌈√k⌉` Baswana–Sen-style grow iterations at probability
//!    `n^{-1/k}` and stop; contract the clustering into a super-graph
//!    `Ĝ`;
//! 2. run Baswana–Sen **as a black box** on `Ĝ` with parameter
//!    `t' = ⌈√k⌉` (the paper's occasional "`t' = √n`" is the evident
//!    typo for `√k` — with `√n` neither the round bound `O(√k)` nor the
//!    stretch bound `O(t·t') = O(k)` of Theorem 3.4 would parse), and
//!    map each super-edge the black box keeps back to the original edge
//!    realising it. The black box is [`crate::pipeline::Algorithm::BaswanaSen`]
//!    on a second engine over `Ĝ`.
//!
//! Guarantees: stretch `O(k)` (radius `t` clusters × `(2t'−1)`-stretch
//! super-paths), size `O(√k·n^{1+1/k})`, `O(√k)` rounds. The paper
//! states this for unweighted graphs; the implementation accepts
//! weighted inputs (both phases are weight-aware) and the tests exercise
//! both.

use spanner_graph::Graph;

use crate::engine::Engine;
use crate::general::{engine_steps, walk};
use crate::params::TradeoffParams;
use crate::pipeline::{Algorithm, BuildGuard, PipelineError, SpannerRequest};
use crate::result::SpannerResult;

/// Builds the Section 3 two-phase spanner: stretch `O(k)`, size
/// `O(√k·n^{1+1/k})`, `O(√k)` grow iterations (the pipeline's
/// sequential `Algorithm::SqrtK` driver; the pipeline stamps the label
/// and the stretch bound). The guard is checked before every phase-1
/// grow iteration, between the phases, and inside the black box, before
/// each of its grow iterations and its Phase 2.
pub(crate) fn build(
    g: &Graph,
    k: u32,
    seed: u64,
    guard: &BuildGuard,
) -> Result<SpannerResult, PipelineError> {
    debug_assert!(k >= 1, "validated by plan()");
    if k == 1 || g.m() == 0 {
        return Ok(SpannerResult::whole_graph(g));
    }

    // Phase 1: the first epoch of the t = ⌈√k⌉ schedule, t grow
    // iterations at n^{-1/k} and a contraction.
    let params = TradeoffParams::sqrt_k(k);
    let mut engine = Engine::new(g, seed);
    let phase1 = engine_steps(params, g.n()).take(params.t as usize + 1);
    let (_, phase1_iterations) = walk(phase1, &mut engine, guard)?;

    // Phase 2: Baswana–Sen black box on the super-graph.
    guard.check()?;
    let q = engine.quotient_graph();
    let bs = SpannerRequest::new(&q.graph, Algorithm::BaswanaSen { k: params.t })
        .seed(crate::coins::splitmix64(seed ^ 0x5af3_7a11))
        .run_guarded(guard)?
        .result;
    engine.add_spanner_edges(bs.edges.iter().map(|&qid| q.edge_origin[qid as usize]));
    engine.discard_live_edges();

    let mut r = engine.finish("", 0.0);
    r.iterations = phase1_iterations + bs.iterations;
    r.epochs = 2;
    Ok(r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{Algorithm, SpannerRequest};
    use spanner_graph::generators::{self, WeightModel};
    use spanner_graph::verify::verify_spanner;

    fn run(g: &Graph, k: u32, seed: u64) -> SpannerResult {
        SpannerRequest::new(g, Algorithm::SqrtK { k })
            .seed(seed)
            .run()
            .expect("valid request")
            .result
    }

    fn check(g: &Graph, k: u32, seed: u64) -> (SpannerResult, f64) {
        let r = run(g, k, seed);
        spanner_graph::verify::assert_valid_edge_ids(g, &r.edges);
        let rep = verify_spanner(g, &r.edges);
        assert!(rep.all_edges_spanned, "k={k}: unspanned edge");
        assert!(
            rep.max_edge_stretch <= r.stretch_bound + 1e-9,
            "k={k}: stretch {} > bound {}",
            rep.max_edge_stretch,
            r.stretch_bound
        );
        (r, rep.max_edge_stretch)
    }

    #[test]
    fn iteration_count_is_o_sqrt_k() {
        let g = generators::connected_erdos_renyi(200, 0.06, WeightModel::Unit, 1);
        for k in [4u32, 9, 16, 25] {
            let r = run(&g, k, 3);
            let t = (k as f64).sqrt().ceil() as u32;
            assert!(
                r.iterations <= 2 * t,
                "k={k}: {} iterations > 2√k = {}",
                r.iterations,
                2 * t
            );
        }
    }

    #[test]
    fn unweighted_stretch_is_linear_in_k() {
        let g = generators::connected_erdos_renyi(180, 0.07, WeightModel::Unit, 5);
        for k in [4u32, 9, 16] {
            check(&g, k, 7);
        }
    }

    #[test]
    fn weighted_inputs_are_supported() {
        let g = generators::connected_erdos_renyi(150, 0.08, WeightModel::PowersOfTwo(7), 9);
        for k in [4u32, 9] {
            check(&g, k, 11);
        }
    }

    #[test]
    fn k1_is_identity() {
        let g = generators::cycle(12, WeightModel::Unit, 0);
        assert_eq!(run(&g, 1, 0).size(), g.m());
    }

    #[test]
    fn geometric_graphs_work() {
        let g = generators::geometric_euclidean(150, 0.18, 13);
        check(&g, 9, 15);
    }
}
