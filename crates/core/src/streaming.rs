//! Dynamic-stream execution of the contraction-based algorithm — the
//! paper's Section 2.4 comparison point.
//!
//! The paper observes that its contraction framework also improves the
//! state of the art in **dynamic graph streams**: \[AGM12] obtain a
//! `k^{log 5}`-stretch spanner of size `Õ(n^{1+1/k})` in `log k` passes
//! (unweighted only), while one pass of the stream corresponds to one
//! communication round of MPC — so the `t = 1` schedule gives stretch
//! `k^{log 3}` in the same `log k` passes, *and* handles weights; the
//! general schedule reaches `k^{1+o(1)}` in `O(log²k/log log k)` passes.
//!
//! The pipeline's `Backend::Streaming` walks a schedule on the plain
//! engine and counts passes: each grow step touches every stream edge
//! once (one pass), each contraction's min-per-pair reduction folds
//! into the same pass (it is computable from the sketches the pass
//! maintains), and Phase 2 takes one more. So a run takes its grow
//! steps + 1 passes, Baswana–Sen's `k − 1` steps included. The output
//! spanner is identical to the sequential reference — the accounting is
//! the only new thing, matching how §2.4 equates passes with rounds.

#[cfg(test)]
mod tests {
    use crate::params::TradeoffParams;
    use crate::pipeline::{Algorithm, Backend, SpannerRequest};
    use spanner_graph::generators::{self, WeightModel};
    use spanner_graph::Graph;

    fn stream(g: &Graph, params: TradeoffParams, seed: u64) -> crate::pipeline::RunReport {
        SpannerRequest::new(g, Algorithm::General(params))
            .on(Backend::Streaming)
            .seed(seed)
            .run()
            .expect("valid request")
    }

    #[test]
    fn t1_matches_the_section_2_4_quote() {
        // t = 1: log k passes (+1), stretch exponent log 3 — the
        // improvement over [AGM12]'s k^{log 5}, on *weighted* graphs.
        let g = generators::connected_erdos_renyi(150, 0.08, WeightModel::Uniform(1, 32), 3);
        let k = 16u32;
        let report = stream(&g, TradeoffParams::cluster_merging(k), 7);
        let run = report.stats.streaming().expect("streaming stats");
        assert_eq!(run.passes, 4 + 1); // log2(16) grow passes + phase 2
        assert!((run.quoted_stretch_exponent - 3f64.log2()).abs() < 1e-12);
        assert!(
            run.quoted_stretch_exponent < 5f64.log2(),
            "beats AGM12's k^log5"
        );
    }

    #[test]
    fn stream_output_equals_sequential_reference() {
        let g = generators::connected_erdos_renyi(120, 0.08, WeightModel::Uniform(1, 8), 5);
        let params = TradeoffParams::new(8, 2);
        let streamed = stream(&g, params, 11);
        let seq = SpannerRequest::new(&g, Algorithm::General(params))
            .seed(11)
            .run()
            .expect("valid request");
        assert_eq!(streamed.result.edges, seq.result.edges);
    }

    #[test]
    fn passes_scale_with_t_log_k_over_log_t() {
        let g = generators::connected_erdos_renyi(100, 0.1, WeightModel::Unit, 9);
        for (k, t) in [(16u32, 1u32), (16, 4), (64, 3)] {
            let params = TradeoffParams::new(k, t);
            let report = stream(&g, params, 3);
            let passes = report.stats.streaming().expect("streaming stats").passes;
            assert_eq!(passes, params.iterations() + 1);
        }
    }
}
