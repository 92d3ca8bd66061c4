//! Corollary 1.2: the paper's four named points on the round/stretch
//! trade-off curve, as parameter presets that
//! `pipeline::Algorithm::Corollary` resolves into an engine schedule.
//!
//! | Setting | rounds | stretch | size |
//! |---|---|---|---|
//! | (1) `t = 1` | `O(log k)` | `O(k^{log 3})` | `O(n^{1+1/k} log k)` |
//! | (2) `t = 2^{1/ε}` | `O(2^{1/ε} ε^{-1} log k)` | `O(k^{1+ε})` | `O(n^{1+1/k}(2^{1/ε}+log k))` |
//! | (3) `t = log k` | `O(log²k/log log k)` | `k^{1+o(1)}` | `O(n^{1+1/k} log k)` |
//! | (4) `k = log n, t = log log n` | `O(log²log n / log log log n)` | `log^{1+o(1)} n` | `O(n log log n)` |

use crate::params::{ParamError, TradeoffParams};

/// Which of the four Corollary 1.2 settings to run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CorollarySetting {
    /// (1): `t = 1` — `O(log k)` rounds, `O(k^{log 3})` stretch.
    Fastest,
    /// (2): `t = ⌈2^{1/ε}⌉` — `O(k^{1+ε})` stretch. Carries its ε.
    Epsilon(f64),
    /// (3): `t = ⌈log k⌉` — `k^{1+o(1)}` stretch in
    /// `O(log²k/log log k)` rounds.
    LogK,
    /// (4): the APSP configuration — `k = ⌈log n⌉`, `t = ⌈log log n⌉`,
    /// stretch `log^{1+o(1)} n`, size `O(n log log n)`. Corollaries 1.4
    /// (MPC) and 1.5 (Congested Clique) both collect this spanner and
    /// query it locally.
    ApspRegime,
}

impl CorollarySetting {
    /// The trade-off parameters this setting dictates for a graph with
    /// `n` vertices and the given `k` (ignored by `ApspRegime`, which
    /// derives `k` from `n`). Fails on malformed inputs (`k = 0`,
    /// `ε ≤ 0` or non-finite) instead of panicking, so one bad request
    /// cannot abort a whole pipeline batch.
    pub fn try_params(&self, n: usize, k: u32) -> Result<TradeoffParams, ParamError> {
        if k == 0 && !matches!(self, CorollarySetting::ApspRegime) {
            return Err(ParamError(format!(
                "{}: k must be at least 1",
                self.label()
            )));
        }
        Ok(match *self {
            CorollarySetting::Fastest => TradeoffParams::new(k, 1),
            CorollarySetting::Epsilon(eps) => {
                if !eps.is_finite() || eps <= 0.0 {
                    return Err(ParamError(format!(
                        "cor1.2(2): epsilon must be positive and finite, got {eps}"
                    )));
                }
                // 2^{1/ε} can overflow f64→u32 for tiny ε; the as-cast
                // saturates and TradeoffParams clamps t into [1, k].
                let t = 2f64.powf(1.0 / eps).ceil() as u32;
                TradeoffParams::new(k, t.max(1))
            }
            CorollarySetting::LogK => TradeoffParams::log_k(k),
            CorollarySetting::ApspRegime => {
                let n = n.max(4) as f64;
                let k = n.log2().ceil() as u32;
                let t = (n.log2().log2().ceil() as u32).max(1);
                TradeoffParams::new(k.max(2), t)
            }
        })
    }

    /// Short label for tables.
    pub fn label(&self) -> String {
        match *self {
            CorollarySetting::Fastest => "cor1.2(1) t=1".into(),
            CorollarySetting::Epsilon(e) => format!("cor1.2(2) eps={e}"),
            CorollarySetting::LogK => "cor1.2(3) t=log k".into(),
            CorollarySetting::ApspRegime => "cor1.2(4) k=log n".into(),
        }
    }

    /// All four settings with a default ε of 1/2.
    pub fn all() -> Vec<CorollarySetting> {
        vec![
            CorollarySetting::Fastest,
            CorollarySetting::Epsilon(0.5),
            CorollarySetting::LogK,
            CorollarySetting::ApspRegime,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{Algorithm, SpannerRequest};
    use crate::result::SpannerResult;
    use spanner_graph::generators::{self, WeightModel};
    use spanner_graph::verify::verify_spanner;
    use spanner_graph::Graph;

    fn run(g: &Graph, algorithm: Algorithm, seed: u64) -> SpannerResult {
        SpannerRequest::new(g, algorithm)
            .seed(seed)
            .run()
            .expect("valid request")
            .result
    }

    #[test]
    fn epsilon_setting_picks_2_to_inv_eps() {
        let p = CorollarySetting::Epsilon(0.5).try_params(1000, 64).unwrap();
        assert_eq!(p.t, 4); // 2^{1/0.5} = 4
        let p = CorollarySetting::Epsilon(1.0).try_params(1000, 64).unwrap();
        assert_eq!(p.t, 2);
        // Tiny-but-valid ε saturates into the t ≤ k clamp.
        let p = CorollarySetting::Epsilon(1e-9).try_params(100, 64).unwrap();
        assert_eq!(p.t, 64);
    }

    #[test]
    fn apsp_regime_derives_k_from_n() {
        let p = CorollarySetting::ApspRegime.try_params(1024, 99).unwrap();
        assert_eq!(p.k, 10); // log2(1024)
        assert!(p.t >= 1 && p.t <= p.k);
        let p = CorollarySetting::ApspRegime.try_params(1 << 16, 0).unwrap();
        assert_eq!((p.k, p.t), (16, 4)); // log₂ 65536, log₂ log₂ 65536
    }

    #[test]
    fn all_settings_produce_valid_spanners() {
        let g = generators::connected_erdos_renyi(150, 0.08, WeightModel::Uniform(1, 16), 3);
        for setting in CorollarySetting::all() {
            let r = run(&g, Algorithm::Corollary { setting, k: 8 }, 17);
            let rep = verify_spanner(&g, &r.edges);
            assert!(rep.all_edges_spanned, "{}", r.algorithm);
            assert!(
                rep.max_edge_stretch <= r.stretch_bound + 1e-9,
                "{}: {} > {}",
                r.algorithm,
                rep.max_edge_stretch,
                r.stretch_bound
            );
        }
    }

    #[test]
    fn faster_settings_run_fewer_iterations() {
        let g = generators::connected_erdos_renyi(200, 0.06, WeightModel::Unit, 5);
        let fastest = Algorithm::Corollary {
            setting: CorollarySetting::Fastest,
            k: 16,
        };
        let fast = run(&g, fastest, 7);
        let slow = run(&g, Algorithm::BaswanaSen { k: 16 }, 7);
        assert!(
            fast.iterations < slow.iterations,
            "t=1 ({}) must beat Baswana–Sen ({})",
            fast.iterations,
            slow.iterations
        );
    }

    #[test]
    fn malformed_epsilon_is_an_error_not_a_panic() {
        for eps in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(
                CorollarySetting::Epsilon(eps).try_params(100, 8).is_err(),
                "eps={eps} must be rejected"
            );
        }
        // k = 0 is also a typed error (ApspRegime derives k and ignores it).
        assert!(CorollarySetting::Fastest.try_params(100, 0).is_err());
        assert!(CorollarySetting::ApspRegime.try_params(100, 0).is_ok());
    }
}
