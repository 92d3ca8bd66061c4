//! Parameter schedules and theoretical bounds of the paper's algorithms.
//!
//! Everything the theorems quantify lives here, so experiments can print
//! *predicted vs measured* side by side:
//!
//! * number of epochs `l = ⌈log k / log(t+1)⌉`,
//! * per-epoch sampling probabilities `p_i = n^{-(t+1)^{i-1}/k}`,
//! * stretch exponent `s = log(2t+1)/log(t+1)` and the stretch bound
//!   `2·k^s` of Theorem 5.11,
//! * size bound `O(n^{1+1/k}·(t + log k))` of Theorem 5.15,
//! * iteration count `t·l` (× `O(1/γ)` MPC rounds, Theorem 1.1).

/// A malformed parameter request (`k = 0`, non-positive `ε`, …) —
/// returned by the fallible constructors so a bad request surfaces as a
/// typed error instead of aborting a whole batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParamError(pub String);

impl std::fmt::Display for ParamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ParamError {}

/// Parameters of the general trade-off algorithm (Section 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TradeoffParams {
    /// Target size exponent: the spanner has `O(n^{1+1/k})`-type size.
    pub k: u32,
    /// Growth iterations per epoch (the paper's `t`): `t = 1` is Section 4
    /// (cluster-cluster merging), `t = ⌈√k⌉` Section 3, `t = k` is
    /// Baswana–Sen.
    pub t: u32,
}

impl TradeoffParams {
    /// Creates a parameter set; `t` is clamped into `[1, k]`.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn new(k: u32, t: u32) -> Self {
        assert!(k >= 1, "k must be at least 1");
        TradeoffParams {
            k,
            t: t.clamp(1, k),
        }
    }

    /// The Section 4 special case (`t = 1`).
    pub fn cluster_merging(k: u32) -> Self {
        Self::new(k, 1)
    }

    /// The Section 3 special case (`t = ⌈√k⌉`).
    pub fn sqrt_k(k: u32) -> Self {
        Self::new(k, (k as f64).sqrt().ceil() as u32)
    }

    /// The Baswana–Sen end of the trade-off (`t = k`).
    pub fn baswana_sen(k: u32) -> Self {
        Self::new(k, k)
    }

    /// The `t = log k` sweet spot used for the distance-approximation
    /// application (stretch `k^{1+o(1)}`, `O(log²k / log log k)` rounds).
    pub fn log_k(k: u32) -> Self {
        let t = ((k.max(2) as f64).log2().round() as u32).max(1);
        Self::new(k, t)
    }

    /// Number of epochs `l = ⌈log k / log(t+1)⌉` (at least 1).
    pub fn epochs(&self) -> u32 {
        if self.k == 1 {
            return 0;
        }
        let l = (self.k as f64).ln() / (self.t as f64 + 1.0).ln();
        (l.ceil() as u32).max(1)
    }

    /// Total growth iterations `t · l` — the quantity that multiplies
    /// `O(1/γ)` to give MPC rounds in Theorem 1.1 (saturating at
    /// `u32::MAX`).
    pub fn iterations(&self) -> u32 {
        self.t.saturating_mul(self.epochs())
    }

    /// Sampling probability for epoch `i` (1-based):
    /// `p_i = n^{-(t+1)^{i-1}/k}`.
    pub fn sampling_probability(&self, n: usize, epoch: u32) -> f64 {
        assert!(epoch >= 1, "epochs are 1-based");
        let exponent = (self.t as f64 + 1.0).powi(epoch as i32 - 1) / self.k as f64;
        (n.max(2) as f64).powf(-exponent)
    }

    /// Stretch exponent `s = log(2t+1)/log(t+1)` (Theorem 1.1).
    pub fn stretch_exponent(&self) -> f64 {
        (2.0 * self.t as f64 + 1.0).ln() / (self.t as f64 + 1.0).ln()
    }

    /// The proven stretch guarantee `2·k^s` (Theorem 5.11). For `t = k`
    /// (Baswana–Sen schedule) the specialised bound `2k − 1` is tighter
    /// and returned instead.
    pub fn stretch_bound(&self) -> f64 {
        if self.t == self.k {
            2.0 * self.k as f64 - 1.0
        } else {
            2.0 * (self.k as f64).powf(self.stretch_exponent())
        }
    }

    /// The expected-size guarantee `n^{1+1/k}·(t + log₂k)` of
    /// Theorem 5.15 (without the `O(·)` constant).
    pub fn size_bound(&self, n: usize) -> f64 {
        let logk = (self.k.max(2) as f64).log2();
        (n as f64).powf(1.0 + 1.0 / self.k as f64) * (self.t as f64 + logk)
    }

    /// Expected number of surviving clusters after epoch `i`:
    /// `n^{1 − ((t+1)^i − 1)/k}` (Lemma 5.12).
    pub fn expected_clusters(&self, n: usize, epoch: u32) -> f64 {
        let e = ((self.t as f64 + 1.0).powi(epoch as i32) - 1.0) / self.k as f64;
        (n as f64).powf((1.0 - e).max(0.0))
    }

    /// The radius bound after epoch `i`: `((2t+1)^i − 1)/2`
    /// (Corollary 5.9) — the quantity ablation A1 measures.
    pub fn radius_bound(&self, epoch: u32) -> f64 {
        ((2.0 * self.t as f64 + 1.0).powi(epoch as i32) - 1.0) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_counts_match_paper_extremes() {
        // t = k → one epoch (Baswana–Sen).
        assert_eq!(TradeoffParams::baswana_sen(16).epochs(), 1);
        // t = 1 → log₂ k epochs (Section 4).
        assert_eq!(TradeoffParams::cluster_merging(16).epochs(), 4);
        // t = √k → 2 epochs (Section 3).
        assert_eq!(TradeoffParams::sqrt_k(16).epochs(), 2);
        // k = 1 → nothing to do.
        assert_eq!(TradeoffParams::new(1, 1).epochs(), 0);
    }

    #[test]
    fn probabilities_decrease_doubly_exponentially() {
        let p = TradeoffParams::cluster_merging(16);
        let n = 10_000;
        let p1 = p.sampling_probability(n, 1);
        let p2 = p.sampling_probability(n, 2);
        let p3 = p.sampling_probability(n, 3);
        // p_i = n^{-2^{i-1}/k}: each step squares the suppression.
        assert!((p2 - p1 * p1).abs() < 1e-12);
        assert!((p3 - p2 * p2).abs() < 1e-12);
    }

    #[test]
    fn stretch_exponent_limits() {
        // t = 1 → s = log 3 / log 2 ≈ 1.585 (the k^{log 3} of Section 4).
        let s1 = TradeoffParams::new(64, 1).stretch_exponent();
        assert!((s1 - 3f64.ln() / 2f64.ln()).abs() < 1e-12);
        // t large → s → 1 (stretch k^{1+o(1)}).
        let s_big = TradeoffParams::new(u32::MAX / 4, u32::MAX / 4).stretch_exponent();
        assert!(s_big < 1.1);
    }

    #[test]
    fn baswana_sen_bound_is_2k_minus_1() {
        assert_eq!(TradeoffParams::baswana_sen(8).stretch_bound(), 15.0);
    }

    #[test]
    fn bounds_hold_at_the_largest_k() {
        // t = k takes the specialised 2k − 1; t = 2³¹ needs two epochs.
        let bs = TradeoffParams::baswana_sen(u32::MAX);
        assert_eq!(bs.stretch_bound(), 2.0 * u32::MAX as f64 - 1.0);
        assert_eq!((bs.epochs(), bs.iterations()), (1, u32::MAX));
        let p = TradeoffParams::new(u32::MAX, 1 << 31);
        assert_eq!((p.epochs(), p.iterations()), (2, u32::MAX));
        for p in [bs, p] {
            assert!(p.stretch_exponent() > 1.0 && p.stretch_bound().is_finite());
            assert!(p.sampling_probability(1 << 20, 2) > 0.0);
            assert!(p.expected_clusters(1 << 20, 1) >= 1.0);
            assert_eq!(p.radius_bound(1), p.t as f64);
        }
    }

    #[test]
    fn radius_bound_growth_factor() {
        let p = TradeoffParams::new(64, 2);
        // r(i) = ((2t+1)^i − 1)/2 satisfies r(i) = (2t+1)·r(i−1) + t.
        for i in 1..4 {
            let r_prev = p.radius_bound(i);
            let r = p.radius_bound(i + 1);
            assert!((r - (5.0 * r_prev + 2.0)).abs() < 1e-9);
        }
    }

    #[test]
    fn expected_clusters_hits_n_to_the_one_over_k() {
        let p = TradeoffParams::cluster_merging(16);
        let n = 100_000usize;
        let after_last = p.expected_clusters(n, p.epochs());
        let target = (n as f64).powf(1.0 / 16.0);
        assert!((after_last - target).abs() / target < 1e-9);
    }

    #[test]
    fn t_is_clamped() {
        assert_eq!(TradeoffParams::new(4, 99).t, 4);
        assert_eq!(TradeoffParams::new(4, 0).t, 1);
    }

    #[test]
    #[should_panic(expected = "k must be at least 1")]
    fn zero_k_rejected() {
        let _ = TradeoffParams::new(0, 1);
    }
}
