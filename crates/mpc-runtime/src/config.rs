//! MPC configuration: machine sizes and counts, tree fan-outs.

/// Static description of an MPC deployment.
///
/// `machine_words` is the paper's `S`; `num_machines` its `P`. The product
/// `P·S` must cover the input (`Õ(N)` total memory); the `slack` factor is
/// the constant hidden in the paper's `O(S)` per-machine guarantees —
/// machines may hold/send/receive up to `slack·S` words per round before
/// the simulator reports a violation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MpcConfig {
    /// Local memory per machine, in words (`S`).
    pub machine_words: usize,
    /// Number of machines (`P`).
    pub num_machines: usize,
    /// Constant-factor slack on the memory/bandwidth constraints.
    pub slack: usize,
}

impl MpcConfig {
    /// Strongly sublinear configuration for a graph with `n` vertices and
    /// `input_words` total input size: `S = ⌈n^γ⌉`, `P = ⌈c·input/S⌉`.
    ///
    /// # Panics
    /// Panics if `γ ∉ (0, 1)`.
    pub fn strongly_sublinear(n: usize, gamma: f64, input_words: usize) -> Self {
        assert!(
            gamma > 0.0 && gamma < 1.0,
            "gamma must be in (0,1), got {gamma}"
        );
        let s = (n.max(2) as f64).powf(gamma).ceil() as usize;
        // Floor: a machine must hold at least a few hundred words for the
        // model to be meaningful (records are up to 8 words; real MPC
        // machines are gigabytes). Only relevant for toy-scale `n`.
        let s = s.max(512);
        let p = input_words.div_ceil(s).max(2);
        MpcConfig {
            machine_words: s,
            num_machines: p,
            slack: 8,
        }
    }

    /// Near-linear configuration: `S = n·⌈log₂ n⌉` (the `Õ(n)` of
    /// Corollary 1.4), machine count covering the input.
    pub fn near_linear(n: usize, input_words: usize) -> Self {
        let n = n.max(2);
        let s = n * (n as f64).log2().ceil().max(1.0) as usize;
        let p = input_words.div_ceil(s).max(2);
        MpcConfig {
            machine_words: s,
            num_machines: p,
            slack: 8,
        }
    }

    /// Fully explicit configuration (used by the runtime's own tests).
    pub fn explicit(machine_words: usize, num_machines: usize, slack: usize) -> Self {
        MpcConfig {
            machine_words,
            num_machines,
            slack,
        }
    }

    /// The enforced per-machine capacity in words (`slack · S`).
    #[inline]
    pub fn capacity(&self) -> usize {
        self.machine_words.saturating_mul(self.slack)
    }

    /// Aggregation-tree fan-out for records of `rec_words` words: as many
    /// children as fit the per-round receive budget (the paper's implicit
    /// `n^γ`-ary trees), never below 2.
    #[inline]
    pub fn fanout(&self, rec_words: usize) -> usize {
        (self.machine_words / rec_words.max(1)).max(2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sublinear_config_covers_input() {
        let cfg = MpcConfig::strongly_sublinear(10_000, 0.5, 200_000);
        assert!(cfg.machine_words >= 100); // n^0.5
        assert!(cfg.num_machines * cfg.machine_words >= 200_000);
    }

    #[test]
    fn smaller_gamma_means_more_machines() {
        let a = MpcConfig::strongly_sublinear(10_000, 0.3, 500_000);
        let b = MpcConfig::strongly_sublinear(10_000, 0.7, 500_000);
        assert!(a.machine_words < b.machine_words);
        assert!(a.num_machines > b.num_machines);
    }

    #[test]
    fn near_linear_has_big_machines() {
        let cfg = MpcConfig::near_linear(1_000, 50_000);
        assert!(cfg.machine_words >= 1_000);
    }

    #[test]
    #[should_panic(expected = "gamma must be in (0,1)")]
    fn rejects_bad_gamma() {
        let _ = MpcConfig::strongly_sublinear(100, 1.5, 100);
    }

    #[test]
    fn fanout_floor_is_two() {
        let cfg = MpcConfig::explicit(4, 8, 2);
        assert_eq!(cfg.fanout(1), 4);
        assert_eq!(cfg.fanout(100), 2);
    }
}
