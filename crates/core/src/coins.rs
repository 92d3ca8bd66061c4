//! Shared randomness for cluster sampling.
//!
//! Every implementation of the paper's algorithms (the sequential
//! reference engine, the distributed MPC driver, the Congested Clique
//! simulation, the PRAM layer) draws its cluster-sampling coins from this
//! one deterministic function of `(seed, epoch, iteration, cluster id)`.
//!
//! This mirrors the *shared randomness* assumption the paper itself uses
//! (Appendix B equips every vertex with a public random tape), and it is
//! what makes the implementations **bit-for-bit comparable**: given the
//! same seed and tie-breaking rules they must output the same spanner,
//! which the integration tests check.

/// The SplitMix64 mixer, shared with the MPC runtime's key routing.
pub use mpc_runtime::primitives::splitmix64;

/// The coin for cluster `cluster` at `(epoch, iteration)`: `true` with
/// probability `p` (deterministically, from the shared seed).
#[inline]
pub fn cluster_coin(seed: u64, epoch: u32, iteration: u32, cluster: u32, p: f64) -> bool {
    let mut h = splitmix64(seed);
    h = splitmix64(h ^ (epoch as u64).wrapping_mul(0xd134_2543_de82_ef95));
    h = splitmix64(h ^ (iteration as u64).wrapping_mul(0x2545_f491_4f6c_dd1d));
    h = splitmix64(h ^ cluster as u64);
    // Map to [0, 1): use the top 53 bits for an exact double.
    let u = (h >> 11) as f64 / (1u64 << 53) as f64;
    u < p
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coin_is_deterministic() {
        for c in 0..100 {
            assert_eq!(cluster_coin(7, 1, 2, c, 0.5), cluster_coin(7, 1, 2, c, 0.5));
        }
    }

    #[test]
    fn coin_rate_tracks_probability() {
        for &p in &[0.1, 0.5, 0.9] {
            let hits = (0..20_000)
                .filter(|&c| cluster_coin(42, 3, 1, c, p))
                .count() as f64
                / 20_000.0;
            assert!((hits - p).abs() < 0.02, "p={p} hits={hits}");
        }
    }

    #[test]
    fn coin_depends_on_all_coordinates() {
        let base: Vec<bool> = (0..64).map(|c| cluster_coin(1, 1, 1, c, 0.5)).collect();
        let diff_seed: Vec<bool> = (0..64).map(|c| cluster_coin(2, 1, 1, c, 0.5)).collect();
        let diff_epoch: Vec<bool> = (0..64).map(|c| cluster_coin(1, 2, 1, c, 0.5)).collect();
        let diff_iter: Vec<bool> = (0..64).map(|c| cluster_coin(1, 1, 2, c, 0.5)).collect();
        assert_ne!(base, diff_seed);
        assert_ne!(base, diff_epoch);
        assert_ne!(base, diff_iter);
    }

    #[test]
    fn extreme_probabilities() {
        assert!(!cluster_coin(1, 1, 1, 5, 0.0));
        assert!(cluster_coin(1, 1, 1, 5, 1.0));
    }
}
