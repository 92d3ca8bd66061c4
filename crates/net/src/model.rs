//! Pluggable network cost models.
//!
//! The MPC model counts *rounds*; a cost model converts each executed
//! round into simulated seconds so competing algorithms (round-frugal
//! vs bandwidth-frugal) can be ranked on a concrete cluster shape. The
//! charge is the classic latency/bandwidth form: a round costs its
//! fixed latency plus the bytes crossing the most loaded link divided
//! by the link bandwidth.
//!
//! Models never read the host clock — the simulated time is a pure
//! function of the traffic the runtime measured.

/// Bytes per machine word (the runtime accounts traffic in 64-bit words).
pub const WORD_BYTES: u64 = 8;

/// A network shape that prices one synchronous round.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum NetworkModel {
    /// Zero-cost network: rounds are free, so every prediction is 0 s.
    Ideal,
    /// Every machine pair has a private link: a round costs the fixed
    /// latency plus the busiest endpoint's bytes over its link speed.
    FullMesh {
        /// Per-round fixed latency, in seconds.
        latency_s: f64,
        /// Per-machine link bandwidth, in bytes per second.
        bytes_per_sec: f64,
    },
    /// A switched fabric limited by its bisection: a round costs the
    /// round's total bytes over the bisection bandwidth.
    Switched {
        /// Bisection bandwidth, in bytes per second.
        bisection_bytes_per_sec: f64,
    },
}

impl NetworkModel {
    /// Simulated cost of one round, given the busiest sender's bytes,
    /// the busiest receiver's bytes, and the round's total bytes.
    pub fn round_cost(&self, max_sent_bytes: u64, max_recv_bytes: u64, total_bytes: u64) -> f64 {
        match *self {
            NetworkModel::Ideal => 0.0,
            NetworkModel::FullMesh {
                latency_s,
                bytes_per_sec,
            } => {
                let critical = max_sent_bytes.max(max_recv_bytes) as f64;
                // analyze:allow(panic-path): f64 operands — float division cannot trap
                latency_s + critical / bytes_per_sec
            }
            NetworkModel::Switched {
                bisection_bytes_per_sec,
            } => total_bytes as f64 / bisection_bytes_per_sec,
        }
    }

    /// Closed-form prediction from aggregate metrics: `rounds` rounds
    /// whose summed per-round critical-link bytes are
    /// `critical_link_bytes` and whose summed traffic is `total_bytes`.
    /// Equals the sum of [`Self::round_cost`] over the rounds (each
    /// round's `max(sent, received)` is summed before it reaches here),
    /// so a run's accumulated metrics price it without a per-round log.
    pub fn predict(&self, rounds: u64, critical_link_bytes: u64, total_bytes: u64) -> f64 {
        match *self {
            NetworkModel::Ideal => 0.0,
            NetworkModel::FullMesh {
                latency_s,
                bytes_per_sec,
            } => rounds as f64 * latency_s + critical_link_bytes as f64 / bytes_per_sec,
            NetworkModel::Switched {
                bisection_bytes_per_sec,
            } => total_bytes as f64 / bisection_bytes_per_sec,
        }
    }

    /// Short label for experiment tables.
    pub fn label(&self) -> String {
        match *self {
            NetworkModel::Ideal => "ideal".into(),
            NetworkModel::FullMesh {
                latency_s,
                bytes_per_sec,
            } => format!(
                "mesh({:.0}us,{:.1}GB/s)",
                latency_s * 1e6,
                bytes_per_sec / 1e9
            ),
            NetworkModel::Switched {
                bisection_bytes_per_sec,
            } => format!("switch({:.1}GB/s)", bisection_bytes_per_sec / 1e9),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mesh(latency_s: f64, bytes_per_sec: f64) -> NetworkModel {
        NetworkModel::FullMesh {
            latency_s,
            bytes_per_sec,
        }
    }

    #[test]
    fn ideal_is_free() {
        assert_eq!(
            NetworkModel::Ideal.round_cost(1 << 20, 1 << 20, 1 << 30),
            0.0
        );
        assert_eq!(NetworkModel::Ideal.predict(1000, 1 << 30, 1 << 40), 0.0);
    }

    #[test]
    fn full_mesh_cost_is_monotone_in_latency() {
        let lo = mesh(1e-4, 1e9).round_cost(4096, 8192, 65536);
        let hi = mesh(1e-3, 1e9).round_cost(4096, 8192, 65536);
        assert!(hi > lo, "higher latency must cost more: {hi} vs {lo}");
        let plo = mesh(1e-4, 1e9).predict(50, 1 << 20, 1 << 24);
        let phi = mesh(1e-3, 1e9).predict(50, 1 << 20, 1 << 24);
        assert!(phi > plo, "predicted time must grow with latency");
    }

    #[test]
    fn full_mesh_cost_is_inversely_monotone_in_bandwidth() {
        let slow = mesh(1e-4, 1e8).round_cost(4096, 8192, 65536);
        let fast = mesh(1e-4, 1e10).round_cost(4096, 8192, 65536);
        assert!(
            slow > fast,
            "more bandwidth must cost less: {slow} vs {fast}"
        );
        let pslow = mesh(1e-4, 1e8).predict(50, 1 << 20, 1 << 24);
        let pfast = mesh(1e-4, 1e10).predict(50, 1 << 20, 1 << 24);
        assert!(pslow > pfast, "predicted time must shrink with bandwidth");
    }

    #[test]
    fn full_mesh_charges_the_busier_direction() {
        let m = mesh(0.0, 1.0);
        assert_eq!(m.round_cost(10, 4, 100), 10.0);
        assert_eq!(m.round_cost(4, 10, 100), 10.0);
    }

    #[test]
    fn switched_charges_total_over_bisection() {
        let m = NetworkModel::Switched {
            bisection_bytes_per_sec: 100.0,
        };
        assert_eq!(m.round_cost(1, 1, 250), 2.5);
        assert_eq!(m.predict(7, 0, 1000), 10.0);
    }

    #[test]
    fn predict_matches_summed_round_costs() {
        // Two rounds with distinct traffic shapes; predict() from the
        // aggregated quantities must equal the per-round sum.
        let m = mesh(2e-3, 1e6);
        let rounds = [(1000u64, 400u64, 5000u64), (300, 2000, 7000)];
        let summed: f64 = rounds.iter().map(|&(s, r, t)| m.round_cost(s, r, t)).sum();
        let critical: u64 = rounds.iter().map(|&(s, r, _)| s.max(r)).sum();
        let total: u64 = rounds.iter().map(|&(_, _, t)| t).sum();
        let predicted = m.predict(rounds.len() as u64, critical, total);
        assert!(
            (summed - predicted).abs() < 1e-12,
            "{summed} vs {predicted}"
        );
    }
}
