//! The [`MpcSystem`]: configuration + accounting context through which all
//! primitives execute.

use crate::config::MpcConfig;
use crate::error::MpcError;
use crate::metrics::Metrics;
use crate::record::Record;
use crate::Result;

/// One simulated MPC deployment.
///
/// All primitives take `&mut MpcSystem` so that round counting, traffic
/// accounting, and constraint checking flow through a single place.
#[derive(Debug, Clone)]
pub struct MpcSystem {
    cfg: MpcConfig,
    metrics: Metrics,
}

impl MpcSystem {
    /// A fresh deployment with zeroed metrics.
    pub fn new(cfg: MpcConfig) -> Self {
        MpcSystem {
            cfg,
            metrics: Metrics::default(),
        }
    }

    /// The deployment configuration.
    #[inline]
    pub fn cfg(&self) -> &MpcConfig {
        &self.cfg
    }

    /// Number of machines.
    #[inline]
    pub fn machines(&self) -> usize {
        self.cfg.num_machines
    }

    /// Accumulated execution statistics.
    #[inline]
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Rounds executed so far (shorthand).
    #[inline]
    pub fn rounds(&self) -> u64 {
        self.metrics.rounds
    }

    /// Resets metrics (e.g. to time a phase in isolation).
    pub fn reset_metrics(&mut self) {
        self.metrics = Metrics::default();
    }

    /// Records one executed communication round attributed to `op`. The
    /// two pairs are `(machine, words)` of the round's busiest sender and
    /// receiver; rounds priced by formula name machine 0 (see
    /// [`MpcError::BandwidthExceeded`]).
    pub(crate) fn charge_round(
        &mut self,
        op: &'static str,
        (sender, max_sent): (usize, usize),
        (receiver, max_received): (usize, usize),
        total: u64,
    ) -> Result<()> {
        self.metrics.add_round(op);
        self.metrics.observe_traffic(max_sent, max_received, total);
        let cap = self.cfg.capacity();
        if max_sent > cap {
            return Err(MpcError::BandwidthExceeded {
                machine: sender,
                words: max_sent,
                capacity: cap,
                direction: "send",
                op,
            });
        }
        if max_received > cap {
            return Err(MpcError::BandwidthExceeded {
                machine: receiver,
                words: max_received,
                capacity: cap,
                direction: "recv",
                op,
            });
        }
        Ok(())
    }

    /// Validates that machine `idx` may hold `words` words; records the
    /// observation into the peak-storage metric.
    pub(crate) fn check_storage(
        &mut self,
        machine: usize,
        words: usize,
        op: &'static str,
    ) -> Result<()> {
        self.metrics.observe_storage(words);
        let cap = self.cfg.capacity();
        if words > cap {
            return Err(MpcError::MemoryExceeded {
                machine,
                words,
                capacity: cap,
                op,
            });
        }
        Ok(())
    }

    /// Validates the storage of every shard of a collection.
    pub(crate) fn check_all_storage<T: Record>(
        &mut self,
        shards: &[Vec<T>],
        op: &'static str,
    ) -> Result<()> {
        for (i, shard) in shards.iter().enumerate() {
            self.check_storage(i, shard.len() * T::WORDS, op)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NetworkModel, WORD_BYTES};

    #[test]
    fn charge_round_counts_and_checks() {
        let mut sys = MpcSystem::new(MpcConfig::explicit(8, 4, 1));
        sys.charge_round("test", (0, 8), (1, 8), 16).unwrap();
        assert_eq!(sys.rounds(), 1);
        let err = sys.charge_round("test", (2, 9), (0, 0), 9).unwrap_err();
        assert!(matches!(
            err,
            MpcError::BandwidthExceeded {
                machine: 2,
                direction: "send",
                ..
            }
        ));
        // The round is still counted (the violation happened *in* a round).
        assert_eq!(sys.rounds(), 2);
    }

    #[test]
    fn storage_check_enforces_capacity() {
        let mut sys = MpcSystem::new(MpcConfig::explicit(8, 2, 2));
        sys.check_storage(0, 16, "x").unwrap();
        let err = sys.check_storage(1, 17, "x").unwrap_err();
        assert!(matches!(err, MpcError::MemoryExceeded { machine: 1, .. }));
        assert_eq!(sys.metrics().peak_machine_words, 17);
    }

    #[test]
    fn reset_clears_metrics() {
        let mut sys = MpcSystem::new(MpcConfig::explicit(8, 2, 2));
        sys.charge_round("a", (0, 1), (1, 1), 2).unwrap();
        sys.reset_metrics();
        assert_eq!(sys.rounds(), 0);
    }

    #[test]
    fn predicted_seconds_sums_the_round_costs() {
        let mut sys = MpcSystem::new(MpcConfig::explicit(64, 4, 1));
        // Two rounds of different skew: the send side is busier in the
        // first, the receive side in the second.
        let rounds = [((0, 10), (1, 4), 20u64), ((2, 2), (3, 8), 12)];
        for (sent, received, total) in rounds {
            sys.charge_round("a", sent, received, total).unwrap();
        }
        let models = [
            NetworkModel::FullMesh {
                latency_s: 1e-3,
                bytes_per_sec: 1e6,
            },
            NetworkModel::Switched {
                bisection_bytes_per_sec: 1e5,
            },
        ];
        for model in models {
            let summed: f64 = rounds
                .iter()
                .map(|&((_, s), (_, r), t)| {
                    model.round_cost(s as u64 * WORD_BYTES, r as u64 * WORD_BYTES, t * WORD_BYTES)
                })
                .sum();
            let predicted = sys.metrics().predicted_seconds(model);
            assert!(
                (predicted - summed).abs() < 1e-12,
                "{}: {predicted} vs {summed}",
                model.label()
            );
        }
    }
}
