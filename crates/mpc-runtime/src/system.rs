//! The [`MpcSystem`]: configuration + accounting context through which all
//! primitives execute.

use std::sync::Arc;

use spanner_net::{MachinePool, NetReport, NetworkModel, WORD_BYTES};

use crate::config::MpcConfig;
use crate::error::MpcError;
use crate::metrics::Metrics;
use crate::record::Record;
use crate::Result;

/// Which physical engine executes the simulated machines.
///
/// Both engines run the same algorithms with the same accounting and
/// produce bit-identical shards, rounds, and traffic at fixed seeds;
/// `Threaded` additionally moves every round's messages between real OS
/// threads and prices the run under a [`NetworkModel`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub enum ExecutorKind {
    /// Data-parallel loop over machine shards (the original engine).
    #[default]
    Loop,
    /// One OS thread per machine, exchanging per-round message batches
    /// through a router, with rounds priced by the given model.
    Threaded(NetworkModel),
}

/// The threaded engine's state: the shared thread pool plus the
/// simulated-clock report it accumulates.
#[derive(Debug, Clone)]
struct NetExec {
    model: NetworkModel,
    pool: Arc<MachinePool>,
    report: NetReport,
}

/// One simulated MPC deployment.
///
/// All primitives take `&mut MpcSystem` so that round counting, traffic
/// accounting, and constraint checking flow through a single place.
#[derive(Debug, Clone)]
pub struct MpcSystem {
    cfg: MpcConfig,
    metrics: Metrics,
    net: Option<NetExec>,
}

impl MpcSystem {
    /// A fresh deployment with zeroed metrics on the loop executor.
    pub fn new(cfg: MpcConfig) -> Self {
        Self::with_executor(cfg, ExecutorKind::Loop)
    }

    /// A fresh deployment on the chosen executor. `Threaded` spawns one
    /// OS thread per machine up front (parked between rounds); clones of
    /// the system share the same pool.
    pub fn with_executor(cfg: MpcConfig, executor: ExecutorKind) -> Self {
        let net = match executor {
            ExecutorKind::Loop => None,
            ExecutorKind::Threaded(model) => Some(NetExec {
                model,
                pool: Arc::new(MachinePool::spawn(cfg.num_machines)),
                report: NetReport::new(cfg.num_machines),
            }),
        };
        MpcSystem {
            cfg,
            metrics: Metrics::default(),
            net,
        }
    }

    /// Which executor this system runs on.
    pub fn executor(&self) -> ExecutorKind {
        match &self.net {
            None => ExecutorKind::Loop,
            Some(net) => ExecutorKind::Threaded(net.model),
        }
    }

    /// The simulated-clock network report (threaded executor only).
    pub fn net_report(&self) -> Option<&NetReport> {
        self.net.as_ref().map(|net| &net.report)
    }

    /// Handle to the machine-thread pool, if the threaded engine is on.
    pub(crate) fn pool_handle(&self) -> Option<Arc<MachinePool>> {
        self.net.as_ref().map(|net| Arc::clone(&net.pool))
    }

    /// Folds one physical exchange's per-machine wire traffic (in words)
    /// into the network report.
    pub(crate) fn note_exchange_traffic(&mut self, sent_words: &[u64], recv_words: &[u64]) {
        if let Some(net) = &mut self.net {
            net.report.add_traffic_words(sent_words, recv_words);
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

    /// Resets metrics and the network report (e.g. to time a phase in
    /// isolation).
    pub fn reset_metrics(&mut self) {
        self.metrics = Metrics::default();
        if let Some(net) = &mut self.net {
            net.report = NetReport::new(self.cfg.num_machines);
        }
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
        if let Some(net) = &mut self.net {
            let cost = net.model.round_cost(
                max_sent as u64 * WORD_BYTES,
                max_received as u64 * WORD_BYTES,
                total * WORD_BYTES,
            );
            net.report.observe_round(cost);
        }
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
    fn loop_executor_has_no_net_report() {
        let sys = MpcSystem::new(MpcConfig::explicit(8, 2, 2));
        assert_eq!(sys.executor(), ExecutorKind::Loop);
        assert!(sys.net_report().is_none());
        assert!(sys.pool_handle().is_none());
    }

    #[test]
    fn threaded_executor_prices_every_round() {
        let model = spanner_net::NetworkModel::FullMesh {
            latency_s: 1e-3,
            bytes_per_sec: 1e6,
        };
        let mut sys =
            MpcSystem::with_executor(MpcConfig::explicit(64, 4, 1), ExecutorKind::Threaded(model));
        assert_eq!(sys.executor(), ExecutorKind::Threaded(model));
        sys.charge_round("a", (0, 10), (1, 4), 20).unwrap();
        sys.charge_round("b", (0, 2), (1, 8), 12).unwrap();
        let report = sys.net_report().expect("threaded runs carry a report");
        assert_eq!(report.rounds, 2);
        // Each round: latency + busier-direction bytes / bandwidth.
        let expected = (1e-3 + 80.0 / 1e6) + (1e-3 + 64.0 / 1e6);
        assert!((report.total_seconds - expected).abs() < 1e-12);
        sys.reset_metrics();
        assert_eq!(sys.net_report().unwrap().rounds, 0);
    }
}
