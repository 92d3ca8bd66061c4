//! Round / memory / traffic accounting.

use std::collections::BTreeMap;

use spanner_net::{NetworkModel, WORD_BYTES};

/// Execution statistics accumulated by an [`crate::MpcSystem`].
///
/// `rounds` is the headline number every experiment reports; the rest
/// exists to sanity-check the model constraints, to break rounds down
/// by primitive (the per-`op` map feeds experiment E9), and to price the
/// run on a concrete network ([`Self::predicted_seconds`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Metrics {
    /// Synchronous communication rounds executed so far.
    pub rounds: u64,
    /// Total words ever communicated.
    pub total_comm_words: u64,
    /// Largest number of words any machine sent in a single round.
    pub max_send_words: usize,
    /// Largest number of words any machine received in a single round.
    pub max_recv_words: usize,
    /// Sum over rounds of `max(busiest send, busiest receive)` — the
    /// exact critical-link total, so a `FullMesh` prediction from these
    /// aggregates equals the per-round sum (maxima don't distribute
    /// over sums, so totals alone would under-charge skewed rounds).
    pub critical_link_words: u64,
    /// Largest number of words any machine ever held.
    pub peak_machine_words: usize,
    /// Rounds attributed to each primitive label.
    pub rounds_by_op: BTreeMap<&'static str, u64>,
}

impl Metrics {
    /// Records one communication round attributed to `op`.
    pub fn add_round(&mut self, op: &'static str) {
        self.rounds += 1;
        *self.rounds_by_op.entry(op).or_insert(0) += 1;
    }

    /// Folds per-round traffic extremes into the running maxima and the
    /// critical-path accumulator.
    pub fn observe_traffic(&mut self, sent: usize, received: usize, total: u64) {
        self.max_send_words = self.max_send_words.max(sent);
        self.max_recv_words = self.max_recv_words.max(received);
        self.critical_link_words += sent.max(received) as u64;
        self.total_comm_words += total;
    }

    /// Folds a storage observation into the peak.
    pub fn observe_storage(&mut self, words: usize) {
        self.peak_machine_words = self.peak_machine_words.max(words);
    }

    /// Folds the metrics of a later phase (e.g. the Section 7 gather,
    /// run on its own system) into these: rounds and words add, the
    /// per-round and per-machine maxima take the larger value.
    pub fn absorb(&mut self, other: &Metrics) {
        self.rounds += other.rounds;
        for (&op, &rounds) in &other.rounds_by_op {
            *self.rounds_by_op.entry(op).or_insert(0) += rounds;
        }
        self.total_comm_words += other.total_comm_words;
        self.critical_link_words += other.critical_link_words;
        self.max_send_words = self.max_send_words.max(other.max_send_words);
        self.max_recv_words = self.max_recv_words.max(other.max_recv_words);
        self.peak_machine_words = self.peak_machine_words.max(other.peak_machine_words);
    }

    /// Predicted cluster wall-clock of the rounds so far under `model`,
    /// in simulated seconds: the sum of [`NetworkModel::round_cost`] over
    /// every round, in closed form.
    pub fn predicted_seconds(&self, model: NetworkModel) -> f64 {
        model.predict(
            self.rounds,
            self.critical_link_words * WORD_BYTES,
            self.total_comm_words * WORD_BYTES,
        )
    }

    /// Pretty one-line summary for experiment tables.
    pub fn summary(&self) -> String {
        format!(
            "rounds={} peak_mem={}w max_send={}w max_recv={}w total_comm={}w crit_link={}w",
            self.rounds,
            self.peak_machine_words,
            self.max_send_words,
            self.max_recv_words,
            self.total_comm_words,
            self.critical_link_words
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounds_accumulate_per_op() {
        let mut m = Metrics::default();
        m.add_round("sort");
        m.add_round("sort");
        m.add_round("route");
        assert_eq!(m.rounds, 3);
        assert_eq!(m.rounds_by_op["sort"], 2);
        assert_eq!(m.rounds_by_op["route"], 1);
    }

    #[test]
    fn traffic_and_storage_track_maxima() {
        let mut m = Metrics::default();
        m.observe_traffic(10, 20, 30);
        m.observe_traffic(5, 40, 45);
        m.observe_storage(100);
        m.observe_storage(50);
        assert_eq!(m.max_send_words, 10);
        assert_eq!(m.max_recv_words, 40);
        assert_eq!(m.total_comm_words, 75);
        assert_eq!(m.peak_machine_words, 100);
        assert!(m.summary().contains("rounds=0"));
        // The critical link sums per-round skew, not just maxima: rounds
        // were (10,20) and (5,40), so it carried 20 + 40 words even
        // though no single direction's max exceeds 40.
        assert_eq!(m.critical_link_words, 60);
        assert!(m.summary().contains("crit_link=60w"));
    }

    #[test]
    fn absorb_adds_counts_and_keeps_maxima() {
        let mut build = Metrics::default();
        build.add_round("sort");
        build.add_round("route");
        build.observe_traffic(10, 4, 30);
        build.observe_traffic(2, 3, 5);
        build.observe_storage(100);
        let mut gather = Metrics::default();
        gather.add_round("sort");
        gather.add_round("collect");
        gather.observe_traffic(6, 50, 50);
        gather.observe_storage(60);

        build.absorb(&gather);
        assert_eq!(build.rounds, 4);
        assert_eq!(build.rounds_by_op["sort"], 2);
        assert_eq!(build.rounds_by_op["route"], 1);
        assert_eq!(build.rounds_by_op["collect"], 1);
        assert_eq!(build.total_comm_words, 85);
        assert_eq!(build.critical_link_words, 10 + 3 + 50);
        assert_eq!(build.max_send_words, 10);
        assert_eq!(build.max_recv_words, 50);
        assert_eq!(build.peak_machine_words, 100);
    }
}
