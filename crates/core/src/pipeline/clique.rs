//! The Congested Clique round/bandwidth model and the Theorem 8.1
//! executor of a schedule (the pipeline's `Backend::CongestedClique`).
//!
//! `n` nodes; per round, every ordered pair of nodes may exchange one
//! message of `O(log n)` bits — we count in *words* (one word =
//! `O(log n)` bits), with `b_words` words per pairwise message (1 by
//! default). A node may therefore send and receive up to `(n−1)·b_words`
//! words per round.
//!
//! The primitives charge rounds for the *measured* loads the algorithms
//! feed them; nothing is asserted about loads in advance.
//!
//! Section 8 runs through the pipeline: Theorem 8.1 is a
//! [`SpannerRequest`](super::SpannerRequest) on
//! `Backend::CongestedClique { repetitions }`, and Corollary 1.5 is a
//! [`DistanceRequest`](super::DistanceRequest) on the same backend,
//! whose build adds [`CcNetwork::disseminate_to_all`] of the spanner.

use crate::coins::splitmix64;
use crate::engine::{Engine, Trial};
use crate::general::Executor;
use crate::result::SpannerResult;
use spanner_graph::Graph;

use super::{CcStats, ExecutionStats, PipelineError};

/// The accounting context for one Congested Clique execution.
#[derive(Debug, Clone)]
pub struct CcNetwork {
    /// Number of nodes (= vertices of the input graph).
    pub n: usize,
    /// Words per pairwise message per round (the `O(log n)` bits).
    pub b_words: usize,
    /// Rounds executed.
    rounds: u64,
    /// Total words communicated (for reporting).
    total_words: u64,
    /// The constant charged for one application of Lenzen's routing
    /// theorem (the theorem's `O(1)`; 2 here: one distribution round,
    /// one delivery round).
    pub lenzen_constant: u64,
}

impl CcNetwork {
    /// A fresh clique on `n` nodes with 1-word messages.
    pub fn new(n: usize) -> Self {
        CcNetwork {
            n,
            b_words: 1,
            rounds: 0,
            total_words: 0,
            lenzen_constant: 2,
        }
    }

    /// Rounds executed so far.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Total words communicated so far.
    pub fn total_words(&self) -> u64 {
        self.total_words
    }

    /// Per-node per-round receive budget in words.
    pub fn node_budget(&self) -> usize {
        self.n.saturating_sub(1) * self.b_words
    }

    /// Every node sends the same `words`-word payload to every other
    /// node (e.g. its cluster label, or its packed repetition coins).
    /// Rounds: `⌈words / b_words⌉` — each round carries `b_words` more
    /// words of the payload to everyone.
    pub fn broadcast_from_all(&mut self, words: usize) -> u64 {
        let r = words.div_ceil(self.b_words).max(1) as u64;
        self.rounds += r;
        self.total_words += (self.n * self.n.saturating_sub(1) * words) as u64;
        r
    }

    /// Lenzen routing: an arbitrary message multiset where node `i`
    /// sends `sends[i]` words and receives `recvs[i]` words. The theorem
    /// delivers any instance with ≤ `n` messages per node in `O(1)`
    /// rounds; heavier loads are split into `⌈load / budget⌉` batches.
    pub fn lenzen_route(&mut self, sends: &[usize], recvs: &[usize]) -> u64 {
        assert_eq!(sends.len(), self.n, "one send load per node");
        assert_eq!(recvs.len(), self.n, "one receive load per node");
        let max_send = sends.iter().copied().max().unwrap_or(0);
        let max_recv = recvs.iter().copied().max().unwrap_or(0);
        let budget = self.node_budget().max(1);
        let batches = max_send.max(max_recv).div_ceil(budget).max(1) as u64;
        let r = batches * self.lenzen_constant;
        self.rounds += r;
        self.total_words += sends.iter().map(|&s| s as u64).sum::<u64>();
        r
    }

    /// All-to-all dissemination: `total_words` of information (spread
    /// arbitrarily among the nodes) must become known to **every** node.
    /// Each node can receive `(n−1)·b_words` words per round, so this is
    /// `⌈total / budget⌉` rounds plus the Lenzen constant for the
    /// initial rebalancing (the Corollary 1.5 "collect the spanner at
    /// all nodes via Lenzen's routing" step).
    pub fn disseminate_to_all(&mut self, total_words: usize) -> u64 {
        let budget = self.node_budget().max(1);
        let r = (total_words.div_ceil(budget) as u64).max(1) + self.lenzen_constant;
        self.rounds += r;
        self.total_words += (total_words * self.n) as u64;
        r
    }

    /// Charges `r` literal rounds (for fixed-schedule steps like the
    /// collector tallies of Section 8).
    pub fn charge_rounds(&mut self, r: u64, words: u64) {
        self.rounds += r;
        self.total_words += words;
    }
}

/// Seed for repetition `r` of a base seed (run 0 = the base seed, so a
/// single-repetition execution matches the sequential reference).
pub(crate) fn run_seed(base: u64, r: usize) -> u64 {
    if r == 0 {
        base
    } else {
        splitmix64(base ^ (0xC11C + r as u64))
    }
}

/// Theorem 8.1: a schedule in the Congested Clique, with the
/// parallel-repetition trick for a w.h.p. size bound (the pipeline's
/// `Backend::CongestedClique` executor).
///
/// Cluster-state evolution reuses the engine semantics (the exact Step
/// B/C rules of [`crate::engine`]); this executor adds what Section 8 is
/// actually about:
///
/// * the **communication schedule** and its round cost in the clique
///   model — label broadcasts, candidate aggregation at cluster centres
///   (Lenzen routing with measured fan-ins), membership updates,
///   contraction relabels;
/// * the **parallel repetition**: per iteration, every cluster centre
///   draws `R` coins and broadcasts them as one packed `O(log n)`-bit
///   message; `R` collector nodes tally, for each run, the number of
///   sampled clusters and the number of edges the run would add; all
///   nodes then commit — deterministically, from the same tallies — to
///   the cheapest run whose sampled-cluster count is within twice its
///   expectation. Expected-size bounds become w.h.p. bounds at `O(1)`
///   extra rounds per iteration (Theorem 8.1's proof, literally).
///
/// Run 0 always uses the caller's seed unchanged, so `repetitions = 1`
/// reproduces the sequential reference **bit-for-bit**.
pub(crate) struct CcRun<'g> {
    engine: Engine<'g>,
    net: CcNetwork,
    seed: u64,
    repetitions: usize,
    /// Which run index each iteration committed to.
    chosen_runs: Vec<usize>,
}

impl<'g> CcRun<'g> {
    /// A fresh engine on `g` and a clique of `max(n, 2)` nodes.
    pub(crate) fn new(g: &'g Graph, seed: u64, repetitions: usize) -> Self {
        debug_assert!((1..=64).contains(&repetitions), "validated by plan()");
        CcRun {
            engine: Engine::new(g, seed),
            net: CcNetwork::new(g.n().max(2)),
            seed,
            repetitions,
            chosen_runs: Vec::new(),
        }
    }
}

impl Executor for CcRun<'_> {
    fn grow(&mut self, p: f64, epoch: u32, iter: u32) -> Result<(), PipelineError> {
        let n = self.net.n;
        let net = &mut self.net;
        // --- Communication, charged per the Section 8 schedule. ---
        // (a) Every node broadcasts its (super-node, cluster) labels.
        net.broadcast_from_all(2);
        // (b) Cluster centres broadcast R packed coins (one word).
        net.broadcast_from_all(1);

        // (c) Trial runs: every node can simulate each run locally (it
        // knows all labels and all coins); the collectors only tally
        // sizes. We reproduce the tallies by deciding each repetition
        // against the unchanged state.
        let expected_sampled = (self.engine.cluster_count() as f64) * p;
        // ((edges, run, cands), trial) of the cheapest run within the
        // sampled-cluster bound, and of the cheapest run otherwise; the
        // fallback is used only when no run is within the bound.
        let mut best: Option<((usize, usize, usize), Trial)> = None;
        let mut fallback: Option<((usize, usize, usize), Trial)> = None;
        for r in 0..self.repetitions {
            let trial = self.engine.trial(run_seed(self.seed, r), p, epoch, iter);
            let stats = trial.stats();
            let within = (stats.sampled_clusters as f64) <= (2.0 * expected_sampled + 2.0);
            let cand = (stats.edges_added, r, stats.max_candidates_per_cluster);
            if within && best.as_ref().is_none_or(|(b, _)| cand < *b) {
                best = Some((cand, trial));
            } else if fallback.as_ref().is_none_or(|(b, _)| cand < *b) {
                fallback = Some((cand, trial));
            }
        }
        let ((_, chosen, max_fanin), trial) =
            best.or(fallback).expect("at least one repetition ran");
        self.chosen_runs.push(chosen);

        // (d) Tallies to the R collectors and the collectors' verdict
        // back: two fixed rounds.
        net.charge_rounds(2, (2 * n * self.repetitions) as u64);

        // (e) Candidate aggregation at cluster centres (members send
        // their per-neighbour-cluster minima) and membership update
        // (centres inform joiners): Lenzen routing at the measured
        // fan-in, plus one round back.
        let sends = vec![4usize; n];
        let mut recvs = vec![0usize; n];
        recvs[0] = 4 * max_fanin; // the busiest centre
        net.lenzen_route(&sends, &recvs);
        net.charge_rounds(1, n as u64);

        // --- Commit the chosen run on the real state. ---
        self.engine.commit(trial);
        Ok(())
    }

    fn contract(&mut self) -> Result<(), PipelineError> {
        // Step C: a relabel (local) plus one Lenzen round for the
        // minimum-per-super-node-pair reduction.
        let loads = vec![4usize; self.net.n];
        self.net.lenzen_route(&loads, &loads);
        self.engine.contract();
        Ok(())
    }

    fn phase2(&mut self) -> Result<(), PipelineError> {
        self.engine.phase2();
        Ok(())
    }

    fn finish(self) -> Result<(SpannerResult, ExecutionStats), PipelineError> {
        let stats = CcStats {
            rounds: self.net.rounds(),
            total_words: self.net.total_words(),
            repetitions: self.repetitions,
            chosen_runs: self.chosen_runs,
        };
        let (result, _) = Executor::finish(self.engine)?;
        Ok((result, ExecutionStats::CongestedClique(stats)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::TradeoffParams;
    use crate::pipeline::{Algorithm, Backend, CcStats, SpannerRequest};
    use spanner_graph::generators::{self, WeightModel};
    use spanner_graph::verify::verify_spanner;

    /// Theorem 8.1 through the pipeline: the spanner and the clique
    /// stats of one run.
    fn cc(
        g: &Graph,
        params: TradeoffParams,
        seed: u64,
        repetitions: usize,
    ) -> (SpannerResult, CcStats) {
        let report = SpannerRequest::new(g, Algorithm::General(params))
            .on(Backend::CongestedClique { repetitions })
            .seed(seed)
            .run()
            .expect("valid request");
        let stats = report
            .stats
            .congested_clique()
            .expect("clique stats")
            .clone();
        (report.result, stats)
    }

    #[test]
    fn single_repetition_matches_sequential_reference() {
        let g = generators::connected_erdos_renyi(100, 0.08, WeightModel::Uniform(1, 8), 3);
        let params = TradeoffParams::new(8, 2);
        let seq = SpannerRequest::new(&g, Algorithm::General(params))
            .seed(42)
            .run()
            .expect("valid request");
        let (result, stats) = cc(&g, params, 42, 1);
        assert_eq!(
            seq.result.edges, result.edges,
            "R=1 must equal the reference"
        );
        assert!(stats.chosen_runs.iter().all(|&r| r == 0));
    }

    #[test]
    fn repetitions_produce_valid_spanner() {
        let g = generators::connected_erdos_renyi(120, 0.07, WeightModel::PowersOfTwo(5), 5);
        let (result, _) = cc(&g, TradeoffParams::new(8, 3), 7, 8);
        let rep = verify_spanner(&g, &result.edges);
        assert!(rep.all_edges_spanned);
        assert!(
            rep.max_edge_stretch <= result.stretch_bound + 1e-9,
            "{} > {}",
            rep.max_edge_stretch,
            result.stretch_bound
        );
    }

    #[test]
    fn repetition_never_hurts_expected_size_much() {
        // Averaged over seeds, best-of-R is at most the single-run size
        // (selection minimises edges added subject to the sampling
        // constraint, which holds for run 0 most of the time).
        let g = generators::connected_erdos_renyi(150, 0.08, WeightModel::Unit, 9);
        let params = TradeoffParams::new(4, 2);
        let mut single = 0usize;
        let mut amplified = 0usize;
        for seed in 0..6 {
            single += cc(&g, params, seed, 1).0.size();
            amplified += cc(&g, params, seed, 8).0.size();
        }
        assert!(
            (amplified as f64) <= 1.1 * single as f64,
            "amplified {amplified} vs single {single}"
        );
    }

    #[test]
    fn rounds_scale_with_iterations_not_n() {
        let params = TradeoffParams::new(16, 2);
        let g_small = generators::connected_erdos_renyi(80, 0.1, WeightModel::Unit, 1);
        let g_large = generators::connected_erdos_renyi(320, 0.025, WeightModel::Unit, 1);
        let r_small = cc(&g_small, params, 3, 4).1.rounds;
        let r_large = cc(&g_large, params, 3, 4).1.rounds;
        // Same schedule ⇒ same round count up to per-iteration constants
        // (no dependence on n beyond load batching).
        assert!(
            (r_large as f64) <= 1.5 * r_small as f64 + 10.0,
            "rounds {r_large} vs {r_small}"
        );
    }

    #[test]
    fn broadcast_charges_per_word() {
        let mut net = CcNetwork::new(100);
        assert_eq!(net.broadcast_from_all(1), 1);
        assert_eq!(net.broadcast_from_all(3), 3);
        assert_eq!(net.rounds(), 4);
    }

    #[test]
    fn lenzen_light_loads_are_constant() {
        let mut net = CcNetwork::new(64);
        let light = vec![10usize; 64];
        let r = net.lenzen_route(&light, &light);
        assert_eq!(r, net.lenzen_constant);
    }

    #[test]
    fn lenzen_heavy_loads_batch() {
        let mut net = CcNetwork::new(16);
        // budget = 15 words; a node pushing 100 words needs ceil(100/15)=7 batches.
        let mut sends = vec![0usize; 16];
        sends[3] = 100;
        let recvs = vec![7usize; 16];
        let r = net.lenzen_route(&sends, &recvs);
        assert_eq!(r, 7 * net.lenzen_constant);
    }

    #[test]
    fn dissemination_scales_with_payload() {
        let mut net = CcNetwork::new(101); // budget 100
        let r_small = net.disseminate_to_all(100);
        let mut net2 = CcNetwork::new(101);
        let r_big = net2.disseminate_to_all(1000);
        assert!(r_big > r_small);
        assert_eq!(r_big - net.lenzen_constant, 10);
    }

    #[test]
    #[should_panic(expected = "one send load per node")]
    fn lenzen_validates_shape() {
        let mut net = CcNetwork::new(4);
        net.lenzen_route(&[1, 2], &[1, 2, 3, 4]);
    }
}
