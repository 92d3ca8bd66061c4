//! The general trade-off algorithm executed **distributedly** through the
//! [`mpc_runtime`] simulator — rounds measured, memory enforced
//! (Theorem 1.1 / Section 6).
//!
//! Data layout (all collections sharded over the machines):
//!
//! * live edges `(a, b, w, id)` between super-nodes,
//! * super-node labels `(v, cluster)`,
//! * the spanner under construction (edge ids).
//!
//! Each grow iteration is compiled to Section 6 primitives:
//!
//! 1. every edge emits two directed *copies*; two
//!    sort-then-segmented-broadcast joins attach the endpoint cluster
//!    labels (this is the paper's "edges of `v` occupy a contiguous group
//!    of machines `M(v)`; the leader informs the group" configuration —
//!    groups spanning machines are handled by the machine-level scan);
//! 2. cluster sampling needs **no communication**: the coins are the
//!    shared-randomness function of [`crate::coins`], evaluable by every
//!    machine;
//! 3. a semisort aggregation computes the minimum edge per (super-node,
//!    neighbouring cluster) — the paper's **Find Minimum**;
//! 4. a second aggregation finds each super-node's nearest *sampled*
//!    cluster; a join broadcasts it back to the candidates, which then
//!    decide locally (add to spanner / join / kill / retire);
//! 5. label updates and edge-set rewrites are one hash-routing round
//!    each (Lemma 6.1's Clustering/Merge); contraction (Lemma 6.1's
//!    Contraction) is a relabel + minimum-per-pair aggregation.
//!
//! With the same seed, the driver and the sequential engine
//! ([`crate::general`]) produce **identical spanners**
//! (shared coins, identical `(w, id)` tie-breaks) — integration tests
//! assert this. The measured `sys.rounds()` is experiment E9's subject:
//! per iteration it is `O(1/γ)`, matching Lemma 6.1.

use mpc_runtime::primitives::{aggregate_by_key, sort_by_key};
use mpc_runtime::{comm, primitives, Dist, ExecutorKind, MpcConfig, MpcSystem, Record};
use spanner_graph::edge::EdgeId;
use spanner_graph::Graph;

use crate::coins::cluster_coin;
use crate::params::TradeoffParams;
use crate::result::SpannerResult;

/// Uniform record: `[sort key, tag, payload…]`. Tag 0 = label/leader,
/// tag 1 = data. Eight words keeps every join stream one type.
type Rec = [u64; 8];

/// Edge record `(a, b, w, id)`.
type EdgeRec = (u64, u64, u64, u64);

/// Label record `(super-node, cluster)`.
type LabelRec = (u64, u64);

const NONE: u64 = u64::MAX;

/// Raw outcome of a distributed run — the spanner plus the *measured*
/// model metrics — before the pipeline wraps it into
/// [`crate::pipeline::MpcStats`].
#[derive(Debug, Clone)]
pub(crate) struct MpcSpannerRun {
    /// The spanner and schedule statistics.
    pub result: SpannerResult,
    /// Measured rounds / traffic / peak memory.
    pub metrics: mpc_runtime::Metrics,
    /// The deployment used.
    pub config: MpcConfig,
    /// The simulated-network report, when the threaded executor ran.
    pub net: Option<mpc_runtime::NetReport>,
}

/// Runs the Section 5 algorithm on the MPC simulator under an explicit
/// deployment and executor (the pipeline's `Backend::Mpc` driver).
pub(crate) fn run_mpc(
    g: &Graph,
    params: TradeoffParams,
    config: MpcConfig,
    executor: ExecutorKind,
    seed: u64,
) -> mpc_runtime::Result<MpcSpannerRun> {
    let sys = MpcSystem::with_executor(config, executor);
    let algorithm = format!(
        "mpc-general(k={},t={},S={}w,P={})",
        params.k, params.t, config.machine_words, config.num_machines
    );

    if params.k == 1 || g.m() == 0 {
        return Ok(MpcSpannerRun {
            result: SpannerResult::whole_graph(g, algorithm),
            metrics: sys.metrics().clone(),
            net: sys.net_report().cloned(),
            config,
        });
    }

    let n = g.n();
    let edges: Vec<EdgeRec> = g
        .edges()
        .iter()
        .enumerate()
        .map(|(id, e)| (e.u as u64, e.v as u64, e.w, id as u64))
        .collect();
    let labels: Vec<LabelRec> = (0..n as u64).map(|v| (v, v)).collect();

    let mut driver = Driver {
        sys,
        seed,
        edges: Dist::empty(&MpcSystem::new(config)),
        labels: Dist::empty(&MpcSystem::new(config)),
        spanner: Dist::empty(&MpcSystem::new(config)),
        supernodes_per_epoch: Vec::new(),
    };
    driver.edges = Dist::distribute(&mut driver.sys, edges)?;
    driver.labels = Dist::distribute(&mut driver.sys, labels)?;

    let l = params.epochs();
    let mut iterations = 0u32;
    for epoch in 1..=l {
        let p = params.sampling_probability(n, epoch);
        for iter in 1..=params.t {
            driver.run_iteration(p, epoch, iter)?;
            iterations += 1;
        }
        driver.contract()?;
    }
    driver.phase2()?;

    let edge_ids = driver.finish()?;
    let metrics = driver.sys.metrics().clone();
    let mut result = SpannerResult {
        edges: edge_ids,
        epochs: l,
        iterations,
        stretch_bound: params.stretch_bound(),
        radius_per_epoch: vec![],
        supernodes_per_epoch: driver.supernodes_per_epoch,
        algorithm,
        decomposition: None,
    };
    result.canonicalise();
    Ok(MpcSpannerRun {
        result,
        metrics,
        net: driver.sys.net_report().cloned(),
        config,
    })
}

struct Driver {
    sys: MpcSystem,
    seed: u64,
    edges: Dist<EdgeRec>,
    labels: Dist<LabelRec>,
    spanner: Dist<u64>,
    supernodes_per_epoch: Vec<usize>,
}

impl Driver {
    /// Joins a cluster label onto data records: for every data record,
    /// looks up `labels[key_of(rec)]` and stores it via `write`.
    /// One sort (`O(1/γ)` rounds) + one machine scan.
    fn join_label(
        &mut self,
        data: Dist<Rec>,
        op: &'static str,
        key_of: impl Fn(&Rec) -> u64 + Send + Sync,
        write: impl Fn(&mut Rec, u64) + Send + Sync,
    ) -> mpc_runtime::Result<Dist<Rec>> {
        let label_stream: Dist<Rec> = self
            .labels
            .map(&mut self.sys, |&(v, cl)| [v, 0, cl, 0, 0, 0, 0, 0])?;
        let keyed = data.map(&mut self.sys, |rec| {
            let mut r = *rec;
            r[0] = key_of(rec);
            r[1] = 1;
            r
        })?;
        let stream = label_stream.union(&mut self.sys, &keyed)?;
        let mut sorted = sort_by_key(&mut self.sys, stream, op, |r: &Rec| (r[0], r[1]))?;
        primitives::forward_fill(
            &mut self.sys,
            &mut sorted,
            op,
            |r: &Rec| if r[1] == 0 { Some((r[0], r[2])) } else { None },
            |r: &mut Rec, &(v, cl)| {
                // Only fill from the matching super-node's label.
                if r[0] == v {
                    write(r, cl);
                }
            },
        )?;
        Ok(sorted.filter(|r| r[1] == 1))
    }

    /// One grow iteration (Step B) at probability `p`.
    fn run_iteration(&mut self, p: f64, epoch: u32, iter: u32) -> mpc_runtime::Result<()> {
        let seed = self.seed;
        let sampled = move |cluster: u64| cluster_coin(seed, epoch, iter, cluster as u32, p);

        // (1) Directed copies: [key, tag, other, w, id, cl_v, cl_other, 0].
        let copies: Dist<Rec> = self.edges.flat_map(&mut self.sys, |&(a, b, w, id)| {
            [
                [a, 1, b, w, id, NONE, NONE, 0],
                [b, 1, a, w, id, NONE, NONE, 0],
            ]
        })?;
        // Join the owning super-node's label, then the neighbour's.
        let copies = self.join_label(copies, "iter.join_v", |r| r[0], |r, cl| r[5] = cl)?;
        // Re-key by the neighbour for the second join. Keep v in slot 7.
        let copies = copies.map(&mut self.sys, |r| {
            [r[2], 1, r[0], r[3], r[4], r[5], NONE, 0]
        })?;
        let copies = self.join_label(copies, "iter.join_o", |r| r[0], |r, cl| r[6] = cl)?;
        // Restore orientation: [v, 1, other, w, id, cl_v, cl_other, 0].
        let copies = copies.map(&mut self.sys, |r| {
            [r[2], 1, r[0], r[3], r[4], r[5], r[6], 0]
        })?;

        // (2) Candidates: copies whose owner's cluster is unsampled.
        // Layout: [v, 1, cl_other, w, id, cl_v, 0, 0].
        let candidates = copies
            .filter(|r| !sampled(r[5]))
            .map(&mut self.sys, |r| [r[0], 1, r[6], r[3], r[4], r[5], 0, 0])?;

        // (3) Find Minimum per (super-node, neighbouring cluster).
        let min_per_pair = aggregate_by_key(
            &mut self.sys,
            candidates,
            "iter.minpair",
            |r: &Rec| pair_key(r[0], r[2]),
            |r: &Rec| (r[0], r[2], r[3], r[4]),
            |a, b| if (a.2, a.3) <= (b.2, b.3) { *a } else { *b },
        )?;
        // Back to records: [v, 1, c, w, id, 0, 0, 0].
        let cand_min: Dist<Rec> = min_per_pair.map(&mut self.sys, |&(_, (v, c, w, id))| {
            [v, 1, c, w, id, 0, 0, 0]
        })?;

        // (4) Nearest *sampled* cluster per super-node.
        let best_sampled = aggregate_by_key(
            &mut self.sys,
            cand_min.clone(),
            "iter.best",
            |r: &Rec| r[0],
            |r: &Rec| {
                if sampled(r[2]) {
                    (r[3], r[4], r[2]) // (w, id, cluster)
                } else {
                    (NONE, NONE, NONE)
                }
            },
            |a, b| (*a).min(*b),
        )?;
        let best_stream: Dist<Rec> =
            best_sampled.map(&mut self.sys, |&(v, (w, id, c))| [v, 0, w, id, c, 0, 0, 0])?;
        // Join the best onto every candidate of the same super-node.
        let stream = best_stream.union(&mut self.sys, &cand_min)?;
        let mut sorted = sort_by_key(&mut self.sys, stream, "iter.bestjoin", |r: &Rec| {
            (r[0], r[1])
        })?;
        primitives::forward_fill(
            &mut self.sys,
            &mut sorted,
            "iter.bestjoin",
            |r: &Rec| {
                if r[1] == 0 {
                    Some((r[0], r[2], r[3], r[4]))
                } else {
                    None
                }
            },
            |r: &mut Rec, &(v, w, id, c)| {
                if r[0] == v {
                    r[5] = w;
                    r[6] = id;
                    r[7] = c;
                }
            },
        )?;
        let decided = sorted.filter(|r| r[1] == 1);

        // (5) Local decisions. Candidate: [v,1,c,w,id, w*,id*,c*].
        // Spanner adds:
        let adds = decided
            .filter(|r| {
                let (c, w, wstar, cstar) = (r[2], r[3], r[5], r[7]);
                wstar == NONE // retire: every candidate edge goes in
                    || c == cstar // the joining edge
                    || w < wstar // strictly closer clusters
            })
            .map(&mut self.sys, |r| r[4])?;
        self.spanner = self.spanner.union(&mut self.sys, &adds)?;

        // Kills (v, c): same condition as adds.
        let kills: Dist<Rec> = decided
            .filter(|r| {
                let (c, w, wstar, cstar) = (r[2], r[3], r[5], r[7]);
                wstar == NONE || c == cstar || w < wstar
            })
            .map(&mut self.sys, |r| {
                [pair_key(r[0], r[2]), 0, 1, 0, 0, 0, 0, 0]
            })?;

        // Joins (v → c*, via id*): candidates where c == c*.
        let joins: Dist<LabelRec> = decided
            .filter(|r| r[5] != NONE && r[2] == r[7])
            .map(&mut self.sys, |r| (r[0], r[7]))?;

        // (6) Apply kills to the edge set: each edge emits two (v, c)
        // probes against its *snapshot* labels; a sorted join marks dead
        // copies; surviving edges are reassembled by edge id.
        let probes: Dist<Rec> = copies.map(&mut self.sys, |r| {
            // [pair_key(v, cl_other), 1, v, other, w, id, dead?, 0]
            [pair_key(r[0], r[6]), 1, r[0], r[2], r[3], r[4], 0, 0]
        })?;
        let stream = kills.union(&mut self.sys, &probes)?;
        let mut sorted = sort_by_key(&mut self.sys, stream, "iter.kill", |r: &Rec| (r[0], r[1]))?;
        primitives::forward_fill(
            &mut self.sys,
            &mut sorted,
            "iter.kill",
            |r: &Rec| if r[1] == 0 { Some(r[0]) } else { None },
            |r: &mut Rec, &key| {
                if r[0] == key {
                    r[6] = 1;
                }
            },
        )?;
        // Reassemble edges: keep an edge iff neither copy died.
        let edge_halves = sorted.filter(|r| r[1] == 1);
        let rebuilt = aggregate_by_key(
            &mut self.sys,
            edge_halves,
            "iter.rebuild",
            |r: &Rec| r[5], // edge id
            |r: &Rec| {
                let (v, o) = (r[2].min(r[3]), r[2].max(r[3]));
                (v, o, r[4], r[6]) // (a, b, w, dead-count contribution)
            },
            |a, b| (a.0, a.1, a.2, a.3 + b.3),
        )?;
        self.edges = rebuilt
            .filter(|&(_, (_, _, _, dead))| dead == 0)
            .map(&mut self.sys, |&(id, (a, b, w, _))| (a, b, w, id))?;

        // (7) Label update (Lemma 6.1 Clustering/Merge): keep sampled
        // clusters' members, move joiners, retire the rest.
        let kept = self.labels.filter(|&(_, cl)| sampled(cl));
        let merged = kept.union(&mut self.sys, &joins)?;
        // Rebalance labels (they shrink over time; a routing round keeps
        // the shards within capacity after unions).
        let p = self.sys.machines();
        self.labels = comm::route(&mut self.sys, merged, "iter.labels", move |&(v, _), _| {
            (mpc_runtime::primitives::splitmix64(v) % p as u64) as usize
        })?;

        // (8) Drop now-intra-cluster edges (B6): re-join fresh labels and
        // filter.
        self.relabel_edges_and_filter("iter.b6", false)?;
        Ok(())
    }

    /// Rewrites edge endpoint labels using the current `labels` and drops
    /// intra-cluster edges. With `contract = true`, endpoints are
    /// *replaced* by their cluster ids and the minimum edge per pair is
    /// kept (Step C / Lemma 6.1 Contraction).
    fn relabel_edges_and_filter(
        &mut self,
        op: &'static str,
        contract: bool,
    ) -> mpc_runtime::Result<()> {
        let edges = std::mem::replace(&mut self.edges, Dist::empty(&self.sys));
        // [a, 1, b, w, id, cl_a, cl_b, 0]
        let recs: Dist<Rec> = edges.map(&mut self.sys, |&(a, b, w, id)| {
            [a, 1, b, w, id, NONE, NONE, 0]
        })?;
        let recs = self.join_label(recs, op, |r| r[0], |r, cl| r[5] = cl)?;
        let recs = recs.map(&mut self.sys, |r| {
            [r[2], 1, r[0], r[3], r[4], r[5], NONE, 0]
        })?;
        let recs = self.join_label(recs, op, |r| r[0], |r, cl| r[6] = cl)?;
        // Now [b, 1, a, w, id, cl_a, cl_b, 0]; drop intra-cluster (and
        // dangling: a retired endpoint has no label ⇒ NONE).
        let alive = recs.filter(|r| r[5] != NONE && r[6] != NONE && r[5] != r[6]);
        if contract {
            let contracted = aggregate_by_key(
                &mut self.sys,
                alive,
                op,
                |r: &Rec| pair_key(r[5].min(r[6]), r[5].max(r[6])),
                |r: &Rec| (r[5].min(r[6]), r[5].max(r[6]), r[3], r[4]),
                |a, b| if (a.2, a.3) <= (b.2, b.3) { *a } else { *b },
            )?;
            self.edges = contracted.map(&mut self.sys, |&(_, (a, b, w, id))| (a, b, w, id))?;
        } else {
            self.edges = recs
                .filter(|r| r[5] != NONE && r[6] != NONE && r[5] != r[6])
                .map(&mut self.sys, |r| (r[2], r[0], r[3], r[4]))?;
        }
        Ok(())
    }

    /// Step C: contraction. Clusters become super-nodes; labels reset to
    /// singletons over the surviving cluster ids.
    fn contract(&mut self) -> mpc_runtime::Result<()> {
        self.relabel_edges_and_filter("contract", true)?;
        // Surviving super-nodes = distinct cluster ids.
        let labels = {
            let empty = Dist::empty(&self.sys);
            std::mem::replace(&mut self.labels, empty)
        };
        let distinct = aggregate_by_key(
            &mut self.sys,
            labels,
            "contract.labels",
            |&(_, cl): &LabelRec| cl,
            |_| 1u64,
            |a, b| a + b,
        )?;
        self.labels = distinct.map(&mut self.sys, |&(cl, _)| (cl, cl))?;
        self.supernodes_per_epoch.push(self.labels.len());
        Ok(())
    }

    /// Phase 2: minimum edge per (super-node, neighbouring cluster) over
    /// what is left.
    fn phase2(&mut self) -> mpc_runtime::Result<()> {
        // Slot 7 carries the owning endpoint: `join_label` overwrites
        // slot 0 with its join key (the *neighbour*), so aggregating on
        // slot 0 afterwards would group by (neighbour, neighbour's
        // cluster) — one edge per super-node instead of one per
        // (super-node, neighbouring cluster), silently dropping spanner
        // edges whenever a super-node has several live neighbours here.
        let copies: Dist<Rec> = self.edges.flat_map(&mut self.sys, |&(a, b, w, id)| {
            [
                [a, 1, b, w, id, NONE, NONE, a],
                [b, 1, a, w, id, NONE, NONE, b],
            ]
        })?;
        let copies = self.join_label(copies, "p2.join", |r| r[2], |r, cl| r[6] = cl)?;
        let minimum = aggregate_by_key(
            &mut self.sys,
            copies,
            "p2.min",
            |r: &Rec| pair_key(r[7], r[6]),
            |r: &Rec| (r[3], r[4]),
            |a, b| (*a).min(*b),
        )?;
        let adds = minimum.map(&mut self.sys, |&(_, (_, id))| id)?;
        self.spanner = self.spanner.union(&mut self.sys, &adds)?;
        self.edges = Dist::empty(&self.sys);
        Ok(())
    }

    /// Deduplicates the spanner in-model, then extracts it (the final
    /// read-off is out-of-model, as reading any output is).
    fn finish(&mut self) -> mpc_runtime::Result<Vec<EdgeId>> {
        let spanner = std::mem::replace(&mut self.spanner, Dist::empty(&self.sys));
        let dedup = aggregate_by_key(
            &mut self.sys,
            spanner,
            "finish.dedup",
            |&id: &u64| id,
            |_| 1u64,
            |a, b| a + b,
        )?;
        let ids = dedup.map(&mut self.sys, |&(id, _)| id)?;
        Ok(ids
            .collect_out_of_model()
            .into_iter()
            .map(|id| id as EdgeId)
            .collect())
    }
}

/// Packs a (super-node, cluster) pair into one word (ids are < 2³²).
#[inline]
fn pair_key(a: u64, b: u64) -> u64 {
    debug_assert!(a < (1 << 32) && b < (1 << 32));
    (a << 32) | b
}

// `Rec` is `[u64; 8]`, which implements `Record` via the array impl.
const _: () = assert!(<Rec as Record>::WORDS == 8);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{Algorithm, Backend, MpcStats, RunReport, SpannerRequest};
    use spanner_graph::generators::{self, WeightModel};
    use spanner_graph::verify::verify_spanner;

    /// Runs the request on the default `γ = 0.5` deployment.
    fn mpc(g: &Graph, params: TradeoffParams, seed: u64) -> RunReport {
        SpannerRequest::new(g, Algorithm::General(params))
            .on(Backend::mpc_gamma(0.5))
            .seed(seed)
            .run()
            .expect("fits the deployment")
    }

    fn stats(report: &RunReport) -> &MpcStats {
        report.stats.mpc().expect("mpc stats")
    }

    #[test]
    fn driver_produces_valid_spanner() {
        let g = generators::connected_erdos_renyi(60, 0.1, WeightModel::Uniform(1, 8), 3);
        let run = mpc(&g, TradeoffParams::new(4, 2), 11);
        spanner_graph::verify::assert_valid_edge_ids(&g, &run.result.edges);
        let rep = verify_spanner(&g, &run.result.edges);
        assert!(rep.all_edges_spanned);
        assert!(rep.max_edge_stretch <= run.result.stretch_bound + 1e-9);
        assert!(
            stats(&run).metrics.rounds > 0,
            "distributed run must cost rounds"
        );
    }

    #[test]
    fn driver_matches_sequential_reference() {
        let g = generators::connected_erdos_renyi(50, 0.12, WeightModel::Uniform(1, 4), 7);
        let params = TradeoffParams::new(4, 2);
        let seed = 23;
        let seq = SpannerRequest::new(&g, Algorithm::General(params))
            .seed(seed)
            .run()
            .expect("valid request");
        let dist = mpc(&g, params, seed);
        assert_eq!(
            seq.result.edges, dist.result.edges,
            "sequential and distributed must agree bit-for-bit"
        );
    }

    #[test]
    fn memory_constraints_hold_during_run() {
        let g = generators::connected_erdos_renyi(80, 0.08, WeightModel::Unit, 5);
        let run = mpc(&g, TradeoffParams::new(4, 2), 3);
        let stats = stats(&run);
        assert!(
            stats.metrics.peak_machine_words <= stats.config.capacity(),
            "peak {} exceeds capacity {}",
            stats.metrics.peak_machine_words,
            stats.config.capacity()
        );
    }

    #[test]
    fn k1_shortcut() {
        let g = generators::cycle(8, WeightModel::Unit, 0);
        let run = mpc(&g, TradeoffParams::new(1, 1), 0);
        assert_eq!(run.result.size(), g.m());
        assert_eq!(stats(&run).metrics.rounds, 0);
    }
}
