//! The general trade-off algorithm, and the Baswana–Sen baseline,
//! executed **distributedly** through the [`mpc_runtime`] simulator —
//! rounds measured, memory enforced (Theorem 1.1 / Section 6).
//!
//! Data layout (all collections sharded over the machines):
//!
//! * live edges `[a, b, w, id, cl_a, cl_b]` between super-nodes, each
//!   carrying its endpoints' cluster labels — the identity at every epoch
//!   start, the fresh labels after each relabel;
//! * super-node labels `(v, cluster)`;
//! * the spanner under construction (edge ids).
//!
//! Each grow iteration is compiled to Section 6 primitives:
//!
//! 1. every edge emits its two directed *copies* locally, from the labels
//!    it carries; cluster sampling needs **no communication** either: the
//!    coins are the shared-randomness function of [`crate::coins`],
//!    evaluable by every machine;
//! 2. a semisort ([`group_by_key`]) gathers the candidate copies of each
//!    (super-node, neighbouring cluster) pair on one machine and takes
//!    their minimum — the paper's **Find Minimum**. The groups stay there;
//! 3. a second semisort gathers each super-node's minima on one machine,
//!    which finds the nearest *sampled* cluster and decides every
//!    candidate in place (add to spanner / join / kill / retire);
//! 4. each kill is one message to the machine that holds its pair's
//!    group, a semisort by edge id reassembles the surviving copies into
//!    edges, and the label update is one hash-routing round (Lemma 6.1's
//!    Clustering/Merge);
//! 5. the relabel sorts one half-record per edge endpoint together with
//!    the labels, broadcasts each label over its endpoint's halves, and
//!    reassembles each edge from its halves in one round, dropping the
//!    now intra-cluster edges (B6). Contraction (Lemma 6.1's Contraction)
//!    is one minimum-per-cluster-pair aggregation: the edges already carry
//!    the epoch's final labels.
//!
//! So an iteration costs one sort, one segmented broadcast and six
//! rounds. With the same seed, the driver and the sequential engine
//! ([`crate::general`]) produce **identical spanners**
//! (shared coins, identical `(w, id)` tie-breaks) — integration tests
//! assert this. The measured `sys.rounds()` is experiment E9's subject:
//! per iteration it is `O(1/γ)`, matching Lemma 6.1.

use mpc_runtime::primitives::{aggregate_by_key, forward_fill, group_by_key, sort_by_key};
use mpc_runtime::{comm, primitives, Dist, MpcConfig, MpcSystem, Record};
use spanner_graph::edge::EdgeId;
use spanner_graph::Graph;

use crate::coins::cluster_coin;
use crate::general::Executor;
use crate::pipeline::{ExecutionStats, MpcStats, PipelineError};
use crate::result::SpannerResult;

/// A live edge between super-nodes `a` and `b`, with their cluster labels.
#[derive(Debug, Clone, Copy)]
struct LiveEdge {
    a: u64,
    b: u64,
    w: u64,
    id: u64,
    cl_a: u64,
    cl_b: u64,
}

/// The copy of edge `id` at its endpoint `v`, whose other endpoint is in
/// cluster `c`. With `id == KILL` it is instead the order to drop every
/// copy of the pair `(v, c)`.
#[derive(Debug, Clone, Copy)]
struct EdgeCopy {
    v: u64,
    c: u64,
    w: u64,
    id: u64,
}

/// The lightest edge `id` from super-node `v` to cluster `c` enters the
/// spanner (and the pair's copies die); `joins` marks `c` as `v`'s
/// nearest sampled cluster, which `v` joins.
#[derive(Debug, Clone, Copy)]
struct Decided {
    v: u64,
    c: u64,
    id: u64,
    joins: bool,
}

/// One endpoint of edge `slot / 2` (`slot % 2 == 0` for `a`, `1` for
/// `b`) waiting for its label `cl`, or with `tag == LABEL` the label `cl`
/// of super-node `endpoint` itself.
#[derive(Debug, Clone, Copy)]
struct Half {
    endpoint: u64,
    tag: u64,
    slot: u64,
    w: u64,
    cl: u64,
}

impl Record for LiveEdge {
    const WORDS: usize = 6;
}
impl Record for EdgeCopy {
    const WORDS: usize = 4;
}
impl Record for Decided {
    const WORDS: usize = 4;
}
impl Record for Half {
    const WORDS: usize = 5;
}
const _: () = {
    assert!(std::mem::size_of::<LiveEdge>() == 8 * <LiveEdge as Record>::WORDS);
    assert!(std::mem::size_of::<EdgeCopy>() == 8 * <EdgeCopy as Record>::WORDS);
    assert!(std::mem::size_of::<Decided>() == 8 * <Decided as Record>::WORDS);
    assert!(std::mem::size_of::<Half>() == 8 * <Half as Record>::WORDS);
};

/// Label record `(super-node, cluster)`.
type LabelRec = (u64, u64);

/// No label: a retired super-node's, or one not attached yet.
const NONE: u64 = u64::MAX;
/// The `id` of a kill order (edge ids are < 2³²).
const KILL: u64 = u64::MAX;
/// `Half::tag` of a label; it sorts before the halves of its super-node.
const LABEL: u64 = 0;
/// `Half::tag` of an edge endpoint.
const HALF: u64 = 1;

impl LiveEdge {
    /// The copies of this edge, at `a` and at `b`, whose owner's cluster
    /// passes `keep`.
    fn copies(&self, keep: impl Fn(u64) -> bool) -> impl Iterator<Item = EdgeCopy> {
        let (w, id) = (self.w, self.id);
        let at = |v, owner, c| keep(owner).then_some(EdgeCopy { v, c, w, id });
        [
            at(self.a, self.cl_a, self.cl_b),
            at(self.b, self.cl_b, self.cl_a),
        ]
        .into_iter()
        .flatten()
    }
}

impl EdgeCopy {
    /// The (super-node, neighbouring cluster) pair this copy belongs to.
    fn pair(&self) -> u64 {
        pair_key(self.v, self.c)
    }
}

/// A schedule on the MPC simulator under an explicit deployment (the
/// pipeline's `Backend::Mpc` executor): the spanner, and the *measured*
/// rounds, traffic and peak memory of the deployment.
pub(crate) struct Driver {
    sys: MpcSystem,
    seed: u64,
    edges: Dist<LiveEdge>,
    labels: Dist<LabelRec>,
    spanner: Dist<u64>,
    supernodes_per_epoch: Vec<usize>,
}

impl Driver {
    /// Distributes `g` over the deployment, every vertex its own
    /// super-node and cluster; fails if the input does not fit.
    pub(crate) fn new(g: &Graph, config: MpcConfig, seed: u64) -> mpc_runtime::Result<Self> {
        let mut sys = MpcSystem::new(config);
        let edges: Vec<LiveEdge> = g
            .edges()
            .iter()
            .enumerate()
            .map(|(id, e)| {
                let (a, b) = (e.u as u64, e.v as u64);
                LiveEdge {
                    a,
                    b,
                    w: e.w,
                    id: id as u64,
                    cl_a: a,
                    cl_b: b,
                }
            })
            .collect();
        let labels: Vec<LabelRec> = (0..g.n() as u64).map(|v| (v, v)).collect();
        let edges = Dist::distribute(&mut sys, edges)?;
        let labels = Dist::distribute(&mut sys, labels)?;
        Ok(Driver {
            spanner: Dist::empty(&sys),
            sys,
            seed,
            edges,
            labels,
            supernodes_per_epoch: Vec::new(),
        })
    }

    /// Attaches the current labels to both endpoints of every edge and
    /// drops intra-cluster and dangling edges (a retired endpoint has no
    /// label): one sort of the edges' halves together with the labels,
    /// one segmented broadcast of each label over its super-node's halves
    /// (whose run may span machines), and one semisort that reassembles
    /// every edge from its two halves, leaving the edges hash-placed by id.
    fn relabel(
        &mut self,
        edges: Dist<LiveEdge>,
        op: &'static str,
    ) -> mpc_runtime::Result<Dist<LiveEdge>> {
        let halves = edges.flat_map(&mut self.sys, |e| {
            [(e.a, 2 * e.id), (e.b, 2 * e.id + 1)].map(|(endpoint, slot)| Half {
                endpoint,
                tag: HALF,
                slot,
                w: e.w,
                cl: NONE,
            })
        })?;
        let labels = self.labels.map(&mut self.sys, |&(v, cl)| Half {
            endpoint: v,
            tag: LABEL,
            slot: 0,
            w: 0,
            cl,
        })?;
        let stream = labels.union(&mut self.sys, &halves)?;
        let mut sorted = sort_by_key(&mut self.sys, stream, op, |h| (h.endpoint, h.tag))?;
        forward_fill(
            &mut self.sys,
            &mut sorted,
            op,
            |h| (h.tag == LABEL).then_some((h.endpoint, h.cl)),
            |h, &(v, cl)| {
                if h.endpoint == v {
                    h.cl = cl;
                }
            },
        )?;
        let halves = sorted.filter(|h| h.tag == HALF);
        let (_, edges) = group_by_key(
            &mut self.sys,
            halves,
            op,
            |h| h.slot / 2,
            |run, out| {
                if let [x, y] = run {
                    let (a, b) = if x.slot % 2 == 0 { (x, y) } else { (y, x) };
                    if a.cl != NONE && b.cl != NONE && a.cl != b.cl {
                        out.push(LiveEdge {
                            a: a.endpoint,
                            b: b.endpoint,
                            w: a.w,
                            id: a.slot / 2,
                            cl_a: a.cl,
                            cl_b: b.cl,
                        });
                    }
                }
            },
        )?;
        Ok(edges)
    }
}

impl Executor for Driver {
    /// One grow iteration (Step B) at probability `p`.
    fn grow(&mut self, p: f64, epoch: u32, iter: u32) -> Result<(), PipelineError> {
        let seed = self.seed;
        let sampled = move |cluster: u64| cluster_coin(seed, epoch, iter, cluster as u32, p);

        // (1) Directed copies: a copy whose owner's cluster is unsampled
        // is a candidate; the others are never killed and only wait for
        // the rebuild.
        let candidates = self
            .edges
            .flat_map(&mut self.sys, |e| e.copies(|owner| !sampled(owner)))?;
        let settled = self.edges.flat_map(&mut self.sys, |e| e.copies(sampled))?;

        // (2) Find Minimum per (super-node, neighbouring cluster); the
        // pair's group stays on this machine for the kills.
        let (groups, lightest) = group_by_key(
            &mut self.sys,
            candidates,
            "iter.minpair",
            EdgeCopy::pair,
            |run, out| out.extend(run.iter().min_by_key(|c| (c.w, c.id)).copied()),
        )?;

        // (3) Each super-node's minima on one machine: the nearest
        // sampled cluster (w*, id*, c*) decides every candidate.
        let (_, decided) = group_by_key(
            &mut self.sys,
            lightest,
            "iter.best",
            |c| c.v,
            |run, out| {
                let nearest = run
                    .iter()
                    .filter(|c| sampled(c.c))
                    .map(|c| (c.w, c.id, c.c))
                    .min();
                for c in run {
                    let joins = nearest.is_some_and(|(_, _, c_star)| c.c == c_star);
                    // Join c* via its lightest edge, plus one edge to
                    // every strictly closer cluster; with no sampled
                    // neighbour, one edge per cluster, then retire.
                    if joins || nearest.is_none_or(|(w_star, _, _)| c.w < w_star) {
                        out.push(Decided {
                            v: c.v,
                            c: c.c,
                            id: c.id,
                            joins,
                        });
                    }
                }
            },
        )?;
        let adds = decided.map(&mut self.sys, |d| d.id)?;
        self.spanner = self.spanner.union(&mut self.sys, &adds)?;
        let joins: Dist<LabelRec> = decided
            .filter(|d| d.joins)
            .map(&mut self.sys, |d| (d.v, d.c))?;

        // (4) Every added pair's copies die: one message to the machine
        // holding the pair's group. An edge survives iff both of its
        // copies do.
        let kills = decided.map(&mut self.sys, |d| EdgeCopy {
            v: d.v,
            c: d.c,
            w: 0,
            id: KILL,
        })?;
        let stream = groups.union(&mut self.sys, &kills)?;
        let (_, alive) = group_by_key(
            &mut self.sys,
            stream,
            "iter.kill",
            EdgeCopy::pair,
            |run, out| {
                if run.iter().all(|c| c.id != KILL) {
                    out.extend_from_slice(run);
                }
            },
        )?;
        let stream = alive.union(&mut self.sys, &settled)?;
        let (_, rebuilt) = group_by_key(
            &mut self.sys,
            stream,
            "iter.rebuild",
            |c| c.id,
            |run, out| {
                if let [x, y] = run {
                    // The relabel below attaches the labels.
                    out.push(LiveEdge {
                        a: x.v.min(y.v),
                        b: x.v.max(y.v),
                        w: x.w,
                        id: x.id,
                        cl_a: NONE,
                        cl_b: NONE,
                    });
                }
            },
        )?;

        // (5) Label update (Lemma 6.1 Clustering/Merge): keep sampled
        // clusters' members, move joiners, retire the rest.
        let kept = self.labels.filter(|&(_, cl)| sampled(cl));
        let merged = kept.union(&mut self.sys, &joins)?;
        // Rebalance labels (they shrink over time; a routing round keeps
        // the shards within capacity after unions).
        let p = self.sys.machines();
        self.labels = comm::route(&mut self.sys, merged, "iter.labels", move |&(v, _), _| {
            (primitives::splitmix64(v) % p as u64) as usize
        })?;

        // (6) Drop now-intra-cluster edges (B6).
        self.edges = self.relabel(rebuilt, "iter.b6")?;
        Ok(())
    }

    /// Step C: contraction. Clusters become super-nodes, keeping the
    /// lightest edge between each pair; labels reset to singletons over
    /// the surviving cluster ids. The last relabel attached this epoch's
    /// final labels, so no join is needed.
    fn contract(&mut self) -> Result<(), PipelineError> {
        let edges = std::mem::replace(&mut self.edges, Dist::empty(&self.sys));
        let lightest = aggregate_by_key(
            &mut self.sys,
            edges,
            "contract",
            |e| pair_key(e.cl_a.min(e.cl_b), e.cl_a.max(e.cl_b)),
            |e| (e.cl_a.min(e.cl_b), e.cl_a.max(e.cl_b), e.w, e.id),
            |x, y| if (x.2, x.3) <= (y.2, y.3) { *x } else { *y },
        )?;
        self.edges = lightest.map(&mut self.sys, |&(_, (a, b, w, id))| LiveEdge {
            a,
            b,
            w,
            id,
            cl_a: a,
            cl_b: b,
        })?;
        // Surviving super-nodes = distinct cluster ids.
        let labels = std::mem::replace(&mut self.labels, Dist::empty(&self.sys));
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
    /// what is left. Every live edge carries its endpoints' current
    /// cluster labels: the identity after a contraction, the last
    /// relabel's on an un-contracted clustering (Baswana–Sen's Phase 2),
    /// so the copies carry the neighbouring clusters either way.
    fn phase2(&mut self) -> Result<(), PipelineError> {
        let edges = std::mem::replace(&mut self.edges, Dist::empty(&self.sys));
        let copies = edges.flat_map(&mut self.sys, |e| e.copies(|_| true))?;
        let minimum = aggregate_by_key(
            &mut self.sys,
            copies,
            "p2.min",
            EdgeCopy::pair,
            |c| (c.w, c.id),
            |a, b| *a.min(b),
        )?;
        let adds = minimum.map(&mut self.sys, |&(_, (_, id))| id)?;
        self.spanner = self.spanner.union(&mut self.sys, &adds)?;
        Ok(())
    }

    /// Deduplicates the spanner in-model, then extracts it (the final
    /// read-off is out-of-model, as reading any output is).
    fn finish(mut self) -> Result<(SpannerResult, ExecutionStats), PipelineError> {
        let dedup = aggregate_by_key(
            &mut self.sys,
            self.spanner,
            "finish.dedup",
            |&id: &u64| id,
            |_| 1u64,
            |a, b| a + b,
        )?;
        let ids = dedup.map(&mut self.sys, |&(id, _)| id)?;
        let mut result = SpannerResult {
            edges: ids
                .collect_out_of_model()
                .into_iter()
                .map(|id| id as EdgeId)
                .collect(),
            epochs: 0,
            iterations: 0,
            stretch_bound: 0.0,
            radius_per_epoch: vec![],
            supernodes_per_epoch: self.supernodes_per_epoch,
            algorithm: String::new(),
            decomposition: None,
        };
        result.canonicalise();
        let stats = MpcStats {
            metrics: self.sys.metrics().clone(),
            config: *self.sys.cfg(),
        };
        Ok((result, ExecutionStats::Mpc(stats)))
    }
}

/// Packs a (super-node, cluster) pair into one word (ids are < 2³²).
#[inline]
fn pair_key(a: u64, b: u64) -> u64 {
    debug_assert!(a < (1 << 32) && b < (1 << 32));
    (a << 32) | b
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::TradeoffParams;
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
    fn an_iteration_costs_one_relabel_sort_and_six_rounds() {
        // Two epochs of two iterations. Some cluster is sampled in every
        // iteration, so no relabel finds its stream empty (an empty sort
        // costs no rounds).
        let g = generators::connected_erdos_renyi(500, 0.02, WeightModel::Uniform(1, 16), 9);
        let run = mpc(&g, TradeoffParams::new(8, 2), 1);
        let stats = stats(&run);
        let by_op = &stats.metrics.rounds_by_op;
        let (iters, epochs) = (run.result.iterations as u64, run.result.epochs as u64);
        assert_eq!((iters, epochs), (4, 2));

        for gone in ["iter.join_v", "iter.join_o", "iter.bestjoin", "p2.join"] {
            assert!(!by_op.contains_key(gone), "{gone} still costs rounds");
        }
        for op in [
            "iter.minpair",
            "iter.best",
            "iter.kill",
            "iter.rebuild",
            "iter.labels",
        ] {
            assert_eq!(by_op[op], iters, "{op}: one round per iteration");
        }
        // The relabel: one sort of halves and labels, one segmented
        // broadcast over it, one reassembly round.
        let mut sys = MpcSystem::new(stats.config);
        let half = Half {
            endpoint: 0,
            tag: LABEL,
            slot: 0,
            w: 0,
            cl: 0,
        };
        let halves = Dist::distribute(&mut sys, vec![half; 64]).unwrap();
        let mut sorted = sort_by_key(&mut sys, halves, "sort", |h| (h.endpoint, h.tag)).unwrap();
        let sort = sys.rounds();
        forward_fill(
            &mut sys,
            &mut sorted,
            "fill",
            |h| Some((h.endpoint, h.cl)),
            |_, _| {},
        )
        .unwrap();
        let fill = sys.rounds() - sort;
        assert_eq!(
            by_op["iter.b6"],
            iters * (sort + fill + 1),
            "sort {sort}, fill {fill}"
        );
        for op in ["contract", "contract.labels"] {
            assert_eq!(by_op[op], epochs, "{op}: one round per epoch");
        }
        assert_eq!((by_op["p2.min"], by_op["finish.dedup"]), (1, 1));
        assert_eq!(by_op.values().sum::<u64>(), stats.metrics.rounds);
    }

    #[test]
    fn k1_shortcut() {
        let g = generators::cycle(8, WeightModel::Unit, 0);
        let run = mpc(&g, TradeoffParams::new(1, 1), 0);
        assert_eq!(run.result.size(), g.m());
        assert_eq!(stats(&run).metrics.rounds, 0);
    }
}
