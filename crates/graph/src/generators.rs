//! Synthetic workload generators.
//!
//! The paper evaluates nothing empirically, so the reproduction defines its
//! own workload families, chosen to stress the algorithms in different ways:
//!
//! * **Erdős–Rényi** `G(n, p)` — the default "expander-ish" workload; after
//!   one round of clustering almost everything collapses, which exercises
//!   the doubly-exponential sampling schedule.
//! * **Random geometric / grids / tori** — high-diameter graphs where
//!   cluster radii actually grow, stressing the stretch analysis.
//! * **Hypercubes** — regular, low-diameter, many disjoint shortest paths.
//! * **Chung–Lu power-law** — skewed degrees, the motivating "web-scale"
//!   workloads of the MPC literature.
//! * **Caterpillars / cycles / complete graphs** — adversarial shapes and
//!   closed-form ground truth for unit tests.
//!
//! All generators are deterministic given the seed and may optionally be
//! made connected by threading a random Hamiltonian-path backbone. Each
//! generator adds its edges to one [`GraphBuilder`] and builds once; the
//! connected Erdős–Rényi family adds the `G(n, p)` sample and the
//! backbone to the same builder.

use rand::prelude::*;
use rand::rngs::StdRng;

use crate::edge::Weight;
use crate::graph::{Graph, GraphBuilder};

/// How to assign weights to generated edges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WeightModel {
    /// All weights 1 (unweighted graph).
    Unit,
    /// Uniform integers in `[lo, hi]`.
    Uniform(Weight, Weight),
    /// Powers of two `2^0 .. 2^max_exp`, log-uniform — produces the wide
    /// weight ranges that make weighted spanner construction non-trivial.
    PowersOfTwo(u32),
}

impl WeightModel {
    fn sample(&self, rng: &mut StdRng) -> Weight {
        match *self {
            WeightModel::Unit => 1,
            WeightModel::Uniform(lo, hi) => rng.gen_range(lo..=hi),
            WeightModel::PowersOfTwo(max_exp) => 1u64 << rng.gen_range(0..=max_exp),
        }
    }
}

/// Erdős–Rényi `G(n, p)` with the given weight model.
pub fn erdos_renyi(n: usize, p: f64, weights: WeightModel, seed: u64) -> Graph {
    let mut b = GraphBuilder::new(n);
    add_gnp_edges(&mut b, n, p, weights, seed);
    b.build()
}

/// Adds the edges of one `G(n, p)` sample to `b`, drawing positions and
/// weights from one RNG seeded with `seed`.
fn add_gnp_edges(b: &mut GraphBuilder, n: usize, p: f64, weights: WeightModel, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    // Geometric skipping: expected O(m) instead of O(n^2) when p is small.
    if p > 0.0 {
        let ln_q = (1.0 - p).ln();
        let mut v: i64 = 1;
        let mut w: i64 = -1;
        let n = n as i64;
        while v < n {
            let r: f64 = rng.gen_range(0.0f64..1.0).max(f64::MIN_POSITIVE);
            let skip = if p >= 1.0 {
                1.0
            } else {
                (r.ln() / ln_q).floor() + 1.0
            };
            w += skip as i64;
            while w >= v && v < n {
                w -= v;
                v += 1;
            }
            if v < n {
                b.add_edge(v as u32, w as u32, weights.sample(&mut rng));
            }
        }
    }
}

/// Connected Erdős–Rényi: `G(n, p)` plus a random Hamiltonian-path backbone
/// so every instance is connected (the backbone edges use the same weight
/// model). Both edge sets go into one builder, so the graph is built
/// once; a backbone edge that repeats a `G(n, p)` edge keeps the lighter
/// weight.
pub fn connected_erdos_renyi(n: usize, p: f64, weights: WeightModel, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
    let mut b = GraphBuilder::new(n);
    add_gnp_edges(&mut b, n, p, weights, seed);
    let mut perm: Vec<u32> = (0..n as u32).collect();
    perm.shuffle(&mut rng);
    for win in perm.windows(2) {
        b.add_edge(win[0], win[1], weights.sample(&mut rng));
    }
    b.build()
}

/// 2-D grid `rows × cols` (4-neighbourhood).
pub fn grid(rows: usize, cols: usize, weights: WeightModel, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rows * cols;
    let idx = |r: usize, c: usize| (r * cols + c) as u32;
    let mut b = GraphBuilder::new(n);
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                b.add_edge(idx(r, c), idx(r, c + 1), weights.sample(&mut rng));
            }
            if r + 1 < rows {
                b.add_edge(idx(r, c), idx(r + 1, c), weights.sample(&mut rng));
            }
        }
    }
    b.build()
}

/// 2-D torus (grid with wrap-around rows/columns).
pub fn torus(rows: usize, cols: usize, weights: WeightModel, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rows * cols;
    let idx = |r: usize, c: usize| ((r % rows) * cols + (c % cols)) as u32;
    let mut b = GraphBuilder::new(n);
    for r in 0..rows {
        for c in 0..cols {
            if cols > 1 {
                b.add_edge(idx(r, c), idx(r, c + 1), weights.sample(&mut rng));
            }
            if rows > 1 {
                b.add_edge(idx(r, c), idx(r + 1, c), weights.sample(&mut rng));
            }
        }
    }
    b.build()
}

/// `d`-dimensional hypercube on `2^d` vertices.
pub fn hypercube(d: u32, weights: WeightModel, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = 1usize << d;
    let mut b = GraphBuilder::new(n);
    for v in 0..n {
        for bit in 0..d {
            let u = v ^ (1 << bit);
            if u > v {
                b.add_edge(v as u32, u as u32, weights.sample(&mut rng));
            }
        }
    }
    b.build()
}

/// Random geometric graph: `n` points uniform in the unit square, edges
/// between points within distance `radius`; weights can optionally reflect
/// (scaled, rounded) Euclidean distance via [`WeightModel::Unit`] → use
/// `geometric_euclidean` instead for that.
pub fn random_geometric(n: usize, radius: f64, weights: WeightModel, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let pts: Vec<(f64, f64)> = (0..n)
        .map(|_| (rng.gen::<f64>(), rng.gen::<f64>()))
        .collect();
    let mut b = GraphBuilder::new(n);
    // Grid bucketing for near-linear edge discovery.
    let cell = radius.max(1e-9);
    let cells = (1.0 / cell).ceil() as i64 + 1;
    // BTreeMap, not HashMap: the weight RNG is consumed in edge
    // discovery order, so bucket iteration order must be deterministic
    // or same-seed graphs get different weights run to run.
    let mut buckets: std::collections::BTreeMap<(i64, i64), Vec<u32>> =
        std::collections::BTreeMap::new();
    for (i, &(x, y)) in pts.iter().enumerate() {
        let key = ((x / cell) as i64, (y / cell) as i64);
        buckets.entry(key).or_default().push(i as u32);
    }
    let r2 = radius * radius;
    for (&(cx, cy), members) in &buckets {
        for dx in -1..=1i64 {
            for dy in -1..=1i64 {
                let (nx, ny) = (cx + dx, cy + dy);
                if nx < 0 || ny < 0 || nx > cells || ny > cells {
                    continue;
                }
                if let Some(others) = buckets.get(&(nx, ny)) {
                    for &a in members {
                        for &bv in others {
                            if a < bv {
                                let (ax, ay) = pts[a as usize];
                                let (bx, by) = pts[bv as usize];
                                let d2 = (ax - bx).powi(2) + (ay - by).powi(2);
                                if d2 <= r2 {
                                    b.add_edge(a, bv, weights.sample(&mut rng));
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    b.build()
}

/// Random geometric graph whose weights are the scaled Euclidean distances
/// (`ceil(1000 * dist)`), a natural "road-network-like" weighted workload.
pub fn geometric_euclidean(n: usize, radius: f64, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let pts: Vec<(f64, f64)> = (0..n)
        .map(|_| (rng.gen::<f64>(), rng.gen::<f64>()))
        .collect();
    let mut b = GraphBuilder::new(n);
    let r2 = radius * radius;
    for a in 0..n {
        for bv in (a + 1)..n {
            let (ax, ay) = pts[a];
            let (bx, by) = pts[bv];
            let d2 = (ax - bx).powi(2) + (ay - by).powi(2);
            if d2 <= r2 {
                let w = (d2.sqrt() * 1000.0).ceil().max(1.0) as Weight;
                b.add_edge(a as u32, bv as u32, w);
            }
        }
    }
    b.build()
}

/// Chung–Lu power-law graph: expected degree of vertex `i` proportional to
/// `(i+1)^{-1/(beta-1)}`, normalised to average degree `avg_deg`.
/// `beta` around 2.5 gives realistic web-like degree skew.
pub fn chung_lu_power_law(
    n: usize,
    avg_deg: f64,
    beta: f64,
    weights: WeightModel,
    seed: u64,
) -> Graph {
    assert!(
        beta > 2.0,
        "Chung–Lu requires beta > 2 for bounded avg degree"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let exp = -1.0 / (beta - 1.0);
    let mut w: Vec<f64> = (0..n).map(|i| ((i + 1) as f64).powf(exp)).collect();
    let sum: f64 = w.iter().sum();
    let scale = avg_deg * n as f64 / sum;
    for wi in &mut w {
        *wi *= scale;
    }
    let total: f64 = w.iter().sum();
    let mut b = GraphBuilder::new(n);
    // Expected-degree model with union-of-stars sampling: for each vertex i,
    // sample ~w_i endpoints proportional to w.
    let mut cdf = Vec::with_capacity(n);
    let mut acc = 0.0;
    for &wi in &w {
        acc += wi;
        cdf.push(acc);
    }
    let sample_vertex = |rng: &mut StdRng| -> u32 {
        let x = rng.gen_range(0.0..total);
        cdf.partition_point(|&c| c < x).min(n - 1) as u32
    };
    for (i, wi) in w.iter().enumerate() {
        let trials = wi.round() as usize;
        for _ in 0..trials {
            let j = sample_vertex(&mut rng);
            if j as usize != i {
                b.add_edge(i as u32, j, weights.sample(&mut rng));
            }
        }
    }
    b.build()
}

/// Cycle on `n` vertices.
pub fn cycle(n: usize, weights: WeightModel, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new(n);
    if n >= 2 {
        for v in 0..n {
            let u = (v + 1) % n;
            if u != v {
                b.add_edge(v as u32, u as u32, weights.sample(&mut rng));
            }
        }
    }
    b.build()
}

/// Path on `n` vertices.
pub fn path(n: usize, weights: WeightModel, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new(n);
    for v in 1..n {
        b.add_edge(v as u32 - 1, v as u32, weights.sample(&mut rng));
    }
    b.build()
}

/// Complete graph `K_n`.
pub fn complete(n: usize, weights: WeightModel, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new(n);
    for u in 0..n {
        for v in (u + 1)..n {
            b.add_edge(u as u32, v as u32, weights.sample(&mut rng));
        }
    }
    b.build()
}

/// Caterpillar: a spine path of `spine` vertices, each with `legs` pendant
/// leaves. Produces the hub-heavy shape where Appendix B's dense/sparse
/// split is non-trivial.
pub fn caterpillar(spine: usize, legs: usize, weights: WeightModel, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = spine * (1 + legs);
    let mut b = GraphBuilder::new(n.max(1));
    for s in 1..spine {
        b.add_edge(s as u32 - 1, s as u32, weights.sample(&mut rng));
    }
    for s in 0..spine {
        for l in 0..legs {
            let leaf = spine + s * legs + l;
            b.add_edge(s as u32, leaf as u32, weights.sample(&mut rng));
        }
    }
    b.build()
}

/// "Cluster barbell": `c` cliques of size `s`, consecutive cliques joined by
/// one bridge edge. High-girth-free but bridge-heavy, an adversarial shape
/// for cluster contraction.
pub fn clique_chain(c: usize, s: usize, weights: WeightModel, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = c * s;
    let mut b = GraphBuilder::new(n.max(1));
    for ci in 0..c {
        let base = ci * s;
        for a in 0..s {
            for bb in (a + 1)..s {
                b.add_edge(
                    (base + a) as u32,
                    (base + bb) as u32,
                    weights.sample(&mut rng),
                );
            }
        }
        if ci + 1 < c {
            b.add_edge(
                (base + s - 1) as u32,
                (base + s) as u32,
                weights.sample(&mut rng),
            );
        }
    }
    b.build()
}

/// "Hub ring": a cycle on `ring` vertices with `hubs` evenly spaced
/// vertices each carrying `spokes` pendant leaves.
///
/// Built for Appendix B's sparse/dense decomposition: ring vertices far
/// from a hub have tiny `O(hops)`-size balls (sparse), while hubs and
/// anything within a few hops of them see `Ω(spokes)`-size balls
/// (dense) — so a single instance exercises both code paths.
pub fn hub_ring(ring: usize, hubs: usize, spokes: usize, weights: WeightModel, seed: u64) -> Graph {
    assert!(ring >= 3, "ring needs at least 3 vertices");
    assert!(hubs <= ring, "at most one hub per ring vertex");
    let mut rng = StdRng::seed_from_u64(seed);
    let n = ring + hubs * spokes;
    let mut b = GraphBuilder::new(n);
    for v in 0..ring {
        b.add_edge(v as u32, ((v + 1) % ring) as u32, weights.sample(&mut rng));
    }
    for h in 0..hubs {
        let hub = (h * ring / hubs.max(1)) as u32;
        for s in 0..spokes {
            let leaf = ring + h * spokes + s;
            b.add_edge(hub, leaf as u32, weights.sample(&mut rng));
        }
    }
    b.build()
}

/// Random `d`-regular-ish graph via the configuration model (pairing of
/// half-edges; self-loops and duplicate pairs dropped, so degrees are
/// *at most* `d`). A standard bounded-degree expander-like workload.
pub fn random_regular(n: usize, d: usize, weights: WeightModel, seed: u64) -> Graph {
    assert!((n * d).is_multiple_of(2), "n·d must be even for a pairing");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut stubs: Vec<u32> = (0..n as u32)
        .flat_map(|v| std::iter::repeat_n(v, d))
        .collect();
    stubs.shuffle(&mut rng);
    let mut b = GraphBuilder::new(n.max(1));
    for pair in stubs.chunks(2) {
        if let [a, c] = *pair {
            if a != c {
                b.add_edge(a, c, weights.sample(&mut rng));
            }
        }
    }
    b.build()
}

/// Uniform random tree (random Prüfer sequence).
pub fn random_tree(n: usize, weights: WeightModel, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new(n.max(1));
    if n >= 2 {
        if n == 2 {
            b.add_edge(0, 1, weights.sample(&mut rng));
        } else {
            let prufer: Vec<u32> = (0..n - 2).map(|_| rng.gen_range(0..n as u32)).collect();
            let mut degree = vec![1u32; n];
            for &p in &prufer {
                degree[p as usize] += 1;
            }
            let mut heap: std::collections::BinaryHeap<std::cmp::Reverse<u32>> = (0..n as u32)
                .filter(|&v| degree[v as usize] == 1)
                .map(std::cmp::Reverse)
                .collect();
            for &p in &prufer {
                let std::cmp::Reverse(leaf) = heap.pop().expect("leaf exists");
                b.add_edge(leaf, p, weights.sample(&mut rng));
                degree[p as usize] -= 1;
                if degree[p as usize] == 1 {
                    heap.push(std::cmp::Reverse(p));
                }
            }
            let std::cmp::Reverse(a) = heap.pop().expect("two leaves left");
            let std::cmp::Reverse(bv) = heap.pop().expect("two leaves left");
            b.add_edge(a, bv, weights.sample(&mut rng));
        }
    }
    b.build()
}

/// The workload families used by the experiment harness, as a closed enum
/// so experiments can be described declaratively.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Family {
    /// `G(n, p)` with a connectivity backbone.
    ErdosRenyi { n: usize, avg_deg: f64 },
    /// Random geometric with Euclidean weights.
    Geometric { n: usize, radius: f64 },
    /// 2-D torus, `side × side`.
    Torus { side: usize },
    /// Hypercube of dimension `d`.
    Hypercube { d: u32 },
    /// Chung–Lu power law with `beta = 2.5`.
    PowerLaw { n: usize, avg_deg: f64 },
    /// Chain of cliques.
    CliqueChain { cliques: usize, size: usize },
}

impl Family {
    /// Instantiates the family with the given weight model and seed.
    pub fn generate(&self, weights: WeightModel, seed: u64) -> Graph {
        match *self {
            Family::ErdosRenyi { n, avg_deg } => {
                let p = (avg_deg / (n.saturating_sub(1)) as f64).min(1.0);
                connected_erdos_renyi(n, p, weights, seed)
            }
            Family::Geometric { n, radius } => match weights {
                WeightModel::Unit => random_geometric(n, radius, WeightModel::Unit, seed),
                _ => geometric_euclidean(n, radius, seed),
            },
            Family::Torus { side } => torus(side, side, weights, seed),
            Family::Hypercube { d } => hypercube(d, weights, seed),
            Family::PowerLaw { n, avg_deg } => chung_lu_power_law(n, avg_deg, 2.5, weights, seed),
            Family::CliqueChain { cliques, size } => clique_chain(cliques, size, weights, seed),
        }
    }

    /// Short human-readable name for experiment tables.
    pub fn name(&self) -> String {
        match *self {
            Family::ErdosRenyi { n, avg_deg } => format!("er(n={n},d={avg_deg})"),
            Family::Geometric { n, radius } => format!("geo(n={n},r={radius})"),
            Family::Torus { side } => format!("torus({side}x{side})"),
            Family::Hypercube { d } => format!("hcube(d={d})"),
            Family::PowerLaw { n, avg_deg } => format!("plaw(n={n},d={avg_deg})"),
            Family::CliqueChain { cliques, size } => format!("cliques({cliques}x{size})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::components::{component_count, is_connected};

    #[test]
    fn er_edge_count_is_plausible() {
        let n = 400;
        let p = 0.05;
        let g = erdos_renyi(n, p, WeightModel::Unit, 42);
        let expected = p * (n * (n - 1) / 2) as f64;
        let m = g.m() as f64;
        assert!(
            (m - expected).abs() < 4.0 * expected.sqrt() + 20.0,
            "m={m} expected≈{expected}"
        );
    }

    #[test]
    fn random_geometric_is_deterministic_per_seed_including_weights() {
        // Pins the BTreeMap bucket fix: edge discovery order drives the
        // weight RNG, so same-seed builds must agree edge-for-edge,
        // weights included.
        let a = random_geometric(300, 0.08, WeightModel::Uniform(1, 100), 11);
        let b = random_geometric(300, 0.08, WeightModel::Uniform(1, 100), 11);
        assert_eq!(a.edges(), b.edges());
        assert!(
            a.m() > 0,
            "radius 0.08 over 300 points should produce edges"
        );
    }

    #[test]
    fn er_is_deterministic_per_seed() {
        let a = erdos_renyi(200, 0.03, WeightModel::Uniform(1, 10), 7);
        let b = erdos_renyi(200, 0.03, WeightModel::Uniform(1, 10), 7);
        assert_eq!(a.edges(), b.edges());
        let c = erdos_renyi(200, 0.03, WeightModel::Uniform(1, 10), 8);
        assert_ne!(a.edges(), c.edges());
    }

    #[test]
    fn benchmark_inputs_keep_their_fingerprints() {
        // The benchmark's host graphs are this family with these weights;
        // a generator or builder change that moves an edge, a weight or an
        // id changes these values.
        let family = Family::ErdosRenyi {
            n: 4096,
            avg_deg: 12.0,
        };
        let pinned = [
            (0, 28554, 0x5664_1123_1c08_70ac),
            (1, 28681, 0x5da7_58cb_c6b2_9226),
            (2, 28389, 0xbf5c_0816_f7f8_6962),
        ];
        for (seed, m, fingerprint) in pinned {
            let g = family.generate(WeightModel::PowersOfTwo(8), seed);
            assert_eq!((g.m(), g.fingerprint()), (m, fingerprint), "seed {seed}");
        }
    }

    #[test]
    fn connected_er_is_connected() {
        for seed in 0..5 {
            let g = connected_erdos_renyi(300, 0.001, WeightModel::Unit, seed);
            assert!(is_connected(&g), "seed {seed}");
        }
    }

    #[test]
    fn grid_shape() {
        let g = grid(4, 5, WeightModel::Unit, 0);
        assert_eq!(g.n(), 20);
        // 4*(5-1) horizontal + (4-1)*5 vertical
        assert_eq!(g.m(), 16 + 15);
        assert!(is_connected(&g));
    }

    #[test]
    fn torus_is_regular() {
        let g = torus(4, 4, WeightModel::Unit, 0);
        assert_eq!(g.n(), 16);
        assert_eq!(g.m(), 32);
        for v in 0..16 {
            assert_eq!(g.degree(v), 4);
        }
    }

    #[test]
    fn hypercube_degree_is_d() {
        let g = hypercube(4, WeightModel::Unit, 0);
        assert_eq!(g.n(), 16);
        for v in 0..16 {
            assert_eq!(g.degree(v), 4);
        }
        assert!(is_connected(&g));
    }

    #[test]
    fn cycle_and_path_counts() {
        assert_eq!(cycle(10, WeightModel::Unit, 0).m(), 10);
        assert_eq!(path(10, WeightModel::Unit, 0).m(), 9);
        assert_eq!(complete(6, WeightModel::Unit, 0).m(), 15);
    }

    #[test]
    fn caterpillar_is_tree() {
        let g = caterpillar(5, 3, WeightModel::Unit, 0);
        assert_eq!(g.n(), 20);
        assert_eq!(g.m(), 19);
        assert!(is_connected(&g));
    }

    #[test]
    fn clique_chain_connected() {
        let g = clique_chain(4, 5, WeightModel::Uniform(1, 4), 3);
        assert_eq!(g.n(), 20);
        assert!(is_connected(&g));
        assert_eq!(g.m(), 4 * 10 + 3);
    }

    #[test]
    fn hub_ring_shape() {
        let g = hub_ring(100, 4, 25, WeightModel::Unit, 0);
        assert_eq!(g.n(), 200);
        assert_eq!(g.m(), 100 + 100); // ring + spokes
        assert!(is_connected(&g));
        // Hubs have degree spokes + 2; plain ring vertices degree 2.
        assert_eq!(g.degree(0), 27);
        assert_eq!(g.degree(1), 2);
    }

    #[test]
    #[should_panic(expected = "at most one hub")]
    fn hub_ring_validates() {
        let _ = hub_ring(4, 9, 1, WeightModel::Unit, 0);
    }

    #[test]
    fn random_regular_degrees_bounded() {
        let g = random_regular(200, 6, WeightModel::Unit, 3);
        assert!(g.n() == 200);
        for v in 0..200 {
            assert!(g.degree(v) <= 6, "degree {} > 6", g.degree(v));
        }
        // The configuration model loses only a few edges to collisions.
        assert!(g.m() >= 200 * 6 / 2 - 40, "m={}", g.m());
        assert!(is_connected(&g), "d=6 random regular is connected whp");
    }

    #[test]
    #[should_panic(expected = "even")]
    fn random_regular_parity_checked() {
        let _ = random_regular(5, 3, WeightModel::Unit, 0);
    }

    #[test]
    fn random_tree_is_tree() {
        for seed in 0..5 {
            let g = random_tree(50, WeightModel::Unit, seed);
            assert_eq!(g.m(), 49, "seed {seed}");
            assert!(is_connected(&g), "seed {seed}");
        }
    }

    #[test]
    fn power_law_has_skew() {
        let g = chung_lu_power_law(500, 6.0, 2.5, WeightModel::Unit, 11);
        assert!(g.m() > 200);
        // Highest-weight vertex should have clearly above-average degree.
        let avg = 2.0 * g.m() as f64 / g.n() as f64;
        assert!(
            g.degree(0) as f64 > 2.0 * avg,
            "deg0={} avg={avg}",
            g.degree(0)
        );
    }

    #[test]
    fn geometric_connects_at_large_radius() {
        let g = random_geometric(200, 0.3, WeightModel::Unit, 5);
        assert!(component_count(&g) < 5);
    }

    #[test]
    fn euclidean_weights_positive() {
        let g = geometric_euclidean(100, 0.2, 5);
        assert!(g.edges().iter().all(|e| e.w >= 1));
    }

    #[test]
    fn family_generate_all() {
        for fam in [
            Family::ErdosRenyi {
                n: 100,
                avg_deg: 6.0,
            },
            Family::Geometric {
                n: 100,
                radius: 0.2,
            },
            Family::Torus { side: 8 },
            Family::Hypercube { d: 6 },
            Family::PowerLaw {
                n: 100,
                avg_deg: 5.0,
            },
            Family::CliqueChain {
                cliques: 5,
                size: 6,
            },
        ] {
            let g = fam.generate(WeightModel::Uniform(1, 16), 99);
            assert!(g.n() > 0, "{}", fam.name());
            assert!(g.m() > 0, "{}", fam.name());
            assert!(!fam.name().is_empty());
        }
    }
}
