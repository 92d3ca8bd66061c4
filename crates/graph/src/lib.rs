//! Graph substrate for the reproduction of *"Massively Parallel Algorithms
//! for Distance Approximation and Spanners"* (Biswas, Dory, Ghaffari,
//! Mitrović, Nazari — SPAA 2021).
//!
//! This crate provides everything the spanner algorithms and the experiment
//! harness need from the "graph side" of the system:
//!
//! * [`Graph`] — a compact CSR representation of weighted undirected graphs,
//!   built through [`GraphBuilder`] which canonicalises and deduplicates
//!   edges.
//! * [`generators`] — the synthetic workload families used throughout the
//!   experiments (Erdős–Rényi, random geometric, grids/tori, hypercubes,
//!   Chung–Lu power-law graphs, caterpillars, cycles, cliques, …).
//! * [`shortest_paths`] — exact reference algorithms (BFS, Dijkstra,
//!   multi-source variants, APSP) used both inside Appendix B's algorithm
//!   and for verification.
//! * [`components`] — connectivity utilities.
//! * [`scatter`] — the counting-scatter helpers behind the builder; the
//!   spanner engine cuts its super-node ranges with [`scatter::ranges`].
//! * [`verify`] — *spanner verification*: exact per-edge stretch of a
//!   candidate spanner, sampled pairwise stretch, and size accounting. All
//!   empirical claims in `EXPERIMENTS.md` are computed here.
//!
//! Weights are integral (`u64`). Unweighted graphs are weighted graphs with
//! unit weights; every algorithm in the paper that works on weighted graphs
//! is exercised with both.

pub mod components;
pub mod edge;
pub mod generators;
pub mod graph;
pub mod io;
pub mod scatter;
pub mod shortest_paths;
pub mod verify;

pub use edge::{Edge, EdgeList, Weight, INFINITY};
pub use graph::{Graph, GraphBuilder};
