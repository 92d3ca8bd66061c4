//! The per-layer table (`--trace 1`).
//!
//! Each layer metric is measured on the workload whose end-to-end
//! metric it should move (see `perfbench/README.md` for the map), so a
//! traced run builds the whole table: the engine replay on
//! `spanner-seq`, the MPC counts on both MPC workloads, the distance and
//! serving layers on `mpc-apsp` and `serve-mixed`. The workload named on
//! the command line contributes its own graph generation time and pool
//! dispatch cost. Spans are taken from the benchmark's own calls into
//! each layer's public functions; the program itself is not
//! instrumented.

use std::hint::black_box;

use rayon::prelude::*;

use crate::report::median;
use crate::{derive, er_graph, mpc, serve, spanner_seq, time, Config, Outcome};

/// Builds the full per-layer table.
pub fn run(config: &Config) -> Outcome {
    let mut out = Outcome::default();
    out.metric("graph.generate_s", generate_s(config), "s");
    out.metric("rayon.dispatch_us", dispatch_us(), "us");
    out.absorb(spanner_seq::trace(config));
    out.absorb(mpc::trace_sublinear(config));
    out.absorb(mpc::trace_apsp(config));
    out.absorb(serve::trace(config));
    out
}

/// Median wall time of generating the named workload's input graphs.
fn generate_s(config: &Config) -> f64 {
    let gen = |n: usize, avg_deg: f64, purpose: u64| {
        time(|| black_box(er_graph(n, avg_deg, derive(config.seed, purpose)))).1
    };
    let times: Vec<f64> = (0..3)
        .map(|_| match config.workload.as_str() {
            "spanner-seq" => {
                let s = spanner_seq::shape(config.scale);
                gen(s.n, s.avg_deg, 1)
            }
            "mpc-sublinear" => {
                let s = mpc::sublinear_shape(config.scale);
                gen(s.n, s.avg_deg, 1)
            }
            "mpc-apsp" => {
                let s = mpc::apsp_shape(config.scale);
                gen(s.n, s.avg_deg, 1)
            }
            _ => {
                let s = serve::shape(config.scale);
                (0..s.graphs as u64)
                    .map(|i| gen(s.n, s.avg_deg, 100 + i))
                    .sum()
            }
        })
        .collect();
    median(&times)
}

/// Median cost of an empty two-element `par_iter`: the pool's fixed
/// dispatch overhead.
fn dispatch_us() -> f64 {
    let items = [0u64; 2];
    let times: Vec<f64> = (0..20_000)
        .map(|_| {
            time(|| {
                items.par_iter().for_each(|x| {
                    black_box(x);
                })
            })
            .1
        })
        .collect();
    1e6 * median(&times)
}
