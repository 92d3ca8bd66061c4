//! **E1 — Corollary 1.2**: the paper's de-facto results table.
//!
//! Reproduces the four named (rounds, stretch, size) settings on the
//! standard weighted battery: predicted iteration counts, stretch
//! guarantees, and size envelopes against the measured values.

use spanner_bench::table::{f2, Table};
use spanner_bench::{measure, size_baseline, workloads};
use spanner_core::pipeline::{Algorithm, CorollarySetting, SpannerRequest};

fn main() {
    println!("# E1 — Corollary 1.2 settings (k = 8 where applicable)\n");
    let k = 8;
    for (name, g) in workloads::weighted_battery() {
        println!("## workload {name} (n={}, m={})\n", g.n(), g.m());
        let mut t = Table::new(&[
            "setting",
            "k",
            "t",
            "iters",
            "iters bound",
            "stretch",
            "stretch bound",
            "size",
            "size/n^(1+1/k)",
            "valid",
        ]);
        for setting in CorollarySetting::all() {
            let request = SpannerRequest::new(&g, Algorithm::Corollary { setting, k }).seed(0xE1);
            let plan = request.plan().expect("valid setting");
            let params = plan
                .schedule
                .expect("corollary settings resolve to a schedule");
            let r = request.run().expect("sequential run").result;
            let m = measure(&g, &r.edges, 32, 1);
            t.row(vec![
                setting.label(),
                params.k.to_string(),
                params.t.to_string(),
                r.iterations.to_string(),
                plan.iterations.to_string(),
                f2(m.stretch),
                f2(r.stretch_bound),
                m.size.to_string(),
                f2(m.size as f64 / size_baseline(g.n(), params.k)),
                m.valid.to_string(),
            ]);
        }
        t.print();
        println!();
    }
}
