//! **E2 — Theorem 4.14**: the cluster-cluster merging algorithm
//! (`t = 1`): `⌈log₂ k⌉` epochs, stretch ≤ `k^{log 3}`, size
//! `O(n^{1+1/k} log k)` — predicted vs measured over a `k` sweep.

use spanner_bench::table::{f2, Table};
use spanner_bench::{measure, size_baseline, workloads};
use spanner_core::pipeline::{Algorithm, SpannerRequest};

fn main() {
    println!("# E2 — Theorem 4.14 (cluster-cluster merging, t = 1)\n");
    for (name, g) in workloads::weighted_battery() {
        println!("## workload {name} (n={}, m={})\n", g.n(), g.m());
        let mut t = Table::new(&[
            "k",
            "epochs",
            "log2 k",
            "stretch",
            "k^log3",
            "size",
            "size/(n^(1+1/k)·log k)",
            "valid",
        ]);
        for k in [2u32, 4, 8, 16, 32] {
            let r = SpannerRequest::new(&g, Algorithm::ClusterMerging { k })
                .seed(0xE2)
                .run()
                .expect("sequential run")
                .result;
            let m = measure(&g, &r.edges, 24, 2);
            let logk = (k as f64).log2().max(1.0);
            t.row(vec![
                k.to_string(),
                r.epochs.to_string(),
                format!("{:.0}", logk.ceil()),
                f2(m.stretch),
                f2((k as f64).powf(3f64.log2())),
                m.size.to_string(),
                f2(m.size as f64 / (size_baseline(g.n(), k) * logk)),
                m.valid.to_string(),
            ]);
        }
        t.print();
        println!();
    }
}
