//! **E3 — Theorems 3.1/3.4**: the two-phase `√k` algorithm: `O(√k)`
//! grow iterations, stretch `O(k)`, size `O(√k·n^{1+1/k})`.

use spanner_bench::table::{f2, Table};
use spanner_bench::{measure, size_baseline, workloads};
use spanner_core::pipeline::{Algorithm, SpannerRequest};

fn main() {
    println!("# E3 — Theorem 3.1/3.4 (two-phase sqrt-k algorithm)\n");
    for (name, g) in workloads::weighted_battery() {
        println!("## workload {name} (n={}, m={})\n", g.n(), g.m());
        let mut t = Table::new(&[
            "k",
            "iters",
            "2*ceil(sqrt k)",
            "stretch",
            "stretch/k",
            "bound",
            "size",
            "size/(sqrt(k)*n^(1+1/k))",
            "valid",
        ]);
        for k in [4u32, 9, 16, 25, 36] {
            let r = SpannerRequest::new(&g, Algorithm::SqrtK { k })
                .seed(0xE3)
                .run()
                .expect("sequential run")
                .result;
            let m = measure(&g, &r.edges, 24, 3);
            let sq = (k as f64).sqrt();
            t.row(vec![
                k.to_string(),
                r.iterations.to_string(),
                format!("{:.0}", 2.0 * sq.ceil()),
                f2(m.stretch),
                f2(m.stretch / k as f64),
                f2(r.stretch_bound),
                m.size.to_string(),
                f2(m.size as f64 / (sq * size_baseline(g.n(), k))),
                m.valid.to_string(),
            ]);
        }
        t.print();
        println!();
    }
}
