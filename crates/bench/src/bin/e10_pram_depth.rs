//! **E10 — PRAM extension** (Section 6, closing): depth equals the MPC
//! iteration count times `O(log* n)`, with near-linear work — and beats
//! the `O(k·log* n)` depth of Baswana–Sen for large `k`.

use spanner_bench::table::{f2, Table};
use spanner_bench::workloads;
use spanner_core::pipeline::{log_star, Algorithm, Backend, SpannerRequest};
use spanner_core::TradeoffParams;

fn main() {
    println!("# E10 — PRAM depth (CRCW, log* n primitives)\n");
    let g = workloads::default_er(1024);
    println!(
        "workload er(n={}, m={}); log* n = {}\n",
        g.n(),
        g.m(),
        log_star(g.n())
    );
    let mut t = Table::new(&[
        "k",
        "t",
        "iters",
        "depth",
        "depth/(iters·log* n)",
        "BS depth (k·log* n + k)",
        "speedup vs BS",
        "work/m",
    ]);
    for k in [8u32, 16, 32, 64, 128] {
        let params = TradeoffParams::log_k(k);
        let report = SpannerRequest::new(&g, Algorithm::General(params))
            .on(Backend::Pram)
            .seed(0x10)
            .run()
            .expect("pram run");
        let run = report.stats.pram().expect("pram stats");
        let ls = run.log_star_n as f64;
        let iters = report.result.iterations.max(1) as f64;
        // Baswana–Sen on the same accounting: k iterations, each with the
        // same 3 primitives + 1 step.
        let bs_depth = k as f64 * (3.0 * ls + 1.0);
        t.row(vec![
            k.to_string(),
            params.t.to_string(),
            report.result.iterations.to_string(),
            run.depth.to_string(),
            f2(run.depth as f64 / (iters * ls)),
            format!("{bs_depth:.0}"),
            f2(bs_depth / run.depth as f64),
            f2(run.work as f64 / g.m() as f64),
        ]);
    }
    t.print();
}
