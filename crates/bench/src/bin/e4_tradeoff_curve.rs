//! **E4 — Theorem 5.15**: the full round/stretch trade-off curve (the
//! paper's figure-equivalent). For fixed `k`, sweeps the contraction
//! interval `t` from 1 (Section 4) through `log k` (the distance-
//! approximation sweet spot) and `√k` (Section 3's schedule) to `k`
//! (Baswana–Sen): iterations ↓ rounds vs stretch, with the predicted
//! `t·⌈log k/log(t+1)⌉` and `2k^s` curves alongside.

use spanner_bench::table::{f2, Table};
use spanner_bench::{measure, size_baseline, workloads};
use spanner_core::pipeline::{Algorithm, SpannerRequest};
use spanner_core::TradeoffParams;

fn main() {
    println!("# E4 — Theorem 5.15 trade-off curve\n");
    let g = workloads::default_er(1024);
    println!(
        "workload er(n={}, m={}), weighted (powers of two)\n",
        g.n(),
        g.m()
    );
    for k in [16u32, 64] {
        println!("## k = {k}\n");
        let mut table = Table::new(&[
            "t",
            "epochs",
            "iters",
            "iters bound",
            "s=log(2t+1)/log(t+1)",
            "stretch",
            "stretch bound",
            "size",
            "size/(n^(1+1/k)(t+log k))",
            "valid",
        ]);
        let mut ts: Vec<u32> = vec![1, 2, 3, 4];
        ts.push((k as f64).log2().round() as u32); // log k
        ts.push((k as f64).sqrt().ceil() as u32); // sqrt k
        ts.push(k / 2);
        ts.push(k); // Baswana–Sen
        ts.sort_unstable();
        ts.dedup();
        for t in ts {
            let params = TradeoffParams::new(k, t);
            let r = SpannerRequest::new(&g, Algorithm::General(params))
                .seed(0xE4)
                .run()
                .expect("sequential run")
                .result;
            let m = measure(&g, &r.edges, 24, 4);
            let denom = size_baseline(g.n(), k) * (t as f64 + (k as f64).log2());
            table.row(vec![
                t.to_string(),
                r.epochs.to_string(),
                r.iterations.to_string(),
                params.iterations().to_string(),
                f2(params.stretch_exponent()),
                f2(m.stretch),
                f2(params.stretch_bound()),
                m.size.to_string(),
                f2(m.size as f64 / denom),
                m.valid.to_string(),
            ]);
        }
        table.print();
        println!();
    }
}
