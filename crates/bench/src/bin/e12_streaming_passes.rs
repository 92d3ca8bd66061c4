//! **E12 — Section 2.4**: the dynamic-stream comparison.
//!
//! \[AGM12] build `k^{log 5}`-stretch spanners of size `Õ(n^{1+1/k})` in
//! `log k` passes, unweighted only. The paper's contraction framework in
//! the same `log k` passes achieves `k^{log 3}` — on weighted graphs —
//! and `k^{1+o(1)}` with `O(log²k/log log k)` passes. This experiment
//! measures passes and stretch for both schedules, with the AGM12
//! exponent quoted for reference.

use spanner_bench::table::{f2, Table};
use spanner_bench::{measure, workloads};
use spanner_core::pipeline::{Algorithm, Backend, SpannerRequest};
use spanner_core::TradeoffParams;

fn main() {
    println!("# E12 — Section 2.4: dynamic-stream passes\n");
    let g = workloads::default_er(1024);
    println!("workload er(n={}, m={}), weighted\n", g.n(), g.m());
    let mut t = Table::new(&[
        "schedule",
        "k",
        "passes",
        "stretch exponent s",
        "AGM12 exponent",
        "measured stretch",
        "k^s (ours)",
        "k^log5 (AGM12)",
        "size",
        "valid",
    ]);
    for k in [8u32, 16, 32] {
        for (label, params) in [
            ("t=1 (log k passes)", TradeoffParams::cluster_merging(k)),
            ("t=log k", TradeoffParams::log_k(k)),
        ] {
            let report = SpannerRequest::new(&g, Algorithm::General(params))
                .on(Backend::Streaming)
                .seed(0x12)
                .run()
                .expect("streaming run");
            let run = report.stats.streaming().expect("streaming stats");
            let m = measure(&g, &report.result.edges, 16, 12);
            t.row(vec![
                label.into(),
                k.to_string(),
                run.passes.to_string(),
                f2(run.quoted_stretch_exponent),
                f2(5f64.log2()),
                f2(m.stretch),
                f2((k as f64).powf(run.quoted_stretch_exponent)),
                f2((k as f64).powf(5f64.log2())),
                m.size.to_string(),
                m.valid.to_string(),
            ]);
        }
    }
    t.print();
    println!("\n(AGM12 is unweighted-only; this table is on a weighted stream)");
}
