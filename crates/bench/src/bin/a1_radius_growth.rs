//! **A1 — ablation**: per-epoch cluster radius growth.
//!
//! Section 2.3's intuition — and Corollary 5.9's law — is that the
//! cluster radius grows by a factor `2t+1` per epoch:
//! `r(i) ≤ ((2t+1)^i − 1)/2`. We measure the max super-node radius (in
//! hops, on the original graph) after every contraction, on a
//! high-diameter workload where radii actually grow.

use spanner_bench::table::{f2, Table};
use spanner_core::pipeline::{Algorithm, SpannerRequest};
use spanner_core::TradeoffParams;
use spanner_graph::generators::{torus, WeightModel};

fn main() {
    println!("# A1 — radius growth per epoch (Corollary 5.9: r(i) <= ((2t+1)^i - 1)/2)\n");
    let g = torus(48, 48, WeightModel::Unit, 0xA1);
    println!("workload torus(48x48): n={}, m={}\n", g.n(), g.m());
    let mut t = Table::new(&[
        "t",
        "k",
        "epoch",
        "measured radius",
        "bound ((2t+1)^i-1)/2",
        "utilisation",
    ]);
    for (k, tt) in [(16u32, 1u32), (16, 2), (27, 2), (16, 4)] {
        let params = TradeoffParams::new(k, tt);
        let r = SpannerRequest::new(&g, Algorithm::General(params))
            .seed(0x1A)
            .track_radii(true)
            .run()
            .expect("sequential run")
            .result;
        for (i, &radius) in r.radius_per_epoch.iter().enumerate() {
            let bound = params.radius_bound(i as u32 + 1);
            t.row(vec![
                tt.to_string(),
                k.to_string(),
                (i + 1).to_string(),
                radius.to_string(),
                f2(bound),
                f2(radius as f64 / bound.max(1.0)),
            ]);
        }
    }
    t.print();
    println!("\n(utilisation = measured/bound; must stay <= 1)");
}
