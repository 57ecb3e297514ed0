//! Ablation: threat-detector escalation thresholds — how many faults on
//! one flit before L-Ob engages (`lob_threshold`) and how many identical
//! syndromes before BIST runs (`bist_threshold`). Lower L-Ob thresholds
//! mitigate faster (fewer wasted retransmissions) but obfuscate more
//! transients needlessly; the measured columns quantify the trade.
//!
//! Run: `cargo run --release -p noc-bench --bin ablation_detector_thresholds`

use htnoc_core::prelude::*;
use noc_bench::table::{f, print_table};
use noc_mitigation::DetectorConfig;

fn run(lob_threshold: u32, bist_threshold: u32, transients: bool) -> (u64, u64, u64, f64) {
    let mesh = Mesh::paper();
    let app = AppSpec::blackscholes();
    let mut probe = AppModel::new(app.clone(), mesh.clone(), 7);
    let shares = TrafficMatrix::sample(&mut probe, 1500).link_shares_xy(&mesh);
    let infected: Vec<LinkId> = select_infected(&mesh, &shares, 1.0, None)
        .into_iter()
        .take(1)
        .collect();

    let mut cfg = SimConfig::paper();
    cfg.detector = DetectorConfig {
        lob_threshold,
        bist_threshold,
        ..DetectorConfig::default()
    };
    cfg.snapshot_interval = 50;
    let mut sim = Simulator::new(cfg);
    for l in &infected {
        let ht = TaspHt::new(TaspConfig::new(TargetSpec::dest(
            (app.primary.0 & 0xF) as u8,
        )));
        sim.link_faults_mut(*l).trojan = Some(ht);
    }
    if transients {
        for l in mesh.all_links() {
            sim.link_faults_mut(l).transient_bit_prob = 0.0001;
        }
    }
    let mut traffic = AppModel::new(app, mesh, 9).until(1200);
    sim.run(400, &mut traffic);
    sim.arm_trojans(true);
    sim.run_to_quiescence(20_000, &mut traffic);
    let s = sim.stats();
    (
        s.retransmissions,
        s.bist_scans,
        s.delivered_packets,
        s.avg_latency(),
    )
}

fn main() {
    println!(
        "=== Ablation — detector escalation thresholds (single TASP + background transients) ===\n"
    );
    let mut rows = Vec::new();
    for lob in [1u32, 2, 3, 4] {
        for bist in [2u32, 3] {
            let (retx, bists, delivered, lat) = run(lob, bist, true);
            rows.push(vec![
                lob.to_string(),
                bist.to_string(),
                retx.to_string(),
                bists.to_string(),
                delivered.to_string(),
                f(lat, 1),
            ]);
        }
    }
    print_table(
        &[
            "L-Ob after N faults",
            "BIST after N repeats",
            "retransmissions",
            "BIST scans",
            "delivered",
            "avg latency",
        ],
        &rows,
    );
    println!(
        "\nThe paper escalates on the second fault (threshold 2, Fig. 7 step g):\n\
         threshold 1 obfuscates every transient (wasted undo penalties),\n\
         large thresholds burn retransmission rounds before mitigation bites."
    );
}
