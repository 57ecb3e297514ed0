//! Apples-to-apples strategy comparison by trace replay: record one
//! workload once, then replay the *identical* injection schedule into a
//! clean network, an attacked-unprotected network, and an attacked network
//! under the paper's mitigation.
//!
//! Run: `cargo run --release --example replay_comparison`

use htnoc::prelude::*;
use htnoc::traffic::Trace;

fn main() {
    let mesh = Mesh::paper();
    // Record 1000 cycles of the Blackscholes model once.
    let mut model = AppModel::new(AppSpec::blackscholes(), mesh.clone(), 7).until(1000);
    let trace = Trace::capture(&mut model, 1000);
    println!(
        "recorded workload: {} packets / {} flits over 1000 cycles\n",
        trace.len(),
        trace.flits()
    );

    let infected: Vec<LinkId> = {
        let mut probe = AppModel::new(AppSpec::blackscholes(), mesh.clone(), 7);
        let shares = TrafficMatrix::sample(&mut probe, 1500).link_shares_xy(&mesh);
        select_infected(&mesh, &shares, 1.0, None)
            .into_iter()
            .take(1)
            .collect()
    };

    println!(
        "{:<28} {:>9} {:>12} {:>8} {:>9}",
        "network", "delivered", "avg latency", "p99", "finished"
    );
    for (label, mount_trojan, mitigation) in [
        ("clean", false, false),
        ("attacked, unprotected", true, false),
        ("attacked, s2s L-Ob", true, true),
    ] {
        let cfg = if mitigation {
            SimConfig::paper()
        } else {
            SimConfig::paper_unprotected()
        };
        let mut sim = Simulator::new(cfg);
        if mount_trojan {
            for l in &infected {
                let ht = TaspHt::new(TaspConfig::new(TargetSpec::dest(
                    (AppSpec::blackscholes().primary.0 & 0xF) as u8,
                )));
                sim.link_faults_mut(*l).trojan = Some(ht);
            }
            sim.arm_trojans(true);
        }
        let mut replay = trace.replay();
        let finished = sim.run_to_quiescence(30_000, &mut replay);
        let s = sim.stats();
        println!(
            "{:<28} {:>9} {:>12.1} {:>8} {:>9}",
            label,
            s.delivered_packets,
            s.avg_latency(),
            s.latency_percentile(0.99),
            finished
        );
    }
    println!(
        "\nIdentical injections everywhere — the deltas are purely the trojan's\n\
         doing and the mitigation's cost."
    );
}
