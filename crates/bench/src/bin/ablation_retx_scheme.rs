//! Ablation: retransmission-buffer placement (shared at the output — the
//! paper's worst case — versus per-VC) under the TASP attack with and
//! without mitigation.
//!
//! Run: `cargo run --release -p noc-bench --bin ablation_retx_scheme`

use htnoc_core::prelude::*;
use noc_bench::fig10;
use noc_bench::table::print_table;

fn run(scheme: RetxScheme, strategy: Strategy) -> (u64, bool) {
    let app = AppSpec::blackscholes();
    let infected = fig10::infected_for(&app, 0.10, 3);
    let mut sc = Scenario::paper_default(app, strategy).with_infected(infected);
    sc.warmup = 300;
    sc.inject_until = 1200;
    sc.max_cycles = 30_000;
    sc.snapshot_interval = 50;
    // Compile the scenario, then override the retransmission scheme.
    let mut cfg = sc.sim_config();
    cfg.retx_scheme = scheme;
    let mut sim = Simulator::new(cfg);
    for link in &sc.infected {
        let ht = TaspHt::new(TaspConfig::new(sc.target.clone()));
        sim.link_faults_mut(*link).trojan = Some(ht);
    }
    let mut traffic = sc.build_traffic(sim.mesh());
    sim.run(sc.warmup, traffic.as_mut());
    sim.arm_trojans(true);
    while sim.cycle() < sc.max_cycles {
        sim.step(traffic.as_mut());
        if traffic.done() && sim.is_quiescent() {
            break;
        }
    }
    (sim.cycle(), sim.is_quiescent())
}

fn main() {
    println!("=== Ablation — retransmission buffer placement ===\n");
    let mut rows = Vec::new();
    for (scheme, name) in [
        (RetxScheme::Output, "output (shared)"),
        (RetxScheme::PerVc, "per-VC"),
    ] {
        for (strategy, sname) in [
            (Strategy::S2sLob, "s2s L-Ob"),
            (Strategy::Unprotected, "unprotected"),
        ] {
            let (cycles, drained) = run(scheme, strategy.clone());
            rows.push(vec![
                name.to_string(),
                sname.to_string(),
                if drained {
                    format!("{cycles}")
                } else {
                    format!(">{cycles} (stalled)")
                },
            ]);
        }
    }
    print_table(&["retx scheme", "defence", "completion cycles"], &rows);
    println!(
        "\nShared output buffers head-of-line block all VCs behind a NACKed\n\
         flit (the paper's worst case); per-VC slots confine the damage."
    );
}
