//! Quickstart: build the paper's 64-core NoC, plant a TASP hardware trojan
//! on a hot link, watch it deny service, then turn on the threat detector +
//! L-Ob mitigation and watch the network shrug the attack off.
//!
//! Run: `cargo run --release --example quickstart`

use htnoc::prelude::*;

fn run(mitigation: bool) -> (u64, u64, u64, bool) {
    // The evaluation platform: 4×4 mesh, 4 cores/router, 4 VCs × 4 slots,
    // SECDED links with switch-to-switch retransmission.
    let cfg = if mitigation {
        SimConfig::paper()
    } else {
        SimConfig::paper_unprotected()
    };
    let mut sim = Simulator::new(cfg);

    // The attacker compromises the eastward link out of router 0 with a
    // trojan hunting every packet addressed to router 1.
    let link = sim
        .mesh()
        .link_out(NodeId(0), noc_types::Direction::East)
        .expect("mesh link");
    let trojan = TaspHt::new(TaspConfig::new(TargetSpec::dest(1)));
    sim.link_faults_mut(link).trojan = Some(trojan);

    // ... and throws the kill switch.
    sim.arm_trojans(true);

    // Uniform random traffic, 600 cycles of injection, then drain.
    let mut traffic =
        SyntheticTraffic::new(Mesh::paper(), Pattern::UniformRandom, 0.02, 42).until(600);
    let drained = sim.run_to_quiescence(20_000, &mut traffic);
    let s = sim.stats();
    (
        s.injected_packets,
        s.delivered_packets,
        s.retransmissions,
        drained,
    )
}

fn main() {
    println!("TASP denial-of-service attack on a 64-core NoC\n");

    let (inj, del, retx, drained) = run(false);
    println!("without mitigation:");
    println!("  injected {inj} packets, delivered {del}, {retx} retransmissions");
    println!("  network drained: {drained}  ← the targeted flow is starved forever\n");

    let (inj, del, retx, drained) = run(true);
    println!("with threat detector + s2s L-Ob:");
    println!("  injected {inj} packets, delivered {del}, {retx} retransmissions");
    println!("  network drained: {drained}  ← obfuscated retries slip past the trojan");
}
