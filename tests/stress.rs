//! Soak/stress testing: randomized configurations × traffic × faults,
//! with the NoCAlert-style invariant checker auditing every few cycles.
//! No configuration may panic, violate a protocol invariant, or lose a
//! flit.

use htnoc::prelude::*;
use htnoc::sim::fault::StuckWires;
use noc_types::Direction;

/// A deterministic pseudo-random u64 stream (no RNG state to drag around).
fn mix(seed: u64, n: u64) -> u64 {
    let mut z = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(n);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn stress_one(seed: u64) {
    let mesh = Mesh::paper();
    let mut cfg = SimConfig::paper();
    cfg.mitigation = mix(seed, 1).is_multiple_of(2);
    cfg.retx_scheme = if mix(seed, 2).is_multiple_of(2) {
        RetxScheme::Output
    } else {
        RetxScheme::PerVc
    };
    if mix(seed, 3).is_multiple_of(4) {
        cfg.qos = QosMode::Tdm { domains: 2 };
        cfg.retx_scheme = RetxScheme::PerVc;
    }
    cfg.snapshot_interval = 100;
    let mut sim = Simulator::new(cfg.clone());

    // Random fault cocktail: a trojan, a stuck wire, background transients.
    let trojan_link = LinkId((mix(seed, 4) % 48) as u16);
    let target = match mix(seed, 5) % 3 {
        0 => TargetSpec::dest((mix(seed, 6) % 16) as u8),
        1 => TargetSpec::src((mix(seed, 6) % 16) as u8),
        _ => TargetSpec::mem_range(0x1000_0000..=0x1FFF_FFFF),
    };
    let ht = TaspHt::new(TaspConfig::new(target));
    sim.link_faults_mut(trojan_link).trojan = Some(ht);
    if mix(seed, 7).is_multiple_of(2) {
        sim.arm_trojans(true);
    }
    let stuck_link = LinkId((mix(seed, 8) % 48) as u16);
    if stuck_link != trojan_link && mix(seed, 9).is_multiple_of(3) {
        sim.link_faults_mut(stuck_link).stuck = StuckWires {
            stuck_one: 1 << (mix(seed, 10) % 72),
            stuck_zero: 0,
        };
    }
    for l in mesh.all_links() {
        sim.link_faults_mut(l).transient_bit_prob = 0.00005;
    }

    // Traffic: random pattern at a moderate rate, bounded window.
    let pattern = match mix(seed, 11) % 4 {
        0 => Pattern::UniformRandom,
        1 => Pattern::Transpose,
        2 => Pattern::BitComplement,
        _ => Pattern::Hotspot(vec![NodeId((mix(seed, 12) % 16) as u16)]),
    };
    let mut traffic = SyntheticTraffic::new(mesh, pattern, 0.015, seed).until(400);

    // Run with periodic invariant audits.
    for chunk in 0..30 {
        sim.run(50, &mut traffic);
        let violations = sim.check_invariants();
        assert!(
            violations.is_empty(),
            "seed {seed} chunk {chunk}: {violations:?}"
        );
        if traffic.done() && sim.is_quiescent() {
            break;
        }
    }
    // Accounting sanity at whatever terminal state we reached.
    let s = sim.stats();
    assert!(s.delivered_flits <= s.injected_flits, "seed {seed}");
    assert!(s.delivered_packets <= s.injected_packets, "seed {seed}");
}

#[test]
fn randomized_configurations_hold_invariants() {
    for seed in 0..24u64 {
        stress_one(seed);
    }
}

#[test]
fn invariants_hold_through_a_full_dos_collapse() {
    // The harshest state: a deadlocking network under an armed trojan with
    // no mitigation must still satisfy every structural invariant (the
    // attack starves progress; it must not corrupt state).
    let mesh = Mesh::paper();
    let mut cfg = SimConfig::paper_unprotected();
    cfg.snapshot_interval = 100;
    let mut sim = Simulator::new(cfg);
    let link = mesh.link_out(NodeId(4), Direction::South).unwrap();
    let ht = TaspHt::new(TaspConfig::new(TargetSpec::dest(0)));
    sim.link_faults_mut(link).trojan = Some(ht);
    sim.arm_trojans(true);
    let mut traffic =
        SyntheticTraffic::new(mesh, Pattern::Hotspot(vec![NodeId(0)]), 0.03, 5).until(1500);
    for _ in 0..30 {
        sim.run(50, &mut traffic);
        let violations = sim.check_invariants();
        assert!(violations.is_empty(), "{violations:?}");
    }
    assert!(!sim.is_quiescent(), "the DoS must be in force");
}
