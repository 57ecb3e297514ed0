//! The Fig. 7 walk-through as an integration test: transactions between
//! adjacent routers over a compromised link with the threat detector and
//! L-Ob modules engaged.
//!
//! The paper's steps:
//!  (a)–(c) a clean flit crosses and is ACKed;
//!  (d)–(e) the TASP is enabled and corrupts its target, ECC detects,
//!          retransmission is requested;
//!  (f)     a non-targeted flit passes unharmed;
//!  (g)     the retransmitted target is corrupted *again* — the detector
//!          flags a repeat offender and enables L-Ob;
//!  (h)–(i) the obfuscated retry crosses without triggering the trojan,
//!          is un-obfuscated for a 1–3 cycle penalty, and the method is
//!          logged for future flits.

use htnoc::prelude::*;
use htnoc::sim::message::SimEvent as Ev;
use htnoc::sim::sim::TrafficSource;
use noc_types::{Direction, PacketId};

struct Script {
    packets: Vec<Packet>,
}

impl TrafficSource for Script {
    fn poll(&mut self, cycle: u64, out: &mut Vec<Packet>) {
        let mut i = 0;
        while i < self.packets.len() {
            if self.packets[i].created_at == cycle {
                out.push(self.packets.remove(i));
            } else {
                i += 1;
            }
        }
    }
    fn done(&self) -> bool {
        self.packets.is_empty()
    }
}

#[test]
fn fig7_walkthrough_on_a_compromised_link() {
    let mut sim = Simulator::new(SimConfig::paper());
    let mesh = sim.mesh().clone();
    let link = mesh.link_out(NodeId(0), Direction::East).unwrap();

    // The trojan hunts packets touching one memory page.
    let trojan = TaspHt::new(TaspConfig::new(TargetSpec::mem_range(
        0x5000_0000..=0x5000_FFFF,
    )));
    sim.link_faults_mut(link).trojan = Some(trojan);

    // Flit #1: not targeted, sent while the trojan is still dormant.
    // Flits #2 (targeted) and #3, #4 (bystanders) follow once it is armed.
    let mk = |id: u64, cycle: u64, mem: u32, vc: u8| {
        Packet::new(
            PacketId(id),
            NodeId(0),
            NodeId(1),
            VcId(vc),
            mem,
            0,
            1,
            cycle,
        )
    };
    let mut src = Script {
        packets: vec![
            mk(1, 0, 0x1111, 0),
            mk(2, 30, 0x5000_0042, 1), // the target
            mk(3, 32, 0x2222, 2),
            mk(4, 34, 0x3333, 3),
        ],
    };

    // Steps (a)–(c): flit #1 crosses cleanly before the kill switch.
    for _ in 0..25 {
        sim.step(&mut src);
    }
    assert_eq!(
        sim.stats().delivered_packets,
        1,
        "flit #1 ACKed and cleared"
    );
    assert_eq!(sim.stats().uncorrectable_faults, 0);

    // Step (d): the attacker enables TASP.
    sim.arm_trojans(true);

    // Steps (e)–(i) play out; run to quiescence.
    assert!(
        sim.run_to_quiescence(3000, &mut src),
        "all flits must arrive"
    );
    assert_eq!(sim.stats().delivered_packets, 4);

    // (e)+(g): the target was corrupted at least twice (initial + the
    // plain retransmission) before L-Ob engaged.
    assert!(
        sim.stats().uncorrectable_faults >= 2,
        "faults: {}",
        sim.stats().uncorrectable_faults
    );
    assert!(sim.stats().retransmissions >= 2);

    // (f): the bystanders never drew a fault — only packet #2's flits did.
    // (h)–(i): an obfuscation method crossed the compromised link cleanly
    // and was logged.
    let events = sim.drain_events();
    let obf_success: Vec<_> = events
        .iter()
        .filter_map(|e| match e {
            Ev::ObfuscationSucceeded { link: l, plan, .. } if *l == link => Some(plan),
            _ => None,
        })
        .collect();
    assert!(
        !obf_success.is_empty(),
        "the obfuscated retry must cross cleanly"
    );
    // Delivery order/latency: the targeted packet paid the retransmission
    // and undo penalties; the bystanders arrived promptly.
    let delivery = |id: u64| {
        events
            .iter()
            .find_map(|e| match e {
                Ev::PacketDelivered {
                    packet,
                    injected_at,
                    delivered_at,
                    ..
                } if *packet == PacketId(id) => Some(delivered_at - injected_at),
                _ => None,
            })
            .expect("delivered")
    };
    let target_latency = delivery(2);
    let bystander_latency = delivery(3).max(delivery(4));
    assert!(
        target_latency > bystander_latency,
        "target {target_latency} vs bystander {bystander_latency}"
    );
    // …but only by retransmission rounds + the 1–3 cycle L-Ob penalty,
    // not by a rerouting detour.
    assert!(
        target_latency < bystander_latency + 40,
        "graceful degradation, not starvation: {target_latency}"
    );
}

#[test]
fn clean_link_never_invokes_lob() {
    let mut sim = Simulator::new(SimConfig::paper());
    let mut src = Script {
        packets: (0..8u64)
            .map(|i| {
                Packet::new(
                    PacketId(i),
                    NodeId(0),
                    NodeId(5),
                    VcId((i % 4) as u8),
                    0,
                    0,
                    2,
                    i * 5,
                )
            })
            .collect(),
    };
    assert!(sim.run_to_quiescence(2000, &mut src));
    assert!(sim
        .drain_events()
        .iter()
        .all(|e| !matches!(e, Ev::ObfuscationSucceeded { .. })));
}
