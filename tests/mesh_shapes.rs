//! The simulator is parametric in mesh shape and concentration (within the
//! wire format's 16-router cap). These tests run full traffic + attack +
//! mitigation cycles on non-default shapes to pin the generality down.

use htnoc::prelude::*;
use htnoc::sim::sim::TrafficSource;
use noc_types::{Direction, PacketId};

fn config_for(mesh: Mesh) -> SimConfig {
    SimConfig {
        mesh,
        ..SimConfig::paper()
    }
}

struct Burst {
    left: Vec<Packet>,
}

impl TrafficSource for Burst {
    fn poll(&mut self, cycle: u64, out: &mut Vec<Packet>) {
        let mut i = 0;
        while i < self.left.len() {
            if self.left[i].created_at == cycle {
                out.push(self.left.remove(i));
            } else {
                i += 1;
            }
        }
    }
    fn done(&self) -> bool {
        self.left.is_empty()
    }
}

fn all_pairs_burst(mesh: &Mesh, len: u8) -> Burst {
    let n = mesh.routers() as u16;
    let mut left = Vec::new();
    let mut id = 0u64;
    for s in 0..n {
        for d in 0..n {
            if s == d {
                continue;
            }
            left.push(Packet::new(
                PacketId(id),
                NodeId(s),
                NodeId(d),
                VcId((id % 4) as u8),
                0,
                (id % 2) as u8,
                len,
                id * 2,
            ));
            id += 1;
        }
    }
    Burst { left }
}

#[test]
fn every_mesh_shape_delivers_all_pairs() {
    for (w, h, c) in [(2u8, 2u8, 1u8), (4, 2, 2), (2, 4, 4), (3, 3, 2), (4, 4, 1)] {
        let mesh = Mesh::new(w, h, c);
        let mut sim = Simulator::new(config_for(mesh.clone()));
        let mut src = all_pairs_burst(&mesh, 3);
        let pairs = (mesh.routers() * (mesh.routers() - 1)) as u64;
        assert!(
            sim.run_to_quiescence(20_000, &mut src),
            "{w}x{h} c={c} did not drain"
        );
        assert_eq!(
            sim.stats().delivered_packets,
            pairs,
            "{w}x{h} c={c} lost packets"
        );
        assert!(sim.check_invariants().is_empty());
    }
}

#[test]
fn attack_and_mitigation_work_on_a_2x2_mesh() {
    let mesh = Mesh::new(2, 2, 2);
    let mut sim = Simulator::new(config_for(mesh.clone()));
    let link = mesh.link_out(NodeId(0), Direction::East).unwrap();
    let ht = TaspHt::new(TaspConfig::new(TargetSpec::dest(1)));
    sim.link_faults_mut(link).trojan = Some(ht);
    sim.arm_trojans(true);
    let mut src = all_pairs_burst(&mesh, 2);
    assert!(sim.run_to_quiescence(5_000, &mut src), "L-Ob on 2x2");
    assert_eq!(sim.stats().delivered_packets, 12);
    assert!(sim.stats().uncorrectable_faults > 0, "trojan fired");
}

#[test]
fn updown_reroute_works_on_odd_shapes() {
    let mesh = Mesh::new(3, 3, 1);
    let dead = vec![mesh.link_out(NodeId(4), Direction::East).unwrap()];
    let tables = htnoc_core::reroute::routes_avoiding(&mesh, &dead).expect("routable");
    let mut sim = Simulator::new(config_for(mesh.clone()));
    sim.set_routing(htnoc::sim::routing::Routing::Table(tables));
    sim.set_dead_links(dead);
    let mut src = all_pairs_burst(&mesh, 2);
    assert!(sim.run_to_quiescence(10_000, &mut src));
    assert_eq!(sim.stats().delivered_packets, 72);
}

#[test]
fn odd_even_routing_delivers_on_rectangular_meshes() {
    for (w, h) in [(4u8, 2u8), (2, 4), (3, 3)] {
        let mesh = Mesh::new(w, h, 1);
        let mut sim = Simulator::new(config_for(mesh.clone()));
        sim.set_routing(htnoc::sim::routing::Routing::OddEven);
        let mut src = all_pairs_burst(&mesh, 2);
        assert!(
            sim.run_to_quiescence(10_000, &mut src),
            "odd-even on {w}x{h}"
        );
        assert_eq!(
            sim.stats().delivered_packets,
            (mesh.routers() * (mesh.routers() - 1)) as u64
        );
    }
}
