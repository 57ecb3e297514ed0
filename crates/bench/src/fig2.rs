//! Fig. 2 — latency-vs-distance impact of the three fault types on a
//! single link: transient faults cost a retransmission (1–3 cycles),
//! permanent faults cost rerouting (+hops), and a trojan under L-Ob costs
//! the obfuscation penalty per traversal. An unmitigated trojan stalls the
//! flow outright (latency unbounded — reported as the simulation cap).

use crate::table::{f, write_table};
use htnoc_core::prelude::*;
use noc_sim::fault::StuckWires;
use noc_sim::routing::{RouteTables, Routing};
use noc_types::PacketId;

/// Fault condition applied to the first hop's link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// No fault mounted (baseline).
    None,
    /// Uncorrectable transient strikes (forced, one per first crossing).
    Transient,
    /// Stuck wires: the link is rerouted around.
    Permanent,
    /// TASP targeting the flow, with s2s L-Ob mitigation enabled.
    TrojanMitigated,
    /// TASP targeting the flow, no mitigation (never delivers).
    TrojanUnprotected,
}

/// One measured point.
#[derive(Debug, Clone, Copy)]
pub struct LatencyPoint {
    /// Hop distance of the measured flow.
    pub distance: u32,
    /// The fault condition applied.
    pub kind: FaultKind,
    /// Average packet latency in cycles (capped for stalled flows).
    pub latency: f64,
    /// Whether all packets arrived.
    pub delivered: bool,
}

/// A fixed stream of packets from router 0 to a router `distance` hops
/// east/north, sent one at a time.
struct Flow {
    packets: Vec<Packet>,
}

impl noc_sim::TrafficSource for Flow {
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

fn dest_at_distance(mesh: &Mesh, d: u32) -> NodeId {
    // Walk east then north from router 0.
    let mut x = 0u8;
    let mut y = 0u8;
    for _ in 0..d {
        if x + 1 < mesh.width() {
            x += 1;
        } else {
            y += 1;
        }
    }
    mesh.node_at(noc_types::Coord::new(x, y))
}

/// Measure one point. `cap` bounds stalled runs.
pub fn measure(distance: u32, kind: FaultKind, cap: u64) -> LatencyPoint {
    let mesh = Mesh::paper();
    let dest = dest_at_distance(&mesh, distance);
    let cfg = match kind {
        FaultKind::TrojanUnprotected => SimConfig::paper_unprotected(),
        _ => SimConfig::paper(),
    };
    let mut sim = Simulator::new(cfg);
    let first_link = mesh
        .link_out(
            NodeId(0),
            noc_sim::routing::xy_direction(&mesh, NodeId(0), dest),
        )
        .expect("first hop exists");
    match kind {
        FaultKind::None => {}
        FaultKind::Transient => {
            // Forced uncorrectable double-flip on every traversal of the
            // first crossing window: model as a high per-bit probability for
            // a short window is nondeterministic; instead mount a trojan
            // matching everything once — the cost is identical (one
            // detected-uncorrectable + retransmission). We use stuck wires
            // cleared after the first NACK via transient probability:
            // simplest deterministic equivalent is a TargetSpec matching the
            // flow with a large cooldown so exactly the first head is hit.
            let ht = TaspHt::new(
                TaspConfig::new(TargetSpec::dest((dest.0 & 0xF) as u8)).with_cooldown(u32::MAX),
            );
            sim.link_faults_mut(first_link).trojan = Some(ht);
            sim.arm_trojans(true);
        }
        FaultKind::Permanent => {
            sim.link_faults_mut(first_link).stuck = StuckWires {
                stuck_one: (1 << 5) | (1 << 50),
                stuck_zero: 0,
            };
            // The fault-tolerant response: disable and reroute.
            let tables = RouteTables::build(&mesh, &[first_link]);
            sim.set_routing(Routing::Table(tables));
            sim.set_dead_links(vec![first_link]);
        }
        FaultKind::TrojanMitigated | FaultKind::TrojanUnprotected => {
            let ht = TaspHt::new(TaspConfig::new(TargetSpec::dest((dest.0 & 0xF) as u8)));
            sim.link_faults_mut(first_link).trojan = Some(ht);
            sim.arm_trojans(true);
        }
    }
    // Ten packets, spaced out to avoid self-congestion.
    let packets = (0..10u64)
        .map(|i| {
            Packet::new(
                PacketId(i),
                NodeId(0),
                dest,
                VcId((i % 4) as u8),
                0,
                0,
                1,
                i * 40,
            )
        })
        .collect();
    let mut flow = Flow { packets };
    let drained = sim.run_to_quiescence(cap, &mut flow);
    let delivered = drained && sim.stats().delivered_packets == 10;
    let latency = if delivered {
        sim.stats().avg_latency()
    } else {
        cap as f64
    };
    LatencyPoint {
        distance,
        kind,
        latency,
        delivered,
    }
}

/// The full Fig. 2 sweep.
pub fn compute(cap: u64) -> Vec<LatencyPoint> {
    let mut out = Vec::new();
    for d in 1..=6 {
        for kind in [
            FaultKind::None,
            FaultKind::Transient,
            FaultKind::Permanent,
            FaultKind::TrojanMitigated,
            FaultKind::TrojanUnprotected,
        ] {
            out.push(measure(d, kind, cap));
        }
    }
    out
}

/// Write Fig. 2: latency at distances 1–6 per fault type, stalled flows
/// capped at 3,000 cycles.
pub fn fig2_fault_latency(out: &mut String) {
    let cap = 3000;
    let points = compute(cap);
    outln!(
        out,
        "=== Fig. 2 — latency vs distance per fault type (cap {cap} cycles) ===\n"
    );
    let kinds = [
        (FaultKind::None, "healthy"),
        (FaultKind::Transient, "transient (+retx)"),
        (FaultKind::Permanent, "permanent (+hops)"),
        (FaultKind::TrojanMitigated, "TASP + s2s L-Ob"),
        (FaultKind::TrojanUnprotected, "TASP unmitigated"),
    ];
    let headers: Vec<&str> = std::iter::once("distance")
        .chain(kinds.iter().map(|(_, n)| *n))
        .collect();
    let rows: Vec<Vec<String>> = (1..=6u32)
        .map(|d| {
            std::iter::once(format!("{d}"))
                .chain(kinds.iter().map(|(k, _)| {
                    let p = points
                        .iter()
                        .find(|p| p.distance == d && p.kind == *k)
                        .expect("computed");
                    if p.delivered {
                        f(p.latency, 1)
                    } else {
                        format!(">{cap} (stalled)")
                    }
                }))
                .collect()
        })
        .collect();
    write_table(out, &headers, &rows);
    outln!(
        out,
        "\nShape: transient adds the 1–3 cycle retransmission penalty; permanent\n\
         adds rerouting hops; the mitigated trojan adds obfuscation penalties;\n\
         the unmitigated trojan stalls the flow outright."
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(points: &[LatencyPoint], d: u32, k: FaultKind) -> LatencyPoint {
        *points
            .iter()
            .find(|p| p.distance == d && p.kind == k)
            .unwrap()
    }

    #[test]
    fn fault_type_latency_ordering_matches_figure2() {
        let pts = compute(3000);
        for d in [1u32, 3] {
            let base = point(&pts, d, FaultKind::None);
            let transient = point(&pts, d, FaultKind::Transient);
            let permanent = point(&pts, d, FaultKind::Permanent);
            let trojan = point(&pts, d, FaultKind::TrojanMitigated);
            let unprot = point(&pts, d, FaultKind::TrojanUnprotected);
            assert!(base.delivered && transient.delivered && trojan.delivered);
            assert!(permanent.delivered);
            // Transient: small retransmission penalty over baseline.
            assert!(transient.latency > base.latency);
            assert!(transient.latency < base.latency + 8.0);
            // Permanent: pays extra hops (5 cycles per hop).
            assert!(permanent.latency > base.latency + 4.0);
            // Mitigated trojan: obfuscation penalties, bounded.
            assert!(trojan.latency > base.latency);
            // Unprotected trojan: never delivers — charged the cap.
            assert!(!unprot.delivered);
            assert_eq!(unprot.latency, 3000.0);
        }
    }

    #[test]
    fn baseline_latency_grows_linearly_with_distance() {
        let pts = compute(3000);
        let l1 = point(&pts, 1, FaultKind::None).latency;
        let l4 = point(&pts, 4, FaultKind::None).latency;
        // ~5 cycles per extra hop.
        let per_hop = (l4 - l1) / 3.0;
        assert!((4.0..=6.5).contains(&per_hop), "per-hop {per_hop}");
    }
}
