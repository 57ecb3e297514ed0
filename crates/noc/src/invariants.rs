//! On-line invariant checking (the NoCAlert idea the paper cites as [20]:
//! "other existing fault tolerant run-time invariant checkers … should
//! also prevent such an attack" — at minimum, they must never be confused
//! by one). The checker audits the micro-architectural state for protocol
//! violations; it is pure observation and never mutates the network.
//!
//! Production use: call [`crate::sim::Simulator::check_invariants`]
//! periodically in long soak runs, or after every cycle in tests.

use crate::config::SimConfig;
use crate::input::VcState;
use crate::router::Router;

/// One detected protocol violation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Violation {
    /// Router where the violation was observed.
    pub router: u16,
    /// Human-readable description of the violated invariant.
    pub what: String,
}

/// Audit one router against the flow-control and wormhole invariants.
pub fn check_router(router: &Router, cfg: &SimConfig) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut violate = |what: String| {
        out.push(Violation {
            router: router.node.0,
            what,
        });
    };

    for (p, unit) in router.inputs.iter().enumerate() {
        for (v, ivc) in unit.vcs.iter().enumerate() {
            // I1: FIFO occupancy never exceeds the configured depth.
            if ivc.fifo.len() > cfg.vc_depth as usize {
                violate(format!(
                    "input {p} vc {v}: {} flits exceed depth {}",
                    ivc.fifo.len(),
                    cfg.vc_depth
                ));
            }
            // I2: a VC past Idle owns a packet and (except Idle) holds or
            // awaits its flits coherently.
            match ivc.state {
                VcState::Idle => {
                    if ivc.out_vc.is_some() {
                        violate(format!("input {p} vc {v}: idle VC holds an output VC"));
                    }
                }
                VcState::Routing | VcState::VcAlloc | VcState::Active => {
                    if ivc.packet.is_none() {
                        violate(format!("input {p} vc {v}: busy VC without a packet"));
                    }
                    if ivc.state != VcState::Routing && ivc.route.is_none() {
                        violate(format!("input {p} vc {v}: post-RC VC without a route"));
                    }
                }
            }
            // I3: flits buffered in one VC belong to at most... wormhole
            // permits queued packets back-to-back, but every flit run must
            // be contiguous per packet: no interleaving of two packets.
            let mut seen_packets = Vec::new();
            for f in &ivc.fifo {
                match seen_packets.last() {
                    Some(&last) if last == f.packet => {}
                    _ => {
                        if seen_packets.contains(&f.packet) {
                            violate(format!("input {p} vc {v}: interleaved packets in FIFO"));
                        }
                        seen_packets.push(f.packet);
                    }
                }
            }
        }
    }

    for (d, out_unit) in router.outputs.iter().enumerate() {
        let Some(o) = out_unit.as_ref() else { continue };
        // I4: credits never exceed the downstream buffer depth.
        for (v, c) in o.credits.iter().enumerate() {
            if *c > cfg.vc_depth {
                violate(format!("output {d} vc {v}: {c} credits exceed depth"));
            }
        }
        // I5: retransmission occupancy within capacity.
        if o.occupancy() > o.total_capacity() {
            violate(format!(
                "output {d}: retx occupancy {} exceeds capacity {}",
                o.occupancy(),
                o.total_capacity()
            ));
        }
        // I6: every owned output VC belongs to some in-flight packet — and
        // no two output VCs are owned by the same packet at this output.
        let mut owners: Vec<_> = o.vc_owner.iter().flatten().collect();
        let before = owners.len();
        owners.sort();
        owners.dedup();
        if owners.len() != before {
            violate(format!("output {d}: one packet owns two output VCs"));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_types::{Mesh, NodeId, PacketId, VcId};

    fn fresh() -> (Router, SimConfig) {
        let cfg = SimConfig::paper();
        (Router::new(NodeId(5), &cfg.mesh.clone(), &cfg), cfg)
    }

    #[test]
    fn fresh_router_is_clean() {
        let (r, cfg) = fresh();
        assert!(check_router(&r, &cfg).is_empty());
    }

    #[test]
    fn credit_overflow_is_flagged() {
        let (mut r, cfg) = fresh();
        r.outputs[0].as_mut().unwrap().credits[1] = cfg.vc_depth + 1;
        let v = check_router(&r, &cfg);
        assert_eq!(v.len(), 1);
        assert!(v[0].what.contains("credits exceed"));
    }

    #[test]
    fn idle_vc_with_output_vc_is_flagged() {
        let (mut r, cfg) = fresh();
        r.inputs[0].vcs[2].out_vc = Some(VcId(1));
        let v = check_router(&r, &cfg);
        assert!(v.iter().any(|v| v.what.contains("idle VC holds")));
    }

    #[test]
    fn duplicate_output_vc_ownership_is_flagged() {
        let (mut r, cfg) = fresh();
        let o = r.outputs[0].as_mut().unwrap();
        o.vc_owner[0] = Some(PacketId(9));
        o.vc_owner[1] = Some(PacketId(9));
        let v = check_router(&r, &cfg);
        assert!(v.iter().any(|v| v.what.contains("owns two output VCs")));
    }

    #[test]
    fn works_on_every_mesh_position() {
        let cfg = SimConfig::paper();
        let mesh = Mesh::paper();
        for n in 0..16u8 {
            let r = Router::new(NodeId(n as u16), &mesh, &cfg);
            assert!(check_router(&r, &cfg).is_empty());
        }
    }
}
