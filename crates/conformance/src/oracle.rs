//! The reference oracle: a deliberately naive, packet-granularity model
//! of the paper's protocol.
//!
//! [`RefSim`] never models the router pipeline, virtual channels, or
//! arbitration — only the facts that are *timing-independent* and can
//! therefore be predicted exactly (or bounded provably) from a
//! [`Scenario`] alone:
//!
//! * **Routing** — on a plain mesh, an independent XY walk per packet
//!   (re-implemented here; the simulator's `routing` module is
//!   deliberately not reused); on a torus or degraded mesh, a walk of the
//!   simulator's route tables, built once per scenario. Either gives the
//!   exact multiset of links each flit crosses on a clean first pass.
//! * **SECDED** — one encode per flit word; a stuck-at-one wire corrects
//!   iff the clean codeword has that bit at zero, and never NACKs.
//! * **TASP trojans** — an armed, zero-cooldown trojan fires a two-bit
//!   walking flip on every head flit whose header destination matches
//!   its comparator; two bit-flips are always detected-uncorrectable.
//! * **Detector + L-Ob escalation** — an uncorrectable fault NACKs; the
//!   second fault on the same flit selects an obfuscation plan, and an
//!   obfuscated header no longer matches the comparator, so the third
//!   crossing passes. Once a link has a logged plan and a protected
//!   destination, later heads may cross for 0 or 1 faults (proactive
//!   protection is timing-dependent, hence per-link *bounds*:
//!   `2·[k ≥ 1] ≤ uncorrectable ≤ 2·k` for `k` targeted heads).
//! * **Unprotected DoS** — with mitigation off and no retry budget, a
//!   targeted head retries forever and its packet never delivers
//!   (Fig. 11(a)).
//! * **Bounded retries without mitigation** — the escalation ladder
//!   quarantines exactly the trojan link, and graceful degradation
//!   conserves packets: delivered + dropped = injected.
//!
//! Everything the pipeline *does* affect (latency, per-cycle occupancy,
//! NACK interleavings) is intentionally out of scope; the network-wide
//! invariant oracles in `noc_sim` cover those continuously instead.

use crate::scenario::Scenario;
use noc_ecc::Secded;
use noc_sim::routing::{route_path, Routing};
use noc_types::{Mesh, NodeId, Topology};

/// Per-link bound on a monotone counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkBound {
    /// The link the bound applies to.
    pub link: u16,
    /// Inclusive lower bound.
    pub min: u64,
    /// Inclusive upper bound.
    pub max: u64,
}

/// Everything the oracle predicts about one scenario's run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expectation {
    /// Exact packet count offered by the source over the whole run.
    pub injected_packets: u64,
    /// Exact flit count offered by the source over the whole run.
    pub injected_flits: u64,
    /// Whether the run must reach quiescence within the cycle budget.
    pub drains: bool,
    /// Whether fault-count predictions apply (false when a trojan has a
    /// nonzero cooldown — its firing pattern is then timing-dependent).
    pub exact_counts: bool,
    /// Every offered packet must be delivered exactly once.
    pub must_deliver_all: bool,
    /// Packets that must never be delivered (the unprotected DoS).
    pub never_delivered: Vec<u64>,
    /// Per-link bounds on detected-uncorrectable ECC events.
    pub uncorrectable: Vec<LinkBound>,
    /// Per-link bounds on single-bit ECC corrections.
    pub corrected: Vec<LinkBound>,
    /// The run must produce zero NACKs and zero retransmissions.
    pub zero_nacks: bool,
    /// Links whose final detector classification must be HardwareTrojan.
    pub trojan_class_links: Vec<u16>,
    /// No link may emit any classification event at all.
    pub no_classification: bool,
    /// Exact set of quarantined links at the end of the run (`None`
    /// skips the check; quarantine timing is modelled only in the
    /// bounded-retry domain).
    pub quarantine: Option<Vec<u16>>,
    /// At quiescence, delivered + dropped packets/flits must equal
    /// injected (graceful-degradation conservation).
    pub conserve_at_quiescence: bool,
}

/// The reference model built from one scenario.
pub struct RefSim {
    mesh: Mesh,
    scenario: Scenario,
    /// Per packet: the links its flits cross on a clean first pass.
    paths: Vec<Vec<u16>>,
}

impl RefSim {
    /// Build the model (computes every packet's clean first-pass path).
    /// A plain mesh keeps the fully independent [`xy_walk`]; a torus or
    /// degraded mesh walks the simulator's own deterministic route tables
    /// ([`noc_sim::routing::route_path`]), built once per scenario — there
    /// the prediction cross-checks fault accounting and quarantine against
    /// the tables rather than re-deriving the routing function, which
    /// `crates/noc`'s own property tests cover.
    pub fn new(scenario: &Scenario) -> Self {
        let mesh = scenario.mesh();
        let routing = match mesh.topology() {
            Topology::Mesh => None,
            _ => Some(Routing::for_mesh(&mesh)),
        };
        let paths = scenario
            .packets
            .iter()
            .map(|p| {
                let (src, dest) = (NodeId(p.src), NodeId(p.dest));
                match &routing {
                    None => xy_walk(&mesh, src, dest),
                    Some(r) => route_path(&mesh, r, src, dest)
                        .iter()
                        .map(|l| l.0)
                        .collect(),
                }
            })
            .collect();
        Self {
            mesh,
            scenario: scenario.clone(),
            paths,
        }
    }

    /// Exact number of (packets, flits) the source has offered after
    /// `cycles` simulated cycles (injection is unconditional: the per-core
    /// queues are unbounded, so admission never gates it).
    pub fn injected_by(&self, cycles: u64) -> (u64, u64) {
        let mut packets = 0;
        let mut flits = 0;
        for p in &self.scenario.packets {
            if p.inject_at < cycles {
                packets += 1;
                flits += p.len.max(1) as u64;
            }
        }
        (packets, flits)
    }

    /// Number of armed, matching head flits crossing each trojan link on
    /// a clean pass ("targeted heads", the `k` of the fault bounds).
    pub fn targeted_heads(&self, link: u16) -> u64 {
        let Some(t) = self.scenario.trojans.iter().find(|t| t.link == link) else {
            return 0;
        };
        if !t.armed {
            return 0;
        }
        self.scenario
            .packets
            .iter()
            .zip(&self.paths)
            .filter(|(p, path)| p.dest == t.target_dest && path.contains(&link))
            .count() as u64
    }

    /// Ids of packets a zero-cooldown armed trojan targets (their head
    /// can never cross the compromised link unobfuscated).
    pub fn targeted_packets(&self) -> Vec<u64> {
        let mut out: Vec<u64> = self
            .scenario
            .packets
            .iter()
            .zip(&self.paths)
            .filter(|(p, path)| {
                self.scenario.trojans.iter().any(|t| {
                    t.armed && t.cooldown == 0 && t.target_dest == p.dest && path.contains(&t.link)
                })
            })
            .map(|(p, _)| p.id)
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Exact single-bit-correction count on `link` from a stuck-at-one
    /// wire at `bit`: one correction per crossing flit whose clean
    /// codeword has the bit at zero. Only valid when nothing retransmits.
    pub fn stuck_corrections(&self, link: u16, bit: u8) -> u64 {
        let mut corrections = 0;
        let mut flit_counter = 0u64;
        for (p, path) in self.scenario.packets.iter().zip(&self.paths) {
            if !path.contains(&link) {
                continue;
            }
            for flit in p.packet().packetize(&mut flit_counter) {
                let cw = Secded::encode(flit.word);
                if (cw.0 >> bit) & 1 == 0 {
                    corrections += 1;
                }
            }
        }
        corrections
    }

    /// The full end-state prediction for this scenario.
    pub fn expectation(&self) -> Expectation {
        let sc = &self.scenario;
        let (injected_packets, injected_flits) = self.injected_by(sc.max_cycles);
        let exact_counts = sc.trojans.iter().all(|t| t.cooldown == 0);

        let targeted = if exact_counts {
            self.targeted_packets()
        } else {
            Vec::new()
        };
        let under_attack = !targeted.is_empty();
        let unprotected_dos = !sc.mitigation && sc.retry_budget.is_none() && under_attack;
        let bounded_quarantine = !sc.mitigation && sc.retry_budget.is_some();
        let drains = !unprotected_dos;

        // Per-link fault bounds. Links not mentioned default to "anything"
        // in the driver, so emit a bound for every link when we know one.
        let mut uncorrectable = Vec::new();
        let mut corrected = Vec::new();
        let stuck_only = sc.trojans.is_empty();
        if exact_counts {
            for link in 0..self.mesh.links() as u16 {
                let k = self.targeted_heads(link);
                let u = if k == 0 {
                    LinkBound {
                        link,
                        min: 0,
                        max: 0,
                    }
                } else if sc.mitigation {
                    // Two faults force L-Ob; obfuscated headers pass.
                    LinkBound {
                        link,
                        min: 2,
                        max: 2 * k,
                    }
                } else {
                    // No L-Ob: the trojan keeps firing until the budget
                    // quarantines the link (or forever in the DoS).
                    LinkBound {
                        link,
                        min: 2,
                        max: u64::MAX,
                    }
                };
                uncorrectable.push(u);
                let stuck_here: Vec<u8> = sc
                    .stuck
                    .iter()
                    .filter(|s| s.link == link)
                    .map(|s| s.bit)
                    .collect();
                let c = match stuck_here.as_slice() {
                    [] => LinkBound {
                        link,
                        min: 0,
                        max: 0,
                    },
                    // A single stuck wire with no retransmissions anywhere
                    // is exactly predictable; anything richer is not.
                    [bit] if stuck_only && !under_attack => {
                        let n = self.stuck_corrections(link, *bit);
                        LinkBound {
                            link,
                            min: n,
                            max: n,
                        }
                    }
                    _ => LinkBound {
                        link,
                        min: 0,
                        max: u64::MAX,
                    },
                };
                corrected.push(c);
            }
        }

        let trojan_class_links = if sc.mitigation && exact_counts {
            let mut v: Vec<u16> = sc
                .trojans
                .iter()
                .map(|t| t.link)
                .filter(|&l| self.targeted_heads(l) > 0)
                .collect();
            v.sort_unstable();
            v
        } else {
            Vec::new()
        };

        let quarantine = if bounded_quarantine && exact_counts {
            let mut q: Vec<u16> = sc
                .trojans
                .iter()
                .map(|t| t.link)
                .filter(|&l| self.targeted_heads(l) > 0)
                .collect();
            q.sort_unstable();
            Some(q)
        } else if sc.mitigation && exact_counts {
            // The detector resolves every attack with L-Ob well inside the
            // generator's budgets, so escalation never reaches quarantine.
            Some(Vec::new())
        } else {
            None
        };

        Expectation {
            injected_packets,
            injected_flits,
            drains,
            exact_counts,
            must_deliver_all: drains && !bounded_quarantine,
            never_delivered: if unprotected_dos {
                targeted
            } else {
                Vec::new()
            },
            uncorrectable,
            corrected,
            zero_nacks: exact_counts && !under_attack,
            trojan_class_links,
            no_classification: exact_counts && !under_attack,
            quarantine,
            conserve_at_quiescence: drains,
        }
    }
}

/// Dimension-order walk from `src` to `dest`: all X hops, then all Y
/// hops. Implemented from the paper's description, independently of
/// `noc_sim::routing`, so a routing bug in either shows as a divergence.
pub fn xy_walk(mesh: &Mesh, src: NodeId, dest: NodeId) -> Vec<u16> {
    use noc_types::Direction;
    let mut here = mesh.coord_of(src);
    let goal = mesh.coord_of(dest);
    let mut links = Vec::new();
    let mut node = src;
    while here.x != goal.x {
        let dir = if goal.x > here.x {
            Direction::East
        } else {
            Direction::West
        };
        let link = mesh
            .link_out(node, dir)
            .expect("XY step stays inside the mesh");
        links.push(link.0);
        node = mesh.neighbor(node, dir).expect("neighbor exists");
        here = mesh.coord_of(node);
    }
    while here.y != goal.y {
        let dir = if goal.y > here.y {
            Direction::North
        } else {
            Direction::South
        };
        let link = mesh
            .link_out(node, dir)
            .expect("XY step stays inside the mesh");
        links.push(link.0);
        node = mesh.neighbor(node, dir).expect("neighbor exists");
        here = mesh.coord_of(node);
    }
    links
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{PacketSpec, Scenario};

    fn base(width: u8, height: u8) -> Scenario {
        Scenario {
            seed: 0,
            width,
            height,
            concentration: 1,
            vcs: 2,
            vc_depth: 2,
            retx_depth: 2,
            retx_per_vc: false,
            mitigation: true,
            retry_budget: None,
            watchdog: false,
            max_cycles: 1_000,
            packets: vec![PacketSpec {
                id: 1,
                src: 0,
                dest: 3,
                vc: 0,
                len: 2,
                inject_at: 0,
                thread: 0,
            }],
            trojans: Vec::new(),
            stuck: Vec::new(),
            sabotage: None,
            topology: crate::scenario::TOPOLOGY_MESH,
            removed: Vec::new(),
        }
    }

    #[test]
    fn xy_walk_matches_sim_routing() {
        // The independent walk must agree with the simulator's table on
        // every pair — this is the whole point of having two of them.
        for (w, h) in [(1u8, 1u8), (2, 2), (4, 4), (3, 2), (1, 4)] {
            let mesh = Mesh::new(w, h, 1);
            for s in 0..mesh.routers() as u16 {
                for d in 0..mesh.routers() as u16 {
                    let ours = xy_walk(&mesh, NodeId(s), NodeId(d));
                    let theirs: Vec<u16> = noc_sim::routing::xy_path(&mesh, NodeId(s), NodeId(d))
                        .into_iter()
                        .map(|l| l.0)
                        .collect();
                    assert_eq!(ours, theirs, "{w}x{h} {s}->{d}");
                }
            }
        }
    }

    #[test]
    fn per_scenario_tables_match_fresh_per_pair_paths() {
        use crate::scenario::{TOPOLOGY_DEGRADED, TOPOLOGY_MESH, TOPOLOGY_TORUS};
        for family in [TOPOLOGY_MESH, TOPOLOGY_TORUS, TOPOLOGY_DEGRADED] {
            for seed in 0..500 {
                let sc = Scenario::generate_in(seed, Some(family));
                let mesh = sc.mesh();
                // A fresh routing function for every packet.
                let fresh: Vec<Vec<u16>> = sc
                    .packets
                    .iter()
                    .map(|p| {
                        let (src, dest) = (NodeId(p.src), NodeId(p.dest));
                        match mesh.topology() {
                            Topology::Mesh => xy_walk(&mesh, src, dest),
                            _ => route_path(&mesh, &Routing::for_mesh(&mesh), src, dest)
                                .iter()
                                .map(|l| l.0)
                                .collect(),
                        }
                    })
                    .collect();
                let rs = RefSim::new(&sc);
                assert_eq!(rs.paths, fresh, "family {family} seed {seed}");
                let reference = RefSim {
                    mesh,
                    scenario: sc.clone(),
                    paths: fresh,
                };
                assert_eq!(
                    rs.expectation(),
                    reference.expectation(),
                    "family {family} seed {seed}"
                );
            }
        }
    }

    #[test]
    fn clean_scenario_expects_total_silence() {
        let sc = base(2, 2);
        let exp = RefSim::new(&sc).expectation();
        assert_eq!(exp.injected_packets, 1);
        assert_eq!(exp.injected_flits, 2);
        assert!(exp.drains && exp.must_deliver_all && exp.zero_nacks);
        assert!(exp.no_classification);
        assert!(exp.uncorrectable.iter().all(|b| b.max == 0));
        assert_eq!(exp.quarantine.as_deref(), Some(&[][..]));
    }

    #[test]
    fn trojan_bounds_count_targeted_heads() {
        let mut sc = base(2, 2);
        let path = xy_walk(&sc.mesh(), NodeId(0), NodeId(3));
        sc.trojans.push(crate::scenario::TrojanSpec {
            link: path[0],
            target_dest: 3,
            armed: true,
            cooldown: 0,
        });
        let rs = RefSim::new(&sc);
        assert_eq!(rs.targeted_heads(path[0]), 1);
        let exp = rs.expectation();
        let b = exp
            .uncorrectable
            .iter()
            .find(|b| b.link == path[0])
            .unwrap();
        assert_eq!((b.min, b.max), (2, 2));
        assert_eq!(exp.trojan_class_links, vec![path[0]]);
        assert!(!exp.zero_nacks);
        assert!(exp.must_deliver_all, "mitigation resolves the attack");
    }

    #[test]
    fn disarmed_trojan_is_a_clean_link() {
        let mut sc = base(2, 2);
        let path = xy_walk(&sc.mesh(), NodeId(0), NodeId(3));
        sc.trojans.push(crate::scenario::TrojanSpec {
            link: path[0],
            target_dest: 3,
            armed: false,
            cooldown: 0,
        });
        let exp = RefSim::new(&sc).expectation();
        assert!(exp.zero_nacks && exp.no_classification);
        assert!(exp.uncorrectable.iter().all(|b| b.max == 0));
    }

    #[test]
    fn unprotected_dos_never_delivers_the_target() {
        let mut sc = base(2, 2);
        sc.mitigation = false;
        let path = xy_walk(&sc.mesh(), NodeId(0), NodeId(3));
        sc.trojans.push(crate::scenario::TrojanSpec {
            link: path[0],
            target_dest: 3,
            armed: true,
            cooldown: 0,
        });
        let exp = RefSim::new(&sc).expectation();
        assert!(!exp.drains);
        assert_eq!(exp.never_delivered, vec![1]);
        assert!(exp.quarantine.is_none());
    }

    #[test]
    fn bounded_retries_quarantine_exactly_the_trojan_link() {
        let mut sc = base(2, 2);
        sc.mitigation = false;
        sc.retry_budget = Some(4);
        let path = xy_walk(&sc.mesh(), NodeId(0), NodeId(3));
        sc.trojans.push(crate::scenario::TrojanSpec {
            link: path[0],
            target_dest: 3,
            armed: true,
            cooldown: 0,
        });
        let exp = RefSim::new(&sc).expectation();
        assert!(exp.drains && exp.conserve_at_quiescence);
        assert_eq!(exp.quarantine, Some(vec![path[0]]));
        assert!(!exp.must_deliver_all, "in-flight victims may drop");
    }

    #[test]
    fn stuck_bit_corrections_are_exact_and_silent() {
        let mut sc = base(2, 2);
        let path = xy_walk(&sc.mesh(), NodeId(0), NodeId(3));
        sc.stuck.push(crate::scenario::StuckSpec {
            link: path[0],
            bit: 7,
        });
        let rs = RefSim::new(&sc);
        let exp = rs.expectation();
        assert!(exp.zero_nacks && exp.no_classification && exp.drains);
        let b = exp.corrected.iter().find(|b| b.link == path[0]).unwrap();
        assert_eq!(b.min, b.max, "single stuck wire is exactly predictable");
        assert!(b.max <= 2, "at most one correction per crossing flit");
    }
}
