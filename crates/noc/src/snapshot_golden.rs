//! Byte-format golden for the snapshot codec: FNV-1a fingerprints of
//! `SimSnapshot::to_bytes` over a fixed scenario mix that reaches every
//! tag the payload encoder writes. Every other snapshot test compares a
//! build with itself, so a layout change made consistently on both sides
//! of the codec passes them all — while silently breaking every
//! checkpoint an older build wrote under the same `SNAPSHOT_VERSION`.
//! This test compares against bytes a previous build recorded.
//!
//! Compare-only: the golden file is never rewritten by the test. A change
//! that alters the bytes on purpose bumps `SNAPSHOT_VERSION` and records
//! `tests/golden/snapshot_bytes.txt` again in the same change.

use crate::config::{SimConfig, TraceConfig};
use crate::error::SimError;
use crate::fault::StuckWires;
use crate::input::PendingScramble;
use crate::invariants::Violation;
use crate::message::{AckKind, AckMsg, ObfWire, SimEvent, TraceEvent, TraceOutcome};
use crate::output::{RetxEntry, SlotState};
use crate::routing::Routing;
use crate::sim::{Simulator, TrafficSource};
use crate::snapshot::{fnv64, SimSnapshot};
use crate::watchdog::{StallKind, StallReport, WatchdogConfig};
use noc_mitigation::{FaultClass, LobPlan};
use noc_trojan::{FieldMatch, TargetSpec, TaspConfig, TaspHt};
use noc_types::{Direction, FlitId, LinkId, Mesh, NodeId, Packet, PacketId, VcId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;

/// Seeded random traffic over every router: 1–4 flit packets, a third of
/// them aimed at router 9 so trojans on its feeder links stay busy.
struct Stream {
    rng: StdRng,
    polled: u64,
    next_id: u64,
    routers: u16,
    until: u64,
}

impl Stream {
    fn new(seed: u64, routers: usize, until: u64) -> Self {
        Self {
            rng: StdRng::seed_from_u64(seed),
            polled: 0,
            next_id: 1,
            routers: routers as u16,
            until,
        }
    }
}

impl TrafficSource for Stream {
    fn poll(&mut self, cycle: u64, out: &mut Vec<Packet>) {
        self.polled += 1;
        if cycle >= self.until || self.rng.gen_range(0u8..10) >= 4 {
            return;
        }
        let src = NodeId(self.rng.gen_range(0..self.routers));
        let dest = if self.rng.gen_bool(0.35) {
            NodeId(9 % self.routers)
        } else {
            NodeId(self.rng.gen_range(0..self.routers))
        };
        if src == dest {
            return;
        }
        let id = self.next_id;
        self.next_id += 1;
        out.push(Packet::new(
            PacketId(id),
            src,
            dest,
            VcId((id % 2) as u8),
            (id * 64) as u32,
            (id % 4) as u8,
            1 + (id % 4) as u8,
            cycle,
        ));
    }
}

fn link(sim: &Simulator, node: u16, dir: Direction) -> LinkId {
    sim.mesh().link_out(NodeId(node), dir).expect("link exists")
}

fn mount(sim: &mut Simulator, link: LinkId, cfg: TaspConfig) {
    sim.link_faults_mut(link).trojan = Some(TaspHt::new(cfg));
}

/// One stall report per detector kind.
fn stall_reports() -> Vec<StallReport> {
    let kinds = [
        StallKind::GlobalDeadlock { idle_cycles: 1500 },
        StallKind::CreditStall {
            router: NodeId(6),
            dir: Direction::South,
            oldest_age: 611,
        },
        StallKind::RetxLivelock {
            router: NodeId(5),
            dir: Direction::North,
            flit: FlitId(4242),
            attempts: 24,
        },
    ];
    kinds
        .into_iter()
        .enumerate()
        .map(|(i, kind)| StallReport {
            cycle: 900 + i as u64,
            kind,
            resident_flits: 31 + i,
            queued_flits: 7 * i,
            delivered_flits: 1000 + i as u64,
            heartbeat: None,
        })
        .collect()
}

/// The driver-owned section the campaign writes: its stall log, then the
/// traffic cursor (poll count, RNG state, next packet id).
fn user_data(mut stalls: Vec<StallReport>, src: &mut Stream) -> Vec<u8> {
    let mut w = crate::snapshot::Writer::default();
    w.put(&mut stalls);
    w.put(&mut (&mut src.polled, &mut src.rng, &mut src.next_id));
    w.into_bytes()
}

/// Every `SimEvent` and `TraceEvent` variant (and trace outcome), every
/// fault class, an escalating NACK and a scrambled flit waiting for its
/// partner: the tags no short scenario is guaranteed to reach.
fn reach_remaining_tags(sim: &mut Simulator) {
    let plan = LobPlan::LADDER[1];
    sim.events.extend([
        SimEvent::PacketDelivered {
            packet: PacketId(77),
            src: NodeId(1),
            dest: NodeId(14),
            injected_at: 10,
            delivered_at: 61,
        },
        SimEvent::BistRan {
            link: LinkId(3),
            passed: true,
            cycle: 62,
        },
        SimEvent::LinkClassified {
            link: LinkId(3),
            class: FaultClass::Permanent,
            cycle: 63,
        },
        SimEvent::ObfuscationSucceeded {
            link: LinkId(4),
            plan,
            cycle: 64,
        },
        SimEvent::RetryBudgetEscalated {
            link: LinkId(4),
            flit: FlitId(501),
            attempts: 33,
            cycle: 65,
        },
        SimEvent::LinkQuarantined {
            link: LinkId(5),
            dropped_packets: 2,
            dropped_flits: 6,
            cycle: 66,
        },
    ]);
    for report in stall_reports() {
        sim.events.push(SimEvent::WatchdogTripped { report });
    }
    sim.trace.extend([
        TraceEvent::Injected {
            cycle: 1,
            flit: FlitId(9),
            core: 12,
        },
        TraceEvent::Launched {
            cycle: 2,
            flit: FlitId(9),
            link: LinkId(7),
            obfuscated: Some(plan),
            attempt: 1,
        },
        TraceEvent::Launched {
            cycle: 3,
            flit: FlitId(9),
            link: LinkId(7),
            obfuscated: None,
            attempt: 0,
        },
    ]);
    for outcome in [
        TraceOutcome::Clean,
        TraceOutcome::CorrectedSingleBit,
        TraceOutcome::Nacked {
            lob_requested: true,
        },
        TraceOutcome::Nacked {
            lob_requested: false,
        },
    ] {
        sim.trace.push(TraceEvent::Delivered {
            cycle: 4,
            flit: FlitId(9),
            link: LinkId(7),
            outcome,
        });
    }
    sim.trace.push(TraceEvent::Ejected {
        cycle: 5,
        flit: FlitId(9),
        router: NodeId(3),
    });
    for (unit, class) in [
        FaultClass::None,
        FaultClass::Transient,
        FaultClass::Permanent,
        FaultClass::HardwareTrojan,
    ]
    .into_iter()
    .enumerate()
    {
        sim.routers[0].inputs[unit].reported_class = class;
    }
    let scramble = LobPlan::LADDER[2];
    let mut next_flit = 90_000;
    let flit = Packet::new(PacketId(900), NodeId(2), NodeId(3), VcId(3), 0x40, 1, 2, 30)
        .packetize(&mut next_flit)[1];
    sim.links.acks[0].push_back((
        41,
        AckMsg {
            flit: flit.id,
            kind: AckKind::Nack {
                lob_attempt: Some(2),
            },
        },
    ));
    sim.routers[1].inputs[1]
        .pending_scrambles
        .push(PendingScramble {
            flit,
            vc: VcId(1),
            partner: FlitId(flit.id.0 + 1),
            arrived: 39,
            penalty: 2,
            order: 7,
        });
    let retx = sim.routers[2].outputs[0].as_mut().expect("east output");
    retx.entries.push(RetxEntry {
        flit,
        vc: VcId(3),
        state: SlotState::AwaitAck,
        attempts: 3,
        nacks: 2,
        obf: Some(ObfWire {
            plan: scramble,
            attempt: 2,
            partner: Some(FlitId(flit.id.0 + 1)),
        }),
        sent_at: 38,
        entered_at: 30,
    });
}

/// A named snapshot and the configuration it was taken under.
type Case = (String, SimConfig, SimSnapshot);

fn take(name: &str, sim: &mut Simulator, out: &mut Vec<Case>) {
    out.push((
        format!("{name}@{}", sim.cycle()),
        sim.cfg.clone(),
        sim.snapshot(),
    ));
}

/// The scenario mix, snapshots in order.
fn scenarios() -> Vec<Case> {
    let mut out = Vec::new();

    // Paper mesh under L-Ob mitigation with XY routing: trojans with exact
    // and range targets, stuck wires, transients, a trace ring and a
    // traced packet — snapshotted mid-attack with plans in flight.
    let mut cfg = SimConfig::paper();
    cfg.trace = Some(TraceConfig { capacity: 48 });
    cfg.trace_packet = Some(PacketId(5));
    let mut sim = Simulator::new(cfg);
    let hot = link(&sim, 5, Direction::North);
    mount(&mut sim, hot, TaspConfig::new(TargetSpec::dest(9)));
    let ranged = TargetSpec {
        src: Some(FieldMatch::Range(0..=7)),
        dest: None,
        vc: Some(FieldMatch::Exact(0)),
        mem: Some(FieldMatch::Range(0..=0x4000)),
    };
    let feeder = link(&sim, 8, Direction::East);
    mount(
        &mut sim,
        feeder,
        TaspConfig::new(ranged).with_y_bits(3).with_cooldown(4),
    );
    let stuck = link(&sim, 2, Direction::West);
    sim.link_faults_mut(stuck).stuck = StuckWires::new(1 << 3, 1 << 70);
    let noisy = link(&sim, 10, Direction::South);
    sim.link_faults_mut(noisy).transient_bit_prob = 2e-3;
    let mut src = Stream::new(11, 16, 400);
    sim.run(60, &mut src);
    sim.arm_trojans(true);
    for _ in 0..3 {
        sim.run(110, &mut src);
        take("mesh_lob", &mut sim, &mut out);
    }

    // Unprotected mesh with the watchdog armed: the trojan livelocks a
    // flit, the hot link is quarantined mid-run (XY → table routing), and
    // the snapshot carries the campaign's stall log and traffic cursor.
    let mut cfg = SimConfig::paper_unprotected();
    cfg.watchdog = Some(WatchdogConfig::default());
    let mut sim = Simulator::new(cfg);
    let hot = link(&sim, 5, Direction::North);
    mount(&mut sim, hot, TaspConfig::new(TargetSpec::dest(9)));
    let mut src = Stream::new(12, 16, 500);
    sim.run(40, &mut src);
    sim.arm_trojans(true);
    sim.run(200, &mut src);
    take("mesh_storm", &mut sim, &mut out);
    sim.quarantine_link(hot)
        .expect("the paper mesh survives one dead link");
    sim.run(90, &mut src);
    take("mesh_quarantine+user_data", &mut sim, &mut out);
    let last = out.last_mut().expect("just pushed");
    last.2.set_user_data(user_data(stall_reports(), &mut src));

    // Odd-even adaptive routing, per-VC retransmission buffers.
    let mut cfg = SimConfig::paper();
    cfg.retx_scheme = crate::config::RetxScheme::PerVc;
    let mut sim = Simulator::new(cfg);
    sim.set_routing(Routing::OddEven);
    let mut src = Stream::new(13, 16, 300);
    sim.run(180, &mut src);
    take("odd_even", &mut sim, &mut out);

    // Torus: dateline VC classes in the topology tables, a trojan on a
    // wrap link.
    let mut cfg = SimConfig::paper();
    cfg.mesh = Mesh::new_torus(4, 4, 1);
    let mut sim = Simulator::new(cfg);
    let wrap = link(&sim, 3, Direction::East);
    mount(&mut sim, wrap, TaspConfig::new(TargetSpec::src(3)));
    sim.arm_trojans(true);
    let mut src = Stream::new(14, 16, 300);
    sim.run(200, &mut src);
    take("torus", &mut sim, &mut out);

    // Fault-degraded mesh (up*/down* topology tables), then a quarantine
    // on top of it.
    let mut cfg = SimConfig::paper();
    cfg.mesh = Mesh::new_degraded(
        4,
        4,
        1,
        &[(NodeId(5), Direction::East), (NodeId(10), Direction::North)],
    );
    let mut sim = Simulator::new(cfg);
    let mut src = Stream::new(15, 16, 300);
    sim.run(150, &mut src);
    take("degraded", &mut sim, &mut out);
    let victim = link(&sim, 1, Direction::North);
    sim.quarantine_link(victim)
        .expect("degraded mesh stays connected");
    sim.run(60, &mut src);
    take("degraded_quarantine", &mut sim, &mut out);

    // Every arm of `poisoned`, and every event tag, set directly: no
    // scenario reaches a stored stall or invariant failure.
    let mut cfg = SimConfig::paper();
    cfg.trace = Some(TraceConfig { capacity: 8 });
    let mut sim = Simulator::new(cfg);
    let mut src = Stream::new(16, 16, 80);
    sim.run(40, &mut src);
    reach_remaining_tags(&mut sim);
    take("poisoned_none", &mut sim, &mut out);
    for (arm, err) in [
        ("stalled", SimError::Stalled(Box::new(stall_reports()[2]))),
        (
            "disconnected",
            SimError::MeshDisconnected {
                cycle: 40,
                dead: vec![LinkId(2), LinkId(9)],
            },
        ),
        (
            "invariants",
            SimError::InvariantViolations {
                cycle: 40,
                violations: vec![
                    Violation {
                        router: 3,
                        what: "credits exceed depth".into(),
                    },
                    Violation {
                        router: 12,
                        what: "vc owner ∅".into(),
                    },
                ],
            },
        ),
    ] {
        sim.poisoned = Some(err);
        take(&format!("poisoned_{arm}"), &mut sim, &mut out);
    }
    out
}

#[test]
fn snapshot_bytes_match_the_committed_golden() {
    let mut got = String::new();
    for (name, _, snap) in scenarios() {
        let bytes = snap.to_bytes();
        writeln!(
            got,
            "{name}: {} bytes, fnv64 {:016x}",
            bytes.len(),
            fnv64(&bytes)
        )
        .unwrap();
    }
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/snapshot_bytes.txt");
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("golden file {}: {e}", path.display()));
    assert_eq!(
        want, got,
        "snapshot bytes changed: a checkpoint written by an older build no \
         longer decodes the same — bump SNAPSHOT_VERSION and re-record"
    );
}

#[test]
fn every_golden_snapshot_restores_and_reencodes_identically() {
    for (name, cfg, snap) in scenarios() {
        let bytes = snap.to_bytes();
        let back = SimSnapshot::from_bytes(&bytes).unwrap_or_else(|e| panic!("{name}: {e}"));
        let mut twin = Simulator::new(cfg);
        twin.restore(&back)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let mut again = twin.snapshot();
        again.set_user_data(back.user_data().to_vec());
        assert_eq!(again.to_bytes(), bytes, "{name}: re-encoding differs");
    }
}
