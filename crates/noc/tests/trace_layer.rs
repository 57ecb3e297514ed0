//! Integration coverage for the structured-tracing layer: schema
//! round-trips, ring-buffer bounds, the attack-forensics timeline of a
//! mitigated trojan run, and the zero-perturbation guarantee.

use noc_mitigation::FaultClass;
use noc_sim::sim::TrafficSource;
use noc_sim::trace::StallClass;
use noc_sim::{Record, SimConfig, Simulator, TraceConfig, TraceKind, TraceRecorder};
use noc_types::{Direction, FlitId, LinkId, NodeId, Packet, PacketId, VcId};

/// Inject a fixed list of packets at their `created_at` cycles.
struct ListSource {
    packets: Vec<Packet>,
}

impl TrafficSource for ListSource {
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

fn pkt(id: u64, cycle: u64, src: u16, dest: u16, len: u8) -> Packet {
    Packet::new(
        PacketId((id << 32) | cycle),
        NodeId(src),
        NodeId(dest),
        VcId(0),
        0,
        0,
        len,
        cycle,
    )
}

/// Mount a destination-hunting TASP trojan on the XY first-hop link
/// 0 → `dest` and return that link.
fn mount_dest_trojan(sim: &mut Simulator, dest: u8) -> LinkId {
    use noc_trojan::{TargetSpec, TaspConfig, TaspHt};
    let link = sim.mesh().link_out(NodeId(0), Direction::East).unwrap();
    let ht = TaspHt::new(TaspConfig::new(TargetSpec::dest(dest)));
    sim.link_faults_mut(link).trojan = Some(ht);
    link
}

fn trojan_packets() -> Vec<Packet> {
    let mut packets: Vec<Packet> = (0..6u64).map(|i| pkt(i + 1, i * 3, 0, 1, 4)).collect();
    packets
        .iter_mut()
        .for_each(|p| p.vc = VcId((p.created_at % 4) as u8));
    packets
}

/// Every `TraceKind` variant survives a JSONL serialize → parse cycle
/// byte-identically (the schema the `trace_validate` binary enforces).
#[test]
fn jsonl_schema_round_trips_every_variant() {
    use noc_mitigation::LobPlan;
    let plan = LobPlan::LADDER[2];
    let kinds = [
        TraceKind::FlitInjected {
            flit: FlitId(1),
            packet: PacketId(2),
            core: 3,
        },
        TraceKind::FlitLaunched {
            flit: FlitId(1),
            packet: PacketId(2),
            link: LinkId(4),
            attempt: 2,
            obf: Some(plan),
        },
        TraceKind::FlitLaunched {
            flit: FlitId(1),
            packet: PacketId(2),
            link: LinkId(4),
            attempt: 1,
            obf: None,
        },
        TraceKind::EccCorrected {
            flit: FlitId(1),
            packet: PacketId(2),
            link: LinkId(4),
        },
        TraceKind::EccDetected {
            flit: FlitId(1),
            packet: PacketId(2),
            link: LinkId(4),
        },
        TraceKind::FlitNacked {
            flit: FlitId(1),
            packet: PacketId(2),
            link: LinkId(4),
            lob_requested: true,
        },
        TraceKind::FlitAccepted {
            flit: FlitId(1),
            packet: PacketId(2),
            link: LinkId(4),
            obfuscated: false,
        },
        TraceKind::FlitEjected {
            flit: FlitId(1),
            packet: PacketId(2),
            router: NodeId(5),
        },
        TraceKind::PacketDropped {
            packet: PacketId(2),
            link: LinkId(4),
        },
        TraceKind::LinkClassified {
            link: LinkId(4),
            class: FaultClass::HardwareTrojan,
        },
        TraceKind::LobSelected {
            flit: FlitId(1),
            packet: PacketId(2),
            link: LinkId(4),
            plan,
            attempt: 1,
        },
        TraceKind::LobEscalated {
            flit: FlitId(1),
            link: LinkId(4),
            attempts: 9,
        },
        TraceKind::BistScan {
            link: LinkId(4),
            passed: true,
        },
        TraceKind::WatchdogTripped {
            class: StallClass::CreditStall,
            router: Some(NodeId(7)),
            dir: Some(Direction::North),
        },
        TraceKind::WatchdogTripped {
            class: StallClass::GlobalDeadlock,
            router: None,
            dir: None,
        },
        TraceKind::LinkQuarantined {
            link: LinkId(4),
            dropped_flits: 12,
            dropped_packets: 3,
        },
        TraceKind::Alert {
            class: noc_sim::AlertClass::RetxSurge,
            value: 512,
            threshold: 96,
        },
    ];
    for (i, kind) in kinds.into_iter().enumerate() {
        let rec = Record {
            cycle: 100 + i as u64,
            kind,
        };
        let line = rec.to_jsonl();
        let back = Record::from_jsonl(&line)
            .unwrap_or_else(|e| panic!("line must parse back: {line}: {e}"));
        assert_eq!(back, rec, "round-trip mismatch for {line}");
        assert_eq!(back.to_jsonl(), line, "canonical form for {line}");
    }
}

/// The bounded recorder keeps the newest events and counts evictions.
#[test]
fn ring_buffer_overflow_keeps_newest_and_counts_drops() {
    let mut rec = TraceRecorder::new(TraceConfig { capacity: 8 });
    for c in 0..20u64 {
        rec.record(
            c,
            TraceKind::BistScan {
                link: LinkId(0),
                passed: true,
            },
        );
    }
    assert_eq!(rec.len(), 8);
    assert_eq!(rec.emitted(), 20);
    assert_eq!(rec.dropped(), 12);
    let cycles: Vec<u64> = rec.records().map(|r| r.cycle).collect();
    assert_eq!(cycles, (12..20).collect::<Vec<_>>(), "newest 8 survive");
}

/// A mitigated trojan run's link timeline reconstructs the paper's
/// detect → classify → obfuscate sequence, in that order, and the
/// packet-forensics query reconstructs a victim's full journey.
#[test]
fn mitigated_trojan_timeline_shows_detect_classify_obfuscate() {
    let mut cfg = SimConfig::paper();
    cfg.trace = Some(TraceConfig::default());
    let mut sim = Simulator::new(cfg);
    let link = mount_dest_trojan(&mut sim, 1);
    sim.arm_trojans(true);
    let mut src = ListSource {
        packets: trojan_packets(),
    };
    assert!(sim.run_to_quiescence(4000, &mut src), "mitigation must win");

    let timeline = sim.link_timeline(link);
    assert!(!timeline.is_empty(), "infected link must have a timeline");
    let pos = |pred: &dyn Fn(&Record) -> bool| timeline.iter().position(pred);
    let detect = pos(&|r| matches!(r.kind, TraceKind::EccDetected { .. }))
        .expect("trojan faults must be detected");
    let classify = pos(&|r| matches!(r.kind, TraceKind::LinkClassified { .. }))
        .expect("the detector must classify the link");
    let select = pos(&|r| matches!(r.kind, TraceKind::LobSelected { .. }))
        .expect("L-Ob must select a method");
    let obf_launch = pos(&|r| matches!(r.kind, TraceKind::FlitLaunched { obf: Some(_), .. }))
        .expect("an obfuscated replay must launch");
    let obf_accept = pos(&|r| {
        matches!(
            r.kind,
            TraceKind::FlitAccepted {
                obfuscated: true,
                ..
            }
        )
    })
    .expect("the obfuscated replay must cross cleanly");
    assert!(
        detect < classify,
        "detect ({detect}) before classify ({classify})"
    );
    assert!(
        classify < obf_launch,
        "classify before the obfuscated launch"
    );
    assert!(
        select < obf_launch,
        "selection before the obfuscated launch"
    );
    assert!(obf_launch < obf_accept, "launch before acceptance");
    assert!(
        timeline.iter().any(|r| matches!(
            r.kind,
            TraceKind::LinkClassified {
                class: FaultClass::HardwareTrojan,
                ..
            }
        )),
        "sustained data-dependent faulting must classify as a hardware trojan"
    );

    // Packet forensics: a victim packet's history runs inject → launch →
    // fault → … → final ejection, each stage present and ordered.
    let victim = timeline
        .iter()
        .find_map(|r| matches!(r.kind, TraceKind::EccDetected { .. }).then(|| r.packet().unwrap()))
        .expect("a faulted packet exists");
    let history = sim.packet_history(victim);
    let hpos = |pred: &dyn Fn(&TraceKind) -> bool| history.iter().position(|r| pred(&r.kind));
    let injected = hpos(&|k| matches!(k, TraceKind::FlitInjected { .. })).expect("injection");
    let faulted = hpos(&|k| matches!(k, TraceKind::EccDetected { .. })).expect("fault");
    let retried = history
        .iter()
        .position(|r| matches!(r.kind, TraceKind::FlitLaunched { attempt, .. } if attempt > 1))
        .expect("a retransmission");
    let ejected = hpos(&|k| matches!(k, TraceKind::FlitEjected { .. })).expect("delivery");
    assert!(injected < faulted && faulted < retried && retried < ejected);
    // The history is cycle-ordered like the raw stream.
    assert!(history.windows(2).all(|w| w[0].cycle <= w[1].cycle));

    // The metrics registry agrees: the trojan link drew the most
    // retransmissions of any link in the mesh.
    let (hottest, retx) = sim.metrics().max_retx_link().unwrap();
    assert_eq!(hottest, link, "trojan link must lead the retx table");
    assert!(retx > 0);
    assert!(sim.metrics().link(link).ecc_uncorrectable.get() > 0);
    assert!(sim.metrics().link(link).lob_selections.get() > 0);
}

/// Tracing must not perturb the simulation: the same seeded run with and
/// without tracing reports bit-identical statistics.
#[test]
fn tracing_disabled_changes_no_stats() {
    let run = |trace: Option<TraceConfig>| {
        let mut cfg = SimConfig::paper();
        cfg.trace = trace;
        let mut sim = Simulator::new(cfg);
        mount_dest_trojan(&mut sim, 1);
        sim.arm_trojans(true);
        let mut src = ListSource {
            packets: trojan_packets(),
        };
        assert!(sim.run_to_quiescence(4000, &mut src));
        sim.stats().clone()
    };
    let traced = run(Some(TraceConfig::default()));
    let untraced = run(None);
    assert_eq!(traced, untraced, "tracing must be observation-only");
}

/// A traced run can stream its full history to a sink while the ring
/// keeps only the tail, and the JSONL dump validates line by line.
#[test]
fn sink_stream_is_schema_clean_and_complete() {
    let (tx, rx) = std::sync::mpsc::channel();
    let mut cfg = SimConfig::paper();
    cfg.trace = Some(TraceConfig { capacity: 16 });
    let mut sim = Simulator::new(cfg);
    mount_dest_trojan(&mut sim, 1);
    sim.arm_trojans(true);
    assert!(sim.set_trace_sink(Box::new(noc_sim::ChannelSink(tx))));
    let mut src = ListSource {
        packets: trojan_packets(),
    };
    assert!(sim.run_to_quiescence(4000, &mut src));
    let streamed: Vec<Record> = rx.try_iter().collect();
    let tracer = sim.tracer().unwrap();
    assert_eq!(streamed.len() as u64, tracer.emitted());
    assert!(tracer.dropped() > 0, "tiny ring must have wrapped");
    assert_eq!(tracer.len(), 16);
    for rec in &streamed {
        let line = rec.to_jsonl();
        assert_eq!(Record::from_jsonl(&line), Ok(*rec), "{line}");
    }
}
