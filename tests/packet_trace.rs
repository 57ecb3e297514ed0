//! Forensic packet tracing: replay the exact journey of a trojan-targeted
//! packet from the trace bus (`Simulator::packet_history`) and verify the
//! attack → detection → obfuscation story appears in it, record by record.

use htnoc::prelude::*;
use htnoc::sim::sim::TrafficSource;
use htnoc::sim::{Record, TraceConfig, TraceKind};
use noc_types::{Direction, PacketId};

struct One(Option<Packet>);
impl TrafficSource for One {
    fn poll(&mut self, cycle: u64, out: &mut Vec<Packet>) {
        if cycle == 0 {
            out.extend(self.0.take());
        }
    }
    fn done(&self) -> bool {
        self.0.is_none()
    }
}

fn traced_sim(mitigation: bool) -> Simulator {
    let mut cfg = if mitigation {
        SimConfig::paper()
    } else {
        SimConfig::paper_unprotected()
    };
    cfg.trace = Some(TraceConfig::default());
    let mut sim = Simulator::new(cfg);
    let link = sim.mesh().link_out(NodeId(0), Direction::East).unwrap();
    let ht = TaspHt::new(TaspConfig::new(TargetSpec::dest(1)));
    sim.link_faults_mut(link).trojan = Some(ht);
    sim.arm_trojans(true);
    sim
}

fn victim(pid: PacketId, dest: u16, len: u8) -> One {
    One(Some(Packet::new(
        pid,
        NodeId(0),
        NodeId(dest),
        VcId(0),
        0,
        0,
        len,
        0,
    )))
}

fn nacks(journey: &[Record]) -> usize {
    journey
        .iter()
        .filter(|r| matches!(r.kind, TraceKind::FlitNacked { .. }))
        .count()
}

fn obfuscated_launch(journey: &[Record]) -> bool {
    journey
        .iter()
        .any(|r| matches!(r.kind, TraceKind::FlitLaunched { obf: Some(_), .. }))
}

#[test]
fn trace_shows_the_full_attack_and_mitigation_story() {
    let pid = PacketId(77);
    let mut sim = traced_sim(true);
    assert!(sim.run_to_quiescence(2000, &mut victim(pid, 1, 1)));
    let journey = sim.packet_history(pid);

    // Story: injected → launched plain → NACKed (trojan) → relaunched →
    // NACKed again → launched obfuscated → accepted clean → ejected.
    assert!(
        matches!(
            journey.first().map(|r| r.kind),
            Some(TraceKind::FlitInjected { .. })
        ),
        "{journey:#?}"
    );
    assert!(
        matches!(
            journey.last().map(|r| r.kind),
            Some(TraceKind::FlitEjected { .. })
        ),
        "{journey:#?}"
    );
    assert!(
        nacks(&journey) >= 2,
        "the trojan hits the plain retries: {journey:#?}"
    );
    // The detector asked for an obfuscated retry, and a launch carried a
    // plan...
    assert!(
        journey.iter().any(|r| matches!(
            r.kind,
            TraceKind::FlitNacked {
                lob_requested: true,
                ..
            }
        )),
        "{journey:#?}"
    );
    assert!(obfuscated_launch(&journey), "{journey:#?}");
    // ...and the final crossing was accepted without an ECC event.
    let last_launch = journey
        .iter()
        .rposition(|r| matches!(r.kind, TraceKind::FlitLaunched { .. }))
        .expect("launched at least once");
    let crossing: Vec<_> = journey[last_launch + 1..]
        .iter()
        .map(|r| r.kind.label())
        .collect();
    assert_eq!(crossing, ["flit_accepted", "flit_ejected"], "{journey:#?}");
    // Records are in nondecreasing cycle order.
    assert!(journey.windows(2).all(|w| w[0].cycle <= w[1].cycle));
}

#[test]
fn unprotected_trace_shows_endless_nacks_and_no_ejection() {
    let pid = PacketId(78);
    let mut sim = traced_sim(false);
    assert!(
        !sim.run_to_quiescence(600, &mut victim(pid, 1, 1)),
        "must starve"
    );
    let journey = sim.packet_history(pid);
    assert!(
        !journey
            .iter()
            .any(|r| matches!(r.kind, TraceKind::FlitEjected { .. })),
        "the victim never arrives"
    );
    let n = nacks(&journey);
    assert!(n > 20, "NACK livelock expected, saw {n}");
    // No launch ever carried an obfuscation plan (mitigation off).
    assert!(!obfuscated_launch(&journey));
}

#[test]
fn untraced_runs_record_nothing() {
    let mut sim = Simulator::new(SimConfig::paper());
    assert!(sim.run_to_quiescence(500, &mut victim(PacketId(1), 5, 2)));
    assert!(sim.tracer().is_none());
    assert!(sim.packet_history(PacketId(1)).is_empty());
}
