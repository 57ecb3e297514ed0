//! Messages exchanged between routers: flits on links, ACK/NACK returns,
//! and the event stream the simulator exposes to orchestration code.

use noc_ecc::Codeword;
use noc_mitigation::{FaultClass, LobPlan};
use noc_types::{Flit, FlitId, LinkId, NodeId, PacketId, VcId};

/// Obfuscation side-band metadata travelling with a flit. The paper assumes
/// the mitigation hardware itself is trustworthy; these control wires are
/// outside the trojan's reach.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ObfWire {
    /// The transform applied to the wire word.
    pub plan: LobPlan,
    /// Ladder attempt number (0 = first obfuscated try).
    pub attempt: u32,
    /// For `Scramble`: the flit whose word is the XOR key.
    pub partner: Option<FlitId>,
}

/// A flit in flight on a link: the logical flit (simulator bookkeeping),
/// the physical codeword (what faults corrupt), and side-band metadata.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkFlit {
    /// The logical flit (simulator bookkeeping).
    pub flit: Flit,
    /// Codeword as launched (pre-fault); the fault layer transforms it on
    /// delivery.
    pub codeword: Codeword,
    /// The (possibly obfuscated) data word on the wire — the trojan's view.
    pub wire_word: u64,
    /// Downstream input VC this flit is destined for.
    pub vc: VcId,
    /// Obfuscation side-band, when the flit was transformed at launch.
    pub obf: Option<ObfWire>,
}

/// ACK/NACK returned on the reverse control wires one cycle after delivery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AckKind {
    /// Delivered cleanly; the upstream retransmission slot is released.
    Ack {
        /// The plan that crossed cleanly, for the upstream L-Ob's log.
        obf_success: Option<LobPlan>,
    },
    /// Uncorrectable fault: replay.
    Nack {
        /// `Some(n)` when the downstream detector wants ladder attempt `n`.
        lob_attempt: Option<u32>,
    },
}

/// One ACK/NACK message in flight on the reverse channel.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AckMsg {
    /// The flit being acknowledged.
    pub flit: FlitId,
    /// ACK or NACK, with mitigation side-band.
    pub kind: AckKind,
}

/// Events surfaced to the orchestration layer (rerouting decisions, figure
/// harnesses, tests).
#[derive(Debug, Clone, PartialEq)]
pub enum SimEvent {
    /// A packet's tail flit reached its destination core.
    PacketDelivered {
        /// The delivered packet.
        packet: PacketId,
        /// Source router.
        src: NodeId,
        /// Destination router.
        dest: NodeId,
        /// Injection cycle.
        injected_at: u64,
        /// Delivery cycle (tail ejection).
        delivered_at: u64,
    },
    /// The threat detector scheduled a BIST scan of a link.
    BistRan {
        /// The scanned link.
        link: LinkId,
        /// Whether the scan found the wires healthy.
        passed: bool,
        /// Cycle the scan was triggered.
        cycle: u64,
    },
    /// The detector's classification of a link changed.
    LinkClassified {
        /// The classified link.
        link: LinkId,
        /// New fault classification.
        class: FaultClass,
        /// Cycle of the change.
        cycle: u64,
    },
    /// An obfuscation method crossed a compromised link cleanly.
    ObfuscationSucceeded {
        /// The protected link.
        link: LinkId,
        /// The plan that crossed cleanly.
        plan: LobPlan,
        /// Cycle of the clean crossing.
        cycle: u64,
    },
    /// A retransmission entry exhausted its retry budget and was escalated
    /// to forced obfuscation (mitigation available, not yet obfuscated).
    RetryBudgetEscalated {
        /// Link whose entry blew its budget.
        link: LinkId,
        /// The flit being escalated.
        flit: FlitId,
        /// Launch attempts at escalation time.
        attempts: u32,
        /// Cycle of the escalation.
        cycle: u64,
    },
    /// A link was quarantined: declared dead, its victim packets purged
    /// network-wide, and routing rebuilt around it.
    LinkQuarantined {
        /// The quarantined link.
        link: LinkId,
        /// Packets purged with it.
        dropped_packets: u64,
        /// Flits purged with it.
        dropped_flits: u64,
        /// Cycle of the quarantine.
        cycle: u64,
    },
    /// The deadlock/livelock watchdog tripped during a guarded run.
    WatchdogTripped {
        /// The structured stall diagnosis.
        report: crate::watchdog::StallReport,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ack_kinds_distinguish_replay_policy() {
        let plain = AckKind::Nack { lob_attempt: None };
        let escalated = AckKind::Nack {
            lob_attempt: Some(1),
        };
        assert_ne!(plain, escalated);
    }
}
