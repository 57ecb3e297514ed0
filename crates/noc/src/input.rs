//! Router input units: per-VC buffers, the VC state machine, the threat
//! detector guarding the incoming link, and the descramble holding area for
//! scrambled L-Ob flits.

use noc_mitigation::ThreatDetector;
use noc_types::{Flit, FlitId, PacketId, Port, VcId};
use std::collections::VecDeque;

/// Wormhole state of one input VC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VcState {
    /// No packet assigned.
    Idle,
    /// Head flit buffered; route computation pending.
    Routing,
    /// Route known; waiting for an output VC.
    VcAlloc,
    /// Output VC held; flits flow through SA.
    Active,
}

/// One virtual channel's buffer and state.
#[derive(Debug, Clone)]
pub struct InputVc {
    /// Buffered flits, head first.
    pub fifo: VecDeque<Flit>,
    /// Wormhole pipeline state.
    pub state: VcState,
    /// Computed output port (valid from `VcAlloc` onward).
    pub route: Option<Port>,
    /// Granted output VC (valid in `Active`; `None` for local ejection).
    pub out_vc: Option<VcId>,
    /// Packet the wormhole state machine is currently forwarding.
    pub packet: Option<PacketId>,
    /// Packet currently being *accepted off the wire* (may run ahead of
    /// `packet`: a tail can arrive while the head still sits in VA).
    pub wire_packet: Option<PacketId>,
    /// Next expected flit sequence for `wire_packet` (go-back-N receive
    /// ordering: out-of-sequence arrivals are NACKed).
    pub expected_seq: u8,
    /// Cycle the state last changed (pipeline-stage pacing).
    pub since: u64,
}

impl InputVc {
    fn new() -> Self {
        Self {
            fifo: VecDeque::new(),
            state: VcState::Idle,
            route: None,
            out_vc: None,
            packet: None,
            wire_packet: None,
            expected_seq: 0,
            since: cycle_zero(),
        }
    }

    /// Free the VC after its tail flit departs. If the next packet's head
    /// is already queued behind it, re-arm the state machine immediately.
    pub fn release(&mut self, cycle: u64) {
        self.state = VcState::Idle;
        self.route = None;
        self.out_vc = None;
        self.packet = None;
        self.since = cycle;
        if let Some(front) = self.fifo.front() {
            debug_assert!(front.kind.carries_header(), "stream must resume at a head");
            self.state = VcState::Routing;
            self.packet = Some(front.packet);
        }
    }

    /// Buffered flit count.
    pub fn occupancy(&self) -> usize {
        self.fifo.len()
    }
}

fn cycle_zero() -> u64 {
    0
}

/// A scrambled flit waiting for its XOR partner.
#[derive(Debug, Clone, Copy, Default)]
pub struct PendingScramble {
    /// The held flit.
    pub flit: Flit,
    /// The scrambled flit (logical content).
    pub vc: VcId,
    /// Its input VC.
    pub partner: FlitId,
    /// The partner flit whose word is the XOR key.
    pub arrived: u64,
    /// Undo penalty still to pay once the partner's word is known.
    pub penalty: u32,
    /// Wire-acceptance order stamp (keeps the VC stream in order).
    pub order: u64,
}

/// A flit whose obfuscation undo stall is in progress: it enters the FIFO
/// at `ready` (paying the 1–3 cycle L-Ob penalty).
#[derive(Debug, Clone, Copy, Default)]
pub struct DelayedEntry {
    /// Cycle the buffer write becomes due.
    pub ready: u64,
    /// Input VC the flit belongs to.
    pub vc: VcId,
    /// The held flit.
    pub flit: Flit,
    /// Wire-acceptance order stamp (keeps the VC stream in order).
    pub order: u64,
}

/// One input port (network or local).
#[derive(Debug)]
pub struct InputUnit {
    /// Per-VC buffers and wormhole state.
    pub vcs: Vec<InputVc>,
    /// Threat source detector (meaningful on network ports).
    pub detector: ThreatDetector,
    /// Flits paying an obfuscation-undo stall before buffer write.
    pub delayed: Vec<DelayedEntry>,
    /// Scrambled flits waiting for their partner's word.
    pub pending_scrambles: Vec<PendingScramble>,
    /// Recently seen wire words by flit id (XOR keys for descrambling):
    /// a fixed-capacity insertion-ordered ring. A hash map here would
    /// re-table under constant fresh-key churn; at ≤ 64 entries a linear
    /// scan is cheaper than hashing and never touches the allocator.
    pub(crate) seen_words: Vec<(FlitId, u64)>,
    /// Index of the oldest ring entry (the next eviction slot).
    pub(crate) seen_head: usize,
    /// Monotonic wire-acceptance counter for order stamps.
    pub(crate) next_order: u64,
    /// Last fault classification reported for the guarded link (event
    /// deduplication).
    pub reported_class: noc_mitigation::FaultClass,
    /// Deepest total buffer occupancy this unit ever reached (flits),
    /// maintained by `Router::buffer_write` for the metrics registry.
    pub occupancy_high_water: u64,
}

/// How many partner words to remember for descrambling.
const SEEN_WORDS_CAP: usize = 64;

impl InputUnit {
    /// Construct an input unit with `vcs` virtual channels.
    pub fn new(vcs: u8, detector: ThreatDetector) -> Self {
        Self {
            vcs: (0..vcs).map(|_| InputVc::new()).collect(),
            detector,
            delayed: Vec::new(),
            pending_scrambles: Vec::new(),
            seen_words: Vec::with_capacity(SEEN_WORDS_CAP),
            seen_head: 0,
            next_order: 0,
            reported_class: noc_mitigation::FaultClass::None,
            occupancy_high_water: 0,
        }
    }

    /// Next wire-acceptance order stamp.
    pub fn take_order(&mut self) -> u64 {
        let o = self.next_order;
        self.next_order += 1;
        o
    }

    /// Total buffered flits across VCs (input-port utilisation statistic).
    pub fn occupancy(&self) -> usize {
        self.vcs.iter().map(InputVc::occupancy).sum()
    }

    /// Free slots in `vc`'s FIFO given the configured depth, counting
    /// in-flight commitments (delayed + pending scrambles bound for it).
    pub fn free_slots(&self, vc: VcId, depth: usize) -> usize {
        let committed = self.vcs[vc.index()].occupancy()
            + self.delayed.iter().filter(|d| d.vc == vc).count()
            + self.pending_scrambles.iter().filter(|p| p.vc == vc).count();
        depth.saturating_sub(committed)
    }

    /// Earliest future cycle at which this unit acts on a *timer* rather
    /// than an arrival: the soonest delayed-entry (L-Ob undo stall)
    /// release. Pending scrambles wait on a partner flit, not on time, so
    /// they do not contribute. Feeds the fast-forward engine's
    /// defence-in-depth audit — a unit holding a timed release can never
    /// be part of a provably idle network, since its held flit is also
    /// counted resident.
    pub fn next_timed_event_at(&self) -> Option<u64> {
        self.delayed.iter().map(|d| d.ready).min()
    }

    /// Record a delivered flit's word for later descrambling use.
    pub fn remember_word(&mut self, id: FlitId, word: u64) {
        if let Some(e) = self.seen_words.iter_mut().find(|e| e.0 == id) {
            e.1 = word;
        } else if self.seen_words.len() < SEEN_WORDS_CAP {
            self.seen_words.push((id, word));
        } else {
            self.seen_words[self.seen_head] = (id, word);
            self.seen_head = (self.seen_head + 1) % SEEN_WORDS_CAP;
        }
    }

    /// Whether a word for `id` is remembered.
    pub fn lookup_word(&self, id: FlitId) -> Option<u64> {
        self.seen_words.iter().find(|e| e.0 == id).map(|e| e.1)
    }

    /// Move descrambles whose partner has arrived into the delayed queue.
    pub fn resolve_scrambles(&mut self, cycle: u64) {
        let mut i = 0;
        while i < self.pending_scrambles.len() {
            let p = self.pending_scrambles[i];
            if self.lookup_word(p.partner).is_some() {
                self.pending_scrambles.swap_remove(i);
                self.delayed.push(DelayedEntry {
                    ready: cycle + p.penalty as u64,
                    vc: p.vc,
                    flit: p.flit,
                    order: p.order,
                });
            } else {
                i += 1;
            }
        }
    }

    /// Pop delayed entries that are ready for buffer write. An entry only
    /// releases when no *older* same-VC flit is still held (delayed or
    /// waiting on a scramble partner), so each VC's stream is written in
    /// wire-acceptance order even when undo penalties differ.
    pub fn take_ready_delayed(&mut self, cycle: u64) -> Vec<(VcId, Flit)> {
        let mut out = Vec::new();
        self.take_ready_delayed_into(cycle, &mut out);
        out
    }

    /// Allocation-free [`InputUnit::take_ready_delayed`]: released flits
    /// are appended to `out` (not cleared first).
    pub fn take_ready_delayed_into(&mut self, cycle: u64, out: &mut Vec<(VcId, Flit)>) {
        loop {
            let mut candidate: Option<usize> = None;
            for (i, d) in self.delayed.iter().enumerate() {
                if d.ready > cycle {
                    continue;
                }
                let blocked = self
                    .delayed
                    .iter()
                    .any(|e| e.vc == d.vc && e.order < d.order)
                    || self
                        .pending_scrambles
                        .iter()
                        .any(|p| p.vc == d.vc && p.order < d.order);
                if blocked {
                    continue;
                }
                let better = match candidate {
                    Some(c) => d.order < self.delayed[c].order,
                    None => true,
                };
                if better {
                    candidate = Some(i);
                }
            }
            match candidate {
                Some(i) => {
                    let d = self.delayed.remove(i);
                    out.push((d.vc, d.flit));
                }
                None => break,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_mitigation::DetectorConfig;
    use noc_types::{FlitKind, Header, NodeId};

    fn flit(seq: u8) -> Flit {
        let h = Header {
            src: NodeId(0),
            dest: NodeId(1),
            vc: VcId(0),
            mem_addr: 0,
            thread: 0,
            len: 4,
        };
        if seq == 0 {
            Flit::head(FlitId(seq as u64), PacketId(1), FlitKind::Head, h)
        } else {
            Flit::payload(FlitId(seq as u64), PacketId(1), FlitKind::Body, seq, h, 7)
        }
    }

    fn unit() -> InputUnit {
        InputUnit::new(4, ThreatDetector::new(DetectorConfig::default()))
    }

    #[test]
    fn occupancy_counts_all_vcs() {
        let mut u = unit();
        u.vcs[0].fifo.push_back(flit(0));
        u.vcs[2].fifo.push_back(flit(1));
        assert_eq!(u.occupancy(), 2);
    }

    #[test]
    fn free_slots_respects_commitments() {
        let mut u = unit();
        u.vcs[0].fifo.push_back(flit(0));
        u.delayed.push(DelayedEntry {
            ready: 5,
            vc: VcId(0),
            flit: flit(1),
            order: 0,
        });
        assert_eq!(u.free_slots(VcId(0), 4), 2);
        assert_eq!(u.free_slots(VcId(1), 4), 4);
    }

    #[test]
    fn seen_words_are_bounded() {
        let mut u = unit();
        for i in 0..(SEEN_WORDS_CAP as u64 + 10) {
            u.remember_word(FlitId(i), i);
        }
        assert!(u.lookup_word(FlitId(0)).is_none(), "oldest evicted");
        assert_eq!(
            u.lookup_word(FlitId(SEEN_WORDS_CAP as u64 + 9)),
            Some(SEEN_WORDS_CAP as u64 + 9)
        );
    }

    #[test]
    fn scramble_resolves_when_partner_arrives() {
        let mut u = unit();
        u.pending_scrambles.push(PendingScramble {
            flit: flit(1),
            vc: VcId(0),
            partner: FlitId(99),
            arrived: 10,
            penalty: 2,
            order: 0,
        });
        u.resolve_scrambles(11);
        assert_eq!(u.pending_scrambles.len(), 1, "partner unknown: still held");
        u.remember_word(FlitId(99), 0xABCD);
        u.resolve_scrambles(12);
        assert!(u.pending_scrambles.is_empty());
        assert_eq!(u.delayed.len(), 1);
        assert_eq!(u.delayed[0].ready, 14, "pays the 2-cycle penalty");
        // Not ready before the stall elapses.
        assert!(u.take_ready_delayed(13).is_empty());
        let ready = u.take_ready_delayed(14);
        assert_eq!(ready.len(), 1);
    }

    #[test]
    fn vc_release_resets_wormhole_state_only() {
        let mut vc = InputVc::new();
        vc.state = VcState::Active;
        vc.packet = Some(PacketId(3));
        vc.wire_packet = Some(PacketId(4));
        vc.expected_seq = 2;
        vc.release(50);
        assert_eq!(vc.state, VcState::Idle);
        assert_eq!(vc.packet, None);
        assert_eq!(vc.since, 50);
        // Wire-side acceptance state belongs to the link protocol and is
        // untouched: the next packet may already be arriving.
        assert_eq!(vc.wire_packet, Some(PacketId(4)));
        assert_eq!(vc.expected_seq, 2);
    }

    #[test]
    fn vc_release_rearms_on_queued_head() {
        let mut vc = InputVc::new();
        vc.state = VcState::Active;
        vc.packet = Some(PacketId(1));
        // A second packet's head is already queued behind the active one.
        let h = Header {
            src: NodeId(0),
            dest: NodeId(1),
            vc: VcId(0),
            mem_addr: 0,
            thread: 0,
            len: 1,
        };
        vc.fifo
            .push_back(Flit::head(FlitId(9), PacketId(2), FlitKind::Single, h));
        vc.release(50);
        assert_eq!(vc.state, VcState::Routing, "re-armed for the next head");
        assert_eq!(vc.packet, Some(PacketId(2)));
    }
}
