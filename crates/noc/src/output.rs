//! Router output units: retransmission buffers, output-VC bookkeeping,
//! credits toward the downstream input port, and the L-Ob controller.

use crate::arbiter::RoundRobin;
use crate::config::RetxScheme;
use crate::message::ObfWire;
use noc_mitigation::{LobModule, LobPlan, ObfuscationMethod};
use noc_types::{Flit, PacketId, VcId};

/// Send state of one retransmission slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotState {
    /// Must be (re)driven onto the link.
    NeedSend,
    /// On the wire / awaiting ACK.
    AwaitAck,
}

/// One occupied retransmission slot.
#[derive(Debug, Clone, Default)]
pub struct RetxEntry {
    /// The buffered flit.
    pub flit: Flit,
    /// Downstream input VC the flit is committed to.
    pub vc: VcId,
    /// Send state of the slot.
    pub state: SlotState,
    /// Times this flit has been driven onto the link.
    pub attempts: u32,
    /// NACK count (for blocked-port statistics).
    pub nacks: u32,
    /// Obfuscation to apply on the next send.
    pub obf: Option<ObfWire>,
    /// Cycle of the most recent launch.
    pub sent_at: u64,
    /// Cycle this entry entered the buffer (for blocked-port age).
    pub entered_at: u64,
}

/// One network output port.
#[derive(Debug)]
pub struct OutputUnit {
    /// Occupied slots in arrival (FIFO) order.
    pub entries: Vec<RetxEntry>,
    /// Slot budget: the shared pool size under `Output`, or the per-VC
    /// depth under `PerVc`.
    pub capacity: usize,
    /// Retransmission buffer organisation.
    pub scheme: RetxScheme,
    /// Which packet currently owns each downstream input VC.
    pub vc_owner: Vec<Option<PacketId>>,
    /// Credits (free downstream buffer slots) per VC.
    pub credits: Vec<u8>,
    /// L-Ob controller for this link.
    pub lob: LobModule,
    /// Round-robin over slots for fair resend selection.
    pub(crate) send_rr: RoundRobin,
    /// Cycle of the last delivery progress (ACK received). A port with
    /// waiting work and no progress is stalled by back-pressure or a
    /// retransmission livelock.
    pub last_progress: u64,
    /// Destinations whose flits keep drawing trojan faults on this link:
    /// once a method is logged, "similar flits" are obfuscated proactively
    /// on their first traversal (the paper's method log speeding up "the
    /// selection process for similar flits having the same problem").
    pub(crate) protected_dests: Vec<u16>,
    /// Flits driven onto the link (including retries).
    pub flits_sent: u64,
    /// Launches that were retries (attempt ≥ 2).
    pub retransmissions: u64,
    /// Credits drained through the `LeakCredit` sabotage hook (conformance
    /// self-tests only). Lives on the output unit — the link's home — so the
    /// count is identical at every shard/thread count.
    pub(crate) sab_credit_seen: u64,
}

impl OutputUnit {
    /// Construct an output unit for a link with the given VC geometry.
    pub fn new(vcs: u8, vc_depth: u8, capacity: usize, scheme: RetxScheme) -> Self {
        Self {
            entries: Vec::with_capacity(capacity),
            capacity,
            scheme,
            vc_owner: vec![None; vcs as usize],
            credits: vec![vc_depth; vcs as usize],
            lob: LobModule::new(),
            send_rr: RoundRobin::new(capacity.max(1)),
            last_progress: 0,
            protected_dests: Vec::new(),
            flits_sent: 0,
            retransmissions: 0,
            sab_credit_seen: 0,
        }
    }

    /// Whether this unit holds no state a future cycle could act on
    /// without a new arrival: no retransmission entries (pending sends
    /// or un-ACKed flits) and no downstream VC still owned by an
    /// in-flight wormhole. The fast-forward engine's defence-in-depth
    /// audit demands this of every unit once the activity bitmaps read
    /// clear — a VC ownership that outlived its packet's tail would
    /// otherwise be jumped over and silently block traffic after the
    /// skip.
    pub fn is_skip_transparent(&self) -> bool {
        self.entries.is_empty() && self.vc_owner.iter().all(Option::is_none)
    }

    /// Whether a new flit for `vc` can enter the retransmission stage.
    /// Under [`RetxScheme::PerVc`] each VC owns a full `capacity`-deep
    /// buffer (the paper's "retransmission buffers within each VC",
    /// Fig. 5), so a NACKed flit only ever backs up its own VC.
    pub fn has_slot(&self, vc: VcId) -> bool {
        match self.scheme {
            RetxScheme::Output => self.entries.len() < self.capacity,
            RetxScheme::PerVc => self.entries.iter().filter(|e| e.vc == vc).count() < self.capacity,
        }
    }

    /// Total slots this output can ever hold at once.
    pub fn total_capacity(&self) -> usize {
        match self.scheme {
            RetxScheme::Output => self.capacity,
            RetxScheme::PerVc => self.capacity * self.vc_owner.len(),
        }
    }

    /// Admit a flit from the crossbar (ST stage).
    pub fn push(&mut self, flit: Flit, vc: VcId, cycle: u64) {
        debug_assert!(self.has_slot(vc));
        self.entries.push(RetxEntry {
            flit,
            vc,
            state: SlotState::NeedSend,
            attempts: 0,
            nacks: 0,
            obf: None,
            sent_at: 0,
            entered_at: cycle,
        });
    }

    /// Pick the next entry to drive onto the link, if any. Round-robin over
    /// slots, honouring per-VC ordering. Returns the entry index.
    ///
    /// Candidates: `NeedSend` entries whose VC isn't blocked by an older
    /// troubled entry (a same-VC elder that was NACKed or still needs a
    /// send — go-back-N ordering: the downstream must never see a sequence
    /// gap twice), on an open TDM slot for their packet's class. The
    /// predicate is evaluated lazily inside the arbiter scan, so the
    /// per-launch eligibility vector is gone from the hot path.
    pub fn select_send(&mut self, tdm_open: impl Fn(u8) -> bool) -> Option<usize> {
        let n = self.entries.len();
        if n == 0 {
            return None;
        }
        // Rebuild the arbiter width lazily if capacity differs.
        if self.send_rr.len() != self.total_capacity().max(1) {
            self.send_rr = RoundRobin::new(self.total_capacity().max(1));
        }
        let entries = &self.entries;
        self.send_rr.grant(|i| {
            i < n && {
                let e = &entries[i];
                e.state == SlotState::NeedSend
                    && tdm_open(e.flit.header.vc.0)
                    && !entries[..i]
                        .iter()
                        .any(|o| o.vc == e.vc && (o.nacks > 0 || o.state == SlotState::NeedSend))
            }
        })
    }

    /// Mark entry `idx` as launched.
    pub fn mark_sent(&mut self, idx: usize, cycle: u64) {
        let e = &mut self.entries[idx];
        e.state = SlotState::AwaitAck;
        e.attempts += 1;
        e.sent_at = cycle;
        self.flits_sent += 1;
        if e.attempts > 1 {
            self.retransmissions += 1;
        }
    }

    /// Handle an ACK for `flit`: drop the slot, log obfuscation success,
    /// and free the output VC if the tail just delivered. Returns the
    /// delivered entry.
    pub fn ack(
        &mut self,
        flit_id: noc_types::FlitId,
        obf_success: Option<LobPlan>,
        cycle: u64,
    ) -> Option<RetxEntry> {
        let idx = self.entries.iter().position(|e| e.flit.id == flit_id)?;
        self.last_progress = cycle;
        let entry = self.entries.remove(idx);
        if let Some(plan) = obf_success {
            self.lob.log_success(plan);
        }
        if entry.flit.kind.closes_packet() {
            if let Some(owner) = self.vc_owner.get_mut(entry.vc.index()) {
                if *owner == Some(entry.flit.packet) {
                    *owner = None;
                }
            }
        }
        Some(entry)
    }

    /// Handle a NACK: requeue for (re)send, attaching the obfuscation plan
    /// the downstream detector requested (when mitigation is on).
    pub fn nack(&mut self, flit_id: noc_types::FlitId, lob_attempt: Option<u32>) {
        let Some(idx) = self.entries.iter().position(|e| e.flit.id == flit_id) else {
            return;
        };
        // Capture the plan before taking a mutable borrow of the entry.
        let planned = lob_attempt.map(|n| (self.lob.plan_for_attempt(n as usize), n));
        let e = &mut self.entries[idx];
        e.state = SlotState::NeedSend;
        e.nacks += 1;
        let dest = e.flit.header.dest.0;
        if let Some((plan, attempt)) = planned {
            e.obf = Some(ObfWire {
                plan,
                attempt,
                partner: None,
            });
            self.lob.log_attempt();
            if !self.protected_dests.contains(&dest) {
                self.protected_dests.push(dest);
            }
        }
    }

    /// Force obfuscation onto entry `idx` after its retry budget ran out
    /// without the downstream detector ever requesting L-Ob (escalation
    /// step of the bounded-retransmission ladder). Uses the link's logged
    /// plan when one exists, else starts the ladder from the bottom.
    /// Returns the attempt count at escalation, or `None` when the entry
    /// is already obfuscated (nothing to escalate to).
    pub fn force_obfuscate(&mut self, idx: usize) -> Option<u32> {
        if self.entries[idx].obf.is_some() {
            return None;
        }
        let plan = self
            .lob
            .logged_plan()
            .unwrap_or_else(|| self.lob.plan_for_attempt(0));
        let attempts = self.entries[idx].attempts;
        self.entries[idx].obf = Some(ObfWire {
            plan,
            attempt: 0,
            partner: None,
        });
        self.lob.log_attempt();
        Some(attempts)
    }

    /// Proactively obfuscate a flit heading to a destination this link has
    /// learned is trojan bait, once a working method is logged. First-time
    /// flits then cross safely for only the undo penalty instead of paying
    /// two NACK rounds each.
    pub fn maybe_protect(&mut self, idx: usize) {
        if self.entries[idx].obf.is_some() {
            return;
        }
        let Some(plan) = self.lob.logged_plan() else {
            return;
        };
        if self
            .protected_dests
            .contains(&self.entries[idx].flit.header.dest.0)
        {
            self.entries[idx].obf = Some(ObfWire {
                plan,
                attempt: 0,
                partner: None,
            });
        }
    }

    /// For a `Scramble` plan on entry `idx`, find a partner entry (a
    /// different flit in this buffer that also needs sending and belongs to
    /// a different VC, so the receiver's per-VC ordering is unaffected).
    pub fn find_scramble_partner(&self, idx: usize) -> Option<usize> {
        let vc = self.entries[idx].vc;
        (0..self.entries.len()).find(|&j| {
            j != idx && self.entries[j].vc != vc && self.entries[j].state == SlotState::NeedSend
        })
    }

    /// Resolve the wire plan for entry `idx` right before launch: a
    /// `Scramble` plan without an available partner falls back to full-word
    /// inversion so the send never stalls indefinitely.
    pub fn resolve_obf_for_send(&mut self, idx: usize) -> Option<ObfWire> {
        let obf = self.entries[idx].obf?;
        if obf.plan.method != ObfuscationMethod::Scramble {
            return Some(obf);
        }
        if let Some(j) = self.find_scramble_partner(idx) {
            let partner = self.entries[j].flit.id;
            let key = self.entries[j].flit.word;
            let wired = ObfWire {
                partner: Some(partner),
                ..obf
            };
            self.entries[idx].obf = Some(wired);
            // Stash the key in the entry's plan application; caller reads
            // the partner's word via `entries[j]`.
            let _ = key;
            Some(wired)
        } else {
            let fallback = ObfWire {
                plan: LobPlan {
                    method: ObfuscationMethod::Invert,
                    granularity: noc_mitigation::Granularity::Full,
                },
                attempt: obf.attempt,
                partner: None,
            };
            self.entries[idx].obf = Some(fallback);
            Some(fallback)
        }
    }

    /// Settle a batch of same-cycle credit returns in one pass:
    /// `counts[v]` credits arrived for VC `v`. Exactly the per-message
    /// `credits[vc] += 1` loop — addition commutes, so the arrival order
    /// the message path preserves is unobservable here. Callers keep the
    /// per-message path whenever a sabotage hook is configured (the
    /// `LeakCredit` counter is order-sensitive).
    pub(crate) fn settle_credits(&mut self, counts: &[u32], vc_depth: u8) {
        for (c, &n) in self.credits.iter_mut().zip(counts) {
            if n != 0 {
                *c += n as u8;
                debug_assert!(*c <= vc_depth);
            }
        }
    }

    /// Occupied retransmission slots (output-port utilisation statistic).
    pub fn occupancy(&self) -> usize {
        self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_types::{FlitId, FlitKind, Header, NodeId};

    fn flit(id: u64, vc: u8, kind: FlitKind, seq: u8) -> (Flit, VcId) {
        let h = Header {
            src: NodeId(0),
            dest: NodeId(3),
            vc: VcId(vc),
            mem_addr: 0,
            thread: 0,
            len: 4,
        };
        let f = if kind.carries_header() {
            Flit::head(FlitId(id), PacketId(id >> 4), kind, h)
        } else {
            Flit::payload(FlitId(id), PacketId(id >> 4), kind, seq, h, id)
        };
        (f, VcId(vc))
    }

    fn unit() -> OutputUnit {
        OutputUnit::new(4, 4, 4, RetxScheme::Output)
    }

    #[test]
    fn push_send_ack_lifecycle() {
        let mut u = unit();
        let (f, vc) = flit(16, 0, FlitKind::Head, 0);
        u.push(f, vc, 10);
        let idx = u.select_send(|_| true).expect("sendable");
        u.mark_sent(idx, 11);
        assert_eq!(u.entries[idx].state, SlotState::AwaitAck);
        assert!(u.ack(FlitId(16), None, 2).is_some());
        assert!(u.entries.is_empty());
        assert_eq!(u.flits_sent, 1);
        assert_eq!(u.retransmissions, 0);
    }

    #[test]
    fn nack_requeues_and_counts_retransmission() {
        let mut u = unit();
        let (f, vc) = flit(16, 0, FlitKind::Head, 0);
        u.push(f, vc, 0);
        let idx = u.select_send(|_| true).unwrap();
        u.mark_sent(idx, 1);
        u.nack(FlitId(16), None);
        assert_eq!(u.entries[0].state, SlotState::NeedSend);
        assert_eq!(u.entries[0].nacks, 1);
        let idx = u.select_send(|_| true).unwrap();
        u.mark_sent(idx, 4);
        assert_eq!(u.retransmissions, 1);
    }

    #[test]
    fn nack_with_lob_attaches_ladder_plan() {
        let mut u = unit();
        let (f, vc) = flit(16, 0, FlitKind::Head, 0);
        u.push(f, vc, 0);
        let idx = u.select_send(|_| true).unwrap();
        u.mark_sent(idx, 1);
        u.nack(FlitId(16), Some(0));
        let obf = u.entries[0].obf.expect("plan attached");
        assert_eq!(obf.plan, LobPlan::LADDER[0]);
        assert_eq!(obf.attempt, 0);
    }

    #[test]
    fn younger_same_vc_flit_blocked_behind_nacked_elder() {
        let mut u = unit();
        let (f1, vc) = flit(16, 0, FlitKind::Head, 0);
        let (f2, _) = flit(17, 0, FlitKind::Body, 1);
        u.push(f1, vc, 0);
        u.push(f2, vc, 0);
        let idx = u.select_send(|_| true).unwrap();
        assert_eq!(u.entries[idx].flit.id, FlitId(16));
        u.mark_sent(idx, 1);
        u.nack(FlitId(16), None);
        // Only the NACKed elder may send; the younger same-VC body waits.
        let idx = u.select_send(|_| true).unwrap();
        assert_eq!(u.entries[idx].flit.id, FlitId(16));
        u.mark_sent(idx, 2);
        assert!(
            u.select_send(|_| true).is_none(),
            "younger same-VC flit must wait for the elder's ACK"
        );
        u.ack(FlitId(16), None, 3);
        let idx = u.select_send(|_| true).unwrap();
        assert_eq!(u.entries[idx].flit.id, FlitId(17));
    }

    #[test]
    fn different_vc_traffic_flows_around_a_nacked_flit() {
        let mut u = unit();
        let (f1, vc1) = flit(16, 0, FlitKind::Head, 0);
        let (f2, vc2) = flit(32, 1, FlitKind::Head, 0);
        u.push(f1, vc1, 0);
        u.push(f2, vc2, 0);
        let i = u.select_send(|_| true).unwrap();
        u.mark_sent(i, 1);
        u.nack(u.entries[i.min(u.entries.len() - 1)].flit.id, None);
        // Whichever got NACKed, the other VC can still send.
        let sendable: Vec<_> = (0..4)
            .filter_map(|_| {
                let idx = u.select_send(|_| true)?;
                u.mark_sent(idx, 2);
                Some(u.entries[idx].flit.id)
            })
            .collect();
        assert!(!sendable.is_empty());
    }

    #[test]
    fn per_vc_scheme_partitions_capacity() {
        let mut u = OutputUnit::new(4, 4, 2, RetxScheme::PerVc);
        // Each VC owns its own 2-deep buffer (total capacity 8).
        assert_eq!(u.total_capacity(), 8);
        for i in 0..2 {
            let (f, vc) = flit(16 + i, 0, FlitKind::Single, 0);
            u.push(f, vc, 0);
        }
        // VC 0 is now full; VC 1 is untouched.
        assert!(!u.has_slot(VcId(0)));
        assert!(u.has_slot(VcId(1)));
        // The shared scheme would have admitted more into VC 0.
        let shared = OutputUnit::new(4, 4, 4, RetxScheme::Output);
        assert_eq!(shared.total_capacity(), 4);
    }

    #[test]
    fn tail_ack_frees_output_vc() {
        let mut u = unit();
        u.vc_owner[0] = Some(PacketId(1));
        let (f, vc) = flit(16, 0, FlitKind::Tail, 3);
        u.push(f, vc, 0);
        let i = u.select_send(|_| true).unwrap();
        u.mark_sent(i, 1);
        u.ack(FlitId(16), None, 3);
        assert_eq!(u.vc_owner[0], None);
    }

    #[test]
    fn scramble_finds_cross_vc_partner_or_falls_back() {
        let mut u = unit();
        let (f1, vc1) = flit(16, 0, FlitKind::Head, 0);
        u.push(f1, vc1, 0);
        u.entries[0].obf = Some(ObfWire {
            plan: LobPlan {
                method: ObfuscationMethod::Scramble,
                granularity: noc_mitigation::Granularity::Full,
            },
            attempt: 0,
            partner: None,
        });
        // Alone: falls back to invert.
        let resolved = u.resolve_obf_for_send(0).unwrap();
        assert_eq!(resolved.plan.method, ObfuscationMethod::Invert);
        // With a cross-VC companion: scramble pairs with it.
        u.entries[0].obf = Some(ObfWire {
            plan: LobPlan {
                method: ObfuscationMethod::Scramble,
                granularity: noc_mitigation::Granularity::Full,
            },
            attempt: 0,
            partner: None,
        });
        let (f2, vc2) = flit(32, 1, FlitKind::Head, 0);
        u.push(f2, vc2, 0);
        let resolved = u.resolve_obf_for_send(0).unwrap();
        assert_eq!(resolved.plan.method, ObfuscationMethod::Scramble);
        assert_eq!(resolved.partner, Some(FlitId(32)));
    }

    #[test]
    fn force_obfuscate_escalates_unobfuscated_entries_once() {
        let mut u = unit();
        let (f, vc) = flit(16, 0, FlitKind::Head, 0);
        u.push(f, vc, 0);
        let idx = u.select_send(|_| true).unwrap();
        u.mark_sent(idx, 1);
        u.nack(FlitId(16), None); // plain NACK: the detector offered no plan
        assert!(u.entries[0].obf.is_none());
        assert_eq!(
            u.force_obfuscate(0),
            Some(1),
            "reports attempts at escalation"
        );
        assert!(u.entries[0].obf.is_some());
        assert_eq!(
            u.force_obfuscate(0),
            None,
            "already obfuscated: no rung left"
        );
    }

    #[test]
    fn tdm_gating_blocks_closed_domains() {
        let mut u = unit();
        let (f, vc) = flit(16, 1, FlitKind::Head, 0);
        u.push(f, vc, 0);
        assert!(u.select_send(|vc| vc == 0).is_none(), "domain closed");
        assert!(u.select_send(|vc| vc == 1).is_some());
    }
}
