//! The physical link datapath: one flit slot of forward wire per link,
//! plus reverse control wires carrying ACK/NACKs and credit returns (each
//! with one cycle of latency).
//!
//! # Structure-of-arrays layout
//!
//! All links live in one [`LinkLanes`] pool, field-by-field in dense
//! parallel arrays rather than an array of per-link structs:
//!
//! ```text
//!   index:          0        1        2       ...      L-1
//!   arrive_at    [ u64   | u64    | u64    | ... ]  (u64::MAX = idle)
//!   flits        [ Option<LinkFlit> ............. ]  payload of the wire
//!   acks         [ VecDeque<(u64, AckMsg)> ...... ]  reverse channel
//!   credits      [ VecDeque<(u64, VcId)> ........ ]  reverse channel
//!   faults       [ LinkFaults .................... ]  transients/stuck/trojan
//!   flits_carried[ u64 .......................... ]  lifetime counter
//! ```
//!
//! The hot per-cycle predicates (`idle`, "anything arriving?") touch only
//! the 8-byte `arrive_at` lane, and the SECDED ingress kernel in
//! `par.rs` batches decodes across all arriving links by first draining
//! the wire words into a dense scratch vector, then decoding them in a
//! tight loop, then dispatching the (much colder) per-router arrival
//! handling. Per-link fault state — including the per-link RNG stream and
//! the trojan FSM — stays link-local inside its `faults` slot, so the
//! batched order is observation-identical to the old per-struct walk.
//!
//! Invariant: `arrive_at[i] == u64::MAX` ⇔ `flits[i].is_none()`.

use crate::fault::LinkFaults;
use crate::message::{AckMsg, LinkFlit};
use noc_types::VcId;
use std::collections::VecDeque;
use std::marker::PhantomData;

/// Link traversal latency in cycles (the LT pipeline stage).
pub const LT_CYCLES: u64 = 1;
/// Reverse-channel latency for ACKs and credits.
pub const REVERSE_CYCLES: u64 = 1;

/// Sentinel for "no flit on the wire".
const IDLE: u64 = u64::MAX;

/// All unidirectional router-to-router links, structure-of-arrays.
#[derive(Debug)]
pub struct LinkLanes {
    /// Cycle at which the in-flight flit is delivered ([`IDLE`] if none).
    pub(crate) arrive_at: Vec<u64>,
    /// The flit crossing each wire.
    pub(crate) flits: Vec<Option<LinkFlit>>,
    /// ACK/NACK messages heading upstream: `(deliver_cycle, msg)`.
    pub(crate) acks: Vec<VecDeque<(u64, AckMsg)>>,
    /// Credit returns heading upstream: `(deliver_cycle, vc)`.
    pub(crate) credits: Vec<VecDeque<(u64, VcId)>>,
    /// The fault layer (transients, stuck wires, trojan, per-link RNG).
    pub(crate) faults: Vec<LinkFaults>,
    /// Lifetime flit count (Fig. 1(c) per-link traffic share).
    pub(crate) flits_carried: Vec<u64>,
}

impl LinkLanes {
    /// A pool of `faults.len()` fresh idle links.
    pub fn new(faults: Vec<LinkFaults>) -> Self {
        let n = faults.len();
        Self {
            arrive_at: vec![IDLE; n],
            flits: vec![None; n],
            acks: (0..n).map(|_| VecDeque::new()).collect(),
            credits: (0..n).map(|_| VecDeque::new()).collect(),
            faults,
            flits_carried: vec![0; n],
        }
    }

    /// Number of links in the pool.
    pub fn len(&self) -> usize {
        self.arrive_at.len()
    }

    /// Whether the pool is empty (degenerate 1×1 mesh).
    pub fn is_empty(&self) -> bool {
        self.arrive_at.is_empty()
    }

    /// Whether a new flit can launch on link `i` this cycle.
    #[inline]
    pub fn idle(&self, i: usize) -> bool {
        self.arrive_at[i] == IDLE
    }

    /// Fraction of `elapsed` cycles wire `i` spent occupied: each carried
    /// flit holds it for [`LT_CYCLES`].
    pub fn utilization(&self, i: usize, elapsed: u64) -> f64 {
        if elapsed == 0 {
            0.0
        } else {
            (self.flits_carried[i] * LT_CYCLES) as f64 / elapsed as f64
        }
    }

    /// Lifetime flit count for link `i`.
    pub fn flits_carried(&self, i: usize) -> u64 {
        self.flits_carried[i]
    }

    /// The flit currently crossing link `i`, if any (quarantine victim
    /// scan, invariant audits).
    #[inline]
    pub fn in_flight(&self, i: usize) -> Option<&LinkFlit> {
        self.flits[i].as_ref()
    }

    /// Drop the in-flight flit on link `i` when `victim` says so (link
    /// quarantine: the copy's retransmission entry is purged with it, so
    /// delivery would resurrect a packet the network already wrote off).
    pub fn purge_in_flight(&mut self, i: usize, victim: impl Fn(&LinkFlit) -> bool) {
        if self.flits[i].as_ref().is_some_and(&victim) {
            self.flits[i] = None;
            self.arrive_at[i] = IDLE;
        }
    }

    /// Launch a flit on link `i`; it arrives after [`LT_CYCLES`].
    pub fn launch(&mut self, i: usize, now: u64, lf: LinkFlit) {
        debug_assert!(self.idle(i), "link is a single-flit pipeline");
        self.arrive_at[i] = now + LT_CYCLES;
        self.flits[i] = Some(lf);
        self.flits_carried[i] += 1;
    }

    /// Take the flit arriving on link `i` this cycle, applying the fault
    /// layer.
    pub fn deliver(&mut self, i: usize, now: u64) -> Option<LinkFlit> {
        if self.arrive_at[i] > now {
            return None;
        }
        self.arrive_at[i] = IDLE;
        let lf = self.flits[i].take().expect("arrive_at/flits invariant");
        let tampered = self.faults[i].traverse(
            now,
            lf.wire_word,
            lf.flit.kind.carries_header(),
            lf.codeword,
        );
        Some(LinkFlit {
            codeword: tampered,
            ..lf
        })
    }

    /// Queue an ACK/NACK for the upstream router of link `i`.
    pub fn send_ack(&mut self, i: usize, now: u64, msg: AckMsg) {
        self.acks[i].push_back((now + REVERSE_CYCLES, msg));
    }

    /// Queue a credit return for the upstream router of link `i`.
    pub fn send_credit(&mut self, i: usize, now: u64, vc: VcId) {
        self.credits[i].push_back((now + REVERSE_CYCLES, vc));
    }

    /// Whether the reverse control wires of link `i` carry nothing at all
    /// — lets the per-cycle ACK/credit phase skip idle links without
    /// draining them.
    #[inline]
    pub fn reverse_idle(&self, i: usize) -> bool {
        self.acks[i].is_empty() && self.credits[i].is_empty()
    }

    /// Credit returns currently riding the reverse wire of link `i` for
    /// `vc` (in-flight credits belong to the flow-control books audited
    /// by [`crate::Simulator::check_network_invariants`]).
    pub fn reverse_credits_for(&self, i: usize, vc: VcId) -> usize {
        self.credits[i].iter().filter(|(_, v)| *v == vc).count()
    }

    /// Whether a successful-delivery ACK for `flit` is riding the reverse
    /// wire of link `i`. Quarantine settlement consults this: a success
    /// ACK means the downstream router accepted the flit, so the
    /// retransmission entry's buffer-slot credit is already travelling
    /// back (or has arrived) as an ordinary credit return and must not be
    /// restored again.
    pub fn reverse_ack_success_for(&self, i: usize, flit: noc_types::FlitId) -> bool {
        self.acks[i]
            .iter()
            .any(|(_, m)| m.flit == flit && matches!(m.kind, crate::message::AckKind::Ack { .. }))
    }

    /// Drain ACKs that have arrived upstream of link `i`.
    /// (Test-friendly wrapper over [`LinkLanes::take_acks_into`].)
    pub fn take_acks(&mut self, i: usize, now: u64) -> Vec<AckMsg> {
        let mut out = Vec::new();
        self.take_acks_into(i, now, &mut out);
        out
    }

    /// Append ACKs that have arrived upstream of link `i` to `out` (not
    /// cleared first).
    pub fn take_acks_into(&mut self, i: usize, now: u64, out: &mut Vec<AckMsg>) {
        while let Some((at, _)) = self.acks[i].front() {
            if *at <= now {
                out.push(self.acks[i].pop_front().unwrap().1);
            } else {
                break;
            }
        }
    }

    /// Drain credits that have arrived upstream of link `i`.
    /// (Test-friendly wrapper over [`LinkLanes::take_credits_into`].)
    pub fn take_credits(&mut self, i: usize, now: u64) -> Vec<VcId> {
        let mut out = Vec::new();
        self.take_credits_into(i, now, &mut out);
        out
    }

    /// Append credits that have arrived upstream of link `i` to `out`
    /// (not cleared first).
    pub fn take_credits_into(&mut self, i: usize, now: u64, out: &mut Vec<VcId>) {
        while let Some((at, _)) = self.credits[i].front() {
            if *at <= now {
                out.push(self.credits[i].pop_front().unwrap().1);
            } else {
                break;
            }
        }
    }

    /// Drain arrived credits of link `i` into per-VC counts: `counts[v]`
    /// gains one per credit for VC `v`. Same drain condition as
    /// [`LinkLanes::take_credits_into`]; only the representation differs
    /// (a histogram instead of an ordered list), which is lossless for
    /// the batched settlement path because credit addition commutes.
    pub fn take_credit_counts_into(&mut self, i: usize, now: u64, counts: &mut [u32]) {
        while let Some((at, vc)) = self.credits[i].front() {
            if *at <= now {
                counts[vc.index()] += 1;
                self.credits[i].pop_front();
            } else {
                break;
            }
        }
    }

    /// Fault layer of link `i`.
    pub fn faults(&self, i: usize) -> &LinkFaults {
        &self.faults[i]
    }

    /// Mutable fault layer of link `i` (trojan mounting, BIST repair).
    pub fn faults_mut(&mut self, i: usize) -> &mut LinkFaults {
        &mut self.faults[i]
    }

    /// A raw-pointer view for the sharded engine (see [`LanesView`]).
    pub(crate) fn view(&mut self) -> LanesView<'_> {
        LanesView {
            arrive_at: self.arrive_at.as_mut_ptr(),
            flits: self.flits.as_mut_ptr(),
            acks: self.acks.as_mut_ptr(),
            credits: self.credits.as_mut_ptr(),
            faults: self.faults.as_mut_ptr(),
            flits_carried: self.flits_carried.as_mut_ptr(),
            len: self.arrive_at.len(),
            _marker: PhantomData,
        }
    }
}

/// Shared view over [`LinkLanes`] handing out `&mut` access to individual
/// link slots, mirroring `par::DisjointMut` at element granularity.
///
/// # Safety contract
///
/// Each method materialises `&mut` references only to the lane elements of
/// the requested index, never to a whole array or the pool. Soundness
/// therefore rests on the same partition argument as `DisjointMut`: within
/// a barrier group, every link index is touched by exactly one shard (the
/// owner of its `links_dst` or `links_src` slot for that group), so no two
/// threads ever form references to the same element concurrently.
pub(crate) struct LanesView<'a> {
    arrive_at: *mut u64,
    flits: *mut Option<LinkFlit>,
    acks: *mut VecDeque<(u64, AckMsg)>,
    credits: *mut VecDeque<(u64, VcId)>,
    faults: *mut LinkFaults,
    flits_carried: *mut u64,
    len: usize,
    _marker: PhantomData<&'a mut LinkLanes>,
}

// Safety: access is partitioned per the struct-level contract.
unsafe impl Send for LanesView<'_> {}
unsafe impl Sync for LanesView<'_> {}

impl LanesView<'_> {
    #[inline]
    fn check(&self, i: usize) {
        debug_assert!(i < self.len, "link index out of partition bounds");
    }

    /// Whether a new flit can launch on link `i` this cycle.
    #[inline]
    pub(crate) fn idle(&self, i: usize) -> bool {
        self.check(i);
        unsafe { *self.arrive_at.add(i) == IDLE }
    }

    /// Launch a flit on link `i`; it arrives after [`LT_CYCLES`].
    pub(crate) fn launch(&self, i: usize, now: u64, lf: LinkFlit) {
        self.check(i);
        debug_assert!(self.idle(i), "link is a single-flit pipeline");
        unsafe {
            *self.arrive_at.add(i) = now + LT_CYCLES;
            *self.flits.add(i) = Some(lf);
            *self.flits_carried.add(i) += 1;
        }
    }

    /// Take the flit arriving on link `i` this cycle *without* the fault
    /// traversal — the batched SECDED ingress runs faults and decode in
    /// its own dense passes (see `par::phase_link_delivery`).
    pub(crate) fn take_arrival(&self, i: usize, now: u64) -> Option<LinkFlit> {
        self.check(i);
        unsafe {
            let at = &mut *self.arrive_at.add(i);
            if *at > now {
                return None;
            }
            *at = IDLE;
            Some(
                (*self.flits.add(i))
                    .take()
                    .expect("arrive_at/flits invariant"),
            )
        }
    }

    /// Apply link `i`'s fault layer to a flit taken via
    /// [`LanesView::take_arrival`]. Kept separate so the caller can run
    /// all fault traversals back-to-back over the dense arrival batch.
    pub(crate) fn traverse(&self, i: usize, now: u64, lf: LinkFlit) -> LinkFlit {
        self.check(i);
        let faults = unsafe { &mut *self.faults.add(i) };
        let tampered = faults.traverse(
            now,
            lf.wire_word,
            lf.flit.kind.carries_header(),
            lf.codeword,
        );
        LinkFlit {
            codeword: tampered,
            ..lf
        }
    }

    /// Queue an ACK/NACK for the upstream router of link `i`.
    pub(crate) fn send_ack(&self, i: usize, now: u64, msg: AckMsg) {
        self.check(i);
        unsafe { (*self.acks.add(i)).push_back((now + REVERSE_CYCLES, msg)) }
    }

    /// Queue a credit return for the upstream router of link `i`.
    pub(crate) fn send_credit(&self, i: usize, now: u64, vc: VcId) {
        self.check(i);
        unsafe { (*self.credits.add(i)).push_back((now + REVERSE_CYCLES, vc)) }
    }

    /// Whether the reverse control wires of link `i` are empty.
    #[inline]
    pub(crate) fn reverse_idle(&self, i: usize) -> bool {
        self.check(i);
        unsafe { (*self.acks.add(i)).is_empty() && (*self.credits.add(i)).is_empty() }
    }

    /// Append ACKs that have arrived upstream of link `i` to `out`.
    pub(crate) fn take_acks_into(&self, i: usize, now: u64, out: &mut Vec<AckMsg>) {
        self.check(i);
        let acks = unsafe { &mut *self.acks.add(i) };
        while let Some((at, _)) = acks.front() {
            if *at <= now {
                out.push(acks.pop_front().unwrap().1);
            } else {
                break;
            }
        }
    }

    /// Append credits that have arrived upstream of link `i` to `out`.
    pub(crate) fn take_credits_into(&self, i: usize, now: u64, out: &mut Vec<VcId>) {
        self.check(i);
        let credits = unsafe { &mut *self.credits.add(i) };
        while let Some((at, _)) = credits.front() {
            if *at <= now {
                out.push(credits.pop_front().unwrap().1);
            } else {
                break;
            }
        }
    }

    /// Drain arrived credits of link `i` into per-VC counts (sharded
    /// counterpart of [`LinkLanes::take_credit_counts_into`]).
    pub(crate) fn take_credit_counts_into(&self, i: usize, now: u64, counts: &mut [u32]) {
        self.check(i);
        let credits = unsafe { &mut *self.credits.add(i) };
        while let Some((at, vc)) = credits.front() {
            if *at <= now {
                counts[vc.index()] += 1;
                credits.pop_front();
            } else {
                break;
            }
        }
    }

    /// Mutable fault layer of link `i` (BIST scan on detector verdicts).
    // The `&self -> &mut` shape is the point of the view: aliasing is
    // excluded by the per-group index partition documented on the struct,
    // not by the borrow checker (same contract as `DisjointMut::get`).
    #[allow(clippy::mut_from_ref)]
    pub(crate) fn faults_mut(&self, i: usize) -> &mut LinkFaults {
        self.check(i);
        unsafe { &mut *self.faults.add(i) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::AckKind;
    use noc_ecc::Secded;
    use noc_types::{Flit, FlitId, FlitKind, Header, NodeId, PacketId};

    fn lf() -> LinkFlit {
        let h = Header {
            src: NodeId(0),
            dest: NodeId(1),
            vc: VcId(0),
            mem_addr: 0,
            thread: 0,
            len: 1,
        };
        let flit = Flit::head(FlitId(1), PacketId(1), FlitKind::Single, h);
        LinkFlit {
            flit,
            codeword: Secded::encode(flit.word),
            wire_word: flit.word,
            vc: VcId(0),
            obf: None,
        }
    }

    fn one_link(faults: LinkFaults) -> LinkLanes {
        LinkLanes::new(vec![faults])
    }

    #[test]
    fn flit_takes_one_cycle_to_cross() {
        let mut lanes = one_link(LinkFaults::healthy(0));
        lanes.launch(0, 10, lf());
        assert!(!lanes.idle(0));
        assert!(lanes.deliver(0, 10).is_none(), "not there yet");
        let got = lanes.deliver(0, 11).expect("arrives after LT");
        assert_eq!(got.flit.id, FlitId(1));
        assert!(lanes.idle(0));
        assert_eq!(lanes.flits_carried(0), 1);
    }

    #[test]
    fn acks_and_credits_take_a_cycle_back() {
        let mut lanes = one_link(LinkFaults::healthy(0));
        lanes.send_ack(
            0,
            5,
            AckMsg {
                flit: FlitId(1),
                kind: AckKind::Ack { obf_success: None },
            },
        );
        lanes.send_credit(0, 5, VcId(2));
        assert!(lanes.take_acks(0, 5).is_empty());
        assert!(lanes.take_credits(0, 5).is_empty());
        assert_eq!(lanes.take_acks(0, 6).len(), 1);
        assert_eq!(lanes.take_credits(0, 6), vec![VcId(2)]);
        // Drained exactly once.
        assert!(lanes.take_acks(0, 7).is_empty());
    }

    #[test]
    fn delivery_applies_fault_layer() {
        use crate::fault::StuckWires;
        let mut faults = LinkFaults::healthy(0);
        faults.stuck = StuckWires {
            stuck_one: 1 << 3,
            stuck_zero: 0,
        };
        let mut lanes = one_link(faults);
        let flit = lf();
        let clean_cw = flit.codeword;
        lanes.launch(0, 0, flit);
        let got = lanes.deliver(0, 1).unwrap();
        assert_eq!(got.codeword.0 | (1 << 3), got.codeword.0);
        // Either the bit was already 1 (no-op) or it differs now.
        let _ = clean_cw;
    }

    #[test]
    fn view_take_arrival_then_traverse_matches_deliver() {
        use crate::fault::StuckWires;
        let mk = || {
            let mut faults = LinkFaults::healthy(7);
            faults.stuck = StuckWires {
                stuck_one: 1 << 5,
                stuck_zero: 0,
            };
            faults
        };
        let mut a = one_link(mk());
        let mut b = one_link(mk());
        a.launch(0, 0, lf());
        b.launch(0, 0, lf());
        let whole = a.deliver(0, 1).unwrap();
        let view = b.view();
        let taken = view.take_arrival(0, 1).expect("due");
        let split = view.traverse(0, 1, taken);
        assert_eq!(whole.codeword, split.codeword);
        assert_eq!(whole.flit.id, split.flit.id);
        assert!(b.idle(0));
    }
}
