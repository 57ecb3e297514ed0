//! The router micro-architecture: input units, output units, and the
//! VA / SA / ST pipeline stages with round-robin allocators.
//!
//! The simulator calls the stage methods in reverse pipeline order each
//! cycle (see the crate docs); every state transition is stamped with the
//! cycle it happened so a flit spends exactly one cycle per stage.

use crate::arbiter::RoundRobin;
use crate::config::{QosMode, SimConfig};
use crate::input::{InputUnit, VcState};
use crate::output::OutputUnit;
use crate::routing::Routing;
use noc_mitigation::ThreatDetector;
use noc_types::{Direction, Flit, FlitId, Mesh, NodeId, PacketId, Port, VcId};
use std::collections::HashSet;

/// A crossbar traversal in progress: granted at SA in cycle `granted_at`,
/// committed to the output stage at ST in the next cycle.
#[derive(Debug, Clone, Copy, Default)]
pub struct StMove {
    /// The flit crossing the crossbar.
    pub flit: Flit,
    /// Output port the flit was granted.
    pub out_port: Port,
    /// Downstream input VC (None for local ejection).
    pub out_vc: Option<VcId>,
    /// Cycle of the SA grant.
    pub granted_at: u64,
}

/// A flit ejected to a local core this cycle.
#[derive(Debug, Clone, Copy)]
pub struct Ejection {
    /// The ejected flit.
    pub flit: Flit,
    /// Local port (core) the flit exits through.
    pub local_port: u8,
}

/// Credit to return to the upstream router feeding network input `dir`.
#[derive(Debug, Clone, Copy)]
pub struct CreditReturn {
    /// Input direction whose upstream gets the credit.
    pub in_dir: Direction,
    /// The VC whose buffer slot freed.
    pub vc: VcId,
}

/// Where the flow-control credit held by a purged flit copy lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CreditSite {
    /// This router's own output: the credit was consumed at SA (crossbar
    /// moves in `st_pending` and retransmission entries).
    SelfOutput(Direction, VcId),
    /// The upstream router feeding network input `in_dir`: the copy still
    /// occupied (or was committed to) a downstream buffer slot whose
    /// credit had not yet been returned.
    Upstream(Direction, VcId),
}

/// One flit copy removed by [`Router::purge_packets`].
///
/// A flit can transiently have two live copies (a retransmission entry
/// upstream plus the delivered copy downstream while the ACK is on the
/// reverse wire), but at most one flow-control credit: the simulator
/// deduplicates restorations by flit id, preferring non-`from_retx`
/// records — a retransmission entry's reservation is already released
/// (credit in flight back) once its downstream copy advanced past SA.
#[derive(Debug, Clone, Copy)]
pub struct PurgedCopy {
    /// The purged flit.
    pub flit: FlitId,
    /// Credit to restore, when this copy held one.
    pub site: Option<CreditSite>,
    /// Whether the copy was a retransmission entry (see above).
    pub from_retx: bool,
}

/// SoA membership lanes over a router's input VCs: one bit per
/// `input_port * vcs + vc` requester, mirroring the per-VC struct state
/// so the allocation stages (RC/VA/SA) build their request masks with a
/// handful of AND/ANDNOT ops instead of walking every `InputVc`.
///
/// The lanes are *derived* state — `InputVc` stays authoritative, the
/// snapshot codec never sees them, and [`VcLanes::rebuild`] reconstructs
/// them exactly from the structs (restore, purge). Every lane is exact,
/// not a superset: each transition site updates its bit in the same
/// statement block as the struct mutation, and the debug-build reference
/// oracle (`reference_*_mask`) re-derives each stage's mask from the
/// structs and asserts equality every cycle.
///
/// Freshness replaces the per-VC `since < cycle` pipeline-pacing reads:
/// stage stamps never exceed the current cycle, so `since < cycle` is
/// exactly "not stamped this cycle", i.e. `!fresh_at(cycle)`.
#[derive(Debug, Default, Clone)]
pub(crate) struct VcLanes {
    /// VCs in [`VcState::Routing`].
    routing: u64,
    /// VCs in [`VcState::VcAlloc`].
    vcalloc: u64,
    /// VCs in [`VcState::Active`].
    active: u64,
    /// VCs with a nonempty FIFO (head-flit readiness).
    head: u64,
    /// VCs whose `since` stamp equals `fresh_cycle`.
    fresh: u64,
    /// The cycle `fresh` is valid for.
    fresh_cycle: u64,
    /// VCs routed toward each network direction.
    route_dir: [u64; 4],
    /// VCs routed toward a local ejection port.
    route_local: u64,
}

impl VcLanes {
    /// Bits stamped in `cycle` (empty when the lane belongs to an older
    /// cycle — stamps never run ahead of the clock).
    #[inline]
    fn fresh_at(&self, cycle: u64) -> u64 {
        if self.fresh_cycle == cycle {
            self.fresh
        } else {
            0
        }
    }

    /// Record that `bit`'s VC was stamped `since = cycle`.
    #[inline]
    fn stamp(&mut self, bit: u64, cycle: u64) {
        if self.fresh_cycle != cycle {
            self.fresh = 0;
            self.fresh_cycle = cycle;
        }
        self.fresh |= bit;
    }

    /// Drop `bit` from every route lane (VC released or purged).
    #[inline]
    fn clear_route(&mut self, bit: u64) {
        for l in self.route_dir.iter_mut() {
            *l &= !bit;
        }
        self.route_local &= !bit;
    }

    /// Reconstruct every lane from the authoritative per-VC structs
    /// (snapshot restore, packet purge — the two sites that mutate VC
    /// state without going through the stage methods).
    fn rebuild(inputs: &[InputUnit], cycle: u64) -> Self {
        let vcs = inputs.first().map_or(0, |u| u.vcs.len());
        let mut l = Self {
            fresh_cycle: cycle,
            ..Self::default()
        };
        for (p, unit) in inputs.iter().enumerate() {
            for (v, ivc) in unit.vcs.iter().enumerate() {
                let bit = 1u64 << (p * vcs + v);
                match ivc.state {
                    VcState::Idle => {}
                    VcState::Routing => l.routing |= bit,
                    VcState::VcAlloc => l.vcalloc |= bit,
                    VcState::Active => l.active |= bit,
                }
                if !ivc.fifo.is_empty() {
                    l.head |= bit;
                }
                if ivc.since >= cycle {
                    l.fresh |= bit;
                }
                match ivc.route {
                    Some(Port::Net(dir)) => l.route_dir[dir.index()] |= bit,
                    Some(Port::Local(_)) => l.route_local |= bit,
                    None => {}
                }
            }
        }
        l
    }
}

/// `rc_cache` sentinel: the destination is unroutable under the current
/// tables (hold the head; the watchdog reports a permanent hold).
const RC_UNROUTABLE: u8 = 5;

/// One router.
#[derive(Debug)]
pub struct Router {
    /// The router position in the mesh.
    pub node: NodeId,
    /// Input units indexed by [`Port::index`]: 4 network + `c` locals.
    pub inputs: Vec<InputUnit>,
    /// Output units per network direction (None where no neighbour).
    pub outputs: [Option<OutputUnit>; 4],
    /// VA arbiter per network output, over `input_port * vcs + vc`.
    pub(crate) va_arb: [RoundRobin; 4],
    /// SA arbiter per output port (4 net + locals), same indexing.
    pub(crate) sa_arb: Vec<RoundRobin>,
    /// Crossbar traversals granted last cycle.
    pub st_pending: Vec<StMove>,
    /// Slots already committed to each network output by pending STs.
    pub(crate) pending_to_output: [u8; 4],
    /// SoA request-mask lanes mirroring the input VC state.
    pub(crate) lanes: VcLanes,
    /// Route memo keyed by destination: `0` = unfilled, `1..=4` =
    /// `Direction::ALL` index + 1, [`RC_UNROUTABLE`] = empty route set.
    /// Valid only for deterministic single-candidate routing functions
    /// (XY and table-driven — not odd-even, whose choice is adaptive)
    /// and only while `rc_cache_epoch` matches the simulator's routing
    /// epoch. Sized at construction: one byte per destination.
    pub(crate) rc_cache: Vec<u8>,
    /// Routing epoch `rc_cache` was filled under.
    pub(crate) rc_cache_epoch: u32,
}

impl Router {
    /// Construct the router for `node` with the given configuration.
    pub fn new(node: NodeId, mesh: &Mesh, cfg: &SimConfig) -> Self {
        let ports = cfg.ports();
        let requesters = ports * cfg.vcs as usize;
        assert!(
            requesters <= 64,
            "requester bitmasks hold 64 (port, VC) pairs"
        );
        let inputs = (0..ports)
            .map(|_| InputUnit::new(cfg.vcs, ThreatDetector::new(cfg.detector)))
            .collect();
        let outputs = std::array::from_fn(|d| {
            let dir = Direction::ALL[d];
            mesh.neighbor(node, dir).map(|_| {
                OutputUnit::new(
                    cfg.vcs,
                    cfg.vc_depth,
                    cfg.retx_depth as usize,
                    cfg.retx_scheme,
                )
            })
        });
        Self {
            node,
            inputs,
            outputs,
            va_arb: std::array::from_fn(|_| RoundRobin::new(requesters)),
            sa_arb: (0..ports).map(|_| RoundRobin::new(requesters)).collect(),
            st_pending: Vec::new(),
            pending_to_output: [0; 4],
            lanes: VcLanes::default(),
            // One byte per destination, allocated up front: the steady
            // state never touches the allocator.
            rc_cache: vec![0u8; mesh.routers()],
            rc_cache_epoch: 0,
        }
    }

    /// Reconstruct the SoA lanes from the per-VC structs. Called after
    /// the two paths that mutate VC state outside the stage methods
    /// (snapshot restore, packet purge).
    pub(crate) fn rebuild_lanes(&mut self, cycle: u64) {
        self.lanes = VcLanes::rebuild(&self.inputs, cycle);
    }

    /// Buffer write (BW): place an accepted flit into an input VC FIFO and
    /// advance the wormhole state machine. A head arriving behind a still-
    /// draining packet simply queues; `InputVc::release` re-arms the state
    /// machine when the stream reaches it.
    pub fn buffer_write(&mut self, port: Port, vc: VcId, flit: Flit, cycle: u64) {
        let vcs = self.inputs[0].vcs.len();
        let bit = 1u64 << (port.index() * vcs + vc.index());
        let unit = &mut self.inputs[port.index()];
        let ivc = &mut unit.vcs[vc.index()];
        if flit.kind.carries_header() && ivc.state == VcState::Idle && ivc.fifo.is_empty() {
            ivc.state = VcState::Routing;
            ivc.packet = Some(flit.packet);
            ivc.since = cycle;
            self.lanes.routing |= bit;
            self.lanes.stamp(bit, cycle);
        }
        ivc.fifo.push_back(flit);
        self.lanes.head |= bit;
        let occ = unit.occupancy() as u64;
        unit.occupancy_high_water = unit.occupancy_high_water.max(occ);
    }

    /// RC: compute routes for VCs that buffered a head last cycle. With an
    /// adaptive routing function (odd-even), the least congested legal
    /// candidate wins — judged by downstream credits plus free
    /// retransmission slots at each candidate output.
    ///
    /// `routing_epoch` versions the simulator's routing function; a bump
    /// (table reroute after quarantine, or an explicit swap) invalidates
    /// the per-destination route memo. Deterministic single-candidate
    /// functions (XY, tables) answer repeat destinations from the memo
    /// without re-deriving the route set; odd-even bypasses the memo
    /// entirely — its choice is adaptive (congestion- and
    /// source-dependent), so only the full derivation is correct.
    pub fn rc_stage(&mut self, cycle: u64, mesh: &Mesh, routing: &Routing, routing_epoch: u32) {
        let vcs = self.inputs[0].vcs.len();
        let mut mask = self.lanes.routing & !self.lanes.fresh_at(cycle);
        #[cfg(any(test, debug_assertions))]
        debug_assert_eq!(
            mask,
            self.reference_rc_mask(cycle),
            "RC lane mask diverged from per-VC struct state"
        );
        let memoize = !matches!(routing, Routing::OddEven);
        if memoize && self.rc_cache_epoch != routing_epoch {
            self.rc_cache.fill(0);
            self.rc_cache_epoch = routing_epoch;
        }
        while mask != 0 {
            let i = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            let bit = 1u64 << i;
            let (p, v) = (i / vcs, i % vcs);
            let header = self.inputs[p].vcs[v]
                .fifo
                .front()
                .expect("Routing VC holds its head")
                .header;
            let port = if memoize && header.dest != self.node {
                match self.rc_cache[header.dest.index()] {
                    0 => {
                        let candidates = routing.route_set(mesh, self.node, &header);
                        if candidates.is_empty() {
                            // Unroutable under the current tables
                            // (possible mid-degradation, between a link
                            // death and the reroute): hold the head and
                            // retry next cycle; the watchdog reports it
                            // if no route ever comes.
                            self.rc_cache[header.dest.index()] = RC_UNROUTABLE;
                            continue;
                        }
                        debug_assert_eq!(
                            candidates.as_slice().len(),
                            1,
                            "deterministic routing yields one candidate off-destination"
                        );
                        let port = self.pick_candidate(candidates.as_slice());
                        if let Port::Net(dir) = port {
                            self.rc_cache[header.dest.index()] = dir.index() as u8 + 1;
                        }
                        port
                    }
                    RC_UNROUTABLE => continue,
                    d => Port::Net(Direction::ALL[(d - 1) as usize]),
                }
            } else {
                let candidates = routing.route_set(mesh, self.node, &header);
                if candidates.is_empty() {
                    continue;
                }
                // Candidate scoring reads only the output units; the
                // commit touches only this input VC — safe to do
                // in-place with the copied header.
                self.pick_candidate(candidates.as_slice())
            };
            let ivc = &mut self.inputs[p].vcs[v];
            ivc.route = Some(port);
            ivc.state = VcState::VcAlloc;
            ivc.since = cycle;
            self.lanes.routing &= !bit;
            self.lanes.vcalloc |= bit;
            match port {
                Port::Net(dir) => self.lanes.route_dir[dir.index()] |= bit,
                Port::Local(_) => self.lanes.route_local |= bit,
            }
            self.lanes.stamp(bit, cycle);
        }
    }

    /// Reference oracle for the RC request mask, re-derived from the
    /// per-VC structs exactly as the pre-lanes datapath did. Compiled
    /// into every debug/test build and asserted against the lane-built
    /// mask each cycle.
    #[cfg(any(test, debug_assertions))]
    fn reference_rc_mask(&self, cycle: u64) -> u64 {
        let vcs = self.inputs[0].vcs.len();
        let mut mask = 0u64;
        for (p, unit) in self.inputs.iter().enumerate() {
            for (v, ivc) in unit.vcs.iter().enumerate() {
                if ivc.state == VcState::Routing && ivc.since < cycle {
                    mask |= 1u64 << (p * vcs + v);
                }
            }
        }
        mask
    }

    /// Congestion-aware output selection among legal route candidates.
    fn pick_candidate(&self, candidates: &[Port]) -> Port {
        if candidates.len() == 1 {
            return candidates[0];
        }
        *candidates
            .iter()
            .max_by_key(|c| match c {
                Port::Local(_) => usize::MAX,
                Port::Net(dir) => self.outputs[dir.index()]
                    .as_ref()
                    .map(|o| {
                        let credits: usize = o.credits.iter().map(|c| *c as usize).sum();
                        let retx_free = o.total_capacity() - o.occupancy();
                        credits * 4 + retx_free
                    })
                    .unwrap_or(0),
            })
            .expect("candidates nonempty")
    }

    /// VA: grant output VCs to VCs that finished route computation.
    /// One grant per network output port per cycle; local ejection skips VA.
    /// The routing function supplies the dateline VC class each flit must
    /// allocate on a torus (everywhere else the class is unrestricted).
    pub fn va_stage(&mut self, cycle: u64, cfg: &SimConfig, routing: &Routing) {
        let vcs = cfg.vcs as usize;
        let ports = cfg.ports();
        assert!(
            ports * vcs <= 64,
            "requester bitmasks hold 64 (port, VC) pairs"
        );
        // Requesters that finished RC before this cycle. Snapshotted up
        // front: the local-eject commits below move bits out of the
        // vcalloc lane, but they sit in `route_local`, which is disjoint
        // from every `route_dir` lane, so the network masks built from
        // this snapshot cannot include them.
        let elig = self.lanes.vcalloc & !self.lanes.fresh_at(cycle);
        #[cfg(any(test, debug_assertions))]
        debug_assert_eq!(
            elig,
            self.reference_va_eligible(cycle),
            "VA lane mask diverged from per-VC struct state"
        );
        // Local-ejection VCs proceed straight to Active.
        let mut local = elig & self.lanes.route_local;
        while local != 0 {
            let i = local.trailing_zeros() as usize;
            local &= local - 1;
            let bit = 1u64 << i;
            let ivc = &mut self.inputs[i / vcs].vcs[i % vcs];
            ivc.state = VcState::Active;
            ivc.out_vc = None;
            ivc.since = cycle;
            self.lanes.vcalloc &= !bit;
            self.lanes.active |= bit;
            self.lanes.stamp(bit, cycle);
        }
        // Requester masks, one per network direction: bit `p*vcs + v` is
        // set when that input VC finished RC toward the direction and an
        // output VC is free for it. Stable for the rest of the stage: a
        // VA grant only claims a VC on the output it granted, each ivc
        // routes to exactly one direction, and each direction is visited
        // once.
        //
        // Without QoS domains every requester shares TDM domain 0 (all
        // slots open) and without a dateline scheme every class is
        // unrestricted, so `candidate_out_vc` collapses to "any output
        // VC unowned" — one predicate per direction instead of one per
        // requester.
        let uniform = matches!(cfg.qos, QosMode::None) && !matches!(routing, Routing::Topo(_));
        let mut req = [0u64; 4];
        for (d, slot) in self.outputs.iter().enumerate() {
            let Some(out) = slot.as_ref() else {
                continue;
            };
            let cand = elig & self.lanes.route_dir[d];
            if cand == 0 {
                continue;
            }
            if uniform {
                if out.vc_owner.iter().any(Option::is_none) {
                    req[d] = cand;
                }
                continue;
            }
            let mut m = cand;
            while m != 0 {
                let i = m.trailing_zeros() as usize;
                m &= m - 1;
                let ivc = &self.inputs[i / vcs].vcs[i % vcs];
                let h = ivc.fifo.front().expect("head").header;
                // Strict TDM: the VC allocator is also time-multiplexed
                // across domains.
                let class = routing.vc_class(self.node, h.dest);
                if cfg.tdm_slot_open(h.vc.0, cycle)
                    && candidate_out_vc(out, &h, cfg, class).is_some()
                {
                    req[d] |= 1u64 << i;
                }
            }
        }
        #[cfg(any(test, debug_assertions))]
        debug_assert_eq!(
            req,
            self.reference_va_req(cycle, cfg, routing, elig),
            "VA request masks diverged from the reference datapath"
        );
        for (d, &mask) in req.iter().enumerate() {
            if self.outputs[d].is_none() {
                continue;
            }
            if let Some(winner) = self.va_arb[d].grant_masked(mask) {
                let (p, v) = (winner / vcs, winner % vcs);
                let header = self.inputs[p].vcs[v].fifo.front().expect("head").header;
                let class = routing.vc_class(self.node, header.dest);
                let out = self.outputs[d].as_mut().expect("output exists");
                let w = candidate_out_vc(out, &header, cfg, class).expect("checked above");
                out.vc_owner[w.index()] = Some(header_packet(&self.inputs[p].vcs[v]));
                let ivc = &mut self.inputs[p].vcs[v];
                ivc.out_vc = Some(w);
                ivc.state = VcState::Active;
                ivc.since = cycle;
                let bit = 1u64 << winner;
                self.lanes.vcalloc &= !bit;
                self.lanes.active |= bit;
                self.lanes.stamp(bit, cycle);
            }
        }
    }

    /// Reference oracle: VA-eligible requesters re-derived from the
    /// per-VC structs (`VcAlloc`, stamped before this cycle).
    #[cfg(any(test, debug_assertions))]
    fn reference_va_eligible(&self, cycle: u64) -> u64 {
        let vcs = self.inputs[0].vcs.len();
        let mut mask = 0u64;
        for (p, unit) in self.inputs.iter().enumerate() {
            for (v, ivc) in unit.vcs.iter().enumerate() {
                if ivc.state == VcState::VcAlloc && ivc.since < cycle {
                    mask |= 1u64 << (p * vcs + v);
                }
            }
        }
        mask
    }

    /// Reference oracle: per-direction VA request masks built exactly as
    /// the pre-lanes datapath did (per-requester TDM and output-VC
    /// probes), over the same eligibility snapshot the stage used.
    #[cfg(any(test, debug_assertions))]
    fn reference_va_req(
        &self,
        cycle: u64,
        cfg: &SimConfig,
        routing: &Routing,
        elig: u64,
    ) -> [u64; 4] {
        let vcs = cfg.vcs as usize;
        let mut req = [0u64; 4];
        for (p, unit) in self.inputs.iter().enumerate() {
            for (v, ivc) in unit.vcs.iter().enumerate() {
                if elig & (1u64 << (p * vcs + v)) == 0 {
                    continue;
                }
                let Some(Port::Net(dir)) = ivc.route else {
                    continue;
                };
                let Some(out) = self.outputs[dir.index()].as_ref() else {
                    continue;
                };
                let h = ivc.fifo.front().expect("head").header;
                let class = routing.vc_class(self.node, h.dest);
                if cfg.tdm_slot_open(h.vc.0, cycle)
                    && candidate_out_vc(out, &h, cfg, class).is_some()
                {
                    req[dir.index()] |= 1 << (p * vcs + v);
                }
            }
        }
        req
    }

    /// SA: pick at most one flit per output port and per input port,
    /// consume a credit and a retransmission slot, and queue the crossbar
    /// traversal for next cycle's ST. Returns credits to send upstream.
    /// (Test-friendly wrapper over [`Router::sa_stage_into`].)
    pub fn sa_stage(&mut self, cycle: u64, cfg: &SimConfig) -> Vec<CreditReturn> {
        let mut credits = Vec::new();
        self.sa_stage_into(cycle, cfg, &mut credits);
        credits
    }

    /// Allocation-free SA: credits to send upstream are appended to
    /// `credits` (not cleared first). Output ports are visited starting at
    /// `cycle % ports` — the same rotating-fairness order the old
    /// unconditionally-advancing round-robin produced, but stateless, so
    /// quiescent routers can skip the stage entirely without desyncing.
    pub fn sa_stage_into(&mut self, cycle: u64, cfg: &SimConfig, credits: &mut Vec<CreditReturn>) {
        let vcs = cfg.vcs as usize;
        let ports = cfg.ports();
        assert!(
            ports * vcs <= 64,
            "requester bitmasks hold 64 (port, VC) pairs"
        );
        // Requesters with an Active state (stamped before this cycle)
        // and a buffered head flit — the lane-level part of the old
        // per-VC predicate walk.
        let elig = self.lanes.active & !self.lanes.fresh_at(cycle) & self.lanes.head;
        // Requester masks, one per output port: bit `p*vcs + v` is set
        // when that input VC's head flit could cross to the port this
        // cycle. Every predicate input is stable for the rest of the
        // stage — an SA grant only mutates the books of the output it
        // granted, and each output is visited exactly once — except the
        // one-grant-per-input-port rule, enforced by clearing the
        // winner's input-port bits from every mask.
        let mut req = [0u64; 64];
        if elig != 0 {
            // Without QoS domains every TDM slot is open; the per-flit
            // probe only matters under `QosMode::Tdm`.
            let tdm_all = matches!(cfg.qos, QosMode::None);
            for (d, slot) in self.outputs.iter().enumerate() {
                let mut m = elig & self.lanes.route_dir[d];
                if m == 0 {
                    continue;
                }
                let Some(out) = slot.as_ref() else {
                    continue;
                };
                // The retransmission-occupancy headroom check is shared
                // by every requester of this output.
                if (out.occupancy() + self.pending_to_output[d] as usize) >= out.total_capacity() {
                    continue;
                }
                while m != 0 {
                    let i = m.trailing_zeros() as usize;
                    m &= m - 1;
                    let ivc = &self.inputs[i / vcs].vcs[i % vcs];
                    // The whole crossbar is time-multiplexed: every
                    // crossing happens on the packet's domain slots.
                    if !tdm_all
                        && !cfg.tdm_slot_open(ivc.fifo.front().expect("head").header.vc.0, cycle)
                    {
                        continue;
                    }
                    let w = ivc.out_vc.expect("network route holds an out VC");
                    if out.has_slot(w) && out.credits[w.index()] > 0 {
                        req[d] |= 1u64 << i;
                    }
                }
            }
            // Local ejection: always crossbar-eligible (subject to TDM).
            let mut m = elig & self.lanes.route_local;
            while m != 0 {
                let i = m.trailing_zeros() as usize;
                m &= m - 1;
                let ivc = &self.inputs[i / vcs].vcs[i % vcs];
                if !tdm_all
                    && !cfg.tdm_slot_open(ivc.fifo.front().expect("head").header.vc.0, cycle)
                {
                    continue;
                }
                let Some(route @ Port::Local(_)) = ivc.route else {
                    unreachable!("route_local lane implies a local route")
                };
                req[route.index()] |= 1u64 << i;
            }
        }
        #[cfg(any(test, debug_assertions))]
        debug_assert_eq!(
            req,
            self.reference_sa_req(cycle, cfg),
            "SA request masks diverged from the reference datapath"
        );
        // Visit output ports in rotating order for fairness.
        let first = (cycle as usize) % ports;
        for step in 0..ports {
            let q = (first + step) % ports;
            let out_port = Port::from_index(q);
            if let Some(winner) = self.sa_arb[q].grant_masked(req[q]) {
                let (p, v) = (winner / vcs, winner % vcs);
                let bit = 1u64 << winner;
                // One grant per input port: retire its other requesters.
                let pmask = ((1u64 << vcs) - 1) << (p * vcs);
                for m in req.iter_mut() {
                    *m &= !pmask;
                }
                let out_vc = self.inputs[p].vcs[v].out_vc;
                let flit = self.inputs[p].vcs[v]
                    .fifo
                    .pop_front()
                    .expect("eligible implies head");
                if self.inputs[p].vcs[v].fifo.is_empty() {
                    self.lanes.head &= !bit;
                }
                if let Port::Net(dir) = out_port {
                    let d = dir.index();
                    let w = out_vc.expect("net route");
                    let out = self.outputs[d].as_mut().expect("exists");
                    out.credits[w.index()] -= 1;
                    self.pending_to_output[d] += 1;
                }
                // Return a credit to whoever feeds this input port.
                if let Port::Net(in_dir) = Port::from_index(p) {
                    credits.push(CreditReturn {
                        in_dir,
                        vc: VcId(v as u8),
                    });
                }
                if flit.kind.closes_packet() {
                    self.release_vc(p, v, cycle);
                }
                self.st_pending.push(StMove {
                    flit,
                    out_port,
                    out_vc,
                    granted_at: cycle,
                });
            }
        }
    }

    /// Release input VC `(p, v)` after its tail departs, keeping the SoA
    /// lanes in lockstep with the struct-level state machine (which may
    /// immediately re-arm on a queued head).
    fn release_vc(&mut self, p: usize, v: usize, cycle: u64) {
        let vcs = self.inputs[0].vcs.len();
        let bit = 1u64 << (p * vcs + v);
        let ivc = &mut self.inputs[p].vcs[v];
        ivc.release(cycle);
        let rearmed = ivc.state == VcState::Routing;
        self.lanes.routing &= !bit;
        self.lanes.vcalloc &= !bit;
        self.lanes.active &= !bit;
        self.lanes.clear_route(bit);
        if rearmed {
            self.lanes.routing |= bit;
        }
        self.lanes.stamp(bit, cycle);
    }

    /// Reference oracle: per-output SA request masks built exactly as
    /// the pre-lanes datapath did (full per-VC predicate walk).
    #[cfg(any(test, debug_assertions))]
    fn reference_sa_req(&self, cycle: u64, cfg: &SimConfig) -> [u64; 64] {
        let vcs = cfg.vcs as usize;
        let ports = cfg.ports();
        let mut req = [0u64; 64];
        for p in 0..ports {
            for v in 0..vcs {
                let ivc = &self.inputs[p].vcs[v];
                if ivc.state != VcState::Active || ivc.since >= cycle {
                    continue;
                }
                let Some(flit) = ivc.fifo.front() else {
                    continue;
                };
                let Some(route) = ivc.route else {
                    continue;
                };
                if !cfg.tdm_slot_open(flit.header.vc.0, cycle) {
                    continue;
                }
                let eligible = match route {
                    Port::Local(_) => true,
                    Port::Net(dir) => {
                        let d = dir.index();
                        match self.outputs[d].as_ref() {
                            None => false,
                            Some(out) => {
                                let w = ivc.out_vc.expect("network route holds an out VC");
                                out.has_slot(w)
                                    && (out.occupancy() + self.pending_to_output[d] as usize)
                                        < out.total_capacity()
                                    && out.credits[w.index()] > 0
                            }
                        }
                    }
                };
                if eligible {
                    req[route.index()] |= 1 << (p * vcs + v);
                }
            }
        }
        req
    }

    /// ST: commit last cycle's SA winners to the output stage; local
    /// ejections are returned for delivery.
    /// (Test-friendly wrapper over [`Router::st_stage_into`].)
    pub fn st_stage(&mut self, cycle: u64) -> Vec<Ejection> {
        let mut ejections = Vec::new();
        self.st_stage_into(cycle, &mut ejections);
        ejections
    }

    /// Allocation-free ST: local ejections are appended to `ejections`
    /// (not cleared first).
    pub fn st_stage_into(&mut self, cycle: u64, ejections: &mut Vec<Ejection>) {
        let mut i = 0;
        while i < self.st_pending.len() {
            if self.st_pending[i].granted_at < cycle {
                let mv = self.st_pending.remove(i);
                match mv.out_port {
                    Port::Local(n) => ejections.push(Ejection {
                        flit: mv.flit,
                        local_port: n,
                    }),
                    Port::Net(dir) => {
                        let d = dir.index();
                        self.pending_to_output[d] -= 1;
                        let vc = mv.out_vc.expect("net move");
                        self.outputs[d]
                            .as_mut()
                            .expect("output exists")
                            .push(mv.flit, vc, cycle);
                    }
                }
            } else {
                i += 1;
            }
        }
    }

    /// Whether any per-cycle pipeline stage (hold resolution, ST, SA,
    /// VA/RC) could act on this router: flits buffered in an input VC,
    /// flits paying an obfuscation stall, scrambles awaiting a partner,
    /// or crossbar moves in flight. Retransmission entries do *not* count:
    /// the launch/ACK machinery is driven per-link, not per-router.
    ///
    /// The simulator's active-set uses this to skip quiescent routers.
    /// Skipping is exact, not approximate: every stage's arbiters only
    /// advance on a grant, and a grant requires one of the conditions
    /// above, so a skipped router's state is bit-identical to having run
    /// the stages against no work.
    pub fn has_phase_work(&self) -> bool {
        self.lanes.head != 0
            || !self.st_pending.is_empty()
            || self
                .inputs
                .iter()
                .any(|u| !u.delayed.is_empty() || !u.pending_scrambles.is_empty())
    }

    /// Total network-input buffer occupancy (Fig. 11 input utilisation).
    pub fn network_input_occupancy(&self) -> usize {
        (0..4).map(|d| self.inputs[d].occupancy()).sum()
    }

    /// Deepest any single input unit (network or local) has ever been,
    /// in flits — the buffer-occupancy high-water mark for the metrics
    /// registry.
    pub fn input_high_water(&self) -> u64 {
        self.inputs
            .iter()
            .map(|u| u.occupancy_high_water)
            .max()
            .unwrap_or(0)
    }

    /// Total retransmission-buffer occupancy (output utilisation).
    pub fn output_occupancy(&self) -> usize {
        self.outputs
            .iter()
            .flatten()
            .map(OutputUnit::occupancy)
            .sum()
    }

    /// Whether any output port is completely stalled: work is waiting for
    /// it (retransmission entries held, or input VCs routed toward it with
    /// buffered flits) but no delivery (ACK) has landed for `threshold`
    /// cycles — the signature of both retransmission livelock and credit
    /// back-pressure.
    pub fn has_blocked_port(&self, cycle: u64, threshold: u64) -> bool {
        for d in 0..4 {
            let Some(out) = self.outputs[d].as_ref() else {
                continue;
            };
            if cycle.saturating_sub(out.last_progress) < threshold {
                continue;
            }
            let dir = Direction::ALL[d];
            // The waiting work must itself have been waiting for the whole
            // progress drought, else a fresh flit after an idle period
            // would be a false positive.
            let stale_retx = out
                .entries
                .iter()
                .any(|e| cycle.saturating_sub(e.entered_at) >= threshold);
            let stale_input = self.inputs.iter().any(|u| {
                u.vcs.iter().any(|v| {
                    v.route == Some(Port::Net(dir))
                        && !v.fifo.is_empty()
                        && cycle.saturating_sub(v.since) >= threshold
                })
            });
            if stale_retx || stale_input {
                return true;
            }
        }
        false
    }

    /// Remove every flit belonging to a victim packet from this router's
    /// buffers (link quarantine / graceful degradation). Input FIFOs,
    /// descramble holds, crossbar moves, and retransmission entries are
    /// all swept; wormhole state machines forwarding a victim are reset
    /// exactly like a tail departure (re-arming on any queued survivor),
    /// and victim-owned output VCs are released. Returns one record per
    /// removed copy so the simulator can settle the credit books.
    pub fn purge_packets(&mut self, victims: &HashSet<PacketId>, cycle: u64) -> Vec<PurgedCopy> {
        let mut purged = Vec::new();
        for p in 0..self.inputs.len() {
            // Network inputs hold link-level credits; local (injection)
            // inputs do not.
            let in_dir = if p < 4 { Some(Direction::ALL[p]) } else { None };
            let site = |vc: VcId| in_dir.map(|d| CreditSite::Upstream(d, vc));
            let unit = &mut self.inputs[p];
            unit.delayed.retain(|d| {
                if victims.contains(&d.flit.packet) {
                    purged.push(PurgedCopy {
                        flit: d.flit.id,
                        site: site(d.vc),
                        from_retx: false,
                    });
                    false
                } else {
                    true
                }
            });
            unit.pending_scrambles.retain(|s| {
                if victims.contains(&s.flit.packet) {
                    purged.push(PurgedCopy {
                        flit: s.flit.id,
                        site: site(s.vc),
                        from_retx: false,
                    });
                    false
                } else {
                    true
                }
            });
            for v in 0..unit.vcs.len() {
                let vc = VcId(v as u8);
                let ivc = &mut unit.vcs[v];
                ivc.fifo.retain(|f| {
                    if victims.contains(&f.packet) {
                        purged.push(PurgedCopy {
                            flit: f.id,
                            site: site(vc),
                            from_retx: false,
                        });
                        false
                    } else {
                        true
                    }
                });
                if ivc.packet.is_some_and(|pk| victims.contains(&pk)) {
                    ivc.release(cycle);
                }
                if ivc.wire_packet.is_some_and(|pk| victims.contains(&pk)) {
                    // The rest of the victim's wire stream will never
                    // arrive; unblock the VC for the next packet's head.
                    ivc.wire_packet = None;
                    ivc.expected_seq = 0;
                }
            }
        }
        // Crossbar moves granted at SA: the credit was consumed at this
        // router's target output.
        let mut i = 0;
        while i < self.st_pending.len() {
            let mv = self.st_pending[i];
            if victims.contains(&mv.flit.packet) {
                let site = match (mv.out_port, mv.out_vc) {
                    (Port::Net(dir), Some(w)) => {
                        self.pending_to_output[dir.index()] -= 1;
                        Some(CreditSite::SelfOutput(dir, w))
                    }
                    _ => None,
                };
                purged.push(PurgedCopy {
                    flit: mv.flit.id,
                    site,
                    from_retx: false,
                });
                self.st_pending.remove(i);
            } else {
                i += 1;
            }
        }
        // Retransmission entries toward any direction, plus output-VC
        // ownership held by victims.
        for d in 0..4 {
            let dir = Direction::ALL[d];
            let Some(out) = self.outputs[d].as_mut() else {
                continue;
            };
            out.entries.retain(|e| {
                if victims.contains(&e.flit.packet) {
                    purged.push(PurgedCopy {
                        flit: e.flit.id,
                        site: Some(CreditSite::SelfOutput(dir, e.vc)),
                        from_retx: true,
                    });
                    false
                } else {
                    true
                }
            });
            for owner in out.vc_owner.iter_mut() {
                if owner.is_some_and(|pk| victims.contains(&pk)) {
                    *owner = None;
                }
            }
        }
        // The retains and releases above bypassed the stage methods;
        // re-derive the SoA lanes from the surviving struct state.
        self.rebuild_lanes(cycle);
        purged
    }

    /// Flits resident in this router (conservation checks).
    pub fn resident_flits(&self) -> usize {
        let inputs: usize = self
            .inputs
            .iter()
            .map(|u| u.occupancy() + u.delayed.len() + u.pending_scrambles.len())
            .sum();
        let outputs: usize = self.outputs.iter().flatten().map(|o| o.occupancy()).sum();
        inputs + outputs + self.st_pending.len()
    }

    /// Defence-in-depth for the fast-forward gate: once every activity
    /// bitmap reads clear, no input unit may still hold a timed release,
    /// no output unit may hold retransmission state or a stale VC
    /// ownership, and no crossbar traversal may be pending. Violation
    /// means a bitmap bug let state hide from the skip proof.
    pub fn is_skip_transparent(&self) -> bool {
        self.inputs
            .iter()
            .all(|u| u.next_timed_event_at().is_none())
            && self
                .outputs
                .iter()
                .flatten()
                .all(OutputUnit::is_skip_transparent)
            && self.st_pending.is_empty()
    }
}

fn header_packet(ivc: &crate::input::InputVc) -> noc_types::PacketId {
    ivc.packet.expect("VC in VA holds a packet")
}

/// First free output VC usable by a packet with header `h` (TDM keeps
/// packets inside their domain's VC partition; the dateline scheme keeps
/// torus packets inside their class's VC half). A free function over the
/// output unit (rather than a `&self` method) so the VA grant predicate
/// can call it while the arbiter itself is mutably borrowed.
fn candidate_out_vc(
    out: &OutputUnit,
    h: &noc_types::Header,
    cfg: &SimConfig,
    class: crate::routing::VcClass,
) -> Option<VcId> {
    let my_domain = cfg.domain_of_vc(h.vc.0);
    (0..cfg.vcs).map(VcId).find(|w| {
        out.vc_owner[w.index()].is_none()
            && cfg.domain_of_vc(w.0) == my_domain
            && class.admits(w.0, cfg.vcs)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_types::{FlitId, FlitKind, Header, PacketId};

    fn cfg() -> SimConfig {
        SimConfig::paper()
    }

    fn router() -> Router {
        let c = cfg();
        Router::new(NodeId(5), &c.mesh.clone(), &c)
    }

    fn head(dest: u16) -> Flit {
        Flit::head(
            FlitId(1),
            PacketId(1),
            FlitKind::Single,
            Header {
                src: NodeId(5),
                dest: NodeId(dest),
                vc: VcId(0),
                mem_addr: 0,
                thread: 0,
                len: 1,
            },
        )
    }

    #[test]
    fn center_router_has_four_outputs() {
        let r = router(); // node 5 = (1,1): all four neighbours
        assert!(r.outputs.iter().all(Option::is_some));
    }

    #[test]
    fn corner_router_missing_outputs() {
        let c = cfg();
        let r = Router::new(NodeId(0), &c.mesh.clone(), &c);
        // (0,0): east and north exist; west and south do not.
        assert!(r.outputs[Direction::East.index()].is_some());
        assert!(r.outputs[Direction::North.index()].is_some());
        assert!(r.outputs[Direction::West.index()].is_none());
        assert!(r.outputs[Direction::South.index()].is_none());
    }

    #[test]
    fn five_stage_progression_single_flit() {
        let c = cfg();
        let mesh = c.mesh.clone();
        let routing = Routing::Xy;
        let mut r = router();
        // Cycle 0: BW.
        r.buffer_write(Port::Local(0), VcId(0), head(6), 0);
        assert_eq!(r.inputs[4].vcs[0].state, VcState::Routing);
        // Same cycle RC must not fire (since == cycle).
        r.rc_stage(0, &mesh, &routing, 0);
        assert_eq!(r.inputs[4].vcs[0].state, VcState::Routing);
        // Cycle 1: RC.
        r.rc_stage(1, &mesh, &routing, 0);
        assert_eq!(r.inputs[4].vcs[0].state, VcState::VcAlloc);
        assert_eq!(r.inputs[4].vcs[0].route, Some(Port::Net(Direction::East)));
        // Cycle 2: VA.
        r.va_stage(2, &c, &Routing::Xy);
        assert_eq!(r.inputs[4].vcs[0].state, VcState::Active);
        let w = r.inputs[4].vcs[0].out_vc.expect("granted");
        assert_eq!(
            r.outputs[Direction::East.index()]
                .as_ref()
                .unwrap()
                .vc_owner[w.index()],
            Some(PacketId(1))
        );
        // Cycle 3: SA.
        let credits = r.sa_stage(3, &c);
        assert!(credits.is_empty(), "local input returns no credits");
        assert_eq!(r.st_pending.len(), 1);
        assert!(r.inputs[4].vcs[0].fifo.is_empty());
        assert_eq!(r.inputs[4].vcs[0].state, VcState::Idle, "tail released VC");
        // Cycle 4: ST.
        let ej = r.st_stage(4);
        assert!(ej.is_empty());
        let out = r.outputs[Direction::East.index()].as_ref().unwrap();
        assert_eq!(out.occupancy(), 1);
        // Credit consumed at SA.
        assert_eq!(out.credits[w.index()], c.vc_depth - 1);
    }

    #[test]
    fn local_delivery_ejects() {
        let c = cfg();
        let mesh = c.mesh.clone();
        let mut r = router();
        r.buffer_write(Port::Net(Direction::West), VcId(1), head(5), 0);
        r.rc_stage(1, &mesh, &Routing::Xy, 0);
        assert_eq!(r.inputs[1].vcs[1].route, Some(Port::Local(0)));
        r.va_stage(2, &c, &Routing::Xy);
        assert_eq!(r.inputs[1].vcs[1].state, VcState::Active);
        let credits = r.sa_stage(3, &c);
        assert_eq!(credits.len(), 1, "network input returns a credit");
        assert_eq!(credits[0].in_dir, Direction::West);
        let ej = r.st_stage(4);
        assert_eq!(ej.len(), 1);
        assert_eq!(ej[0].local_port, 0);
    }

    #[test]
    fn sa_respects_retx_capacity() {
        let c = cfg();
        let mesh = c.mesh.clone();
        let mut r = router();
        // Fill the east output retransmission buffer completely.
        for i in 0..c.retx_depth {
            let f = Flit::head(
                FlitId(100 + i as u64),
                PacketId(100 + i as u64),
                FlitKind::Single,
                Header {
                    src: NodeId(5),
                    dest: NodeId(6),
                    vc: VcId(0),
                    mem_addr: 0,
                    thread: 0,
                    len: 1,
                },
            );
            r.outputs[Direction::East.index()]
                .as_mut()
                .unwrap()
                .push(f, VcId(0), 0);
        }
        r.buffer_write(Port::Local(0), VcId(0), head(6), 0);
        r.rc_stage(1, &mesh, &Routing::Xy, 0);
        r.va_stage(2, &c, &Routing::Xy);
        r.sa_stage(3, &c);
        assert!(
            r.st_pending.is_empty(),
            "SA must not overcommit a full retransmission buffer"
        );
    }

    #[test]
    fn two_inputs_one_output_single_grant_per_cycle() {
        let c = cfg();
        let mesh = c.mesh.clone();
        let mut r = router();
        let mk = |id: u64, vc: u8| {
            Flit::head(
                FlitId(id),
                PacketId(id),
                FlitKind::Single,
                Header {
                    src: NodeId(5),
                    dest: NodeId(6),
                    vc: VcId(vc),
                    mem_addr: 0,
                    thread: 0,
                    len: 1,
                },
            )
        };
        r.buffer_write(Port::Local(0), VcId(0), mk(1, 0), 0);
        r.buffer_write(Port::Local(1), VcId(1), mk(2, 1), 0);
        r.rc_stage(1, &mesh, &Routing::Xy, 0);
        r.va_stage(2, &c, &Routing::Xy);
        r.va_stage(3, &c, &Routing::Xy); // second requester granted next cycle
        r.sa_stage(4, &c);
        assert_eq!(r.st_pending.len(), 1, "one grant per output per cycle");
        r.st_stage(5);
        r.sa_stage(5, &c);
        assert_eq!(r.st_pending.len(), 1);
    }
}
