//! Deterministic sharded parallel execution engine.
//!
//! The cycle loop's first seven phases are reorganised into three
//! *barrier-separated groups*, each of which partitions the network state
//! so that every shard touches a disjoint slice:
//!
//! | group | work                                   | partition key        |
//! |-------|----------------------------------------|----------------------|
//! | G1    | active-set refresh, link delivery (P1),| routers by index,    |
//! |       | hold resolution (P2)                   | links by *dest*      |
//! | G2    | ACK/credit drain (P3), launch (P4)     | links by *source*    |
//! | G3    | ST (P5), SA + credit return (P6),      | routers by index     |
//! |       | VA/RC (P7)                             | (P6 pushes into the  |
//! |       |                                        | links feeding them,  |
//! |       |                                        | i.e. links by dest)  |
//!
//! Injection (P8), snapshotting, and quarantine stay sequential on the
//! caller's thread, as does the *commit* step that folds per-shard side
//! effects back into the global simulator in exactly the order the
//! sequential engine would have produced them (see [`ShardFx`]).
//!
//! Why the partition is race-free:
//!
//! * The forward wire of a link is written by its source router's shard
//!   (P4 launch, group G2) and read by its destination router's shard
//!   (P1 delivery, group G1) — different groups, never concurrent.
//! * The reverse queues (ACKs, credits) are pushed by the destination
//!   shard (P1 in G1, P6 in G3) and drained by the source shard (P3 in
//!   G2). The one-cycle link latencies time-partition pushes (timestamped
//!   `now + 1`) from drains (`<= now`), and the groups barrier-partition
//!   the queue memory itself.
//! * All other state (input units, crossbar, output units, per-link RNG
//!   in the fault layer) is only ever touched through the owning shard's
//!   partition in any given group.
//!
//! Determinism: every shard processes its links/routers in ascending id
//! order, per-link RNG streams are owned by exactly one shard per group,
//! and the commit step performs an id-keyed k-way merge of the per-shard
//! effect lists — reconstructing the exact sequential order of every
//! event, trace record, and statistics update. The result is bit-identical
//! to the sequential engine at every shard count (verified by the golden
//! determinism suite and the differential conformance fuzzer). This
//! includes the [`crate::config::Sabotage::LeakCredit`] self-test hook:
//! its counter lives on the [`crate::output::OutputUnit`] it leaks from,
//! and each output's credits drain in wire order under exactly one shard,
//! so the count is identical at every shard count.
//!
//! Scheduling: each phase walks the raised bits of a hierarchical
//! active set ([`crate::activeset::ActiveSet`]) restricted to its
//! shard's router band or link-position range instead of scanning every
//! id. Link bitmaps are indexed by partition *position* (see
//! [`LinkOrders`]) so a shard's links occupy one dense range; ascending
//! position within a shard is ascending link id, preserving the
//! sequential iteration order. Bits are superset hints — every consumer
//! re-checks the authoritative predicate, so a stale bit costs one
//! check and can never change simulated state.

use crate::activeset::ActiveSet;
use crate::config::{Sabotage, SimConfig};
use crate::input::{DelayedEntry, PendingScramble};
use crate::link::LanesView;
use crate::message::{AckKind, AckMsg, LinkFlit, SimEvent};
use crate::metrics::LinkMetrics;
use crate::router::{CreditReturn, Ejection, Router};
use crate::routing::Routing;
use crate::trace::TraceKind;
use noc_ecc::{Decode, Secded};
use noc_mitigation::{Bist, DetectorAction};
use noc_types::{Direction, Flit, LinkId, Mesh, NodeId, Port, VcId};
use std::cell::UnsafeCell;
use std::marker::PhantomData;
use std::ops::Range;
use std::sync::{Arc, Barrier};

/// Hard ceiling on shard count: bounds the stack-allocated cursor arrays
/// used by the zero-allocation k-way merges in the commit step.
pub(crate) const MAX_SHARDS: usize = 64;

// ---------------------------------------------------------------------
// Disjoint mutable access
// ---------------------------------------------------------------------

/// A shareable view of a mutable slice whose elements are mutated through
/// `&self`. Soundness rests on the shard partition invariant: between two
/// barriers, each element index is accessed by **at most one** thread
/// (the shard that owns it under the active group's partition). The
/// planner ([`plan_shards`]) constructs disjoint ownership sets, and the
/// phase bodies only index through their own [`ShardPlan`].
pub(crate) struct DisjointMut<'a, T> {
    ptr: *mut T,
    len: usize,
    _marker: PhantomData<&'a mut [T]>,
}

unsafe impl<T: Send> Send for DisjointMut<'_, T> {}
unsafe impl<T: Send> Sync for DisjointMut<'_, T> {}

impl<'a, T> DisjointMut<'a, T> {
    pub(crate) fn new(slice: &'a mut [T]) -> Self {
        Self {
            ptr: slice.as_mut_ptr(),
            len: slice.len(),
            _marker: PhantomData,
        }
    }

    /// Mutable reference to element `i`. Callers must uphold the
    /// partition invariant above; indexing an element owned by another
    /// shard in the same group is undefined behaviour.
    #[inline]
    #[allow(clippy::mut_from_ref)]
    pub(crate) fn idx(&self, i: usize) -> &mut T {
        debug_assert!(i < self.len);
        unsafe { &mut *self.ptr.add(i) }
    }
}

// ---------------------------------------------------------------------
// Shard planning
// ---------------------------------------------------------------------

/// One shard's ownership sets: a contiguous band of routers (on a `k×k`
/// mesh with `s | k` shards this is exactly a row band), plus the links
/// partitioned by destination (used in G1/G3) and by source (G2). Both
/// link lists are ascending, which the commit merge relies on.
///
/// `dst_range` / `src_range` are this shard's contiguous slots in the
/// shard-ordered link *position* spaces (see [`link_orders`]): the
/// active-set bitmaps over links are indexed by position so each shard
/// iterates one dense range instead of a scattered id list.
#[derive(Debug, Clone)]
pub(crate) struct ShardPlan {
    pub routers: Range<usize>,
    pub links_dst: Vec<u16>,
    pub links_src: Vec<u16>,
    pub dst_range: Range<usize>,
    pub src_range: Range<usize>,
}

/// Split the mesh into at most `shards` contiguous router bands (never
/// more than one shard per router, never more than [`MAX_SHARDS`]).
pub(crate) fn plan_shards(mesh: &Mesh, shards: usize) -> Vec<ShardPlan> {
    let n = mesh.routers();
    let s = shards.clamp(1, MAX_SHARDS).min(n.max(1));
    let (base, extra) = (n / s, n % s);
    let mut plans = Vec::with_capacity(s);
    let mut start = 0usize;
    let (mut dst_off, mut src_off) = (0usize, 0usize);
    for i in 0..s {
        let len = base + usize::from(i < extra);
        let routers = start..start + len;
        start += len;
        let links_dst: Vec<u16> = mesh
            .all_links()
            .filter(|&l| routers.contains(&mesh.link_dest(l).index()))
            .map(|l| l.0)
            .collect();
        let links_src: Vec<u16> = mesh
            .all_links()
            .filter(|&l| routers.contains(&mesh.link_source(l).0.index()))
            .map(|l| l.0)
            .collect();
        let dst_range = dst_off..dst_off + links_dst.len();
        let src_range = src_off..src_off + links_src.len();
        dst_off = dst_range.end;
        src_off = src_range.end;
        plans.push(ShardPlan {
            routers,
            links_dst,
            links_src,
            dst_range,
            src_range,
        });
    }
    plans
}

/// The bijections between link ids and their *positions* in the two
/// shard-ordered partitions. Position spaces concatenate the shards'
/// ascending link lists, so each shard's links occupy one contiguous
/// position range ([`ShardPlan::dst_range`] / [`ShardPlan::src_range`])
/// and ascending position within a shard is ascending link id — the
/// order every phase loop and the commit merge rely on.
pub(crate) struct LinkOrders {
    /// Link id → position in the by-destination partition.
    pub dst_pos: Vec<u16>,
    /// Position in the by-destination partition → link id.
    pub dst_order: Vec<u16>,
    /// Link id → position in the by-source partition.
    pub src_pos: Vec<u16>,
    /// Position in the by-source partition → link id.
    pub src_order: Vec<u16>,
}

pub(crate) fn link_orders(plans: &[ShardPlan], n_links: usize) -> LinkOrders {
    let mut o = LinkOrders {
        dst_pos: vec![0; n_links],
        dst_order: vec![0; n_links],
        src_pos: vec![0; n_links],
        src_order: vec![0; n_links],
    };
    let mut pos = 0u16;
    for p in plans {
        for &li in &p.links_dst {
            o.dst_pos[li as usize] = pos;
            o.dst_order[pos as usize] = li;
            pos += 1;
        }
    }
    let mut pos = 0u16;
    for p in plans {
        for &li in &p.links_src {
            o.src_pos[li as usize] = pos;
            o.src_order[pos as usize] = li;
            pos += 1;
        }
    }
    o
}

// ---------------------------------------------------------------------
// Per-shard state: scratch buffers and buffered side effects
// ---------------------------------------------------------------------

/// Deltas to the global [`crate::stats::SimStats`] counters accumulated
/// by one shard during one cycle; summed into the real counters at
/// commit (addition commutes, so no ordering is needed).
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct StatsDelta {
    pub corrected_faults: u64,
    pub uncorrectable_faults: u64,
    pub bist_scans: u64,
    pub retransmissions: u64,
    pub budget_escalations: u64,
}

/// One shard's working state: the reusable scratch buffers (moved here
/// from the sequential simulator so each worker owns its own set) and
/// the per-cycle side-effect lists.
///
/// Effect lists are keyed by the id of the link (P1/P3/P4) or router
/// (P5) that produced them. Within a shard each list is naturally
/// ascending (phases iterate ids in order), and ids are disjoint across
/// shards, so an id-keyed merge at commit reproduces the exact global
/// order the sequential engine emits.
#[derive(Debug, Default)]
pub(crate) struct ShardFx {
    // Reusable scratch (capacity retained across cycles).
    pub ready: Vec<(VcId, Flit)>,
    pub acks: Vec<AckMsg>,
    pub credit_vcs: Vec<VcId>,
    pub ejections: Vec<Ejection>,
    pub credits: Vec<CreditReturn>,
    /// P1 batching scratch: this cycle's arrivals, dense, ascending link
    /// id, collected before the fault-traversal + SECDED decode pass.
    pub p1_arrivals: Vec<(u16, LinkFlit)>,
    /// P1 batching scratch: decode verdicts, parallel to `p1_arrivals`.
    pub p1_decodes: Vec<Decode>,
    // Per-cycle buffered effects, drained by `Simulator::commit_fx`.
    pub stats: StatsDelta,
    pub progress: bool,
    pub p1_kinds: Vec<(u16, TraceKind)>,
    pub p1_events: Vec<(u16, SimEvent)>,
    pub p3_kinds: Vec<(u16, TraceKind)>,
    pub p3_events: Vec<(u16, SimEvent)>,
    pub p3_quar: Vec<u16>,
    pub p4_kinds: Vec<(u16, TraceKind)>,
    pub p5_ejections: Vec<(u16, Ejection)>,
    // Telemetry scratch, drained by `Telemetry::absorb_cycle` at commit.
    // Strictly side-band: written only when `PhaseCtx::profile` is set
    // and never read by any phase.
    /// Nanoseconds this shard spent per phase this cycle.
    pub tel_phase_ns: [u64; crate::telemetry::PHASE_COUNT],
    /// Timeline spans per barrier group this cycle: (start ns since the
    /// telemetry epoch, duration ns); (0, 0) when not sampled.
    pub tel_group_spans: [(u64, u64); crate::telemetry::GROUP_COUNT],
}

/// Merge the `sel`-selected effect lists of all shards in ascending key
/// order and feed each item to `apply`, then clear the lists. Keys are
/// disjoint across shards (each id has one owner per group) and
/// ascending within a shard, so a repeated-minimum scan reconstructs the
/// sequential emission order exactly. Allocation-free: the cursor array
/// lives on the stack (hence [`MAX_SHARDS`]).
pub(crate) fn merge_keyed<T: Clone>(
    fxs: &mut [ShardFx],
    sel: fn(&mut ShardFx) -> &mut Vec<(u16, T)>,
    mut apply: impl FnMut(T),
) {
    if fxs.len() == 1 {
        for (_, item) in sel(&mut fxs[0]).drain(..) {
            apply(item);
        }
        return;
    }
    let mut pos = [0usize; MAX_SHARDS];
    loop {
        let mut best = usize::MAX;
        let mut best_key = u16::MAX;
        for s in 0..fxs.len() {
            let v = sel(&mut fxs[s]);
            if pos[s] < v.len() {
                let k = v[pos[s]].0;
                if best == usize::MAX || k < best_key {
                    best = s;
                    best_key = k;
                }
            }
        }
        if best == usize::MAX {
            break;
        }
        let item = sel(&mut fxs[best])[pos[best]].1.clone();
        pos[best] += 1;
        apply(item);
    }
    for f in fxs.iter_mut() {
        sel(f).clear();
    }
}

// ---------------------------------------------------------------------
// Shared phase context
// ---------------------------------------------------------------------

/// Everything a phase body needs, shareable across worker threads. The
/// mutable network state is exposed through [`DisjointMut`] views; the
/// configuration and geometry are plain shared references.
pub(crate) struct PhaseCtx<'a> {
    pub cfg: &'a SimConfig,
    pub mesh: &'a Mesh,
    pub routing: &'a Routing,
    /// Version counter for `routing` (RC memo invalidation and the
    /// descramble ring's search window).
    pub routing_epoch: u32,
    pub dead_links: &'a [LinkId],
    pub link_dead: &'a [bool],
    pub routers: DisjointMut<'a, Router>,
    pub links: LanesView<'a>,
    pub link_metrics: DisjointMut<'a, LinkMetrics>,
    pub router_active: DisjointMut<'a, bool>,
    /// Hierarchical active sets (superset hints — every consumer
    /// re-checks the authoritative predicate; see [`crate::activeset`]).
    /// `router_set` holds the routers that may be able to act; the link
    /// sets are indexed by partition *position* via the maps below.
    pub router_set: &'a ActiveSet,
    /// Routers holding work that no stage can move (see
    /// [`Router::is_blocked`]): out of `router_set` until a wake.
    pub parked: &'a ActiveSet,
    pub fwd_set: &'a ActiveSet,
    pub rev_set: &'a ActiveSet,
    pub launch_set: &'a ActiveSet,
    pub dst_pos: &'a [u16],
    pub dst_order: &'a [u16],
    pub src_pos: &'a [u16],
    pub src_order: &'a [u16],
    /// Whether the structured tracer is armed (`cfg.trace`): gates every
    /// `p*_kinds` push so the disabled path stays zero-cost.
    pub tracing: bool,
    /// Whether this cycle's scoped phase timers run (the telemetry plane
    /// is armed and samples this cycle, every `profile_every` cycles).
    pub profile: bool,
    /// Whether this cycle's engine timeline is being sampled (implies
    /// `profile`).
    pub timeline: bool,
    /// Wall-clock origin for engine-timeline offsets.
    pub epoch: std::time::Instant,
}

/// The three barrier-separated phase groups (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Group {
    G1,
    G2,
    G3,
}

/// Run one phase group for one shard. Called by the owning worker (or
/// the caller's thread for shard 0 / the single-shard path).
pub(crate) fn run_group(
    ctx: &PhaseCtx<'_>,
    plan: &ShardPlan,
    fx: &mut ShardFx,
    g: Group,
    now: u64,
) {
    if ctx.profile {
        run_group_timed(ctx, plan, fx, g, now);
        return;
    }
    match g {
        Group::G1 => {
            refresh_active(ctx, plan, now);
            phase_link_delivery(ctx, plan, fx, now);
            phase_resolve_holds(ctx, plan, fx, now);
        }
        Group::G2 => {
            phase_acks_and_credits(ctx, plan, fx, now);
            phase_launch(ctx, plan, fx, now);
        }
        Group::G3 => {
            phase_st(ctx, plan, fx, now);
            phase_sa(ctx, plan, fx, now);
            phase_va_rc(ctx, plan, now);
        }
    }
}

/// The telemetry-armed variant of [`run_group`]: the identical phase
/// calls wrapped in scoped timers. Timings land only in the shard's
/// side-band scratch; no phase reads them, so arming telemetry cannot
/// change simulated state. The G1 timer for `link_delivery` also covers
/// the active-set refresh that precedes it.
fn run_group_timed(ctx: &PhaseCtx<'_>, plan: &ShardPlan, fx: &mut ShardFx, g: Group, now: u64) {
    use std::time::Instant;
    let g0 = Instant::now();
    let gi = match g {
        Group::G1 => {
            refresh_active(ctx, plan, now);
            phase_link_delivery(ctx, plan, fx, now);
            let t1 = Instant::now();
            fx.tel_phase_ns[0] += t1.duration_since(g0).as_nanos() as u64;
            phase_resolve_holds(ctx, plan, fx, now);
            fx.tel_phase_ns[1] += t1.elapsed().as_nanos() as u64;
            0
        }
        Group::G2 => {
            phase_acks_and_credits(ctx, plan, fx, now);
            let t1 = Instant::now();
            fx.tel_phase_ns[2] += t1.duration_since(g0).as_nanos() as u64;
            phase_launch(ctx, plan, fx, now);
            fx.tel_phase_ns[3] += t1.elapsed().as_nanos() as u64;
            1
        }
        Group::G3 => {
            phase_st(ctx, plan, fx, now);
            let t1 = Instant::now();
            fx.tel_phase_ns[4] += t1.duration_since(g0).as_nanos() as u64;
            phase_sa(ctx, plan, fx, now);
            let t2 = Instant::now();
            fx.tel_phase_ns[5] += t2.duration_since(t1).as_nanos() as u64;
            phase_va_rc(ctx, plan, now);
            fx.tel_phase_ns[6] += t2.elapsed().as_nanos() as u64;
            2
        }
    };
    if ctx.timeline {
        let start_ns = g0.duration_since(ctx.epoch).as_nanos() as u64;
        let dur_ns = (g0.elapsed().as_nanos() as u64).max(1);
        fx.tel_group_spans[gi] = (start_ns, dur_ns);
    }
}

/// The G1 active-set refresh for one shard's band: a router with no
/// buffered, held, or crossbar-pending flit skips phases 2/5/6/7, and so
/// does a blocked one, which moves to `parked`. Arrivals below flip bits
/// back on eagerly; they can only target routers in this same band
/// (links_dst ⊆ band). Only bitmap-raised routers can have gained work or
/// become movable since they were last visited (every activation and
/// wake site sets the bit), so the scan walks set bits instead of the
/// whole band. A clear bit means the router is idle, and its bool is
/// already false, or parked, and its bool is already true, so skipping
/// the write leaves `router_active` exactly as the linear scan would.
///
/// A router whose input VCs changed state last cycle is kept scheduled
/// without testing the predicate: it was moving, and parking it one
/// visit later is always safe.
fn refresh_active(ctx: &PhaseCtx<'_>, plan: &ShardPlan, now: u64) {
    ctx.router_set.for_each_set_in(plan.routers.clone(), |r| {
        let router = ctx.routers.idx(r);
        let w = router.has_phase_work();
        *ctx.router_active.idx(r) = w;
        if w && !router.changed_in(now.wrapping_sub(1)) && router.is_blocked(ctx.cfg, ctx.routing) {
            ctx.router_set.clear(r);
            ctx.parked.set(r);
            return;
        }
        if !w {
            ctx.router_set.clear(r);
        }
        if ctx.parked.get(r) {
            ctx.parked.clear(r);
        }
    });
}

// Phase 1: flits completing link traversal are decoded and judged. Three
// passes over the shard's raised forward-wire bits so the fault layer and
// the SECDED kernel batch over a dense arrival list: (1) collect arrivals
// off the wires (clearing each bit — a taken wire is empty, and `LT_CYCLES
// == 1` means a raised bit is always due), (2) fault traversal + decode in
// a tight loop over the dense list, (3) detector/buffer handling in the
// same ascending link order the sequential engine uses.
fn phase_link_delivery(ctx: &PhaseCtx<'_>, plan: &ShardPlan, fx: &mut ShardFx, now: u64) {
    let mut arrivals = std::mem::take(&mut fx.p1_arrivals);
    let mut decodes = std::mem::take(&mut fx.p1_decodes);
    arrivals.clear();
    decodes.clear();
    ctx.fwd_set.for_each_set_in(plan.dst_range.clone(), |pos| {
        ctx.fwd_set.clear(pos);
        let li16 = ctx.dst_order[pos];
        if let Some(lf) = ctx.links.take_arrival(li16 as usize, now) {
            arrivals.push((li16, lf));
        }
    });
    for (li16, lf) in arrivals.iter_mut() {
        *lf = ctx.links.traverse(*li16 as usize, now, *lf);
        decodes.push(Secded::decode(lf.codeword));
    }
    for (&(li16, lf), &decode) in arrivals.iter().zip(decodes.iter()) {
        let link = LinkId(li16);
        let (_, dir) = ctx.mesh.link_source(link);
        let dst = ctx.mesh.link_dest(link);
        let in_port = Port::Net(dir.opposite());
        handle_arrival(ctx, fx, now, link, dst, in_port, lf, decode);
    }
    fx.p1_arrivals = arrivals;
    fx.p1_decodes = decodes;
}

#[allow(clippy::too_many_arguments)]
fn handle_arrival(
    ctx: &PhaseCtx<'_>,
    fx: &mut ShardFx,
    now: u64,
    link: LinkId,
    dst: NodeId,
    in_port: Port,
    lf: LinkFlit,
    decode: Decode,
) {
    // Whatever happens below (buffer write, delayed hold, pending
    // scramble), the destination router now has phase work.
    *ctx.router_active.idx(dst.index()) = true;
    let li = link.index();
    match decode {
        Decode::Corrected { .. } => {
            fx.stats.corrected_faults += 1;
            ctx.link_metrics.idx(li).ecc_corrected.inc();
            if ctx.tracing {
                fx.p1_kinds.push((
                    link.0,
                    TraceKind::EccCorrected {
                        flit: lf.flit.id,
                        packet: lf.flit.packet,
                        link,
                    },
                ));
            }
        }
        Decode::Uncorrectable { .. } => {
            fx.stats.uncorrectable_faults += 1;
            ctx.link_metrics.idx(li).ecc_uncorrectable.inc();
            if ctx.tracing {
                fx.p1_kinds.push((
                    link.0,
                    TraceKind::EccDetected {
                        flit: lf.flit.id,
                        packet: lf.flit.packet,
                        link,
                    },
                ));
            }
        }
        Decode::Clean { .. } => {}
    }
    let key = (lf.flit.packet, lf.flit.seq);
    let obf_info = lf.obf.map(|o| (o.attempt, o.plan.method.undo_penalty()));
    let mitigation = ctx.cfg.mitigation;
    let unit = &mut ctx.routers.idx(dst.index()).inputs[in_port.index()];
    let verdict = unit.detector.on_flit(key, &decode, obf_info);

    let mut accepted = matches!(
        verdict.action,
        DetectorAction::Accept | DetectorAction::AcceptObfuscated { .. }
    );
    // Receiver-side go-back-N ordering: an accepted flit must be the
    // next expected one on its VC, else it is NACKed despite decoding
    // cleanly (the upstream will replay in order).
    if accepted && !wire_in_order(unit, &lf) {
        accepted = false;
    }
    // An accepted flit wakes a parked router. A NACK changes only the
    // detector and the reverse wire, which no router stage reads.
    if accepted || !ctx.parked.get(dst.index()) {
        ctx.router_set.set(dst.index());
    }

    if accepted {
        wire_advance(unit, &lf);
        unit.remember_word(lf.flit.id, lf.flit.word, ctx.routing_epoch);
        let order = unit.take_order();
        match verdict.action {
            DetectorAction::AcceptObfuscated { penalty } => {
                let obf = lf.obf.expect("obfuscated accept implies metadata");
                if let Some(partner) = obf.partner {
                    unit.pending_scrambles.push(PendingScramble {
                        flit: lf.flit,
                        vc: lf.vc,
                        partner,
                        arrived: now,
                        penalty,
                        order,
                    });
                } else {
                    unit.delayed.push(DelayedEntry {
                        ready: now + penalty as u64,
                        vc: lf.vc,
                        flit: lf.flit,
                        order,
                    });
                }
                fx.p1_events.push((
                    link.0,
                    SimEvent::ObfuscationSucceeded {
                        link,
                        plan: obf.plan,
                        cycle: now,
                    },
                ));
            }
            _ => {
                // Preserve order behind any same-VC flits still paying
                // an obfuscation stall: queue behind them (the release
                // logic in `take_ready_delayed` is order-gated).
                let held = unit.delayed.iter().any(|d| d.vc == lf.vc)
                    || unit.pending_scrambles.iter().any(|p| p.vc == lf.vc);
                if held {
                    unit.delayed.push(DelayedEntry {
                        ready: now,
                        vc: lf.vc,
                        flit: lf.flit,
                        order,
                    });
                } else {
                    ctx.routers
                        .idx(dst.index())
                        .buffer_write(in_port, lf.vc, lf.flit, now);
                }
            }
        }
        if ctx.tracing {
            fx.p1_kinds.push((
                link.0,
                TraceKind::FlitAccepted {
                    flit: lf.flit.id,
                    packet: lf.flit.packet,
                    link,
                    obfuscated: lf.obf.is_some(),
                },
            ));
        }
        let obf_success = lf.obf.map(|o| o.plan);
        ctx.links.send_ack(
            li,
            now,
            AckMsg {
                flit: lf.flit.id,
                kind: AckKind::Ack { obf_success },
            },
        );
        ctx.rev_set.set(ctx.src_pos[li] as usize);
    } else {
        let lob_attempt = match verdict.action {
            DetectorAction::RetransmitWithLob { attempt } if mitigation => Some(attempt),
            _ => None,
        };
        ctx.link_metrics.idx(li).nacks.inc();
        if ctx.tracing {
            fx.p1_kinds.push((
                link.0,
                TraceKind::FlitNacked {
                    flit: lf.flit.id,
                    packet: lf.flit.packet,
                    link,
                    lob_requested: lob_attempt.is_some(),
                },
            ));
        }
        ctx.links.send_ack(
            li,
            now,
            AckMsg {
                flit: lf.flit.id,
                kind: AckKind::Nack { lob_attempt },
            },
        );
        ctx.rev_set.set(ctx.src_pos[li] as usize);
    }

    if verdict.run_bist && mitigation {
        let report = Bist::scan(ctx.links.faults_mut(li));
        fx.stats.bist_scans += 1;
        ctx.link_metrics.idx(li).bist_scans.inc();
        if ctx.tracing {
            fx.p1_kinds.push((
                link.0,
                TraceKind::BistScan {
                    link,
                    passed: report.passed(),
                },
            ));
        }
        let unit = &mut ctx.routers.idx(dst.index()).inputs[in_port.index()];
        unit.detector.on_bist_result(report.passed());
        fx.p1_events.push((
            link.0,
            SimEvent::BistRan {
                link,
                passed: report.passed(),
                cycle: now,
            },
        ));
    }
    // Report classification changes (faults and obfuscation responses
    // both move the detector's belief). A clean, un-obfuscated arrival
    // changes no fault record and runs no BIST scan, so the class it
    // would recompute is the one already reported (DESIGN §16).
    let detector_moved = !matches!(decode, Decode::Clean { .. }) || lf.obf.is_some();
    if mitigation && detector_moved {
        let unit = &mut ctx.routers.idx(dst.index()).inputs[in_port.index()];
        let class = unit.detector.link_class();
        if class != unit.reported_class {
            unit.reported_class = class;
            if ctx.tracing {
                fx.p1_kinds
                    .push((link.0, TraceKind::LinkClassified { link, class }));
            }
            fx.p1_events.push((
                link.0,
                SimEvent::LinkClassified {
                    link,
                    class,
                    cycle: now,
                },
            ));
        }
    }
}

/// Wire-side ordering check for an arriving flit: heads may only start
/// once the previous packet's wire stream closed; body/tail flits must
/// arrive in sequence.
fn wire_in_order(unit: &crate::input::InputUnit, lf: &LinkFlit) -> bool {
    let ivc = &unit.vcs[lf.vc.index()];
    if lf.flit.kind.carries_header() {
        ivc.wire_packet.is_none()
    } else {
        ivc.wire_packet == Some(lf.flit.packet) && lf.flit.seq == ivc.expected_seq
    }
}

/// Advance wire-side ordering state after accepting a flit (tracked
/// separately from the wormhole state machine, which may lag while the
/// head sits in RC/VA).
fn wire_advance(unit: &mut crate::input::InputUnit, lf: &LinkFlit) {
    let ivc = &mut unit.vcs[lf.vc.index()];
    if lf.flit.kind.closes_packet() {
        ivc.wire_packet = None;
        ivc.expected_seq = 0;
    } else if lf.flit.kind.carries_header() {
        ivc.wire_packet = Some(lf.flit.packet);
        ivc.expected_seq = 1;
    } else {
        ivc.expected_seq += 1;
    }
}

// Phase 2: scrambles whose partner arrived + expired undo stalls.
fn phase_resolve_holds(ctx: &PhaseCtx<'_>, plan: &ShardPlan, fx: &mut ShardFx, now: u64) {
    let ready = &mut fx.ready;
    ctx.router_set.for_each_set_in(plan.routers.clone(), |r| {
        if !*ctx.router_active.idx(r) {
            return;
        }
        let ports = ctx.routers.idx(r).inputs.len();
        for p in 0..ports {
            {
                let unit = &mut ctx.routers.idx(r).inputs[p];
                if unit.delayed.is_empty() && unit.pending_scrambles.is_empty() {
                    continue;
                }
                unit.resolve_scrambles(now);
                ready.clear();
                unit.take_ready_delayed_into(now, ready);
            }
            for &(vc, flit) in ready.iter() {
                let port = Port::from_index(p);
                ctx.routers.idx(r).buffer_write(port, vc, flit, now);
            }
        }
    });
}

// Phase 3: ACK/NACK and credit returns reach the upstream output units.
fn phase_acks_and_credits(ctx: &PhaseCtx<'_>, plan: &ShardPlan, fx: &mut ShardFx, now: u64) {
    let budget = ctx.cfg.retry_budget;
    let mitigation = ctx.cfg.mitigation;
    let ShardFx {
        acks,
        credit_vcs,
        stats,
        p3_kinds,
        p3_events,
        p3_quar,
        ..
    } = fx;
    ctx.rev_set.for_each_set_in(plan.src_range.clone(), |pos| {
        let li16 = ctx.src_order[pos];
        let li = li16 as usize;
        if ctx.links.reverse_idle(li) {
            ctx.rev_set.clear(pos);
            return;
        }
        let link = LinkId(li16);
        let (src, dir) = ctx.mesh.link_source(link);
        acks.clear();
        ctx.links.take_acks_into(li, now, acks);
        // Credit settlement is batched into per-VC counts unless a
        // sabotage hook is configured: the plain path only ever adds
        // `credits[vc] += 1` (commutative), while `LeakCredit` counts
        // individual messages in arrival order and must see each one.
        let batch = ctx.cfg.sabotage.is_none();
        let mut counts = [0u32; 16];
        if batch {
            debug_assert!((ctx.cfg.vcs as usize) <= counts.len());
            ctx.links.take_credit_counts_into(li, now, &mut counts);
        } else {
            credit_vcs.clear();
            ctx.links.take_credits_into(li, now, credit_vcs);
        }
        // Entries stamped `now + 1` (pushed by P1 earlier this cycle)
        // stay queued; only a fully drained reverse channel drops the
        // bit. P6 pushes later this cycle re-raise it.
        if ctx.links.reverse_idle(li) {
            ctx.rev_set.clear(pos);
        }
        // An ACK or a credit can free a retransmission slot, an output
        // VC or a downstream buffer slot, so it wakes a parked source
        // router in time for this cycle's G3. A NACK only re-queues an
        // entry for launch, which no router stage reads.
        if ctx.parked.get(src.index())
            && (acks.iter().any(|a| matches!(a.kind, AckKind::Ack { .. }))
                || if batch {
                    counts.iter().any(|&c| c != 0)
                } else {
                    !credit_vcs.is_empty()
                })
        {
            ctx.router_set.set(src.index());
        }
        // A link with no output unit cannot have carried traffic;
        // stray reverse-channel messages are dropped, not panicked on.
        let Some(out) = ctx.routers.idx(src.index()).outputs[dir.index()].as_mut() else {
            return;
        };
        for ack in acks.iter() {
            match ack.kind {
                AckKind::Ack { obf_success } => {
                    if let Some(entry) = out.ack(ack.flit, obf_success, now) {
                        ctx.link_metrics
                            .idx(li)
                            .delivery_attempts
                            .record(entry.attempts as u64);
                    }
                }
                AckKind::Nack { lob_attempt } => {
                    out.nack(ack.flit, lob_attempt);
                    stats.retransmissions += 1;
                    // A replay that just had an L-Ob plan attached is a
                    // method selection: record it for the forensics
                    // timeline and the per-link counters.
                    if lob_attempt.is_some() {
                        if let Some(e) = out.entries.iter().find(|e| e.flit.id == ack.flit) {
                            if let Some(ow) = e.obf {
                                let (flit, packet) = (e.flit.id, e.flit.packet);
                                ctx.link_metrics.idx(li).lob_selections.inc();
                                if ctx.tracing {
                                    p3_kinds.push((
                                        li16,
                                        TraceKind::LobSelected {
                                            flit,
                                            packet,
                                            link,
                                            plan: ow.plan,
                                            attempt: ow.attempt,
                                        },
                                    ));
                                }
                            }
                        }
                    }
                    let Some(budget) = budget else {
                        continue;
                    };
                    // Bounded retransmission: one budget of retries
                    // earns forced obfuscation (when mitigation has
                    // something to offer), a second exhausted budget
                    // condemns the link to quarantine. Without
                    // mitigation there is no middle rung.
                    let Some(idx) = out.entries.iter().position(|e| e.flit.id == ack.flit) else {
                        continue;
                    };
                    let attempts = out.entries[idx].attempts;
                    let quarantine_at = if mitigation {
                        budget.saturating_mul(2)
                    } else {
                        budget
                    };
                    if attempts >= quarantine_at.max(1) {
                        // `p3_quar` holds only this shard's links, but a
                        // link is pushed only while its owner processes
                        // it, so the shard-local dedup is exactly the
                        // sequential global dedup restricted to links
                        // that could appear at all.
                        if !ctx.dead_links.contains(&link) && !p3_quar.contains(&li16) {
                            p3_quar.push(li16);
                        }
                    } else if mitigation && attempts >= budget && out.force_obfuscate(idx).is_some()
                    {
                        stats.budget_escalations += 1;
                        ctx.link_metrics.idx(li).lob_selections.inc();
                        if ctx.tracing {
                            p3_kinds.push((
                                li16,
                                TraceKind::LobEscalated {
                                    flit: ack.flit,
                                    link,
                                    attempts,
                                },
                            ));
                        }
                        p3_events.push((
                            li16,
                            SimEvent::RetryBudgetEscalated {
                                link,
                                flit: ack.flit,
                                attempts,
                                cycle: now,
                            },
                        ));
                    }
                }
            }
        }
        if batch {
            out.settle_credits(&counts, ctx.cfg.vc_depth);
            return;
        }
        for &vc in credit_vcs.iter() {
            // Conformance self-test hook: leak every Nth credit. The
            // counter lives on the output unit so the leak pattern is
            // identical at every shard count.
            if let Some(Sabotage::LeakCredit { every }) = ctx.cfg.sabotage {
                out.sab_credit_seen += 1;
                if out.sab_credit_seen.is_multiple_of(every.max(1) as u64) {
                    continue;
                }
            }
            out.credits[vc.index()] += 1;
            debug_assert!(out.credits[vc.index()] <= ctx.cfg.vc_depth);
        }
    });
}

// Phase 4: drive retransmission-buffer heads onto idle links. Iterates
// the raised launch bits (wires whose output unit may hold entries); the
// predicate checks are the sequential ones, reordered so the emptiness
// check (which decides whether the bit may drop) runs first — all three
// are pure reads, so the reorder is observation-equivalent.
fn phase_launch(ctx: &PhaseCtx<'_>, plan: &ShardPlan, fx: &mut ShardFx, now: u64) {
    let p4_kinds = &mut fx.p4_kinds;
    ctx.launch_set
        .for_each_set_in(plan.src_range.clone(), |pos| {
            let li16 = ctx.src_order[pos];
            let li = li16 as usize;
            let link = LinkId(li16);
            let (src, dir) = ctx.mesh.link_source(link);
            let cfg = ctx.cfg;
            let Some(out) = ctx.routers.idx(src.index()).outputs[dir.index()].as_mut() else {
                ctx.launch_set.clear(pos);
                return;
            };
            // Nothing buffered for retransmission ⇒ nothing can launch, and
            // nothing will until the ST stage pushes a fresh entry (which
            // re-raises this bit), so it can drop. (Skipping is exact: the
            // send arbiter never advances when every predicate is false.)
            if out.entries.is_empty() {
                ctx.launch_set.clear(pos);
                return;
            }
            // Dead or occupied wire: the entries still want out, keep the bit.
            if ctx.link_dead[li] || !ctx.links.idle(li) {
                return;
            }
            let Some(idx) = out.select_send(|vc| cfg.tdm_slot_open(vc, now)) else {
                return;
            };
            if cfg.mitigation {
                out.maybe_protect(idx);
            }
            let obf = out.resolve_obf_for_send(idx);
            let entry_flit = out.entries[idx].flit;
            let vc = out.entries[idx].vc;
            let wire_word = match obf {
                None => entry_flit.word,
                Some(ow) => {
                    let key = ow
                        .partner
                        .and_then(|pid| {
                            out.entries
                                .iter()
                                .find(|e| e.flit.id == pid)
                                .map(|e| e.flit.word)
                        })
                        .unwrap_or(0);
                    ow.plan.apply(entry_flit.word, key)
                }
            };
            out.mark_sent(idx, now);
            let attempt = out.entries[idx].attempts;
            ctx.link_metrics.idx(li).flits.inc();
            if attempt > 1 {
                ctx.link_metrics.idx(li).retransmissions.inc();
            }
            if ctx.tracing {
                p4_kinds.push((
                    li16,
                    TraceKind::FlitLaunched {
                        flit: entry_flit.id,
                        packet: entry_flit.packet,
                        link,
                        attempt,
                        obf: obf.map(|o| o.plan),
                    },
                ));
            }
            ctx.links.launch(
                li,
                now,
                LinkFlit {
                    flit: entry_flit,
                    codeword: Secded::encode(wire_word),
                    wire_word,
                    vc,
                    obf,
                },
            );
            // The wire is now occupied: raise its forward bit for the
            // destination shard's P1 next cycle.
            ctx.fwd_set.set(ctx.dst_pos[li] as usize);
        });
}

// Phase 5: crossbar traversals commit; local ejections deliver. The
// per-ejection bookkeeping (stats, latency, events) is deferred to the
// commit step: it touches global maps (packet birth cycles) and must run
// in ascending router order, which the commit's shard-ordered walk gives
// for free.
fn phase_st(ctx: &PhaseCtx<'_>, plan: &ShardPlan, fx: &mut ShardFx, now: u64) {
    let ShardFx {
        ejections,
        p5_ejections,
        progress,
        ..
    } = fx;
    ctx.router_set.for_each_set_in(plan.routers.clone(), |r| {
        if !*ctx.router_active.idx(r) {
            return;
        }
        ejections.clear();
        ctx.routers.idx(r).st_stage_into(now, ejections);
        if !ejections.is_empty() {
            *progress = true;
        }
        for &ej in ejections.iter() {
            p5_ejections.push((r as u16, ej));
        }
        // Crossbar traversals may have pushed fresh retransmission
        // entries; raise the launch bit of every outgoing wire that now
        // has something to send. This is the only site that grows
        // `entries` (`OutputUnit::push` is called solely from the ST
        // stage), so P4's emptiness-gated clear cannot lose work —
        // crucially, `has_phase_work` ignores retransmission entries, so
        // the launch bit (not the router bit) is what keeps a draining
        // retransmission buffer scheduled.
        let node = NodeId(r as u16);
        for d in Direction::ALL {
            let pending = ctx.routers.idx(r).outputs[d.index()]
                .as_ref()
                .is_some_and(|o| !o.entries.is_empty());
            if pending {
                if let Some(l) = ctx.mesh.link_out(node, d) {
                    ctx.launch_set.set(ctx.src_pos[l.index()] as usize);
                }
            }
        }
    });
}

// Phase 6: switch allocation; credits return upstream. The feeding link
// of any input port of router `r` has destination `r`, so the pushes
// stay inside this shard's `links_dst` ownership set.
fn phase_sa(ctx: &PhaseCtx<'_>, plan: &ShardPlan, fx: &mut ShardFx, now: u64) {
    let credits = &mut fx.credits;
    ctx.router_set.for_each_set_in(plan.routers.clone(), |r| {
        if !*ctx.router_active.idx(r) {
            return;
        }
        // Conformance self-test hook: the sabotaged router never
        // performs switch allocation (a dropped SA grant, forever).
        if let Some(Sabotage::StallSaRouter { router }) = ctx.cfg.sabotage {
            if router as usize == r {
                return;
            }
        }
        let node = NodeId(r as u16);
        credits.clear();
        ctx.routers.idx(r).sa_stage_into(now, ctx.cfg, credits);
        for &cr in credits.iter() {
            // Input port Net(d) at `node` is fed by neighbour(node, d)
            // over that neighbour's link in direction opposite(d).
            if let Some(feeding) = ctx
                .mesh
                .neighbor(node, cr.in_dir)
                .and_then(|nb| ctx.mesh.link_out(nb, cr.in_dir.opposite()))
            {
                debug_assert!(
                    plan.links_dst.binary_search(&feeding.0).is_ok(),
                    "credit pushed into a link another shard owns"
                );
                ctx.links.send_credit(feeding.index(), now, cr.vc);
                ctx.rev_set.set(ctx.src_pos[feeding.index()] as usize);
            }
        }
    });
}

// Phase 7: VC allocation then route computation.
fn phase_va_rc(ctx: &PhaseCtx<'_>, plan: &ShardPlan, now: u64) {
    ctx.router_set.for_each_set_in(plan.routers.clone(), |r| {
        if !*ctx.router_active.idx(r) {
            return;
        }
        ctx.routers.idx(r).va_stage(now, ctx.cfg, ctx.routing);
        ctx.routers
            .idx(r)
            .rc_stage(now, ctx.mesh, ctx.routing, ctx.routing_epoch);
    });
}

// ---------------------------------------------------------------------
// Worker pool
// ---------------------------------------------------------------------

/// A job posted to the pool: raw pointers into the caller's stack/heap,
/// valid strictly between the start and done barriers (the caller blocks
/// on the done barrier before any of them can dangle).
#[derive(Clone, Copy)]
enum Job {
    Idle,
    Run {
        ctx: *const PhaseCtx<'static>,
        plans: *const ShardPlan,
        nshards: usize,
        fx: *mut ShardFx,
        group: Group,
        now: u64,
    },
    Exit,
}

// SAFETY: the pointers inside `Run` are only dereferenced between the
// start/done barrier pair during which the posting thread guarantees
// their validity and the shard partition guarantees exclusive access.
unsafe impl Send for Job {}

struct PoolShared {
    start: Barrier,
    done: Barrier,
    job: UnsafeCell<Job>,
}

// SAFETY: `job` is written by the posting thread only while every worker
// is parked before `start` (the previous round's `done` barrier, or pool
// construction, established the happens-before edge) and read by workers
// only after `start`.
unsafe impl Sync for PoolShared {}

/// Persistent worker pool for the sharded cycle loop. Worker `w` runs
/// shard `w + 1`; the posting thread doubles as shard 0 so `threads`
/// total threads serve `threads` shards. Workers park on a blocking
/// barrier between cycles (cheap on oversubscribed machines) and are
/// joined on drop.
pub(crate) struct Pool {
    shared: Arc<PoolShared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Pool {
    pub(crate) fn new(extra_workers: usize) -> Self {
        let shared = Arc::new(PoolShared {
            start: Barrier::new(extra_workers + 1),
            done: Barrier::new(extra_workers + 1),
            job: UnsafeCell::new(Job::Idle),
        });
        let workers = (0..extra_workers)
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("noc-shard-{}", w + 1))
                    .spawn(move || worker_loop(&shared, w + 1))
                    .expect("spawn shard worker")
            })
            .collect();
        Self { shared, workers }
    }

    /// Execute one phase group across all shards: shard 0 on the calling
    /// thread, shards 1.. on the pool. Returns after every shard's group
    /// work is complete (the done barrier).
    pub(crate) fn run(
        &self,
        ctx: &PhaseCtx<'_>,
        plans: &[ShardPlan],
        fx: *mut ShardFx,
        group: Group,
        now: u64,
    ) {
        // SAFETY: all workers are parked before `start` (see PoolShared).
        unsafe {
            *self.shared.job.get() = Job::Run {
                ctx: (ctx as *const PhaseCtx<'_>).cast::<PhaseCtx<'static>>(),
                plans: plans.as_ptr(),
                nshards: plans.len(),
                fx,
                group,
                now,
            };
        }
        self.shared.start.wait();
        // SAFETY: shard 0's fx; workers only touch fx[1..].
        run_group(ctx, &plans[0], unsafe { &mut *fx }, group, now);
        self.shared.done.wait();
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        // SAFETY: same protocol as `run`; Exit makes workers break
        // without re-reading the slot.
        unsafe {
            *self.shared.job.get() = Job::Exit;
        }
        self.shared.start.wait();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn worker_loop(shared: &PoolShared, wid: usize) {
    loop {
        shared.start.wait();
        // SAFETY: read-only access after the start barrier; the posting
        // thread does not touch the slot until after the done barrier.
        let job = unsafe { *shared.job.get() };
        match job {
            Job::Run {
                ctx,
                plans,
                nshards,
                fx,
                group,
                now,
            } => {
                if wid < nshards {
                    // SAFETY: pointers valid until the done barrier; this
                    // worker exclusively owns shard `wid`'s plan and fx.
                    unsafe {
                        run_group(&*ctx, &*plans.add(wid), &mut *fx.add(wid), group, now);
                    }
                }
                shared.done.wait();
            }
            Job::Exit => break,
            Job::Idle => {
                shared.done.wait();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_partition_routers_and_links() {
        let mesh = Mesh::paper();
        for shards in [1usize, 2, 3, 4, 7, 16, 64] {
            let plans = plan_shards(&mesh, shards);
            assert_eq!(plans.len(), shards.min(16));
            // Router bands: contiguous, disjoint, covering.
            let mut next = 0usize;
            for p in &plans {
                assert_eq!(p.routers.start, next);
                assert!(!p.routers.is_empty());
                next = p.routers.end;
            }
            assert_eq!(next, mesh.routers());
            // Each link appears exactly once per partition, ascending.
            for key in [0usize, 1] {
                let mut seen = vec![false; mesh.links()];
                for p in &plans {
                    let list = if key == 0 { &p.links_dst } else { &p.links_src };
                    assert!(list.windows(2).all(|w| w[0] < w[1]), "ascending");
                    for &l in list {
                        assert!(!seen[l as usize], "link {l} owned twice");
                        seen[l as usize] = true;
                    }
                }
                assert!(seen.iter().all(|&s| s), "every link owned");
            }
            // Ownership keys are honoured.
            for p in &plans {
                for &l in &p.links_dst {
                    assert!(p.routers.contains(&mesh.link_dest(LinkId(l)).index()));
                }
                for &l in &p.links_src {
                    assert!(p.routers.contains(&mesh.link_source(LinkId(l)).0.index()));
                }
            }
            // Position ranges: contiguous, sized to the link lists,
            // covering.
            let (mut dst_next, mut src_next) = (0usize, 0usize);
            for p in &plans {
                assert_eq!(p.dst_range.start, dst_next);
                assert_eq!(p.dst_range.len(), p.links_dst.len());
                dst_next = p.dst_range.end;
                assert_eq!(p.src_range.start, src_next);
                assert_eq!(p.src_range.len(), p.links_src.len());
                src_next = p.src_range.end;
            }
            assert_eq!(dst_next, mesh.links());
            assert_eq!(src_next, mesh.links());
        }
    }

    #[test]
    fn link_orders_are_inverse_bijections_in_shard_order() {
        let mesh = Mesh::paper();
        for shards in [1usize, 3, 16] {
            let plans = plan_shards(&mesh, shards);
            let o = link_orders(&plans, mesh.links());
            for li in 0..mesh.links() {
                assert_eq!(o.dst_order[o.dst_pos[li] as usize] as usize, li);
                assert_eq!(o.src_order[o.src_pos[li] as usize] as usize, li);
            }
            for p in &plans {
                // Each shard's positions are its dense range, ascending
                // link id within it.
                let dst: Vec<u16> = p.dst_range.clone().map(|pos| o.dst_order[pos]).collect();
                assert_eq!(dst, p.links_dst);
                let src: Vec<u16> = p.src_range.clone().map(|pos| o.src_order[pos]).collect();
                assert_eq!(src, p.links_src);
            }
        }
    }

    #[test]
    fn shard_count_is_clamped() {
        let mesh = Mesh::new(2, 2, 4);
        assert_eq!(plan_shards(&mesh, 0).len(), 1);
        assert_eq!(plan_shards(&mesh, 9).len(), 4);
        let big = Mesh::new(32, 32, 1);
        assert_eq!(plan_shards(&big, 1024).len(), MAX_SHARDS);
    }

    #[test]
    fn merge_keyed_reconstructs_global_order() {
        let mut fxs = vec![ShardFx::default(), ShardFx::default(), ShardFx::default()];
        // Disjoint ascending keys per shard, interleaved globally.
        fxs[0].p1_kinds = [0u16, 3, 9]
            .iter()
            .map(|&k| {
                (
                    k,
                    TraceKind::BistScan {
                        link: LinkId(k),
                        passed: true,
                    },
                )
            })
            .collect();
        fxs[1].p1_kinds = [1u16, 4]
            .iter()
            .map(|&k| {
                (
                    k,
                    TraceKind::BistScan {
                        link: LinkId(k),
                        passed: true,
                    },
                )
            })
            .collect();
        fxs[2].p1_kinds = [2u16, 8]
            .iter()
            .map(|&k| {
                (
                    k,
                    TraceKind::BistScan {
                        link: LinkId(k),
                        passed: true,
                    },
                )
            })
            .collect();
        let mut order = Vec::new();
        merge_keyed(
            &mut fxs,
            |f| &mut f.p1_kinds,
            |k| {
                if let TraceKind::BistScan { link, .. } = k {
                    order.push(link.0);
                }
            },
        );
        assert_eq!(order, vec![0, 1, 2, 3, 4, 8, 9]);
        assert!(fxs.iter().all(|f| f.p1_kinds.is_empty()), "lists drained");
    }

    #[test]
    fn merge_keyed_preserves_intra_key_order() {
        // Two records under the same key (one arrival emitting twice)
        // must stay in push order.
        let mut fxs = vec![ShardFx::default(), ShardFx::default()];
        fxs[0].p1_kinds = vec![
            (
                5,
                TraceKind::BistScan {
                    link: LinkId(5),
                    passed: true,
                },
            ),
            (
                5,
                TraceKind::BistScan {
                    link: LinkId(5),
                    passed: false,
                },
            ),
        ];
        fxs[1].p1_kinds = vec![(
            2,
            TraceKind::BistScan {
                link: LinkId(2),
                passed: true,
            },
        )];
        let mut order = Vec::new();
        merge_keyed(
            &mut fxs,
            |f| &mut f.p1_kinds,
            |k| {
                if let TraceKind::BistScan { link, passed } = k {
                    order.push((link.0, passed));
                }
            },
        );
        assert_eq!(order, vec![(2, true), (5, true), (5, false)]);
    }
}
