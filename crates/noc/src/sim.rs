//! The top-level cycle-accurate simulator.

use crate::activeset::ActiveSet;
use crate::config::SimConfig;
use crate::error::SimError;
use crate::fault::LinkFaults;
use crate::link::LinkLanes;
use crate::message::SimEvent;
use crate::metrics::MetricsRegistry;
use crate::router::{CreditSite, Router};
use crate::routing::Routing;
use crate::snapshot::{Reader, SnapshotError, Writer};
use crate::stats::{SimStats, Snapshot};
use crate::trace::{Record, TraceKind, TraceRecorder, TraceSink};
use crate::watchdog::{StallKind, StallReport};
use noc_ecc::{Decode, Secded};
use noc_types::{Direction, Flit, FlitId, LinkId, Mesh, NodeId, Packet, PacketId, Port, VcId};
use std::collections::{HashMap, HashSet, VecDeque};

/// Record a structured trace event iff tracing is armed. Expands to a
/// single `Option` test on the disabled path and borrows only the
/// `tracer` field, so it is legal while `routers`/`links`/`metrics` are
/// mutably borrowed.
macro_rules! emit {
    ($sim:expr, $cycle:expr, $kind:expr) => {
        if let Some(t) = $sim.tracer.as_mut() {
            t.record($cycle, $kind);
        }
    };
}

/// Anything that injects packets into the network.
pub trait TrafficSource {
    /// Called once per cycle; push the packets to inject this cycle.
    fn poll(&mut self, cycle: u64, out: &mut Vec<Packet>);

    /// True once the source will never produce another packet (lets a
    /// [`Stop::Drained`] run in [`Simulator::drive`] stop at the drain).
    fn done(&self) -> bool {
        false
    }

    /// Append this source's resume cursor (RNG state, position counters)
    /// for checkpointing. The default writes nothing — correct for
    /// stateless sources like [`NoTraffic`]; stateful sources walk one
    /// [`crate::snapshot::Persist`] value in both cursor methods.
    fn save_cursor(&mut self, _w: &mut Writer) {}

    /// Restore the cursor written by [`TrafficSource::save_cursor`],
    /// consuming exactly the bytes it wrote. Short or malformed input is
    /// an error, never a silently different traffic stream.
    fn load_cursor(&mut self, _r: &mut Reader<'_>) -> Result<(), SnapshotError> {
        Ok(())
    }

    /// Event-horizon lookahead for the idle skip [`Simulator::drive`]
    /// takes ([`Simulator::skip_idle_cycles`]): the earliest cycle
    /// `>= now` at which polling this source may either produce a packet
    /// or change its observable state (`done()`), when polled
    /// cycle-by-cycle from `now`. `None` promises the source will
    /// never produce again *and* that `done()` is already at its final
    /// value. The default `Some(now)` declares no lookahead at all, which
    /// disables fast-forward for this source — always correct.
    fn next_injection_at(&self, now: u64) -> Option<u64> {
        Some(now)
    }

    /// Advance internal cursors exactly as if `poll` had been called for
    /// every cycle in `[current, to)` — required so checkpointed source
    /// cursors and `done()` are bit-identical with fast-forward on or
    /// off. Only ever called with `to` at or below the horizon this
    /// source returned from [`TrafficSource::next_injection_at`], so a
    /// correct implementation drops nothing.
    fn skip_to(&mut self, _to: u64) {}
}

/// A source that never injects (for drain phases and unit tests).
pub struct NoTraffic;

impl TrafficSource for NoTraffic {
    fn poll(&mut self, _cycle: u64, _out: &mut Vec<Packet>) {}
    fn done(&self) -> bool {
        true
    }
    fn next_injection_at(&self, _now: u64) -> Option<u64> {
        None
    }
}

/// A source [`Simulator::drive`] can step: every sized
/// [`TrafficSource`], and `dyn TrafficSource` itself.
pub trait DynSource: TrafficSource {
    /// This source as the trait object [`Simulator::step`] takes.
    fn as_dyn(&mut self) -> &mut dyn TrafficSource;
}

impl<T: TrafficSource> DynSource for T {
    fn as_dyn(&mut self) -> &mut dyn TrafficSource {
        self
    }
}

impl DynSource for dyn TrafficSource + '_ {
    fn as_dyn(&mut self) -> &mut dyn TrafficSource {
        self
    }
}

/// Where [`Simulator::drive`] stops a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stop {
    /// At this cycle.
    At(u64),
    /// Once the source is done and the network holds no flit, with no
    /// [`Cue::Act`] pending; at the cycle `cap` otherwise.
    Drained {
        /// The cycle the run stops at if it has not drained by then.
        cap: u64,
    },
}

/// How the driver reached the cycle it shows its [`Hook`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Landing {
    /// The cycle the run started at.
    Start,
    /// One step.
    Step,
    /// An idle skip ([`Simulator::skip_idle_cycles`]).
    Skip,
}

/// What a [`Hook`] asks of the driver at a cycle it is shown. A cue for
/// the current cycle or an earlier one is no cue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cue {
    /// Nothing is due: skip as far as the stop allows.
    Free,
    /// Show the hook this cycle: a skip ends there, but the run may stop
    /// as drained before it.
    Look(u64),
    /// The hook acts at this cycle: a skip ends there, and the run does
    /// not stop as drained before it.
    Act(u64),
    /// End the run at this cycle (a run that has drained here still
    /// reports the drain).
    End,
}

/// A caller's part in a run of [`Simulator::drive`]: it is shown the
/// start and every cycle the run lands on, acts on the simulator and the
/// caller's own source there, and names the next cycle it must see.
/// `()` is the empty hook, and a closure is the hook of its [`Hook::at`].
pub trait Hook<S: ?Sized> {
    /// Step with [`Simulator::try_step`] and hand each error to
    /// [`Hook::stalled`]. A guarded run steps every cycle and never
    /// skips: the periodic invariant audit and the watchdog run inside
    /// `try_step`.
    const GUARDED: bool = false;

    /// Shown the cycle the run is at, and how it got there.
    fn at(&mut self, sim: &mut Simulator, source: &mut S, landing: Landing) -> Cue;

    /// A guarded step failed with `err`; the simulator stays usable.
    /// Return `true` to go on, `false` to end the run at this cycle.
    fn stalled(&mut self, sim: &mut Simulator, err: SimError) -> bool {
        panic!("guarded step failed at cycle {}: {err}", sim.cycle())
    }
}

impl<S: ?Sized> Hook<S> for () {
    fn at(&mut self, _: &mut Simulator, _: &mut S, _: Landing) -> Cue {
        Cue::Free
    }
}

impl<S: ?Sized, F: FnMut(&mut Simulator, &mut S, Landing) -> Cue> Hook<S> for F {
    fn at(&mut self, sim: &mut Simulator, source: &mut S, landing: Landing) -> Cue {
        self(sim, source, landing)
    }
}

/// The simulator: routers, links, injection queues, statistics.
///
/// ```
/// use noc_sim::{SimConfig, Simulator};
/// use noc_sim::sim::TrafficSource;
/// use noc_types::{NodeId, Packet, PacketId, VcId};
///
/// // One four-flit packet from router 0 to router 15.
/// struct One(Option<Packet>);
/// impl TrafficSource for One {
///     fn poll(&mut self, cycle: u64, out: &mut Vec<Packet>) {
///         if cycle == 0 {
///             out.extend(self.0.take());
///         }
///     }
///     fn done(&self) -> bool { self.0.is_none() }
/// }
///
/// let mut sim = Simulator::new(SimConfig::paper());
/// let pkt = Packet::new(PacketId(1), NodeId(0), NodeId(15), VcId(0), 0, 0, 4, 0);
/// let mut src = One(Some(pkt));
/// assert!(sim.run_to_quiescence(500, &mut src));
/// assert_eq!(sim.stats().delivered_packets, 1);
/// // Six hops × the 5-stage pipeline dominate the latency.
/// assert!(sim.stats().avg_latency() >= 30.0);
/// ```
pub struct Simulator {
    pub(crate) cfg: SimConfig,
    /// [`crate::snapshot::config_hash`] of `cfg`, computed by the first
    /// snapshot or restore and kept: `cfg` never changes after
    /// construction, and hashing its `Debug` text (link tables included)
    /// is a large share of building a simulator that never checkpoints.
    /// Derived state — never serialized.
    pub(crate) config_hash: Option<u64>,
    pub(crate) mesh: Mesh,
    pub(crate) routing: Routing,
    /// Version counter for `routing`, bumped wherever the routing
    /// function is replaced (explicit swap, quarantine reroute, restore)
    /// so every router's RC memo invalidates lazily. Derived state —
    /// never serialized.
    pub(crate) routing_epoch: u32,
    pub(crate) routers: Vec<Router>,
    /// The link datapath, structure-of-arrays (see [`crate::link`]).
    pub(crate) links: LinkLanes,
    pub(crate) dead_links: Vec<LinkId>,
    /// Injection queues, one per (core, VC class) so a stalled class never
    /// head-of-line blocks another (essential for TDM non-interference).
    /// Indexed `core * vcs + vc`.
    pub(crate) inj_queues: Vec<VecDeque<Flit>>,
    /// Round-robin pointer per core over its VC queues.
    pub(crate) inj_rr: Vec<u8>,
    /// Cores whose injection queues may hold flits, indexed by core: the
    /// injection phase walks only its set bits. Set when phase 8 queues
    /// a core's flits, cleared only after phase 8 has probed every one of
    /// that core's VC queues and found them empty. Derived state — never
    /// serialized; rebuilt all-set on construct/restore.
    pub(crate) inj_set: ActiveSet,
    /// Cores whose last probe found a waiting head and admitted nothing,
    /// indexed by core. Until SA grants from the core's local port
    /// ([`Router::local_grants`]) or the core queues a packet, phase 8
    /// charges the stall without probing again. Derived state — never
    /// serialized; cleared on construct, quarantine and restore.
    pub(crate) inj_blocked: Vec<bool>,
    pub(crate) cycle: u64,
    pub(crate) next_flit_id: u64,
    /// Injection cycle per in-flight packet (latency accounting).
    pub(crate) birth: std::collections::HashMap<noc_types::PacketId, u64>,
    pub(crate) stats: SimStats,
    pub(crate) events: Vec<SimEvent>,
    pub(crate) poll_buf: Vec<Packet>,
    /// Cycle of the last network progress event (an ejection anywhere, or
    /// an injection-queue flit admitted into a router) — the global
    /// watchdog's heartbeat.
    pub(crate) last_progress_cycle: u64,
    /// Links the retry-budget escalation condemned this cycle; quarantined
    /// at the end of `step` so phase ordering stays undisturbed.
    pub(crate) pending_quarantine: Vec<LinkId>,
    /// Fatal error raised inside `step` (a quarantine disconnected the
    /// mesh); surfaced by the next `try_step`.
    pub(crate) poisoned: Option<SimError>,
    /// Watchdog grace baseline: stall ages are measured from the later of
    /// this and the event's own timestamp, so each intervention
    /// (quarantine, trip) re-arms the detectors instead of re-tripping on
    /// survivors that inherited old timestamps.
    pub(crate) watchdog_armed_at: u64,
    /// Per-link / per-router counters, gauges, and histograms.
    pub(crate) metrics: MetricsRegistry,
    /// Structured event recorder, armed by `cfg.trace`. `None` when
    /// tracing is disabled — the zero-cost path.
    pub(crate) tracer: Option<TraceRecorder>,
    /// Aggregate counter values at the previous snapshot (delivered
    /// flits, retransmissions, uncorrectable faults), for the per-interval
    /// deltas in [`Snapshot`].
    pub(crate) snap_base: (u64, u64, u64),
    /// Per-router activity bits, recomputed each cycle from
    /// [`Router::has_phase_work`] and set eagerly when a phase hands a
    /// router new work (arrival, injection admit): quiescent routers skip
    /// the per-router pipeline phases entirely.
    pub(crate) router_active: Vec<bool>,
    /// `link_dead[i]` mirrors `dead_links` for O(1) hot-path lookup.
    pub(crate) link_dead: Vec<bool>,
    /// Routers that may be able to act (see [`crate::activeset`]): the
    /// per-router phases iterate only its set bits. Every router with
    /// phase work is in this set or in `parked`. Derived state — never
    /// serialized; rebuilt all-set on construct/restore/re-shard.
    pub(crate) router_set: ActiveSet,
    /// Routers whose phase work no stage can move
    /// ([`Router::is_blocked`]): left out of `router_set` until an
    /// accepted flit, an ACK or credit on one of their outputs, an
    /// injection admit, a purge or a routing change wakes them. Their
    /// `router_active` bool stays true. Derived state — never
    /// serialized; cleared on construct/restore/re-shard.
    pub(crate) parked: ActiveSet,
    /// Forward wires that may deliver next P1, indexed by the link's
    /// *destination-partition position* (`dst_pos`). Set at launch,
    /// cleared by the delivering shard.
    pub(crate) fwd_set: ActiveSet,
    /// Reverse wires that may carry ACKs/credits, indexed by the link's
    /// *source-partition position* (`src_pos`). Set at send_ack /
    /// send_credit, cleared once the reverse wire drains empty.
    pub(crate) rev_set: ActiveSet,
    /// Links whose retransmission entries may be non-empty (launch
    /// candidates for P4), indexed by `src_pos`. Set when the ST stage
    /// pushes an entry, cleared when P4 observes the entries empty.
    pub(crate) launch_set: ActiveSet,
    /// Link id → position in the shard-ordered `links_dst` partition
    /// (contiguous ascending range per shard), and the inverse.
    pub(crate) dst_pos: Vec<u16>,
    pub(crate) dst_order: Vec<u16>,
    /// Same permutation pair for the `links_src` partition.
    pub(crate) src_pos: Vec<u16>,
    pub(crate) src_order: Vec<u16>,
    /// Whether [`Simulator::skip_idle_cycles`] may fast-forward (on by
    /// default; `--no-skip` style A/B harnesses turn it off).
    pub(crate) fast_forward: bool,
    /// Cycles fast-forwarded so far. Diagnostic only — deliberately not
    /// in [`SimStats`], so goldens/snapshots are identical with
    /// fast-forward on or off.
    pub(crate) skipped_cycles: u64,
    /// Event counter for the periodic `OvercountDelivered` sabotage hook
    /// (only advanced while that sabotage is armed). Lives on the
    /// simulator — ejection bookkeeping is committed in sequential order
    /// at any thread count. (The `LeakCredit` counter similarly lives on
    /// each [`crate::output::OutputUnit`].)
    pub(crate) sabotage_eject_seen: u64,
    // Reusable scratch buffer so the steady-state cycle loop performs no
    // heap allocation (the per-phase scratch lives in each shard's
    // `ShardFx`; this one serves the sequential injection phase, which
    // also reuses `poll_buf` above).
    pub(crate) flit_scratch: Vec<Flit>,
    /// Shard ownership sets for the parallel engine: one entry per
    /// shard, always at least one. A single entry selects the inline
    /// sequential path (no pool, no barriers).
    pub(crate) plans: Vec<crate::par::ShardPlan>,
    /// Per-shard scratch buffers and buffered side effects.
    pub(crate) fx: Vec<crate::par::ShardFx>,
    /// Worker threads, spawned lazily on the first multi-shard step.
    pub(crate) pool: Option<crate::par::Pool>,
    /// When set, a stall diagnosed by [`Simulator::try_step`] also writes
    /// a post-mortem snapshot (`postmortem-cycle-<N>.snap`) into this
    /// directory before the error is surfaced.
    pub(crate) post_mortem_dir: Option<std::path::PathBuf>,
    /// The side-band telemetry plane (`noc::telemetry`); `None` (the
    /// default) keeps every hook a single branch and the goldens
    /// untouched. Armed via [`Simulator::set_telemetry`] rather than
    /// `SimConfig`, deliberately: telemetry must never enter the
    /// checkpoint config hash.
    pub(crate) telemetry: Option<Box<crate::telemetry::Telemetry>>,
    /// Wall-clock origin shared with the shard phase timers.
    pub(crate) epoch: std::time::Instant,
}

impl Simulator {
    /// Build a simulator over the configured mesh, all links healthy.
    pub fn new(cfg: SimConfig) -> Self {
        let mesh = cfg.mesh.clone();
        if *mesh.topology() == noc_types::Topology::Torus {
            // The dateline scheme needs a low and a high VC half, and the
            // TDM slot filter could intersect a dateline class to an empty
            // set of grantable VCs — a deadlock by construction.
            assert!(
                cfg.vcs >= 2,
                "a torus needs vcs >= 2 for the dateline VC classes"
            );
            assert!(
                cfg.qos == crate::config::QosMode::None,
                "TDM QoS partitioning is incompatible with torus dateline VCs"
            );
        }
        let routing = Routing::for_mesh(&mesh);
        let routers = (0..mesh.routers())
            .map(|r| Router::new(NodeId(r as u16), &mesh, &cfg))
            .collect();
        let links = LinkLanes::new(
            mesh.all_links()
                .map(|l| LinkFaults::healthy(0xB0C0_0000 + l.index() as u64))
                .collect(),
        );
        let cores = mesh.cores();
        let vcs = cfg.vcs as usize;
        let metrics = MetricsRegistry::new(mesh.links(), mesh.routers());
        let tracer = cfg.trace.map(TraceRecorder::new);
        let (n_routers, n_links) = (mesh.routers(), mesh.links());
        let plans = crate::par::plan_shards(&mesh, cfg.threads.unwrap_or(1));
        let fx = (0..plans.len())
            .map(|_| crate::par::ShardFx::default())
            .collect();
        let orders = crate::par::link_orders(&plans, n_links);
        Self {
            config_hash: None,
            cfg,
            mesh,
            routing,
            routing_epoch: 0,
            routers,
            links,
            dead_links: Vec::new(),
            inj_queues: (0..cores * vcs).map(|_| VecDeque::new()).collect(),
            inj_rr: vec![0; cores],
            inj_set: ActiveSet::new_all_set(cores),
            inj_blocked: vec![false; cores],
            cycle: 0,
            next_flit_id: 0,
            birth: std::collections::HashMap::new(),
            stats: SimStats::default(),
            events: Vec::new(),
            poll_buf: Vec::new(),
            last_progress_cycle: 0,
            pending_quarantine: Vec::new(),
            poisoned: None,
            watchdog_armed_at: 0,
            metrics,
            tracer,
            snap_base: (0, 0, 0),
            router_active: vec![true; n_routers],
            link_dead: vec![false; n_links],
            router_set: ActiveSet::new_all_set(n_routers),
            parked: ActiveSet::new_all_clear(n_routers),
            fwd_set: ActiveSet::new_all_set(n_links),
            rev_set: ActiveSet::new_all_set(n_links),
            launch_set: ActiveSet::new_all_set(n_links),
            dst_pos: orders.dst_pos,
            dst_order: orders.dst_order,
            src_pos: orders.src_pos,
            src_order: orders.src_order,
            fast_forward: true,
            skipped_cycles: 0,
            sabotage_eject_seen: 0,
            flit_scratch: Vec::new(),
            plans,
            fx,
            pool: None,
            post_mortem_dir: None,
            telemetry: None,
            epoch: std::time::Instant::now(),
        }
    }

    /// Re-shard the cycle engine onto `threads` threads (1 = the
    /// sequential path). The engine is stateless between cycles, so this
    /// is legal at any cycle boundary; the result stays bit-identical at
    /// every thread count. Benchmarks and the golden determinism suite
    /// use this to sweep thread counts without rebuilding the simulator.
    pub fn set_threads(&mut self, threads: usize) {
        self.pool = None;
        self.plans = crate::par::plan_shards(&self.mesh, threads.max(1));
        self.fx = (0..self.plans.len())
            .map(|_| crate::par::ShardFx::default())
            .collect();
        // The link-position permutations follow the plan; the activity
        // bitmaps reset to the conservative all-set state (they are
        // superset hints, so over-approximating is always sound).
        let orders = crate::par::link_orders(&self.plans, self.mesh.links());
        self.dst_pos = orders.dst_pos;
        self.dst_order = orders.dst_order;
        self.src_pos = orders.src_pos;
        self.src_order = orders.src_order;
        self.router_set.set_all();
        self.parked.clear_all();
        self.fwd_set.set_all();
        self.rev_set.set_all();
        self.launch_set.set_all();
    }

    /// Shards the cycle engine currently runs on (1 = sequential path).
    pub fn threads(&self) -> usize {
        self.plans.len()
    }

    // ------------------------------------------------------------------
    // Configuration and attack surface
    // ------------------------------------------------------------------

    /// The active configuration.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// The mesh geometry.
    pub fn mesh(&self) -> &Mesh {
        &self.mesh
    }

    /// Current simulation cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Access a link's fault layer (mount trojans, set transients/stuck-ats).
    pub fn link_faults_mut(&mut self, link: LinkId) -> &mut LinkFaults {
        self.links.faults_mut(link.index())
    }

    /// Immutable view of a link fault layer.
    pub fn link_faults(&self, link: LinkId) -> &LinkFaults {
        self.links.faults(link.index())
    }

    /// Assert/deassert the kill switch on every mounted trojan.
    pub fn arm_trojans(&mut self, on: bool) {
        for li in 0..self.links.len() {
            if let Some(t) = self.links.faults_mut(li).trojan.as_mut() {
                t.set_kill_switch(on);
            }
        }
    }

    /// Replace the routing function (rerouting baseline). VA's VC
    /// classes follow the routing function, so every parked router is
    /// woken.
    pub fn set_routing(&mut self, routing: Routing) {
        self.routing = routing;
        self.routing_epoch = self.routing_epoch.wrapping_add(1);
        self.router_set.set_all();
    }

    /// Declare links dead: nothing launches on them any more. Combine with
    /// [`Simulator::set_routing`] so traffic avoids them. A repeated id
    /// is kept once, at its first position.
    pub fn set_dead_links(&mut self, dead: Vec<LinkId>) {
        self.link_dead.fill(false);
        self.dead_links.clear();
        for l in dead {
            if !std::mem::replace(&mut self.link_dead[l.index()], true) {
                self.dead_links.push(l);
            }
        }
    }

    /// Links currently declared dead (killed or quarantined).
    pub fn dead_links(&self) -> &[LinkId] {
        &self.dead_links
    }

    // ------------------------------------------------------------------
    // Results
    // ------------------------------------------------------------------

    /// All run statistics collected so far.
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// Events emitted and not yet drained.
    pub fn events(&self) -> &[SimEvent] {
        &self.events
    }

    /// Take all pending events.
    pub fn drain_events(&mut self) -> Vec<SimEvent> {
        std::mem::take(&mut self.events)
    }

    /// Append all pending events to `out`, retaining the internal
    /// buffer's capacity — the allocation-free alternative to
    /// [`Simulator::drain_events`] for harnesses that drain every cycle.
    pub fn drain_events_into(&mut self, out: &mut Vec<SimEvent>) {
        out.append(&mut self.events);
    }

    /// The per-link / per-router metrics registry.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// The structured event recorder, when tracing is armed (`cfg.trace`).
    pub fn tracer(&self) -> Option<&TraceRecorder> {
        self.tracer.as_ref()
    }

    /// Mutable access to the recorder (drain records, close sinks).
    pub fn tracer_mut(&mut self) -> Option<&mut TraceRecorder> {
        self.tracer.as_mut()
    }

    /// Attach a sink that receives every future trace record as it is
    /// emitted. Returns false (and drops the sink) when tracing is
    /// disabled.
    pub fn set_trace_sink(&mut self, sink: Box<dyn TraceSink>) -> bool {
        match self.tracer.as_mut() {
            Some(t) => {
                t.set_sink(sink);
                true
            }
            None => false,
        }
    }

    /// Arm the side-band telemetry plane (`noc::telemetry`): engine
    /// self-profiling and the alert rules, whose first latency window
    /// starts now. Runtime-only by design — not part of `SimConfig`, so
    /// arming it never changes the checkpoint config hash, and the
    /// zero-perturbation tests prove it never changes simulated state.
    pub fn set_telemetry(&mut self, cfg: crate::telemetry::TelemetryConfig) {
        let mut tel = crate::telemetry::Telemetry::new(cfg);
        tel.rebase(&self.stats);
        self.epoch = tel.epoch;
        self.telemetry = Some(Box::new(tel));
    }

    /// The telemetry plane, when armed.
    pub fn telemetry(&self) -> Option<&crate::telemetry::Telemetry> {
        self.telemetry.as_deref()
    }

    /// Prometheus text exposition of the metrics registry, aggregate
    /// statistics, and (when armed) the telemetry gauges. `labels` are
    /// attached to every sample.
    pub fn prometheus_text(&self, labels: &[(&str, &str)]) -> String {
        crate::telemetry::prometheus_text(
            self.cycle,
            &self.stats,
            &self.metrics,
            self.skipped_cycles,
            self.telemetry.as_deref(),
            labels,
        )
    }

    /// Forensics: a packet's journey, every buffered trace record about
    /// `packet` in order — injection, each launch with its L-Ob plan, ECC
    /// corrections and detections, each accept or NACK (with
    /// `lob_requested`), and ejection or quarantine drop. Bounded by the
    /// ring capacity (`cfg.trace`); an attached sink sees every record.
    /// Empty when tracing is disabled.
    pub fn packet_history(&self, packet: PacketId) -> Vec<Record> {
        self.tracer
            .as_ref()
            .map(|t| t.packet_history(packet))
            .unwrap_or_default()
    }

    /// Forensics: every buffered trace record about `link`, in order
    /// (empty when tracing is disabled).
    pub fn link_timeline(&self, link: LinkId) -> Vec<Record> {
        self.tracer
            .as_ref()
            .map(|t| t.link_timeline(link))
            .unwrap_or_default()
    }

    /// Audit every router against the flow-control/wormhole invariants
    /// (NoCAlert-style runtime checking). Returns all violations found;
    /// an empty vec means the micro-architectural state is sound.
    pub fn check_invariants(&self) -> Vec<crate::invariants::Violation> {
        self.routers
            .iter()
            .flat_map(|r| crate::invariants::check_router(r, &self.cfg))
            .collect()
    }

    /// Network-level invariant oracle: audits the cross-router state the
    /// per-router checks cannot see — per-(link, VC) credit conservation,
    /// flit duplication/teleportation, SECDED soundness of in-flight
    /// codewords, and watchdog-verdict consistency. Pure observation;
    /// empty result means the books balance. The conformance fuzzer
    /// (`crates/conformance`) runs this every epoch; long soaks can call
    /// it directly.
    pub fn check_network_invariants(&self) -> Vec<crate::invariants::Violation> {
        let mut out = Vec::new();
        self.check_credit_conservation(&mut out);
        self.check_flit_uniqueness(&mut out);
        self.check_ecc_soundness(&mut out);
        self.check_watchdog_consistency(&mut out);
        out
    }

    /// Every audit the simulator offers: the per-router wormhole checks
    /// plus the network-level oracle. The periodic
    /// `check_invariants_every` audit in [`Simulator::try_step`] runs
    /// this.
    pub fn check_all_invariants(&self) -> Vec<crate::invariants::Violation> {
        let mut v = self.check_invariants();
        v.extend(self.check_network_invariants());
        v
    }

    /// Per-(link, VC) credit conservation. A downstream buffer slot is in
    /// exactly one of four states: available upstream (`out.credits`),
    /// riding the reverse wire home, or held by a flit that consumed it —
    /// where "held" means the flit id appears in the upstream crossbar
    /// moves toward this output, the retransmission entries, the forward
    /// wire, or the downstream input unit (deduplicated by id: the
    /// retransmission protocol legitimately keeps an entry alive while
    /// its delivered copy's ACK rides home). The one-cycle window where a
    /// freed slot's credit is on the reverse wire while the stale entry
    /// still awaits its ACK can double-count, so the upper bound carries
    /// that slack; the lower bound (no credit may vanish) is exact.
    fn check_credit_conservation(&self, out: &mut Vec<crate::invariants::Violation>) {
        let depth = self.cfg.vc_depth as usize;
        let mut ids: HashSet<FlitId> = HashSet::new();
        for li in 0..self.links.len() {
            let link = LinkId(li as u16);
            let (src, dir) = self.mesh.link_source(link);
            let dst = self.mesh.link_dest(link);
            let Some(o) = self.routers[src.index()].outputs[dir.index()].as_ref() else {
                continue;
            };
            let down = &self.routers[dst.index()].inputs[Port::Net(dir.opposite()).index()];
            for v in 0..self.cfg.vcs as usize {
                let vc = VcId(v as u8);
                ids.clear();
                for mv in &self.routers[src.index()].st_pending {
                    if mv.out_port == Port::Net(dir) && mv.out_vc == Some(vc) {
                        ids.insert(mv.flit.id);
                    }
                }
                for e in &o.entries {
                    if e.vc == vc {
                        ids.insert(e.flit.id);
                    }
                }
                if let Some(lf) = self.links.in_flight(li) {
                    if lf.vc == vc {
                        ids.insert(lf.flit.id);
                    }
                }
                for f in &down.vcs[v].fifo {
                    ids.insert(f.id);
                }
                for d in &down.delayed {
                    if d.vc == vc {
                        ids.insert(d.flit.id);
                    }
                }
                for s in &down.pending_scrambles {
                    if s.vc == vc {
                        ids.insert(s.flit.id);
                    }
                }
                let credits = o.credits[v] as usize;
                let wire = self.links.reverse_credits_for(li, vc);
                if credits + wire + ids.len() < depth {
                    out.push(crate::invariants::Violation {
                        router: src.0,
                        what: format!(
                            "link {li} vc {v}: credit leak — {credits} upstream + {wire} \
                             in flight + {} held < depth {depth}",
                            ids.len()
                        ),
                    });
                }
                if credits + ids.len() > depth {
                    out.push(crate::invariants::Violation {
                        router: src.0,
                        what: format!(
                            "link {li} vc {v}: credit surplus — {credits} upstream + {} \
                             held > depth {depth}",
                            ids.len()
                        ),
                    });
                }
            }
        }
    }

    /// No flit duplication or teleportation. Authoritative copies
    /// (injection queues, input-unit holdings, crossbar moves) must be
    /// globally unique; retransmission entries are the protocol's sole
    /// sanctioned shadows, at most one per flit; an in-flight wire copy
    /// must shadow its own link's entry; and a flit buffered at a link's
    /// far end may only be shadowed by that same link's entry.
    fn check_flit_uniqueness(&self, out: &mut Vec<crate::invariants::Violation>) {
        let conc = self.mesh.concentration() as usize;
        let vcs = self.cfg.vcs as usize;
        // Authoritative sites.
        let mut sites: Vec<(FlitId, u16, &'static str)> = Vec::new();
        for (q, queue) in self.inj_queues.iter().enumerate() {
            let router = (q / vcs / conc) as u16;
            for f in queue {
                sites.push((f.id, router, "injection queue"));
            }
        }
        for r in 0..self.routers.len() {
            for unit in &self.routers[r].inputs {
                for ivc in &unit.vcs {
                    for f in &ivc.fifo {
                        sites.push((f.id, r as u16, "input FIFO"));
                    }
                }
                for d in &unit.delayed {
                    sites.push((d.flit.id, r as u16, "delayed hold"));
                }
                for s in &unit.pending_scrambles {
                    sites.push((s.flit.id, r as u16, "pending scramble"));
                }
            }
            for mv in &self.routers[r].st_pending {
                sites.push((mv.flit.id, r as u16, "crossbar move"));
            }
        }
        sites.sort_unstable_by_key(|s| s.0);
        for w in sites.windows(2) {
            if w[0].0 == w[1].0 {
                out.push(crate::invariants::Violation {
                    router: w[1].1,
                    what: format!(
                        "flit {:?} duplicated: {} at router {} and {} at router {}",
                        w[0].0, w[0].2, w[0].1, w[1].2, w[1].1
                    ),
                });
            }
        }
        // Shadows: at most one retransmission entry per flit.
        let mut entry_at: HashMap<FlitId, LinkId> = HashMap::new();
        for li in 0..self.links.len() {
            let link = LinkId(li as u16);
            let (src, dir) = self.mesh.link_source(link);
            let Some(o) = self.routers[src.index()].outputs[dir.index()].as_ref() else {
                continue;
            };
            for e in &o.entries {
                if let Some(prev) = entry_at.insert(e.flit.id, link) {
                    out.push(crate::invariants::Violation {
                        router: src.0,
                        what: format!(
                            "flit {:?} has retransmission entries at links {} and {li}",
                            e.flit.id,
                            prev.index()
                        ),
                    });
                }
            }
        }
        // An in-flight copy always duplicates its own link's entry.
        for li in 0..self.links.len() {
            if let Some(lf) = self.links.in_flight(li) {
                if entry_at.get(&lf.flit.id) != Some(&LinkId(li as u16)) {
                    let (src, _) = self.mesh.link_source(LinkId(li as u16));
                    out.push(crate::invariants::Violation {
                        router: src.0,
                        what: format!(
                            "flit {:?} in flight on link {li} without a backing \
                             retransmission entry there",
                            lf.flit.id
                        ),
                    });
                }
            }
        }
        // Teleportation: a flit held at a network input may only be
        // shadowed by the entry of the link that feeds that input.
        for r in 0..self.routers.len() {
            let node = NodeId(r as u16);
            for (p, unit) in self.routers[r].inputs.iter().enumerate() {
                let feeding = match Port::from_index(p) {
                    Port::Net(d) => self
                        .mesh
                        .neighbor(node, d)
                        .and_then(|nb| self.mesh.link_out(nb, d.opposite())),
                    Port::Local(_) => None,
                };
                let audit = |id: FlitId, out: &mut Vec<crate::invariants::Violation>| {
                    if let Some(&l) = entry_at.get(&id) {
                        if Some(l) != feeding {
                            out.push(crate::invariants::Violation {
                                router: r as u16,
                                what: format!(
                                    "flit {id:?} teleported: held at router {r} input {p} \
                                     but shadowed by link {}",
                                    l.index()
                                ),
                            });
                        }
                    }
                };
                for ivc in &unit.vcs {
                    for f in &ivc.fifo {
                        audit(f.id, out);
                    }
                }
                for d in &unit.delayed {
                    audit(d.flit.id, out);
                }
                for s in &unit.pending_scrambles {
                    audit(s.flit.id, out);
                }
            }
        }
    }

    /// SECDED soundness on the wire: the fault layer strikes at delivery,
    /// so an in-flight codeword must still be the exact encoding of its
    /// wire word — and a sound encoding must decode clean.
    fn check_ecc_soundness(&self, out: &mut Vec<crate::invariants::Violation>) {
        for li in 0..self.links.len() {
            let Some(lf) = self.links.in_flight(li) else {
                continue;
            };
            let (src, _) = self.mesh.link_source(LinkId(li as u16));
            if lf.codeword != Secded::encode(lf.wire_word) {
                out.push(crate::invariants::Violation {
                    router: src.0,
                    what: format!(
                        "link {li}: in-flight codeword is not the SECDED encoding of \
                         its wire word"
                    ),
                });
            } else if !matches!(Secded::decode(lf.codeword), Decode::Clean { .. }) {
                out.push(crate::invariants::Violation {
                    router: src.0,
                    what: format!("link {li}: sound in-flight codeword does not decode clean"),
                });
            }
        }
    }

    /// A watchdog verdict must describe the network it judged: occupancy
    /// figures match a recomputation, and a retransmission-livelock
    /// verdict names a real entry at the reported attempt count.
    fn check_watchdog_consistency(&self, out: &mut Vec<crate::invariants::Violation>) {
        let Some(report) = self.check_watchdog() else {
            return;
        };
        let culprit = report.culprit().map(|(r, _)| r.0).unwrap_or(0);
        if report.resident_flits != self.resident_flits()
            || report.queued_flits != self.queued_flits()
            || report.delivered_flits != self.stats.delivered_flits
        {
            out.push(crate::invariants::Violation {
                router: culprit,
                what: "watchdog report disagrees with recomputed network occupancy".into(),
            });
        }
        if let StallKind::RetxLivelock {
            router,
            dir,
            flit,
            attempts,
        } = report.kind
        {
            let named = self.routers[router.index()].outputs[dir.index()]
                .as_ref()
                .is_some_and(|o| {
                    o.entries
                        .iter()
                        .any(|e| e.flit.id == flit && e.attempts == attempts)
                });
            if !named {
                out.push(crate::invariants::Violation {
                    router: router.0,
                    what: format!(
                        "watchdog livelock verdict names flit {flit:?} at {attempts} \
                         attempts, but no such retransmission entry exists"
                    ),
                });
            }
        }
    }

    /// Flits resident anywhere in the network (buffers, crossbars,
    /// retransmission slots, descramble holds) — link copies of un-ACKed
    /// retransmission entries are not double-counted.
    pub fn resident_flits(&self) -> usize {
        self.routers.iter().map(Router::resident_flits).sum()
    }

    /// Flits still waiting in core injection queues.
    pub fn queued_flits(&self) -> usize {
        self.inj_queues.iter().map(VecDeque::len).sum()
    }

    /// Length of one core's injection queue for a given VC class.
    pub fn injection_queue_len(&self, core: usize, vc: u8) -> usize {
        self.inj_queues[core * self.cfg.vcs as usize + vc as usize].len()
    }

    /// True when no flit remains anywhere. Stops at the first router
    /// holding a flit or the first non-empty injection queue.
    ///
    /// The parked routers, then the ones that may act, are probed first:
    /// in a busy or sealed network one of them holds a flit, so "not
    /// quiescent" costs one probe instead of a walk of the mesh. Only the
    /// full scan answers true, so the answer stays exact.
    pub fn is_quiescent(&self) -> bool {
        let mut holds = false;
        for hint in [&self.parked, &self.router_set] {
            hint.for_each_set_in(0..self.routers.len(), |r| {
                holds = holds || self.routers[r].resident_flits() != 0;
            });
            if holds {
                return false;
            }
        }
        self.routers.iter().all(|r| r.resident_flits() == 0)
            && self.inj_queues.iter().all(VecDeque::is_empty)
    }

    // ------------------------------------------------------------------
    // Execution
    // ------------------------------------------------------------------

    /// Run for `cycles` cycles with the given traffic source, through
    /// [`Simulator::drive`].
    pub fn run(&mut self, cycles: u64, source: &mut dyn TrafficSource) {
        self.drive(source, Stop::At(self.cycle.saturating_add(cycles)), &mut ());
    }

    /// Run until every injected flit is delivered (or `max_cycles` passes,
    /// which indicates saturation/deadlock), through [`Simulator::drive`].
    /// Returns true on full drain.
    pub fn run_to_quiescence(&mut self, max_cycles: u64, source: &mut dyn TrafficSource) -> bool {
        let cap = self.cycle.saturating_add(max_cycles);
        self.drive(source, Stop::Drained { cap }, &mut ())
    }

    /// The run driver: every in-tree run advances through here. From the
    /// current cycle it shows `hook` each cycle it lands on (the start,
    /// then after every step or skip) and stops at the first of:
    /// the drain, under [`Stop::Drained`] with no [`Cue::Act`] pending;
    /// the hook's [`Cue::End`]; the stop cycle. Otherwise it skips idle
    /// cycles ([`Simulator::skip_idle_cycles`]), never past the stop cycle
    /// or the hook's cue, or takes one step; a guarded hook
    /// ([`Hook::GUARDED`]) steps every cycle instead.
    ///
    /// The drain is tested before the first step, so a run that starts
    /// drained takes none. A skip is always followed by a step: the drain
    /// and the next skip are judged only at the start and after a step.
    /// Skipped cycles are provable no-ops, so the end state is
    /// bit-identical to naive stepping. Returns whether the run stopped
    /// at the drain.
    pub fn drive<S, H>(&mut self, source: &mut S, stop: Stop, hook: &mut H) -> bool
    where
        S: DynSource + ?Sized,
        H: Hook<S>,
    {
        let (end, drain) = match stop {
            Stop::At(cycle) => (cycle, false),
            Stop::Drained { cap } => (cap, true),
        };
        let mut landing = Landing::Start;
        loop {
            let now = self.cycle;
            let (cue, held, ends) = match hook.at(self, source, landing) {
                Cue::Look(at) if at > now => (at, false, false),
                Cue::Act(at) if at > now => (at, true, false),
                Cue::End => (now, false, true),
                _ => (u64::MAX, false, false),
            };
            let stepped = landing != Landing::Skip;
            if drain && stepped && !held && source.done() && self.is_quiescent() {
                return true;
            }
            if ends || now >= end {
                return false;
            }
            let src = source.as_dyn();
            landing = if H::GUARDED {
                if let Err(err) = self.try_step(src) {
                    if !hook.stalled(self, err) {
                        return false;
                    }
                }
                Landing::Step
            } else if stepped && self.skip_idle_cycles(end.min(cue) - now, src) > 0 {
                Landing::Skip
            } else {
                self.step(src);
                Landing::Step
            };
        }
    }

    /// Advance one cycle: the eight phases in reverse pipeline order.
    /// Phases 1–7 run through the sharded engine ([`crate::par`]) — on
    /// one shard this is the plain sequential loop; on several it
    /// fans out across the worker pool and commits per-shard effects in
    /// sequential order, bit-identical either way.
    pub fn step(&mut self, source: &mut dyn TrafficSource) {
        let now = self.cycle;
        self.run_phase_groups(now);
        self.commit_fx(now);
        self.phase_injection(now, source);
        if now.is_multiple_of(self.cfg.snapshot_interval) {
            self.record_snapshot(now);
        }
        // Links condemned by the retry-budget escalation are quarantined
        // between cycles, where no phase holds partial state.
        if !self.pending_quarantine.is_empty() {
            let pending = std::mem::take(&mut self.pending_quarantine);
            for link in pending {
                if let Err(err) = self.quarantine_link(link) {
                    self.poisoned.get_or_insert(err);
                }
            }
        }
        self.cycle = now + 1;
        #[cfg(any(test, debug_assertions))]
        if cfg!(debug_assertions) {
            self.audit_parking();
        }
    }

    /// Debug audit of the parking protocol, run after every `step`:
    /// every router with phase work is in `router_set` or parked and
    /// blocked, no parked router would act at the next cycle by the
    /// reference oracles, and no blocked core has an admissible head.
    /// Under mitigation it also checks that every input unit's reported
    /// class is its detector's current class, which phase 1 recomputes
    /// only after an arrival that can move it.
    #[cfg(any(test, debug_assertions))]
    fn audit_parking(&self) {
        let next = self.cycle;
        for (r, router) in self.routers.iter().enumerate() {
            if self.cfg.mitigation {
                for (p, unit) in router.inputs.iter().enumerate() {
                    assert_eq!(
                        unit.reported_class,
                        unit.detector.link_class(),
                        "router {r} port {p}: reported class is stale"
                    );
                }
            }
            if self.router_set.get(r) {
                continue;
            }
            if self.parked.get(r) {
                assert!(self.router_active[r], "parked router {r} reads inactive");
                assert!(
                    router.is_blocked(&self.cfg, &self.routing),
                    "parked router {r} is not blocked"
                );
                assert!(
                    !router.would_act(next, &self.cfg, &self.routing),
                    "parked router {r} would act at cycle {next}"
                );
            } else {
                assert!(
                    !router.has_phase_work(),
                    "router {r} holds phase work outside the active and parked sets"
                );
            }
        }
        let vcs = self.cfg.vcs as usize;
        let conc = self.mesh.concentration() as usize;
        for core in (0..self.inj_blocked.len()).filter(|&c| self.inj_blocked[c]) {
            let unit = &self.routers[core / conc].inputs[Port::Local((core % conc) as u8).index()];
            assert!(
                (0..vcs).all(|v| self.inj_queues[core * vcs + v]
                    .front()
                    .is_none_or(|f| !injection_admits(unit, f, self.cfg.vc_depth))),
                "blocked core {core} has an admissible head"
            );
        }
    }

    /// Advance one cycle under the resilience guards: surfaces quarantine
    /// failures, runs the periodic invariant audit
    /// (`cfg.check_invariants_every`), and consults the watchdog
    /// (`cfg.watchdog`). On `Err` the simulator remains usable — a
    /// [`SimError::Stalled`] caller can quarantine the culprit and resume.
    pub fn try_step(&mut self, source: &mut dyn TrafficSource) -> Result<(), SimError> {
        self.step(source);
        if let Some(err) = self.poisoned.take() {
            return Err(err);
        }
        if let Some(every) = self.cfg.check_invariants_every {
            if self.cycle.is_multiple_of(every.max(1)) {
                let violations = self.check_all_invariants();
                if !violations.is_empty() {
                    return Err(SimError::InvariantViolations {
                        cycle: self.cycle,
                        violations,
                    });
                }
            }
        }
        if let Some(mut report) = self.check_watchdog() {
            self.watchdog_armed_at = self.cycle;
            if let Some(t) = self.telemetry.as_deref_mut() {
                t.note_watchdog(self.cycle);
                report.heartbeat = Some(t.engine_heartbeat(self.cycle));
            }
            let (router, dir) = match report.culprit() {
                Some((r, d)) => (Some(r), Some(d)),
                None => (None, None),
            };
            let cycle = self.cycle;
            emit!(
                self,
                cycle,
                TraceKind::WatchdogTripped {
                    class: report.kind.into(),
                    router,
                    dir,
                }
            );
            self.events.push(SimEvent::WatchdogTripped { report });
            self.write_post_mortem();
            return Err(SimError::Stalled(Box::new(report)));
        }
        Ok(())
    }

    /// Arm automatic post-mortem snapshots: when [`Simulator::try_step`]
    /// diagnoses a stall, the full simulator state is written to
    /// `dir/postmortem-cycle-<N>.snap` before the error is surfaced, so
    /// the deadlocked mesh can be reloaded and inspected offline. Pass
    /// `None` to disarm.
    pub fn set_post_mortem_dir(&mut self, dir: Option<std::path::PathBuf>) {
        self.post_mortem_dir = dir;
    }

    /// Best-effort post-mortem snapshot (stall forensics). IO errors are
    /// swallowed: the stall diagnosis must reach the caller regardless.
    fn write_post_mortem(&mut self) {
        let Some(dir) = self.post_mortem_dir.clone() else {
            return;
        };
        let snap = self.snapshot();
        let path = dir.join(format!("postmortem-cycle-{:012}.snap", self.cycle));
        let _ = std::fs::create_dir_all(&dir);
        let _ = snap.write_atomic(&path);
    }

    // ------------------------------------------------------------------
    // Quiescence-aware fast-forward (the event-horizon engine)
    // ------------------------------------------------------------------

    /// Enable or disable cycle skipping (on by default). With it off,
    /// [`Simulator::skip_idle_cycles`] always returns 0 and every run
    /// helper degenerates to naive stepping — the A/B arm for the
    /// equivalence proptests and the bench `--no-skip` flag.
    pub fn set_fast_forward(&mut self, on: bool) {
        self.fast_forward = on;
    }

    /// Whether cycle skipping is enabled.
    pub fn fast_forward(&self) -> bool {
        self.fast_forward
    }

    /// Cycles fast-forwarded so far (diagnostic; not part of
    /// [`SimStats`], snapshots, or goldens).
    pub fn skipped_cycles(&self) -> u64 {
        self.skipped_cycles
    }

    /// Fast-forward over provably no-op cycles, up to `limit` cycles
    /// ahead. Returns the number skipped (0 = could not prove anything).
    ///
    /// A cycle is provably no-op when the network holds no state that any
    /// phase could act on — every hierarchical activity bitmap is clear
    /// (no router phase work, no forward wire, no reverse message, no
    /// retransmission entry), the injection queues are empty, and no
    /// quarantine or poison is pending — and the traffic source's
    /// [`TrafficSource::next_injection_at`] horizon lies in the future.
    /// Under those conditions phases 1–7 touch nothing, injection admits
    /// nothing, the trojan FSMs cannot advance (they only snoop at link
    /// delivery), and the watchdog is vacuously silent, so the *only*
    /// per-cycle effect of naive stepping is the periodic
    /// [`Snapshot`] (and its telemetry alert-window evaluation) — which
    /// this fast path replays exactly, once per skipped
    /// `snapshot_interval` multiple. The skip is therefore bit-identical
    /// to naive stepping by construction; `tests/` proves it again by
    /// proptest against the disabled-skip arm.
    pub fn skip_idle_cycles(&mut self, limit: u64, source: &mut dyn TrafficSource) -> u64 {
        let Some((from, to)) = self.skip_window(limit, source) else {
            return 0;
        };
        self.commit_skip(from, to, source);
        to - from
    }

    /// The skip gate: prove cycles `[self.cycle, to)` are no-ops and
    /// return the window, or `None`. Checks are ordered cheapest-first;
    /// the bitmap compaction doubles as the summary-level maintenance
    /// pass.
    fn skip_window(&mut self, limit: u64, source: &mut dyn TrafficSource) -> Option<(u64, u64)> {
        if !self.fast_forward || limit == 0 {
            return None;
        }
        let now = self.cycle;
        // Busy-network early-out first: under saturation the active
        // sets are dense, so `any_set` rejects in one or two summary
        // loads before paying the source-horizon lookup (which walks
        // the injection schedule and dominated the gate's cost in the
        // flood benchmarks — a per-cycle tax that never bought a skip).
        if self.router_set.any_set()
            || self.parked.any_set()
            || self.fwd_set.any_set()
            || self.rev_set.any_set()
            || self.launch_set.any_set()
        {
            return None;
        }
        // Source horizon — the cheapest remaining reject while traffic
        // flows into an otherwise drained network.
        let horizon = match source.next_injection_at(now) {
            Some(h) if h <= now => return None,
            Some(h) => h,
            None => u64::MAX,
        };
        self.router_set.compact();
        if !self.router_set.all_clear() {
            return None;
        }
        self.fwd_set.compact();
        self.rev_set.compact();
        self.launch_set.compact();
        if !(self.fwd_set.all_clear() && self.rev_set.all_clear() && self.launch_set.all_clear()) {
            return None;
        }
        if !self.pending_quarantine.is_empty() || self.poisoned.is_some() {
            return None;
        }
        if self.queued_flits() != 0 {
            return None;
        }
        // The clear bitmaps already imply an empty network; re-derive it
        // from the authoritative state so a bitmap bug can only cost
        // performance, never correctness.
        if self.resident_flits() != 0 {
            debug_assert!(false, "activity bitmaps clear but flits resident");
            return None;
        }
        // Defence in depth: every timed release (input scramble delays),
        // retransmission entry, VC ownership, and pending switch grant
        // holds a resident flit, so clear bitmaps imply all of them are
        // idle — audit that implication rather than trust it.
        debug_assert!(
            self.routers
                .iter()
                .all(crate::router::Router::is_skip_transparent),
            "activity bitmaps clear but a router holds timed or ownership state"
        );
        let cap = now.saturating_add(limit);
        let mut to = horizon.min(cap);
        // Fault layers are reactive today (next_autonomous_event_at is
        // None throughout), but a time-triggered fault model bounds the
        // window here instead of being silently jumped over.
        for li in 0..self.links.len() {
            match self.links.faults(li).next_autonomous_event_at(now) {
                Some(h) if h <= now => return None,
                Some(h) => to = to.min(h),
                None => {}
            }
        }
        // Conformance self-test defect: overshoot the horizon by one
        // cycle (swallowing an injection) whenever the horizon — not the
        // caller's cap — bounded the window, so harness-imposed caps
        // (epoch boundaries, --halt-at) are still honoured.
        if matches!(self.cfg.sabotage, Some(crate::config::Sabotage::OverSkip)) && to < cap {
            to += 1;
        }
        (to > now).then_some((now, to))
    }

    /// Apply a proven skip window: replay the periodic snapshot (and its
    /// alert evaluation) for every `snapshot_interval` multiple inside
    /// it, advance the cycle counter, and fast-forward the source cursor.
    fn commit_skip(&mut self, from: u64, to: u64, source: &mut dyn TrafficSource) {
        let iv = self.cfg.snapshot_interval;
        if iv == 0 {
            // `is_multiple_of(0)` only holds at cycle 0.
            if from == 0 {
                self.record_snapshot(0);
            }
        } else {
            let mut m = from.next_multiple_of(iv);
            while m < to {
                self.record_snapshot(m);
                m += iv;
            }
        }
        self.skipped_cycles += to - from;
        self.cycle = to;
        source.skip_to(to);
    }

    /// Run phase groups G1–G3 (phases 1–7) across all shards. With one
    /// shard everything runs inline on this thread; with more, the pool
    /// is (lazily) spun up and each group is dispatched behind barriers.
    fn run_phase_groups(&mut self, now: u64) {
        use crate::par::{DisjointMut, Group, PhaseCtx};
        if self.plans.len() > 1 && self.pool.is_none() {
            self.pool = Some(crate::par::Pool::new(self.plans.len() - 1));
        }
        let ctx = PhaseCtx {
            cfg: &self.cfg,
            mesh: &self.mesh,
            routing: &self.routing,
            routing_epoch: self.routing_epoch,
            dead_links: &self.dead_links,
            link_dead: &self.link_dead,
            routers: DisjointMut::new(&mut self.routers),
            links: self.links.view(),
            link_metrics: DisjointMut::new(self.metrics.link_slice_mut()),
            router_active: DisjointMut::new(&mut self.router_active),
            router_set: &self.router_set,
            parked: &self.parked,
            fwd_set: &self.fwd_set,
            rev_set: &self.rev_set,
            launch_set: &self.launch_set,
            dst_pos: &self.dst_pos,
            dst_order: &self.dst_order,
            src_pos: &self.src_pos,
            src_order: &self.src_order,
            tracing: self.tracer.is_some(),
            profile: self.telemetry.as_ref().is_some_and(|t| t.profile_due(now)),
            timeline: self.telemetry.as_ref().is_some_and(|t| t.timeline_due(now)),
            epoch: self.epoch,
        };
        match self.pool.as_ref() {
            None => {
                let fx = &mut self.fx[0];
                for g in [Group::G1, Group::G2, Group::G3] {
                    crate::par::run_group(&ctx, &self.plans[0], fx, g, now);
                }
            }
            Some(pool) => {
                let fx = self.fx.as_mut_ptr();
                for g in [Group::G1, Group::G2, Group::G3] {
                    pool.run(&ctx, &self.plans, fx, g, now);
                }
            }
        }
    }

    /// Fold every shard's buffered side effects back into the global
    /// simulator in exactly the order the sequential engine would have
    /// produced them: P1 effects (id-merged across shards), then P3,
    /// P4, and finally the per-ejection P5 bookkeeping in ascending
    /// router order (shard bands are contiguous, so walking shards in
    /// order is already router order).
    fn commit_fx(&mut self, now: u64) {
        use crate::par::merge_keyed;
        let Self {
            fx,
            tracer,
            events,
            pending_quarantine,
            stats,
            metrics,
            birth,
            sabotage_eject_seen,
            cfg,
            last_progress_cycle,
            telemetry,
            ..
        } = self;
        // Structured trace records, in phase order (one stream).
        if let Some(t) = tracer.as_mut() {
            merge_keyed(fx, |f| &mut f.p1_kinds, |k| t.record(now, k));
            merge_keyed(fx, |f| &mut f.p3_kinds, |k| t.record(now, k));
            merge_keyed(fx, |f| &mut f.p4_kinds, |k| t.record(now, k));
        } else {
            for f in fx.iter_mut() {
                debug_assert!(f.p1_kinds.is_empty() && f.p3_kinds.is_empty());
                f.p1_kinds.clear();
                f.p3_kinds.clear();
                f.p4_kinds.clear();
            }
        }
        // Simulator events, in phase order (a second, separate stream).
        merge_keyed(fx, |f| &mut f.p1_events, |e| events.push(e));
        merge_keyed(fx, |f| &mut f.p3_events, |e| events.push(e));
        // Quarantine requests: ascending link id = sequential P3 order.
        for f in fx.iter_mut() {
            pending_quarantine.extend(f.p3_quar.drain(..).map(LinkId));
        }
        pending_quarantine.sort_unstable();
        // Commutative counter deltas.
        for f in fx.iter_mut() {
            let d = std::mem::take(&mut f.stats);
            stats.corrected_faults += d.corrected_faults;
            stats.uncorrectable_faults += d.uncorrectable_faults;
            stats.bist_scans += d.bist_scans;
            stats.retransmissions += d.retransmissions;
            stats.budget_escalations += d.budget_escalations;
        }
        // P5 ejection bookkeeping, deferred from the workers: shard
        // bands ascend, so this walk is the sequential per-router order.
        let mut progress = false;
        for f in fx.iter_mut() {
            progress |= std::mem::take(&mut f.progress);
            let mut ejs = std::mem::take(&mut f.p5_ejections);
            for &(r, ej) in ejs.iter() {
                let node = NodeId(r);
                metrics.router_mut(node).ejected_flits.inc();
                if let Some(t) = tracer.as_mut() {
                    t.record(
                        now,
                        TraceKind::FlitEjected {
                            flit: ej.flit.id,
                            packet: ej.flit.packet,
                            router: node,
                        },
                    );
                }
                stats.delivered_flits += 1;
                // Conformance self-test hook: double-count every Nth
                // ejection in the delivery statistics.
                if let Some(crate::config::Sabotage::OvercountDelivered { every }) = cfg.sabotage {
                    *sabotage_eject_seen += 1;
                    if sabotage_eject_seen.is_multiple_of(every.max(1) as u64) {
                        stats.delivered_flits += 1;
                    }
                }
                if ej.flit.kind.closes_packet() {
                    stats.delivered_packets += 1;
                    let born = birth.remove(&ej.flit.packet).unwrap_or(now);
                    stats.record_latency(now.saturating_sub(born));
                    events.push(SimEvent::PacketDelivered {
                        packet: ej.flit.packet,
                        src: ej.flit.header.src,
                        dest: ej.flit.header.dest,
                        injected_at: born,
                        delivered_at: now,
                    });
                }
            }
            ejs.clear();
            f.p5_ejections = ejs;
        }
        if progress {
            *last_progress_cycle = now;
        }
        // Side-band engine profile: drained last, reads only wall-clock
        // scratch.
        if let Some(t) = telemetry.as_deref_mut() {
            if t.profile_due(now) {
                t.absorb_cycle(now, fx);
            }
        }
    }

    // Phase 8: traffic sources inject; injection queues feed local ports.
    fn phase_injection(&mut self, now: u64, source: &mut dyn TrafficSource) {
        self.poll_buf.clear();
        source.poll(now, &mut self.poll_buf);
        let conc = self.mesh.concentration();
        let vcs = self.cfg.vcs as usize;
        let packets = std::mem::take(&mut self.poll_buf);
        let mut flits = std::mem::take(&mut self.flit_scratch);
        for pkt in &packets {
            self.stats.injected_packets += 1;
            self.birth.insert(pkt.id, pkt.created_at);
            flits.clear();
            pkt.packetize_into(&mut self.next_flit_id, &mut flits);
            self.stats.injected_flits += flits.len() as u64;
            let core = pkt.src.index() * conc as usize + (pkt.thread % conc) as usize;
            if self.tracer.is_some() {
                for f in &flits {
                    let (flit, packet) = (f.id, f.packet);
                    emit!(
                        self,
                        now,
                        TraceKind::FlitInjected {
                            flit,
                            packet,
                            core: core as u16,
                        }
                    );
                }
            }
            self.inj_queues[core * vcs + pkt.vc.index()].extend(flits.iter().copied());
            self.inj_set.set(core);
            self.inj_blocked[core] = false;
        }
        self.flit_scratch = flits;
        self.poll_buf = packets;
        // One flit per injection port per cycle; round-robin over the
        // port's VC-class queues so no class starves another. Only cores
        // in the backlog set can have a flit to offer.
        let Self {
            cfg,
            routers,
            inj_queues,
            inj_rr,
            inj_set,
            inj_blocked,
            router_active,
            router_set,
            metrics,
            last_progress_cycle,
            ..
        } = self;
        inj_set.for_each_set_in(0..inj_rr.len(), |core| {
            let router = core / conc as usize;
            let port = Port::Local((core % conc as usize) as u8);
            let granted = 1u64 << port.index();
            // A blocked core's probe reads only its queue heads and its
            // local input unit; neither has changed without a new packet
            // (which clears the flag) or an SA grant from the port.
            if inj_blocked[core] && routers[router].local_grants & granted == 0 {
                metrics
                    .router_mut(NodeId(router as u16))
                    .injection_stalls
                    .inc();
                return;
            }
            routers[router].local_grants &= !granted;
            let start = inj_rr[core] as usize;
            let mut admitted = false;
            let mut waiting = false;
            for v in (start..vcs).chain(0..start) {
                let q = core * vcs + v;
                let Some(f) = inj_queues[q].front().copied() else {
                    continue;
                };
                waiting = true;
                let vc = f.header.vc;
                debug_assert_eq!(vc.index(), v);
                if injection_admits(&routers[router].inputs[port.index()], &f, cfg.vc_depth) {
                    inj_queues[q].pop_front();
                    routers[router].buffer_write(port, vc, f, now);
                    router_active[router] = true;
                    router_set.set(router);
                    inj_rr[core] = if v + 1 == vcs { 0 } else { v as u8 + 1 };
                    *last_progress_cycle = now;
                    admitted = true;
                    break;
                }
            }
            inj_blocked[core] = waiting && !admitted;
            if !waiting {
                // Every VC queue of this core was probed and found empty.
                inj_set.clear(core);
            } else if !admitted {
                // A core with a flit waiting and no VC able to admit it
                // spent this cycle stalled at the injection port.
                metrics
                    .router_mut(NodeId(router as u16))
                    .injection_stalls
                    .inc();
            }
        });
        #[cfg(any(test, debug_assertions))]
        debug_assert!(
            (0..self.inj_rr.len())
                .all(|core| self.inj_set.get(core) || self.core_queue_len(core) == 0),
            "injection backlog set lost a core with queued flits"
        );
    }

    // ------------------------------------------------------------------
    // Resilience: watchdog, quarantine, purge
    // ------------------------------------------------------------------

    /// Run the stall detectors (no-op unless `cfg.watchdog` is set).
    /// Most specific first: a retransmission livelock names the exact
    /// flit, a credit stall names the port, a global deadlock only states
    /// that nothing moves.
    pub fn check_watchdog(&self) -> Option<StallReport> {
        let wd = self.cfg.watchdog?;
        let now = self.cycle;
        let armed = self.watchdog_armed_at;
        let resident = self.resident_flits();
        let queued = self.queued_flits();
        if resident == 0 && queued == 0 {
            return None;
        }
        let report = |kind| StallReport {
            cycle: now,
            kind,
            resident_flits: resident,
            queued_flits: queued,
            delivered_flits: self.stats.delivered_flits,
            // Attached by `try_step` when telemetry is armed; equality
            // and the snapshot codec both ignore it.
            heartbeat: None,
        };
        for r in &self.routers {
            for d in 0..4 {
                let Some(out) = r.outputs[d].as_ref() else {
                    continue;
                };
                for e in &out.entries {
                    // `sent_at > armed`: only entries retried since the
                    // last intervention count, so a quarantine's grace
                    // period is honoured while an ignored livelock keeps
                    // re-reporting.
                    if e.attempts >= wd.retx_attempt_limit && e.sent_at > armed {
                        return Some(report(StallKind::RetxLivelock {
                            router: r.node,
                            dir: Direction::ALL[d],
                            flit: e.flit.id,
                            attempts: e.attempts,
                        }));
                    }
                }
            }
        }
        for r in &self.routers {
            for d in 0..4 {
                let Some(out) = r.outputs[d].as_ref() else {
                    continue;
                };
                if out.entries.is_empty()
                    || now.saturating_sub(out.last_progress.max(armed)) < wd.credit_stall_cycles
                {
                    continue;
                }
                let oldest = out
                    .entries
                    .iter()
                    .map(|e| now.saturating_sub(e.entered_at.max(armed)))
                    .max()
                    .unwrap_or(0);
                if oldest >= wd.credit_stall_cycles {
                    return Some(report(StallKind::CreditStall {
                        router: r.node,
                        dir: Direction::ALL[d],
                        oldest_age: oldest,
                    }));
                }
            }
        }
        let idle = now.saturating_sub(self.last_progress_cycle.max(armed));
        if idle >= wd.global_stall_cycles {
            return Some(report(StallKind::GlobalDeadlock { idle_cycles: idle }));
        }
        None
    }

    /// Quarantine a link: declare it dead, purge every packet with state
    /// committed to it (network-wide, with exact credit restoration), and
    /// rebuild deadlock-free up*/down* routes around the enlarged dead
    /// set. Campaign drivers call this directly with the culprit from a
    /// [`StallReport`]; the retry-budget escalation calls it automatically.
    ///
    /// Quarantining a link that is already dead is a no-op returning
    /// `Ok(())`: nothing is purged, recorded or rerouted.
    ///
    /// Errors with [`SimError::MeshDisconnected`] when no route table can
    /// connect all routers any more — the mesh cannot degrade further.
    pub fn quarantine_link(&mut self, link: LinkId) -> Result<(), SimError> {
        if self.link_dead[link.index()] {
            return Ok(());
        }
        let now = self.cycle;
        let (src, dir) = self.mesh.link_source(link);
        let dst = self.mesh.link_dest(link);
        let in_port = Port::Net(dir.opposite());
        // Victims: every packet with state committed to the dying link —
        // retransmission entries, the in-flight wire copy, crossbar moves
        // granted toward it, input VCs routed at it, and unresolved
        // scrambles at the far end whose XOR key dies with the link.
        let mut victims: HashSet<PacketId> = HashSet::new();
        if let Some(out) = self.routers[src.index()].outputs[dir.index()].as_ref() {
            victims.extend(out.entries.iter().map(|e| e.flit.packet));
        }
        if let Some(lf) = self.links.in_flight(link.index()) {
            victims.insert(lf.flit.packet);
        }
        for mv in &self.routers[src.index()].st_pending {
            if mv.out_port == Port::Net(dir) {
                victims.insert(mv.flit.packet);
            }
        }
        for unit in &self.routers[src.index()].inputs {
            for ivc in &unit.vcs {
                if ivc.route == Some(Port::Net(dir)) {
                    victims.extend(ivc.packet);
                }
            }
        }
        let far = &self.routers[dst.index()].inputs[in_port.index()];
        for s in &far.pending_scrambles {
            if far.lookup_word(s.partner).is_none() {
                victims.insert(s.flit.packet);
            }
        }
        // Kill the link first so nothing launches onto it mid-purge.
        self.dead_links.push(link);
        self.link_dead[link.index()] = true;
        let (flits, packets) = self.purge_packets(&victims, link);
        // The purge returned credits, output VCs and local slots behind
        // parked routers and blocked cores, and the routes change below.
        self.router_set.set_all();
        self.inj_blocked.fill(false);
        self.stats.quarantined_links += 1;
        emit!(
            self,
            now,
            TraceKind::LinkQuarantined {
                link,
                dropped_flits: flits,
                dropped_packets: packets,
            }
        );
        self.events.push(SimEvent::LinkQuarantined {
            link,
            dropped_packets: packets,
            dropped_flits: flits,
            cycle: now,
        });
        // Survivors inherit old timestamps yet need time to drain through
        // the rerouted mesh: give the watchdog a fresh grace period.
        self.watchdog_armed_at = now;
        match crate::routing::RouteTables::build_updown(&self.mesh, &self.dead_links) {
            Some(tables) if tables.fully_connected() => {
                self.routing = Routing::Table(tables);
                self.routing_epoch = self.routing_epoch.wrapping_add(1);
                Ok(())
            }
            _ => Err(SimError::MeshDisconnected {
                cycle: now,
                dead: self.dead_links.clone(),
            }),
        }
    }

    /// Remove every flit of the victim packets from the whole network —
    /// router buffers, link wires, injection queues — and settle the
    /// credit books so the flow-control invariants still hold afterwards.
    /// Returns `(flits, packets)` explicitly dropped (counted once per
    /// unique flit; an in-flight wire copy duplicates its retransmission
    /// entry and is not double-counted). `link` names the quarantined
    /// link for the trace records.
    fn purge_packets(&mut self, victims: &HashSet<PacketId>, link: LinkId) -> (u64, u64) {
        if victims.is_empty() {
            return (0, 0);
        }
        let now = self.cycle;
        let mut unique: HashSet<FlitId> = HashSet::new();
        // A flit can be purged twice (retransmission slot upstream + the
        // downstream copy while its ACK rides the reverse wire) but holds
        // at most one live credit. Buffer-side records are authoritative;
        // a retransmission entry's record only counts when the flit never
        // occupied the downstream router at all (faulted on the wire, or
        // the wire copy is being purged with it). The moment a flit pops
        // from the downstream FIFO at SA its slot credit is already
        // travelling back as an ordinary credit return, so any non-retx
        // copy — even one holding no credit itself, like a crossbar move
        // to the local ejection port — disqualifies the entry's record,
        // as does a success ACK still riding the entry's own link.
        let mut strong: HashMap<FlitId, (usize, Direction, VcId)> = HashMap::new();
        let mut weak: HashMap<FlitId, (usize, Direction, VcId)> = HashMap::new();
        let mut covered: HashSet<FlitId> = HashSet::new();
        for r in 0..self.routers.len() {
            let node = NodeId(r as u16);
            for copy in self.routers[r].purge_packets(victims, now) {
                unique.insert(copy.flit);
                let resolved = match copy.site {
                    Some(CreditSite::SelfOutput(dir, vc)) => Some((r, dir, vc)),
                    Some(CreditSite::Upstream(in_dir, vc)) => self
                        .mesh
                        .neighbor(node, in_dir)
                        .map(|nb| (nb.index(), in_dir.opposite(), vc)),
                    None => None,
                };
                if copy.from_retx {
                    if let Some(site) = resolved {
                        weak.entry(copy.flit).or_insert(site);
                    }
                } else {
                    covered.insert(copy.flit);
                    if let Some(site) = resolved {
                        strong.entry(copy.flit).or_insert(site);
                    }
                }
            }
        }
        for (flit, site @ (r, dir, _)) in weak {
            if covered.contains(&flit) {
                continue;
            }
            let acked = self
                .mesh
                .link_out(NodeId(r as u16), dir)
                .is_some_and(|l| self.links.reverse_ack_success_for(l.index(), flit));
            if acked {
                continue;
            }
            strong.entry(flit).or_insert(site);
        }
        for (_, (r, dir, vc)) in strong {
            if let Some(out) = self.routers[r].outputs[dir.index()].as_mut() {
                out.credits[vc.index()] += 1;
                debug_assert!(out.credits[vc.index()] <= self.cfg.vc_depth);
            }
        }
        // Wire copies always duplicate a live retransmission entry: they
        // are neither counted nor credited, but must never deliver.
        for li in 0..self.links.len() {
            self.links
                .purge_in_flight(li, |lf| victims.contains(&lf.flit.packet));
        }
        let mut flits = unique.len() as u64;
        for q in &mut self.inj_queues {
            let before = q.len();
            q.retain(|f| !victims.contains(&f.packet));
            flits += (before - q.len()) as u64;
        }
        // Ascending id, not `HashSet` order: the drop records are part of
        // the trace stream and of a traced simulator's snapshot bytes.
        let mut ids: Vec<PacketId> = victims.iter().copied().collect();
        ids.sort_unstable();
        let mut packets = 0u64;
        for pid in ids {
            if self.birth.remove(&pid).is_some() {
                packets += 1;
                emit!(self, now, TraceKind::PacketDropped { packet: pid, link });
            }
        }
        self.stats.dropped_flits += flits;
        self.stats.dropped_packets += packets;
        (flits, packets)
    }

    /// Total flits queued at one core's injection port (over VC classes).
    fn core_queue_len(&self, core: usize) -> usize {
        let vcs = self.cfg.vcs as usize;
        (0..vcs)
            .map(|v| self.inj_queues[core * vcs + v].len())
            .sum()
    }

    fn record_snapshot(&mut self, now: u64) {
        let conc = self.mesh.concentration() as usize;
        let mut all_full = 0;
        let mut half_full = 0;
        let mut blocked = 0;
        for r in 0..self.routers.len() {
            let full_cores = (0..conc)
                .filter(|c| self.core_queue_len(r * conc + c) >= self.cfg.injection_full_threshold)
                .count();
            if full_cores == conc {
                all_full += 1;
            }
            if full_cores * 2 > conc {
                half_full += 1;
            }
            if self.routers[r].has_blocked_port(now, self.cfg.blocked_threshold) {
                blocked += 1;
            }
        }
        // Sample the per-router occupancy gauges alongside the snapshot.
        for r in 0..self.routers.len() {
            let input = self.routers[r].network_input_occupancy() as u64;
            let output = self.routers[r].output_occupancy() as u64;
            let deepest = self.routers[r].input_high_water();
            let rm = self.metrics.router_mut(NodeId(r as u16));
            rm.input_occupancy.observe(input);
            rm.retx_occupancy.observe(output);
            rm.buffer_high_water = deepest;
        }
        let (d0, r0, u0) = self.snap_base;
        self.snap_base = (
            self.stats.delivered_flits,
            self.stats.retransmissions,
            self.stats.uncorrectable_faults,
        );
        self.stats.snapshots.push(Snapshot {
            cycle: now,
            input_util: self
                .routers
                .iter()
                .map(Router::network_input_occupancy)
                .sum(),
            output_util: self.routers.iter().map(Router::output_occupancy).sum(),
            injection_util: self.queued_flits(),
            routers_all_cores_full: all_full,
            routers_half_cores_full: half_full,
            routers_blocked_port: blocked,
            delivered_flits: self.stats.delivered_flits - d0,
            retransmissions: self.stats.retransmissions - r0,
            uncorrectable_faults: self.stats.uncorrectable_faults - u0,
        });
        // Side-band alert evaluation on the same window cadence. Inputs
        // are simulation-derived integers only, so the verdicts are
        // deterministic for a given run; the alerts live in the telemetry
        // plane and trace bus, never in `stats`.
        if let Some(mut tel) = self.telemetry.take() {
            let snap = self.stats.snapshots.last().expect("just pushed");
            let mut max_credit_age = 0u64;
            for r in &self.routers {
                for d in 0..4 {
                    let Some(out) = r.outputs[d].as_ref() else {
                        continue;
                    };
                    for e in &out.entries {
                        max_credit_age = max_credit_age.max(now.saturating_sub(e.entered_at));
                    }
                }
            }
            let obs = crate::telemetry::WindowObs {
                cycle: now,
                p99_latency: None, // filled from the latency histogram
                retransmissions: snap.retransmissions,
                delivered_flits: snap.delivered_flits,
                resident_flits: self.resident_flits() as u64,
                max_credit_age,
            };
            for alert in tel.evaluate_window(obs, &self.stats) {
                emit!(
                    self,
                    now,
                    TraceKind::Alert {
                        class: alert.class,
                        value: alert.value,
                        threshold: alert.threshold,
                    }
                );
            }
            self.telemetry = Some(tel);
        }
    }
}

/// Whether injection-queue head `f` may enter the local input unit
/// `unit` now: a head needs an idle, empty VC, a body flit must follow
/// its own packet (or a VC still forwarding it), and either needs a
/// free slot. Phase 8's probe and the blocked-core audit share it.
fn injection_admits(unit: &crate::input::InputUnit, f: &Flit, depth: u8) -> bool {
    let ivc = &unit.vcs[f.header.vc.index()];
    let admit = if f.kind.carries_header() {
        ivc.state == crate::input::VcState::Idle && ivc.fifo.is_empty()
    } else {
        ivc.fifo
            .back()
            .map_or(ivc.state != crate::input::VcState::Idle, |b| {
                b.packet == f.packet
            })
    };
    admit && unit.free_slots(f.header.vc, depth as usize) > 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_types::{Direction, Mesh, PacketId, VcId};

    /// Inject a fixed list of packets at their `created_at` cycles.
    pub struct ListSource {
        pub packets: Vec<Packet>,
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

    /// A guarded hook: it keeps the first error a step returns and ends
    /// the run there.
    struct Guard(Option<SimError>);

    impl<S: ?Sized> Hook<S> for Guard {
        const GUARDED: bool = true;

        fn at(&mut self, _: &mut Simulator, _: &mut S, _: Landing) -> Cue {
            Cue::Free
        }

        fn stalled(&mut self, _: &mut Simulator, err: SimError) -> bool {
            self.0 = Some(err);
            false
        }
    }

    /// Step guarded until `src` is spent and the network drains
    /// (`Ok(true)`), for at most `cycles` cycles (`Ok(false)`), or until
    /// the first error.
    fn drain_guarded(
        sim: &mut Simulator,
        src: &mut dyn TrafficSource,
        cycles: u64,
    ) -> Result<bool, SimError> {
        let mut guard = Guard(None);
        let cap = sim.cycle() + cycles;
        let drained = sim.drive(src, Stop::Drained { cap }, &mut guard);
        guard.0.map_or(Ok(drained), Err)
    }

    /// Injects nothing, and promises nothing before cycle `.0`.
    struct QuietUntil(u64);

    impl TrafficSource for QuietUntil {
        fn poll(&mut self, _cycle: u64, _out: &mut Vec<Packet>) {}
        fn next_injection_at(&self, now: u64) -> Option<u64> {
            Some(self.0.max(now))
        }
    }

    #[test]
    fn idle_skip_truncates_exactly_at_driver_deadlines() {
        // A skip must land exactly on the hook's next cue and on the stop
        // cycle, never a cycle past either, and otherwise stop exactly at
        // the source's horizon. The first step lets the conservative
        // all-set bitmaps of a new simulator compact.
        use Landing::{Skip, Start, Step};
        let mut sim = Simulator::new(SimConfig::paper_resilient());
        let mut src = QuietUntil(900);
        let mut seen = Vec::new();
        let mut look_at_512 = |sim: &mut Simulator, _: &mut QuietUntil, landing: Landing| {
            seen.push((sim.cycle(), landing));
            Cue::Look(512)
        };
        sim.drive(&mut src, Stop::At(700), &mut look_at_512);
        sim.drive(&mut src, Stop::At(902), &mut look_at_512);
        let cue_then_stop = [(0, Start), (1, Step), (512, Skip), (513, Step), (700, Skip)];
        let horizon = [(700, Start), (900, Skip), (901, Step), (902, Step)];
        assert_eq!(seen, [&cue_then_stop[..], &horizon[..]].concat());
        assert_eq!(sim.skipped_cycles(), 511 + 187 + 200);
        // At the horizon itself nothing is provably idle.
        assert_eq!(sim.skip_idle_cycles(10_000, &mut src), 0);
    }

    #[test]
    fn a_pending_act_cue_holds_the_drain_stop() {
        // An empty network and a done source: only the arming cue keeps
        // the run going. It arms at 500, then stops after the step that
        // follows the skip.
        let mut sim = Simulator::new(SimConfig::paper());
        let mut armed_at = None;
        let mut arm_at_500 = |sim: &mut Simulator, _: &mut NoTraffic, _: Landing| {
            if sim.cycle() == 500 {
                sim.arm_trojans(true);
                armed_at = Some(sim.cycle());
            }
            Cue::Act(500)
        };
        assert!(sim.drive(
            &mut NoTraffic,
            Stop::Drained { cap: 10_000 },
            &mut arm_at_500
        ));
        assert_eq!((armed_at, sim.cycle()), (Some(500), 501));
    }

    #[test]
    fn the_driver_tests_the_drain_before_its_first_step() {
        // A run that starts drained with its source done takes no step:
        // a campaign checkpoint can land on the drained cycle, and the
        // resumed run must end there.
        let mut sim = Simulator::new(SimConfig::paper());
        assert!(sim.run_to_quiescence(100, &mut NoTraffic));
        assert_eq!(sim.cycle(), 0);
        assert!(drain_guarded(&mut sim, &mut NoTraffic, 100).expect("an idle mesh never stalls"));
        assert_eq!(sim.cycle(), 0);
    }

    fn pkt(id: u64, cycle: u64, src: u16, dest: u16, len: u8) -> Packet {
        // Low 32 bits of the id carry the creation cycle (see created_at_of).
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

    #[test]
    fn single_packet_crosses_one_hop() {
        let mut sim = Simulator::new(SimConfig::paper());
        let mut src = ListSource {
            packets: vec![pkt(1, 0, 0, 1, 1)],
        };
        assert!(sim.run_to_quiescence(200, &mut src), "must drain");
        assert_eq!(sim.stats().delivered_packets, 1);
        assert_eq!(sim.stats().injected_packets, 1);
        // 5-stage pipeline × 2 routers + link ≈ 11±few cycles.
        let lat = sim.stats().avg_latency();
        assert!((8.0..=16.0).contains(&lat), "latency {lat}");
    }

    #[test]
    fn multi_flit_packet_delivers_in_order() {
        let mut sim = Simulator::new(SimConfig::paper());
        let mut src = ListSource {
            packets: vec![pkt(1, 0, 0, 15, 4)],
        };
        assert!(sim.run_to_quiescence(500, &mut src));
        assert_eq!(sim.stats().delivered_packets, 1);
        assert_eq!(sim.stats().delivered_flits, 4);
    }

    #[test]
    fn many_packets_all_deliver_without_faults() {
        let mut sim = Simulator::new(SimConfig::paper());
        let mut packets = Vec::new();
        for i in 0..40u64 {
            packets.push(pkt(i + 1, i, (i % 16) as u16, ((i * 7 + 3) % 16) as u16, 4));
        }
        let mut src = ListSource { packets };
        assert!(sim.run_to_quiescence(4000, &mut src), "must drain");
        assert_eq!(sim.stats().delivered_packets, 40);
        assert_eq!(sim.stats().delivered_flits, 160);
        assert_eq!(sim.stats().retransmissions, 0);
        assert_eq!(sim.stats().uncorrectable_faults, 0);
    }

    #[test]
    fn local_traffic_same_router_delivers() {
        let mut sim = Simulator::new(SimConfig::paper());
        let mut src = ListSource {
            packets: vec![pkt(1, 0, 5, 5, 2)],
        };
        assert!(sim.run_to_quiescence(100, &mut src));
        assert_eq!(sim.stats().delivered_packets, 1);
    }

    #[test]
    fn quiescence_detects_undelivered_flits() {
        let mut sim = Simulator::new(SimConfig::paper());
        let mut src = ListSource {
            packets: vec![pkt(1, 0, 0, 3, 4)],
        };
        sim.run(3, &mut src);
        assert!(!sim.is_quiescent(), "flits still in flight");
    }

    fn mount_dest_trojan(sim: &mut Simulator, dest: u16) -> LinkId {
        use noc_trojan::{TargetSpec, TaspConfig, TaspHt};
        // The XY route 0→1 uses the eastward link out of router 0.
        let link = sim
            .mesh()
            .link_out(
                NodeId(0),
                crate::routing::xy_direction(sim.mesh(), NodeId(0), NodeId(dest)),
            )
            .unwrap();
        let ht = TaspHt::new(TaspConfig::new(TargetSpec::dest(dest as u8)));
        sim.link_faults_mut(link).trojan = Some(ht);
        link
    }

    #[test]
    fn armed_trojan_without_mitigation_starves_the_flow() {
        let mut sim = Simulator::new(SimConfig::paper_unprotected());
        let link = mount_dest_trojan(&mut sim, 1);
        sim.arm_trojans(true);
        let mut src = ListSource {
            packets: vec![pkt(1, 0, 0, 1, 1)],
        };
        let drained = sim.run_to_quiescence(1000, &mut src);
        assert!(!drained, "targeted packet must never deliver");
        assert_eq!(sim.stats().delivered_packets, 0);
        assert!(sim.stats().retransmissions > 10, "NACK storm expected");
        assert!(sim.stats().uncorrectable_faults > 10);
        let _ = link;
    }

    #[test]
    fn mitigation_defeats_the_trojan() {
        let mut sim = Simulator::new(SimConfig::paper());
        mount_dest_trojan(&mut sim, 1);
        sim.arm_trojans(true);
        let mut src = ListSource {
            packets: vec![pkt(1, 0, 0, 1, 1)],
        };
        let drained = sim.run_to_quiescence(1000, &mut src);
        assert!(drained, "L-Ob must get the packet through");
        assert_eq!(sim.stats().delivered_packets, 1);
        // A handful of retransmissions while the detector converges, then
        // the obfuscated retry crosses cleanly.
        assert!(sim
            .events()
            .iter()
            .any(|e| matches!(e, SimEvent::ObfuscationSucceeded { .. })));
    }

    #[test]
    fn mitigation_handles_multi_flit_targeted_packets() {
        let mut sim = Simulator::new(SimConfig::paper());
        mount_dest_trojan(&mut sim, 1);
        sim.arm_trojans(true);
        let mut packets: Vec<Packet> = (0..6u64).map(|i| pkt(i + 1, i * 3, 0, 1, 4)).collect();
        packets
            .iter_mut()
            .for_each(|p| p.vc = VcId((p.id.0 % 4) as u8));
        let mut src = ListSource { packets };
        assert!(sim.run_to_quiescence(4000, &mut src));
        assert_eq!(sim.stats().delivered_packets, 6);
        assert_eq!(sim.stats().delivered_flits, 24);
    }

    #[test]
    fn disarmed_trojan_never_interferes() {
        let mut sim = Simulator::new(SimConfig::paper());
        mount_dest_trojan(&mut sim, 1);
        // Kill switch stays down.
        let mut src = ListSource {
            packets: vec![pkt(1, 0, 0, 1, 1)],
        };
        assert!(sim.run_to_quiescence(200, &mut src));
        assert_eq!(sim.stats().retransmissions, 0);
    }

    #[test]
    fn transient_faults_are_corrected_or_retried() {
        let mut sim = Simulator::new(SimConfig::paper());
        let link = sim.mesh().link_out(NodeId(0), Direction::East).unwrap();
        sim.link_faults_mut(link).transient_bit_prob = 0.002;
        let mut packets = Vec::new();
        for i in 0..20u64 {
            packets.push(pkt(i + 1, i * 2, 0, 1, 4));
        }
        let mut src = ListSource { packets };
        assert!(
            sim.run_to_quiescence(8000, &mut src),
            "transients must not kill the flow"
        );
        assert_eq!(sim.stats().delivered_packets, 20);
        assert!(
            sim.stats().corrected_faults + sim.stats().uncorrectable_faults > 0,
            "fault layer must have fired at p=0.002 over 80 flits × 72 bits"
        );
    }

    #[test]
    fn permanent_fault_is_found_by_bist() {
        use crate::fault::StuckWires;
        let mut sim = Simulator::new(SimConfig::paper());
        let link = sim.mesh().link_out(NodeId(0), Direction::East).unwrap();
        // Stick two wires so SECDED always sees a double error.
        sim.link_faults_mut(link).stuck = StuckWires {
            stuck_one: (1 << 10) | (1 << 20),
            stuck_zero: 0,
        };
        let mut src = ListSource {
            packets: vec![pkt(1, 0, 0, 1, 1)],
        };
        sim.run_to_quiescence(300, &mut src);
        assert!(
            sim.events()
                .iter()
                .any(|e| matches!(e, SimEvent::BistRan { passed: false, .. })),
            "BIST must find the stuck wires: {:?}",
            sim.events()
        );
    }

    #[test]
    fn dead_link_with_table_reroute_still_delivers() {
        use crate::routing::RouteTables;
        let mut sim = Simulator::new(SimConfig::paper());
        let dead = sim.mesh().link_out(NodeId(0), Direction::East).unwrap();
        let tables = RouteTables::build(sim.mesh(), &[dead]);
        sim.set_routing(Routing::Table(tables));
        sim.set_dead_links(vec![dead]);
        let mut src = ListSource {
            packets: vec![pkt(1, 0, 0, 1, 1)],
        };
        assert!(sim.run_to_quiescence(300, &mut src));
        assert_eq!(sim.stats().delivered_packets, 1);
        // Detour 0→4→5→1 (3 hops instead of 1): latency grows accordingly.
        assert!(sim.stats().avg_latency() > 15.0);
    }

    #[test]
    fn retry_budget_quarantines_unmitigated_trojan_link() {
        let mut cfg = SimConfig::paper_unprotected();
        cfg.retry_budget = Some(4);
        cfg.check_invariants_every = Some(16);
        let mut sim = Simulator::new(cfg);
        let link = mount_dest_trojan(&mut sim, 1);
        sim.arm_trojans(true);
        let mut src = ListSource {
            packets: vec![pkt(1, 0, 0, 1, 2), pkt(2, 4, 0, 1, 2)],
        };
        let drained = drain_guarded(&mut sim, &mut src, 4000).expect("no fatal error");
        assert!(sim.dead_links().contains(&link), "trojan link quarantined");
        assert_eq!(sim.stats().quarantined_links, 1);
        assert!(sim
            .events()
            .iter()
            .any(|e| matches!(e, SimEvent::LinkQuarantined { .. })));
        // Victims are written off, survivors reroute: either way the
        // network drains and the books balance.
        assert!(drained, "network must drain after degradation");
        assert!(sim.stats().flits_conserved());
        assert!(sim.stats().packets_conserved());
    }

    #[test]
    fn watchdog_diagnoses_livelock_and_quarantine_recovers() {
        use crate::error::SimError;
        use crate::watchdog::WatchdogConfig;
        let mut cfg = SimConfig::paper_unprotected();
        cfg.watchdog = Some(WatchdogConfig {
            global_stall_cycles: 2000,
            credit_stall_cycles: 1000,
            retx_attempt_limit: 8,
        });
        let mut sim = Simulator::new(cfg);
        let link = mount_dest_trojan(&mut sim, 1);
        sim.arm_trojans(true);
        let mut src = ListSource {
            packets: vec![pkt(1, 0, 0, 1, 2)],
        };
        let err = drain_guarded(&mut sim, &mut src, 4000)
            .expect_err("livelock must be diagnosed, not spun through");
        let SimError::Stalled(report) = err else {
            panic!("expected a stall, got {err:?}");
        };
        let (router, dir) = report.culprit().expect("livelock names its port");
        let culprit = sim.mesh().link_out(router, dir).expect("port has a link");
        assert_eq!(culprit, link, "watchdog must blame the trojan link");
        sim.quarantine_link(culprit)
            .expect("one quarantine cannot disconnect the paper mesh");
        let drained = drain_guarded(&mut sim, &mut src, 4000).expect("clean after quarantine");
        assert!(drained);
        assert!(sim.stats().flits_conserved());
        assert!(sim.check_invariants().is_empty());
    }

    #[test]
    fn watchdog_global_backstop_fires_without_a_culprit() {
        use crate::error::SimError;
        use crate::watchdog::{StallKind, WatchdogConfig};
        let mut cfg = SimConfig::paper_unprotected();
        cfg.watchdog = Some(WatchdogConfig {
            global_stall_cycles: 200,
            credit_stall_cycles: u64::MAX,
            retx_attempt_limit: u32::MAX,
        });
        let mut sim = Simulator::new(cfg);
        mount_dest_trojan(&mut sim, 1);
        sim.arm_trojans(true);
        let mut src = ListSource {
            packets: vec![pkt(1, 0, 0, 1, 2)],
        };
        let err = drain_guarded(&mut sim, &mut src, 4000).expect_err("the backstop must fire");
        let SimError::Stalled(report) = err else {
            panic!("expected a stall, got {err:?}");
        };
        assert!(matches!(report.kind, StallKind::GlobalDeadlock { .. }));
        assert_eq!(report.culprit(), None);
    }

    #[test]
    fn resilient_config_runs_clean_traffic_without_tripping() {
        let mut sim = Simulator::new(SimConfig::paper_resilient());
        let mut packets = Vec::new();
        for i in 0..30u64 {
            packets.push(pkt(i + 1, i, (i % 16) as u16, ((i * 5 + 2) % 16) as u16, 4));
        }
        let mut src = ListSource { packets };
        let drained = drain_guarded(&mut sim, &mut src, 4000)
            .expect("a healthy mesh must not trip any guard");
        assert!(drained);
        assert_eq!(sim.stats().delivered_packets, 30);
        assert_eq!(sim.stats().dropped_flits, 0);
        assert!(sim.stats().flits_conserved());
    }

    #[test]
    fn quarantine_purge_keeps_invariants_and_conservation_under_load() {
        use crate::watchdog::WatchdogConfig;
        let mut cfg = SimConfig::paper_unprotected();
        cfg.retry_budget = Some(4);
        cfg.check_invariants_every = Some(8);
        cfg.watchdog = Some(WatchdogConfig::default());
        let mut sim = Simulator::new(cfg);
        let link = mount_dest_trojan(&mut sim, 1);
        sim.arm_trojans(true);
        // Cross-traffic shares the condemned link while victims' flits
        // spread over several routers — the interesting purge paths.
        let mut packets = Vec::new();
        for i in 0..40u64 {
            let src_r = [0u16, 4, 8, 2, 12][(i % 5) as usize];
            let dest = [1u16, 1, 5, 1, 3][(i % 5) as usize];
            let mut p = pkt(i + 1, i, src_r, dest, 4);
            p.vc = VcId((i % 4) as u8);
            packets.push(p);
        }
        let mut src = ListSource { packets };
        let drained = drain_guarded(&mut sim, &mut src, 20_000)
            .expect("credit books must stay sound through the purge");
        assert!(drained, "mesh must drain after quarantine");
        assert!(sim.dead_links().contains(&link));
        let s = sim.stats();
        assert!(
            s.flits_conserved(),
            "delivered {} + dropped {} != injected {}",
            s.delivered_flits,
            s.dropped_flits,
            s.injected_flits
        );
        assert!(s.packets_conserved());
        assert!(sim.check_invariants().is_empty());
    }

    /// Stateless flood: until `until`, every router sends one four-flit
    /// packet per cycle, rotating over its cores and VCs, so injection
    /// queues back up. A restored simulator needs no source cursor.
    struct Flood {
        until: u64,
    }

    impl TrafficSource for Flood {
        fn poll(&mut self, cycle: u64, out: &mut Vec<Packet>) {
            if cycle >= self.until {
                return;
            }
            for src in 0..16u16 {
                let id = cycle * 16 + src as u64 + 1;
                let dest = (src + 1 + (id % 15) as u16) % 16;
                let mut p = pkt(id, cycle, src, dest, 4);
                p.vc = VcId((cycle / 4 % 4) as u8);
                p.thread = (cycle % 4) as u8;
                out.push(p);
            }
        }
    }

    /// Step `sim` to cycle `until`. A `quarantine` of `(cycle, link)`
    /// kills `link` on reaching `cycle`, and that purge must reach
    /// queued flits.
    fn drive(sim: &mut Simulator, src: &mut Flood, until: u64, quarantine: Option<(u64, LinkId)>) {
        while sim.cycle() < until {
            if let Some((_, link)) = quarantine.filter(|q| q.0 == sim.cycle()) {
                let queued = sim.queued_flits();
                sim.quarantine_link(link)
                    .expect("one dead link keeps the paper mesh connected");
                assert!(
                    sim.queued_flits() < queued,
                    "the purge must reach queued flits"
                );
            }
            sim.step(src);
        }
    }

    /// Snapshot while cores hold queued flits (after the flood stopped, so
    /// no new packet re-marks them), run on until those cores drain and
    /// leave the backlog set, restore into the same simulator and finish:
    /// the result must equal an uninterrupted run. A fresh simulator
    /// starts all-set, so only this path catches a restore that keeps
    /// the drained bits.
    fn restore_resets_the_backlog_set(quarantine: Option<(u64, LinkId)>) {
        const SNAP_AT: u64 = 50;
        const END: u64 = 3_000;
        let mut src = Flood { until: 40 };
        let mut straight = Simulator::new(SimConfig::paper());
        drive(&mut straight, &mut src, END, quarantine);
        assert!(straight.is_quiescent(), "the flood must drain by {END}");

        let mut sim = Simulator::new(SimConfig::paper());
        drive(&mut sim, &mut src, SNAP_AT, quarantine);
        let backlogged: Vec<usize> = (0..sim.inj_rr.len())
            .filter(|&core| sim.core_queue_len(core) > 0)
            .collect();
        assert!(
            !backlogged.is_empty(),
            "the snapshot must hold queued flits"
        );
        let snap = sim.snapshot();
        while backlogged.iter().any(|&core| sim.inj_set.get(core)) {
            assert!(sim.cycle() < END, "backlogged cores never left the set");
            let next = sim.cycle() + 1;
            drive(&mut sim, &mut src, next, quarantine);
        }
        sim.restore(&snap)
            .expect("a simulator restores its own snapshot");
        drive(&mut sim, &mut src, END, quarantine);
        assert_eq!(sim.stats(), straight.stats());
        assert_eq!(sim.snapshot().to_bytes(), straight.snapshot().to_bytes());
    }

    #[test]
    fn restore_resets_the_injection_backlog_set() {
        restore_resets_the_backlog_set(None);
    }

    #[test]
    fn restore_resets_the_backlog_set_across_a_purging_quarantine() {
        restore_resets_the_backlog_set(Some((66, LinkId(3))));
    }

    /// Two identical traced runs through a purging quarantine write the
    /// same trace stream and snapshot bytes: the drop records come out in
    /// ascending packet id, not in the purge set's iteration order.
    #[test]
    fn quarantine_drop_records_are_in_ascending_packet_order() {
        let run = || {
            let mut cfg = SimConfig::paper();
            cfg.trace = Some(crate::config::TraceConfig::default());
            let mut sim = Simulator::new(cfg);
            let link = sim
                .mesh()
                .link_out(NodeId(5), Direction::East)
                .expect("router 5 has an east link");
            drive(&mut sim, &mut Flood { until: 40 }, 60, None);
            sim.quarantine_link(link)
                .expect("one dead link keeps the paper mesh connected");
            sim
        };
        let (mut a, mut b) = (run(), run());
        let (ta, tb) = (a.tracer().expect("armed"), b.tracer().expect("armed"));
        let drops: Vec<PacketId> = ta
            .records()
            .filter_map(|r| match r.kind {
                TraceKind::PacketDropped { packet, .. } => Some(packet),
                _ => None,
            })
            .collect();
        assert_eq!(drops.len(), 16);
        assert!(drops.windows(2).all(|w| w[0] < w[1]), "{drops:?}");
        assert_eq!(ta.to_jsonl(), tb.to_jsonl());
        assert_eq!(a.snapshot().to_bytes(), b.snapshot().to_bytes());
    }

    /// An unprotected paper mesh with a TASP trojan on the 5→1 link,
    /// hunting flits bound for router 1. Every flow that ends at router 1
    /// from the rows above descends through that link, so under
    /// `Flood { until: 100 }` its NACK livelock backs the mesh up until
    /// it seals: the last flit is delivered near cycle 550, after which
    /// a dozen routers hold flits no stage can move and most cores wait
    /// at full injection ports.
    fn sealing_flood() -> (Simulator, Flood, LinkId) {
        use noc_trojan::{TargetSpec, TaspConfig, TaspHt};
        let mut sim = Simulator::new(SimConfig::paper_unprotected());
        let link = sim
            .mesh()
            .link_out(NodeId(5), Direction::South)
            .expect("router 5 has a south link");
        let ht = TaspHt::new(TaspConfig::new(TargetSpec::dest(1)));
        sim.link_faults_mut(link).trojan = Some(ht);
        sim.arm_trojans(true);
        (sim, Flood { until: 100 }, link)
    }

    fn blocked_cores(sim: &Simulator) -> usize {
        sim.inj_blocked.iter().filter(|b| **b).count()
    }

    #[test]
    fn a_sealed_mesh_schedules_only_its_livelocked_link() {
        let (mut sim, mut src, _) = sealing_flood();
        drive(&mut sim, &mut src, 1_000, None);
        let delivered = sim.stats().delivered_flits;
        let stalls = |sim: &Simulator| -> u64 {
            sim.metrics
                .routers
                .iter()
                .map(|r| r.injection_stalls.get())
                .sum()
        };
        for _ in 0..200 {
            let before = stalls(&sim);
            sim.step(&mut src);
            assert_eq!(sim.stats().delivered_flits, delivered, "the mesh is sealed");
            // Router 1 is the one router the NACKed arrivals still visit.
            assert!(
                sim.router_set.count() <= 1,
                "cycle {}: {} routers scheduled",
                sim.cycle(),
                sim.router_set.count()
            );
            assert!(sim.parked.count() >= 8, "{} parked", sim.parked.count());
            assert!(blocked_cores(&sim) >= 16, "{} blocked", blocked_cores(&sim));
            // Every waiting core is still charged its stall, unprobed.
            let waiting = (0..sim.inj_rr.len())
                .filter(|&core| sim.core_queue_len(core) > 0)
                .count() as u64;
            assert_eq!(stalls(&sim) - before, waiting);
        }
    }

    /// Runs one sealing flood straight to `END` and another that is
    /// snapshotted at `snap_at`, stepped on until `resume_at`, restored
    /// into the same simulator and finished; both apply `quarantine`.
    /// Their stats, counters and final snapshot bytes must agree. A fresh
    /// simulator starts with nothing parked or blocked, so only this path
    /// catches parking state that outlives a restore or a quarantine.
    /// The straight run also re-plans its shards right after the
    /// quarantine, which wakes every router, so a quarantine that leaves
    /// a router parked diverges from it.
    fn restore_resets_the_parking_state(
        snap_at: u64,
        resume_at: u64,
        quarantine: Option<u64>,
    ) -> Simulator {
        const END: u64 = 2_500;
        let (mut straight, mut src, link) = sealing_flood();
        let run = |sim: &mut Simulator, src: &mut Flood, until: u64, replan: bool| {
            while sim.cycle() < until {
                if quarantine == Some(sim.cycle()) {
                    sim.quarantine_link(link)
                        .expect("one dead link keeps the paper mesh connected");
                    if replan {
                        sim.set_threads(sim.threads());
                    }
                }
                sim.step(src);
            }
        };
        run(&mut straight, &mut src, END, true);

        let (mut sim, mut src, _) = sealing_flood();
        run(&mut sim, &mut src, snap_at, false);
        assert!(sim.parked.count() > 0 || snap_at < 500, "nothing parked");
        let snap = sim.snapshot();
        run(&mut sim, &mut src, resume_at, false);
        assert!(blocked_cores(&sim) > 0, "no core blocked");
        sim.restore(&snap)
            .expect("a simulator restores its own snapshot");
        run(&mut sim, &mut src, END, false);
        assert_eq!(sim.stats(), straight.stats());
        assert_eq!(sim.metrics.routers_csv(), straight.metrics.routers_csv());
        assert_eq!(sim.metrics.links_csv(END), straight.metrics.links_csv(END));
        assert_eq!(sim.snapshot().to_bytes(), straight.snapshot().to_bytes());
        straight
    }

    #[test]
    fn the_quiescence_probe_agrees_with_the_full_scan() {
        let full_scan = |sim: &Simulator| sim.resident_flits() == 0 && sim.queued_flits() == 0;
        let (mut sim, mut src, link) = sealing_flood();
        let mut sealed = 0;
        while sim.cycle() < 2_500 {
            if sim.cycle() == 1_000 {
                sim.quarantine_link(link)
                    .expect("one dead link keeps the paper mesh connected");
            }
            sim.step(&mut src);
            assert_eq!(sim.is_quiescent(), full_scan(&sim), "cycle {}", sim.cycle());
            sealed += usize::from(sim.cycle() < 1_000 && sim.parked.count() > 0);
        }
        assert!(
            sealed > 300,
            "the flood seals the mesh ({sealed} parked cycles)"
        );
        assert!(
            sim.is_quiescent(),
            "the quarantine unseals the mesh and it drains"
        );
    }

    #[test]
    fn restore_resets_parked_routers_and_blocked_cores() {
        // Snapshot while the mesh still delivers; restore once it has
        // sealed, with cores blocked that were admitting at the snapshot.
        let straight = restore_resets_the_parking_state(300, 900, None);
        assert!(!straight.is_quiescent(), "the trojan keeps the mesh sealed");
    }

    #[test]
    fn quarantine_wakes_parked_routers_and_blocked_cores() {
        // Snapshot the sealed mesh, then quarantine the trojan link: its
        // purge frees credits and slots behind parked routers and blocked
        // cores, and the rerouted mesh must drain.
        let straight = restore_resets_the_parking_state(800, 1_000, Some(850));
        assert!(straight.is_quiescent(), "the quarantine unseals the mesh");
    }

    #[test]
    fn a_link_is_dead_at_most_once() {
        let cfg = SimConfig::paper();
        let round_trips = |sim: &mut Simulator| {
            let snap = sim.snapshot();
            Simulator::new(cfg.clone())
                .restore(&snap)
                .expect("a dead-link set restores");
        };
        let link = Mesh::paper()
            .link_out(NodeId(0), Direction::East)
            .expect("router 0 has an east link");
        let mut sim = Simulator::new(cfg.clone());
        drive(&mut sim, &mut Flood { until: 60 }, 50, None);
        sim.quarantine_link(link).expect("first quarantine");
        let (events, stats, epoch) = (sim.events().len(), sim.stats().clone(), sim.routing_epoch);
        sim.quarantine_link(link).expect("second quarantine");
        assert_eq!(sim.dead_links(), &[link]);
        assert_eq!(sim.events().len(), events, "no second event");
        assert_eq!(sim.stats(), &stats, "no second purge or count");
        assert_eq!(sim.routing_epoch, epoch, "no second reroute");
        round_trips(&mut sim);

        let other = Mesh::paper()
            .link_out(NodeId(5), Direction::North)
            .expect("router 5 has a north link");
        let mut sim = Simulator::new(cfg.clone());
        sim.set_dead_links(vec![other, link, other, other, link]);
        assert_eq!(sim.dead_links(), &[other, link]);
        round_trips(&mut sim);
    }

    #[test]
    fn tdm_contains_interference_between_domains() {
        use crate::config::{QosMode, RetxScheme};
        let mut cfg = SimConfig::paper();
        cfg.qos = QosMode::Tdm { domains: 2 };
        cfg.retx_scheme = RetxScheme::PerVc;
        let mut sim = Simulator::new(cfg);
        // Domain 0 (VC 0) and domain 1 (VC 1) flows share the 0→1 link.
        let mut packets = Vec::new();
        for i in 0..10u64 {
            let mut p = pkt(i + 1, i * 4, 0, 1, 2);
            p.vc = VcId((i % 2) as u8);
            packets.push(p);
        }
        let mut src = ListSource { packets };
        assert!(sim.run_to_quiescence(2000, &mut src));
        assert_eq!(sim.stats().delivered_packets, 10);
    }
}
