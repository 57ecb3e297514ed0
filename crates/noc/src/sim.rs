//! The top-level cycle-accurate simulator.

use crate::activeset::ActiveSet;
use crate::config::SimConfig;
use crate::error::SimError;
use crate::fault::LinkFaults;
use crate::link::LinkLanes;
use crate::message::{SimEvent, TraceEvent};
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

    /// True once the source will never produce another packet (lets
    /// [`Simulator::run_to_quiescence`] terminate).
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

    /// Event-horizon lookahead for [`Simulator::skip_idle_cycles`]: the
    /// earliest cycle `>= now` at which polling this source may either
    /// produce a packet or change its observable state (`done()`), when
    /// polled cycle-by-cycle from `now`. `None` promises the source will
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
    /// [`crate::snapshot::config_hash`] of `cfg`, computed once: `cfg`
    /// never changes after construction, and snapshot/restore need it on
    /// every call. Derived state — never serialized.
    pub(crate) config_hash: u64,
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
    pub(crate) cycle: u64,
    pub(crate) next_flit_id: u64,
    /// Injection cycle per in-flight packet (latency accounting).
    pub(crate) birth: std::collections::HashMap<noc_types::PacketId, u64>,
    pub(crate) stats: SimStats,
    pub(crate) events: Vec<SimEvent>,
    /// Journey of the traced packet (when `cfg.trace_packet` is set).
    pub(crate) trace: Vec<TraceEvent>,
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
    /// Hierarchical superset of `router_active` (see [`crate::activeset`]):
    /// the per-router phases iterate only its set bits. Derived state —
    /// never serialized; rebuilt all-set on construct/restore/re-shard.
    pub(crate) router_set: ActiveSet,
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
            config_hash: crate::snapshot::config_hash(&cfg),
            cfg,
            mesh,
            routing,
            routing_epoch: 0,
            routers,
            links,
            dead_links: Vec::new(),
            inj_queues: (0..cores * vcs).map(|_| VecDeque::new()).collect(),
            inj_rr: vec![0; cores],
            cycle: 0,
            next_flit_id: 0,
            birth: std::collections::HashMap::new(),
            stats: SimStats::default(),
            events: Vec::new(),
            trace: Vec::new(),
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

    /// Replace the routing function (rerouting baseline).
    pub fn set_routing(&mut self, routing: Routing) {
        self.routing = routing;
        self.routing_epoch = self.routing_epoch.wrapping_add(1);
    }

    /// Declare links dead: nothing launches on them any more. Combine with
    /// [`Simulator::set_routing`] so traffic avoids them.
    pub fn set_dead_links(&mut self, dead: Vec<LinkId>) {
        self.link_dead.fill(false);
        for l in &dead {
            self.link_dead[l.index()] = true;
        }
        self.dead_links = dead;
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

    /// Clear measurement counters (keep the time series): call after a
    /// warm-up phase so averages reflect only the steady state.
    pub fn reset_measurement(&mut self) {
        self.stats.reset_measurement();
        self.snap_base = (0, 0, 0);
    }

    /// The traced packet's journey so far (`cfg.trace_packet`).
    pub fn trace(&self) -> &[TraceEvent] {
        &self.trace
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
    /// self-profiling, streaming latency/retx sketches, and the alert
    /// rules. Runtime-only by design — not part of `SimConfig`, so
    /// arming it never changes the checkpoint config hash, and the
    /// zero-perturbation tests prove it never changes simulated state.
    pub fn set_telemetry(&mut self, cfg: crate::telemetry::TelemetryConfig) {
        let tel = crate::telemetry::Telemetry::new(cfg);
        self.epoch = tel.epoch;
        self.telemetry = Some(Box::new(tel));
    }

    /// The telemetry plane, when armed.
    pub fn telemetry(&self) -> Option<&crate::telemetry::Telemetry> {
        self.telemetry.as_deref()
    }

    /// Disarm and return the telemetry plane.
    pub fn take_telemetry(&mut self) -> Option<Box<crate::telemetry::Telemetry>> {
        self.telemetry.take()
    }

    /// Prometheus text exposition of the metrics registry, aggregate
    /// statistics, and (when armed) the telemetry gauges. `labels` are
    /// attached to every sample.
    pub fn prometheus_text(&self, labels: &[(&str, &str)]) -> String {
        crate::telemetry::prometheus_text(
            self.cycle,
            &self.stats,
            &self.metrics,
            self.telemetry.as_deref(),
            labels,
        )
    }

    /// Forensics: every buffered trace record about `packet`, in order
    /// (empty when tracing is disabled).
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

    /// True when no flit remains anywhere.
    pub fn is_quiescent(&self) -> bool {
        self.resident_flits() == 0 && self.queued_flits() == 0
    }

    // ------------------------------------------------------------------
    // Execution
    // ------------------------------------------------------------------

    /// Run for `cycles` cycles with the given traffic source. Provably
    /// no-op stretches are fast-forwarded (see
    /// [`Simulator::skip_idle_cycles`]); the final state is bit-identical
    /// to naive stepping.
    pub fn run(&mut self, cycles: u64, source: &mut dyn TrafficSource) {
        let deadline = self.cycle.saturating_add(cycles);
        while self.cycle < deadline {
            if self.skip_idle_cycles(deadline - self.cycle, source) == 0 {
                self.step(source);
            }
        }
    }

    /// Run until every injected flit is delivered (or `max_cycles` passes,
    /// which indicates saturation/deadlock). Returns true on full drain.
    pub fn run_to_quiescence(&mut self, max_cycles: u64, source: &mut dyn TrafficSource) -> bool {
        let deadline = self.cycle.saturating_add(max_cycles);
        while self.cycle < deadline {
            self.step(source);
            if source.done() && self.is_quiescent() {
                return true;
            }
            // Fast-forward only after the exit check: the skip gate
            // requires an empty network and a future horizon, conditions
            // under which the naive loop provably would not have exited
            // during the skipped stretch (the source is not done).
            if self.cycle < deadline {
                self.skip_idle_cycles(deadline - self.cycle, source);
            }
        }
        source.done() && self.is_quiescent()
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
                if self.dead_links.contains(&link) {
                    continue;
                }
                if let Err(err) = self.quarantine_link(link) {
                    self.poisoned.get_or_insert(err);
                }
            }
        }
        self.cycle = now + 1;
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

    /// Guarded version of [`Simulator::run`].
    pub fn run_guarded(
        &mut self,
        cycles: u64,
        source: &mut dyn TrafficSource,
    ) -> Result<(), SimError> {
        let deadline = self.cycle.saturating_add(cycles);
        while self.cycle < deadline {
            if self.skip_idle_cycles_guarded(deadline - self.cycle, source)? == 0 {
                self.try_step(source)?;
            }
        }
        Ok(())
    }

    /// Guarded version of [`Simulator::run_to_quiescence`]: instead of
    /// silently spinning through a deadlock until the cycle budget dies,
    /// the watchdog converts the stall into a structured error.
    pub fn run_to_quiescence_guarded(
        &mut self,
        max_cycles: u64,
        source: &mut dyn TrafficSource,
    ) -> Result<bool, SimError> {
        let deadline = self.cycle.saturating_add(max_cycles);
        while self.cycle < deadline {
            self.try_step(source)?;
            if source.done() && self.is_quiescent() {
                return Ok(true);
            }
            if self.cycle < deadline {
                self.skip_idle_cycles_guarded(deadline - self.cycle, source)?;
            }
        }
        Ok(source.done() && self.is_quiescent())
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

    /// Guarded fast-forward: replays [`Simulator::try_step`]'s periodic
    /// invariant audit. The simulator state is constant across the
    /// window, so a single audit stands for every multiple of
    /// `check_invariants_every` inside it; on violation the skip is
    /// truncated to the exact cycle where naive guarded stepping would
    /// have surfaced the error.
    pub fn skip_idle_cycles_guarded(
        &mut self,
        limit: u64,
        source: &mut dyn TrafficSource,
    ) -> Result<u64, SimError> {
        let Some((from, to)) = self.skip_window(limit, source) else {
            return Ok(0);
        };
        if let Some(every) = self.cfg.check_invariants_every {
            // `try_step` audits after the cycle counter increments, i.e.
            // at multiples of `every` in `(from, to]`.
            let first = (from + 1).next_multiple_of(every.max(1));
            if first <= to {
                let violations = self.check_all_invariants();
                if !violations.is_empty() {
                    self.commit_skip(from, first, source);
                    return Err(SimError::InvariantViolations {
                        cycle: first,
                        violations,
                    });
                }
            }
        }
        self.commit_skip(from, to, source);
        Ok(to - from)
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
        if let Some(t) = self.telemetry.as_deref_mut() {
            t.note_skipped(to - from);
        }
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
            fwd_set: &self.fwd_set,
            rev_set: &self.rev_set,
            launch_set: &self.launch_set,
            dst_pos: &self.dst_pos,
            dst_order: &self.dst_order,
            src_pos: &self.src_pos,
            src_order: &self.src_order,
            tracing: self.tracer.is_some(),
            telemetry: self.telemetry.is_some(),
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
            trace,
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
        // Traced-packet journey (third stream).
        merge_keyed(fx, |f| &mut f.p1_trace, |e| trace.push(e));
        merge_keyed(fx, |f| &mut f.p4_trace, |e| trace.push(e));
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
                if cfg.trace_packet == Some(ej.flit.packet) {
                    trace.push(TraceEvent::Ejected {
                        cycle: now,
                        flit: ej.flit.id,
                        router: node,
                    });
                }
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
                    let latency = now.saturating_sub(born);
                    stats.record_latency(latency);
                    if let Some(t) = telemetry.as_deref_mut() {
                        t.record_latency(latency);
                    }
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
        // scratch plus simulation-derived integers already committed.
        if let Some(t) = telemetry.as_deref_mut() {
            let profiled = t.profile_due(now);
            t.absorb_cycle(now, profiled, fx);
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
            if self.cfg.trace_packet == Some(pkt.id) {
                for f in &flits {
                    self.trace.push(TraceEvent::Injected {
                        cycle: now,
                        flit: f.id,
                        core: core as u16,
                    });
                }
            }
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
        }
        self.flit_scratch = flits;
        self.poll_buf = packets;
        // One flit per injection port per cycle; round-robin over the
        // port's VC-class queues so no class starves another.
        for core in 0..self.inj_rr.len() {
            let router = core / conc as usize;
            let port = Port::Local((core % conc as usize) as u8);
            let start = self.inj_rr[core] as usize;
            let mut admitted = false;
            let mut waiting = false;
            for off in 0..vcs {
                let v = (start + off) % vcs;
                let q = core * vcs + v;
                let Some(f) = self.inj_queues[q].front().copied() else {
                    continue;
                };
                waiting = true;
                let vc = f.header.vc;
                debug_assert_eq!(vc.index(), v);
                let unit = &self.routers[router].inputs[port.index()];
                let ivc = &unit.vcs[vc.index()];
                let admit_head = f.kind.carries_header()
                    && ivc.state == crate::input::VcState::Idle
                    && ivc.fifo.is_empty();
                let admit_body = !f.kind.carries_header()
                    && ivc
                        .fifo
                        .back()
                        .map(|b| b.packet == f.packet)
                        .unwrap_or(ivc.state != crate::input::VcState::Idle);
                let has_room = unit.free_slots(vc, self.cfg.vc_depth as usize) > 0;
                if has_room && (admit_head || admit_body) {
                    self.inj_queues[q].pop_front();
                    self.routers[router].buffer_write(port, vc, f, now);
                    self.router_active[router] = true;
                    self.router_set.set(router);
                    self.inj_rr[core] = ((v + 1) % vcs) as u8;
                    self.last_progress_cycle = now;
                    admitted = true;
                    break;
                }
            }
            // A core with a flit waiting and no VC able to admit it spent
            // this cycle stalled at the injection port.
            if waiting && !admitted {
                self.metrics
                    .router_mut(NodeId(router as u16))
                    .injection_stalls
                    .inc();
            }
        }
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
    /// Errors with [`SimError::MeshDisconnected`] when no route table can
    /// connect all routers any more — the mesh cannot degrade further.
    pub fn quarantine_link(&mut self, link: LinkId) -> Result<(), SimError> {
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
        let mut packets = 0u64;
        for pid in victims {
            if self.birth.remove(pid).is_some() {
                packets += 1;
                emit!(self, now, TraceKind::PacketDropped { packet: *pid, link });
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
                p99_latency: None, // filled from the window sketch
                retransmissions: snap.retransmissions,
                delivered_flits: snap.delivered_flits,
                resident_flits: self.resident_flits() as u64,
                max_credit_age,
            };
            for alert in tel.evaluate_window(obs) {
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

#[cfg(test)]
mod tests {
    use super::*;
    use noc_types::{Direction, PacketId, VcId};

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
        let faults = std::mem::replace(sim.link_faults_mut(link), LinkFaults::healthy(0));
        *sim.link_faults_mut(link) = faults.with_trojan(ht);
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
        let drained = sim
            .run_to_quiescence_guarded(4000, &mut src)
            .expect("no fatal error");
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
        let err = sim
            .run_to_quiescence_guarded(4000, &mut src)
            .expect_err("livelock must be diagnosed, not spun through");
        let SimError::Stalled(report) = err else {
            panic!("expected a stall, got {err:?}");
        };
        let (router, dir) = report.culprit().expect("livelock names its port");
        let culprit = sim.mesh().link_out(router, dir).expect("port has a link");
        assert_eq!(culprit, link, "watchdog must blame the trojan link");
        sim.quarantine_link(culprit)
            .expect("one quarantine cannot disconnect the paper mesh");
        let drained = sim
            .run_to_quiescence_guarded(4000, &mut src)
            .expect("clean after quarantine");
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
        let err = sim
            .run_to_quiescence_guarded(4000, &mut src)
            .expect_err("the backstop must fire");
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
        let drained = sim
            .run_to_quiescence_guarded(4000, &mut src)
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
        let drained = sim
            .run_to_quiescence_guarded(20_000, &mut src)
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
