//! Deterministic fault-injection campaigns.
//!
//! Each scenario replays one seeded failure mode against the resilience
//! layer — transient storms, stuck-at bursts, trojan kill-switch toggling
//! mid-run, multi-trojan placements, link death and revival — and asserts
//! the two properties the layer exists to provide:
//!
//! * **conservation** — every injected flit/packet is either delivered or
//!   explicitly dropped by a quarantine purge
//!   (`delivered + dropped == injected` at quiescence, never a silent
//!   loss);
//! * **integrity** — [`noc_sim::Simulator::check_invariants`] finds zero
//!   micro-architectural violations after the dust settles (and the
//!   guarded step audits periodically along the way).
//!
//! Every scenario, the alert [`baseline_uniform`] and the checkpointed
//! flood run through the simulator's run driver ([`Simulator::drive`])
//! with a guarded hook: a guarded step ([`Simulator::try_step`]) every
//! cycle, so a deadlock surfaces as a structured [`StallReport`] the hook
//! acts on (quarantine the culprit and resume) instead of a silent spin
//! to the cycle cap. A scenario is
//! its configuration, its traffic, a cycle cap and its cues: the scripted
//! turns (a storm, an arming edge, a link death) with the stall policy
//! that holds from each on. The [`trojan_flood`] scenario is the
//! acceptance case: an unmitigated trojan DoS that previously spun
//! forever now terminates with a watchdog diagnosis, a quarantined link,
//! and a full drain. [`RunOpts`] attaches shards, the tracer, telemetry
//! and checkpoints to it without changing the run.
//!
//! Everything is seeded: same seed, same run, bit for bit.

use noc_sim::fault::StuckWires;
use noc_sim::routing::{xy_direction, xy_path, Routing};
use noc_sim::{
    Checkpointer, Hook, Landing, Persist, Reader, SimConfig, SimError, Simulator, SnapshotError,
    StallReport, Stop, TelemetryConfig, TelemetryOut, TraceConfig, TraceSink, TrafficSource,
    WatchdogConfig, Writer,
};
use noc_traffic::{Pattern, SyntheticTraffic};
use noc_trojan::{TargetSpec, TaspConfig, TaspHt};
use noc_types::{LinkId, NodeId};

/// Default campaign seed (any seed works; this one is the published run).
pub const CAMPAIGN_SEED: u64 = 0xD15EA5E;

/// What one campaign scenario did, after its assertions passed. Two
/// reports compare equal when their stall diagnoses do, whatever
/// heartbeat the diagnoses carry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioReport {
    /// Scenario name (one of the `campaign` module's scenario functions).
    pub name: &'static str,
    /// Seed the scenario ran with.
    pub seed: u64,
    /// Cycle the run ended at (quiescent).
    pub cycles: u64,
    /// Flits injected over the run.
    pub injected_flits: u64,
    /// Flits delivered to their destination cores.
    pub delivered_flits: u64,
    /// Flits explicitly dropped by quarantine purges.
    pub dropped_flits: u64,
    /// Links quarantined (budget exhaustion, watchdog, or scripted death).
    pub quarantined_links: u64,
    /// Retry-budget escalations that forced L-Ob on a stuck entry.
    pub budget_escalations: u64,
    /// Every watchdog diagnosis raised (and acted on) during the run.
    pub stalls: Vec<StallReport>,
}

impl std::fmt::Display for ScenarioReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:<20} cycles={:<6} flits {}/{} delivered, {} dropped, \
             {} quarantined link(s), {} escalation(s), {} stall(s)",
            self.name,
            self.cycles,
            self.delivered_flits,
            self.injected_flits,
            self.dropped_flits,
            self.quarantined_links,
            self.budget_escalations,
            self.stalls.len()
        )?;
        for s in &self.stalls {
            write!(f, "\n    watchdog: {s}")?;
        }
        Ok(())
    }
}

/// How a scenario responds to a watchdog diagnosis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StallPolicy {
    /// No stall is expected; one is a scenario failure.
    Fatal,
    /// Quarantine the blamed link and resume (graceful degradation).
    QuarantineCulprit,
}

use StallPolicy::{Fatal, QuarantineCulprit};

/// One scripted turn of a scenario: at the cycle, the action runs on the
/// simulator, and from then on a stall is handled by the policy. Until a
/// scenario's first cue, a stall is fatal.
type Cue<'s> = (u64, StallPolicy, Box<dyn FnMut(&mut Simulator) + 's>);

fn cue<'s>(at: u64, policy: StallPolicy, act: impl FnMut(&mut Simulator) + 's) -> Cue<'s> {
    (at, policy, Box::new(act))
}

/// Raise or drop every trojan's kill switch.
fn arm(on: bool) -> impl FnMut(&mut Simulator) {
    move |sim| sim.arm_trojans(on)
}

/// What a run carries besides its scenario: the shard count, the
/// side-band observers and checkpointing. None of it changes the
/// simulated run; the determinism, telemetry and checkpoint suites pin
/// that reports, statistics and snapshots are bit-identical whatever is
/// attached.
#[derive(Default)]
pub struct RunOpts<'a> {
    /// Shards of the cycle engine (0 and 1 both run sequentially).
    pub threads: usize,
    /// Arm the structured tracer.
    pub trace: Option<TraceConfig>,
    /// Arm the tracer (with `trace`, or the default ring) and stream
    /// every record through this sink as it is emitted, so it sees the
    /// full history after the ring wraps; closed when the run ends.
    pub trace_sink: Option<Box<dyn TraceSink>>,
    /// Arm the telemetry plane: engine self-profiling and the default
    /// alert rules.
    pub telemetry: bool,
    /// Arm telemetry and stream interval Prometheus expositions and
    /// heartbeats here, then the final exposition and the engine Chrome
    /// trace once the run drains.
    pub telemetry_out: Option<&'a mut TelemetryOut>,
    /// Checkpoint periodically, resume or halt as these options say.
    pub checkpoint: Option<&'a CheckpointOpts>,
}

/// Options for a checkpointed run ([`RunOpts::checkpoint`]).
#[derive(Debug, Clone)]
pub struct CheckpointOpts {
    /// Snapshot the simulator every this-many cycles (0 = never).
    pub every: u64,
    /// Directory the rotating checkpoint files live in; the newest
    /// three are kept.
    pub dir: std::path::PathBuf,
    /// Resume from the newest valid checkpoint in `dir` instead of
    /// starting at cycle 0.
    pub resume: bool,
    /// Stop the run when the simulator reaches this cycle, as a
    /// crash would — the hook the kill-and-resume tests use. `None` runs
    /// to completion.
    pub halt_at: Option<u64>,
}

impl CheckpointOpts {
    /// Checkpoint into `dir` every `every` cycles.
    pub fn new(dir: impl Into<std::path::PathBuf>, every: u64) -> Self {
        Self {
            every,
            dir: dir.into(),
            resume: false,
            halt_at: None,
        }
    }

    /// Open the checkpoint directory. With `resume`, restore `sim`, the
    /// stall log and the traffic cursor from the newest valid checkpoint
    /// (if any); without, refuse a directory that already holds
    /// checkpoints.
    fn open(
        &self,
        sim: &mut Simulator,
        stalls: &mut Vec<StallReport>,
        traffic: &mut dyn TrafficSource,
    ) -> Result<Checkpointer, RunError> {
        let ck = Checkpointer::new(&self.dir, 3);
        let in_dir = |error| RunError::Checkpoint {
            path: self.dir.clone(),
            error,
        };
        if self.resume {
            if let Some((path, snap)) = ck.load_latest().map_err(in_dir)? {
                // `user_data` holds the stall log, then the traffic cursor.
                let mut ud = Reader::new(snap.user_data());
                sim.restore(&snap)
                    .and_then(|()| stalls.persist(&mut ud))
                    .and_then(|()| traffic.load_cursor(&mut ud))
                    .and_then(|()| ud.finish())
                    .map_err(|error| RunError::Checkpoint { path, error })?;
            }
        } else {
            // A fresh run's saves would rotate out or overwrite another
            // run's checkpoints, and a later resume would continue that run.
            let checkpoints = ck.files().map_err(in_dir)?.len();
            if checkpoints > 0 {
                return Err(in_dir(SnapshotError::DirInUse { checkpoints }));
            }
        }
        Ok(ck)
    }
}

/// Why a run ended without a report.
#[derive(Debug)]
pub enum RunError {
    /// A checkpoint could not be loaded, decoded or saved, or a fresh
    /// run found its directory already holding checkpoints.
    Checkpoint {
        /// The checkpoint file, or the checkpoint directory when the
        /// failure is not tied to one file (listing it, writing into it).
        path: std::path::PathBuf,
        /// What went wrong.
        error: SnapshotError,
    },
    /// [`CheckpointOpts::halt_at`] stopped the run, as a crash would.
    Halted,
    /// The final telemetry exposition or engine trace could not be
    /// written.
    Telemetry(std::io::Error),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Checkpoint { path, error } => {
                write!(f, "checkpoint {}: {error}", path.display())
            }
            RunError::Halted => f.write_str("halted (simulated crash)"),
            RunError::Telemetry(e) => write!(f, "telemetry write failed: {e}"),
        }
    }
}

impl std::error::Error for RunError {}

/// `expect` message for a run with no checkpoints and no telemetry
/// output, which has nothing to fail on but a panic.
const UNATTACHED: &str = "a run without checkpoints or telemetry output ends in a report";

/// A scenario's simulator, built with the run's options attached.
struct Run<'a> {
    name: &'static str,
    seed: u64,
    sim: Simulator,
    opts: RunOpts<'a>,
}

impl<'a> Run<'a> {
    fn new(name: &'static str, seed: u64, mut cfg: SimConfig, mut opts: RunOpts<'a>) -> Self {
        cfg.threads = Some(opts.threads.max(1));
        let sink_ring = opts.trace_sink.as_ref().map(|_| TraceConfig::default());
        cfg.trace = opts.trace.or(sink_ring);
        let mut sim = Simulator::new(cfg);
        if opts.telemetry || opts.telemetry_out.is_some() {
            sim.set_telemetry(TelemetryConfig::default());
        }
        if let Some(sink) = opts.trace_sink.take() {
            sim.set_trace_sink(sink);
        }
        if let Some(ck) = opts.checkpoint {
            // Watchdog trips dump a forensic snapshot next to the
            // checkpoints, so a CI failure ships the stalled simulator
            // state as an artifact.
            sim.set_post_mortem_dir(Some(ck.dir.join("post-mortem")));
        }
        Run {
            name,
            seed,
            sim,
            opts,
        }
    }

    /// A run on the paper platform with the resilience layer armed and
    /// nothing attached.
    fn resilient(name: &'static str, seed: u64) -> Self {
        Self::new(name, seed, SimConfig::paper_resilient(), RunOpts::default())
    }

    /// Synthetic traffic on the run's mesh and seed, injecting until cycle
    /// `until`.
    fn traffic(&self, pattern: Pattern, rate: f64, until: u64) -> SyntheticTraffic {
        SyntheticTraffic::new(self.sim.mesh().clone(), pattern, rate, self.seed).until(until)
    }

    /// Run the scenario through the simulator's driver
    /// ([`Simulator::drive`]) with its [`Schedule`] as the hook, stopping
    /// once the cues are played and the network has drained (or at
    /// `cap`). Then audit the run ([`finish`]) and write the final
    /// telemetry.
    fn drive(
        self,
        mut traffic: SyntheticTraffic,
        cap: u64,
        cues: Vec<Cue<'_>>,
    ) -> Result<(ScenarioReport, Simulator), RunError> {
        let Run {
            name,
            seed,
            mut sim,
            opts,
        } = self;
        let mut stalls = Vec::new();
        let ckpt = match opts.checkpoint {
            Some(o) => Some((o, o.open(&mut sim, &mut stalls, &mut traffic)?)),
            None => None,
        };
        let mut schedule = Schedule {
            name,
            cues,
            policy: Fatal,
            stalls,
            ckpt,
            out: opts.telemetry_out,
            error: None,
        };
        let drained = sim.drive(&mut traffic, Stop::Drained { cap }, &mut schedule);
        if let Some(err) = schedule.error {
            return Err(err);
        }
        if let Some(t) = sim.tracer_mut() {
            t.close_sink();
        }
        let rep = finish(name, seed, &sim, drained, schedule.stalls);
        if let Some(out) = schedule.out {
            if let Some(tel) = sim.telemetry() {
                out.write_artifact("engine_trace.json", tel.engine_chrome_trace().as_bytes())
                    .map_err(RunError::Telemetry)?;
            }
            expose(out, name, &sim).map_err(RunError::Telemetry)?;
        }
        Ok((rep, sim))
    }
}

/// A run's part in the driver ([`Hook`]): at every cycle it plays the
/// cues due, saves or halts at the checkpoint cycles and pumps
/// telemetry; the next cue holds the drain stop. Every cycle takes a
/// guarded step, and a stall is handled by the current policy.
struct Schedule<'a, 's> {
    name: &'static str,
    /// The cues not yet played.
    cues: Vec<Cue<'s>>,
    policy: StallPolicy,
    stalls: Vec<StallReport>,
    ckpt: Option<(&'a CheckpointOpts, Checkpointer)>,
    out: Option<&'a mut TelemetryOut>,
    /// Why the run ended early: a failed save, or the halt.
    error: Option<RunError>,
}

impl Hook<SyntheticTraffic> for Schedule<'_, '_> {
    const GUARDED: bool = true;

    fn at(
        &mut self,
        sim: &mut Simulator,
        traffic: &mut SyntheticTraffic,
        _: Landing,
    ) -> noc_sim::Cue {
        let now = sim.cycle();
        // A resumed run starts past the cues its checkpoint already
        // holds the effect of: it takes their policy, not their action.
        while self.cues.first().is_some_and(|c| c.0 <= now) {
            let (at, then, mut act) = self.cues.remove(0);
            if at == now {
                act(sim);
            }
            self.policy = then;
        }
        if let Some((o, ck)) = &self.ckpt {
            if o.every > 0 && now > 0 && now.is_multiple_of(o.every) {
                if let Err(err) = save(ck, sim, &mut self.stalls, traffic) {
                    self.error = Some(err);
                    return noc_sim::Cue::End;
                }
            }
            if o.halt_at.is_some_and(|h| now >= h) {
                self.error = Some(RunError::Halted);
                return noc_sim::Cue::End;
            }
        }
        if let Some(out) = self.out.as_deref_mut().filter(|o| o.due(now)) {
            // Telemetry IO must never kill a healthy simulation.
            let _ = expose(out, self.name, sim);
        }
        match self.cues.first() {
            Some(cue) => noc_sim::Cue::Act(cue.0),
            None => noc_sim::Cue::Free,
        }
    }

    fn stalled(&mut self, sim: &mut Simulator, err: SimError) -> bool {
        let SimError::Stalled(report) = err else {
            panic!("fatal simulator error at cycle {}: {err}", sim.cycle());
        };
        self.stalls.push(*report);
        if self.policy == Fatal {
            panic!("unexpected stall: {report}");
        }
        let (router, dir) = report
            .culprit()
            .unwrap_or_else(|| panic!("stall names no culprit to quarantine: {report}"));
        let link = sim
            .mesh()
            .link_out(router, dir)
            .expect("a blamed output port always has a link");
        sim.quarantine_link(link)
            .unwrap_or_else(|e| panic!("quarantine of {link:?} failed: {e}"));
        true
    }
}

/// Save the simulator with the stall log and the traffic cursor as its
/// user data.
fn save(
    ck: &Checkpointer,
    sim: &mut Simulator,
    stalls: &mut Vec<StallReport>,
    traffic: &mut dyn TrafficSource,
) -> Result<(), RunError> {
    let mut snap = sim.snapshot();
    let mut ud = Writer::default();
    ud.put(stalls);
    traffic.save_cursor(&mut ud);
    snap.set_user_data(ud.into_bytes());
    ck.save(&snap)
        .map(drop)
        .map_err(|error| RunError::Checkpoint {
            path: ck.dir().to_owned(),
            error,
        })
}

/// Write the Prometheus exposition and a heartbeat for the current cycle,
/// every sample labelled with the scenario.
fn expose(out: &mut TelemetryOut, scenario: &str, sim: &Simulator) -> std::io::Result<()> {
    let prom = sim.prometheus_text(&[("scenario", scenario)]);
    let alerts = sim.telemetry().map_or(0, |t| t.alerts().fired_total());
    out.write_now(sim.cycle(), &prom, None, alerts).map(drop)
}

/// Final audit: drained, conserved, and invariant-clean — then report.
fn finish(
    name: &'static str,
    seed: u64,
    sim: &Simulator,
    drained: bool,
    stalls: Vec<StallReport>,
) -> ScenarioReport {
    assert!(
        drained,
        "{name}: failed to drain by cycle {} ({} resident, {} queued)",
        sim.cycle(),
        sim.resident_flits(),
        sim.queued_flits()
    );
    let violations = sim.check_invariants();
    assert!(
        violations.is_empty(),
        "{name}: {} invariant violation(s) at cycle {}: {violations:?}",
        violations.len(),
        sim.cycle()
    );
    let s = sim.stats();
    assert!(
        s.flits_conserved(),
        "{name}: flit conservation broken: injected={} delivered={} dropped={}",
        s.injected_flits,
        s.delivered_flits,
        s.dropped_flits
    );
    assert!(
        s.packets_conserved(),
        "{name}: packet conservation broken: injected={} delivered={} dropped={}",
        s.injected_packets,
        s.delivered_packets,
        s.dropped_packets
    );
    ScenarioReport {
        name,
        seed,
        cycles: sim.cycle(),
        injected_flits: s.injected_flits,
        delivered_flits: s.delivered_flits,
        dropped_flits: s.dropped_flits,
        quarantined_links: s.quarantined_links,
        budget_escalations: s.budget_escalations,
        stalls,
    }
}

/// Mount an (unarmed) TASP trojan hunting `dest` on `link`.
fn mount_trojan(sim: &mut Simulator, link: LinkId, dest: NodeId) {
    let ht = TaspHt::new(TaspConfig::new(TargetSpec::dest((dest.0 & 0xF) as u8)));
    sim.link_faults_mut(link).trojan = Some(ht);
}

/// The XY link between two adjacent routers.
fn hop(sim: &Simulator, from: NodeId, to: NodeId) -> LinkId {
    let dir = xy_direction(sim.mesh(), from, to);
    sim.mesh()
        .link_out(from, dir)
        .expect("adjacent routers share a link")
}

/// **Transient storm** — a burst window where four central links flip
/// bits at high probability. SECDED corrects the singles, NACK/replay
/// absorbs the doubles; everything still arrives, nothing is dropped.
pub fn transient_storm(seed: u64) -> ScenarioReport {
    let run = Run::resilient("transient_storm", seed);
    let traffic = run.traffic(Pattern::UniformRandom, 0.05, 1200);
    // The storm strikes the four busiest central links for 300 cycles.
    let storm: Vec<LinkId> = [(5, 6), (6, 5), (9, 10), (10, 9)]
        .iter()
        .map(|&(a, b)| hop(&run.sim, NodeId(a), NodeId(b)))
        .collect();
    let set_storm = |sim: &mut Simulator, prob: f64| {
        for &l in &storm {
            sim.link_faults_mut(l).transient_bit_prob = prob;
        }
    };
    let cues = vec![
        cue(200, Fatal, |sim| set_storm(sim, 1e-3)),
        cue(500, Fatal, |sim| set_storm(sim, 0.0)),
    ];
    let (rep, sim) = run.drive(traffic, 8_000, cues).expect(UNATTACHED);
    assert!(
        sim.stats().corrected_faults > 0,
        "the storm must exercise SECDED correction"
    );
    assert_eq!(rep.dropped_flits, 0, "transients never cost a flit");
    rep
}

/// **Stuck-at burst** — two wires of one central link fail hard mid-run.
/// Flits whose codewords disagree with both stuck values see a 2-bit
/// (uncorrectable) error on every traversal; with no mitigation rung the
/// retry budget escalates straight to quarantine, traffic reroutes, and
/// the run drains with the purge accounted for.
pub fn stuck_at_burst(seed: u64) -> ScenarioReport {
    let mut cfg = SimConfig::paper_resilient();
    cfg.mitigation = false; // no L-Ob rung: budget exhaustion goes straight to quarantine
    let run = Run::new("stuck_at_burst", seed, cfg, RunOpts::default());
    let traffic = run.traffic(Pattern::UniformRandom, 0.04, 1000);
    let victim = hop(&run.sim, NodeId(5), NodeId(6));
    let cues = vec![cue(300, QuarantineCulprit, |sim| {
        sim.link_faults_mut(victim).stuck = StuckWires::new((1 << 10) | (1 << 21), 0);
    })];
    let (rep, _) = run.drive(traffic, 15_000, cues).expect(UNATTACHED);
    assert!(
        rep.quarantined_links >= 1,
        "stuck wires must exhaust the retry budget and quarantine the link"
    );
    rep
}

/// **Trojan toggle** — an attacker flips the kill switch up, down, and up
/// again mid-run while the mitigation ladder is active. L-Ob defeats each
/// armed window; every flit is delivered and the topology is untouched.
pub fn trojan_toggle(seed: u64) -> ScenarioReport {
    let mut run = Run::resilient("trojan_toggle", seed);
    let victim_dest = NodeId(9);
    let hot = hop(&run.sim, NodeId(5), victim_dest);
    mount_trojan(&mut run.sim, hot, victim_dest);
    let traffic = run.traffic(Pattern::Hotspot(vec![victim_dest]), 0.03, 1400);
    let cues = vec![
        cue(200, Fatal, arm(true)),
        cue(600, Fatal, arm(false)),
        cue(900, Fatal, arm(true)),
    ];
    let (rep, _) = run.drive(traffic, 10_000, cues).expect(UNATTACHED);
    assert_eq!(rep.dropped_flits, 0, "L-Ob delivers everything");
    assert_eq!(
        rep.quarantined_links, 0,
        "mitigation absorbs the attack without degrading the topology"
    );
    rep
}

/// **Multi-trojan placement** — three trojans hunting three different
/// destinations, all armed for the whole attack window, with the full
/// mitigation ladder up. All traffic is delivered.
pub fn multi_trojan(seed: u64) -> ScenarioReport {
    let mut run = Run::resilient("multi_trojan", seed);
    let mesh = run.sim.mesh().clone();
    let dests = [NodeId(3), NodeId(9), NodeId(12)];
    for d in dests {
        // Mount each trojan on the last XY hop of the 0→dest path: a link
        // every west/north flow to that destination must cross.
        let path = xy_path(&mesh, NodeId(0), d);
        let last = *path.last().expect("0 and dest are distinct");
        mount_trojan(&mut run.sim, last, d);
    }
    let traffic = run.traffic(Pattern::Hotspot(dests.to_vec()), 0.03, 1200);
    let cues = vec![cue(200, Fatal, arm(true))];
    let (rep, _) = run.drive(traffic, 10_000, cues).expect(UNATTACHED);
    assert_eq!(rep.dropped_flits, 0, "L-Ob delivers everything");
    rep
}

/// **Link death and revival** — a healthy link dies without warning
/// (scripted quarantine: victims purged, traffic rerouted over up*/down*
/// tables), then comes back after field replacement and XY routing is
/// restored over the full mesh. Conservation holds across both
/// transitions.
pub fn link_death_revival(seed: u64) -> ScenarioReport {
    let run = Run::resilient("link_death_revival", seed);
    let traffic = run.traffic(Pattern::UniformRandom, 0.04, 1300);
    let victim = hop(&run.sim, NodeId(6), NodeId(7));
    let cues = vec![
        cue(300, Fatal, |sim| {
            sim.quarantine_link(victim)
                .expect("one dead link keeps the paper mesh connected");
        }),
        // Field replacement: the link comes back, XY resumes over the mesh.
        cue(800, Fatal, |sim| {
            sim.set_dead_links(Vec::new());
            sim.set_routing(Routing::Xy);
        }),
    ];
    let (rep, sim) = run.drive(traffic, 10_000, cues).expect(UNATTACHED);
    assert!(sim.dead_links().is_empty(), "revival clears the dead set");
    assert_eq!(rep.quarantined_links, 1);
    rep
}

/// **Trojan flood (acceptance)** — an armed trojan on the hotspot's
/// last-hop link with the mitigation ladder *disabled*: the exact run
/// that used to spin to the cycle cap as a silent deadlock. Now the
/// watchdog diagnoses the retransmission livelock, the driver
/// quarantines the blamed link, traffic reroutes, and the run drains
/// with every flit accounted for.
///
/// `opts` attaches shards, the tracer, telemetry and checkpointing; the
/// report and statistics are bit-identical whatever is attached, and a
/// run resumed from a checkpoint finishes bit-identically to one that
/// never stopped. The simulator comes back drained, for forensics
/// ([`Simulator::packet_history`], [`Simulator::link_timeline`]), the
/// [`noc_sim::MetricsRegistry`] and the trace and telemetry exports.
pub fn trojan_flood(seed: u64, opts: RunOpts<'_>) -> Result<(ScenarioReport, Simulator), RunError> {
    let mut cfg = SimConfig::paper_unprotected();
    cfg.watchdog = Some(WatchdogConfig {
        retx_attempt_limit: 24,
        credit_stall_cycles: 600,
        global_stall_cycles: 1500,
    });
    cfg.check_invariants_every = Some(64);
    let mut run = Run::new("trojan_flood", seed, cfg, opts);
    let victim_dest = NodeId(9);
    let hot = hop(&run.sim, NodeId(5), victim_dest);
    mount_trojan(&mut run.sim, hot, victim_dest);
    let traffic = run.traffic(Pattern::Hotspot(vec![victim_dest]), 0.05, 1200);
    // The arming edge is a cue, keyed to the cycle, and the kill switches
    // are part of a checkpoint: a resumed run neither re-arms nor misses it.
    let cues = vec![cue(200, QuarantineCulprit, arm(true))];
    let (rep, sim) = run.drive(traffic, 20_000, cues)?;
    assert!(
        !rep.stalls.is_empty(),
        "the unmitigated flood must trip the watchdog"
    );
    assert!(
        rep.quarantined_links >= 1,
        "the diagnosis must lead to a quarantine"
    );
    Ok((rep, sim))
}

/// **Baseline** — clean uniform-random traffic with telemetry armed: the
/// control run for the alert rules, in which a healthy mesh raises no
/// alert (pinned by the alert suite, asserted by the CI telemetry job).
/// With `out`, streams the telemetry there as [`RunOpts::telemetry_out`]
/// does.
pub fn baseline_uniform(
    seed: u64,
    out: Option<&mut TelemetryOut>,
) -> Result<(ScenarioReport, Simulator), RunError> {
    let opts = RunOpts {
        telemetry: true,
        telemetry_out: out,
        ..RunOpts::default()
    };
    let run = Run::new("baseline_uniform", seed, SimConfig::paper_resilient(), opts);
    let traffic = run.traffic(Pattern::UniformRandom, 0.05, 1200);
    let (rep, sim) = run.drive(traffic, 8_000, Vec::new())?;
    assert_eq!(rep.dropped_flits, 0, "a healthy mesh drops nothing");
    Ok((rep, sim))
}

/// Run every scenario on seeds derived from `seed`. Each scenario panics
/// on any conservation or invariant failure, so a returned vector means
/// the whole campaign passed.
pub fn run_campaign(seed: u64) -> Vec<ScenarioReport> {
    vec![
        transient_storm(seed),
        stuck_at_burst(seed.wrapping_add(1)),
        trojan_toggle(seed.wrapping_add(2)),
        multi_trojan(seed.wrapping_add(3)),
        link_death_revival(seed.wrapping_add(4)),
        trojan_flood(seed.wrapping_add(5), RunOpts::default())
            .expect(UNATTACHED)
            .0,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flood(seed: u64, opts: RunOpts<'_>) -> (ScenarioReport, Simulator) {
        trojan_flood(seed, opts).expect("the flood ends in a report")
    }

    #[test]
    fn trojan_flood_recovers_via_watchdog_and_quarantine() {
        // The acceptance scenario: previously a silent deadlock, now a
        // diagnosed stall, a quarantine, and a conserved drain.
        let (rep, _) = flood(CAMPAIGN_SEED.wrapping_add(5), RunOpts::default());
        assert!(rep.stalls.iter().any(|s| s.culprit().is_some()));
        assert!(
            rep.dropped_flits > 0,
            "quarantine purges are explicit drops"
        );
        assert_eq!(rep.injected_flits, rep.delivered_flits + rep.dropped_flits);
    }

    #[test]
    fn traced_flood_matches_untraced_and_blames_the_trojan_link() {
        let seed = CAMPAIGN_SEED.wrapping_add(5);
        let (plain, _) = flood(seed, RunOpts::default());
        // A flood-to-quiescence run emits more than the default 64k ring
        // holds; size the ring to keep the whole history for forensics.
        let opts = RunOpts {
            trace: Some(TraceConfig { capacity: 1 << 21 }),
            ..RunOpts::default()
        };
        let (traced, sim) = flood(seed, opts);
        // Tracing is observation-only: the report is bit-identical.
        assert_eq!(plain, traced);
        // The metrics registry names the infected link as the retx leader.
        let hot = hop(&sim, NodeId(5), NodeId(9));
        let (leader, retx) = sim.metrics().max_retx_link().unwrap();
        assert_eq!(leader, hot, "trojan link must top the retx table");
        assert!(retx > 0);
        // The forensic timeline of that link saw faults and a quarantine.
        let timeline = sim.link_timeline(hot);
        assert!(timeline
            .iter()
            .any(|r| matches!(r.kind, noc_sim::TraceKind::EccDetected { .. })));
        assert!(timeline
            .iter()
            .any(|r| matches!(r.kind, noc_sim::TraceKind::LinkQuarantined { .. })));
    }

    fn scratch_dir(tag: &str) -> std::path::PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("htnoc-campaign-{}-{tag}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn checkpointed(opts: &CheckpointOpts) -> RunOpts<'_> {
        RunOpts {
            checkpoint: Some(opts),
            ..RunOpts::default()
        }
    }

    #[test]
    fn checkpointed_flood_matches_uninterrupted_run() {
        let seed = CAMPAIGN_SEED.wrapping_add(5);
        let (plain, _) = flood(seed, RunOpts::default());
        let dir = scratch_dir("full");
        let opts = CheckpointOpts::new(&dir, 500);
        assert_eq!(plain, flood(seed, checkpointed(&opts)).0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn killed_and_resumed_flood_matches_uninterrupted_run() {
        let seed = CAMPAIGN_SEED.wrapping_add(5);
        let (plain, _) = flood(seed, RunOpts::default());
        let dir = scratch_dir("kill");
        // Crash mid-attack, past several checkpoints and at least one
        // watchdog quarantine...
        let mut opts = CheckpointOpts::new(&dir, 300);
        opts.halt_at = Some(1700);
        let halted = trojan_flood(seed, checkpointed(&opts));
        assert!(matches!(halted, Err(RunError::Halted)));
        // ...then resume from the newest checkpoint: the finished run must
        // be indistinguishable from one that never crashed.
        opts.halt_at = None;
        opts.resume = true;
        assert_eq!(plain, flood(seed, checkpointed(&opts)).0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn campaign_is_deterministic() {
        assert_eq!(transient_storm(7), transient_storm(7));
    }

    #[test]
    fn full_campaign_passes_every_scenario() {
        let reports = run_campaign(CAMPAIGN_SEED);
        assert_eq!(reports.len(), 6);
        for rep in &reports {
            // `finish` already asserted conservation; spot-check the sums.
            assert_eq!(
                rep.injected_flits,
                rep.delivered_flits + rep.dropped_flits,
                "{}",
                rep.name
            );
        }
    }
}
