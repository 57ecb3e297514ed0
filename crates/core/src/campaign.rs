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
//! Scenarios run through the guarded APIs, so a deadlock surfaces as a
//! structured [`StallReport`] the driver acts on (quarantine the culprit
//! and resume) instead of a silent spin to the cycle cap. The
//! [`trojan_flood`] scenario is the acceptance case: an unmitigated
//! trojan DoS that previously spun forever now terminates with a
//! watchdog diagnosis, a quarantined link, and a full drain.
//!
//! Everything is seeded: same seed, same run, bit for bit.

use noc_sim::fault::StuckWires;
use noc_sim::routing::{xy_direction, xy_path, Routing};
use noc_sim::{
    SimConfig, SimError, Simulator, StallReport, TelemetryConfig, TelemetryOut, TraceConfig,
    TraceSink, TrafficSource, WatchdogConfig,
};
use noc_traffic::{Pattern, SyntheticTraffic};
use noc_trojan::{TargetSpec, TaspConfig, TaspHt};
use noc_types::{LinkId, NodeId};

/// Default campaign seed (any seed works; this one is the published run).
pub const CAMPAIGN_SEED: u64 = 0xD15EA5E;

/// What one campaign scenario did, after its assertions passed.
#[derive(Debug, Clone)]
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

/// Periodic Prometheus + heartbeat emission for a running scenario: the
/// driver loop pumps this once per cycle and [`TelemetryOut`] decides
/// when an interval boundary has been crossed.
pub struct TelemetryStream<'a> {
    out: &'a mut TelemetryOut,
    scenario: &'static str,
}

impl<'a> TelemetryStream<'a> {
    /// Stream scenario telemetry into `out`, labelling every Prometheus
    /// sample with `scenario`.
    pub fn new(out: &'a mut TelemetryOut, scenario: &'static str) -> Self {
        Self { out, scenario }
    }

    /// Write the final exposition plus the engine Chrome trace, after
    /// the run has drained.
    pub fn finish(&mut self, sim: &Simulator) -> std::io::Result<noc_sim::Heartbeat> {
        if let Some(tel) = sim.telemetry() {
            self.out
                .write_artifact("engine_trace.json", tel.engine_chrome_trace().as_bytes())?;
        }
        let prom = sim.prometheus_text(&[("scenario", self.scenario)]);
        let alerts = sim.telemetry().map_or(0, |t| t.alerts().fired_total());
        self.out.write_now(sim.cycle(), &prom, None, alerts)
    }
}

fn pump_telemetry(stream: Option<&mut TelemetryStream<'_>>, sim: &Simulator) {
    let Some(s) = stream else { return };
    let cycle = sim.cycle();
    if !s.out.due(cycle) {
        return;
    }
    let prom = sim.prometheus_text(&[("scenario", s.scenario)]);
    let alerts = sim.telemetry().map_or(0, |t| t.alerts().fired_total());
    // Telemetry IO must never kill a healthy simulation.
    let _ = s.out.write_now(cycle, &prom, None, alerts);
}

fn handle_stall(sim: &mut Simulator, report: &StallReport, policy: StallPolicy) {
    match policy {
        StallPolicy::Fatal => panic!("unexpected stall: {report}"),
        StallPolicy::QuarantineCulprit => {
            let (router, dir) = report
                .culprit()
                .unwrap_or_else(|| panic!("stall names no culprit to quarantine: {report}"));
            let link = sim
                .mesh()
                .link_out(router, dir)
                .expect("a blamed output port always has a link");
            if !sim.dead_links().contains(&link) {
                sim.quarantine_link(link)
                    .unwrap_or_else(|e| panic!("quarantine of {link:?} failed: {e}"));
            }
        }
    }
}

/// Step guarded until `until_cycle`, applying `policy` to any stall.
fn drive_until(
    sim: &mut Simulator,
    traffic: &mut dyn TrafficSource,
    until_cycle: u64,
    policy: StallPolicy,
    stalls: &mut Vec<StallReport>,
) {
    drive_until_streamed(sim, traffic, until_cycle, policy, stalls, None)
}

fn drive_until_streamed(
    sim: &mut Simulator,
    traffic: &mut dyn TrafficSource,
    until_cycle: u64,
    policy: StallPolicy,
    stalls: &mut Vec<StallReport>,
    mut stream: Option<&mut TelemetryStream<'_>>,
) {
    while sim.cycle() < until_cycle {
        pump_telemetry(stream.as_deref_mut(), sim);
        match sim.try_step(traffic) {
            Ok(()) => {}
            Err(SimError::Stalled(report)) => {
                stalls.push(*report);
                handle_stall(sim, &report, policy);
            }
            Err(err) => panic!("fatal simulator error at cycle {}: {err}", sim.cycle()),
        }
    }
}

/// Step guarded until the schedule is exhausted and the network drains.
fn drain(
    sim: &mut Simulator,
    traffic: &mut dyn TrafficSource,
    max_cycles: u64,
    policy: StallPolicy,
    stalls: &mut Vec<StallReport>,
) -> bool {
    drain_streamed(sim, traffic, max_cycles, policy, stalls, None)
}

fn drain_streamed(
    sim: &mut Simulator,
    traffic: &mut dyn TrafficSource,
    max_cycles: u64,
    policy: StallPolicy,
    stalls: &mut Vec<StallReport>,
    mut stream: Option<&mut TelemetryStream<'_>>,
) -> bool {
    while sim.cycle() < max_cycles {
        pump_telemetry(stream.as_deref_mut(), sim);
        if traffic.done() && sim.is_quiescent() {
            return true;
        }
        match sim.try_step(traffic) {
            Ok(()) => {}
            Err(SimError::Stalled(report)) => {
                stalls.push(*report);
                handle_stall(sim, &report, policy);
            }
            Err(err) => panic!("fatal simulator error at cycle {}: {err}", sim.cycle()),
        }
    }
    traffic.done() && sim.is_quiescent()
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
    let faults = std::mem::replace(
        sim.link_faults_mut(link),
        noc_sim::LinkFaults::healthy(link.0 as u64),
    );
    *sim.link_faults_mut(link) = faults.with_trojan(ht);
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
    let mut sim = Simulator::new(SimConfig::paper_resilient());
    let mesh = sim.mesh().clone();
    let mut traffic =
        SyntheticTraffic::new(mesh.clone(), Pattern::UniformRandom, 0.05, seed).until(1200);
    let mut stalls = Vec::new();
    drive_until(&mut sim, &mut traffic, 200, StallPolicy::Fatal, &mut stalls);
    // The storm strikes the four busiest central links for 300 cycles.
    let storm: Vec<LinkId> = [(5, 6), (6, 5), (9, 10), (10, 9)]
        .iter()
        .map(|&(a, b)| hop(&sim, NodeId(a), NodeId(b)))
        .collect();
    for l in &storm {
        sim.link_faults_mut(*l).transient_bit_prob = 1e-3;
    }
    drive_until(&mut sim, &mut traffic, 500, StallPolicy::Fatal, &mut stalls);
    for l in &storm {
        sim.link_faults_mut(*l).transient_bit_prob = 0.0;
    }
    let drained = drain(
        &mut sim,
        &mut traffic,
        8_000,
        StallPolicy::Fatal,
        &mut stalls,
    );
    let rep = finish("transient_storm", seed, &sim, drained, stalls);
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
    let mut sim = Simulator::new(cfg);
    let mesh = sim.mesh().clone();
    let mut traffic =
        SyntheticTraffic::new(mesh.clone(), Pattern::UniformRandom, 0.04, seed).until(1000);
    let mut stalls = Vec::new();
    drive_until(&mut sim, &mut traffic, 300, StallPolicy::Fatal, &mut stalls);
    let victim = hop(&sim, NodeId(5), NodeId(6));
    sim.link_faults_mut(victim).stuck = StuckWires::new((1 << 10) | (1 << 21), 0);
    let drained = drain(
        &mut sim,
        &mut traffic,
        15_000,
        StallPolicy::QuarantineCulprit,
        &mut stalls,
    );
    let rep = finish("stuck_at_burst", seed, &sim, drained, stalls);
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
    let mut sim = Simulator::new(SimConfig::paper_resilient());
    let mesh = sim.mesh().clone();
    let victim_dest = NodeId(9);
    let hot = hop(&sim, NodeId(5), victim_dest);
    mount_trojan(&mut sim, hot, victim_dest);
    let mut traffic = SyntheticTraffic::new(
        mesh.clone(),
        Pattern::Hotspot(vec![victim_dest]),
        0.03,
        seed,
    )
    .until(1400);
    let mut stalls = Vec::new();
    drive_until(&mut sim, &mut traffic, 200, StallPolicy::Fatal, &mut stalls);
    sim.arm_trojans(true);
    drive_until(&mut sim, &mut traffic, 600, StallPolicy::Fatal, &mut stalls);
    sim.arm_trojans(false);
    drive_until(&mut sim, &mut traffic, 900, StallPolicy::Fatal, &mut stalls);
    sim.arm_trojans(true);
    let drained = drain(
        &mut sim,
        &mut traffic,
        10_000,
        StallPolicy::Fatal,
        &mut stalls,
    );
    let rep = finish("trojan_toggle", seed, &sim, drained, stalls);
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
    let mut sim = Simulator::new(SimConfig::paper_resilient());
    let mesh = sim.mesh().clone();
    let dests = [NodeId(3), NodeId(9), NodeId(12)];
    for d in dests {
        // Mount each trojan on the last XY hop of the 0→dest path: a link
        // every west/north flow to that destination must cross.
        let path = xy_path(&mesh, NodeId(0), d);
        let last = *path.last().expect("0 and dest are distinct");
        mount_trojan(&mut sim, last, d);
    }
    let mut traffic =
        SyntheticTraffic::new(mesh.clone(), Pattern::Hotspot(dests.to_vec()), 0.03, seed)
            .until(1200);
    let mut stalls = Vec::new();
    drive_until(&mut sim, &mut traffic, 200, StallPolicy::Fatal, &mut stalls);
    sim.arm_trojans(true);
    let drained = drain(
        &mut sim,
        &mut traffic,
        10_000,
        StallPolicy::Fatal,
        &mut stalls,
    );
    let rep = finish("multi_trojan", seed, &sim, drained, stalls);
    assert_eq!(rep.dropped_flits, 0, "L-Ob delivers everything");
    rep
}

/// **Link death and revival** — a healthy link dies without warning
/// (scripted quarantine: victims purged, traffic rerouted over up*/down*
/// tables), then comes back after field replacement and XY routing is
/// restored over the full mesh. Conservation holds across both
/// transitions.
pub fn link_death_revival(seed: u64) -> ScenarioReport {
    let mut sim = Simulator::new(SimConfig::paper_resilient());
    let mesh = sim.mesh().clone();
    let mut traffic =
        SyntheticTraffic::new(mesh.clone(), Pattern::UniformRandom, 0.04, seed).until(1300);
    let mut stalls = Vec::new();
    drive_until(&mut sim, &mut traffic, 300, StallPolicy::Fatal, &mut stalls);
    let victim = hop(&sim, NodeId(6), NodeId(7));
    sim.quarantine_link(victim)
        .expect("one dead link keeps the paper mesh connected");
    drive_until(&mut sim, &mut traffic, 800, StallPolicy::Fatal, &mut stalls);
    // Field replacement: the link comes back, XY resumes over the mesh.
    sim.set_dead_links(Vec::new());
    sim.set_routing(Routing::Xy);
    let drained = drain(
        &mut sim,
        &mut traffic,
        10_000,
        StallPolicy::Fatal,
        &mut stalls,
    );
    assert!(sim.dead_links().is_empty(), "revival clears the dead set");
    let rep = finish("link_death_revival", seed, &sim, drained, stalls);
    assert_eq!(rep.quarantined_links, 1);
    rep
}

/// **Trojan flood (acceptance)** — an armed trojan on the hotspot's
/// last-hop link with the mitigation ladder *disabled*: the exact run
/// that used to spin to the cycle cap as a silent deadlock. Now the
/// watchdog diagnoses the retransmission livelock, the driver
/// quarantines the blamed link, traffic reroutes, and the run drains
/// with every flit accounted for.
pub fn trojan_flood(seed: u64) -> ScenarioReport {
    trojan_flood_run(seed, None, None, 1, false, None).0
}

/// [`trojan_flood`] on `threads` shards, telemetry off — the control arm
/// of the zero-perturbation suite.
pub fn trojan_flood_threads(seed: u64, threads: usize) -> (ScenarioReport, Simulator) {
    trojan_flood_run(seed, None, None, threads, false, None)
}

/// [`trojan_flood`] with the side-band telemetry plane armed
/// ([`noc_sim::Telemetry`]): engine self-profiling, latency/retx
/// sketches, and the default alert rules run alongside the attack. The
/// zero-perturbation suite pins that the returned report (and the full
/// statistics) are bit-identical to the telemetry-off run at every
/// thread count; the alert suite pins that the flood raises at least one
/// alert *before* the watchdog trips.
pub fn trojan_flood_telemetry(seed: u64, threads: usize) -> (ScenarioReport, Simulator) {
    trojan_flood_run(seed, None, None, threads, true, None)
}

/// [`trojan_flood_telemetry`] streaming interval Prometheus expositions
/// and heartbeats into `out` as the run progresses, then writing the
/// final exposition plus the engine Chrome trace on completion.
pub fn trojan_flood_telemetry_streamed(
    seed: u64,
    threads: usize,
    out: &mut TelemetryOut,
) -> std::io::Result<(ScenarioReport, Simulator)> {
    let mut stream = TelemetryStream::new(out, "trojan_flood");
    let (rep, sim) = trojan_flood_run(seed, None, None, threads, true, Some(&mut stream));
    stream.finish(&sim)?;
    Ok((rep, sim))
}

/// Clean uniform-random traffic with telemetry armed — the control run
/// for the alert rules: a healthy mesh must produce **zero** alerts
/// (pinned by the alert suite, asserted by the CI telemetry job).
pub fn baseline_telemetry(seed: u64, threads: usize) -> (ScenarioReport, Simulator) {
    baseline_run(seed, threads, None)
}

/// [`baseline_telemetry`] streaming interval expositions into `out`; the
/// CI telemetry job asserts this directory stays alert-free.
pub fn baseline_telemetry_streamed(
    seed: u64,
    threads: usize,
    out: &mut TelemetryOut,
) -> std::io::Result<(ScenarioReport, Simulator)> {
    let mut stream = TelemetryStream::new(out, "baseline_uniform");
    let (rep, sim) = baseline_run(seed, threads, Some(&mut stream));
    stream.finish(&sim)?;
    Ok((rep, sim))
}

fn baseline_run(
    seed: u64,
    threads: usize,
    stream: Option<&mut TelemetryStream<'_>>,
) -> (ScenarioReport, Simulator) {
    let mut cfg = SimConfig::paper_resilient();
    cfg.threads = Some(threads);
    let mut sim = Simulator::new(cfg);
    sim.set_telemetry(TelemetryConfig::default());
    let mesh = sim.mesh().clone();
    let mut traffic =
        SyntheticTraffic::new(mesh.clone(), Pattern::UniformRandom, 0.05, seed).until(1200);
    let mut stalls = Vec::new();
    let drained = drain_streamed(
        &mut sim,
        &mut traffic,
        8_000,
        StallPolicy::Fatal,
        &mut stalls,
        stream,
    );
    let rep = finish("baseline_uniform", seed, &sim, drained, stalls);
    assert_eq!(rep.dropped_flits, 0, "a healthy mesh drops nothing");
    (rep, sim)
}

/// [`trojan_flood`] with the structured tracer armed: returns the report
/// plus the drained simulator so callers can query forensics
/// ([`Simulator::packet_history`], [`Simulator::link_timeline`]), read
/// the [`noc_sim::MetricsRegistry`], and export the trace.
pub fn trojan_flood_traced(seed: u64, trace: TraceConfig) -> (ScenarioReport, Simulator) {
    trojan_flood_run(seed, Some(trace), None, 1, false, None)
}

/// [`trojan_flood_traced`] on the sharded parallel engine: bit-identical
/// to the sequential run at every `threads` value (the golden
/// determinism suite pins this).
pub fn trojan_flood_traced_threads(
    seed: u64,
    trace: TraceConfig,
    threads: usize,
) -> (ScenarioReport, Simulator) {
    trojan_flood_run(seed, Some(trace), None, threads, false, None)
}

/// [`trojan_flood_traced`] streaming every event through `sink` as it is
/// emitted (so a file sink sees the full history even after the bounded
/// ring wraps). The sink is flushed/closed before this returns.
pub fn trojan_flood_traced_with_sink(
    seed: u64,
    trace: TraceConfig,
    sink: Box<dyn TraceSink>,
) -> (ScenarioReport, Simulator) {
    trojan_flood_run(seed, Some(trace), Some(sink), 1, false, None)
}

fn trojan_flood_run(
    seed: u64,
    trace: Option<TraceConfig>,
    sink: Option<Box<dyn TraceSink>>,
    threads: usize,
    telemetry: bool,
    mut stream: Option<&mut TelemetryStream<'_>>,
) -> (ScenarioReport, Simulator) {
    let mut cfg = SimConfig::paper_unprotected();
    cfg.threads = Some(threads);
    cfg.watchdog = Some(WatchdogConfig {
        retx_attempt_limit: 24,
        credit_stall_cycles: 600,
        global_stall_cycles: 1500,
    });
    cfg.check_invariants_every = Some(64);
    cfg.trace = trace;
    let mut sim = Simulator::new(cfg);
    if telemetry {
        sim.set_telemetry(TelemetryConfig::default());
    }
    if let Some(sink) = sink {
        sim.set_trace_sink(sink);
    }
    let mesh = sim.mesh().clone();
    let victim_dest = NodeId(9);
    let hot = hop(&sim, NodeId(5), victim_dest);
    mount_trojan(&mut sim, hot, victim_dest);
    let mut traffic = SyntheticTraffic::new(
        mesh.clone(),
        Pattern::Hotspot(vec![victim_dest]),
        0.05,
        seed,
    )
    .until(1200);
    let mut stalls = Vec::new();
    drive_until_streamed(
        &mut sim,
        &mut traffic,
        200,
        StallPolicy::Fatal,
        &mut stalls,
        stream.as_deref_mut(),
    );
    sim.arm_trojans(true);
    let drained = drain_streamed(
        &mut sim,
        &mut traffic,
        20_000,
        StallPolicy::QuarantineCulprit,
        &mut stalls,
        stream,
    );
    let rep = finish("trojan_flood", seed, &sim, drained, stalls);
    assert!(
        !rep.stalls.is_empty(),
        "the unmitigated flood must trip the watchdog"
    );
    assert!(
        rep.quarantined_links >= 1,
        "the diagnosis must lead to a quarantine"
    );
    if let Some(t) = sim.tracer_mut() {
        t.close_sink();
    }
    (rep, sim)
}

/// Options for the checkpointed acceptance run
/// ([`trojan_flood_checkpointed`]).
#[derive(Debug, Clone)]
pub struct CheckpointOpts {
    /// Snapshot the simulator every this-many cycles (0 = never).
    pub every: u64,
    /// Directory the rotating checkpoint files live in.
    pub dir: std::path::PathBuf,
    /// How many checkpoints to keep (oldest pruned first).
    pub keep: usize,
    /// Resume from the newest valid checkpoint in `dir` instead of
    /// starting at cycle 0.
    pub resume: bool,
    /// Stop the driver loop when the simulator reaches this cycle, as a
    /// crash would — the hook the kill-and-resume tests use. `None` runs
    /// to completion.
    pub halt_at: Option<u64>,
}

impl CheckpointOpts {
    /// Checkpoint into `dir` every `every` cycles, keeping 3 files.
    pub fn new(dir: impl Into<std::path::PathBuf>, every: u64) -> Self {
        Self {
            every,
            dir: dir.into(),
            keep: 3,
            resume: false,
            halt_at: None,
        }
    }
}

/// [`trojan_flood`] under periodic crash-safe checkpointing: every
/// `opts.every` cycles the complete simulator state plus the traffic
/// cursor and the stall log land in `opts.dir` (atomic write, rotated).
/// With `opts.resume`, the run continues from the newest valid
/// checkpoint and finishes **bit-identically** to an uninterrupted run —
/// same cycles, same stats, same stall diagnoses.
///
/// Returns `None` when `opts.halt_at` stopped the run mid-flight (the
/// simulated crash); otherwise the report, which matches
/// [`trojan_flood`] for the same seed exactly.
pub fn trojan_flood_checkpointed(seed: u64, opts: &CheckpointOpts) -> Option<ScenarioReport> {
    use noc_sim::{Checkpointer, Persist, Reader, Writer};

    const ARM_AT: u64 = 200;
    const MAX_CYCLES: u64 = 20_000;

    let mut cfg = SimConfig::paper_unprotected();
    cfg.watchdog = Some(WatchdogConfig {
        retx_attempt_limit: 24,
        credit_stall_cycles: 600,
        global_stall_cycles: 1500,
    });
    cfg.check_invariants_every = Some(64);
    let mut sim = Simulator::new(cfg);
    // Watchdog trips dump a forensic snapshot next to the checkpoints, so
    // a CI failure ships the stalled simulator state as an artifact.
    sim.set_post_mortem_dir(Some(opts.dir.join("post-mortem")));
    let mesh = sim.mesh().clone();
    let victim_dest = NodeId(9);
    let hot = hop(&sim, NodeId(5), victim_dest);
    mount_trojan(&mut sim, hot, victim_dest);
    let mut traffic = SyntheticTraffic::new(
        mesh.clone(),
        Pattern::Hotspot(vec![victim_dest]),
        0.05,
        seed,
    )
    .until(1200);
    let mut stalls: Vec<StallReport> = Vec::new();

    let ck = Checkpointer::new(&opts.dir, opts.keep);
    if opts.resume {
        if let Some((path, snap)) = ck.load_latest().expect("checkpoint dir must be readable") {
            // `user_data` holds the stall log, then the traffic cursor.
            let mut ud = Reader::new(snap.user_data());
            sim.restore(&snap)
                .and_then(|()| stalls.persist(&mut ud))
                .and_then(|()| traffic.load_cursor(&mut ud))
                .and_then(|()| ud.finish())
                .unwrap_or_else(|e| panic!("resume from {} failed: {e}", path.display()));
        }
    }

    let save =
        |sim: &mut Simulator, traffic: &mut SyntheticTraffic, stalls: &mut Vec<StallReport>| {
            let mut snap = sim.snapshot();
            let mut ud = Writer::default();
            ud.put(stalls);
            traffic.save_cursor(&mut ud);
            snap.set_user_data(ud.into_bytes());
            ck.save(&snap)
                .unwrap_or_else(|e| panic!("checkpoint save failed: {e}"));
        };

    let mut drained = false;
    while sim.cycle() < MAX_CYCLES {
        let now = sim.cycle();
        // Arming is keyed off the cycle counter (and the kill switches are
        // part of the snapshot), so a resumed run never re-arms or skips
        // the arming edge.
        if now == ARM_AT {
            sim.arm_trojans(true);
        }
        if opts.every > 0 && now > 0 && now.is_multiple_of(opts.every) {
            save(&mut sim, &mut traffic, &mut stalls);
        }
        if opts.halt_at.is_some_and(|h| now >= h) {
            return None;
        }
        if traffic.done() && sim.is_quiescent() {
            drained = true;
            break;
        }
        // Fast-forward idle stretches, but never across a driver-loop
        // deadline: the arming edge, the next checkpoint multiple, and
        // the simulated-crash cycle must all land on exactly the cycle
        // the naive loop would have visited, so a skip truncated by any
        // of them resumes the bookkeeping above bit-identically.
        let mut cap = MAX_CYCLES;
        if now < ARM_AT {
            cap = cap.min(ARM_AT);
        }
        if let Some(gap) = now.checked_div(opts.every) {
            cap = cap.min((gap + 1) * opts.every);
        }
        if let Some(h) = opts.halt_at {
            cap = cap.min(h);
        }
        if cap > now {
            match sim.skip_idle_cycles_guarded(cap - now, &mut traffic) {
                Ok(0) => {}
                Ok(_) => continue,
                Err(err) => panic!("fatal simulator error at cycle {}: {err}", sim.cycle()),
            }
        }
        match sim.try_step(&mut traffic) {
            Ok(()) => {}
            Err(SimError::Stalled(report)) => {
                stalls.push(*report);
                handle_stall(&mut sim, &report, StallPolicy::QuarantineCulprit);
            }
            Err(err) => panic!("fatal simulator error at cycle {}: {err}", sim.cycle()),
        }
    }

    let rep = finish("trojan_flood", seed, &sim, drained, stalls);
    assert!(
        !rep.stalls.is_empty(),
        "the unmitigated flood must trip the watchdog"
    );
    assert!(
        rep.quarantined_links >= 1,
        "the diagnosis must lead to a quarantine"
    );
    Some(rep)
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
        trojan_flood(seed.wrapping_add(5)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trojan_flood_recovers_via_watchdog_and_quarantine() {
        // The acceptance scenario: previously a silent deadlock, now a
        // diagnosed stall, a quarantine, and a conserved drain.
        let rep = trojan_flood(CAMPAIGN_SEED.wrapping_add(5));
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
        let plain = trojan_flood(seed);
        // A flood-to-quiescence run emits more than the default 64k ring
        // holds; size the ring to keep the whole history for forensics.
        let (traced, sim) = trojan_flood_traced(seed, TraceConfig { capacity: 1 << 21 });
        // Tracing is observation-only: the report is bit-identical.
        assert_eq!(plain.cycles, traced.cycles);
        assert_eq!(plain.injected_flits, traced.injected_flits);
        assert_eq!(plain.delivered_flits, traced.delivered_flits);
        assert_eq!(plain.dropped_flits, traced.dropped_flits);
        assert_eq!(plain.stalls, traced.stalls);
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

    #[test]
    fn checkpointed_flood_matches_uninterrupted_run() {
        let seed = CAMPAIGN_SEED.wrapping_add(5);
        let plain = trojan_flood(seed);
        let dir = scratch_dir("full");
        let rep = trojan_flood_checkpointed(seed, &CheckpointOpts::new(&dir, 500))
            .expect("no halt requested");
        assert_eq!(plain.cycles, rep.cycles);
        assert_eq!(plain.injected_flits, rep.injected_flits);
        assert_eq!(plain.delivered_flits, rep.delivered_flits);
        assert_eq!(plain.dropped_flits, rep.dropped_flits);
        assert_eq!(plain.stalls, rep.stalls);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn killed_and_resumed_flood_matches_uninterrupted_run() {
        let seed = CAMPAIGN_SEED.wrapping_add(5);
        let plain = trojan_flood(seed);
        let dir = scratch_dir("kill");
        // Crash mid-attack, past several checkpoints and at least one
        // watchdog quarantine...
        let mut opts = CheckpointOpts::new(&dir, 300);
        opts.halt_at = Some(1700);
        assert!(trojan_flood_checkpointed(seed, &opts).is_none());
        // ...then resume from the newest checkpoint: the finished run must
        // be indistinguishable from one that never crashed.
        opts.halt_at = None;
        opts.resume = true;
        let rep = trojan_flood_checkpointed(seed, &opts).expect("resumed run completes");
        assert_eq!(plain.cycles, rep.cycles);
        assert_eq!(plain.injected_flits, rep.injected_flits);
        assert_eq!(plain.delivered_flits, rep.delivered_flits);
        assert_eq!(plain.dropped_flits, rep.dropped_flits);
        assert_eq!(plain.stalls, rep.stalls);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn idle_skip_truncates_exactly_at_driver_deadlines() {
        // The checkpoint loop feeds `skip_idle_cycles_guarded` a budget of
        // `deadline - now` (arming edge, checkpoint multiple, --halt-at).
        // A skip must land exactly on that deadline — never a cycle past
        // it — and otherwise stop exactly at the source's horizon.
        use noc_traffic::FloodAttack;
        use noc_types::CoreId;
        let mut sim = Simulator::new(SimConfig::paper_resilient());
        let mut src = FloodAttack::new(sim.mesh().clone(), vec![CoreId(20)], vec![NodeId(0)], 1)
            .window(900, 910);
        // One settle step so the conservative all-set bitmaps compact.
        sim.step(&mut src);
        assert_eq!(sim.cycle(), 1);
        let skipped = sim
            .skip_idle_cycles_guarded(511, &mut src)
            .expect("empty network audits clean");
        assert_eq!(skipped, 511, "a mid-gap deadline truncates the skip");
        assert_eq!(sim.cycle(), 512);
        let skipped = sim
            .skip_idle_cycles_guarded(10_000, &mut src)
            .expect("empty network audits clean");
        assert_eq!(skipped, 900 - 512, "the horizon bounds a generous budget");
        assert_eq!(sim.cycle(), 900, "skip stops exactly at the attack window");
        // At the horizon itself nothing is provably idle.
        assert_eq!(sim.skip_idle_cycles_guarded(10_000, &mut src).unwrap(), 0);
    }

    #[test]
    fn campaign_is_deterministic() {
        let a = transient_storm(7);
        let b = transient_storm(7);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.injected_flits, b.injected_flits);
        assert_eq!(a.delivered_flits, b.delivered_flits);
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
