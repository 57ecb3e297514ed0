//! The four workloads: inputs generated from the seed ([`setup`]), the
//! timed phase ([`run`]), and the untimed checks of the simulated outcome
//! ([`settle`]).
//!
//! Every simulator run ends in [`observe`], which audits it (invariants,
//! conservation) and folds its outcome into a fingerprint that must not
//! depend on the thread count, on checkpoint round trips or on tracing.

use crate::probe::{ns_since, Fnv, Probe};
use htnoc_conformance::{run_differential_threads, RefSim, Scenario as ConfScenario};
use htnoc_core::scenario::{Scenario, Strategy};
use htnoc_core::select_infected;
use htnoc_core::sweep::par_map;
use noc_sim::{SimConfig, SimEvent, SimSnapshot, SimStats, Simulator, TrafficSource};
use noc_traffic::trace::Replay;
use noc_traffic::{AppModel, AppSpec, Pattern, SyntheticTraffic, Trace, TrafficMatrix};
use noc_trojan::{TargetSpec, TaspConfig, TaspHt};
use noc_types::{LinkId, Mesh, Packet};
use std::hint::black_box;
use std::time::Instant;

/// The workloads, by the name `--workload` takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's Fig. 10 grid on the 4×4 mesh, fanned out by `par_map`.
    PaperSweep,
    /// One dense 16×16 run under four trojans.
    Mesh16Dense,
    /// One sparse 8×8 run with a checkpoint round trip every 500 cycles.
    BurstyCkpt,
    /// Generated conformance scenarios through `run_differential`.
    ConformanceSweep,
}

impl Workload {
    /// Every workload, in the order the docs list them.
    pub const ALL: [Workload; 4] = [
        Workload::PaperSweep,
        Workload::Mesh16Dense,
        Workload::BurstyCkpt,
        Workload::ConformanceSweep,
    ];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperSweep => "paper_sweep",
            Workload::Mesh16Dense => "mesh16_dense",
            Workload::BurstyCkpt => "bursty_ckpt",
            Workload::ConformanceSweep => "conformance_sweep",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// What the benchmark's own tests vary. The benchmark itself always runs
/// [`Knobs::bench`]; none of these may change a simulated outcome.
#[derive(Debug, Clone, Copy)]
pub struct Knobs {
    /// `par_map` workers for `paper_sweep`.
    pub workers: usize,
    /// Sharded-engine threads of every simulator the benchmark builds
    /// (inside `run_differential` too).
    pub engine_threads: usize,
    /// Whether `bursty_ckpt` makes its checkpoint round trips.
    pub checkpoints: bool,
}

impl Knobs {
    /// The benchmark's settings: at most two threads of load, all of it
    /// at the sweep level. The engine runs on one shard: on a virtual
    /// host, a vCPU that idles at the engine's per-cycle barriers is
    /// descheduled, and two-shard wall times become bimodal (1.5 s or
    /// 3.7 s for the same `mesh16_dense` run), too unsteady to measure
    /// against.
    pub fn bench() -> Self {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        Self {
            workers: nproc.min(2),
            engine_threads: 1,
            checkpoints: true,
        }
    }
}

// ---------------------------------------------------------------------
// Workload shapes
// ---------------------------------------------------------------------

/// Infected-link fractions of the Fig. 10 grid.
const FRACTIONS: [f64; 5] = [0.0, 0.05, 0.10, 0.15, 0.20];
/// Cycles and seed of the traffic sample `select_infected` ranks links by.
const SAMPLE_CYCLES: u64 = 1500;
const PLACEMENT_SEED: u64 = 3;
/// `mesh16_dense`: cycle budget; traffic covers its first two thirds.
/// The rate sits below the 16×16 mesh's saturation knee: at 0.05 the
/// p99 latency swings by half between seeds.
const MESH16_BUDGET: u64 = 6000;
const MESH16_RATE: f64 = 0.04;
const MESH16_TROJANS: usize = 4;
/// `bursty_ckpt`: cycle budget, bursts, and checkpoint cadence.
const BURSTY_BUDGET: u64 = 200_000;
const BURSTS: u64 = 10;
const BURSTY_RATE: f64 = 0.05;
const CKPT_EVERY: u64 = 500;
/// `conformance_sweep`: scenarios per run.
const CONFORMANCE_SCENARIOS: u64 = 2000;

/// The seed whose outcome fingerprints `fingerprints.txt` pins.
pub const DEFAULT_SEED: u64 = 1;

/// The committed fingerprint of `w`'s simulated outcome at
/// [`DEFAULT_SEED`].
pub fn committed_fingerprint(w: Workload) -> Option<u64> {
    include_str!("../fingerprints.txt")
        .lines()
        .filter(|l| !l.trim_start().starts_with('#'))
        .filter_map(|l| l.split_once(char::is_whitespace))
        .find(|(name, _)| *name == w.name())
        .and_then(|(_, hex)| u64::from_str_radix(hex.trim().trim_start_matches("0x"), 16).ok())
}

/// A workload's generated inputs, built before the clock starts.
pub enum Inputs {
    /// Fig. 10 scenarios.
    Sweep(Vec<Scenario>),
    /// One simulator with its trojans mounted and its captured traffic.
    Single {
        sim: Box<Simulator>,
        traffic: Replay,
        budget: u64,
        checkpoint_every: Option<u64>,
    },
    /// Conformance scenarios.
    Conformance(Vec<ConfScenario>),
}

/// Generate a workload's inputs from `seed` and construct its simulators.
pub fn setup(w: Workload, seed: u64, knobs: &Knobs, probe: &mut Probe) -> Inputs {
    match w {
        Workload::PaperSweep => Inputs::Sweep(paper_scenarios(seed, probe)),
        Workload::Mesh16Dense => {
            let budget = MESH16_BUDGET;
            let mesh = Mesh::new(16, 16, 1);
            let t = probe.start();
            let mut src =
                SyntheticTraffic::new(mesh.clone(), Pattern::UniformRandom, MESH16_RATE, seed)
                    .until(budget * 2 / 3);
            let trace = Trace::capture(&mut src, budget * 2 / 3);
            probe.capture_ns += probe.lap(t);
            single(mesh, trace, budget, MESH16_TROJANS, None, knobs, probe)
        }
        Workload::BurstyCkpt => {
            let budget = BURSTY_BUDGET;
            let mesh = Mesh::new(8, 8, 1);
            let t = probe.start();
            let mut src = Bursts {
                inner: SyntheticTraffic::new(
                    mesh.clone(),
                    Pattern::UniformRandom,
                    BURSTY_RATE,
                    seed,
                ),
                period: budget / BURSTS,
                len: budget / 100,
            };
            let trace = Trace::capture(&mut src, budget);
            probe.capture_ns += probe.lap(t);
            let every = knobs.checkpoints.then_some(CKPT_EVERY);
            single(mesh, trace, budget, 1, every, knobs, probe)
        }
        Workload::ConformanceSweep => Inputs::Conformance(
            (0..CONFORMANCE_SCENARIOS)
                .map(|i| ConfScenario::generate(seed.wrapping_add(i)))
                .collect(),
        ),
    }
}

/// The Fig. 10 grid: every app × infected fraction × strategy, each app's
/// traffic seeded from `seed`.
fn paper_scenarios(seed: u64, probe: &mut Probe) -> Vec<Scenario> {
    let mesh = Mesh::paper();
    let strategies = [
        Strategy::Unprotected,
        Strategy::E2eObfuscation,
        Strategy::Tdm { domains: 2 },
        Strategy::S2sLob,
        Strategy::Reroute,
    ];
    let mut out = Vec::new();
    for (a, app) in AppSpec::all().into_iter().enumerate() {
        // The attacker's placement is fixed (the Fig. 10 harness's sample
        // seed); the benchmark seed varies the application traffic. A
        // seeded placement changes which runs deadlock, and with them
        // most of the sweep's work.
        let t = probe.start();
        let mut model = AppModel::new(app.clone(), mesh.clone(), PLACEMENT_SEED);
        let sample = TrafficMatrix::sample(&mut model, SAMPLE_CYCLES);
        probe.capture_ns += probe.lap(t);
        let shares = sample.link_shares_xy(&mesh);
        for fraction in FRACTIONS {
            let t = probe.start();
            let infected = select_infected(&mesh, &shares, fraction, Some(app.primary));
            probe.build_ns += probe.lap(t);
            for strategy in &strategies {
                let mut sc = Scenario::paper_default(app.clone(), strategy.clone())
                    .with_infected(infected.clone())
                    .with_seed(seed.wrapping_mul(4).wrapping_add(a as u64));
                sc.warmup = 200;
                sc.inject_until = 1000;
                sc.max_cycles = 8000;
                sc.snapshot_interval = 50;
                out.push(sc);
            }
        }
    }
    out
}

/// Bursts of an inner source: it is polled for the first `len` cycles of
/// every `period`, and the network idles in between.
struct Bursts {
    inner: SyntheticTraffic,
    period: u64,
    len: u64,
}

impl TrafficSource for Bursts {
    fn poll(&mut self, cycle: u64, out: &mut Vec<Packet>) {
        if cycle % self.period < self.len {
            self.inner.poll(cycle, out);
        }
    }
}

/// Build a single-run workload: a simulator on `mesh` with trojans on the
/// `trojans` links that carry the most captured traffic, each hunting
/// the destination nibble most packets on its link carry.
fn single(
    mesh: Mesh,
    trace: Trace,
    budget: u64,
    trojans: usize,
    checkpoint_every: Option<u64>,
    knobs: &Knobs,
    probe: &mut Probe,
) -> Inputs {
    let t = probe.start();
    let mut cfg = SimConfig::paper();
    cfg.mesh = mesh.clone();
    cfg.snapshot_interval = 1000;
    cfg.threads = Some(knobs.engine_threads);
    let mut sim = Simulator::new(cfg);
    probe.sim_new_ns += probe.lap(t);
    probe.arm(&mut sim);

    let t = probe.start();
    // Per link: packets crossing it, and how many of them go to each
    // destination nibble (a TASP comparator sees only the low 4 bits).
    let mut load = vec![(0u64, [0u64; 16]); mesh.links()];
    for e in &trace.entries {
        for l in htnoc_conformance::oracle::xy_walk(&mesh, e.packet.src, e.packet.dest) {
            let slot = &mut load[l as usize];
            slot.0 += 1;
            slot.1[(e.packet.dest.0 & 0xF) as usize] += 1;
        }
    }
    let mut order: Vec<usize> = (0..load.len()).collect();
    order.sort_by_key(|&l| (std::cmp::Reverse(load[l].0), l));
    for &l in order.iter().take(trojans) {
        let nibbles = &load[l].1;
        let target = (0..16u8)
            .max_by_key(|&n| (nibbles[n as usize], std::cmp::Reverse(n)))
            .expect("sixteen nibbles");
        let ht = TaspHt::new(TaspConfig::new(TargetSpec::dest(target)));
        sim.link_faults_mut(LinkId(l as u16)).trojan = Some(ht);
    }
    sim.arm_trojans(true);
    probe.build_ns += probe.lap(t);

    let t = probe.start();
    let traffic = trace.replay();
    probe.capture_ns += probe.lap(t);
    Inputs::Single {
        sim: Box::new(sim),
        traffic,
        budget,
        checkpoint_every,
    }
}

// ---------------------------------------------------------------------
// Outcomes
// ---------------------------------------------------------------------

/// Exact counts from the modelled components, summed over runs.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    pub ecc_corrected: u64,
    pub ecc_uncorrectable: u64,
    pub retransmissions: u64,
    pub nacks: u64,
    pub lob_selections: u64,
    pub bist_scans: u64,
    pub trojan_injections: u64,
    pub injection_stalls: u64,
}

impl std::ops::AddAssign for Counts {
    fn add_assign(&mut self, o: Counts) {
        self.ecc_corrected += o.ecc_corrected;
        self.ecc_uncorrectable += o.ecc_uncorrectable;
        self.retransmissions += o.retransmissions;
        self.nacks += o.nacks;
        self.lob_selections += o.lob_selections;
        self.bist_scans += o.bist_scans;
        self.trojan_injections += o.trojan_injections;
        self.injection_stalls += o.injection_stalls;
    }
}

/// One finished simulator run, audited.
#[derive(Debug)]
pub struct Run {
    fingerprint: u64,
    failures: Vec<String>,
    flit_hops: u64,
    stats: SimStats,
    completion: u64,
    cycles: u64,
    skipped: u64,
    drained: bool,
    counts: Counts,
}

/// Audit a finished simulator and fingerprint its outcome. `completion`
/// is the last delivery cycle; a run that did not drain is charged `cap`
/// (the Fig. 10 rule).
pub fn observe(sim: &Simulator, completion: Option<u64>, cap: u64) -> Run {
    let stats = sim.stats();
    let drained = sim.is_quiescent();
    let mut failures = Vec::new();
    let violations = sim.check_all_invariants();
    if let Some(v) = violations.first() {
        failures.push(format!(
            "{} invariant violations at cycle {}, first at router {}: {}",
            violations.len(),
            sim.cycle(),
            v.router,
            v.what
        ));
    }
    if drained && !(stats.packets_conserved() && stats.flits_conserved()) {
        failures.push(format!(
            "drained at cycle {} without conservation: {stats:?}",
            sim.cycle()
        ));
    }
    let mut fp = Fnv::default();
    for v in [
        stats.injected_packets,
        stats.delivered_packets,
        stats.injected_flits,
        stats.delivered_flits,
        stats.latency_sum,
        stats.latency_samples,
        stats.latency_max,
        stats.retransmissions,
        stats.corrected_faults,
        stats.uncorrectable_faults,
        stats.bist_scans,
        stats.dropped_flits,
        stats.dropped_packets,
        stats.quarantined_links,
        stats.budget_escalations,
        sim.cycle(),
        completion.unwrap_or(u64::MAX),
        u64::from(drained),
    ]
    .into_iter()
    .chain(stats.latency_histogram)
    {
        fp.word(v);
    }
    let mut counts = Counts::default();
    let mut flit_hops = 0;
    for (i, m) in sim.metrics().links().iter().enumerate() {
        for v in [
            m.flits.get(),
            m.retransmissions.get(),
            m.ecc_corrected.get(),
            m.ecc_uncorrectable.get(),
            m.nacks.get(),
            m.bist_scans.get(),
            m.lob_selections.get(),
        ] {
            fp.word(v);
        }
        flit_hops += m.flits.get();
        counts.retransmissions += m.retransmissions.get();
        counts.ecc_corrected += m.ecc_corrected.get();
        counts.ecc_uncorrectable += m.ecc_uncorrectable.get();
        counts.nacks += m.nacks.get();
        counts.bist_scans += m.bist_scans.get();
        counts.lob_selections += m.lob_selections.get();
        if let Some(ht) = &sim.link_faults(LinkId(i as u16)).trojan {
            counts.trojan_injections += ht.stats().injections;
        }
    }
    fp.word(counts.trojan_injections);
    counts.injection_stalls = sim
        .metrics()
        .routers()
        .iter()
        .map(|r| r.injection_stalls.get())
        .sum();
    Run {
        fingerprint: fp.0,
        failures,
        flit_hops,
        stats: stats.clone(),
        completion: if drained {
            completion.unwrap_or(cap)
        } else {
            cap
        },
        cycles: sim.cycle(),
        skipped: sim.skipped_cycles(),
        drained,
        counts,
    }
}

/// Everything one timed iteration of a workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Fingerprint of every simulated outcome, in input order.
    pub fingerprint: Fnv,
    /// Operations attempted (simulator runs, differential runs,
    /// checkpoint round trips) and the checks that failed.
    pub attempted: u64,
    pub failures: Vec<String>,
    /// Host time of each run inside the timed phase (ns).
    pub run_ns: Vec<u64>,
    /// Simulated link traversals, including retransmitted launches.
    pub flit_hops: u64,
    /// Each run's p99 packet latency (runs that delivered a packet).
    pub run_p99: Vec<u64>,
    /// Σ per-run completion cycle, deadlocked runs charged the cap.
    pub completion: u64,
    /// Simulated cycles, and those fast-forwarded.
    pub cycles: u64,
    pub skipped: u64,
    /// Runs that hit the cycle cap undrained; infected L-Ob runs that
    /// drained (`paper_sweep`).
    pub deadlocked: u64,
    pub lob_drained: u64,
    /// Checkpoint round trips completed.
    pub round_trips: u64,
    /// Divergences `run_differential` reported.
    pub divergences: u64,
    pub counts: Counts,
}

impl Outcome {
    fn absorb(&mut self, run: Run) {
        self.fingerprint.word(run.fingerprint);
        self.failures.extend(run.failures);
        self.flit_hops += run.flit_hops;
        if run.stats.latency_samples > 0 {
            self.run_p99.push(run.stats.latency_percentile(0.99));
        }
        self.completion += run.completion;
        self.cycles += run.cycles;
        self.skipped += run.skipped;
        self.deadlocked += u64::from(!run.drained);
        self.counts += run.counts;
    }
}

// ---------------------------------------------------------------------
// The timed phase
// ---------------------------------------------------------------------

/// Run the workload on its prepared inputs: the timed phase.
pub fn run(inputs: &mut Inputs, knobs: &Knobs, probe: &mut Probe) -> Outcome {
    let mut out = Outcome::default();
    match inputs {
        Inputs::Sweep(scenarios) => {
            let on = probe.on();
            let items: Vec<&Scenario> = scenarios.iter().collect();
            let results = par_map(items, Some(knobs.workers), |sc| {
                let mut p = Probe::new(on);
                let t0 = Instant::now();
                let run = paper_run(sc, &mut p);
                (run, ns_since(t0), p, lob_infected(sc))
            });
            for (run, ns, p, lob) in results {
                out.attempted += 1;
                out.run_ns.push(ns);
                probe.merge(p);
                match run {
                    Ok(run) => {
                        out.lob_drained += u64::from(lob && run.drained);
                        out.absorb(run);
                    }
                    Err(e) => out.failures.push(e),
                }
            }
        }
        Inputs::Single {
            sim,
            traffic,
            budget,
            checkpoint_every,
        } => {
            out.attempted += 1;
            let t0 = Instant::now();
            let completion = drive(sim, traffic, *budget, *checkpoint_every, probe, &mut out);
            out.run_ns.push(ns_since(t0));
            probe.absorb(sim);
            let run = observe(sim, completion, *budget);
            if !run.drained {
                out.failures.push(format!("not drained by cycle {budget}"));
            }
            out.absorb(run);
        }
        Inputs::Conformance(scenarios) => {
            for sc in scenarios.iter() {
                if probe.on() {
                    let t = probe.start();
                    let oracle = RefSim::new(sc);
                    black_box(oracle.expectation());
                    probe.oracle_ns += probe.lap(t);
                    let t = probe.start();
                    black_box((sc.build_sim(), sc.source()));
                    probe.build_ns += probe.lap(t);
                    let t = probe.start();
                    black_box(Simulator::new(sc.sim_config()));
                    probe.sim_new_ns += probe.lap(t);
                }
                let t0 = Instant::now();
                let report = run_differential_threads(sc, knobs.engine_threads);
                out.run_ns.push(ns_since(t0));
                out.attempted += 1;
                out.divergences += report.divergences.len() as u64;
                out.fingerprint.word(report.cycles);
                out.fingerprint.word(u64::from(report.quiesced));
                if let Some(d) = report.divergences.first() {
                    out.failures.push(format!("scenario {}: {d}", sc.seed));
                }
            }
        }
    }
    out
}

/// Whether `sc` is an infected run under the paper's L-Ob mitigation.
fn lob_infected(sc: &Scenario) -> bool {
    sc.strategy == Strategy::S2sLob && !sc.infected.is_empty()
}

/// One step of `sim`, timed when the probe records.
#[inline]
fn step(sim: &mut Simulator, src: &mut dyn TrafficSource, probe: &mut Probe) {
    let t = probe.start();
    sim.step(src);
    probe.step(t);
}

/// One fast-forward probe of at most `limit` cycles; returns the skip.
#[inline]
fn skip(sim: &mut Simulator, limit: u64, src: &mut dyn TrafficSource, probe: &mut Probe) -> u64 {
    let t = probe.start();
    let skipped = sim.skip_idle_cycles(limit, src);
    probe.skip(t, skipped);
    skipped
}

/// `htnoc_core::run_scenario`, call for call, with the simulator kept for
/// the audit (the benchmark's tests pin the two to the same outcome).
pub fn paper_run(sc: &Scenario, probe: &mut Probe) -> Result<Run, String> {
    let t = probe.start();
    let mut sim = sc
        .try_build_sim()
        .map_err(|e| format!("{} run does not build: {e}", sc.app.name))?;
    let mut traffic = sc.build_traffic(sim.mesh());
    probe.build_ns += probe.lap(t);
    if probe.on() {
        let t = probe.start();
        black_box(Simulator::new(sc.sim_config()));
        probe.sim_new_ns += probe.lap(t);
    }
    probe.arm(&mut sim);
    // Clean warm-up, as `Simulator::run` does it.
    let deadline = sim.cycle() + sc.warmup;
    while sim.cycle() < deadline {
        let limit = deadline - sim.cycle();
        if skip(&mut sim, limit, traffic.as_mut(), probe) == 0 {
            step(&mut sim, traffic.as_mut(), probe);
        }
    }
    sim.arm_trojans(true);
    while sim.cycle() < sc.max_cycles {
        step(&mut sim, traffic.as_mut(), probe);
        if traffic.done() && sim.is_quiescent() {
            break;
        }
    }
    let completion = last_delivery(sim.drain_events());
    probe.absorb(&sim);
    Ok(observe(&sim, completion, sc.max_cycles))
}

/// After the clock stops: replay every conformance scenario through the
/// simulator alone, to the end state `run_differential` reaches, to audit
/// and fingerprint the simulated outcome the differential run hides.
/// Traced, this is where the step, phase and fast-forward spans of
/// `conformance_sweep` come from. A no-op for the other workloads.
pub fn settle(inputs: &Inputs, knobs: &Knobs, probe: &mut Probe, out: &mut Outcome) {
    let Inputs::Conformance(scenarios) = inputs else {
        return;
    };
    for sc in scenarios {
        let mut sim = sc.build_sim();
        sim.set_threads(knobs.engine_threads);
        probe.arm(&mut sim);
        let completion = drive(&mut sim, &mut sc.source(), sc.max_cycles, None, probe, out);
        probe.absorb(&sim);
        out.absorb(observe(&sim, completion, sc.max_cycles));
    }
}

/// Assertions that keep each workload the workload it was chosen to be.
pub fn shape_failures(w: Workload, knobs: &Knobs, out: &Outcome) -> Vec<String> {
    let skipped_share = out.skipped as f64 / out.cycles.max(1) as f64;
    let mut checks: Vec<(bool, String)> = Vec::new();
    if w != Workload::ConformanceSweep {
        checks.push((
            out.counts.trojan_injections > 0,
            "no trojan ever fired".into(),
        ));
    }
    match w {
        Workload::PaperSweep => {
            checks.push((out.deadlocked > 0, "no run deadlocked".into()));
            checks.push((out.lob_drained > 0, "no infected L-Ob run drained".into()));
        }
        Workload::Mesh16Dense => checks.push((
            skipped_share < 0.30,
            format!(
                "skipped {:.1}% of cycles (limit 30%)",
                skipped_share * 100.0
            ),
        )),
        Workload::BurstyCkpt => {
            checks.push((
                skipped_share >= 0.80,
                format!(
                    "skipped {:.1}% of cycles (floor 80%)",
                    skipped_share * 100.0
                ),
            ));
            let want = if knobs.checkpoints {
                out.cycles / CKPT_EVERY
            } else {
                0
            };
            checks.push((
                out.round_trips == want,
                format!("{} of {want} checkpoint round trips", out.round_trips),
            ));
        }
        Workload::ConformanceSweep => {}
    }
    checks
        .into_iter()
        .filter(|(ok, _)| !ok)
        .map(|(_, what)| format!("workload shape: {what}"))
        .collect()
}

fn last_delivery(events: impl IntoIterator<Item = SimEvent>) -> Option<u64> {
    events
        .into_iter()
        .filter_map(|e| match e {
            SimEvent::PacketDelivered { delivered_at, .. } => Some(delivered_at),
            _ => None,
        })
        .max()
}

/// Drive a single-run workload until its traffic is done and the network
/// has drained (or the budget runs out), fast-forwarding idle stretches
/// (never past a checkpoint) and making a checkpoint round trip at every
/// `checkpoint_every` boundary.
fn drive(
    sim: &mut Simulator,
    traffic: &mut dyn TrafficSource,
    budget: u64,
    checkpoint_every: Option<u64>,
    probe: &mut Probe,
    out: &mut Outcome,
) -> Option<u64> {
    let mut events = Vec::new();
    let mut completion = None;
    while sim.cycle() < budget && !(traffic.done() && sim.is_quiescent()) {
        let stop = checkpoint_every.map_or(budget, |e| ((sim.cycle() / e + 1) * e).min(budget));
        if skip(sim, stop - sim.cycle(), traffic, probe) == 0 {
            step(sim, traffic, probe);
            sim.drain_events_into(&mut events);
            completion = completion.max(last_delivery(events.drain(..)));
        }
        if let Some(every) = checkpoint_every {
            if sim.cycle().is_multiple_of(every) {
                out.attempted += 1;
                match round_trip(sim, probe) {
                    Ok(()) => out.round_trips += 1,
                    Err(e) => out.failures.push(format!("cycle {}: {e}", sim.cycle())),
                }
            }
        }
    }
    completion
}

/// A crash-safe checkpoint round trip through the byte format.
fn round_trip(sim: &mut Simulator, probe: &mut Probe) -> Result<(), noc_sim::SnapshotError> {
    let t = probe.start();
    let bytes = sim.snapshot().to_bytes();
    if let Some(t) = t {
        probe.ser_ns.push(ns_since(t));
        probe.snapshot_bytes = bytes.len() as u64;
    }
    let t = probe.start();
    let back = SimSnapshot::from_bytes(&bytes)?;
    sim.restore(&back)?;
    if let Some(t) = t {
        probe.deser_ns.push(ns_since(t));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    //! The benchmark measures one program whatever the thread count,
    //! checkpointing or tracing: the default-seed outcome fingerprint must
    //! equal the committed one under every setting. Run with `--release`.
    use super::*;

    fn fingerprint(w: Workload, knobs: Knobs, traced: bool) -> u64 {
        let mut probe = Probe::new(traced);
        let mut inputs = setup(w, DEFAULT_SEED, &knobs, &mut probe);
        let mut out = run(&mut inputs, &knobs, &mut probe);
        settle(&inputs, &knobs, &mut probe, &mut out);
        assert!(out.failures.is_empty(), "{}: {:?}", w.name(), out.failures);
        assert!(shape_failures(w, &knobs, &out).is_empty());
        out.fingerprint.0
    }

    fn committed(w: Workload) -> u64 {
        committed_fingerprint(w).expect("every workload has a committed fingerprint")
    }

    #[test]
    fn one_and_two_threads_simulate_the_committed_outcome() {
        for w in Workload::ALL {
            for threads in [1, 2] {
                let knobs = Knobs {
                    workers: threads,
                    engine_threads: threads,
                    checkpoints: true,
                };
                assert_eq!(
                    fingerprint(w, knobs, false),
                    committed(w),
                    "{} at {threads}",
                    w.name()
                );
            }
        }
    }

    #[test]
    fn checkpoint_round_trips_leave_the_outcome_unchanged() {
        let knobs = Knobs {
            checkpoints: false,
            ..Knobs::bench()
        };
        let w = Workload::BurstyCkpt;
        assert_eq!(fingerprint(w, knobs, false), committed(w));
    }

    #[test]
    fn traced_runs_simulate_the_committed_outcome() {
        for w in Workload::ALL {
            assert_eq!(
                fingerprint(w, Knobs::bench(), true),
                committed(w),
                "{}",
                w.name()
            );
        }
    }

    #[test]
    fn paper_run_matches_run_scenario() {
        for sc in paper_scenarios(DEFAULT_SEED, &mut Probe::new(false)) {
            let want = htnoc_core::run_scenario(&sc);
            let got = paper_run(&sc, &mut Probe::new(false)).expect("every grid run builds");
            assert!(got.failures.is_empty(), "{:?}", got.failures);
            assert_eq!(got.stats, want.stats);
            assert_eq!(got.cycles, want.cycles);
            assert_eq!(got.drained, want.drained);
            assert_eq!(got.completion, want.completion_or_cap(sc.max_cycles));
            assert_eq!(got.flit_hops, want.metrics.link_flits().iter().sum::<u64>());
        }
    }
}
