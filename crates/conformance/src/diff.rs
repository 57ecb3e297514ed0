//! Lockstep differential driver: the optimized simulator vs. the
//! reference oracle plus the network-wide invariant oracles.
//!
//! The driver runs the real [`Simulator`] through [`Simulator::drive`],
//! drains its event stream, and every [`EPOCH`] cycles cross-checks the
//! conserved quantities the oracle can predict exactly (offered traffic,
//! counter monotonicity, fault-count bounds) alongside the full
//! structural audit (`check_all_invariants`). At the end of the run it
//! compares the complete [`Expectation`]: delivery maps, per-link fault
//! counters, detector verdicts, and the quarantine set.

use crate::oracle::{Expectation, RefSim};
use crate::scenario::{ReplaySource, Scenario};
use noc_mitigation::FaultClass;
use noc_sim::{Cue, Landing, SimEvent, Simulator, Stop};
use noc_types::LinkId;
use std::collections::BTreeMap;

/// Cycles between mid-run cross-checks.
pub const EPOCH: u64 = 64;

/// One observed disagreement between the simulator and an oracle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// Cycle the disagreement was detected (end-state checks report the
    /// final cycle).
    pub cycle: u64,
    /// Human-readable description.
    pub what: String,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[cycle {}] {}", self.cycle, self.what)
    }
}

/// The outcome of one differential run.
#[derive(Debug, Clone)]
pub struct DiffReport {
    /// Every disagreement found (empty = conformant).
    pub divergences: Vec<Divergence>,
    /// Cycles actually simulated.
    pub cycles: u64,
    /// Whether the network fully drained before the cycle budget.
    pub quiesced: bool,
}

impl DiffReport {
    /// Whether the run was fully conformant.
    pub fn ok(&self) -> bool {
        self.divergences.is_empty()
    }
}

/// Monotone counters sampled each epoch (they may never decrease).
#[derive(Default, Clone, Copy)]
struct Watermark {
    injected_flits: u64,
    delivered_flits: u64,
    delivered_packets: u64,
    retransmissions: u64,
    uncorrectable: u64,
    corrected: u64,
}

/// Run `scenario` through the real simulator in lockstep with the
/// reference oracle. Returns every divergence found.
pub fn run_differential(scenario: &Scenario) -> DiffReport {
    run_differential_threads(scenario, 1)
}

/// [`run_differential`] with the optimized simulator running on the
/// sharded cycle engine at `threads` workers. The oracle is engine-blind,
/// so any thread-dependent behaviour in the simulator surfaces as an
/// ordinary divergence.
pub fn run_differential_threads(scenario: &Scenario, threads: usize) -> DiffReport {
    run_differential_inner(scenario, threads, false).0
}

/// Re-run a known-diverging scenario and capture a forensic snapshot of
/// the simulator at the last epoch boundary *before* the first
/// divergence was recorded, together with that snapshot's cycle. Restore
/// it (`Simulator::restore` on a sim built from the same scenario) and
/// single-step to watch the divergence happen.
///
/// Returns `None` when the run did not diverge (nothing to blame).
pub fn divergence_artifact(
    scenario: &Scenario,
    threads: usize,
) -> Option<(u64, noc_sim::SimSnapshot)> {
    let (report, snap) = run_differential_inner(scenario, threads, true);
    if report.ok() {
        return None;
    }
    snap.map(|s| (s.cycle(), s))
}

fn run_differential_inner(
    scenario: &Scenario,
    threads: usize,
    capture: bool,
) -> (DiffReport, Option<noc_sim::SimSnapshot>) {
    let oracle = RefSim::new(scenario);
    let exp = oracle.expectation();
    let mut sim = scenario.build_sim();
    sim.set_threads(threads);
    let mut source = scenario.source();

    let mut div: Vec<Divergence> = Vec::new();
    // Delivery map: packet id -> (times delivered, reported dest).
    let mut delivered: BTreeMap<u64, (u64, u16)> = BTreeMap::new();
    // Last classification per link.
    let mut classified: BTreeMap<u16, FaultClass> = BTreeMap::new();
    let mut quarantine_events: Vec<u16> = Vec::new();
    let mut mark = Watermark::default();
    let mut events = Vec::new();
    // Forensics: the state at the newest epoch boundary that was still
    // fully conformant, frozen once the first divergence lands.
    let mut clean_snap = capture.then(|| sim.snapshot());
    let mut artifact: Option<noc_sim::SimSnapshot> = None;

    // At every cycle the run lands on, read the new events; at each epoch
    // boundary, run the epoch checks and keep the state of the newest
    // boundary that was still fully conformant.
    let mut lockstep = |sim: &mut Simulator, _: &mut ReplaySource, landing: Landing| {
        let now = sim.cycle();
        sim.drain_events_into(&mut events);
        for ev in events.drain(..) {
            match ev {
                SimEvent::PacketDelivered { packet, dest, .. } => {
                    let e = delivered.entry(packet.0).or_insert((0, dest.0));
                    e.0 += 1;
                    e.1 = dest.0;
                }
                SimEvent::LinkClassified { link, class, .. } => {
                    classified.insert(link.0, class);
                }
                SimEvent::LinkQuarantined { link, .. } => {
                    quarantine_events.push(link.0);
                }
                _ => {}
            }
        }
        if now.is_multiple_of(EPOCH) {
            let before = div.len();
            epoch_checks(sim, &oracle, &exp, &mut mark, &mut div);
            if capture && artifact.is_none() {
                if div.len() > before {
                    artifact = clean_snap.take();
                } else {
                    clean_snap = Some(sim.snapshot());
                }
            }
        }
        // A conformance run that already diverged structurally will not
        // get more informative; stop early to keep shrinking fast. Like
        // the drain, this is judged only after a step.
        if landing != Landing::Skip && div.len() >= 32 {
            return Cue::End;
        }
        // Fast-forward over provably idle stretches (bursty scenarios
        // leave the whole network quiescent between bursts), capped at
        // the next epoch boundary so the cross-check cadence is
        // unchanged. The skip gate guarantees the skipped cycles are
        // no-ops, so a skip landing on a boundary observes exactly the
        // state naive stepping would have — and an over-skipping engine
        // (the `Sabotage::OverSkip` self-test) swallows an injection the
        // oracle counts, surfacing as injection drift right here.
        Cue::Look((now / EPOCH + 1) * EPOCH)
    };
    // One step before the driver's first drain test, so a scenario with
    // no packets still runs a cycle.
    let quiesced = scenario.max_cycles > 0 && {
        sim.step(&mut source);
        let stop = Stop::Drained {
            cap: scenario.max_cycles,
        };
        sim.drive(&mut source, stop, &mut lockstep)
    };

    let end = sim.cycle();
    let before = div.len();
    epoch_checks(&sim, &oracle, &exp, &mut mark, &mut div);
    if capture && artifact.is_none() && div.len() > before {
        artifact = clean_snap.take();
    }
    end_state_checks(
        &sim,
        scenario,
        &exp,
        &delivered,
        &classified,
        quiesced,
        &mut div,
    );
    // A schedule extending past the cycle budget can never report
    // `done()`, so an empty network at the end is not a drain failure —
    // mirror the `inject_at < max_cycles` filter `must_deliver_all` uses.
    let schedule_fits = scenario
        .packets
        .iter()
        .all(|p| p.inject_at < scenario.max_cycles);
    if exp.drains && schedule_fits && !quiesced && div.is_empty() {
        div.push(Divergence {
            cycle: end,
            what: format!(
                "network failed to drain within {} cycles ({} flits resident, {} queued)",
                scenario.max_cycles,
                sim.resident_flits(),
                sim.queued_flits()
            ),
        });
    }
    // Quarantine events must agree with the simulator's dead-link list.
    let mut dead: Vec<u16> = sim.dead_links().iter().map(|l| l.0).collect();
    dead.sort_unstable();
    quarantine_events.sort_unstable();
    quarantine_events.dedup();
    if quarantine_events != dead {
        div.push(Divergence {
            cycle: end,
            what: format!(
                "LinkQuarantined events {quarantine_events:?} disagree with dead links {dead:?}"
            ),
        });
    }
    // A divergence first seen by the end-state audit still gets the last
    // clean epoch snapshot as its artifact.
    if capture && artifact.is_none() && !div.is_empty() {
        artifact = clean_snap.take();
    }
    (
        DiffReport {
            divergences: div,
            cycles: end,
            quiesced,
        },
        artifact,
    )
}

fn epoch_checks(
    sim: &Simulator,
    oracle: &RefSim,
    exp: &Expectation,
    mark: &mut Watermark,
    div: &mut Vec<Divergence>,
) {
    let now = sim.cycle();
    let stats = sim.stats();

    for v in sim.check_all_invariants() {
        div.push(Divergence {
            cycle: now,
            what: format!("invariant violation at router {}: {}", v.router, v.what),
        });
    }

    // Offered traffic is unconditional, so it is exact at every epoch.
    let (want_packets, want_flits) = oracle.injected_by(now);
    if stats.injected_packets != want_packets || stats.injected_flits != want_flits {
        div.push(Divergence {
            cycle: now,
            what: format!(
                "injection drift: sim says {}p/{}f, oracle says {}p/{}f",
                stats.injected_packets, stats.injected_flits, want_packets, want_flits
            ),
        });
    }
    if stats.delivered_flits > stats.injected_flits
        || stats.delivered_packets > stats.injected_packets
    {
        div.push(Divergence {
            cycle: now,
            what: format!(
                "delivered more than injected: {}p/{}f of {}p/{}f",
                stats.delivered_packets,
                stats.delivered_flits,
                stats.injected_packets,
                stats.injected_flits
            ),
        });
    }

    let next = Watermark {
        injected_flits: stats.injected_flits,
        delivered_flits: stats.delivered_flits,
        delivered_packets: stats.delivered_packets,
        retransmissions: stats.retransmissions,
        uncorrectable: stats.uncorrectable_faults,
        corrected: stats.corrected_faults,
    };
    for (name, before, after) in [
        ("injected_flits", mark.injected_flits, next.injected_flits),
        (
            "delivered_flits",
            mark.delivered_flits,
            next.delivered_flits,
        ),
        (
            "delivered_packets",
            mark.delivered_packets,
            next.delivered_packets,
        ),
        (
            "retransmissions",
            mark.retransmissions,
            next.retransmissions,
        ),
        (
            "uncorrectable_faults",
            mark.uncorrectable,
            next.uncorrectable,
        ),
        ("corrected_faults", mark.corrected, next.corrected),
    ] {
        if after < before {
            div.push(Divergence {
                cycle: now,
                what: format!("monotone counter {name} went backwards: {before} -> {after}"),
            });
        }
    }
    *mark = next;

    // Fault bounds hold at every instant, not just the end — catch an
    // exploding counter as soon as it crosses its ceiling.
    for b in &exp.uncorrectable {
        let got = sim.metrics().link(LinkId(b.link)).ecc_uncorrectable.get();
        if got > b.max {
            div.push(Divergence {
                cycle: now,
                what: format!(
                    "link {} uncorrectable count {got} exceeds oracle ceiling {}",
                    b.link, b.max
                ),
            });
        }
    }
    for b in &exp.corrected {
        let got = sim.metrics().link(LinkId(b.link)).ecc_corrected.get();
        if got > b.max {
            div.push(Divergence {
                cycle: now,
                what: format!(
                    "link {} corrected count {got} exceeds oracle ceiling {}",
                    b.link, b.max
                ),
            });
        }
    }
}

fn end_state_checks(
    sim: &Simulator,
    scenario: &Scenario,
    exp: &Expectation,
    delivered: &BTreeMap<u64, (u64, u16)>,
    classified: &BTreeMap<u16, FaultClass>,
    quiesced: bool,
    div: &mut Vec<Divergence>,
) {
    let now = sim.cycle();
    let stats = sim.stats();
    let mut push = |what: String| div.push(Divergence { cycle: now, what });

    // Delivery map sanity: once each, to the destination the spec named.
    for (id, (count, dest)) in delivered {
        if *count != 1 {
            push(format!("packet {id} delivered {count} times"));
        }
        match scenario.packets.iter().find(|p| p.id == *id) {
            None => push(format!("delivered unknown packet id {id}")),
            Some(p) if p.dest != *dest => push(format!(
                "packet {id} delivered to router {dest}, spec says {}",
                p.dest
            )),
            Some(_) => {}
        }
    }
    if delivered.len() as u64 != stats.delivered_packets {
        push(format!(
            "delivery events ({}) disagree with delivered_packets counter ({})",
            delivered.len(),
            stats.delivered_packets
        ));
    }

    if exp.must_deliver_all {
        for p in &scenario.packets {
            if p.inject_at < scenario.max_cycles && !delivered.contains_key(&p.id) {
                push(format!("packet {} was never delivered", p.id));
            }
        }
    }
    for id in &exp.never_delivered {
        if delivered.contains_key(id) {
            push(format!(
                "packet {id} delivered despite an unmitigated trojan on its path"
            ));
        }
    }

    if quiesced && exp.conserve_at_quiescence {
        if stats.delivered_packets + stats.dropped_packets != stats.injected_packets {
            push(format!(
                "packet conservation: {} delivered + {} dropped != {} injected",
                stats.delivered_packets, stats.dropped_packets, stats.injected_packets
            ));
        }
        if stats.delivered_flits + stats.dropped_flits != stats.injected_flits {
            push(format!(
                "flit conservation: {} delivered + {} dropped != {} injected",
                stats.delivered_flits, stats.dropped_flits, stats.injected_flits
            ));
        }
    }

    for b in &exp.uncorrectable {
        let got = sim.metrics().link(LinkId(b.link)).ecc_uncorrectable.get();
        if got < b.min || got > b.max {
            push(format!(
                "link {} final uncorrectable count {got} outside oracle bounds [{}, {}]",
                b.link,
                b.min,
                if b.max == u64::MAX {
                    "inf".into()
                } else {
                    b.max.to_string()
                }
            ));
        }
    }
    for b in &exp.corrected {
        let got = sim.metrics().link(LinkId(b.link)).ecc_corrected.get();
        if got < b.min || got > b.max {
            push(format!(
                "link {} final corrected count {got} outside oracle bounds [{}, {}]",
                b.link, b.min, b.max
            ));
        }
    }
    // The per-link counters must also add up to the global statistics.
    let mesh = scenario.mesh();
    let sum_unc: u64 = (0..mesh.links() as u16)
        .map(|l| sim.metrics().link(LinkId(l)).ecc_uncorrectable.get())
        .sum();
    let sum_cor: u64 = (0..mesh.links() as u16)
        .map(|l| sim.metrics().link(LinkId(l)).ecc_corrected.get())
        .sum();
    if sum_unc != stats.uncorrectable_faults {
        push(format!(
            "per-link uncorrectable sum {sum_unc} != global counter {}",
            stats.uncorrectable_faults
        ));
    }
    if sum_cor != stats.corrected_faults {
        push(format!(
            "per-link corrected sum {sum_cor} != global counter {}",
            stats.corrected_faults
        ));
    }

    if exp.zero_nacks && (stats.retransmissions != 0 || stats.uncorrectable_faults != 0) {
        push(format!(
            "oracle predicts a NACK-free run, simulator reports {} retransmissions / {} uncorrectable",
            stats.retransmissions, stats.uncorrectable_faults
        ));
    }

    for link in &exp.trojan_class_links {
        match classified.get(link) {
            Some(FaultClass::HardwareTrojan) => {}
            other => push(format!(
                "link {link} final classification {other:?}, oracle expects HardwareTrojan"
            )),
        }
    }
    if exp.no_classification && !classified.is_empty() {
        push(format!(
            "oracle predicts no classifications, detector produced {classified:?}"
        ));
    }

    if let Some(want) = &exp.quarantine {
        let mut dead: Vec<u16> = sim.dead_links().iter().map(|l| l.0).collect();
        dead.sort_unstable();
        if &dead != want {
            push(format!(
                "quarantine set {dead:?} differs from oracle prediction {want:?}"
            ));
        }
    }
}
