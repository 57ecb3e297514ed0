//! Golden determinism tests for the non-mesh topologies: fixed-seed
//! runs on a 4×4 torus (clean baseline and a trojan flood mounted on a
//! wrap link) must produce byte-identical digests across worker-thread
//! counts {1, 4, 8} *and* with quiescence-aware cycle skipping on or
//! off — the dateline VC classes and table routing must not perturb the
//! sharded engine's bit-identity contract. A fault-degraded mesh runs
//! the mid-run quarantine dance through a checkpoint/restore boundary
//! and must land on the same golden as the uninterrupted run.
//!
//! Regenerate deliberately with
//! `UPDATE_GOLDEN=1 cargo test -p htnoc-core --test golden_topology`
//! (only the sequential, skip-on, uninterrupted arms ever record).

use htnoc_core::prelude::*;
use noc_sim::{Reader, SimSnapshot, Simulator, TrafficSource, Writer};
use noc_traffic::AppSpec;
use noc_types::Direction;
use std::fmt::Write as _;
use std::path::PathBuf;

/// FNV-1a 64-bit: a stable, dependency-free content fingerprint.
fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// Compare `got` against the committed golden file, or rewrite it when
/// `UPDATE_GOLDEN` is set.
fn compare_or_update(name: &str, got: &str) {
    let path = golden_path(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!(
            "golden file missing: {} (record it with UPDATE_GOLDEN=1)",
            path.display()
        )
    });
    assert_eq!(
        want, got,
        "{name}: output diverged from the committed golden; if the change \
         is intentional, regenerate with UPDATE_GOLDEN=1"
    );
}

/// Compare-only: sweep arms (threads > 1, skip off, checkpointed) must
/// match the committed golden and can never rewrite it.
fn assert_matches_committed_golden(name: &str, arm: &str, got: &str) {
    let path = golden_path(name);
    let want = std::fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!(
            "golden file missing: {} (record it with UPDATE_GOLDEN=1)",
            path.display()
        )
    });
    assert_eq!(
        want, got,
        "{name}: the {arm} arm diverged from the committed golden — every \
         arm must be bit-identical to the sequential skip-on recording"
    );
}

/// The paper's 4×4 fabric closed into a torus.
fn torus() -> Mesh {
    Mesh::new_torus(4, 4, 1)
}

/// The torus wrap feeder of the blackscholes primary (router 0): on the
/// 4×4 torus the wrap-minimal tables send dest-0 traffic from column 3
/// over the 3→0 East wrap hop, so a TASP comparator mounted there sees a
/// steady target-header stream — through a link that plain meshes do not
/// even have.
fn torus_wrap_feeder() -> LinkId {
    torus()
        .link_out(NodeId(3), Direction::East)
        .expect("the torus has an East wrap hop on every row")
}

/// Shared driver: warm up, arm the trojans, then run in fixed 64-cycle
/// slices with a quiescence early-out. The slice deadlines are the same
/// whether cycle skipping is on or off, so both arms observe the
/// identical schedule and must finish on the identical cycle.
fn digest(sc: &Scenario, threads: usize, skip: bool) -> String {
    let mut sim = sc.build_sim();
    sim.set_threads(threads);
    sim.set_fast_forward(skip);
    let mut traffic = sc.build_traffic(sim.mesh());
    sim.run(sc.warmup, traffic.as_mut());
    sim.arm_trojans(true);
    while sim.cycle() < sc.max_cycles {
        let slice = 64.min(sc.max_cycles - sim.cycle());
        sim.run(slice, traffic.as_mut());
        if traffic.done() && sim.is_quiescent() {
            break;
        }
    }
    let violations = sim.check_network_invariants();
    let stats = format!("{:?}", sim.stats());
    let mut out = String::new();
    writeln!(out, "cycles: {}", sim.cycle()).unwrap();
    writeln!(out, "quiescent: {}", sim.is_quiescent()).unwrap();
    writeln!(out, "invariant_violations: {}", violations.len()).unwrap();
    writeln!(out, "injected: {}", sim.stats().injected_packets).unwrap();
    writeln!(out, "delivered: {}", sim.stats().delivered_packets).unwrap();
    writeln!(out, "stats_fnv64: {:016x}", fnv64(stats.as_bytes())).unwrap();
    writeln!(out, "stats: {stats}").unwrap();
    out
}

/// Clean blackscholes traffic on the torus: the dateline VC classes and
/// wrap-minimal tables carry the whole workload, no trojans mounted.
fn torus_baseline_scenario() -> Scenario {
    let mut sc =
        Scenario::paper_default(AppSpec::blackscholes(), Strategy::Unprotected).with_mesh(torus());
    sc.warmup = 200;
    sc.inject_until = 800;
    sc.max_cycles = 4_000;
    sc.snapshot_interval = 50;
    sc
}

/// The trojan flood relocated onto the torus: a TASP comparator on the
/// 3→0 East wrap hop under the paper's S2S L-Ob mitigation.
fn torus_flood_scenario() -> Scenario {
    let mut sc = Scenario::paper_default(AppSpec::blackscholes(), Strategy::S2sLob)
        .with_mesh(torus())
        .with_infected(vec![torus_wrap_feeder()]);
    sc.warmup = 200;
    sc.inject_until = 800;
    sc.max_cycles = 6_000;
    sc.snapshot_interval = 50;
    sc
}

/// Thread counts the sharded engine must reproduce bit-for-bit on the
/// new topologies (ISSUE acceptance: {1, 4, 8}).
const THREAD_SWEEP: [usize; 3] = [1, 4, 8];

#[test]
fn torus_baseline_fixed_seed_is_golden() {
    let sc = torus_baseline_scenario();
    let first = digest(&sc, 1, true);
    let second = digest(&sc, 1, true);
    assert_eq!(first, second, "two in-process runs must be byte-identical");
    compare_or_update("torus_baseline.txt", &first);
}

#[test]
fn torus_baseline_matches_golden_across_threads_and_skip() {
    let sc = torus_baseline_scenario();
    for t in THREAD_SWEEP {
        for skip in [true, false] {
            let arm = format!("threads={t} skip={skip}");
            assert_matches_committed_golden("torus_baseline.txt", &arm, &digest(&sc, t, skip));
        }
    }
}

#[test]
fn torus_flood_fixed_seed_is_golden() {
    let sc = torus_flood_scenario();
    let first = digest(&sc, 1, true);
    let second = digest(&sc, 1, true);
    assert_eq!(first, second, "two in-process runs must be byte-identical");
    compare_or_update("torus_flood.txt", &first);
}

#[test]
fn torus_flood_matches_golden_across_threads_and_skip() {
    let sc = torus_flood_scenario();
    for t in THREAD_SWEEP {
        for skip in [true, false] {
            let arm = format!("threads={t} skip={skip}");
            assert_matches_committed_golden("torus_flood.txt", &arm, &digest(&sc, t, skip));
        }
    }
}

// ---------------------------------------------------------------------
// Degraded-mesh quarantine through a checkpoint boundary
// ---------------------------------------------------------------------

/// A 4×4 mesh that has already lost two interior adjacencies (5–6 and
/// 9–13) before the run starts: routing comes from the up*/down* tables
/// rather than XY, and the mid-run quarantine must reroute around the
/// freshly dead link *and* the static faults at once.
fn degraded() -> Mesh {
    Mesh::new_degraded(
        4,
        4,
        1,
        &[(NodeId(5), Direction::East), (NodeId(9), Direction::North)],
    )
}

/// The infected feeder on the degraded mesh: the 1→0 hop into the
/// blackscholes primary, killed at cycle 400.
fn degraded_feeder() -> LinkId {
    degraded()
        .link_out(NodeId(1), Direction::West)
        .expect("the 1->0 hop survives the static degradation")
}

fn degraded_quarantine_scenario() -> Scenario {
    let mut sc = Scenario::paper_default(AppSpec::blackscholes(), Strategy::S2sLob)
        .with_mesh(degraded())
        .with_infected(vec![degraded_feeder()]);
    sc.warmup = 200;
    sc.inject_until = 800;
    sc.max_cycles = 6_000;
    sc.snapshot_interval = 50;
    sc
}

/// Step until `stop_at` (or the scenario ends), keying the arm and the
/// cycle-400 link kill off the cycle counter so a resumed run never
/// repeats or skips them (both ride in the snapshot).
fn drive(
    sim: &mut Simulator,
    traffic: &mut dyn TrafficSource,
    sc: &Scenario,
    quarantine_at_400: LinkId,
    stop_at: u64,
) -> bool {
    while sim.cycle() < stop_at.min(sc.max_cycles) {
        let now = sim.cycle();
        if now == sc.warmup {
            sim.arm_trojans(true);
        }
        if now == 400 {
            sim.quarantine_link(quarantine_at_400)
                .expect("the degraded mesh survives one more dead link");
        }
        sim.step(traffic);
        if traffic.done() && sim.is_quiescent() {
            return true;
        }
    }
    false
}

/// Serialize (sim + traffic cursor) through the byte format, tear both
/// down, and bring them back in fresh instances built from the scenario.
fn checkpoint_roundtrip(
    sc: &Scenario,
    mut sim: Simulator,
    mut traffic: Box<dyn TrafficSource>,
) -> (Simulator, Box<dyn TrafficSource>) {
    let mut snap = sim.snapshot();
    let mut cursor = Writer::default();
    traffic.save_cursor(&mut cursor);
    snap.set_user_data(cursor.into_bytes());
    let bytes = snap.to_bytes();
    drop(sim);
    drop(traffic);

    let snap = SimSnapshot::from_bytes(&bytes).expect("checkpoint decodes");
    let mut sim = sc.build_sim();
    sim.restore(&snap).expect("checkpoint restores");
    let mut traffic = sc.build_traffic(sim.mesh());
    let mut cursor = Reader::new(snap.user_data());
    traffic
        .load_cursor(&mut cursor)
        .expect("traffic cursor loads");
    cursor.finish().expect("traffic cursor fully consumed");
    (sim, traffic)
}

/// The degraded-mesh quarantine run, optionally interrupted at `ckpt_at`
/// by a full serialize → tear down → restore round-trip.
fn degraded_quarantine_digest(ckpt_at: Option<u64>) -> String {
    let sc = degraded_quarantine_scenario();
    let infected = degraded_feeder();
    let mut sim = sc.build_sim();
    sim.set_threads(1);
    let mut traffic = sc.build_traffic(sim.mesh());
    if let Some(at) = ckpt_at {
        let finished = drive(&mut sim, traffic.as_mut(), &sc, infected, at);
        assert!(!finished, "the scenario must still be live at cycle {at}");
        (sim, traffic) = checkpoint_roundtrip(&sc, sim, traffic);
    }
    drive(&mut sim, traffic.as_mut(), &sc, infected, u64::MAX);

    let violations = sim.check_network_invariants();
    let stats = format!("{:?}", sim.stats());
    let mut out = String::new();
    writeln!(out, "cycles: {}", sim.cycle()).unwrap();
    writeln!(out, "quiescent: {}", sim.is_quiescent()).unwrap();
    writeln!(out, "invariant_violations: {}", violations.len()).unwrap();
    writeln!(out, "injected: {}", sim.stats().injected_packets).unwrap();
    writeln!(out, "delivered: {}", sim.stats().delivered_packets).unwrap();
    writeln!(out, "quarantined_links: {}", sim.stats().quarantined_links).unwrap();
    writeln!(out, "stats_fnv64: {:016x}", fnv64(stats.as_bytes())).unwrap();
    writeln!(out, "stats: {stats}").unwrap();
    out
}

#[test]
fn degraded_quarantine_fixed_seed_is_golden() {
    let first = degraded_quarantine_digest(None);
    let second = degraded_quarantine_digest(None);
    assert_eq!(first, second, "two in-process runs must be byte-identical");
    compare_or_update("degraded_quarantine.txt", &first);
}

#[test]
fn degraded_quarantine_checkpoint_resume_matches_golden() {
    // Mid-storm (before the link kill) and mid-reroute (after it; the
    // run quiesces at cycle 800, so both land inside the live window).
    for ckpt_at in [300, 600] {
        let arm = format!("checkpoint@{ckpt_at}");
        assert_matches_committed_golden(
            "degraded_quarantine.txt",
            &arm,
            &degraded_quarantine_digest(Some(ckpt_at)),
        );
    }
}
