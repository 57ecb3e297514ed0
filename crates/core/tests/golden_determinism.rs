//! Golden determinism tests: fixed-seed runs of the baseline and
//! trojan-flood scenarios must produce byte-identical `SimStats` (and,
//! with tracing armed, byte-identical canonical JSONL) across runs —
//! and across hot-path rewrites such as the active-set optimisation.
//!
//! The golden files under `tests/golden/` were recorded against the
//! pre-optimisation simulator; any divergence means a behavioural (not
//! just performance) change. Regenerate deliberately with
//! `UPDATE_GOLDEN=1 cargo test -p htnoc-core --test golden_determinism`.
//!
//! The `*_parallel_matches_sequential_golden` tests re-run each scenario
//! on the sharded cycle engine at 2, 4, and 8 worker threads and require
//! byte-identity with the *committed sequential* golden — the parallel
//! path can never regenerate a golden, only match one.
//!
//! Every scenario also ends with a fingerprint of its per-router and
//! per-link counters (`routers_csv`, `links_csv`), checked against
//! `tests/golden/counters.txt` at every thread count. Those counters
//! (injection stalls among them) appear in no `SimStats` digest, so this
//! file is their only pin. It is compare-only: no environment variable
//! rewrites it.

use htnoc_core::campaign::{trojan_flood, RunOpts};
use htnoc_core::prelude::*;
use noc_sim::{MetricsRegistry, TraceConfig};
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

/// Verify a thread-sweep digest against the committed sequential golden.
/// Never rewrites the file: goldens are only ever recorded sequentially.
fn assert_matches_sequential_golden(name: &str, threads: usize, got: &str) {
    let path = golden_path(name);
    let want = std::fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!(
            "golden file missing: {} (record it sequentially with UPDATE_GOLDEN=1)",
            path.display()
        )
    });
    assert_eq!(
        want, got,
        "{name}: {threads}-thread sharded run diverged from the committed \
         sequential golden — the parallel engine must be bit-identical"
    );
}

/// One line of `counters.txt`: FNV-1a of the router and link counter
/// tables at the end of the scenario.
fn counters_line(scenario: &str, metrics: &MetricsRegistry, cycle: u64) -> String {
    format!(
        "{scenario}: routers_fnv64 {:016x} links_fnv64 {:016x}\n",
        fnv64(metrics.routers_csv().as_bytes()),
        fnv64(metrics.links_csv(cycle).as_bytes())
    )
}

/// Compare one scenario's counter line against the committed
/// `counters.txt`. Never rewrites the file.
fn assert_counters(threads: usize, got: &str) {
    let path = golden_path("counters.txt");
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("golden file {}: {e}", path.display()));
    let scenario = got
        .split(':')
        .next()
        .expect("a counters line names its scenario");
    let line = want
        .lines()
        .find(|l| l.split(':').next() == Some(scenario))
        .unwrap_or_else(|| panic!("counters.txt has no line for {scenario}"));
    assert_eq!(
        format!("{line}\n"),
        got,
        "{scenario}: router/link counters diverged from the committed golden \
         at {threads} thread(s)"
    );
}

/// The baseline scenario: clean blackscholes traffic on the paper mesh,
/// no trojans armed, fixed seed — a pure hot-loop workout.
fn baseline_digest(threads: usize) -> (String, String) {
    let mut sc = Scenario::paper_default(AppSpec::blackscholes(), Strategy::Unprotected)
        .with_threads(threads);
    sc.warmup = 200;
    sc.inject_until = 800;
    sc.max_cycles = 4_000;
    sc.snapshot_interval = 50;
    let result = run_scenario(&sc);
    let stats = format!("{:?}", result.stats);
    let mut out = String::new();
    writeln!(out, "cycles: {}", result.cycles).unwrap();
    writeln!(out, "drained: {}", result.drained).unwrap();
    writeln!(out, "stats_fnv64: {:016x}", fnv64(stats.as_bytes())).unwrap();
    writeln!(out, "stats: {stats}").unwrap();
    let counters = counters_line("baseline", &result.metrics, result.cycles);
    (out, counters)
}

/// The trojan-flood scenario with the structured tracer armed: the
/// watchdog-guarded retransmission storm from the resilience campaign.
fn trojan_flood_digest(threads: usize) -> (String, String) {
    let opts = RunOpts {
        threads,
        trace: Some(TraceConfig::default()),
        ..RunOpts::default()
    };
    let (report, sim) = trojan_flood(0x0D15_EA5E, opts).expect("the flood ends in a report");
    let stats = format!("{:?}", sim.stats());
    let tracer = sim.tracer().expect("tracing was armed");
    let mut jsonl = String::new();
    let mut lines = 0usize;
    for rec in tracer.records() {
        jsonl.push_str(&rec.to_jsonl());
        jsonl.push('\n');
        lines += 1;
    }
    let mut out = String::new();
    writeln!(out, "cycles: {}", sim.cycle()).unwrap();
    writeln!(out, "stalls: {}", report.stalls.len()).unwrap();
    writeln!(out, "quarantined_links: {}", report.quarantined_links).unwrap();
    writeln!(out, "trace_lines: {lines}").unwrap();
    writeln!(out, "trace_fnv64: {:016x}", fnv64(jsonl.as_bytes())).unwrap();
    writeln!(out, "stats_bytes: {}", stats.len()).unwrap();
    writeln!(out, "stats_fnv64: {:016x}", fnv64(stats.as_bytes())).unwrap();
    // The full stats Debug string runs to megabytes (one snapshot per
    // cycle); the fingerprint above pins it, the head keeps diffs legible.
    let head_end = stats
        .char_indices()
        .nth(400)
        .map_or(stats.len(), |(i, _)| i);
    writeln!(out, "stats_head: {}", &stats[..head_end]).unwrap();
    let counters = counters_line("trojan_flood", sim.metrics(), sim.cycle());
    (out, counters)
}

/// The three busiest feeder links of the blackscholes primary (corner
/// router 0): each carries a steady stream of target-dest headers, so a
/// TASP comparator mounted there fires constantly.
fn primary_feeder_links() -> Vec<LinkId> {
    let mesh = Mesh::paper();
    // XY routing funnels dest-0 traffic through 2→1→0 along row 0 and
    // down the 4→0 column hop; every one of these hops sees the target
    // header stream.
    [
        (NodeId(1), Direction::West),  // 1 → 0
        (NodeId(4), Direction::South), // 4 → 0
        (NodeId(2), Direction::West),  // 2 → 1
    ]
    .into_iter()
    .map(|(n, d)| mesh.link_out(n, d).expect("paper-mesh feeder hop"))
    .collect()
}

/// Three TASP trojans on distinct links under the paper's S2S L-Ob
/// mitigation: the detectors must classify and obfuscate around all of
/// them at once, and the whole dance must be fingerprint-stable.
fn multi_trojan_digest(threads: usize) -> (String, String) {
    let mut sc = Scenario::paper_default(AppSpec::blackscholes(), Strategy::S2sLob)
        .with_infected(primary_feeder_links())
        .with_threads(threads);
    sc.warmup = 200;
    sc.inject_until = 800;
    sc.max_cycles = 6_000;
    sc.snapshot_interval = 50;
    let result = run_scenario(&sc);
    let stats = format!("{:?}", result.stats);
    let mut out = String::new();
    writeln!(out, "cycles: {}", result.cycles).unwrap();
    writeln!(out, "drained: {}", result.drained).unwrap();
    writeln!(out, "injected: {}", result.stats.injected_packets).unwrap();
    writeln!(out, "delivered: {}", result.stats.delivered_packets).unwrap();
    writeln!(out, "stats_fnv64: {:016x}", fnv64(stats.as_bytes())).unwrap();
    writeln!(out, "stats: {stats}").unwrap();
    let counters = counters_line("multi_trojan", &result.metrics, result.cycles);
    (out, counters)
}

/// Mid-run link quarantine with the automatic up*/down* reroute: arm a
/// trojan on a hot link, let the storm build, then kill the link and make
/// the survivors finish over the rebuilt routes. Pins both the purge's
/// credit settlement and the rerouted drain.
fn quarantine_reroute_digest(threads: usize) -> (String, String) {
    let infected = primary_feeder_links()[0];
    let mut sc = Scenario::paper_default(AppSpec::blackscholes(), Strategy::S2sLob)
        .with_infected(vec![infected]);
    sc.warmup = 200;
    sc.inject_until = 800;
    sc.max_cycles = 6_000;
    sc.snapshot_interval = 50;
    let mut sim = sc.build_sim();
    // Exercises the runtime re-sharding path rather than the config knob.
    sim.set_threads(threads);
    let mut traffic = sc.build_traffic(sim.mesh());
    sim.run(sc.warmup, traffic.as_mut());
    sim.arm_trojans(true);
    // Let the attack play out, then kill the infected link mid-traffic:
    // the purge settles whatever is committed to it and the rebuilt
    // up*/down* routes must carry the rest of the workload.
    while sim.cycle() < 400 {
        sim.step(traffic.as_mut());
    }
    sim.quarantine_link(infected)
        .expect("the paper mesh survives one dead link");
    while sim.cycle() < sc.max_cycles {
        sim.step(traffic.as_mut());
        if traffic.done() && sim.is_quiescent() {
            break;
        }
    }
    // The conformance invariant oracles must hold after purge + reroute.
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
    let counters = counters_line("quarantine_reroute", sim.metrics(), sim.cycle());
    (out, counters)
}

/// Thread counts the sharded engine must reproduce bit-for-bit.
const THREAD_SWEEP: [usize; 3] = [2, 4, 8];

/// Two sequential runs agree, match the committed digest, and end with
/// the committed counters.
fn check_sequential(golden: &str, digest: fn(usize) -> (String, String)) {
    let first = digest(1);
    let second = digest(1);
    assert_eq!(first, second, "two in-process runs must be byte-identical");
    compare_or_update(golden, &first.0);
    assert_counters(1, &first.1);
}

/// Every thread count reproduces the committed sequential digest and
/// counters.
fn check_parallel(golden: &str, digest: fn(usize) -> (String, String)) {
    for t in THREAD_SWEEP {
        let (got, counters) = digest(t);
        assert_matches_sequential_golden(golden, t, &got);
        assert_counters(t, &counters);
    }
}

#[test]
fn baseline_fixed_seed_is_golden() {
    check_sequential("baseline_stats.txt", baseline_digest);
}

#[test]
fn baseline_parallel_matches_sequential_golden() {
    check_parallel("baseline_stats.txt", baseline_digest);
}

#[test]
fn trojan_flood_fixed_seed_is_golden() {
    check_sequential("trojan_flood.txt", trojan_flood_digest);
}

#[test]
fn trojan_flood_parallel_matches_sequential_golden() {
    check_parallel("trojan_flood.txt", trojan_flood_digest);
}

#[test]
fn multi_trojan_fixed_seed_is_golden() {
    check_sequential("multi_trojan.txt", multi_trojan_digest);
}

#[test]
fn multi_trojan_parallel_matches_sequential_golden() {
    check_parallel("multi_trojan.txt", multi_trojan_digest);
}

#[test]
fn quarantine_reroute_fixed_seed_is_golden() {
    check_sequential("quarantine_reroute.txt", quarantine_reroute_digest);
}

#[test]
fn quarantine_reroute_parallel_matches_sequential_golden() {
    check_parallel("quarantine_reroute.txt", quarantine_reroute_digest);
}
