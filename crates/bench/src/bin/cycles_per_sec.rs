//! End-to-end simulator throughput harness: cycles/sec on the paper's
//! baseline and trojan-flood scenarios for a fixed cycle budget, plus a
//! mesh-scaling sweep (16×16 and 32×32) across the sharded engine's
//! thread axis.
//!
//! Writes `BENCH_throughput.json` (cycles/sec, flit-hops/sec, peak RSS,
//! per-scenario skipped-cycle counts and idle share from the quiescence
//! fast-forward engine, snapshot serialize/restore latency and encoded
//! size per scenario, and a threads → speedup scaling curve) and, when
//! `--gate` is passed, exits non-zero if:
//!
//! * cycles/sec on the 4×4 scenarios falls more than 30% below the
//!   committed `crates/bench/baseline_throughput.json`;
//! * crash-safe checkpointing at `--checkpoint-every 10000` would cost
//!   ≥ 1% of simulation time on the 4×4 scenarios (one snapshot
//!   serialization per 10 000 simulated cycles);
//! * any scenario's peak RSS exceeds 1.5× its committed ceiling (the
//!   parallel engine's per-shard scratch must not balloon memory);
//! * (machine-aware — only when `available_parallelism ≥ threads`;
//!   skipped runs are annotated `"degraded_host": true` in the report)
//!   a multi-threaded run is >30% slower than its own sequential run,
//!   or the headline 16×16 trojan-flood run at 8 threads misses its 3×
//!   speedup target minus the same 30% tolerance;
//! * the drain-heavy scenario gains less than 3× from quiescence
//!   fast-forwarding (skip-on vs skip-off pair), or the saturated 4×4
//!   trojan flood regresses beyond the standard 30% tolerance with
//!   skipping enabled — both resolved against the host's A/A noise
//!   floor, skipping cleanly when the machine cannot tell;
//! * the telemetry plane costs ≥ 2% of throughput on the 16×16
//!   trojan flood (best-of-3 paired runs, telemetry off vs on).
//!
//! Every measured run has telemetry armed, so each scenario also
//! reports its per-phase wall-time share and per-group shard
//! load-imbalance (side-band observations; the <2% ceiling above keeps
//! them honest). `--no-skip` disables the fast-forward engine in every
//! scenario for an A/B delta against the default report.
//!
//! Usage: `cargo run --release -p noc-bench --bin cycles_per_sec -- \
//!     [--quick] [--gate] [--no-skip] [--threads 1,2,4,8] [--out PATH]`

use noc_sim::json::Json;
use noc_sim::routing::xy_direction;
use noc_sim::telemetry::{GROUP_COUNT, GROUP_LABELS, PHASE_COUNT, PHASE_LABELS};
use noc_sim::{
    Cue, Landing, SimConfig, SimSnapshot, Simulator, Stop, TelemetryConfig, TrafficSource,
};
use noc_traffic::{AppModel, AppSpec, Pattern, SyntheticTraffic};
use noc_trojan::{TargetSpec, TaspConfig, TaspHt};
use noc_types::{Direction, Mesh, NodeId};
use std::fmt::Write as _;
use std::time::Instant;

/// One scenario's measured numbers.
struct Measurement {
    name: String,
    threads: usize,
    cycles: u64,
    wall_s: f64,
    cycles_per_sec: f64,
    flit_hops: u64,
    flit_hops_per_sec: f64,
    peak_rss_kb: u64,
    /// Throughput relative to the same scenario at 1 thread (scaling
    /// sweep entries only).
    speedup_vs_t1: Option<f64>,
    /// Wall time to serialize one full simulator snapshot (best of 3), µs.
    snapshot_ser_us: f64,
    /// Wall time to decode + restore that snapshot (best of 3), µs.
    snapshot_deser_us: f64,
    /// Encoded snapshot size on disk, bytes.
    snapshot_bytes: usize,
    /// Checkpointing tax as a percentage of simulation time when a
    /// snapshot is serialized every 10 000 cycles: ser-time divided by
    /// the time this run needs to simulate 10 000 cycles.
    ckpt_overhead_pct_at_10k: f64,
    /// Cycles the quiescence engine fast-forwarded instead of stepping.
    skipped_cycles: u64,
    /// `skipped_cycles` as a share of the cycle budget, percent.
    idle_cycle_pct: f64,
    /// True when this run's thread count exceeds the host's
    /// `available_parallelism` — its speedup number reflects
    /// oversubscription, not the engine, and is excluded from the
    /// `--gate` scaling floors.
    degraded_host: bool,
    /// Per-phase share of the profiled engine time, percent (telemetry
    /// side band).
    phase_share_pct: [f64; PHASE_COUNT],
    /// Average max/mean shard-time ratio per barrier group, permille
    /// (1000 = perfectly balanced). `None` at a single shard: max/mean
    /// over one shard is identically 1000, so reporting it would make
    /// the degenerate value indistinguishable from a genuinely balanced
    /// multi-shard run. Serialized as JSON `null`.
    group_imbalance_permille: Option<[u64; GROUP_COUNT]>,
}

/// Reset the kernel's RSS high-water mark so each scenario reports its
/// own peak instead of inheriting a larger earlier scenario's (or the
/// snapshot-latency probe's scratch buffers). Best-effort: on kernels
/// where `/proc/self/clear_refs` is read-only the readings stay
/// cumulative, which can only over-report — the gate stays sound.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size (VmHWM) of this process, in kB.
fn peak_rss_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Drive `sim` to cycle `budget`, draining events as we go so the event
/// queue cannot grow without bound. When the simulator's fast-forward
/// engine is enabled, provably idle stretches are skipped in one bounded
/// hop; the horizon probe is the cheapest reject in `skip_window`, so
/// busy scenarios pay roughly one branch per cycle.
fn drive(sim: &mut Simulator, traffic: &mut dyn TrafficSource, budget: u64) -> f64 {
    let t0 = Instant::now();
    let mut drain = |sim: &mut Simulator, _: &mut _, _: Landing| {
        sim.drain_events();
        Cue::Free
    };
    sim.drive(traffic, Stop::At(budget), &mut drain);
    t0.elapsed().as_secs_f64()
}

fn measure(
    name: String,
    threads: usize,
    mut sim: Simulator,
    mut traffic: Box<dyn TrafficSource>,
    budget: u64,
    skip: bool,
) -> Measurement {
    // Every scenario runs with the side-band telemetry plane armed so
    // the report carries the engine's own profile; the paired
    // overhead experiment (and its gate) bounds what this costs.
    sim.set_telemetry(TelemetryConfig::default());
    sim.set_fast_forward(skip);
    reset_peak_rss();
    let wall_s = drive(&mut sim, traffic.as_mut(), budget);
    let skipped_cycles = sim.skipped_cycles();
    let flit_hops: u64 = sim.metrics().link_flits().iter().sum();
    // Read RSS before the snapshot probe: its scratch buffers are
    // checkpointing cost, not simulation cost, and must not trip (or
    // inflate) the per-scenario memory ceilings.
    let peak_rss_kb = peak_rss_kb();
    let mut phase_share_pct = [0.0; PHASE_COUNT];
    let mut group_imbalance_permille = None;
    if let Some(tel) = sim.telemetry() {
        let totals = tel.phase_total_ns();
        let sum: u64 = totals.iter().sum();
        if sum > 0 {
            for (share, t) in phase_share_pct.iter_mut().zip(totals) {
                *share = *t as f64 / sum as f64 * 100.0;
            }
        }
        if threads > 1 {
            let mut imb = [0; GROUP_COUNT];
            for (i, load) in imb.iter_mut().zip(tel.group_loads()) {
                *i = load.imbalance_permille();
            }
            group_imbalance_permille = Some(imb);
        }
    }
    let (snapshot_ser_us, snapshot_deser_us, snapshot_bytes) = snapshot_cost(&mut sim);
    let cycles_per_sec = budget as f64 / wall_s;
    // A checkpoint every 10 000 cycles costs one serialize per
    // 10_000 / cycles_per_sec seconds of simulation.
    let ckpt_overhead_pct_at_10k = snapshot_ser_us * 1e-6 / (10_000.0 / cycles_per_sec) * 100.0;
    Measurement {
        name,
        threads,
        cycles: budget,
        wall_s,
        cycles_per_sec,
        flit_hops,
        flit_hops_per_sec: flit_hops as f64 / wall_s,
        peak_rss_kb,
        speedup_vs_t1: None,
        snapshot_ser_us,
        snapshot_deser_us,
        snapshot_bytes,
        ckpt_overhead_pct_at_10k,
        skipped_cycles,
        idle_cycle_pct: skipped_cycles as f64 / budget as f64 * 100.0,
        degraded_host: false,
        phase_share_pct,
        group_imbalance_permille,
    }
}

/// Snapshot latency and size at the end state of a measured run:
/// (serialize µs, decode+restore µs, encoded bytes), each the best of 3
/// so one scheduler hiccup cannot poison the number.
fn snapshot_cost(sim: &mut Simulator) -> (f64, f64, usize) {
    let mut ser_us = f64::INFINITY;
    let mut deser_us = f64::INFINITY;
    let mut bytes_len = 0;
    for _ in 0..3 {
        let t0 = Instant::now();
        let snap = sim.snapshot();
        let bytes = snap.to_bytes();
        ser_us = ser_us.min(t0.elapsed().as_secs_f64() * 1e6);
        bytes_len = bytes.len();
        drop(snap);
        let t0 = Instant::now();
        let back = SimSnapshot::from_bytes(&bytes).expect("self-encoded snapshot decodes");
        sim.restore(&back).expect("self-snapshot restores");
        deser_us = deser_us.min(t0.elapsed().as_secs_f64() * 1e6);
    }
    (ser_us, deser_us, bytes_len)
}

/// The paper's baseline: clean blackscholes traffic, mitigation on,
/// no trojans — exercises the steady-state hot loop and the idle tail.
fn baseline(budget: u64, skip: bool) -> Measurement {
    let mut cfg = SimConfig::paper();
    cfg.snapshot_interval = 1_000;
    let sim = Simulator::new(cfg);
    let mesh = sim.mesh().clone();
    let traffic = AppModel::new(AppSpec::blackscholes(), mesh, 7).until(budget * 2 / 3);
    measure("baseline".into(), 1, sim, Box::new(traffic), budget, skip)
}

/// The drain-heavy workload the fast-forward engine exists for: a short
/// blackscholes burst window (1% of the budget) followed by a long
/// quiescent tail. The active-set bitmaps already make naive idle
/// stepping ~20x cheaper than busy stepping, so the tail must dominate
/// in *wall time*, not just cycle count, for the skip delta to show —
/// hence the 1:99 busy:idle shape. With skipping enabled the simulator
/// hops the entire tail in one bounded call (replaying only the
/// `snapshot_interval` stats recordings it crosses); with it disabled
/// every empty cycle still walks the per-shard bitmap checks. The
/// on/off pair feeds the `--gate` skip-speedup floor.
fn drain(budget: u64, skip: bool) -> Measurement {
    let mut cfg = SimConfig::paper();
    cfg.snapshot_interval = 256;
    let sim = Simulator::new(cfg);
    let mesh = sim.mesh().clone();
    let traffic = AppModel::new(AppSpec::blackscholes(), mesh, 11).until(budget / 100);
    let name = if skip { "drain" } else { "drain_noskip" };
    measure(name.into(), 1, sim, Box::new(traffic), budget, skip)
}

/// The trojan-flood storm: an unmitigated hotspot flood through an
/// infected link — every hop retransmits, so the SECDED codec and the
/// retransmission machinery dominate.
fn trojan_flood(budget: u64, skip: bool) -> Measurement {
    let (sim, traffic) = trojan_flood_parts(budget);
    measure("trojan_flood".into(), 1, sim, traffic, budget, skip)
}

/// Build (but do not run) the 4×4 trojan flood — shared by the scenario
/// table and the skip-ratio pairing experiment.
fn trojan_flood_parts(budget: u64) -> (Simulator, Box<dyn TrafficSource>) {
    let mut cfg = SimConfig::paper_unprotected();
    cfg.snapshot_interval = 1_000;
    let mut sim = Simulator::new(cfg);
    let victim = NodeId(9);
    let hot = {
        let dir = xy_direction(sim.mesh(), NodeId(5), victim);
        sim.mesh()
            .link_out(NodeId(5), dir)
            .expect("adjacent routers share a link")
    };
    let ht = TaspHt::new(TaspConfig::new(TargetSpec::dest((victim.0 & 0xF) as u8)));
    sim.link_faults_mut(hot).trojan = Some(ht);
    sim.arm_trojans(true);
    let mesh = sim.mesh().clone();
    let traffic = SyntheticTraffic::new(mesh, Pattern::Hotspot(vec![victim]), 0.05, 0x0D15_EA5E)
        .until(budget * 3 / 5);
    (sim, Box::new(traffic))
}

/// Paired skip-on/skip-off runs of the saturated 4×4 flood, alternating
/// arm order, median of the per-pair on/off throughput ratios. A single
/// A/B run swings with host noise well past the 30% no-regression band
/// on a co-tenanted machine; pairing cancels the symmetric part exactly
/// as the telemetry-overhead experiment does.
fn flood_skip_ratio_pairs(budget: u64, pairs: usize) -> f64 {
    let mut ratios = Vec::new();
    for rep in 0..pairs {
        let order = if rep % 2 == 0 {
            [false, true]
        } else {
            [true, false]
        };
        let mut cps = [0.0f64; 2];
        for on in order {
            let (mut sim, mut traffic) = trojan_flood_parts(budget);
            sim.set_fast_forward(on);
            let wall = drive(&mut sim, traffic.as_mut(), budget);
            cps[on as usize] = budget as f64 / wall;
        }
        let ratio = cps[1] / cps[0];
        eprintln!(
            "  pair {rep}: off {:.0} vs on {:.0} -> ratio {ratio:.2}",
            cps[0], cps[1]
        );
        ratios.push(ratio);
    }
    median(ratios)
}

/// Research-scale baseline: uniform-random traffic on a `dim`×`dim`
/// mesh (concentration 1), sharded over `threads` workers.
fn scaling_baseline(dim: u8, threads: usize, budget: u64, skip: bool) -> Measurement {
    let mut cfg = SimConfig::paper();
    cfg.mesh = Mesh::new(dim, dim, 1);
    cfg.snapshot_interval = 1_000;
    cfg.threads = Some(threads);
    let sim = Simulator::new(cfg);
    let mesh = sim.mesh().clone();
    let traffic =
        SyntheticTraffic::new(mesh, Pattern::UniformRandom, 0.05, 0xBA5E).until(budget * 2 / 3);
    let name = format!("baseline_{dim}x{dim}_t{threads}");
    measure(name, threads, sim, Box::new(traffic), budget, skip)
}

/// Research-scale trojan flood: a TASP comparator on a central feeder
/// link under an unmitigated hotspot flood, `dim`×`dim`, sharded over
/// `threads` workers.
fn scaling_trojan_flood(dim: u8, threads: usize, budget: u64, skip: bool) -> Measurement {
    let (sim, traffic) = scaling_trojan_flood_parts(dim, threads, budget);
    let name = format!("trojan_flood_{dim}x{dim}_t{threads}");
    measure(name, threads, sim, traffic, budget, skip)
}

/// Build (but do not run) the research-scale trojan flood — shared by
/// the scaling sweep and the telemetry-overhead pair.
fn scaling_trojan_flood_parts(
    dim: u8,
    threads: usize,
    budget: u64,
) -> (Simulator, Box<dyn TrafficSource>) {
    let mut cfg = SimConfig::paper_unprotected();
    cfg.mesh = Mesh::new(dim, dim, 1);
    cfg.snapshot_interval = 1_000;
    cfg.threads = Some(threads);
    let mut sim = Simulator::new(cfg);
    // Victim at the mesh centre; infect its western feeder link so the
    // whole hotspot stream crosses the comparator.
    let d = dim as u16;
    let victim = NodeId((d / 2) * d + d / 2);
    let feeder = NodeId(victim.0 - 1);
    let hot = {
        let dir = xy_direction(sim.mesh(), feeder, victim);
        sim.mesh()
            .link_out(feeder, dir)
            .expect("adjacent routers share a link")
    };
    let ht = TaspHt::new(TaspConfig::new(TargetSpec::dest((victim.0 & 0xF) as u8)));
    sim.link_faults_mut(hot).trojan = Some(ht);
    sim.arm_trojans(true);
    let mesh = sim.mesh().clone();
    let traffic = SyntheticTraffic::new(mesh, Pattern::Hotspot(vec![victim]), 0.02, 0x0D15_EA5E)
        .until(budget * 3 / 5);
    (sim, Box::new(traffic))
}

/// Research-scale torus baseline: uniform-random traffic on a
/// `dim`×`dim` torus — every route comes from the precomputed topology
/// tables (dateline VC classes included) and both ring dimensions can
/// wrap, so the average hop count drops and the wrap links carry real
/// load.
fn torus_baseline(dim: u8, threads: usize, budget: u64, skip: bool) -> Measurement {
    let mut cfg = SimConfig::paper();
    cfg.mesh = Mesh::new_torus(dim, dim, 1);
    cfg.snapshot_interval = 1_000;
    cfg.threads = Some(threads);
    let sim = Simulator::new(cfg);
    let mesh = sim.mesh().clone();
    let traffic =
        SyntheticTraffic::new(mesh, Pattern::UniformRandom, 0.05, 0xBA5E).until(budget * 2 / 3);
    let name = format!("torus_baseline_{dim}x{dim}_t{threads}");
    measure(name, threads, sim, Box::new(traffic), budget, skip)
}

/// Research-scale torus flood: the TASP comparator rides an East wrap
/// link — dest-0 hotspot traffic from the far half of row 0 reaches the
/// victim over the `dim-1 → 0` wrap hop, a link plain meshes do not
/// have.
fn torus_trojan_flood(dim: u8, threads: usize, budget: u64, skip: bool) -> Measurement {
    let mut cfg = SimConfig::paper_unprotected();
    cfg.mesh = Mesh::new_torus(dim, dim, 1);
    cfg.snapshot_interval = 1_000;
    cfg.threads = Some(threads);
    let mut sim = Simulator::new(cfg);
    let victim = NodeId(0);
    let hot = sim
        .mesh()
        .link_out(NodeId(dim as u16 - 1), Direction::East)
        .expect("the torus has an East wrap hop on every row");
    let ht = TaspHt::new(TaspConfig::new(TargetSpec::dest((victim.0 & 0xF) as u8)));
    sim.link_faults_mut(hot).trojan = Some(ht);
    sim.arm_trojans(true);
    let mesh = sim.mesh().clone();
    let traffic = SyntheticTraffic::new(mesh, Pattern::Hotspot(vec![victim]), 0.02, 0x0D15_EA5E)
        .until(budget * 3 / 5);
    let name = format!("torus_trojan_flood_{dim}x{dim}_t{threads}");
    measure(name, threads, sim, Box::new(traffic), budget, skip)
}

/// Paired telemetry-overhead experiment on the 16×16 trojan flood:
/// back-to-back disarmed/armed runs, nine pairs with alternating arm
/// order (so warm-cache / frequency-ramp bias cannot systematically
/// favour either arm), gated on the **median** per-pair overhead.
/// Host noise is symmetric across a pair, so the median tracks the
/// true cost on a quiet machine and cancels toward zero on a loud one
/// — it cannot fake a regression that is not there. Returns (median
/// off cps, median on cps, median overhead percent).
fn telemetry_overhead(dim: u8, budget: u64, skip: bool) -> (f64, f64, f64) {
    let (offs, ons, pcts) = paired_runs(dim, budget, 9, true, skip);
    (median(offs), median(ons), median(pcts))
}

/// A/A calibration for the overhead gate: the same pairing protocol
/// with telemetry off in **both** arms, so any nonzero "overhead" is
/// pure host noise. Returns the median absolute per-pair delta percent
/// — the smallest real effect this machine can currently resolve.
fn telemetry_noise_floor(dim: u8, budget: u64, skip: bool) -> f64 {
    let (_, _, pcts) = paired_runs(dim, budget, 5, false, skip);
    median(pcts.into_iter().map(f64::abs).collect())
}

/// Run `pairs` back-to-back run pairs (arm order alternating, so
/// warm-cache / frequency-ramp bias cannot systematically favour
/// either arm) and return per-pair (first-arm cps, second-arm cps,
/// delta percent). With `arm_b_telemetry`, the second arm runs with
/// the telemetry plane armed; otherwise both arms are identical.
fn paired_runs(
    dim: u8,
    budget: u64,
    pairs: usize,
    arm_b_telemetry: bool,
    skip: bool,
) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    let (mut a, mut b, mut pcts) = (Vec::new(), Vec::new(), Vec::new());
    for rep in 0..pairs {
        let order = if rep % 2 == 0 {
            [false, true]
        } else {
            [true, false]
        };
        let mut cps = [0.0f64; 2];
        for second in order {
            let (mut sim, mut traffic) = scaling_trojan_flood_parts(dim, 1, budget);
            sim.set_fast_forward(skip);
            if second && arm_b_telemetry {
                sim.set_telemetry(TelemetryConfig::default());
            }
            let wall = drive(&mut sim, traffic.as_mut(), budget);
            cps[second as usize] = budget as f64 / wall;
        }
        let pct = (cps[0] - cps[1]) / cps[0] * 100.0;
        eprintln!(
            "  pair {rep}: {} {:.0} vs {} {:.0} -> {pct:.2}%",
            if arm_b_telemetry { "off" } else { "a" },
            cps[0],
            if arm_b_telemetry { "on" } else { "a" },
            cps[1]
        );
        a.push(cps[0]);
        b.push(cps[1]);
        pcts.push(pct);
    }
    (a, b, pcts)
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(|x, y| x.total_cmp(y));
    v[v.len() / 2]
}

fn json_scenario(out: &mut String, m: &Measurement, last: bool) {
    writeln!(out, "    \"{}\": {{", m.name).unwrap();
    writeln!(out, "      \"threads\": {},", m.threads).unwrap();
    writeln!(out, "      \"cycles\": {},", m.cycles).unwrap();
    writeln!(out, "      \"wall_s\": {:.6},", m.wall_s).unwrap();
    writeln!(out, "      \"cycles_per_sec\": {:.1},", m.cycles_per_sec).unwrap();
    writeln!(out, "      \"flit_hops\": {},", m.flit_hops).unwrap();
    writeln!(
        out,
        "      \"flit_hops_per_sec\": {:.1},",
        m.flit_hops_per_sec
    )
    .unwrap();
    if let Some(s) = m.speedup_vs_t1 {
        writeln!(out, "      \"speedup_vs_t1\": {s:.2},").unwrap();
    }
    writeln!(out, "      \"snapshot_ser_us\": {:.1},", m.snapshot_ser_us).unwrap();
    writeln!(
        out,
        "      \"snapshot_deser_us\": {:.1},",
        m.snapshot_deser_us
    )
    .unwrap();
    writeln!(out, "      \"snapshot_bytes\": {},", m.snapshot_bytes).unwrap();
    writeln!(
        out,
        "      \"ckpt_overhead_pct_at_10k\": {:.4},",
        m.ckpt_overhead_pct_at_10k
    )
    .unwrap();
    writeln!(out, "      \"skipped_cycles\": {},", m.skipped_cycles).unwrap();
    writeln!(out, "      \"idle_cycle_pct\": {:.2},", m.idle_cycle_pct).unwrap();
    if m.degraded_host {
        writeln!(out, "      \"degraded_host\": true,").unwrap();
    }
    let shares = PHASE_LABELS
        .iter()
        .zip(m.phase_share_pct)
        .map(|(l, s)| format!("\"{l}\": {s:.1}"))
        .collect::<Vec<_>>()
        .join(", ");
    writeln!(out, "      \"phase_share_pct\": {{{shares}}},").unwrap();
    match m.group_imbalance_permille {
        Some(per_group) => {
            let imb = GROUP_LABELS
                .iter()
                .zip(per_group)
                .map(|(l, v)| format!("\"{l}\": {v}"))
                .collect::<Vec<_>>()
                .join(", ");
            writeln!(out, "      \"group_imbalance_permille\": {{{imb}}},").unwrap();
        }
        // A single shard has nothing to be imbalanced against.
        None => writeln!(out, "      \"group_imbalance_permille\": null,").unwrap(),
    }
    writeln!(out, "      \"peak_rss_kb\": {}", m.peak_rss_kb).unwrap();
    writeln!(out, "    }}{}", if last { "" } else { "," }).unwrap();
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let gate = args.iter().any(|a| a == "--gate");
    let skip = !args.iter().any(|a| a == "--no-skip");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_throughput.json".to_string());
    let threads_axis: Vec<usize> = args
        .iter()
        .position(|a| a == "--threads")
        .and_then(|i| args.get(i + 1))
        .map(|s| {
            s.split(',')
                .map(|t| t.trim().parse().expect("--threads takes e.g. 1,2,4,8"))
                .collect()
        })
        .unwrap_or_else(|| vec![1, 2, 4, 8]);
    assert!(
        threads_axis.contains(&1),
        "--threads must include 1 (the sequential reference for speedups)"
    );
    let avail = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);

    let (base_budget, flood_budget) = if quick {
        (3_000, 1_500)
    } else {
        (20_000, 6_000)
    };
    // Per-dim cycle budgets for the scaling sweep; large meshes pay per
    // cycle, so the budget shrinks as the mesh grows.
    let scaling_budget = |dim: u8| -> u64 {
        match (dim, quick) {
            (16, true) => 800,
            (16, false) => 4_000,
            (32, true) => 300,
            (32, false) => 1_200,
            _ => unreachable!("scaling dims are 16 and 32"),
        }
    };

    eprintln!("cycles_per_sec: baseline ({base_budget} cycles)...");
    let base = baseline(base_budget, skip);
    eprintln!(
        "  {:>12.0} cycles/s  {:>12.0} flit-hops/s  {} kB peak RSS  {:.0}% idle-skipped",
        base.cycles_per_sec, base.flit_hops_per_sec, base.peak_rss_kb, base.idle_cycle_pct
    );
    eprintln!("cycles_per_sec: trojan_flood ({flood_budget} cycles)...");
    let flood = trojan_flood(flood_budget, skip);
    eprintln!(
        "  {:>12.0} cycles/s  {:>12.0} flit-hops/s  {} kB peak RSS  {:.0}% idle-skipped",
        flood.cycles_per_sec, flood.flit_hops_per_sec, flood.peak_rss_kb, flood.idle_cycle_pct
    );

    // The drain-heavy scenario runs as an explicit skip-on / skip-off
    // pair (regardless of --no-skip) so the report always carries the
    // fast-forward A/B delta, and the flood gets a skip-off arm for the
    // no-regression check. Skip-off arms run second so their RSS rides
    // on already-warm allocator state, same as every other scenario.
    // 20x the 4x4 budget: the busy window is budget/100, so the idle
    // tail outweighs the busy window in wall time even though an idle
    // cycle costs ~1/20th of a busy one.
    let drain_budget = base_budget * 20;
    eprintln!("cycles_per_sec: drain ({drain_budget} cycles, fast-forward on)...");
    let drain_on = drain(drain_budget, true);
    eprintln!(
        "  {:>12.0} cycles/s  {} kB peak RSS  {:.0}% idle-skipped",
        drain_on.cycles_per_sec, drain_on.peak_rss_kb, drain_on.idle_cycle_pct
    );
    eprintln!("cycles_per_sec: drain_noskip ({drain_budget} cycles, fast-forward off)...");
    let drain_off = drain(drain_budget, false);
    eprintln!(
        "  {:>12.0} cycles/s  {} kB peak RSS",
        drain_off.cycles_per_sec, drain_off.peak_rss_kb
    );
    let skip_speedup = drain_on.cycles_per_sec / drain_off.cycles_per_sec;
    eprintln!("  fast-forward speedup on drain: {skip_speedup:.2}x");
    eprintln!("cycles_per_sec: trojan_flood_noskip ({flood_budget} cycles)...");
    let mut flood_off = trojan_flood(flood_budget, false);
    flood_off.name = "trojan_flood_noskip".into();
    eprintln!("  {:>12.0} cycles/s", flood_off.cycles_per_sec);
    eprintln!("cycles_per_sec: flood skip-ratio pairs ({flood_budget} cycles x5)...");
    let flood_skip_ratio = flood_skip_ratio_pairs(flood_budget, 5);
    eprintln!(
        "  saturated flood on/off throughput ratio: {flood_skip_ratio:.2} (median of 5 pairs)"
    );

    // The wavefront-allocator headline scenario: a saturated 8×8 flood
    // with fast-forward disabled, so every wall-clock second is spent in
    // the allocation datapath (VA/SA/RC) rather than skip bookkeeping.
    // Sequential on purpose — the bitset datapath's gain must show
    // without sharding hiding it. 4x the 4x4 flood budget: this number
    // feeds a 1.8x gate floor, so the run must outlast timer and warmup
    // noise (at the 4x4 budget the whole run is under 50 ms).
    let flood8_budget = flood_budget * 4;
    eprintln!("cycles_per_sec: trojan_flood_8x8_noskip ({flood8_budget} cycles)...");
    let flood8 = {
        let (sim, traffic) = scaling_trojan_flood_parts(8, 1, flood8_budget);
        measure(
            "trojan_flood_8x8_noskip".into(),
            1,
            sim,
            traffic,
            flood8_budget,
            false,
        )
    };
    eprintln!("  {:>12.0} cycles/s", flood8.cycles_per_sec);

    // Mesh-scaling sweep: each scenario at every thread count on the
    // axis, sequential (t1) first as the speedup reference.
    let mut scaling: Vec<Measurement> = Vec::new();
    for dim in [16u8, 32] {
        let budget = scaling_budget(dim);
        for kind in ["baseline", "trojan_flood"] {
            let mut t1_cps = None;
            for &t in &threads_axis {
                eprintln!("cycles_per_sec: {kind}_{dim}x{dim}_t{t} ({budget} cycles)...");
                let mut m = match kind {
                    "baseline" => scaling_baseline(dim, t, budget, skip),
                    _ => scaling_trojan_flood(dim, t, budget, skip),
                };
                m.degraded_host = avail < t;
                if t == 1 {
                    t1_cps = Some(m.cycles_per_sec);
                } else if let Some(t1) = t1_cps {
                    m.speedup_vs_t1 = Some(m.cycles_per_sec / t1);
                }
                eprintln!(
                    "  {:>12.0} cycles/s  {:>12.0} flit-hops/s  {} kB peak RSS{}",
                    m.cycles_per_sec,
                    m.flit_hops_per_sec,
                    m.peak_rss_kb,
                    m.speedup_vs_t1
                        .map(|s| format!("  {s:.2}x vs t1"))
                        .unwrap_or_default()
                );
                scaling.push(m);
            }
        }
    }

    // Topology sweep: the same research-scale pair on a 16×16 torus at
    // threads {1, 8} ∩ axis. Reported in their own section and excluded
    // from every gate — wrap links reshape the traffic, so the mesh
    // floors do not transfer; torus floors come once the numbers settle.
    let torus_threads: Vec<usize> = threads_axis
        .iter()
        .copied()
        .filter(|t| *t == 1 || *t == 8)
        .collect();
    let mut torus: Vec<Measurement> = Vec::new();
    {
        let dim = 16u8;
        let budget = scaling_budget(dim);
        for kind in ["baseline", "trojan_flood"] {
            let mut t1_cps = None;
            for &t in &torus_threads {
                eprintln!("cycles_per_sec: torus_{kind}_{dim}x{dim}_t{t} ({budget} cycles)...");
                let mut m = match kind {
                    "baseline" => torus_baseline(dim, t, budget, skip),
                    _ => torus_trojan_flood(dim, t, budget, skip),
                };
                m.degraded_host = avail < t;
                if t == 1 {
                    t1_cps = Some(m.cycles_per_sec);
                } else if let Some(t1) = t1_cps {
                    m.speedup_vs_t1 = Some(m.cycles_per_sec / t1);
                }
                eprintln!(
                    "  {:>12.0} cycles/s  {:>12.0} flit-hops/s  {} kB peak RSS{}",
                    m.cycles_per_sec,
                    m.flit_hops_per_sec,
                    m.peak_rss_kb,
                    m.speedup_vs_t1
                        .map(|s| format!("  {s:.2}x vs t1"))
                        .unwrap_or_default()
                );
                torus.push(m);
            }
        }
    }

    // Telemetry-overhead pair on the headline research-scale scenario.
    // Longer than the scaling budget: each arm must outlast transient
    // host noise for the pairwise estimate to mean anything.
    let over_budget: u64 = if quick { 2_000 } else { 4_000 };
    eprintln!("cycles_per_sec: telemetry overhead pairs (16x16 flood, {over_budget} cycles x9)...");
    let (tel_off_cps, tel_on_cps, tel_overhead_pct) = telemetry_overhead(16, over_budget, skip);
    eprintln!(
        "  off {tel_off_cps:>10.0} cycles/s   on {tel_on_cps:>10.0} cycles/s   \
         overhead {tel_overhead_pct:.2}% (median of 9 pairs)"
    );
    eprintln!("cycles_per_sec: overhead noise floor (off-vs-off A/A pairs)...");
    let tel_noise_pct = telemetry_noise_floor(16, over_budget, skip);
    eprintln!("  this host resolves ~{tel_noise_pct:.2}% effects");

    let baseline_doc = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/baseline_throughput.json"
    ))
    .ok()
    .map(|text| Json::parse(&text).expect("baseline_throughput.json is JSON"));
    let baseline_number = |doc: &Json, key: &str| doc.get(key).and_then(Json::as_f64);
    let before = baseline_doc.as_ref().map(|doc| {
        (
            baseline_number(doc, "before_baseline_cps"),
            baseline_number(doc, "before_trojan_flood_cps"),
        )
    });

    let mut out = String::new();
    writeln!(out, "{{").unwrap();
    writeln!(
        out,
        "  \"mode\": \"{}\",",
        if quick { "quick" } else { "full" }
    )
    .unwrap();
    let axis = threads_axis
        .iter()
        .map(|t| t.to_string())
        .collect::<Vec<_>>()
        .join(", ");
    writeln!(out, "  \"threads_axis\": [{axis}],").unwrap();
    writeln!(out, "  \"available_parallelism\": {avail},").unwrap();
    writeln!(out, "  \"fast_forward\": {skip},").unwrap();
    writeln!(out, "  \"scenarios\": {{").unwrap();
    json_scenario(&mut out, &base, false);
    json_scenario(&mut out, &flood, false);
    json_scenario(&mut out, &flood_off, false);
    json_scenario(&mut out, &flood8, false);
    json_scenario(&mut out, &drain_on, false);
    let n = scaling.len();
    json_scenario(&mut out, &drain_off, n == 0);
    for (i, m) in scaling.iter().enumerate() {
        json_scenario(&mut out, m, i + 1 == n);
    }
    writeln!(out, "  }},").unwrap();
    // The torus sweep lives in its own section so its entries can be
    // added (or re-measured) without touching the committed mesh lines,
    // and so no gate accidentally picks them up.
    writeln!(out, "  \"torus_scenarios\": {{").unwrap();
    let n = torus.len();
    for (i, m) in torus.iter().enumerate() {
        json_scenario(&mut out, m, i + 1 == n);
    }
    writeln!(out, "  }},").unwrap();
    writeln!(out, "  \"fast_forward_delta\": {{").unwrap();
    writeln!(
        out,
        "    \"drain_skip_cps\": {:.1},",
        drain_on.cycles_per_sec
    )
    .unwrap();
    writeln!(
        out,
        "    \"drain_noskip_cps\": {:.1},",
        drain_off.cycles_per_sec
    )
    .unwrap();
    writeln!(
        out,
        "    \"drain_idle_cycle_pct\": {:.2},",
        drain_on.idle_cycle_pct
    )
    .unwrap();
    writeln!(out, "    \"drain_skip_speedup\": {skip_speedup:.2},").unwrap();
    writeln!(
        out,
        "    \"trojan_flood_skip_ratio\": {flood_skip_ratio:.2}"
    )
    .unwrap();
    writeln!(out, "  }},").unwrap();
    if let Some((Some(b), Some(f))) = before {
        writeln!(out, "  \"before\": {{").unwrap();
        writeln!(out, "    \"baseline_cps\": {b:.1},").unwrap();
        writeln!(out, "    \"trojan_flood_cps\": {f:.1}").unwrap();
        writeln!(out, "  }},").unwrap();
        writeln!(out, "  \"speedup\": {{").unwrap();
        writeln!(out, "    \"baseline\": {:.2},", base.cycles_per_sec / b).unwrap();
        writeln!(out, "    \"trojan_flood\": {:.2}", flood.cycles_per_sec / f).unwrap();
        writeln!(out, "  }},").unwrap();
    }
    writeln!(out, "  \"telemetry_overhead\": {{").unwrap();
    writeln!(out, "    \"scenario\": \"trojan_flood_16x16_t1\",").unwrap();
    writeln!(out, "    \"off_cps\": {tel_off_cps:.1},").unwrap();
    writeln!(out, "    \"on_cps\": {tel_on_cps:.1},").unwrap();
    writeln!(out, "    \"overhead_pct\": {tel_overhead_pct:.3},").unwrap();
    writeln!(out, "    \"aa_noise_floor_pct\": {tel_noise_pct:.3}").unwrap();
    writeln!(out, "  }},").unwrap();
    writeln!(out, "  \"peak_rss_kb\": {}", peak_rss_kb()).unwrap();
    writeln!(out, "}}").unwrap();
    std::fs::write(&out_path, &out).expect("write throughput report");
    eprintln!("cycles_per_sec: wrote {out_path}");

    if gate {
        let doc = baseline_doc.expect("--gate needs crates/bench/baseline_throughput.json");
        let mut failed = false;

        // Throughput floors: committed baseline minus 30% tolerance.
        for (m, key) in [
            (&base, "gate_baseline_cps"),
            (&flood, "gate_trojan_flood_cps"),
        ] {
            let floor = baseline_number(&doc, key).expect("gate value in baseline JSON");
            let min = floor * 0.7;
            if m.cycles_per_sec < min {
                eprintln!(
                    "GATE FAIL: {} at {:.0} cycles/s is more than 30% below the \
                     committed baseline of {:.0}",
                    m.name, m.cycles_per_sec, floor
                );
                failed = true;
            } else {
                eprintln!(
                    "gate ok: {} at {:.0} cycles/s (floor {:.0})",
                    m.name, m.cycles_per_sec, min
                );
            }
        }

        // Peak-RSS ceilings: each scenario must stay within 1.5x its
        // committed high-water mark so the sharded engine's duplicated
        // scratch buffers can't silently balloon memory. The high-water
        // mark is reset per scenario, but the allocator retains earlier
        // heap, so the committed values still assume the fixed scenario
        // order above.
        let mut all: Vec<&Measurement> =
            vec![&base, &flood, &flood_off, &flood8, &drain_on, &drain_off];
        all.extend(scaling.iter());
        for m in &all {
            let key = format!("gate_rss_{}_kb", m.name);
            let Some(ceiling) = baseline_number(&doc, &key) else {
                eprintln!("gate note: no RSS ceiling committed for {}", m.name);
                continue;
            };
            let max = ceiling * 1.5;
            if m.peak_rss_kb as f64 > max {
                eprintln!(
                    "GATE FAIL: {} peaked at {} kB RSS, above the committed \
                     ceiling {:.0} kB (+50% headroom = {:.0} kB)",
                    m.name, m.peak_rss_kb, ceiling, max
                );
                failed = true;
            } else {
                eprintln!(
                    "gate ok: {} peak RSS {} kB (ceiling {:.0} kB)",
                    m.name, m.peak_rss_kb, max
                );
            }
        }

        // Checkpointing ceiling: periodic crash-safe snapshots every
        // 10 000 cycles must stay a rounding error on the 4x4
        // scenarios, or checkpointed campaigns stop being free. The
        // metric is relative to simulation time, so every simulator
        // speedup shrinks its denominator and inflates the percentage
        // without any snapshot regression; the flood's ceiling was
        // re-recorded at 2% after the wavefront datapath made the
        // saturated cycle loop ~2.3x faster (its serializer still runs
        // in the same ~850 µs it always did, over a 4x larger encoded
        // state than the baseline's).
        for (m, ceiling) in [(&base, 1.0), (&flood, 2.0)] {
            let pct = m.ckpt_overhead_pct_at_10k;
            if pct >= ceiling {
                eprintln!(
                    "GATE FAIL: {} checkpoint overhead {pct:.3}% of sim time at \
                     --checkpoint-every 10000 (ceiling {ceiling}%; snapshot ser {:.0} µs)",
                    m.name, m.snapshot_ser_us
                );
                failed = true;
            } else {
                eprintln!(
                    "gate ok: {} checkpoint overhead {pct:.3}% at every-10k \
                     (ceiling {ceiling}%, ser {:.0} µs, {} bytes)",
                    m.name, m.snapshot_ser_us, m.snapshot_bytes
                );
            }
        }

        // Wavefront-datapath floor: the sequential 8×8 flood with
        // fast-forward disabled must hold the bitset allocator's gain —
        // at least 1.8× the committed pre-wavefront throughput for this
        // container class. A 1.8× floor is an 80%-scale effect, but the
        // margin that actually needs resolving is the headroom between
        // the recorded post-wavefront gain (~2.3×) and the floor, so
        // the check abstains when the host's A/A noise floor exceeds
        // that ~25% headroom.
        if let Some(before8) = baseline_number(&doc, "before_trojan_flood_8x8_noskip_cps") {
            let floor = before8 * 1.8;
            if tel_noise_pct > 25.0 {
                eprintln!(
                    "gate skip: trojan_flood_8x8_noskip at {:.0} cycles/s (floor \
                     {floor:.0}) but the host's A/A noise floor is {tel_noise_pct:.2}% \
                     (cannot resolve the wavefront headroom)",
                    flood8.cycles_per_sec
                );
            } else if flood8.cycles_per_sec < floor {
                eprintln!(
                    "GATE FAIL: trojan_flood_8x8_noskip at {:.0} cycles/s is below \
                     1.8x the pre-wavefront baseline of {before8:.0} (floor {floor:.0})",
                    flood8.cycles_per_sec
                );
                failed = true;
            } else {
                eprintln!(
                    "gate ok: trojan_flood_8x8_noskip at {:.0} cycles/s ({:.2}x the \
                     pre-wavefront {before8:.0}, floor 1.8x)",
                    flood8.cycles_per_sec,
                    flood8.cycles_per_sec / before8
                );
            }
        } else {
            eprintln!(
                "gate note: no before_trojan_flood_8x8_noskip_cps committed; \
                 wavefront floor unchecked"
            );
        }

        // Scaling floors, machine-aware: parallel throughput claims are
        // only meaningful when the hardware can actually run that many
        // workers, so each check is skipped when available_parallelism
        // is below the run's thread count.
        for m in &scaling {
            let Some(speedup) = m.speedup_vs_t1 else {
                continue;
            };
            if m.degraded_host {
                eprintln!(
                    "gate skip: {} needs {} hardware threads, machine has {avail} \
                     (annotated degraded_host in the report, excluded from floors)",
                    m.name, m.threads
                );
                continue;
            }
            // Headline target: 16x16 trojan flood at 8 threads must hit
            // 3x sequential; everything else must at least not regress
            // below sequential minus the standard 30% tolerance.
            let floor = if m.name == "trojan_flood_16x16_t8" {
                3.0 * 0.7
            } else {
                0.7
            };
            if speedup < floor {
                eprintln!(
                    "GATE FAIL: {} speedup {speedup:.2}x vs sequential is below \
                     the floor {floor:.2}x",
                    m.name
                );
                failed = true;
            } else {
                eprintln!(
                    "gate ok: {} speedup {speedup:.2}x (floor {floor:.2}x)",
                    m.name
                );
            }
        }

        // Shard-balance ceiling: no barrier group may run its slowest
        // shard at more than 5x the mean — beyond that the partition is
        // effectively sequential and the speedup floors above only pass
        // by luck. Skipped at a single shard (the metric is reported as
        // null there: max/mean over one shard is identically 1000) and
        // on degraded hosts (oversubscription skews per-shard time).
        for m in &scaling {
            match m.group_imbalance_permille {
                None => {
                    eprintln!(
                        "gate skip: {} shard balance (single shard; metric is null)",
                        m.name
                    );
                }
                Some(_) if m.degraded_host => {
                    eprintln!(
                        "gate skip: {} shard balance (degraded host: {} threads on \
                         {avail} hardware threads)",
                        m.name, m.threads
                    );
                }
                Some(per_group) => {
                    let worst = per_group.iter().copied().max().unwrap_or(1000);
                    if worst > 5000 {
                        eprintln!(
                            "GATE FAIL: {} worst group imbalance {worst} permille \
                             (ceiling 5000; one shard is dragging the barrier)",
                            m.name
                        );
                        failed = true;
                    } else {
                        eprintln!(
                            "gate ok: {} worst group imbalance {worst} permille \
                             (ceiling 5000)",
                            m.name
                        );
                    }
                }
            }
        }

        // Fast-forward floors. The drain-heavy scenario must gain at
        // least 3x from quiescence skipping — that is the whole point
        // of the engine — and the saturated 4x4 flood (no idle windows
        // to skip, so the horizon probe is pure overhead) must not
        // regress beyond the standard 30% tolerance. Machine-aware
        // like the telemetry ceiling: a 3x floor is a 200% effect, so
        // the check only abstains when the host's A/A noise floor
        // swamps even that; the 30% no-regression band abstains when
        // noise exceeds the band itself.
        if tel_noise_pct > 50.0 {
            eprintln!(
                "gate skip: drain fast-forward speedup measured {skip_speedup:.2}x but \
                 the host's A/A noise floor is {tel_noise_pct:.2}% (cannot resolve \
                 the 3x floor)"
            );
        } else if skip_speedup < 3.0 {
            eprintln!(
                "GATE FAIL: fast-forward speeds up the drain scenario only \
                 {skip_speedup:.2}x (floor 3x; skip {:.0} vs no-skip {:.0} cycles/s, \
                 {:.0}% of cycles skipped)",
                drain_on.cycles_per_sec, drain_off.cycles_per_sec, drain_on.idle_cycle_pct
            );
            failed = true;
        } else {
            eprintln!(
                "gate ok: fast-forward drain speedup {skip_speedup:.2}x (floor 3x, \
                 {:.0}% of cycles skipped)",
                drain_on.idle_cycle_pct
            );
        }
        if tel_noise_pct > 30.0 {
            eprintln!(
                "gate skip: flood skip ratio measured {flood_skip_ratio:.2} but the \
                 host's A/A noise floor is {tel_noise_pct:.2}% (cannot resolve the \
                 10% no-regression band)"
            );
        } else if flood_skip_ratio < 0.9 {
            // Re-recorded floor: since the skip gate's busy-network
            // early-out landed (the active sets are probed before the
            // injection-horizon walk), the paired-median ratio sits at
            // ~1.0, so a saturated flood losing more than 10% to the
            // horizon probe is a regression, not noise.
            eprintln!(
                "GATE FAIL: fast-forward regresses the saturated trojan flood to \
                 {flood_skip_ratio:.2}x of its skip-off throughput (floor 0.9; the \
                 horizon probe must reject via the active sets before walking \
                 the injection schedule)"
            );
            failed = true;
        } else {
            eprintln!(
                "gate ok: saturated flood at {flood_skip_ratio:.2}x of its skip-off \
                 throughput with fast-forward enabled (floor 0.9)"
            );
        }

        // Telemetry ceiling: the observability plane must stay a side
        // band — under 2% of throughput on the research-scale flood.
        // Machine-aware, like the speedup floors: when the off-vs-off
        // A/A calibration shows the host cannot resolve a 1% effect
        // (co-tenant noise), a pass or fail here would be a coin flip,
        // so the check reports a skip instead of a verdict.
        if tel_noise_pct > 1.0 {
            eprintln!(
                "gate skip: telemetry overhead measured {tel_overhead_pct:.2}% but the \
                 host's A/A noise floor is {tel_noise_pct:.2}% (needs < 1% to resolve \
                 the 2% ceiling)"
            );
        } else if tel_overhead_pct >= 2.0 {
            eprintln!(
                "GATE FAIL: telemetry costs {tel_overhead_pct:.2}% of 16x16 flood \
                 throughput (ceiling 2%; off {tel_off_cps:.0}, on {tel_on_cps:.0} \
                 cycles/s; A/A noise floor {tel_noise_pct:.2}%)"
            );
            failed = true;
        } else {
            eprintln!(
                "gate ok: telemetry overhead {tel_overhead_pct:.2}% on the 16x16 \
                 flood (ceiling 2%, A/A noise floor {tel_noise_pct:.2}%)"
            );
        }

        if failed {
            std::process::exit(1);
        }
    }
}
