//! Microbenchmarks of the hot paths every experiment leans on: SECDED
//! encode/decode, TASP snooping, L-Ob transforms, the checkpoint CRC,
//! up*/down* route-table construction, and a raw simulator cycle.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use htnoc_core::prelude::*;
use noc_ecc::{flip_bit, flip_bits, Secded};
use noc_mitigation::LobPlan;
use noc_sim::routing::{xy_direction, RouteTables};
use noc_sim::snapshot::{crc64, crc64_portable};
use noc_sim::telemetry::PHASE_LABELS;
use noc_sim::{TelemetryConfig, TrafficSource};
use noc_traffic::{Pattern, SyntheticTraffic};
use noc_types::Direction;

fn bench_secded(c: &mut Criterion) {
    let mut g = c.benchmark_group("secded");
    let data = 0x0123_4567_89AB_CDEFu64;
    let cw = Secded::encode(data);
    g.bench_function("encode", |b| b.iter(|| Secded::encode(black_box(data))));
    g.bench_function("decode_clean", |b| b.iter(|| Secded::decode(black_box(cw))));
    let one = flip_bit(cw, 17);
    g.bench_function("decode_corrected", |b| {
        b.iter(|| Secded::decode(black_box(one)))
    });
    let two = flip_bits(cw, (1 << 3) | (1 << 40));
    g.bench_function("decode_uncorrectable", |b| {
        b.iter(|| Secded::decode(black_box(two)))
    });
    // Streaming shape of the table-driven kernel: 64 distinct words per
    // iteration, the per-flit pattern the link layer actually drives
    // (encode at launch, decode at delivery).
    let words: Vec<u64> = (0..64u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .collect();
    g.bench_function("encode_decode_stream64", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for &w in &words {
                let cw = Secded::encode(black_box(w));
                if let noc_ecc::Decode::Clean { data } = Secded::decode(cw) {
                    acc ^= data;
                }
            }
            acc
        })
    });
    g.finish();
}

fn bench_tasp(c: &mut Criterion) {
    let mut g = c.benchmark_group("tasp");
    let mut ht = TaspHt::new(TaspConfig::new(TargetSpec::dest(9)));
    ht.set_kill_switch(true);
    let hit = Header {
        src: NodeId(0),
        dest: NodeId(9),
        vc: VcId(0),
        mem_addr: 0,
        thread: 0,
        len: 1,
    }
    .pack();
    let miss = Header {
        src: NodeId(0),
        dest: NodeId(5),
        vc: VcId(0),
        mem_addr: 0,
        thread: 0,
        len: 1,
    }
    .pack();
    let mut cycle = 0u64;
    g.bench_function("snoop_miss", |b| {
        b.iter(|| {
            cycle += 1;
            ht.snoop(cycle, black_box(miss), true)
        })
    });
    g.bench_function("snoop_hit", |b| {
        b.iter(|| {
            cycle += 1;
            ht.snoop(cycle, black_box(hit), true)
        })
    });
    g.finish();
}

fn bench_lob(c: &mut Criterion) {
    let mut g = c.benchmark_group("lob");
    let word = 0xFEED_FACE_CAFE_F00Du64;
    for (i, plan) in LobPlan::LADDER.iter().enumerate() {
        g.bench_function(&format!("apply_undo_rung{i}"), |b| {
            b.iter(|| {
                let obf = plan.apply(black_box(word), 0x1234);
                plan.undo(obf, 0x1234)
            })
        });
    }
    g.finish();
}

/// The CRC-64 that seals every checkpoint, over a buffer the size of the
/// `bursty_ckpt` checkpoint body (450,609 bytes): the dispatcher (the
/// carry-less-multiply kernel on CPUs with `pclmulqdq`) and the portable
/// slice-by-8 reference.
fn bench_snapshot(c: &mut Criterion) {
    let mut g = c.benchmark_group("snapshot");
    let body: Vec<u8> = (0..450_609u64)
        .map(|i| (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 56) as u8)
        .collect();
    g.bench_function("crc64_450k", |b| b.iter(|| crc64(black_box(&body))));
    g.bench_function("crc64_450k_portable", |b| {
        b.iter(|| crc64_portable(black_box(&body)))
    });
    g.finish();
}

/// Up*/down* table construction, the fault-tolerant routing layer: a
/// degraded 4×4 mesh (what `Simulator::new` and the conformance oracle
/// build for a degraded scenario) and an 8×8 mesh with three dead
/// single-direction links (a mid-run quarantine reroute).
fn bench_routing(c: &mut Criterion) {
    let mut g = c.benchmark_group("routing");
    let degraded = Mesh::new_degraded(
        4,
        4,
        1,
        &[(NodeId(5), Direction::East), (NodeId(9), Direction::North)],
    );
    g.bench_function("build_updown_4x4_degraded", |b| {
        b.iter(|| RouteTables::build_updown(black_box(&degraded), &[]))
    });
    let mesh = Mesh::new(8, 8, 1);
    let dead: Vec<LinkId> = [
        (NodeId(27), Direction::East),
        (NodeId(36), Direction::North),
        (NodeId(10), Direction::West),
    ]
    .iter()
    .map(|&(node, dir)| mesh.link_out(node, dir).expect("interior link"))
    .collect();
    assert!(RouteTables::build_updown(&mesh, &dead).is_some());
    g.bench_function("build_updown_8x8_dead3", |b| {
        b.iter(|| RouteTables::build_updown(black_box(&mesh), black_box(&dead)))
    });
    g.finish();
}

fn bench_sim_cycle(c: &mut Criterion) {
    let mut g = c.benchmark_group("sim");
    g.sample_size(10);
    g.bench_function("step_loaded_64core", |b| {
        let mut sim = Simulator::new(SimConfig::paper());
        let mut traffic = AppModel::new(AppSpec::blackscholes(), Mesh::paper(), 7);
        sim.run(500, &mut traffic); // warm the network
        b.iter(|| sim.step(&mut traffic));
    });
    // The active-set fast path: a fully drained network where every
    // router is quiescent. Measures the per-cycle floor (activity
    // refresh + link scans), which the loaded case pays on top of.
    g.bench_function("step_idle_64core", |b| {
        let mut cfg = SimConfig::paper();
        // The paper config snapshots every cycle; park that so the
        // measurement isolates the cycle loop itself.
        cfg.snapshot_interval = u64::MAX;
        let mut sim = Simulator::new(cfg);
        let mut idle = noc_sim::sim::NoTraffic;
        sim.run_to_quiescence(100, &mut idle);
        b.iter(|| sim.step(&mut idle));
    });
    g.finish();
}

/// A saturated 8×8 trojan flood with an unbounded hotspot stream — the
/// allocation-bound regime the bitset wavefront datapath targets. The
/// traffic never drains, so the phase benches below sample a steady
/// state rather than a ramp.
fn flood_parts() -> (Simulator, Box<dyn TrafficSource>) {
    let mut cfg = SimConfig::paper_unprotected();
    cfg.mesh = Mesh::new(8, 8, 1);
    cfg.snapshot_interval = u64::MAX;
    let mut sim = Simulator::new(cfg);
    let victim = NodeId(4 * 8 + 4);
    let feeder = NodeId(victim.0 - 1);
    let hot = {
        let dir = xy_direction(sim.mesh(), feeder, victim);
        sim.mesh().link_out(feeder, dir).expect("adjacent")
    };
    let ht = TaspHt::new(TaspConfig::new(TargetSpec::dest((victim.0 & 0xF) as u8)));
    sim.link_faults_mut(hot).trojan = Some(ht);
    sim.arm_trojans(true);
    let mesh = sim.mesh().clone();
    let traffic = SyntheticTraffic::new(mesh, Pattern::Hotspot(vec![victim]), 0.02, 0x0D15_EA5E);
    (sim, Box::new(traffic))
}

/// Per-phase cost of the engine's hot allocation phases under the
/// saturated flood. Each bench replays whole simulator steps but
/// charges only its own phase's telemetry-clocked nanoseconds, so the
/// numbers decompose the `sim/step_loaded` wall time phase by phase
/// (VA+RC wavefront, switch allocation, batched ack/credit settlement).
fn bench_phases(c: &mut Criterion) {
    use std::time::Duration;
    let mut g = c.benchmark_group("phase");
    g.sample_size(10);
    for name in ["va_rc", "switch_alloc", "acks_credits"] {
        let idx = PHASE_LABELS
            .iter()
            .position(|l| *l == name)
            .expect("phase label");
        g.bench_function(name, |b| {
            let (mut sim, mut traffic) = flood_parts();
            sim.set_telemetry(TelemetryConfig::default());
            sim.run(500, traffic.as_mut()); // reach saturation first
            b.iter_custom(|iters| {
                let before = sim.telemetry().expect("telemetry armed").phase_total_ns()[idx];
                for _ in 0..iters {
                    sim.step(traffic.as_mut());
                    sim.drain_events();
                }
                let after = sim.telemetry().expect("telemetry armed").phase_total_ns()[idx];
                Duration::from_nanos(after - before)
            });
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_secded,
    bench_tasp,
    bench_lob,
    bench_snapshot,
    bench_routing,
    bench_sim_cycle,
    bench_phases
);
criterion_main!(benches);
