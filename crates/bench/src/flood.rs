//! §III-A side claim — "In a flood-based DoS attack, x-y routing performs
//! better than multiple adaptive algorithms when the injection rate is
//! less than 0.65": background traffic latency under XY vs odd-even
//! adaptive routing, with and without a software flood attack.
//!
//! Intuition: adaptive routing spreads a hotspot's congestion over
//! neighbouring columns, dragging bystander flows into the saturation
//! tree; XY confines the flood's back-pressure to the victim's row/column.

use crate::table::{f, write_table};
use htnoc_core::prelude::*;
use noc_sim::routing::Routing;
use noc_traffic::flood::WithFlood;
use noc_traffic::FloodAttack;
use noc_types::CoreId;

/// One measured cell.
#[derive(Debug, Clone, Copy)]
pub struct FloodCell {
    /// Whether odd-even adaptive routing was used.
    pub adaptive: bool,
    /// Whether the flood was active.
    pub flooded: bool,
    /// Background injection rate (packets/core/cycle).
    pub rate: f64,
    /// Mean latency of *delivered background* packets (flood packets are
    /// excluded by id range).
    pub bg_latency: f64,
    /// Background packets delivered.
    pub bg_delivered: u64,
    /// Background packets offered.
    pub bg_injected: u64,
}

/// Run one cell: uniform background at `rate`, optionally flooded by four
/// rogue cores aiming at one victim router.
pub fn run_cell(adaptive: bool, flooded: bool, rate: f64, cycles: u64, seed: u64) -> FloodCell {
    let mesh = Mesh::paper();
    let mut sim = Simulator::new(SimConfig::paper());
    if adaptive {
        sim.set_routing(Routing::OddEven);
    }
    let background =
        SyntheticTraffic::new(mesh.clone(), Pattern::UniformRandom, rate, seed).until(cycles);
    let flood_rate: f64 = if flooded { 1.0 } else { 0.0 };
    let flood = FloodAttack::new(
        mesh,
        vec![
            CoreId(12),
            CoreId(13),
            CoreId(14),
            CoreId(15), // router 3
            CoreId(48),
            CoreId(49),
            CoreId(50),
            CoreId(51), // router 12
        ],
        vec![NodeId(6), NodeId(9)],
        seed + 1,
    )
    .with_rate(flood_rate.max(1e-9))
    .window(
        if flooded { 0 } else { u64::MAX - 1 },
        if flooded { cycles } else { u64::MAX },
    );
    let mut src = WithFlood { background, flood };
    sim.run(cycles + 600, &mut src);
    // Background packets have ids < 2^48 (the flood offsets its own).
    let mut lat_sum = 0u64;
    let mut delivered = 0u64;
    for e in sim.drain_events() {
        if let SimEvent::PacketDelivered {
            packet,
            injected_at,
            delivered_at,
            ..
        } = e
        {
            if packet.0 < (1 << 48) {
                delivered += 1;
                lat_sum += delivered_at - injected_at;
            }
        }
    }
    let injected = src.background.packets_issued();
    FloodCell {
        adaptive,
        flooded,
        rate,
        bg_latency: lat_sum as f64 / delivered.max(1) as f64,
        bg_delivered: delivered,
        bg_injected: injected,
    }
}

/// The full comparison grid.
pub fn compute(rates: &[f64], cycles: u64, seed: u64) -> Vec<FloodCell> {
    let mut jobs = Vec::new();
    for &rate in rates {
        for adaptive in [false, true] {
            for flooded in [false, true] {
                jobs.push((adaptive, flooded, rate));
            }
        }
    }
    htnoc_core::sweep::par_map(jobs, None, |(adaptive, flooded, rate)| {
        run_cell(adaptive, flooded, rate, cycles, seed)
    })
}

/// Write the comparison: background latency with and without the flood
/// at three sub-saturation rates, under XY and odd-even routing.
pub fn exp_flood_routing(out: &mut String) {
    outln!(
        out,
        "=== Extension — XY vs odd-even adaptive routing under flood DoS ===\n"
    );
    let rates = [0.01, 0.02, 0.03];
    let cells = compute(&rates, 1200, 7);
    let mut rows = Vec::new();
    for &rate in &rates {
        for (adaptive, name) in [(false, "XY"), (true, "odd-even")] {
            let clean = cells
                .iter()
                .find(|c| c.adaptive == adaptive && !c.flooded && c.rate == rate)
                .expect("the grid holds every clean cell");
            let flooded = cells
                .iter()
                .find(|c| c.adaptive == adaptive && c.flooded && c.rate == rate)
                .expect("the grid holds every flooded cell");
            rows.push(vec![
                format!("{rate}"),
                name.to_string(),
                f(clean.bg_latency, 1),
                f(flooded.bg_latency, 1),
                f(flooded.bg_latency / clean.bg_latency, 2),
                format!("{}/{}", flooded.bg_delivered, flooded.bg_injected),
            ]);
        }
    }
    write_table(
        out,
        &[
            "bg rate",
            "routing",
            "clean lat",
            "flooded lat",
            "slowdown",
            "bg delivered",
        ],
        &rows,
    );
    outln!(
        out,
        "\nThe paper's §III-A observation: below saturation, XY confines the\n\
         flood's saturation tree to the victim's row/column while minimal\n\
         adaptive routing spreads it — so XY's background slowdown is smaller."
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adaptive_routing_delivers_uniform_traffic() {
        // Deadlock-freedom smoke test for odd-even under the full simulator.
        let cell = run_cell(true, false, 0.02, 600, 3);
        assert!(cell.bg_delivered > 0);
        assert!(
            cell.bg_delivered as f64 / cell.bg_injected as f64 > 0.95,
            "{}/{}",
            cell.bg_delivered,
            cell.bg_injected
        );
    }

    #[test]
    fn flood_hurts_and_xy_contains_it_better() {
        let xy = run_cell(false, true, 0.02, 800, 3);
        let xy_clean = run_cell(false, false, 0.02, 800, 3);
        let oe = run_cell(true, true, 0.02, 800, 3);
        // The flood visibly degrades background latency.
        assert!(
            xy.bg_latency > xy_clean.bg_latency * 1.2,
            "flood must bite: {} vs {}",
            xy.bg_latency,
            xy_clean.bg_latency
        );
        // The paper's claim at sub-saturation rates: XY suffers less than
        // the adaptive network (which spreads the saturation tree).
        assert!(
            xy.bg_latency <= oe.bg_latency * 1.25,
            "XY should not lose badly under flood: xy {} vs oe {}",
            xy.bg_latency,
            oe.bg_latency
        );
    }
}
