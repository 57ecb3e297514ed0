//! Fig. 12 — (a) a TDM NoC (two domains) under a single TASP: the DoS is
//! contained to the attacked domain; (b) the proposed threat detector +
//! s2s L-Ob: minimal degradation for everyone.

use crate::table::{f, pct, write_table};
use htnoc_core::prelude::*;
use std::collections::HashSet;

/// Per-domain outcome of one TDM run.
#[derive(Debug, Clone, Copy)]
pub struct DomainOutcome {
    /// Packets the domain offered.
    pub injected: u64,
    /// Packets the domain received.
    pub delivered: u64,
    /// Mean latency of delivered packets.
    pub mean_latency: f64,
}

impl DomainOutcome {
    /// delivered / injected.
    pub fn delivery_ratio(&self) -> f64 {
        self.delivered as f64 / self.injected.max(1) as f64
    }
}

/// Fig. 12(a) data: both domains, attacked and baseline runs
/// (index 0 = D1, the bystander domain; 1 = D2, the attacked domain).
#[derive(Debug, Clone)]
pub struct TdmData {
    /// Per-domain outcomes with the trojan armed.
    pub attacked: [DomainOutcome; 2],
    /// Per-domain outcomes with the trojan left dormant.
    pub baseline: [DomainOutcome; 2],
}

impl TdmData {
    /// Throughput of each domain relative to its own no-trojan baseline —
    /// the containment metric: D1 ≈ 1.0, D2 ≪ 1.0.
    pub fn relative_throughput(&self) -> (f64, f64) {
        (
            self.attacked[0].delivered as f64 / self.baseline[0].delivered.max(1) as f64,
            self.attacked[1].delivered as f64 / self.baseline[1].delivered.max(1) as f64,
        )
    }
}

/// Two app models with exact per-domain packet attribution.
struct TwoDomains {
    d1: AppModel,
    d2: AppModel,
    ids: [HashSet<noc_types::PacketId>; 2],
}

impl noc_sim::TrafficSource for TwoDomains {
    fn poll(&mut self, cycle: u64, out: &mut Vec<Packet>) {
        let start = out.len();
        self.d1.poll(cycle, out);
        for p in &out[start..] {
            self.ids[0].insert(p.id);
        }
        let mid = out.len();
        self.d2.poll(cycle, out);
        for p in &out[mid..] {
            self.ids[1].insert(p.id);
        }
    }
    fn done(&self) -> bool {
        self.d1.done() && self.d2.done()
    }
}

fn run_tdm(armed: bool, horizon: u64) -> [DomainOutcome; 2] {
    let mesh = Mesh::paper();
    // Each domain gets half the fabric, so each runs its application at
    // half rate (time-multiplexing trades bandwidth for isolation).
    let mut victim = AppSpec::blackscholes();
    victim.rate /= 2.0;
    let mut bystander = AppSpec::ferret();
    bystander.rate /= 2.0;
    let infected = crate::hottest_links(&victim, 1);

    let mut cfg = SimConfig::paper();
    cfg.mitigation = false;
    cfg.qos = QosMode::Tdm { domains: 2 };
    cfg.retx_scheme = RetxScheme::PerVc;
    let mut sim = Simulator::new(cfg);
    for l in &infected {
        // The attacker hunts the *victim application*: its memory range is
        // the discriminating target (both domains talk to overlapping
        // routers, but address spaces are disjoint).
        let target = TargetSpec::mem_range(victim.mem_base..=victim.mem_base | 0x00FF_FFFF);
        let ht = TaspHt::new(TaspConfig::new(target));
        sim.link_faults_mut(*l).trojan = Some(ht);
    }

    let warmup = 1500u64;
    let until = warmup + horizon;
    // D2 (the victim) lives on the odd-domain VCs {1,3}; D1 on {0,2}.
    // Packet ids must not collide across the two models, so offset D2's.
    let d1 = AppModel::new(bystander, mesh.clone(), 21)
        .until(until)
        .with_vcs(vec![0, 2]);
    let d2 = AppModel::new(victim, mesh, 22)
        .until(until)
        .with_vcs(vec![1, 3])
        .with_packet_id_offset(1 << 32);
    let mut src = TwoDomains {
        d1,
        d2,
        ids: [HashSet::new(), HashSet::new()],
    };
    sim.run(warmup, &mut src);
    sim.arm_trojans(armed);
    sim.run(horizon, &mut src);

    let events = sim.drain_events();
    let mut delivered = [0u64; 2];
    let mut lat = [0u64; 2];
    for e in &events {
        if let SimEvent::PacketDelivered {
            packet,
            injected_at,
            delivered_at,
            ..
        } = e
        {
            for d in 0..2 {
                if src.ids[d].contains(packet) {
                    delivered[d] += 1;
                    lat[d] += delivered_at - injected_at;
                }
            }
        }
    }
    let outcome = |d: usize| DomainOutcome {
        injected: src.ids[d].len() as u64,
        delivered: delivered[d],
        mean_latency: lat[d] as f64 / delivered[d].max(1) as f64,
    };
    [outcome(0), outcome(1)]
}

/// Run the TDM panel (attacked + baseline).
pub fn compute_tdm(horizon: u64) -> TdmData {
    TdmData {
        attacked: run_tdm(true, horizon),
        baseline: run_tdm(false, horizon),
    }
}

/// The (b) panel: same attack, the paper's s2s L-Ob mitigation.
pub fn compute_lob(horizon: u64) -> crate::fig11::Fig11Data {
    crate::fig11::compute(Strategy::S2sLob, 1, horizon)
}

/// Write Fig. 12: the TDM panel's per-domain table and the L-Ob
/// panel's series over a 1,500-cycle horizon.
pub fn fig12_mitigation(out: &mut String) {
    outln!(
        out,
        "=== Fig. 12(a) — TDM (two domains) under a single TASP ===\n"
    );
    let tdm = compute_tdm(1500);
    let (rel_d1, rel_d2) = tdm.relative_throughput();
    write_table(
        out,
        &[
            "domain",
            "delivered (attacked)",
            "delivered (no HT)",
            "relative throughput",
            "mean latency",
        ],
        &[
            vec![
                "D1 (bystander)".into(),
                tdm.attacked[0].delivered.to_string(),
                tdm.baseline[0].delivered.to_string(),
                pct(rel_d1),
                f(tdm.attacked[0].mean_latency, 1),
            ],
            vec![
                "D2 (attacked)".into(),
                tdm.attacked[1].delivered.to_string(),
                tdm.baseline[1].delivered.to_string(),
                pct(rel_d2),
                f(tdm.attacked[1].mean_latency, 1),
            ],
        ],
    );
    outln!(
        out,
        "\nThe DoS is contained: D1 keeps its no-HT throughput while only D2 slows."
    );

    outln!(
        out,
        "\n=== Fig. 12(b) — s2s L-Ob under the same attack ===\n"
    );
    let lob = compute_lob(1500);
    let rows: Vec<Vec<String>> = lob
        .samples
        .iter()
        .filter(|s| s.t >= 0 && s.t % 200 == 0)
        .map(|s| {
            vec![
                s.t.to_string(),
                s.input_util.to_string(),
                s.injection_util.to_string(),
                s.all_cores_full.to_string(),
                s.blocked_port_routers.to_string(),
            ]
        })
        .collect();
    write_table(
        out,
        &["t", "input util", "inj util", "all cores full", "blocked"],
        &rows,
    );
    outln!(
        out,
        "\nMinimal degradation: only the 1–3 cycle s2s obfuscation penalty."
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tdm_contains_the_dos_to_the_attacked_domain() {
        let data = compute_tdm(1200);
        let (rel_d1, rel_d2) = data.relative_throughput();
        assert!(
            rel_d1 > 0.85,
            "bystander domain must be nearly unaffected: {rel_d1}"
        );
        assert!(
            rel_d2 < rel_d1 - 0.10,
            "victim domain must visibly suffer: D2 {rel_d2} vs D1 {rel_d1}"
        );
    }

    #[test]
    fn lob_panel_keeps_the_network_flowing() {
        let mitigated = compute_lob(1500);
        let unprotected = crate::fig11::compute(Strategy::Unprotected, 1, 1500);
        let clean = crate::fig11::compute(Strategy::Unprotected, 0, 1500);
        let peak = |d: &crate::fig11::Fig11Data| {
            d.samples
                .iter()
                .filter(|s| s.t >= 0)
                .map(|s| s.injection_util)
                .max()
                .unwrap_or(0)
        };
        assert!(
            peak(&mitigated) * 3 < peak(&unprotected).max(1),
            "L-Ob must prevent injection-queue explosion: {} vs {}",
            peak(&mitigated),
            peak(&unprotected)
        );
        // Under L-Ob the network behaves like the no-trojan baseline
        // (Fig. 12(b): "minimal network degradation").
        assert!(
            peak(&mitigated) <= peak(&clean) * 2,
            "L-Ob must track the clean baseline: {} vs {}",
            peak(&mitigated),
            peak(&clean)
        );
        let worst = |d: &crate::fig11::Fig11Data| {
            d.samples
                .iter()
                .map(|s| s.all_cores_full)
                .max()
                .unwrap_or(0)
        };
        assert!(
            worst(&mitigated) <= worst(&clean) + 1,
            "mitigated core stalls {} vs clean {}",
            worst(&mitigated),
            worst(&clean)
        );
    }
}
