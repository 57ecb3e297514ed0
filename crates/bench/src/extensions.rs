//! Extension experiments on §III-A's attacker-side claims: how hard a
//! TASP is to detect after fabrication, and how the DoS scales with the
//! number of trojans.

use crate::table::{f, write_table};
use htnoc_core::prelude::*;
use noc_power::{CellLibrary, RouterPower, SideChannelModel, TaspPower};
use noc_trojan::detection::{expected_triggers, trigger_probability, vectors_for_confidence};
use noc_trojan::TargetKind;

/// Laboratory-grade side-channel measurement: 1 % leakage σ, 10⁶
/// averaged measurements, a 3σ detection threshold.
const LAB_GRADE: SideChannelModel = SideChannelModel {
    leakage_sigma_frac: 0.01,
    measurements: 1_000_000,
    threshold_sigma: 3.0,
};

/// §III-A's detectability analysis, quantified: how hard each TASP
/// variant is to catch with logic testing (trigger probability) and
/// side-channel analysis (idle-leakage SNR), and how the kill switch and
/// the comparator width close the logic-testing avenue that caught prior
/// work's 1–3-gate link trojans.
pub fn exp_detectability(out: &mut String) {
    outln!(
        out,
        "=== Extension — TASP post-fabrication detectability ===\n"
    );
    let router_leak = RouterPower::paper().total().leakage_nw;
    let sc = SideChannelModel::default();
    let mut rows = Vec::new();
    for kind in TargetKind::ALL {
        let p = trigger_probability(kind);
        let vectors = vectors_for_confidence(kind, 0.95)
            .map(|v| {
                if v > 1_000_000_000 {
                    format!("{:.1e}", v as f64)
                } else {
                    v.to_string()
                }
            })
            .unwrap_or_else(|| "> 2^60".into());
        let tasp = TaspPower::new(CellLibrary::tsmc40()).variant(kind);
        rows.push(vec![
            kind.name().to_string(),
            format!("{:.2e}", p),
            vectors,
            format!("{:.0}", expected_triggers(kind, 1_000_000_000, false)),
            f(sc.snr(tasp.leakage_nw, router_leak), 2),
            f(LAB_GRADE.snr(tasp.leakage_nw, router_leak), 1),
        ]);
    }
    write_table(
        out,
        &[
            "target",
            "P(trigger/vector)",
            "vectors for 95%",
            "triggers @1e9 vec, killsw down",
            "SNR (5% σ, 100 avg)",
            "SNR (1% σ, 1e6 avg)",
        ],
        &rows,
    );
    outln!(
        out,
        "\nThe kill switch zeroes logic-testing exposure outright; the wide\n\
         comparators would defeat it anyway (vs ~200 vectors for the 1–3-gate\n\
         trojans of prior work). Dormant, the trojan's only footprint is its\n\
         ~15–30 nW leakage — invisible at production-test measurement quality\n\
         (SNR ≪ 3), only approachable with laboratory-grade calibration."
    );
    outln!(
        out,
        "\nAttacker's stealth budget: max payload-counter width Y below 3σ:"
    );
    let mut rows = Vec::new();
    for (label, m) in [("production test", sc), ("laboratory", LAB_GRADE)] {
        let y = m
            .max_stealthy_y(TargetKind::Dest)
            .map(|y| y.to_string())
            .unwrap_or_else(|| "0 (always visible)".into());
        rows.push(vec![label.to_string(), y]);
    }
    write_table(
        out,
        &["measurement quality", "max stealthy Y (Dest)"],
        &rows,
    );
}

/// When the back-pressure milestones of one multi-trojan run arrive,
/// in cycles after the kill switch.
struct Milestones {
    t_blocked_majority: Option<i64>,
    t_half_dead_majority: Option<i64>,
    peak_backlog: usize,
}

fn multi_trojan_run(n_trojans: usize, horizon: u64) -> Milestones {
    let app = AppSpec::blackscholes();
    let infected = crate::hottest_links(&app, n_trojans);
    let mut sc = Scenario::paper_default(app, Strategy::Unprotected).with_infected(infected);
    sc.warmup = 1500;
    sc.inject_until = 1500 + horizon;
    sc.max_cycles = 1500 + horizon;
    sc.snapshot_interval = 10;
    let r = htnoc_core::run_scenario(&sc);
    let warm = 1500i64;
    let first = |pred: &dyn Fn(&noc_sim::Snapshot) -> bool| {
        r.stats
            .snapshots
            .iter()
            .find(|s| s.cycle as i64 - warm >= 0 && pred(s))
            .map(|s| s.cycle as i64 - warm)
    };
    Milestones {
        t_blocked_majority: first(&|s| s.routers_blocked_port >= 9),
        t_half_dead_majority: first(&|s| s.routers_half_cores_full >= 9),
        peak_backlog: r
            .stats
            .snapshots
            .iter()
            .map(|s| s.injection_util)
            .max()
            .unwrap_or(0),
    }
}

/// Attack potency against trojan count (§III-A: "The number of TASP HT
/// injections should be minimized to circumvent side-channel detection,
/// but enough to achieve the desired disruption. More HTs will increase
/// the abruptness of the DoS attack."): 1–8 trojans on the hottest
/// links, how fast the back-pressure milestones arrive, and the
/// attacker's cumulative side-channel exposure (idle leakage).
pub fn exp_multi_trojan(out: &mut String) {
    outln!(
        out,
        "=== Extension — DoS abruptness vs number of TASP trojans ===\n"
    );
    let router_leak = RouterPower::paper().total().leakage_nw;
    let per_trojan = TaspPower::new(CellLibrary::tsmc40())
        .variant(TargetKind::Dest)
        .leakage_nw;
    let mut rows = Vec::new();
    for n in [1usize, 2, 4, 8] {
        let m = multi_trojan_run(n, 2000);
        let fmt = |t: Option<i64>| t.map(|t| t.to_string()).unwrap_or_else(|| "-".into());
        // Cumulative idle leakage over the victim region's routers drives
        // the attacker's exposure under high-quality measurement.
        let exposure = LAB_GRADE.snr(per_trojan * n as f64, router_leak);
        rows.push(vec![
            n.to_string(),
            fmt(m.t_blocked_majority),
            fmt(m.t_half_dead_majority),
            m.peak_backlog.to_string(),
            f(exposure, 1),
        ]);
    }
    write_table(
        out,
        &[
            "trojans",
            "t: >50% routers blocked",
            "t: >50% inj dead",
            "peak backlog",
            "lab-grade SNR",
        ],
        &rows,
    );
    outln!(
        out,
        "\nOne trojan on the funnel link sets the pace: the others sit on links\n\
         that feed it or carry no packet for the target, so every row collapses\n\
         alike. Extra trojans only multiply the attacker's idle-leakage\n\
         footprint, which is the paper's minimise-but-suffice placement argument."
    );
}
