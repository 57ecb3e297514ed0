//! Tables I & II and Figs. 8 & 9 — the synthesis-cost results, from the
//! calibrated gate-level model in `noc-power`.

use crate::table::{f, pct, write_table};
use htnoc_core::prelude::*;
use noc_power::Power;

/// Paper Table I reference values: (area µm², dynamic µW, leakage nW,
/// timing ns) per target variant — used by the experiments to print
/// paper-vs-model columns and by EXPERIMENTS.md.
pub fn table1_paper(kind: TargetKind) -> (f64, f64, f64, f64) {
    match kind {
        TargetKind::Full => (50.45, 25.5304, 30.2694, 0.21),
        TargetKind::Dest => (33.516, 9.9263, 16.2355, 0.21),
        TargetKind::Src => (33.516, 9.9263, 16.2355, 0.21),
        TargetKind::DestSrc => (37.044, 10.9416, 16.2498, 0.21),
        TargetKind::Mem => (44.4528, 10.1997, 17.0468, 0.21),
        TargetKind::Vc => (31.9284, 10.5953, 15.0765, 0.21),
    }
}

/// Model rows for Table I.
pub fn table1_model() -> Vec<(TargetKind, Power)> {
    TaspPower::new(noc_power::CellLibrary::tsmc40()).table1()
}

/// Table II: mitigation overhead (area fraction, power fraction).
pub fn table2_model() -> (MitigationPower, RouterPower, (f64, f64)) {
    let router = RouterPower::paper();
    let mit = MitigationPower::paper();
    let overhead = mit.overhead(&router);
    (mit, router, overhead)
}

/// Fig. 8 left pies: router component shares (name, dynamic, leakage),
/// with the single-TASP slice appended the way the paper draws it.
pub fn fig8_router_pies() -> Vec<(&'static str, f64, f64)> {
    let router = RouterPower::paper();
    let tasp = TaspPower::new(noc_power::CellLibrary::tsmc40()).variant(TargetKind::Full);
    let total = router.total();
    let dyn_total = total.dynamic_uw + tasp.dynamic_uw;
    let leak_total = total.leakage_nw + tasp.leakage_nw;
    let mut rows: Vec<(&'static str, f64, f64)> = router
        .shares()
        .into_iter()
        .map(|(name, d, l)| {
            (
                name,
                d * total.dynamic_uw / dyn_total,
                l * total.leakage_nw / leak_total,
            )
        })
        .collect();
    rows.push((
        "Single TASP HT",
        tasp.dynamic_uw / dyn_total,
        tasp.leakage_nw / leak_total,
    ));
    rows
}

/// Fig. 8 right pies: NoC area (tasp-on-all-links, wires, active) and NoC
/// dynamic power (routers, tasp-on-all-48-links).
pub fn fig8_noc_pies() -> ((f64, f64, f64), (f64, f64)) {
    let noc = NocPower::paper();
    (noc.area_shares(), noc.dynamic_shares())
}

/// Fig. 9: TASP area per target variant (µm²).
pub fn fig9_areas() -> Vec<(TargetKind, f64)> {
    table1_model()
        .into_iter()
        .map(|(k, p)| (k, p.area_um2))
        .collect()
}

/// Write Fig. 8: router power pies, the NoC area pie and the NoC
/// dynamic-power pie with a TASP on all 48 links.
pub fn fig8_power_pies(out: &mut String) {
    outln!(out, "=== Fig. 8 — power and area breakdowns ===\n");

    outln!(
        out,
        "Router power shares (paper: buffer 71/88, crossbar 18/9, SA 4/3, clock 6/~0, TASP 1/~0):"
    );
    let rows: Vec<Vec<String>> = fig8_router_pies()
        .into_iter()
        .map(|(name, d, l)| vec![name.to_string(), pct(d), pct(l)])
        .collect();
    write_table(out, &["component", "dynamic", "leakage"], &rows);

    let ((tasp_area, wire_area, active_area), (routers_dyn, tasp_dyn)) = fig8_noc_pies();
    outln!(
        out,
        "\nNoC area (paper: wires 86%, active 13%, TASP-on-all-links ~1%):"
    );
    write_table(
        out,
        &["slice", "share"],
        &[
            vec!["TASP on all 48 links".into(), pct(tasp_area)],
            vec!["global wire area".into(), pct(wire_area)],
            vec!["active (router) area".into(), pct(active_area)],
        ],
    );

    outln!(
        out,
        "\nNoC dynamic power (paper: routers 99.44%, TASP on all 48 links 0.56%):"
    );
    write_table(
        out,
        &["slice", "share"],
        &[
            vec!["routers".into(), pct(routers_dyn)],
            vec!["TASP on all 48 links".into(), pct(tasp_dyn)],
        ],
    );
}

/// Write Fig. 9: TASP area per target variant, model against paper.
pub fn fig9_target_area(out: &mut String) {
    outln!(
        out,
        "=== Fig. 9 — TASP target selection vs area overhead ===\n"
    );
    let rows: Vec<Vec<String>> = fig9_areas()
        .into_iter()
        .map(|(kind, area)| {
            let (paper_area, _, _, _) = table1_paper(kind);
            vec![
                kind.name().to_string(),
                format!("{}", kind.comparator_bits()),
                f(area, 2),
                f(paper_area, 2),
                f((area / paper_area - 1.0) * 100.0, 1) + "%",
            ]
        })
        .collect();
    write_table(
        out,
        &["target", "cmp bits", "model µm²", "paper µm²", "delta"],
        &rows,
    );
}

/// Write Table I: area, power and timing per TASP variant, model
/// against paper.
pub fn table1_tasp_overhead(out: &mut String) {
    outln!(out, "=== Table I — TASP variants: model vs paper ===\n");
    let mut rows = Vec::new();
    for (kind, p) in table1_model() {
        let (pa, pd, pl, pt) = table1_paper(kind);
        rows.push(vec![
            kind.name().to_string(),
            f(p.area_um2, 2),
            f(pa, 2),
            f(p.dynamic_uw, 3),
            f(pd, 3),
            f(p.leakage_nw, 2),
            f(pl, 2),
            f(p.timing_ns, 2),
            f(pt, 2),
        ]);
    }
    write_table(
        out,
        &[
            "target",
            "area µm²",
            "(paper)",
            "dyn µW",
            "(paper)",
            "leak nW",
            "(paper)",
            "ns",
            "(paper)",
        ],
        &rows,
    );
    outln!(out, "\nEvery variant fits the 0.5 ns LT window at 2 GHz.");
}

/// Write Table II: the mitigation's blocks against the baseline router.
pub fn table2_mitigation_overhead(out: &mut String) {
    outln!(
        out,
        "=== Table II — mitigation overhead (paper: ~2% area, ~6% power) ===\n"
    );
    let (mit, router, (area_ovh, power_ovh)) = table2_model();
    let rows = vec![
        vec![
            "threat detector".to_string(),
            f(mit.detector.area_um2, 1),
            f(mit.detector.dynamic_uw, 1),
            f(mit.detector.leakage_nw, 1),
            f(mit.detector.timing_ns, 2),
        ],
        vec![
            "L-Ob block".to_string(),
            f(mit.lob.area_um2, 1),
            f(mit.lob.dynamic_uw, 1),
            f(mit.lob.leakage_nw, 1),
            f(mit.lob.timing_ns, 2),
        ],
        vec![
            "induced datapath activity".to_string(),
            "-".to_string(),
            f(mit.induced.dynamic_uw, 1),
            "-".to_string(),
            "-".to_string(),
        ],
        vec![
            "total".to_string(),
            f(mit.total().area_um2, 1),
            f(mit.total().dynamic_uw, 1),
            f(mit.total().leakage_nw, 1),
            f(mit.total().timing_ns, 2),
        ],
        vec![
            "baseline router".to_string(),
            f(router.total().area_um2, 0),
            f(router.total().dynamic_uw, 0),
            f(router.total().leakage_nw, 0),
            f(router.total().timing_ns, 2),
        ],
    ];
    write_table(
        out,
        &["block", "area µm²", "dyn µW", "leak nW", "ns"],
        &rows,
    );
    outln!(
        out,
        "\noverheads: area {} (paper ~2%), power {} (paper ~6%); both blocks fit the 2 GHz clock",
        pct(area_ovh),
        pct(power_ovh)
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn router_pie_slices_sum_to_one() {
        let rows = fig8_router_pies();
        let d: f64 = rows.iter().map(|r| r.1).sum();
        let l: f64 = rows.iter().map(|r| r.2).sum();
        assert!((d - 1.0).abs() < 1e-9);
        assert!((l - 1.0).abs() < 1e-9);
        // TASP slice ≲ 1 % as in the paper.
        let tasp = rows.last().unwrap();
        assert!(tasp.1 < 0.01 && tasp.2 < 0.01);
    }

    #[test]
    fn fig9_order_matches_comparator_widths_with_activity_fixups() {
        let areas = fig9_areas();
        let get = |k: TargetKind| areas.iter().find(|(a, _)| *a == k).unwrap().1;
        assert!(get(TargetKind::Full) > get(TargetKind::Mem));
        assert!(get(TargetKind::Mem) > get(TargetKind::DestSrc));
        assert!(get(TargetKind::Vc) < get(TargetKind::Dest));
    }

    #[test]
    fn table2_overheads() {
        let (_, _, (area, power)) = table2_model();
        assert!((area - 0.02).abs() < 0.005);
        assert!((power - 0.06).abs() < 0.01);
    }
}
