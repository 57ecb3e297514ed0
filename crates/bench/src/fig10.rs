//! Fig. 10 — workload speedup from continuing to use infected links with
//! s2s L-Ob versus rerouting around them (Ariadne), for each application
//! trace at 0 / 5 / 10 / 15 % infected links.
//!
//! Metric: completion time of a fixed injection schedule (warm-up, attack
//! window, drain). Speedup of a strategy = completion(Reroute) /
//! completion(strategy); the rerouting bar is therefore 1.0 by definition
//! and the L-Ob bar shows how much faster the obfuscating network
//! finishes, exactly the comparison the paper's bars make.

use crate::table::{f, pct, write_table};
use htnoc_core::prelude::*;
use htnoc_core::sweep::par_map;

/// One bar group of Fig. 10.
#[derive(Debug, Clone)]
pub struct SpeedupRow {
    /// Application name.
    pub app: &'static str,
    /// Infected-link fraction (0.05 = 5%).
    pub infected_pct: f64,
    /// Workload completion time under each strategy (cycles).
    pub t_lob: u64,
    /// Completion time under rerouting.
    pub t_reroute: u64,
    /// Mean packet latency under each strategy (cycles).
    pub lat_lob: f64,
    /// Mean packet latency under rerouting.
    pub lat_reroute: f64,
    /// The figure's bar: completion(Reroute) / completion(S2sLob) — how
    /// much faster the obfuscating network finishes the same workload.
    /// (Mean latencies are reported alongside; under rerouting they can
    /// inflate far more than completion when detours congest.)
    pub speedup: f64,
}

/// Scenario schedule used for every Fig. 10 cell: the application's
/// communication burst followed by a drain; mean packet latency under
/// each strategy is the figure's speedup basis.
fn scenario(app: AppSpec, strategy: Strategy, infected: Vec<LinkId>, seed: u64) -> Scenario {
    let mut sc = Scenario::paper_default(app, strategy).with_infected(infected);
    sc.seed = seed;
    sc.warmup = 200;
    sc.inject_until = 1000;
    sc.max_cycles = 40_000;
    sc.snapshot_interval = 50;
    sc
}

/// Infected-link sets per app and fraction (the attacker's placement).
pub fn infected_for(app: &AppSpec, fraction: f64, seed: u64) -> Vec<LinkId> {
    let mesh = Mesh::paper();
    let mut model = AppModel::new(app.clone(), mesh.clone(), seed);
    let shares = TrafficMatrix::sample(&mut model, 1500).link_shares_xy(&mesh);
    select_infected(&mesh, &shares, fraction, Some(app.primary))
}

/// Compute the full figure: `apps × fractions` rows, each averaged over
/// `seeds` runs per strategy.
pub fn compute(apps: Vec<AppSpec>, fractions: &[f64], seeds: u64) -> Vec<SpeedupRow> {
    // Build every (app, fraction, seed, strategy) run, fan out in parallel.
    let mut jobs = Vec::new();
    for app in &apps {
        for &frac in fractions {
            for seed in 0..seeds {
                let infected = infected_for(app, frac, 3 + seed);
                jobs.push((
                    app.name,
                    frac,
                    scenario(app.clone(), Strategy::S2sLob, infected.clone(), seed),
                    scenario(app.clone(), Strategy::Reroute, infected, seed),
                ));
            }
        }
    }
    let results = par_map(jobs, None, |(name, frac, lob_sc, rr_sc)| {
        let lob = htnoc_core::run_scenario(&lob_sc);
        let rr = htnoc_core::run_scenario(&rr_sc);
        let cap = lob_sc.max_cycles;
        (
            name,
            frac,
            lob.completion_or_cap(cap),
            rr.completion_or_cap(cap),
            lob.stats.avg_latency(),
            rr.stats.avg_latency(),
        )
    });
    // Aggregate seeds per (app, fraction) cell.
    let mut rows: Vec<SpeedupRow> = Vec::new();
    for (name, frac, t_lob, t_rr, l_lob, l_rr) in results {
        match rows
            .iter_mut()
            .find(|r| r.app == name && r.infected_pct == frac)
        {
            Some(row) => {
                row.t_lob += t_lob;
                row.t_reroute += t_rr;
                row.lat_lob += l_lob;
                row.lat_reroute += l_rr;
            }
            None => rows.push(SpeedupRow {
                app: name,
                infected_pct: frac,
                t_lob,
                t_reroute: t_rr,
                lat_lob: l_lob,
                lat_reroute: l_rr,
                speedup: 0.0,
            }),
        }
    }
    for row in &mut rows {
        row.t_lob /= seeds;
        row.t_reroute /= seeds;
        row.lat_lob /= seeds as f64;
        row.lat_reroute /= seeds as f64;
        row.speedup = row.t_reroute as f64 / row.t_lob as f64;
    }
    rows
}

/// Write Fig. 10: all four apps at 0/5/10/15 % infected links, three
/// seeds per cell.
pub fn fig10_speedup(out: &mut String) {
    let fractions = [0.0, 0.05, 0.10, 0.15];
    outln!(
        out,
        "=== Fig. 10 — workload speedup: s2s L-Ob vs rerouting (Ariadne) ===\n"
    );
    let rows_data = compute(AppSpec::all(), &fractions, 3);
    let rows: Vec<Vec<String>> = rows_data
        .iter()
        .map(|r| {
            vec![
                r.app.to_string(),
                pct(r.infected_pct),
                f(r.lat_lob, 1),
                f(r.lat_reroute, 1),
                r.t_lob.to_string(),
                r.t_reroute.to_string(),
                f(r.speedup, 2),
            ]
        })
        .collect();
    write_table(
        out,
        &[
            "app",
            "infected",
            "lat(L-Ob)",
            "lat(reroute)",
            "t(L-Ob)",
            "t(reroute)",
            "speedup",
        ],
        &rows,
    );
    outln!(
        out,
        "\nspeedup = workload completion(reroute) / completion(L-Ob); the\n\
         rerouting bar is 1.0 by construction, matching the paper's comparison.\n\
         Mean packet latencies are shown alongside (under rerouting they can\n\
         inflate far beyond the completion ratio when detours congest)."
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lob_speedup_grows_with_infection_and_stays_in_band() {
        // One app at two fractions keeps the test affordable; the
        // experiment sweeps all four apps.
        let rows = compute(vec![AppSpec::blackscholes()], &[0.0, 0.15], 3);
        assert_eq!(rows.len(), 2);
        let at = |f: f64| rows.iter().find(|r| r.infected_pct == f).unwrap();
        let clean = at(0.0);
        // With no infected links the strategies coincide (speedup ≈ 1).
        assert!(
            (clean.speedup - 1.0).abs() < 0.15,
            "0% infected speedup {}",
            clean.speedup
        );
        let hot = at(0.15);
        assert!(
            hot.speedup > 1.2,
            "L-Ob must clearly beat rerouting at 15% infection: {}",
            hot.speedup
        );
        assert!(hot.speedup < 5.0, "band check: {}", hot.speedup);
    }
}
