//! Experiment execution: run a [`Scenario`] through its schedule and
//! collect the numbers the figures need.

use crate::scenario::Scenario;
use noc_sim::{MetricsRegistry, Record, SimEvent, SimStats, Simulator};

/// Everything a figure harness needs from one run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// All statistics the simulator collected.
    pub stats: SimStats,
    /// Cycle the run ended at.
    pub cycles: u64,
    /// Cycle the last packet was delivered (≈ completion time of the
    /// workload; `None` when nothing was delivered).
    pub completion: Option<u64>,
    /// Whether every injected flit was eventually delivered.
    pub drained: bool,
    /// Events the run emitted.
    pub events: Vec<SimEvent>,
    /// Per-link / per-router metrics (always collected).
    pub metrics: MetricsRegistry,
    /// Structured trace records (empty unless the scenario armed
    /// [`Scenario::trace`]; bounded by the configured ring capacity).
    pub trace: Vec<Record>,
}

impl RunResult {
    /// The Fig. 10 metric: workload completion time. Deadlocked runs never
    /// complete; charge them the full simulation budget.
    pub fn completion_or_cap(&self, cap: u64) -> u64 {
        if self.drained {
            self.completion.unwrap_or(cap)
        } else {
            cap
        }
    }
}

/// Run the scenario: warm-up → arm kill switch → inject until the schedule
/// ends → drain until quiescence or `max_cycles`.
pub fn run_scenario(sc: &Scenario) -> RunResult {
    run_built(sc, sc.build_sim())
}

/// [`run_scenario`] on a simulator built from `sc` by
/// [`Scenario::try_build_sim_with`], with a configuration value the
/// scenario does not state overridden.
pub fn run_built(sc: &Scenario, mut sim: Simulator) -> RunResult {
    let mut traffic = sc.build_traffic(sim.mesh());
    // Clean warm-up; then the attacker throws the kill switch, and the
    // schedule runs until the network drains or `max_cycles`.
    sim.run(sc.warmup, traffic.as_mut());
    sim.arm_trojans(true);
    let left = sc.max_cycles.saturating_sub(sim.cycle());
    sim.run_to_quiescence(left, traffic.as_mut());
    finish(sim)
}

fn finish(mut sim: Simulator) -> RunResult {
    let drained = sim.is_quiescent();
    let cycles = sim.cycle();
    let events = sim.drain_events();
    let completion = events
        .iter()
        .filter_map(|e| match e {
            SimEvent::PacketDelivered { delivered_at, .. } => Some(*delivered_at),
            _ => None,
        })
        .max();
    let trace = sim
        .tracer_mut()
        .map(|t| {
            t.close_sink();
            t.take_records()
        })
        .unwrap_or_default();
    RunResult {
        stats: sim.stats().clone(),
        cycles,
        completion,
        drained,
        events,
        metrics: sim.metrics().clone(),
        trace,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::infection::select_infected;
    use crate::scenario::Strategy;
    use noc_traffic::{AppModel, AppSpec, TrafficMatrix};
    use noc_types::Mesh;

    fn short(app: AppSpec, strategy: Strategy) -> Scenario {
        let mut sc = Scenario::paper_default(app, strategy);
        sc.warmup = 200;
        sc.inject_until = 600;
        sc.max_cycles = 6000;
        sc
    }

    fn infected(frac: f64) -> Vec<noc_types::LinkId> {
        let mesh = Mesh::paper();
        let mut m = AppModel::new(AppSpec::blackscholes(), mesh.clone(), 3);
        let shares = TrafficMatrix::sample(&mut m, 1500).link_shares_xy(&mesh);
        select_infected(&mesh, &shares, frac, Some(AppSpec::blackscholes().primary))
    }

    #[test]
    fn clean_run_drains() {
        let r = run_scenario(&short(AppSpec::blackscholes(), Strategy::Unprotected));
        assert!(r.drained, "no trojans mounted → full drain");
        assert!(r.stats.delivered_packets > 0);
        assert_eq!(r.stats.delivered_packets, r.stats.injected_packets);
        assert!(r.completion.is_some());
    }

    #[test]
    fn unprotected_attack_stalls_the_workload() {
        let sc = short(AppSpec::blackscholes(), Strategy::Unprotected).with_infected(infected(0.1));
        let r = run_scenario(&sc);
        assert!(!r.drained, "targeted flits can never cross");
        assert!(r.stats.delivered_packets < r.stats.injected_packets);
        assert!(r.stats.retransmissions > 50, "{}", r.stats.retransmissions);
    }

    #[test]
    fn s2s_lob_lets_the_workload_finish() {
        let sc = short(AppSpec::blackscholes(), Strategy::S2sLob).with_infected(infected(0.1));
        let r = run_scenario(&sc);
        assert!(r.drained, "L-Ob must defeat the trojans");
        assert_eq!(r.stats.delivered_packets, r.stats.injected_packets);
    }

    #[test]
    fn reroute_finishes_but_slower_than_lob() {
        let links = infected(0.1);
        let lob = run_scenario(
            &short(AppSpec::blackscholes(), Strategy::S2sLob).with_infected(links.clone()),
        );
        let rr =
            run_scenario(&short(AppSpec::blackscholes(), Strategy::Reroute).with_infected(links));
        assert!(lob.drained && rr.drained);
        let (t_lob, t_rr) = (lob.completion_or_cap(6000), rr.completion_or_cap(6000));
        assert!(
            t_rr as f64 >= t_lob as f64 * 0.95,
            "rerouting should not beat L-Ob: {t_rr} vs {t_lob}"
        );
    }

    #[test]
    fn completion_or_cap_charges_deadlocks_the_budget() {
        let r = RunResult {
            stats: SimStats::default(),
            cycles: 100,
            completion: Some(50),
            drained: false,
            events: Vec::new(),
            metrics: MetricsRegistry::default(),
            trace: Vec::new(),
        };
        assert_eq!(r.completion_or_cap(999), 999);
    }
}
