//! Declarative experiment scenarios and their compilation into a
//! configured simulator + traffic source.

use crate::e2e::E2eObfuscation;
use crate::reroute;
use noc_sim::{QosMode, RetxScheme, SimConfig, Simulator, TraceConfig, TrafficSource};
use noc_traffic::{AppModel, AppSpec};
use noc_trojan::{TargetSpec, TaspConfig, TaspHt};
use noc_types::{LinkId, Mesh};

/// The defence deployed in a scenario.
#[derive(Debug, Clone, PartialEq)]
pub enum Strategy {
    /// No countermeasures: plain retransmission forever (Fig. 11(a)).
    Unprotected,
    /// Fort-NoCs-style end-to-end data scrambling (fails against
    /// header-targeting trojans; Fig. 11(a) discussion).
    E2eObfuscation,
    /// SurfNoC-style TDM with this many non-interfering domains
    /// (Fig. 12(a)).
    Tdm {
        /// Number of non-interfering time-multiplexed domains.
        domains: u8,
    },
    /// The paper's proposal: threat detector + switch-to-switch L-Ob
    /// (Figs. 10 and 12(b)).
    S2sLob,
    /// Ariadne-style rerouting around infected links (Fig. 10 baseline).
    Reroute,
}

/// One experiment: workload, attack, defence, and schedule.
///
/// ```
/// use htnoc_core::prelude::*;
///
/// // Blackscholes under the paper's mitigation, one infected hot link.
/// let mut sc = Scenario::paper_default(AppSpec::blackscholes(), Strategy::S2sLob)
///     .with_infected(vec![LinkId(12)]);
/// sc.warmup = 100;
/// sc.inject_until = 300;
/// sc.max_cycles = 5_000;
/// let result = run_scenario(&sc);
/// assert!(result.drained, "L-Ob gets every packet through");
/// assert_eq!(result.stats.delivered_packets, result.stats.injected_packets);
/// ```
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The application workload.
    pub app: AppSpec,
    /// Traffic-model seed (determinism).
    pub seed: u64,
    /// The defence deployed.
    pub strategy: Strategy,
    /// Links carrying a TASP trojan.
    pub infected: Vec<LinkId>,
    /// What the trojans hunt for.
    pub target: TargetSpec,
    /// Trojan fault-injection cooldown in cycles ("every 10 cycles or so").
    pub cooldown: u32,
    /// Cycles of clean warm-up before the kill switch is asserted.
    pub warmup: u64,
    /// Injection stops after this cycle.
    pub inject_until: u64,
    /// Hard simulation cap (covers deadlocked runs).
    pub max_cycles: u64,
    /// Statistics sampling interval.
    pub snapshot_interval: u64,
    /// Restrict the workload's packets to these VCs (TDM domain pinning).
    pub vcs: Vec<u8>,
    /// Arm the structured event tracer (`None`: zero-cost disabled).
    pub trace: Option<TraceConfig>,
    /// Worker threads for the sharded cycle engine (`None`/`Some(1)`:
    /// sequential). Bit-identical results at every setting.
    pub threads: Option<usize>,
    /// Override the fabric (`None`: the paper's 4×4 mesh). A torus or
    /// degraded mesh routes through the topology tables in `crates/noc`.
    pub mesh: Option<Mesh>,
}

impl Scenario {
    /// A scenario with the paper's Fig. 11 schedule: 1500-cycle warm-up,
    /// then the kill switch goes up and the trojan hits every sighting of
    /// its target (which traffic makes happen "every 10 cycles or so").
    pub fn paper_default(app: AppSpec, strategy: Strategy) -> Self {
        let target = TargetSpec::dest((app.primary.0 & 0xF) as u8);
        Self {
            app,
            seed: 0xC0FFEE,
            strategy,
            infected: Vec::new(),
            target,
            cooldown: 0,
            warmup: 1500,
            inject_until: 3000,
            max_cycles: 20_000,
            snapshot_interval: 10,
            vcs: Vec::new(),
            trace: None,
            threads: None,
            mesh: None,
        }
    }

    /// Replace the infected link set.
    pub fn with_infected(mut self, infected: Vec<LinkId>) -> Self {
        self.infected = infected;
        self
    }

    /// Replace the traffic-model seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Arm structured tracing for the run (forensics / export).
    pub fn with_trace(mut self, trace: TraceConfig) -> Self {
        self.trace = Some(trace);
        self
    }

    /// Run the cycle engine sharded over `threads` worker threads.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Replace the fabric (e.g. a torus or fault-degraded mesh).
    pub fn with_mesh(mut self, mesh: Mesh) -> Self {
        self.mesh = Some(mesh);
        self
    }

    /// The simulator configuration this strategy implies.
    pub fn sim_config(&self) -> SimConfig {
        let mut cfg = SimConfig::paper();
        if let Some(mesh) = &self.mesh {
            cfg.mesh = mesh.clone();
        }
        cfg.snapshot_interval = self.snapshot_interval;
        cfg.trace = self.trace;
        cfg.threads = self.threads;
        match &self.strategy {
            Strategy::Unprotected | Strategy::E2eObfuscation | Strategy::Reroute => {
                cfg.mitigation = false;
            }
            Strategy::Tdm { domains } => {
                cfg.mitigation = false;
                cfg.qos = QosMode::Tdm { domains: *domains };
                // Per-VC retransmission slots keep one domain's stalls from
                // head-of-line-blocking the other.
                cfg.retx_scheme = RetxScheme::PerVc;
            }
            Strategy::S2sLob => {
                cfg.mitigation = true;
            }
        }
        cfg
    }

    /// Build the configured simulator (trojans mounted but **not armed**;
    /// the experiment loop asserts the kill switch after warm-up).
    ///
    /// Panics when the rerouting baseline cannot route around the
    /// infected links; use [`Scenario::try_build_sim`] to handle that
    /// case gracefully.
    pub fn build_sim(&self) -> Simulator {
        self.try_build_sim()
            .expect("infection fractions must not disconnect the mesh")
    }

    /// Fallible [`Scenario::build_sim`]: returns
    /// [`noc_sim::SimError::MeshDisconnected`] when the rerouting
    /// baseline's dead-link set leaves some router pair unroutable.
    pub fn try_build_sim(&self) -> Result<Simulator, noc_sim::SimError> {
        self.try_build_sim_with(self.sim_config())
    }

    /// [`Scenario::try_build_sim`] from `cfg`, a [`Scenario::sim_config`]
    /// with a value the scenario does not state overridden.
    pub fn try_build_sim_with(&self, cfg: SimConfig) -> Result<Simulator, noc_sim::SimError> {
        let mut sim = Simulator::new(cfg);
        for link in &self.infected {
            let cfg = TaspConfig::new(self.target.clone()).with_cooldown(self.cooldown);
            let ht = TaspHt::new(cfg);
            sim.link_faults_mut(*link).trojan = Some(ht);
        }
        // With nothing to avoid, the rerouting baseline keeps XY (its
        // up*/down* reconfiguration is only triggered by flagged links).
        if self.strategy == Strategy::Reroute && !self.infected.is_empty() {
            let ok = reroute::apply_reroute(&mut sim, &self.infected);
            if !ok {
                return Err(noc_sim::SimError::MeshDisconnected {
                    cycle: 0,
                    dead: self.infected.clone(),
                });
            }
        }
        Ok(sim)
    }

    /// Build the traffic source (wrapped for e2e obfuscation if selected).
    pub fn build_traffic(&self, mesh: &Mesh) -> Box<dyn TrafficSource> {
        let mut model =
            AppModel::new(self.app.clone(), mesh.clone(), self.seed).until(self.inject_until);
        if !self.vcs.is_empty() {
            model = model.with_vcs(self.vcs.clone());
        }
        match self.strategy {
            Strategy::E2eObfuscation => {
                Box::new(E2eObfuscation::new(model, 0x5EED ^ self.seed as u32))
            }
            _ => Box::new(model),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strategy_maps_to_sim_config() {
        let s = |strategy| Scenario::paper_default(AppSpec::blackscholes(), strategy);
        assert!(!s(Strategy::Unprotected).sim_config().mitigation);
        assert!(s(Strategy::S2sLob).sim_config().mitigation);
        let tdm = s(Strategy::Tdm { domains: 2 }).sim_config();
        assert_eq!(tdm.qos, QosMode::Tdm { domains: 2 });
        assert_eq!(tdm.retx_scheme, RetxScheme::PerVc);
    }

    #[test]
    fn build_mounts_trojans_on_infected_links() {
        let mesh = Mesh::paper();
        let links: Vec<LinkId> = mesh.all_links().take(3).collect();
        let sc = Scenario::paper_default(AppSpec::blackscholes(), Strategy::S2sLob)
            .with_infected(links.clone());
        let sim = sc.build_sim();
        for l in &links {
            assert!(sim.link_faults(*l).trojan.is_some());
        }
        assert!(sim.link_faults(LinkId(40)).trojan.is_none());
    }

    #[test]
    fn target_defaults_to_the_apps_primary() {
        let sc = Scenario::paper_default(AppSpec::facesim(), Strategy::S2sLob);
        assert_eq!(
            sc.target,
            TargetSpec::dest((AppSpec::facesim().primary.0 & 0xF) as u8)
        );
    }

    #[test]
    fn traffic_source_honours_schedule() {
        let sc = Scenario::paper_default(AppSpec::blackscholes(), Strategy::Unprotected);
        let mesh = Mesh::paper();
        let mut src = sc.build_traffic(&mesh);
        assert!(!src.done(), "not done before the schedule is polled out");
        let mut out = Vec::new();
        src.poll(sc.inject_until + 1, &mut out);
        assert!(out.is_empty(), "no injection past the schedule");
        assert!(src.done(), "done once polled past the schedule");
    }
}
