//! Scenario orchestration for the paper's experiments: baselines,
//! infected-link selection, experiment runners, and parallel sweeps.
//!
//! This crate is the public face of the reproduction. It wires the
//! substrates together:
//!
//! * [`scenario`] — declarative description of one experiment (application
//!   model, attack placement, defence strategy) and its compilation into a
//!   configured [`noc_sim::Simulator`];
//! * [`e2e`] — the Fort-NoCs-style end-to-end obfuscation baseline (and
//!   why it fails against header-targeting trojans);
//! * [`reroute`] — the Ariadne-style rerouting baseline (disable infected
//!   links, rebuild deadlock-free tables);
//! * [`infection`] — attacker-side link selection (§III of the paper);
//! * [`experiment`] — run loops producing the time series and aggregate
//!   numbers behind Figs. 10–12;
//! * [`campaign`] — deterministic fault-injection campaigns driving the
//!   resilience layer (watchdog, bounded retransmission, quarantine)
//!   through seeded failure scenarios;
//! * [`sweep`] — crossbeam-powered parallel parameter sweeps.

pub mod campaign;
pub mod e2e;
pub mod experiment;
pub mod infection;
pub mod report;
pub mod reroute;
pub mod scenario;
pub mod sweep;
pub mod viz;

pub use campaign::{run_campaign, ScenarioReport};
pub use experiment::{run_built, run_scenario, RunResult};
pub use infection::select_infected;
pub use scenario::{Scenario, Strategy};

/// The names almost every downstream user needs.
pub mod prelude {
    pub use crate::campaign::{run_campaign, ScenarioReport};
    pub use crate::experiment::{run_scenario, RunResult};
    pub use crate::infection::select_infected;
    pub use crate::scenario::{Scenario, Strategy};
    pub use noc_mitigation::{FaultClass, LobPlan, ObfuscationMethod};
    pub use noc_power::{MitigationPower, NocPower, RouterPower, TaspPower};
    pub use noc_sim::{
        QosMode, RetxScheme, SimConfig, SimError, SimEvent, Simulator, StallKind, StallReport,
        TrafficSource, WatchdogConfig,
    };
    pub use noc_traffic::{AppModel, AppSpec, Pattern, SyntheticTraffic, TrafficMatrix};
    pub use noc_trojan::{TargetKind, TargetSpec, TaspConfig, TaspHt};
    pub use noc_types::{CoreId, Flit, Header, LinkId, Mesh, NodeId, Packet, VcId};
}
