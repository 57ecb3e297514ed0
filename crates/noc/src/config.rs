//! Simulator configuration.

use crate::watchdog::WatchdogConfig;
use noc_mitigation::DetectorConfig;
use noc_types::Mesh;

/// Where the retransmission buffers live (the paper evaluates both).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetxScheme {
    /// Shared slots per output port, after the crossbar — the paper's
    /// worst case (head-of-line blocking across VCs) and the default.
    Output,
    /// Slots partitioned per VC: a NACKed flit only blocks its own VC.
    PerVc,
}

/// Quality-of-service mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QosMode {
    /// Plain best-effort network.
    None,
    /// SurfNoC-style time-division multiplexing into `domains` groups.
    /// VCs are partitioned round-robin across domains and a domain's flits
    /// may only win switch allocation / launch on its time slots.
    Tdm {
        /// Number of non-interfering domains.
        domains: u8,
    },
}

/// A deliberate, opt-in defect compiled into the simulator's cycle loop.
///
/// Sabotage exists for one purpose: proving that the differential
/// conformance oracle (`crates/conformance`) actually detects real bugs
/// and shrinks them to small counterexamples. Each variant models a class
/// of regression a performance rewrite could plausibly introduce. All
/// production configurations leave `SimConfig::sabotage` at `None`, and
/// the hooks reduce to a single `Option` test on that path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sabotage {
    /// The named router never performs switch allocation: every flit that
    /// reaches one of its input VCs stalls forever (a dropped SA grant).
    StallSaRouter {
        /// Router whose SA stage is disabled.
        router: u16,
    },
    /// Every `every`-th credit return arriving upstream evaporates
    /// instead of replenishing the output's credit counter (a
    /// flow-control leak that slowly strangles a VC).
    LeakCredit {
        /// Period of the leak (1 = drop every credit).
        every: u32,
    },
    /// Every `every`-th ejected flit is counted twice in
    /// `delivered_flits` (a statistics-accounting bug).
    OvercountDelivered {
        /// Period of the overcount (1 = double-count every ejection).
        every: u32,
    },
    /// The quiescence fast-forward engine overshoots: whenever a skip
    /// window is bounded by the traffic source's injection horizon (not
    /// by the caller's cycle budget), it skips one cycle *past* the
    /// horizon — exactly the off-by-one a horizon derivation bug would
    /// produce, swallowing the first injection of the next burst.
    OverSkip,
}

// A scenario file's `sabotage` member: an object tagged by `kind`.
crate::json::json_tagged!(Sabotage "kind" {
    "stall_sa_router" => StallSaRouter { router },
    "leak_credit" => LeakCredit { every },
    "overcount_delivered" => OvercountDelivered { every },
    "over_skip" => OverSkip,
});

/// Structured-tracing configuration (see [`crate::trace`]). Absent from
/// the config (`SimConfig::trace = None`), the simulator holds no
/// recorder and every emission site reduces to one `Option` test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Ring-buffer capacity in records; the oldest record is evicted
    /// (and counted) once the buffer is full. Sinks attached via
    /// [`crate::Simulator::set_trace_sink`] still see the full stream.
    pub capacity: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        Self { capacity: 65536 }
    }
}

/// Full simulator configuration. `SimConfig::paper()` reproduces the
/// evaluation platform of the paper exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// The mesh to simulate.
    pub mesh: Mesh,
    /// Virtual channels per port.
    pub vcs: u8,
    /// Buffer slots (flits) per VC.
    pub vc_depth: u8,
    /// Retransmission buffer slots per output port (or per VC under
    /// [`RetxScheme::PerVc`]).
    pub retx_depth: u8,
    /// Retransmission scheme (output-shared or per-VC).
    pub retx_scheme: RetxScheme,
    /// Quality-of-service mode (none, or SurfNoC-style TDM domains).
    pub qos: QosMode,
    /// Enable the threat detector + L-Ob mitigation path. When off, NACKs
    /// trigger plain retransmission forever (Fig. 11(a) behaviour).
    pub mitigation: bool,
    /// Threat-detector thresholds (fault classification and escalation).
    pub detector: DetectorConfig,
    /// Injection-queue length (flits) past which a core counts as "full"
    /// for the Fig. 11/12 utilisation bins.
    pub injection_full_threshold: usize,
    /// Record a statistics snapshot every this many cycles (1 = every
    /// cycle; larger values keep long runs cheap).
    pub snapshot_interval: u64,
    /// An output port whose oldest retransmission entry has waited this
    /// many cycles counts as "blocked" in the router statistics.
    pub blocked_threshold: u64,
    /// Per-entry retransmission budget. `None` reproduces the paper's
    /// unbounded replay (Fig. 11(a) requires it: the DoS *is* the endless
    /// retransmission). `Some(n)`: once an entry has been launched `n`
    /// times, the simulator escalates — force L-Ob if mitigation is on and
    /// the entry is not yet obfuscated, else quarantine the link and
    /// reroute around it (graceful degradation).
    pub retry_budget: Option<u32>,
    /// Audit every router against the wormhole/flow-control invariants
    /// every this many cycles during guarded runs
    /// ([`crate::Simulator::try_step`]). `None` disables the
    /// audit (the default: it is O(routers × ports × vcs) per check).
    pub check_invariants_every: Option<u64>,
    /// Arm the deadlock/livelock watchdog for guarded runs. `None` keeps
    /// the legacy spin-until-budget behaviour.
    pub watchdog: Option<WatchdogConfig>,
    /// Arm the structured event tracer ([`crate::trace`]). `None` (the
    /// default) records nothing and perturbs nothing.
    pub trace: Option<TraceConfig>,
    /// Compile a deliberate defect into the cycle loop (conformance-oracle
    /// self-test only — see [`Sabotage`]). `None` in every production
    /// configuration.
    pub sabotage: Option<Sabotage>,
    /// Worker threads for the sharded cycle engine. `None` or `Some(1)`
    /// selects the sequential path (today's exact code, no pool, no
    /// barriers). `Some(n)` splits the mesh into `n` contiguous router
    /// bands executed in parallel — bit-identical to the sequential
    /// engine at every thread count (see `crate::par`). Clamped to the
    /// router count; most useful on research-scale meshes (16×16, 32×32).
    pub threads: Option<usize>,
}

impl SimConfig {
    /// The paper's platform: 64 cores, 16 routers, 4 VCs × 4 slots, output
    /// retransmission buffers, mitigation on.
    pub fn paper() -> Self {
        Self {
            mesh: Mesh::paper(),
            vcs: 4,
            vc_depth: 4,
            retx_depth: 4,
            retx_scheme: RetxScheme::Output,
            qos: QosMode::None,
            mitigation: true,
            detector: DetectorConfig::default(),
            injection_full_threshold: 16,
            snapshot_interval: 1,
            blocked_threshold: 32,
            retry_budget: None,
            check_invariants_every: None,
            watchdog: None,
            trace: None,
            sabotage: None,
            threads: None,
        }
    }

    /// The paper platform hardened with the resilience layer: watchdog
    /// armed, bounded retransmission, and periodic invariant audits. This
    /// is what fault-injection campaigns run under.
    pub fn paper_resilient() -> Self {
        Self {
            retry_budget: Some(32),
            check_invariants_every: Some(64),
            watchdog: Some(WatchdogConfig::default()),
            ..Self::paper()
        }
    }

    /// Same platform with the mitigation path disabled.
    pub fn paper_unprotected() -> Self {
        Self {
            mitigation: false,
            ..Self::paper()
        }
    }

    /// Check the bounds the engine is built for: at least one VC, buffer
    /// slot, retransmission slot and retry; at most 64 (port, VC) pairs
    /// per router, the width of the allocators' request masks; two VCs
    /// on a torus, for its dateline classes; and a sabotage that can
    /// fire as written (a stalled router the mesh has, a period of at
    /// least 1). [`Simulator::new`] panics on some of these and the
    /// cycle loop silently misbehaves on the rest, so a decoder of
    /// untrusted input calls this first. The mesh builder enforces the
    /// mesh's own dimensions. Names the first field out of bounds.
    ///
    /// [`Simulator::new`]: crate::Simulator::new
    pub fn validate(&self) -> Result<(), ConfigError> {
        let torus = *self.mesh.topology() == noc_types::Topology::Torus;
        let at_least_1 = "must be at least 1";
        let pairs = "(4 + concentration) x vcs exceeds 64";
        let dateline = "a torus needs 2, one per dateline class";
        let (sabotage_ok, sabotage_what) = match self.sabotage {
            Some(Sabotage::StallSaRouter { router }) => (
                usize::from(router) < self.mesh.routers(),
                "stall_sa_router names a router the mesh lacks",
            ),
            Some(Sabotage::LeakCredit { every } | Sabotage::OvercountDelivered { every }) => {
                (every >= 1, "every must be at least 1")
            }
            Some(Sabotage::OverSkip) | None => (true, ""),
        };
        [
            ("vcs", self.vcs >= 1, at_least_1),
            ("vcs", self.ports() * self.vcs as usize <= 64, pairs),
            ("vcs", !torus || self.vcs >= 2, dateline),
            ("vc_depth", self.vc_depth >= 1, at_least_1),
            ("retx_depth", self.retx_depth >= 1, at_least_1),
            ("retry_budget", self.retry_budget != Some(0), at_least_1),
            ("sabotage", sabotage_ok, sabotage_what),
        ]
        .into_iter()
        .find(|&(_, ok, _)| !ok)
        .map_or(Ok(()), |(field, _, what)| Err(ConfigError { field, what }))
    }

    /// Ports per router: 4 network directions + `concentration` locals.
    pub fn ports(&self) -> usize {
        4 + self.mesh.concentration() as usize
    }

    /// The TDM domain a VC belongs to (VCs are striped across domains).
    pub fn domain_of_vc(&self, vc: u8) -> u8 {
        match self.qos {
            QosMode::None => 0,
            QosMode::Tdm { domains } => vc % domains,
        }
    }

    /// Whether `vc` may use the switch/link during `cycle`.
    pub fn tdm_slot_open(&self, vc: u8, cycle: u64) -> bool {
        match self.qos {
            QosMode::None => true,
            QosMode::Tdm { domains } => (cycle % domains as u64) as u8 == self.domain_of_vc(vc),
        }
    }
}

/// A [`SimConfig`] value outside the bounds the engine is built for
/// ([`SimConfig::validate`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConfigError {
    /// The field at fault.
    pub field: &'static str,
    /// The bound it breaks.
    pub what: &'static str,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.field, self.what)
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_matches_evaluation_platform() {
        let c = SimConfig::paper();
        assert_eq!(c.mesh.routers(), 16);
        assert_eq!(c.mesh.cores(), 64);
        assert_eq!(c.vcs, 4);
        assert_eq!(c.vc_depth, 4);
        assert_eq!(c.retx_scheme, RetxScheme::Output);
        assert_eq!(c.ports(), 8);
        assert!(c.mitigation);
        assert!(!SimConfig::paper_unprotected().mitigation);
        // The resilience features are strictly opt-in: the paper config
        // must reproduce the unbounded-retransmission DoS untouched.
        assert_eq!(c.retry_budget, None);
        assert_eq!(c.check_invariants_every, None);
        assert_eq!(c.watchdog, None);
    }

    #[test]
    fn resilient_config_arms_every_guard() {
        let c = SimConfig::paper_resilient();
        assert!(c.retry_budget.is_some());
        assert!(c.check_invariants_every.is_some());
        assert!(c.watchdog.is_some());
        // Everything else stays the paper platform.
        assert_eq!(c.vcs, SimConfig::paper().vcs);
        assert_eq!(c.retx_scheme, SimConfig::paper().retx_scheme);
    }

    #[test]
    fn tdm_partitions_vcs_and_slots() {
        let mut c = SimConfig::paper();
        c.qos = QosMode::Tdm { domains: 2 };
        assert_eq!(c.domain_of_vc(0), 0);
        assert_eq!(c.domain_of_vc(1), 1);
        assert_eq!(c.domain_of_vc(2), 0);
        assert_eq!(c.domain_of_vc(3), 1);
        // Even cycles serve domain 0, odd cycles domain 1.
        assert!(c.tdm_slot_open(0, 0));
        assert!(!c.tdm_slot_open(0, 1));
        assert!(c.tdm_slot_open(1, 1));
        assert!(!c.tdm_slot_open(1, 0));
    }

    #[test]
    fn no_qos_opens_every_slot() {
        let c = SimConfig::paper();
        for vc in 0..4 {
            for cycle in 0..4 {
                assert!(c.tdm_slot_open(vc, cycle));
            }
        }
    }

    #[test]
    fn validate_names_the_first_field_out_of_bounds() {
        fn field(edit: impl Fn(&mut SimConfig)) -> Result<(), &'static str> {
            let mut c = SimConfig::paper();
            edit(&mut c);
            c.validate().map_err(|e| e.field)
        }
        assert_eq!(field(|_| {}), Ok(()));
        assert_eq!(SimConfig::paper_resilient().validate(), Ok(()));
        assert_eq!(field(|c| c.vcs = 0), Err("vcs"));
        // Eight ports: 8 VCs fill the 64 request bits, 9 overflow them.
        assert_eq!(field(|c| c.vcs = 8), Ok(()));
        assert_eq!(field(|c| c.vcs = 9), Err("vcs"));
        assert_eq!(
            field(|c| {
                c.mesh = Mesh::new_torus(4, 4, 4);
                c.vcs = 1;
            }),
            Err("vcs")
        );
        assert_eq!(field(|c| c.vc_depth = 0), Err("vc_depth"));
        assert_eq!(field(|c| c.retx_depth = 0), Err("retx_depth"));
        assert_eq!(field(|c| c.retry_budget = Some(0)), Err("retry_budget"));
        assert_eq!(field(|c| c.retry_budget = Some(1)), Ok(()));
        // The paper mesh has routers 0..16.
        let sabotage = |s| field(move |c| c.sabotage = Some(s));
        assert_eq!(sabotage(Sabotage::StallSaRouter { router: 15 }), Ok(()));
        assert_eq!(
            sabotage(Sabotage::StallSaRouter { router: 16 }),
            Err("sabotage")
        );
        assert_eq!(sabotage(Sabotage::LeakCredit { every: 1 }), Ok(()));
        assert_eq!(sabotage(Sabotage::LeakCredit { every: 0 }), Err("sabotage"));
        assert_eq!(sabotage(Sabotage::OvercountDelivered { every: 1 }), Ok(()));
        assert_eq!(
            sabotage(Sabotage::OvercountDelivered { every: 0 }),
            Err("sabotage")
        );
        assert_eq!(sabotage(Sabotage::OverSkip), Ok(()));
    }
}
