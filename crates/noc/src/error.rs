//! Typed simulation errors.
//!
//! [`crate::Simulator::try_step`], the simulator's one guarded entry
//! point, returns these instead of panicking or silently spinning, so a
//! guarded run of [`crate::Simulator::drive`] can distinguish "the
//! network stalled" from "the simulator's own state is corrupt" from
//! "the requested degradation is impossible".

use crate::invariants::Violation;
use crate::watchdog::StallReport;
use noc_types::LinkId;

/// Why a guarded simulation run could not continue.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The watchdog diagnosed a deadlock/livelock. The simulator remains
    /// usable: callers typically quarantine the culprit link and resume.
    Stalled(Box<StallReport>),
    /// Quarantining/killing links left some router pair unroutable; the
    /// mesh cannot degrade gracefully past this point.
    MeshDisconnected {
        /// Cycle the fatal quarantine was attempted.
        cycle: u64,
        /// The full dead-link set that disconnected the mesh.
        dead: Vec<LinkId>,
    },
    /// Runtime invariant checking found protocol violations — the
    /// simulator's micro-architectural state is corrupt and results can
    /// no longer be trusted.
    InvariantViolations {
        /// Cycle of the failing audit.
        cycle: u64,
        /// Every violation the audit found.
        violations: Vec<Violation>,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Stalled(report) => write!(f, "{report}"),
            SimError::MeshDisconnected { cycle, dead } => write!(
                f,
                "mesh disconnected at cycle {cycle}: {} dead links leave \
                 some pair unroutable",
                dead.len()
            ),
            SimError::InvariantViolations { cycle, violations } => write!(
                f,
                "{} invariant violation(s) at cycle {cycle}: {}",
                violations.len(),
                violations
                    .first()
                    .map(|v| v.what.as_str())
                    .unwrap_or("<none>")
            ),
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::watchdog::StallKind;

    #[test]
    fn errors_render_their_diagnosis() {
        let e = SimError::Stalled(Box::new(StallReport {
            cycle: 500,
            kind: StallKind::GlobalDeadlock { idle_cycles: 200 },
            resident_flits: 9,
            queued_flits: 4,
            delivered_flits: 77,
            heartbeat: None,
        }));
        assert!(e.to_string().contains("global deadlock"));

        let e = SimError::MeshDisconnected {
            cycle: 10,
            dead: vec![LinkId(1), LinkId(2)],
        };
        assert!(e.to_string().contains("2 dead links"));

        let e = SimError::InvariantViolations {
            cycle: 3,
            violations: vec![Violation {
                router: 1,
                what: "credits exceed depth".into(),
            }],
        };
        assert!(e.to_string().contains("credits exceed depth"));
    }

    #[test]
    fn error_trait_is_implemented() {
        let e: Box<dyn std::error::Error> = Box::new(SimError::MeshDisconnected {
            cycle: 0,
            dead: vec![],
        });
        assert!(!e.to_string().is_empty());
    }
}
