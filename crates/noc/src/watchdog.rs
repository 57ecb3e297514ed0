//! Deadlock/livelock watchdog.
//!
//! A trojan-driven NACK storm does not crash the simulator — it starves
//! it: flits sit in retransmission buffers forever, back-pressure fills
//! every upstream buffer, and `run_to_quiescence` spins until its cycle
//! budget runs out with nothing to show but a timeout. The watchdog turns
//! that silent spin into a structured [`StallReport`] the caller can act
//! on (quarantine the link, reroute, or abort the run with a diagnosis).
//!
//! Three detectors, most specific first:
//!
//! 1. **Retransmission livelock** — one entry has been driven onto the
//!    same link [`WatchdogConfig::retx_attempt_limit`] times without an
//!    ACK. This is the signature of a permanent fault or an armed trojan
//!    that obfuscation has not (yet) defeated.
//! 2. **Credit stall** — an output port holds work whose oldest entry has
//!    aged past [`WatchdogConfig::credit_stall_cycles`] while the port has
//!    made no delivery progress: classic credit back-pressure, the
//!    tree-saturation stage of the paper's DoS.
//! 3. **Global deadlock** — flits are resident somewhere in the network
//!    but nothing has been ejected for
//!    [`WatchdogConfig::global_stall_cycles`]. The chip is dead even if no
//!    single port can be blamed.

use crate::telemetry::EngineHeartbeat;
use noc_types::{Direction, FlitId, NodeId};

/// Thresholds for the three stall detectors. The defaults are sized for
/// the paper's 4×4 mesh: the longest healthy path is 6 hops × 5 stages
/// plus queueing, so hundreds of cycles without progress is pathological.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WatchdogConfig {
    /// Trip when no flit has been ejected anywhere for this many cycles
    /// while flits are resident in the network.
    pub global_stall_cycles: u64,
    /// Trip when an output port's oldest retransmission entry has waited
    /// this long with no delivery progress on the port.
    pub credit_stall_cycles: u64,
    /// Trip when one retransmission entry has been launched this many
    /// times without being acknowledged.
    pub retx_attempt_limit: u32,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        Self {
            global_stall_cycles: 1024,
            credit_stall_cycles: 512,
            retx_attempt_limit: 64,
        }
    }
}

/// What kind of stall the watchdog identified.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StallKind {
    /// Flits are in flight but nothing has been delivered network-wide.
    GlobalDeadlock {
        /// Cycles since the last ejection anywhere.
        idle_cycles: u64,
    },
    /// One output port has aged work and no delivery progress.
    CreditStall {
        /// Router owning the stalled output.
        router: NodeId,
        /// Direction of the stalled output port.
        dir: Direction,
        /// Age (cycles) of the oldest entry still waiting.
        oldest_age: u64,
    },
    /// One flit keeps being retransmitted on the same link without an ACK.
    RetxLivelock {
        /// Router owning the livelocked output.
        router: NodeId,
        /// Direction of the livelocked output port.
        dir: Direction,
        /// The flit being replayed.
        flit: FlitId,
        /// Launch attempts so far.
        attempts: u32,
    },
}

/// A structured stall diagnosis, produced instead of spinning forever.
///
/// Equality deliberately ignores [`StallReport::heartbeat`]: the
/// heartbeat is wall-clock telemetry (per-phase times, shard imbalance,
/// alert history), not simulation state, so traced/untraced and
/// checkpointed/uninterrupted runs compare equal regardless of whether
/// telemetry was armed. The checkpoint codec skips it for the same
/// reason.
#[derive(Debug, Clone, Copy, Default)]
pub struct StallReport {
    /// Cycle the watchdog tripped.
    pub cycle: u64,
    /// Which detector fired, with its evidence.
    pub kind: StallKind,
    /// Flits resident in routers when the watchdog tripped.
    pub resident_flits: usize,
    /// Flits still waiting in injection queues.
    pub queued_flits: usize,
    /// Flits delivered before the stall.
    pub delivered_flits: u64,
    /// The engine-health heartbeat at trip time, when telemetry was
    /// armed — makes a stall post-mortem self-contained.
    pub heartbeat: Option<EngineHeartbeat>,
}

impl PartialEq for StallReport {
    fn eq(&self, other: &Self) -> bool {
        self.cycle == other.cycle
            && self.kind == other.kind
            && self.resident_flits == other.resident_flits
            && self.queued_flits == other.queued_flits
            && self.delivered_flits == other.delivered_flits
    }
}

impl Eq for StallReport {}

impl StallReport {
    /// The router/direction to blame, when the stall names one. A global
    /// deadlock has no single culprit and returns `None`.
    pub fn culprit(&self) -> Option<(NodeId, Direction)> {
        match self.kind {
            StallKind::GlobalDeadlock { .. } => None,
            StallKind::CreditStall { router, dir, .. }
            | StallKind::RetxLivelock { router, dir, .. } => Some((router, dir)),
        }
    }
}

impl std::fmt::Display for StallReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.kind {
            StallKind::GlobalDeadlock { idle_cycles } => write!(
                f,
                "global deadlock at cycle {}: no ejection for {} cycles, \
                 {} flits resident, {} queued",
                self.cycle, idle_cycles, self.resident_flits, self.queued_flits
            ),
            StallKind::CreditStall {
                router,
                dir,
                oldest_age,
            } => write!(
                f,
                "credit stall at cycle {}: router {} output {:?} has held \
                 work for {} cycles without progress",
                self.cycle, router.0, dir, oldest_age
            ),
            StallKind::RetxLivelock {
                router,
                dir,
                flit,
                attempts,
            } => write!(
                f,
                "retransmission livelock at cycle {}: flit {} on router {} \
                 output {:?} launched {} times without an ACK",
                self.cycle, flit.0, router.0, dir, attempts
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_thresholds_are_ordered() {
        let c = WatchdogConfig::default();
        // The per-port detector should fire before the global one so the
        // report can name a culprit.
        assert!(c.credit_stall_cycles < c.global_stall_cycles);
        assert!(c.retx_attempt_limit > 0);
    }

    #[test]
    fn culprit_identifies_the_blamed_port() {
        let base = StallReport {
            cycle: 100,
            kind: StallKind::GlobalDeadlock { idle_cycles: 50 },
            resident_flits: 3,
            queued_flits: 0,
            delivered_flits: 10,
            heartbeat: None,
        };
        assert_eq!(base.culprit(), None);
        let named = StallReport {
            kind: StallKind::RetxLivelock {
                router: NodeId(5),
                dir: Direction::East,
                flit: FlitId(9),
                attempts: 64,
            },
            ..base
        };
        assert_eq!(named.culprit(), Some((NodeId(5), Direction::East)));
    }

    #[test]
    fn reports_render_human_readable() {
        let r = StallReport {
            cycle: 2000,
            kind: StallKind::CreditStall {
                router: NodeId(3),
                dir: Direction::North,
                oldest_age: 700,
            },
            resident_flits: 40,
            queued_flits: 12,
            delivered_flits: 100,
            heartbeat: None,
        };
        let s = r.to_string();
        assert!(s.contains("credit stall"));
        assert!(s.contains("router 3"));
    }

    #[test]
    fn equality_ignores_the_telemetry_heartbeat() {
        let base = StallReport {
            cycle: 100,
            kind: StallKind::GlobalDeadlock { idle_cycles: 50 },
            resident_flits: 3,
            queued_flits: 0,
            delivered_flits: 10,
            heartbeat: None,
        };
        let with_hb = StallReport {
            heartbeat: Some(EngineHeartbeat {
                cycle: 100,
                phase_ns: [1; crate::telemetry::PHASE_COUNT],
                group_imbalance_permille: [1000; crate::telemetry::GROUP_COUNT],
                alerts_fired: 3,
                last_alert: None,
            }),
            ..base
        };
        assert_eq!(base, with_hb, "heartbeat is side-band, not state");
    }
}
