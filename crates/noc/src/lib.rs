//! Cycle-accurate simulator for a concentrated 2-D mesh NoC with
//! switch-to-switch SECDED links, retransmission buffers, fault injection
//! (transient / permanent / TASP hardware trojan), and the paper's threat
//! detector + L-Ob mitigation wired into every router.
//!
//! # Microarchitecture (paper configuration)
//!
//! * 4×4 mesh, concentration 4 (64 cores), two unidirectional links per
//!   neighbour pair (48 links);
//! * 4 virtual channels per port, 4 × 64-bit buffer slots per VC;
//! * 5-stage pipeline: **BW/RC → VA → SA → ST → LT** with credit-based
//!   flow control, XY dimension-order routing, round-robin arbitration;
//! * retransmission buffers after the crossbar (the paper's worst case) or
//!   per-VC, selected by [`config::RetxScheme`];
//! * a SECDED encode on every link egress and decode + threat-detector
//!   check on every ingress; NACKs replay from the retransmission buffer.
//!
//! # Phase ordering
//!
//! Each simulated cycle executes the stages in *reverse* pipeline order so
//! that data written by an earlier stage is not consumed until the next
//! cycle, giving each hop the full 5-cycle latency:
//!
//! 1. link delivery (LT completion: ECC decode, detector verdict, ACK/NACK);
//! 2. ACK/NACK processing at the upstream output;
//! 3. link launch (head of retransmission buffer enters the wire);
//! 4. ST — switch-allocation winners from the previous cycle cross the
//!    crossbar into the output stage;
//! 5. SA — round-robin switch allocation;
//! 6. VA — round-robin virtual-channel allocation;
//! 7. RC — route computation for freshly buffered head flits;
//! 8. injection — cores push flits into local input VCs (BW).

pub(crate) mod activeset;
pub mod arbiter;
pub mod config;
pub mod error;
pub mod fault;
pub mod input;
pub mod invariants;
pub mod link;
pub mod message;
pub mod metrics;
pub mod output;
pub(crate) mod par;
pub mod router;
pub mod routing;
pub mod sim;
pub mod snapshot;
#[cfg(test)]
mod snapshot_golden;
pub mod stats;
pub mod telemetry;
pub mod trace;
pub mod watchdog;

pub use config::{QosMode, RetxScheme, Sabotage, SimConfig, TraceConfig};
pub use error::SimError;
pub use fault::LinkFaults;
pub use message::SimEvent;
pub use metrics::{LinkMetrics, MetricsRegistry, RouterMetrics};
pub use sim::{Simulator, TrafficSource};
pub use snapshot::{
    config_hash, Checkpointer, Codec, Persist, Reader, SimSnapshot, SnapshotError, Writer,
    SNAPSHOT_VERSION,
};
pub use stats::{SimStats, Snapshot};
pub use telemetry::{
    default_rules, parse_prometheus, prom_value, prometheus_text, AlertClass, AlertEngine,
    AlertRecord, AlertRule, EngineHeartbeat, Heartbeat, PromSample, QuantileSketch, Telemetry,
    TelemetryConfig, TelemetryOut, WindowObs,
};
pub use trace::{ChannelSink, JsonlSink, Record, TraceKind, TraceRecorder, TraceSink};
pub use watchdog::{StallKind, StallReport, WatchdogConfig};
