//! Differential conformance for the NoC simulator.
//!
//! The optimized simulator in `crates/noc` earns its performance with
//! allocation-free phase loops, bitmask allocators, and table-driven
//! SECDED — all of which are easy places to hide a subtle bug. This crate
//! checks it against two independent authorities:
//!
//! 1. [`oracle::RefSim`] — a deliberately naive reference model of the
//!    paper's protocol (XY routing, SECDED per hop, NACK/retransmission,
//!    TASP trojans, threat-detector classification) that predicts
//!    conserved quantities and end states without modelling the pipeline;
//! 2. the network-wide invariant oracles on the simulator itself
//!    (`Simulator::check_network_invariants`): credit conservation, flit
//!    uniqueness, ECC soundness, and watchdog consistency.
//!
//! [`diff::run_differential`] runs a [`scenario::Scenario`] through the
//! real simulator in lockstep with the oracle, comparing every epoch.
//! [`scenario::Scenario::generate`] samples random scenarios from a seed;
//! [`shrink::shrink`] reduces a failing scenario to a minimal reproducer
//! that serializes to JSON (see [`noc_sim::json`]) for replay via the
//! `conformance_repro` binary.

pub mod diff;
pub mod oracle;
pub mod scenario;
pub mod shrink;

pub use diff::{
    divergence_artifact, run_differential, run_differential_threads, DiffReport, Divergence,
};
pub use oracle::{Expectation, RefSim};
pub use scenario::{
    PacketSpec, Rng, Scenario, StuckSpec, TrojanSpec, TOPOLOGY_DEGRADED, TOPOLOGY_MESH,
    TOPOLOGY_TORUS,
};
pub use shrink::shrink;
