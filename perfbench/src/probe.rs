//! The traced run's spans, timed from outside the simulator around calls
//! into each layer's public functions, plus the statistics helpers the
//! report uses.
//!
//! A disabled [`Probe`] reads no clock: every recording method takes the
//! `Option<Instant>` that [`Probe::start`] returned and does nothing with
//! `None`, so traced and untraced runs execute the same driver code.

use noc_sim::telemetry::{GROUP_COUNT, PHASE_COUNT};
use noc_sim::Simulator;
use std::time::Instant;

/// Host time spent in each layer, summed over the runs of one iteration.
#[derive(Debug, Default, Clone)]
pub struct Probe {
    on: bool,
    /// Building run inputs: `Scenario::try_build_sim` + `build_traffic`,
    /// `select_infected`, or trojan placement (ns).
    pub build_ns: u64,
    /// Standalone `Simulator::new` calls (ns).
    pub sim_new_ns: u64,
    /// Traffic generation in `noc_traffic`: `Trace::capture` + `replay`,
    /// or the `TrafficMatrix` sample links are ranked on (ns).
    pub capture_ns: u64,
    /// One sample per `Simulator::step` call (ns).
    pub step_ns: Vec<u64>,
    /// `Simulator::skip_idle_cycles` calls, calls that skipped, and their
    /// total time (ns).
    pub ff_calls: u64,
    pub ff_hits: u64,
    pub ff_ns: u64,
    /// `snapshot` + `to_bytes`, and `from_bytes` + `restore`, per round
    /// trip (ns).
    pub ser_ns: Vec<u64>,
    pub deser_ns: Vec<u64>,
    /// Encoded size of the last checkpoint (bytes).
    pub snapshot_bytes: u64,
    /// `RefSim::new` + `expectation`, timed on their own (ns).
    pub oracle_ns: u64,
    /// Telemetry phase totals and shard-group loads (`sum_max`,
    /// `sum_mean`) of every simulator the run owned.
    pub phase_ns: [u64; PHASE_COUNT],
    pub group_ns: [(u64, u64); GROUP_COUNT],
}

impl Probe {
    /// A probe that records (`on`) or stays silent.
    pub fn new(on: bool) -> Self {
        Self {
            on,
            ..Self::default()
        }
    }

    /// Whether this probe records.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Open a span: the current instant when recording, else `None`.
    #[inline]
    pub fn start(&self) -> Option<Instant> {
        self.on.then(Instant::now)
    }

    /// Nanoseconds since the span opened at `t` (0 when not recording).
    #[inline]
    pub fn lap(&self, t: Option<Instant>) -> u64 {
        t.map_or(0, ns_since)
    }

    /// Close a `Simulator::step` span.
    #[inline]
    pub fn step(&mut self, t: Option<Instant>) {
        if let Some(t) = t {
            self.step_ns.push(ns_since(t));
        }
    }

    /// Close a `Simulator::skip_idle_cycles` span that skipped `skipped`.
    #[inline]
    pub fn skip(&mut self, t: Option<Instant>, skipped: u64) {
        if let Some(t) = t {
            self.ff_ns += ns_since(t);
            self.ff_calls += 1;
            self.ff_hits += u64::from(skipped > 0);
        }
    }

    /// Arm the simulator's own phase timers when recording.
    pub fn arm(&self, sim: &mut Simulator) {
        if self.on {
            sim.set_telemetry(noc_sim::TelemetryConfig::default());
        }
    }

    /// Fold a finished simulator's telemetry counters into the probe.
    pub fn absorb(&mut self, sim: &Simulator) {
        let Some(tel) = sim.telemetry() else {
            return;
        };
        for (acc, ns) in self.phase_ns.iter_mut().zip(tel.phase_total_ns()) {
            *acc += ns;
        }
        for (acc, load) in self.group_ns.iter_mut().zip(tel.group_loads()) {
            acc.0 += load.sum_max_ns;
            acc.1 += load.sum_mean_ns;
        }
    }

    /// Add another run's spans to this one.
    pub fn merge(&mut self, other: Probe) {
        self.build_ns += other.build_ns;
        self.sim_new_ns += other.sim_new_ns;
        self.capture_ns += other.capture_ns;
        self.step_ns.extend(other.step_ns);
        self.ff_calls += other.ff_calls;
        self.ff_hits += other.ff_hits;
        self.ff_ns += other.ff_ns;
        self.ser_ns.extend(other.ser_ns);
        self.deser_ns.extend(other.deser_ns);
        self.snapshot_bytes = self.snapshot_bytes.max(other.snapshot_bytes);
        self.oracle_ns += other.oracle_ns;
        for (a, b) in self.phase_ns.iter_mut().zip(other.phase_ns) {
            *a += b;
        }
        for (a, b) in self.group_ns.iter_mut().zip(other.group_ns) {
            a.0 += b.0;
            a.1 += b.1;
        }
    }
}

/// Nanoseconds since `t`.
#[inline]
pub fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// The `q`-quantile (0..=1) of `v` by nearest rank; 0 for no samples.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = (q * s.len() as f64).ceil().max(1.0) as usize;
    s[rank.min(s.len()) - 1]
}

/// The median of `v` (mean of the middle pair for an even count).
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// 64-bit FNV-1a over a stream of words: the simulated-outcome
/// fingerprint.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Mix one word in.
    pub fn word(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}
