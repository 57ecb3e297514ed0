//! Side-band runtime telemetry: engine self-profiling, Prometheus
//! exposition, health heartbeats, and an online alert-rule engine over
//! the simulator's own counters.
//!
//! # Determinism contract
//!
//! Telemetry observes, it never steers, and it keeps no second copy of a
//! statistic the simulator already keeps: latency quantiles are
//! [`SimStats::latency_percentile`], retransmission attempts come from
//! the [`MetricsRegistry`]'s per-link histograms, and skipped cycles from
//! the simulator. The plane splits into two halves with different
//! guarantees:
//!
//! * **the deterministic observer** — the [`AlertEngine`] consumes only
//!   per-interval [`Snapshot`](crate::stats::Snapshot) deltas and how far
//!   the latency histogram grew since the previous window, all committed
//!   in deterministic order. Its verdicts are bit-identical across
//!   thread counts and across runs.
//! * **wall-clock observers** — the per-phase timers, shard-imbalance
//!   gauges, and engine timeline read `Instant::now()`. Their *output*
//!   varies run to run, but nothing they measure ever feeds back into
//!   simulation state, so arming them cannot change a single simulated
//!   bit (proven by the zero-perturbation tests in `htnoc-core`).
//!
//! When telemetry is disarmed (the default) the simulator holds no
//! [`Telemetry`] and every hook is a single `Option`/bool test: the
//! steady-state loop stays allocation-free and the committed goldens are
//! untouched.
//!
//! # Pieces
//!
//! * [`Telemetry`] — the simulator-side aggregate: per-phase nanosecond
//!   totals, per-barrier shard load gauges, a bounded engine
//!   timeline exportable as Chrome `trace_event` JSON, and the alert
//!   engine with its latency-window base.
//! * [`AlertRule`]/[`AlertEngine`] — declarative threshold rules
//!   evaluated once per snapshot interval, emitting [`AlertRecord`]s
//!   (also mirrored onto the trace bus as `TraceKind::Alert`).
//! * [`prometheus_text`]/[`parse_prometheus`] — text-format exposition of
//!   the metrics registry, the statistics and the telemetry gauges, and
//!   the strict parser CI validates it with.
//! * [`Heartbeat`]/[`TelemetryOut`] — the liveness record long-running
//!   drivers append to disk (atomically) so a stuck run is diagnosable
//!   from the filesystem.

use crate::json::{self, Codec, Fields, JsonError};
use crate::metrics::MetricsRegistry;
use crate::stats::SimStats;
use std::collections::VecDeque;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

// ---------------------------------------------------------------------
// Engine phases and per-cycle profiling
// ---------------------------------------------------------------------

/// Number of pipeline phases the engine executes per cycle.
pub const PHASE_COUNT: usize = 7;
/// Number of barrier groups per cycle in the sharded engine.
pub const GROUP_COUNT: usize = 3;

/// Stable labels for the seven engine phases, in execution order
/// (reverse pipeline order, as `noc::par` runs them). The G1 label also
/// absorbs the active-set refresh that precedes link delivery.
pub const PHASE_LABELS: [&str; PHASE_COUNT] = [
    "link_delivery",
    "resolve_holds",
    "acks_credits",
    "launch",
    "switch_traversal",
    "switch_alloc",
    "va_rc",
];

/// Stable labels for the three barrier groups.
pub const GROUP_LABELS: [&str; GROUP_COUNT] = ["g1", "g2", "g3"];

/// Which barrier group each phase index belongs to.
pub const PHASE_GROUP: [usize; PHASE_COUNT] = [0, 0, 1, 1, 2, 2, 2];

/// Per-barrier shard-load gauge: how unevenly the shards split the work.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GroupLoad {
    /// Largest single-shard time ever seen for this group (ns).
    pub max_shard_ns: u64,
    /// Sum over cycles of the per-cycle max shard time (ns).
    pub sum_max_ns: u64,
    /// Sum over cycles of the per-cycle mean shard time (ns).
    pub sum_mean_ns: u64,
    /// Cycles sampled.
    pub samples: u64,
    /// Worst per-cycle max/mean ratio observed, in permille (1000 =
    /// perfectly balanced).
    pub worst_imbalance_permille: u64,
}

impl GroupLoad {
    /// Average max/mean shard-time ratio in permille over all sampled
    /// cycles (1000 = perfectly balanced; 0 when never sampled).
    pub fn imbalance_permille(&self) -> u64 {
        (self.sum_max_ns * 1000)
            .checked_div(self.sum_mean_ns)
            .unwrap_or(0)
    }
}

/// One sampled span of the engine timeline (a shard executing one
/// barrier group on one cycle).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimelineSlice {
    /// Simulation cycle.
    pub cycle: u64,
    /// Shard index.
    pub shard: u16,
    /// Barrier group index (0..3).
    pub group: u8,
    /// Span start, nanoseconds since the telemetry epoch.
    pub start_ns: u64,
    /// Span duration in nanoseconds.
    pub dur_ns: u64,
}

// ---------------------------------------------------------------------
// Alerts
// ---------------------------------------------------------------------

/// Which alert rule fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertClass {
    /// Windowed p99 end-to-end latency exceeded its ceiling.
    P99Latency,
    /// Per-window retransmissions surged over the trailing baseline.
    RetxSurge,
    /// Some output port's oldest waiting entry aged past the ceiling.
    CreditStall,
    /// Per-window ejection rate collapsed vs. the trailing baseline
    /// while flits were resident and credits were backing up.
    EjectionCollapse,
}

impl AlertClass {
    /// Stable machine-readable label.
    pub fn label(self) -> &'static str {
        match self {
            AlertClass::P99Latency => "p99_latency",
            AlertClass::RetxSurge => "retx_surge",
            AlertClass::CreditStall => "credit_stall",
            AlertClass::EjectionCollapse => "ejection_collapse",
        }
    }

    /// Parse a [`AlertClass::label`] back.
    pub fn from_label(s: &str) -> Option<AlertClass> {
        AlertClass::ALL.into_iter().find(|c| c.label() == s)
    }

    const ALL: [AlertClass; 4] = [
        AlertClass::P99Latency,
        AlertClass::RetxSurge,
        AlertClass::CreditStall,
        AlertClass::EjectionCollapse,
    ];
}

/// One fired alert.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AlertRecord {
    /// Cycle of the snapshot window that tripped the rule.
    pub cycle: u64,
    /// Which rule fired.
    pub class: AlertClass,
    /// The observed value that crossed the rule's threshold.
    pub value: u64,
    /// The effective threshold it crossed.
    pub threshold: u64,
}

/// A declarative alert rule, evaluated once per snapshot interval.
/// Every rule fires on the *rising edge* of its condition (it must go
/// false before it can fire again), so a sustained attack produces one
/// onset alert per excursion rather than one per window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertRule {
    /// Fire when the per-window p99 end-to-end latency exceeds `cycles`
    /// for `windows` consecutive snapshot intervals. Windows in which no
    /// packet finished are skipped: they neither extend nor break the
    /// streak.
    P99LatencyAbove {
        /// Latency ceiling in cycles.
        cycles: u64,
        /// Consecutive windows required before firing.
        windows: u32,
    },
    /// Fire when retransmissions summed over the most recent trailing
    /// windows exceed `factor_permille`/1000 times the sum over the
    /// trailing windows *before* those (and at least `min_retx`
    /// absolute). Comparing trailing sums rather than single windows
    /// makes onset detection robust to short snapshot intervals, where a
    /// sustained one-retx-per-cycle NACK storm never spikes any single
    /// window.
    RetxSurge {
        /// Surge factor vs. the preceding-trail baseline, in permille.
        factor_permille: u64,
        /// Absolute recent-sum floor below which no surge is declared.
        min_retx: u64,
    },
    /// Fire when any output port's oldest waiting entry is older than
    /// `cycles` (tree saturation, before the watchdog's own threshold).
    CreditStallAge {
        /// Age ceiling in cycles.
        cycles: u64,
    },
    /// Fire when per-window delivered flits drop below
    /// `factor_permille`/1000 of the trailing mean while the trailing
    /// mean is at least `min_baseline` and some port shows credit
    /// back-pressure older than `min_credit_age` (distinguishing attack
    /// collapse from benign end-of-traffic drain).
    EjectionCollapse {
        /// Collapse factor vs. the trailing baseline, in permille.
        factor_permille: u64,
        /// Minimum trailing baseline (flits/window) for the rule to arm.
        min_baseline: u64,
        /// Minimum credit-stall age (cycles) accompanying the collapse.
        min_credit_age: u64,
    },
}

impl AlertRule {
    /// The class of alert this rule emits.
    pub fn class(&self) -> AlertClass {
        match self {
            AlertRule::P99LatencyAbove { .. } => AlertClass::P99Latency,
            AlertRule::RetxSurge { .. } => AlertClass::RetxSurge,
            AlertRule::CreditStallAge { .. } => AlertClass::CreditStall,
            AlertRule::EjectionCollapse { .. } => AlertClass::EjectionCollapse,
        }
    }
}

/// The default rule set, sized for the paper's mesh and the campaign
/// scenarios (snapshot windows of tens of cycles).
pub fn default_rules() -> Vec<AlertRule> {
    vec![
        AlertRule::P99LatencyAbove {
            cycles: 600,
            windows: 2,
        },
        AlertRule::RetxSurge {
            factor_permille: 2000,
            min_retx: 8,
        },
        AlertRule::CreditStallAge { cycles: 300 },
        AlertRule::EjectionCollapse {
            factor_permille: 250,
            min_baseline: 40,
            min_credit_age: 64,
        },
    ]
}

/// One snapshot interval's worth of deterministic observations, the
/// input to [`AlertEngine::evaluate`].
#[derive(Debug, Clone, Copy, Default)]
pub struct WindowObs {
    /// Cycle of the snapshot.
    pub cycle: u64,
    /// p99 of the end-to-end latencies completed *this window*
    /// (`None` when no packet finished this window).
    pub p99_latency: Option<u64>,
    /// Retransmissions this window.
    pub retransmissions: u64,
    /// Flits delivered this window.
    pub delivered_flits: u64,
    /// Flits resident in routers at the snapshot.
    pub resident_flits: u64,
    /// Oldest credit-wait age (cycles) over all output ports, 0 if none.
    pub max_credit_age: u64,
}

/// How many trailing windows the surge/collapse baselines average over.
const TRAIL_WINDOWS: usize = 8;
/// Trailing windows required before baseline-relative rules arm.
const TRAIL_WARMUP: usize = 3;
/// Alert-history ring capacity.
const ALERT_HISTORY: usize = 64;

/// Evaluates a rule set against per-window observations and keeps the
/// alert history. Fully deterministic: consumes only simulation-derived
/// integers.
#[derive(Debug, Clone)]
pub struct AlertEngine {
    rules: Vec<AlertRule>,
    /// Per-rule consecutive-hit streak (for windowed rules).
    streaks: Vec<u32>,
    /// Per-rule "condition held last window" (rising-edge detection).
    held: Vec<bool>,
    retx_trail: VecDeque<u64>,
    eject_trail: VecDeque<u64>,
    /// Most recent alerts (bounded ring, oldest evicted).
    history: VecDeque<AlertRecord>,
    fired_total: u64,
    fired_by_class: [u64; 4],
    first_alert_cycle: Option<u64>,
}

impl AlertEngine {
    /// An engine over `rules`.
    pub fn new(rules: Vec<AlertRule>) -> Self {
        let n = rules.len();
        Self {
            rules,
            streaks: vec![0; n],
            held: vec![false; n],
            retx_trail: VecDeque::with_capacity(2 * TRAIL_WINDOWS),
            eject_trail: VecDeque::with_capacity(TRAIL_WINDOWS),
            history: VecDeque::with_capacity(ALERT_HISTORY),
            fired_total: 0,
            fired_by_class: [0; 4],
            first_alert_cycle: None,
        }
    }

    /// The configured rules.
    pub fn rules(&self) -> &[AlertRule] {
        &self.rules
    }

    /// Total alerts fired over the engine's lifetime.
    pub fn fired_total(&self) -> u64 {
        self.fired_total
    }

    /// Alerts fired per [`AlertClass`] (indexed by `AlertClass::ALL`
    /// order: p99, retx surge, credit stall, ejection collapse).
    pub fn fired_by_class(&self, class: AlertClass) -> u64 {
        let i = AlertClass::ALL.iter().position(|&c| c == class).unwrap();
        self.fired_by_class[i]
    }

    /// Cycle of the first alert ever fired, if any.
    pub fn first_alert_cycle(&self) -> Option<u64> {
        self.first_alert_cycle
    }

    /// The bounded alert history, oldest first.
    pub fn history(&self) -> impl Iterator<Item = &AlertRecord> {
        self.history.iter()
    }

    /// The most recent alert, if any.
    pub fn last_alert(&self) -> Option<AlertRecord> {
        self.history.back().copied()
    }

    fn trail_mean(trail: &VecDeque<u64>) -> Option<u64> {
        if trail.len() < TRAIL_WARMUP {
            None
        } else {
            Some(trail.iter().sum::<u64>() / trail.len() as u64)
        }
    }

    /// (recent trailing sum including `current`, preceding trailing sum),
    /// once enough history exists for both trails.
    fn trail_sums(trail: &VecDeque<u64>, current: u64) -> Option<(u64, u64)> {
        if trail.len() < 2 * TRAIL_WINDOWS - 1 {
            return None;
        }
        // The newest TRAIL_WINDOWS−1 entries plus `current` form the
        // recent trail; the TRAIL_WINDOWS before them the baseline.
        let recent: u64 = trail.iter().rev().take(TRAIL_WINDOWS - 1).sum::<u64>() + current;
        let prior: u64 = trail
            .iter()
            .rev()
            .skip(TRAIL_WINDOWS - 1)
            .take(TRAIL_WINDOWS)
            .sum();
        Some((recent, prior))
    }

    fn push_trail(trail: &mut VecDeque<u64>, cap: usize, v: u64) {
        if trail.len() == cap {
            trail.pop_front();
        }
        trail.push_back(v);
    }

    fn fire(&mut self, rec: AlertRecord) {
        self.fired_total += 1;
        let i = AlertClass::ALL
            .iter()
            .position(|&c| c == rec.class)
            .unwrap();
        self.fired_by_class[i] += 1;
        self.first_alert_cycle.get_or_insert(rec.cycle);
        if self.history.len() == ALERT_HISTORY {
            self.history.pop_front();
        }
        self.history.push_back(rec);
    }

    /// Evaluate all rules against one window. Returns the alerts fired
    /// this window (at most one per rule).
    pub fn evaluate(&mut self, obs: &WindowObs) -> Vec<AlertRecord> {
        let mut fired = Vec::new();
        let eject_base = Self::trail_mean(&self.eject_trail);
        for r in 0..self.rules.len() {
            let rule = self.rules[r];
            // (condition-this-window, observed value, effective threshold)
            let (cond, value, threshold) = match rule {
                AlertRule::P99LatencyAbove { cycles, .. } => {
                    // A window in which no packet finished says nothing
                    // about latency: it leaves the streak and the rising
                    // edge as they were.
                    let Some(p99) = obs.p99_latency else {
                        continue;
                    };
                    (p99 > cycles, p99, cycles)
                }
                AlertRule::RetxSurge {
                    factor_permille,
                    min_retx,
                } => match Self::trail_sums(&self.retx_trail, obs.retransmissions) {
                    Some((recent, prior)) => {
                        let threshold = (prior * factor_permille / 1000).max(min_retx);
                        (recent >= threshold, recent, threshold)
                    }
                    None => (false, obs.retransmissions, min_retx),
                },
                AlertRule::CreditStallAge { cycles } => {
                    (obs.max_credit_age > cycles, obs.max_credit_age, cycles)
                }
                AlertRule::EjectionCollapse {
                    factor_permille,
                    min_baseline,
                    min_credit_age,
                } => match eject_base {
                    Some(base) if base >= min_baseline => {
                        let threshold = base * factor_permille / 1000;
                        let cond = obs.delivered_flits < threshold
                            && obs.resident_flits > 0
                            && obs.max_credit_age > min_credit_age;
                        (cond, obs.delivered_flits, threshold)
                    }
                    _ => (false, obs.delivered_flits, 0),
                },
            };
            let want_windows = match rule {
                AlertRule::P99LatencyAbove { windows, .. } => windows.max(1),
                _ => 1,
            };
            if cond {
                self.streaks[r] += 1;
                if self.streaks[r] >= want_windows && !self.held[r] {
                    self.held[r] = true;
                    let rec = AlertRecord {
                        cycle: obs.cycle,
                        class: rule.class(),
                        value,
                        threshold,
                    };
                    self.fire(rec);
                    fired.push(rec);
                }
            } else {
                self.streaks[r] = 0;
                self.held[r] = false;
            }
        }
        Self::push_trail(&mut self.retx_trail, 2 * TRAIL_WINDOWS, obs.retransmissions);
        Self::push_trail(&mut self.eject_trail, TRAIL_WINDOWS, obs.delivered_flits);
        fired
    }
}

// ---------------------------------------------------------------------
// The simulator-side telemetry aggregate
// ---------------------------------------------------------------------

/// Telemetry configuration (runtime-armed on the simulator, deliberately
/// *not* part of `SimConfig` so arming telemetry cannot change the
/// checkpoint config hash).
#[derive(Debug, Clone)]
pub struct TelemetryConfig {
    /// Maximum engine-timeline slices retained for the Chrome export.
    pub timeline_capacity: usize,
    /// Sample the engine timeline every this many cycles (0 = never).
    pub timeline_every: u64,
    /// Run the scoped phase timers every this many cycles (0 = never).
    /// Sampling keeps the wall-clock reads off most cycles — on hosts
    /// with a slow clock source, timing every cycle costs several
    /// percent of throughput, which would bust the side-band budget.
    /// The alert rules always observe every snapshot window.
    pub profile_every: u64,
    /// Alert rules to evaluate each snapshot interval.
    pub rules: Vec<AlertRule>,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        Self {
            timeline_capacity: 1 << 14,
            timeline_every: 64,
            profile_every: 8,
            rules: default_rules(),
        }
    }
}

/// The simulator's telemetry plane (held as `Option<Box<Telemetry>>`;
/// absent by default).
#[derive(Debug, Clone)]
pub struct Telemetry {
    cfg: TelemetryConfig,
    /// Wall-clock origin for timeline offsets.
    pub(crate) epoch: Instant,
    phase_total_ns: [u64; PHASE_COUNT],
    group: [GroupLoad; GROUP_COUNT],
    timeline: Vec<TimelineSlice>,
    alerts: AlertEngine,
    /// `SimStats::latency_histogram` at the previous alert window (or at
    /// arming or restore): the window's latencies are the growth since.
    window_base: [u64; 32],
    cycles_profiled: u64,
    first_watchdog_cycle: Option<u64>,
}

impl Telemetry {
    /// A fresh telemetry plane.
    pub fn new(cfg: TelemetryConfig) -> Self {
        let rules = cfg.rules.clone();
        Self {
            cfg,
            epoch: Instant::now(),
            phase_total_ns: [0; PHASE_COUNT],
            group: [GroupLoad::default(); GROUP_COUNT],
            timeline: Vec::new(),
            alerts: AlertEngine::new(rules),
            window_base: [0; 32],
            cycles_profiled: 0,
            first_watchdog_cycle: None,
        }
    }

    /// Whether the scoped phase timers should run on `cycle`. Timeline
    /// sampling forces a profiled cycle — the spans are captured by the
    /// timed path.
    pub(crate) fn profile_due(&self, cycle: u64) -> bool {
        (self.cfg.profile_every != 0 && cycle.is_multiple_of(self.cfg.profile_every))
            || self.timeline_due(cycle)
    }

    /// Whether the engine timeline should be sampled on `cycle`.
    pub(crate) fn timeline_due(&self, cycle: u64) -> bool {
        self.cfg.timeline_every != 0
            && cycle.is_multiple_of(self.cfg.timeline_every)
            && self.timeline.len() + GROUP_COUNT * crate::par::MAX_SHARDS
                <= self.cfg.timeline_capacity
    }

    /// Fold one profiled cycle's per-shard timing scratch into the
    /// per-phase totals, imbalance gauges, and timeline. Clears the
    /// scratch for the next cycle.
    pub(crate) fn absorb_cycle(&mut self, cycle: u64, fxs: &mut [crate::par::ShardFx]) {
        let nshards = fxs.len();
        self.cycles_profiled += 1;
        let mut phase_cycle_ns = [0u64; PHASE_COUNT];
        let mut group_max = [0u64; GROUP_COUNT];
        let mut group_sum = [0u64; GROUP_COUNT];
        for fx in fxs.iter_mut() {
            let mut shard_group_ns = [0u64; GROUP_COUNT];
            for p in 0..PHASE_COUNT {
                let ns = fx.tel_phase_ns[p];
                phase_cycle_ns[p] += ns;
                shard_group_ns[PHASE_GROUP[p]] += ns;
                fx.tel_phase_ns[p] = 0;
            }
            for g in 0..GROUP_COUNT {
                group_max[g] = group_max[g].max(shard_group_ns[g]);
                group_sum[g] += shard_group_ns[g];
            }
        }
        for (p, &ns) in phase_cycle_ns.iter().enumerate() {
            self.phase_total_ns[p] += ns;
        }
        for g in 0..GROUP_COUNT {
            let mean = group_sum[g] / nshards as u64;
            let load = &mut self.group[g];
            load.max_shard_ns = load.max_shard_ns.max(group_max[g]);
            load.sum_max_ns += group_max[g];
            load.sum_mean_ns += mean;
            load.samples += 1;
            let ratio = (group_max[g] * 1000).checked_div(mean).unwrap_or(0);
            load.worst_imbalance_permille = load.worst_imbalance_permille.max(ratio);
        }
        // Timeline slices (only present when the cycle was sampled).
        for (s, fx) in fxs.iter_mut().enumerate() {
            for (g, span) in fx.tel_group_spans.iter_mut().enumerate() {
                let (start_ns, dur_ns) = *span;
                *span = (0, 0);
                if dur_ns > 0 && self.timeline.len() < self.cfg.timeline_capacity {
                    self.timeline.push(TimelineSlice {
                        cycle,
                        shard: s as u16,
                        group: g as u8,
                        start_ns,
                        dur_ns,
                    });
                }
            }
        }
    }

    /// Note a watchdog trip (for the alert-vs-watchdog race scoring).
    pub(crate) fn note_watchdog(&mut self, cycle: u64) {
        self.first_watchdog_cycle.get_or_insert(cycle);
    }

    /// Cycle of the first watchdog trip observed, if any.
    pub fn first_watchdog_cycle(&self) -> Option<u64> {
        self.first_watchdog_cycle
    }

    /// Start the next latency window at `stats`' histogram: after every
    /// window, and on arming and restore, so no window spans either.
    pub(crate) fn rebase(&mut self, stats: &SimStats) {
        self.window_base = stats.latency_histogram;
    }

    /// p99 latency of the packets delivered since the previous window,
    /// read from how far `stats`' histogram grew past the window base;
    /// `None` when no packet finished this window. The estimate is
    /// capped at the run's largest latency, the one bound the histogram
    /// keeps.
    fn window_p99(&self, stats: &SimStats) -> Option<u64> {
        let window: [u64; 32] =
            std::array::from_fn(|i| stats.latency_histogram[i] - self.window_base[i]);
        let count = window.iter().sum();
        (count > 0).then(|| crate::stats::pow2_quantile(&window, count, stats.latency_max, 0.99))
    }

    /// Evaluate the alert rules against one snapshot window, filling in
    /// its p99 latency from `stats`, and start the next window.
    pub(crate) fn evaluate_window(
        &mut self,
        mut obs: WindowObs,
        stats: &SimStats,
    ) -> Vec<AlertRecord> {
        obs.p99_latency = self.window_p99(stats);
        self.rebase(stats);
        self.alerts.evaluate(&obs)
    }

    /// The alert engine (history, counters, first-alert cycle).
    pub fn alerts(&self) -> &AlertEngine {
        &self.alerts
    }

    /// Cumulative nanoseconds spent per phase (summed over shards).
    pub fn phase_total_ns(&self) -> &[u64; PHASE_COUNT] {
        &self.phase_total_ns
    }

    /// Per-barrier shard-load gauges, indexed like [`GROUP_LABELS`].
    pub fn group_loads(&self) -> &[GroupLoad; GROUP_COUNT] {
        &self.group
    }

    /// Cycles whose timing was absorbed.
    pub fn cycles_profiled(&self) -> u64 {
        self.cycles_profiled
    }

    /// Retained engine-timeline slices.
    pub fn timeline(&self) -> &[TimelineSlice] {
        &self.timeline
    }

    /// A compact engine-health snapshot, embedded into watchdog stall
    /// reports so post-mortems are self-contained.
    pub fn engine_heartbeat(&self, cycle: u64) -> EngineHeartbeat {
        let mut imbalance = [0u64; GROUP_COUNT];
        for (g, load) in self.group.iter().enumerate() {
            imbalance[g] = load.imbalance_permille();
        }
        EngineHeartbeat {
            cycle,
            phase_ns: self.phase_total_ns,
            group_imbalance_permille: imbalance,
            alerts_fired: self.alerts.fired_total(),
            last_alert: self.alerts.last_alert(),
        }
    }

    /// Render the retained engine timeline in Chrome `trace_event`
    /// format: pid 3 ("engine"), one tid per shard, wall-clock
    /// microseconds since the telemetry epoch. Loads alongside the PR 2
    /// sim-event trace (pids 1/2) in Perfetto.
    pub fn engine_chrome_trace(&self) -> String {
        use std::fmt::Write;
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        out.push_str(
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":3,\"tid\":0,\
             \"args\":{\"name\":\"engine\"}}",
        );
        for s in &self.timeline {
            let _ = write!(
                out,
                ",{{\"name\":\"{}\",\"cat\":\"engine\",\"ph\":\"X\",\
                 \"ts\":{}.{:03},\"dur\":{}.{:03},\"pid\":3,\"tid\":{},\
                 \"args\":{{\"cycle\":{}}}}}",
                GROUP_LABELS[s.group as usize],
                s.start_ns / 1000,
                s.start_ns % 1000,
                s.dur_ns / 1000,
                s.dur_ns % 1000,
                s.shard,
                s.cycle
            );
        }
        out.push_str("]}");
        out
    }
}

/// A compact, `Copy` engine-health snapshot (embedded in
/// [`StallReport`](crate::watchdog::StallReport); excluded from stall
/// equality and from the checkpoint codec, since wall-clock timings are
/// not part of simulation state).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineHeartbeat {
    /// Cycle the heartbeat was taken.
    pub cycle: u64,
    /// Cumulative nanoseconds per phase (summed over shards), indexed
    /// like [`PHASE_LABELS`].
    pub phase_ns: [u64; PHASE_COUNT],
    /// Average max/mean shard-load ratio per barrier group, permille.
    pub group_imbalance_permille: [u64; GROUP_COUNT],
    /// Alerts fired so far.
    pub alerts_fired: u64,
    /// Most recent alert, if any.
    pub last_alert: Option<AlertRecord>,
}

// ---------------------------------------------------------------------
// Prometheus exposition + strict parser
// ---------------------------------------------------------------------

fn write_labels(out: &mut String, labels: &[(&str, &str)], extra: Option<(&str, &str)>) {
    use std::fmt::Write;
    let total = labels.len() + usize::from(extra.is_some());
    if total == 0 {
        return;
    }
    out.push('{');
    let mut first = true;
    for (k, v) in labels.iter().copied().chain(extra) {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(
            out,
            "{k}=\"{}\"",
            v.replace('\\', "\\\\").replace('"', "\\\"")
        );
    }
    out.push('}');
}

struct PromWriter<'a> {
    out: String,
    labels: &'a [(&'a str, &'a str)],
}

impl<'a> PromWriter<'a> {
    fn family(&mut self, name: &str, kind: &str, help: &str) {
        use std::fmt::Write;
        let _ = writeln!(self.out, "# HELP {name} {help}");
        let _ = writeln!(self.out, "# TYPE {name} {kind}");
    }

    fn sample(&mut self, name: &str, extra: Option<(&str, &str)>, value: u64) {
        use std::fmt::Write;
        self.out.push_str(name);
        write_labels(&mut self.out, self.labels, extra);
        let _ = writeln!(self.out, " {value}");
    }

    fn counter(&mut self, name: &str, help: &str, value: u64) {
        self.family(name, "counter", help);
        self.sample(name, None, value);
    }

    fn gauge(&mut self, name: &str, help: &str, value: u64) {
        self.family(name, "gauge", help);
        self.sample(name, None, value);
    }
}

/// Render the metrics registry, aggregate statistics, and (when armed)
/// telemetry gauges in Prometheus text exposition format. `labels` are
/// attached to every sample (e.g. `[("scenario", "trojan_flood")]`).
/// The armed families read `stats`, `metrics` and `skipped_cycles`
/// (the fast-forwarded cycles), so every quantile printed here is the
/// one the run's reports print.
pub fn prometheus_text(
    cycle: u64,
    stats: &SimStats,
    metrics: &MetricsRegistry,
    skipped_cycles: u64,
    telemetry: Option<&Telemetry>,
    labels: &[(&str, &str)],
) -> String {
    let mut w = PromWriter {
        out: String::new(),
        labels,
    };
    w.gauge("noc_cycle", "Current simulation cycle.", cycle);
    w.counter(
        "noc_injected_flits_total",
        "Flits offered by the traffic source.",
        stats.injected_flits,
    );
    w.counter(
        "noc_delivered_flits_total",
        "Flits delivered to destination cores.",
        stats.delivered_flits,
    );
    w.counter(
        "noc_delivered_packets_total",
        "Packets fully delivered.",
        stats.delivered_packets,
    );
    w.counter(
        "noc_dropped_flits_total",
        "Flits discarded by link quarantine.",
        stats.dropped_flits,
    );
    w.counter(
        "noc_retransmissions_total",
        "NACK-driven retransmissions.",
        stats.retransmissions,
    );
    w.counter(
        "noc_corrected_faults_total",
        "Single-bit ECC corrections.",
        stats.corrected_faults,
    );
    w.counter(
        "noc_uncorrectable_faults_total",
        "Uncorrectable ECC detections.",
        stats.uncorrectable_faults,
    );
    w.counter(
        "noc_quarantined_links_total",
        "Links quarantined.",
        stats.quarantined_links,
    );
    // Per-link families (bounded cardinality: one series per link).
    w.family(
        "noc_link_flits_total",
        "counter",
        "Flits driven per link, including retransmissions.",
    );
    let mut buf = itoa_buf();
    for (i, l) in metrics.links().iter().enumerate() {
        w.sample(
            "noc_link_flits_total",
            Some(("link", fmt_u(&mut buf, i as u64))),
            l.flits.get(),
        );
    }
    w.family(
        "noc_link_retx_total",
        "counter",
        "Retransmitted launches per link.",
    );
    for (i, l) in metrics.links().iter().enumerate() {
        w.sample(
            "noc_link_retx_total",
            Some(("link", fmt_u(&mut buf, i as u64))),
            l.retransmissions.get(),
        );
    }
    w.family(
        "noc_router_ejected_total",
        "counter",
        "Flits ejected per router.",
    );
    for (i, r) in metrics.routers().iter().enumerate() {
        w.sample(
            "noc_router_ejected_total",
            Some(("router", fmt_u(&mut buf, i as u64))),
            r.ejected_flits.get(),
        );
    }
    if let Some(tel) = telemetry {
        w.family(
            "noc_latency_cycles",
            "gauge",
            "End-to-end packet latency quantiles from the power-of-two histogram.",
        );
        for (q, l) in [(0.5, "0.5"), (0.9, "0.9"), (0.99, "0.99"), (0.999, "0.999")] {
            w.sample(
                "noc_latency_cycles",
                Some(("quantile", l)),
                stats.latency_percentile(q),
            );
        }
        w.gauge(
            "noc_retx_attempts_p99",
            "p99 launch attempts per acknowledged flit.",
            metrics.delivery_attempts().quantile(0.99),
        );
        w.counter(
            "noc_cycles_skipped_total",
            "Cycles fast-forwarded by the quiescence engine.",
            skipped_cycles,
        );
        w.family(
            "noc_phase_ns_total",
            "counter",
            "Cumulative wall-clock nanoseconds per engine phase.",
        );
        for (p, label) in PHASE_LABELS.iter().enumerate() {
            w.sample(
                "noc_phase_ns_total",
                Some(("phase", label)),
                tel.phase_total_ns()[p],
            );
        }
        w.family(
            "noc_group_imbalance_permille",
            "gauge",
            "Average max/mean shard time per barrier group (1000 = balanced).",
        );
        for (g, label) in GROUP_LABELS.iter().enumerate() {
            w.sample(
                "noc_group_imbalance_permille",
                Some(("group", label)),
                tel.group_loads()[g].imbalance_permille(),
            );
        }
        w.counter(
            "noc_alerts_fired_total",
            "Alert-rule firings.",
            tel.alerts().fired_total(),
        );
        w.family(
            "noc_alerts_by_class_total",
            "counter",
            "Alert firings per rule class.",
        );
        for class in AlertClass::ALL {
            w.sample(
                "noc_alerts_by_class_total",
                Some(("class", class.label())),
                tel.alerts().fired_by_class(class),
            );
        }
        if let Some(c) = tel.alerts().first_alert_cycle() {
            w.gauge(
                "noc_first_alert_cycle",
                "Cycle of the first alert fired.",
                c,
            );
        }
        if let Some(c) = tel.first_watchdog_cycle() {
            w.gauge(
                "noc_first_watchdog_cycle",
                "Cycle of the first watchdog trip.",
                c,
            );
        }
    }
    w.out
}

fn itoa_buf() -> String {
    String::with_capacity(20)
}

fn fmt_u(buf: &mut String, v: u64) -> &str {
    use std::fmt::Write;
    buf.clear();
    let _ = write!(buf, "{v}");
    buf.as_str()
}

/// One parsed Prometheus sample.
#[derive(Debug, Clone, PartialEq)]
pub struct PromSample {
    /// Metric family name.
    pub name: String,
    /// Label pairs, in appearance order.
    pub labels: Vec<(String, String)>,
    /// Sample value.
    pub value: f64,
}

fn valid_metric_name(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn valid_label_name(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Strictly parse Prometheus text exposition format. Enforces, beyond
/// well-formedness: valid metric/label name charsets, quoted and
/// properly escaped label values, parseable sample values, and that
/// every sample's family was declared with a `# TYPE` line *before* its
/// first sample. Returns the samples or a line-numbered error.
pub fn parse_prometheus(text: &str) -> Result<Vec<PromSample>, String> {
    let mut samples = Vec::new();
    let mut typed: Vec<String> = Vec::new();
    for (ln, line) in text.lines().enumerate() {
        let ln = ln + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# ") {
            let (verb, rest) = rest
                .split_once(' ')
                .ok_or_else(|| format!("line {ln}: bare comment directive"))?;
            match verb {
                "HELP" => {
                    let name = rest.split(' ').next().unwrap_or("");
                    if !valid_metric_name(name) {
                        return Err(format!("line {ln}: invalid HELP metric name {name:?}"));
                    }
                }
                "TYPE" => {
                    let (name, kind) = rest
                        .split_once(' ')
                        .ok_or_else(|| format!("line {ln}: TYPE missing kind"))?;
                    if !valid_metric_name(name) {
                        return Err(format!("line {ln}: invalid TYPE metric name {name:?}"));
                    }
                    if !matches!(
                        kind,
                        "counter" | "gauge" | "histogram" | "summary" | "untyped"
                    ) {
                        return Err(format!("line {ln}: unknown metric type {kind:?}"));
                    }
                    typed.push(name.to_string());
                }
                _ => return Err(format!("line {ln}: unknown directive {verb:?}")),
            }
            continue;
        }
        if line.starts_with('#') {
            return Err(format!("line {ln}: comment without space after '#'"));
        }
        // Sample line: name[{labels}] value
        let (name_and_labels, value_str) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {ln}: sample missing value"))?;
        let value: f64 = match value_str {
            "+Inf" => f64::INFINITY,
            "-Inf" => f64::NEG_INFINITY,
            "NaN" => f64::NAN,
            v => v
                .parse()
                .map_err(|_| format!("line {ln}: unparseable value {v:?}"))?,
        };
        let (name, labels) = match name_and_labels.split_once('{') {
            None => (name_and_labels.to_string(), Vec::new()),
            Some((name, rest)) => {
                let body = rest
                    .strip_suffix('}')
                    .ok_or_else(|| format!("line {ln}: unterminated label set"))?;
                (
                    name.to_string(),
                    parse_labels(body).map_err(|e| format!("line {ln}: {e}"))?,
                )
            }
        };
        if !valid_metric_name(&name) {
            return Err(format!("line {ln}: invalid metric name {name:?}"));
        }
        if !typed.contains(&name) {
            return Err(format!(
                "line {ln}: sample for {name:?} before its # TYPE line"
            ));
        }
        samples.push(PromSample {
            name,
            labels,
            value,
        });
    }
    Ok(samples)
}

fn parse_labels(body: &str) -> Result<Vec<(String, String)>, String> {
    let mut labels = Vec::new();
    let mut chars = body.chars().peekable();
    loop {
        if chars.peek().is_none() {
            break;
        }
        let mut name = String::new();
        for c in chars.by_ref() {
            if c == '=' {
                break;
            }
            name.push(c);
        }
        if !valid_label_name(&name) {
            return Err(format!("invalid label name {name:?}"));
        }
        if chars.next() != Some('"') {
            return Err(format!("label {name:?} value not quoted"));
        }
        let mut value = String::new();
        loop {
            match chars.next().ok_or("unterminated label value")? {
                '\\' => match chars.next().ok_or("dangling escape")? {
                    '\\' => value.push('\\'),
                    '"' => value.push('"'),
                    'n' => value.push('\n'),
                    c => return Err(format!("bad escape \\{c}")),
                },
                '"' => break,
                c => value.push(c),
            }
        }
        labels.push((name, value));
        match chars.next() {
            None => break,
            Some(',') => {}
            Some(c) => return Err(format!("expected ',' between labels, got {c:?}")),
        }
    }
    Ok(labels)
}

/// Look up the value of `name` (with no/any labels) in parsed samples.
pub fn prom_value(samples: &[PromSample], name: &str) -> Option<f64> {
    samples.iter().find(|s| s.name == name).map(|s| s.value)
}

// ---------------------------------------------------------------------
// Heartbeat + interval writer
// ---------------------------------------------------------------------

/// One liveness record a long-running driver appends per interval.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Heartbeat {
    /// Simulation cycle (or driver-defined progress unit, e.g. fuzz
    /// scenarios completed).
    pub cycle: u64,
    /// Wall-clock milliseconds since the driver started.
    pub wall_ms: u64,
    /// Progress rate over the last interval (cycles or units per second).
    pub rate_per_sec: u64,
    /// Resident set size in KiB (0 when unavailable).
    pub rss_kb: u64,
    /// Cycles (units) since the last checkpoint, when checkpointing.
    pub checkpoint_age: Option<u64>,
    /// Alerts fired so far, when telemetry is armed.
    pub alerts_fired: u64,
}

/// The `heartbeat.jsonl` line: one flat object, every member present.
impl Fields for Heartbeat {
    fn fields<C: Codec>(&mut self, c: &mut C) -> Result<(), JsonError> {
        c.field("cycle", &mut self.cycle)?;
        c.field("wall_ms", &mut self.wall_ms)?;
        c.field("rate_per_sec", &mut self.rate_per_sec)?;
        c.field("rss_kb", &mut self.rss_kb)?;
        c.field("checkpoint_age", &mut self.checkpoint_age)?;
        c.field("alerts_fired", &mut self.alerts_fired)
    }
}

impl Heartbeat {
    /// Serialise as one flat JSON line.
    pub fn to_json(&self) -> String {
        let mut hb = *self;
        json::to_string(&mut hb)
    }
}

/// Current resident set size in KiB from `/proc/self/status` (`VmRSS`),
/// 0 when unavailable (non-Linux).
pub fn rss_kb() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmRSS:") {
            return rest
                .trim()
                .trim_end_matches(" kB")
                .trim()
                .parse()
                .unwrap_or(0);
        }
    }
    0
}

/// Write `bytes` to `path` atomically: temp sibling, fsync, rename.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let tmp = path.with_extension("tmp");
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    if let Some(parent) = path.parent() {
        if let Ok(d) = std::fs::File::open(parent) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// Interval-driven telemetry output for long-running drivers: writes
/// `metrics.prom` atomically and appends to `heartbeat.jsonl` every
/// `every` progress units, inside `dir`.
pub struct TelemetryOut {
    dir: PathBuf,
    every: u64,
    started: Instant,
    last_cycle: u64,
    last_wall_ms: u64,
}

impl TelemetryOut {
    /// Create the output directory and the writer. `every` = 0 disables
    /// interval writes (only [`TelemetryOut::write_now`] fires).
    pub fn new(dir: impl Into<PathBuf>, every: u64) -> std::io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(Self {
            dir,
            every,
            started: Instant::now(),
            last_cycle: 0,
            last_wall_ms: 0,
        })
    }

    /// The output directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Whether an interval boundary has been crossed since the last
    /// write.
    pub fn due(&self, cycle: u64) -> bool {
        self.every != 0 && cycle >= self.last_cycle + self.every
    }

    /// Write `prom` to `metrics.prom` (atomic) and append a heartbeat
    /// line computed from the progress since the previous write.
    pub fn write_now(
        &mut self,
        cycle: u64,
        prom: &str,
        checkpoint_age: Option<u64>,
        alerts_fired: u64,
    ) -> std::io::Result<Heartbeat> {
        let wall_ms = self.started.elapsed().as_millis() as u64;
        let dt_ms = wall_ms.saturating_sub(self.last_wall_ms);
        let dc = cycle.saturating_sub(self.last_cycle);
        let rate = (dc * 1000).checked_div(dt_ms).unwrap_or(0);
        let hb = Heartbeat {
            cycle,
            wall_ms,
            rate_per_sec: rate,
            rss_kb: rss_kb(),
            checkpoint_age,
            alerts_fired,
        };
        write_atomic(&self.dir.join("metrics.prom"), prom.as_bytes())?;
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.dir.join("heartbeat.jsonl"))?;
        writeln!(f, "{}", hb.to_json())?;
        self.last_cycle = cycle;
        self.last_wall_ms = wall_ms;
        Ok(hb)
    }

    /// Write a named auxiliary artifact (e.g. the engine Chrome trace)
    /// atomically into the output directory.
    pub fn write_artifact(&self, name: &str, bytes: &[u8]) -> std::io::Result<()> {
        write_atomic(&self.dir.join(name), bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_load_imbalance_ratio() {
        let load = GroupLoad {
            max_shard_ns: 100,
            sum_max_ns: 300,
            sum_mean_ns: 200,
            samples: 3,
            worst_imbalance_permille: 2000,
        };
        assert_eq!(load.imbalance_permille(), 1500);
        assert_eq!(GroupLoad::default().imbalance_permille(), 0);
    }

    fn quiet_obs(cycle: u64) -> WindowObs {
        WindowObs {
            cycle,
            p99_latency: Some(30),
            retransmissions: 2,
            delivered_flits: 100,
            resident_flits: 50,
            max_credit_age: 10,
        }
    }

    #[test]
    fn p99_rule_needs_consecutive_windows_and_rearms() {
        let mut e = AlertEngine::new(vec![AlertRule::P99LatencyAbove {
            cycles: 100,
            windows: 2,
        }]);
        let hot = |c| WindowObs {
            p99_latency: Some(500),
            ..quiet_obs(c)
        };
        assert!(e.evaluate(&hot(10)).is_empty(), "one window is not enough");
        let fired = e.evaluate(&hot(20));
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].class, AlertClass::P99Latency);
        assert_eq!(fired[0].value, 500);
        assert!(e.evaluate(&hot(30)).is_empty(), "held, no refire");
        // A window in which no packet finished neither clears the
        // condition nor restarts the streak.
        let idle = |c| WindowObs {
            p99_latency: None,
            ..quiet_obs(c)
        };
        assert!(e.evaluate(&idle(35)).is_empty());
        assert!(e.evaluate(&hot(36)).is_empty(), "still held across idle");
        assert!(e.evaluate(&hot(37)).is_empty(), "still held across idle");
        assert!(e.evaluate(&quiet_obs(40)).is_empty());
        assert!(e.evaluate(&hot(50)).is_empty());
        assert!(e.evaluate(&idle(55)).is_empty());
        assert_eq!(e.evaluate(&hot(60)).len(), 1, "re-fires after clearing");
        assert_eq!(e.fired_total(), 2);
        assert_eq!(e.first_alert_cycle(), Some(20));
    }

    #[test]
    fn retx_surge_compares_trailing_sums() {
        let rule = AlertRule::RetxSurge {
            factor_permille: 2000,
            min_retx: 8,
        };
        // A sustained 1-retx/window NACK storm after a zero-retx
        // baseline: fires once the recent 8-window sum reaches the
        // floor, even though no single window ever spikes.
        let mut e = AlertEngine::new(vec![rule]);
        for c in 0..20 {
            assert!(e
                .evaluate(&WindowObs {
                    retransmissions: 0,
                    ..quiet_obs(c)
                })
                .is_empty());
        }
        let mut fired_at = None;
        for c in 20..40 {
            let fired = e.evaluate(&WindowObs {
                retransmissions: 1,
                ..quiet_obs(c)
            });
            if let Some(rec) = fired.first() {
                fired_at = Some((c, *rec));
                break;
            }
        }
        let (cycle, rec) = fired_at.expect("the sustained storm must fire");
        assert_eq!(rec.class, AlertClass::RetxSurge);
        assert_eq!(cycle, 27, "fires the window the recent sum reaches 8");
        assert_eq!(rec.value, 8);
        // A steady benign rate never looks like a surge: recent == prior
        // sum, and 4x the baseline is far above it.
        let mut e2 = AlertEngine::new(vec![rule]);
        for c in 0..64 {
            assert!(e2
                .evaluate(&WindowObs {
                    retransmissions: 3,
                    ..quiet_obs(c)
                })
                .is_empty());
        }
    }

    #[test]
    fn credit_stall_rule_fires_on_rising_edge() {
        let mut e = AlertEngine::new(vec![AlertRule::CreditStallAge { cycles: 300 }]);
        assert!(e.evaluate(&quiet_obs(0)).is_empty());
        let fired = e.evaluate(&WindowObs {
            max_credit_age: 400,
            ..quiet_obs(10)
        });
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].class, AlertClass::CreditStall);
        assert_eq!(fired[0].threshold, 300);
    }

    #[test]
    fn ejection_collapse_requires_backpressure_not_just_drain() {
        let rule = AlertRule::EjectionCollapse {
            factor_permille: 250,
            min_baseline: 40,
            min_credit_age: 64,
        };
        // Benign end-of-traffic drain: delivery collapses but no credit
        // back-pressure — must stay silent.
        let mut benign = AlertEngine::new(vec![rule]);
        for c in 0..5 {
            benign.evaluate(&quiet_obs(c * 10));
        }
        assert!(benign
            .evaluate(&WindowObs {
                delivered_flits: 3,
                max_credit_age: 5,
                ..quiet_obs(100)
            })
            .is_empty());
        // Attack collapse: same delivery drop with aged credits — fires.
        let mut attack = AlertEngine::new(vec![rule]);
        for c in 0..5 {
            attack.evaluate(&quiet_obs(c * 10));
        }
        let fired = attack.evaluate(&WindowObs {
            delivered_flits: 3,
            max_credit_age: 200,
            ..quiet_obs(100)
        });
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].class, AlertClass::EjectionCollapse);
    }

    #[test]
    fn alert_history_is_bounded() {
        let mut e = AlertEngine::new(vec![AlertRule::CreditStallAge { cycles: 1 }]);
        for c in 0..200u64 {
            // Alternate to keep producing rising edges.
            e.evaluate(&WindowObs {
                max_credit_age: if c % 2 == 0 { 100 } else { 0 },
                ..quiet_obs(c)
            });
        }
        assert_eq!(e.fired_total(), 100);
        assert_eq!(e.history().count(), ALERT_HISTORY);
    }

    #[test]
    fn prometheus_output_round_trips_through_strict_parser() {
        let mut stats = SimStats {
            injected_flits: 10,
            delivered_flits: 8,
            ..SimStats::default()
        };
        stats.record_latency(40);
        let mut metrics = MetricsRegistry::new(3, 2);
        metrics
            .link_mut(noc_types::LinkId(1))
            .delivery_attempts
            .record(3);
        let tel = Telemetry::new(TelemetryConfig::default());
        let text = prometheus_text(
            123,
            &stats,
            &metrics,
            7,
            Some(&tel),
            &[("scenario", "unit \"q\" test")],
        );
        let samples = parse_prometheus(&text).expect("strict parse");
        assert_eq!(prom_value(&samples, "noc_cycle"), Some(123.0));
        assert_eq!(prom_value(&samples, "noc_injected_flits_total"), Some(10.0));
        let lat = samples
            .iter()
            .find(|s| {
                s.name == "noc_latency_cycles"
                    && s.labels.iter().any(|(k, v)| k == "quantile" && v == "0.99")
            })
            .expect("latency quantile sample");
        assert_eq!(lat.value, 40.0);
        assert_eq!(prom_value(&samples, "noc_retx_attempts_p99"), Some(3.0));
        assert_eq!(prom_value(&samples, "noc_cycles_skipped_total"), Some(7.0));
        assert!(lat
            .labels
            .iter()
            .any(|(k, v)| k == "scenario" && v == "unit \"q\" test"));
        assert_eq!(
            samples
                .iter()
                .filter(|s| s.name == "noc_link_flits_total")
                .count(),
            3
        );
    }

    #[test]
    fn strict_parser_rejects_malformed_exposition() {
        for (bad, why) in [
            ("noc_x 1", "sample before TYPE"),
            ("# TYPE noc_x counter\nnoc_x one", "non-numeric value"),
            ("# TYPE noc_x widget\nnoc_x 1", "unknown type"),
            (
                "# TYPE noc_x counter\nnoc_x{l=\"v\" 1",
                "unterminated labels",
            ),
            ("# TYPE noc_x counter\nnoc_x{1l=\"v\"} 1", "bad label name"),
            ("# TYPE 9bad counter", "bad metric name"),
            ("#comment", "comment without space"),
            ("# TYPE noc_x counter\nnoc_x{l=\"a\\q\"} 1", "bad escape"),
        ] {
            assert!(parse_prometheus(bad).is_err(), "{why}: {bad:?}");
        }
    }

    #[test]
    fn heartbeat_json_round_trips() {
        let hb = Heartbeat {
            cycle: 5000,
            wall_ms: 1234,
            rate_per_sec: 98765,
            rss_kb: 40960,
            checkpoint_age: Some(300),
            alerts_fired: 2,
        };
        assert_eq!(json::decode(&hb.to_json()), Ok(hb));
        let none = Heartbeat {
            checkpoint_age: None,
            ..hb
        };
        assert_eq!(json::decode(&none.to_json()), Ok(none));
    }

    #[test]
    fn telemetry_out_writes_metrics_and_heartbeats() {
        let dir = std::env::temp_dir().join(format!("noc-telemetry-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut out = TelemetryOut::new(&dir, 100).unwrap();
        assert!(!out.due(50));
        assert!(out.due(100));
        let stats = SimStats::default();
        let metrics = MetricsRegistry::new(1, 1);
        let text = prometheus_text(100, &stats, &metrics, 0, None, &[]);
        out.write_now(100, &text, None, 0).unwrap();
        out.write_now(250, &text, Some(50), 1).unwrap();
        let prom = std::fs::read_to_string(dir.join("metrics.prom")).unwrap();
        assert!(parse_prometheus(&prom).is_ok());
        let hb_lines = std::fs::read_to_string(dir.join("heartbeat.jsonl")).unwrap();
        let hbs: Vec<Heartbeat> = hb_lines.lines().map(|l| json::decode(l).unwrap()).collect();
        assert_eq!(hbs.len(), 2);
        assert_eq!(hbs[1].cycle, 250);
        assert_eq!(hbs[1].checkpoint_age, Some(50));
        assert!(!out.due(251), "interval resets after a write");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn engine_chrome_trace_is_balanced_json() {
        let mut tel = Telemetry::new(TelemetryConfig::default());
        tel.timeline.push(TimelineSlice {
            cycle: 10,
            shard: 2,
            group: 1,
            start_ns: 1_234_567,
            dur_ns: 890,
        });
        let s = tel.engine_chrome_trace();
        assert!(s.starts_with('{') && s.ends_with('}'));
        let depth = s.chars().fold(0i32, |d, c| match c {
            '{' | '[' => d + 1,
            '}' | ']' => d - 1,
            _ => d,
        });
        assert_eq!(depth, 0);
        assert!(s.contains("\"g2\""));
        assert!(s.contains("\"ts\":1234.567"));
        assert!(s.contains("\"pid\":3"));
    }

    /// The window p99 reads only the packets delivered since the previous
    /// window, and a restore starts the next window at the restored
    /// histogram.
    #[test]
    fn window_p99_counts_only_packets_since_the_previous_window() {
        use crate::config::SimConfig;
        use crate::sim::{Simulator, TrafficSource};
        use noc_types::{NodeId, Packet, PacketId, VcId};

        let mut tel = Telemetry::new(TelemetryConfig::default());
        let mut stats = SimStats::default();
        for _ in 0..50 {
            stats.record_latency(1000);
        }
        assert_eq!(tel.window_p99(&stats), Some(1000));
        tel.evaluate_window(WindowObs::default(), &stats);
        assert_eq!(tel.window_p99(&stats), None, "nothing finished since");
        stats.record_latency(10);
        // The one new packet, at the midpoint of [8, 16); the run's own
        // p99 is still 1000.
        assert_eq!(tel.window_p99(&stats), Some(12));
        assert_eq!(stats.latency_percentile(0.99), 1000);

        /// One single-flit packet from router 0 to router 5 per cycle.
        struct Trickle;
        impl TrafficSource for Trickle {
            fn poll(&mut self, cycle: u64, out: &mut Vec<Packet>) {
                let id = PacketId(cycle);
                out.push(Packet::new(
                    id,
                    NodeId(0),
                    NodeId(5),
                    VcId(0),
                    0,
                    0,
                    1,
                    cycle,
                ));
            }
        }
        // `paper()` takes a snapshot, and so closes a window, every cycle.
        let mut sim = Simulator::new(SimConfig::paper());
        sim.set_telemetry(TelemetryConfig::default());
        sim.run(100, &mut Trickle);
        let early = sim.snapshot();
        let early_hist = sim.stats().latency_histogram;
        sim.run(100, &mut Trickle);
        let base = |sim: &Simulator| sim.telemetry.as_deref().expect("armed").window_base;
        assert_eq!(base(&sim), sim.stats().latency_histogram);
        assert_ne!(
            base(&sim),
            early_hist,
            "packets finished after the snapshot"
        );
        sim.restore(&early)
            .expect("a simulator restores its own snapshot");
        assert_eq!(base(&sim), early_hist, "restore resets the window base");
        // The next windows read growth past the restored histogram.
        sim.run(100, &mut Trickle);
        assert_eq!(base(&sim), sim.stats().latency_histogram);
    }

    #[test]
    fn engine_heartbeat_captures_alert_state() {
        let mut tel = Telemetry::new(TelemetryConfig::default());
        let fired = tel.evaluate_window(
            WindowObs {
                cycle: 70,
                max_credit_age: 500,
                ..WindowObs::default()
            },
            &SimStats::default(),
        );
        assert_eq!(fired.len(), 1, "credit-stall rule fires");
        let hb = tel.engine_heartbeat(80);
        assert_eq!(hb.cycle, 80);
        assert_eq!(hb.alerts_fired, 1);
        assert_eq!(hb.last_alert.unwrap().class, AlertClass::CreditStall);
    }
}
