//! Telemetry acceptance suite: the observability plane observes, never
//! perturbs.
//!
//! * **Zero perturbation** — the trojan-flood scenario produces
//!   bit-identical statistics (full `SimStats`, including the per-window
//!   time series) with telemetry armed and disarmed, at one shard and at
//!   four. Telemetry reads simulation-derived integers and wall clocks;
//!   it never writes back.
//! * **Alert rules** — the unmitigated flood raises at least one alert
//!   *before* the watchdog trips (online detection beats the post-mortem
//!   diagnosis), while the clean uniform baseline stays alert-free.
//! * **Prometheus export** — a real run's exposition parses under the
//!   strict parser, carries the alert/watchdog ordering, and prints the
//!   same latency quantiles, attempt p99 and skipped cycles the
//!   simulator's own counters hold.

use htnoc_core::campaign::{baseline_uniform, trojan_flood, RunOpts, CAMPAIGN_SEED};
use htnoc_core::ScenarioReport;
use noc_sim::metrics::PowHistogram;
use noc_sim::{parse_prometheus, prom_value, AlertClass, Record, Simulator, TraceConfig};
use proptest::prelude::*;

/// The acceptance seed: the published trojan-flood run.
const FLOOD_SEED: u64 = CAMPAIGN_SEED.wrapping_add(5);

/// The flood on `threads` shards, with or without telemetry.
fn flood(seed: u64, threads: usize, telemetry: bool) -> (ScenarioReport, Simulator) {
    let opts = RunOpts {
        threads,
        telemetry,
        ..RunOpts::default()
    };
    trojan_flood(seed, opts).expect("the flood ends in a report")
}

proptest! {
    // Each case runs the full flood twice; keep the budget small.
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    fn telemetry_never_perturbs_the_simulation(
        seed in 0u64..512,
        tidx in 0usize..2,
    ) {
        let threads = [1usize, 4][tidx];
        let (plain_rep, plain_sim) = flood(seed, threads, false);
        let (tel_rep, tel_sim) = flood(seed, threads, true);
        // Full statistics fingerprint: aggregates, histogram, and the
        // per-window time series must match bit for bit.
        prop_assert_eq!(
            format!("{:?}", plain_sim.stats()),
            format!("{:?}", tel_sim.stats())
        );
        prop_assert_eq!(plain_rep, tel_rep);
    }
}

#[test]
fn tracer_and_telemetry_observe_one_run_together() {
    // Armed with the tracer, telemetry adds one `alert` record per alert
    // fired and changes nothing else.
    let traced = |telemetry: bool| {
        let opts = RunOpts {
            // The flood emits more than the default ring holds; keep it all.
            trace: Some(TraceConfig { capacity: 1 << 21 }),
            telemetry,
            ..RunOpts::default()
        };
        let (rep, sim) = trojan_flood(FLOOD_SEED, opts).expect("the flood ends in a report");
        let tracer = sim.tracer().expect("tracing was armed");
        assert_eq!(tracer.dropped(), 0, "the ring kept every record");
        let jsonl: Vec<String> = tracer.records().map(Record::to_jsonl).collect();
        (rep, format!("{:?}", sim.stats()), jsonl)
    };
    let (plain_rep, plain_stats, plain_jsonl) = traced(false);
    let (tel_rep, tel_stats, tel_jsonl) = traced(true);
    assert_eq!(plain_rep, tel_rep);
    assert_eq!(plain_stats, tel_stats);
    let (alerts, others): (Vec<&String>, Vec<&String>) = tel_jsonl
        .iter()
        .partition(|l| l.contains("\"event\":\"alert\""));
    assert!(!alerts.is_empty(), "the flood raises alerts");
    assert!(
        plain_jsonl
            .iter()
            .all(|l| !l.contains("\"event\":\"alert\"")),
        "no telemetry, no alert records"
    );
    assert_eq!(others.len(), plain_jsonl.len());
    for (i, (a, b)) in others.iter().zip(&plain_jsonl).enumerate() {
        assert_eq!(*a, b, "record {i} differs");
    }
}

#[test]
fn flood_alerts_fire_before_the_watchdog() {
    let (rep, sim) = flood(FLOOD_SEED, 1, true);
    let tel = sim.telemetry().expect("telemetry armed");
    let alerts = tel.alerts();
    assert!(
        alerts.fired_total() >= 1,
        "the flood must raise at least one alert"
    );
    let first_alert = alerts
        .first_alert_cycle()
        .expect("at least one alert fired");
    let first_trip = tel
        .first_watchdog_cycle()
        .expect("the unmitigated flood trips the watchdog");
    assert!(
        first_alert < first_trip,
        "online detection (cycle {first_alert}) must beat the watchdog \
         (cycle {first_trip})"
    );
    assert!(!rep.stalls.is_empty());
}

#[test]
fn baseline_stays_alert_free() {
    let (_rep, sim) = baseline_uniform(CAMPAIGN_SEED, None).expect("no output to fail");
    let tel = sim.telemetry().expect("telemetry armed");
    assert_eq!(
        tel.alerts().fired_total(),
        0,
        "clean traffic must not alert: {:?}",
        tel.alerts().history().collect::<Vec<_>>()
    );
    assert_eq!(tel.alerts().first_alert_cycle(), None);
    assert_eq!(tel.first_watchdog_cycle(), None);
}

#[test]
fn engine_profile_and_timeline_accumulate() {
    let (_rep, sim) = flood(FLOOD_SEED, 1, true);
    let tel = sim.telemetry().expect("telemetry armed");
    assert!(tel.cycles_profiled() > 0);
    assert!(
        tel.phase_total_ns().iter().sum::<u64>() > 0,
        "phase timers accumulated"
    );
    for g in tel.group_loads() {
        assert!(g.imbalance_permille() >= 1000, "max/mean ratio ≥ 1");
    }
    // The engine timeline exports as a balanced Chrome trace object.
    let json = tel.engine_chrome_trace();
    assert!(json.starts_with('{') && json.ends_with('}'));
    assert!(json.contains("\"traceEvents\"") && json.contains("\"engine\""));
    assert!(json.contains("\"ph\":\"X\""), "timeline slices captured");
}

#[test]
fn prometheus_export_of_a_real_run_parses_strictly() {
    let (rep, sim) = flood(FLOOD_SEED, 1, true);
    let text = sim.prometheus_text(&[("scenario", "trojan_flood")]);
    let samples = parse_prometheus(&text).expect("strict parse");
    assert_eq!(prom_value(&samples, "noc_cycle"), Some(rep.cycles as f64));
    assert_eq!(
        prom_value(&samples, "noc_delivered_flits_total"),
        Some(rep.delivered_flits as f64)
    );
    let fired = prom_value(&samples, "noc_alerts_fired_total").expect("alert counter exported");
    assert!(fired >= 1.0);
    let first_alert = prom_value(&samples, "noc_first_alert_cycle").expect("first alert cycle");
    let first_trip =
        prom_value(&samples, "noc_first_watchdog_cycle").expect("first watchdog cycle");
    assert!(
        first_alert < first_trip,
        "exported ordering must show detection before the trip"
    );
    // Per-class counters carry the label round trip.
    let by_class: f64 = samples
        .iter()
        .filter(|s| s.name == "noc_alerts_by_class_total")
        .map(|s| s.value)
        .sum();
    assert_eq!(by_class, fired);
    // Every class label is one of ours.
    for s in samples
        .iter()
        .filter(|s| s.name == "noc_alerts_by_class_total")
    {
        let label = s
            .labels
            .iter()
            .find(|(k, _)| k == "class")
            .map(|(_, v)| v.as_str())
            .expect("class label");
        assert!(AlertClass::from_label(label).is_some(), "{label}");
    }
    // One number per quantity: the exposition reads the simulator's own
    // counters, so it prints exactly what the reports print.
    let quantile = |q: &str| {
        samples
            .iter()
            .find(|s| {
                s.name == "noc_latency_cycles"
                    && s.labels.iter().any(|(k, v)| k == "quantile" && v == q)
            })
            .map(|s| s.value)
    };
    for (q, label) in [(0.5, "0.5"), (0.9, "0.9"), (0.99, "0.99"), (0.999, "0.999")] {
        assert_eq!(
            quantile(label),
            Some(sim.stats().latency_percentile(q) as f64),
            "latency quantile {label}"
        );
    }
    let mut attempts = PowHistogram::default();
    for link in sim.metrics().links() {
        attempts.merge(&link.delivery_attempts);
    }
    assert!(attempts.count() > 0);
    assert_eq!(
        prom_value(&samples, "noc_retx_attempts_p99"),
        Some(attempts.quantile(0.99) as f64)
    );
    assert_eq!(
        prom_value(&samples, "noc_cycles_skipped_total"),
        Some(sim.skipped_cycles() as f64)
    );
}

#[test]
fn stall_reports_carry_the_engine_heartbeat() {
    let (rep, _sim) = flood(FLOOD_SEED, 1, true);
    let stall = rep.stalls.first().expect("the flood stalls");
    let hb = stall
        .heartbeat
        .expect("telemetry-armed runs attach a heartbeat to the diagnosis");
    assert_eq!(hb.cycle, stall.cycle);
    assert!(hb.phase_ns.iter().sum::<u64>() > 0, "profile accumulated");
    // And without telemetry the report is heartbeat-free (and still
    // compares equal — equality ignores the side band).
    let (plain, _) = flood(FLOOD_SEED, 1, false);
    assert!(plain.stalls[0].heartbeat.is_none());
    assert_eq!(plain.stalls[0], *stall);
}
