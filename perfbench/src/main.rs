//! The repository benchmark. One workload per invocation:
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Inputs are generated from the seed before the clock starts. The timed
//! phase repeats until `--seconds` have passed (at least three times),
//! each repetition on freshly generated inputs. Untraced (`--trace 0`),
//! the report holds the end-to-end metrics. Traced (`--trace 1`),
//! repetitions alternate untraced and traced, and the report holds the
//! per-layer metrics plus the tracing overhead. The last line of stdout is
//! the JSON report; the lines before it are the same numbers for people.
//! See `README.md` beside this crate for the metric glossary.

mod probe;
mod workloads;

use probe::{median, ns_since, quantile, Probe};
use std::time::{Duration, Instant};
use workloads::{committed_fingerprint, Knobs, Outcome, Workload, DEFAULT_SEED};

const USAGE: &str = "usage: perfbench --workload <paper_sweep|mesh16_dense|bursty_ckpt|\
                     conformance_sweep> --seed <n> --seconds <s> --trace <0|1>";

/// Set-up is sampled at least this often per run (median reported).
const MIN_SETUPS: usize = 7;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("want an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("want a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("want 0 < seconds <= 600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("want 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// One repetition of the workload.
struct Iteration {
    /// The first repetition warms caches and the allocator: its outcome
    /// is checked like every other, but its times are not reported.
    warmup: bool,
    traced: bool,
    setup_ns: u64,
    wall_ns: u64,
    outcome: Outcome,
    probe: Probe,
}

impl Iteration {
    fn wall_s(&self) -> f64 {
        self.wall_ns as f64 * 1e-9
    }
}

/// Repeat set-up + timed phase until the time is up (a warm-up first,
/// then at least three timed repetitions of each kind the report needs);
/// then top up the set-up samples. Returns the repetitions and every
/// timed untraced set-up time.
fn measure(args: &Args, knobs: &Knobs) -> (Vec<Iteration>, Vec<f64>) {
    let budget = Duration::from_secs_f64(args.seconds);
    let min_iters = if args.trace { 7 } else { 4 };
    let start = Instant::now();
    let mut iters: Vec<Iteration> = Vec::new();
    while iters.len() < min_iters || start.elapsed() < budget {
        let warmup = iters.is_empty();
        let traced = args.trace && iters.len() % 2 == 1;
        let mut probe = Probe::new(traced);
        let t0 = Instant::now();
        let mut inputs = workloads::setup(args.workload, args.seed, knobs, &mut probe);
        let setup_ns = ns_since(t0);
        let t1 = Instant::now();
        let mut outcome = workloads::run(&mut inputs, knobs, &mut probe);
        let wall_ns = ns_since(t1);
        workloads::settle(&inputs, knobs, &mut probe, &mut outcome);
        iters.push(Iteration {
            warmup,
            traced,
            setup_ns,
            wall_ns,
            outcome,
            probe,
        });
    }
    let mut setups: Vec<f64> = iters
        .iter()
        .filter(|it| !it.traced && !it.warmup)
        .map(|it| it.setup_ns as f64 * 1e-9)
        .collect();
    while setups.len() < MIN_SETUPS {
        let t0 = Instant::now();
        let inputs = workloads::setup(args.workload, args.seed, knobs, &mut Probe::new(false));
        setups.push(ns_since(t0) as f64 * 1e-9);
        drop(inputs);
    }
    (iters, setups)
}

/// One reported number.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    /// Samples behind the value (1 for an exact count).
    samples: usize,
}

fn metric(name: &str, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric {
        name: name.to_string(),
        value: if value.is_finite() { value } else { 0.0 },
        unit,
        samples,
    }
}

/// Peak resident set size of this process (MiB), from `/proc`.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The tail percentile `run_ms_p90` reports: p90, or for fewer than 100
/// samples the highest percentile that still has ten samples beyond it
/// (never below the median).
fn tail_q(samples: usize) -> f64 {
    (1.0 - 10.0 / samples.max(1) as f64).clamp(0.5, 0.9)
}

fn end_to_end(iters: &[&Iteration], setups: &[f64]) -> Vec<Metric> {
    let n = iters.len();
    let walls: Vec<f64> = iters.iter().map(|it| it.wall_s()).collect();
    let per_wall = |f: &dyn Fn(&Outcome) -> f64| -> Vec<f64> {
        iters
            .iter()
            .map(|it| f(&it.outcome) / it.wall_s())
            .collect()
    };
    let run_ms: Vec<f64> = iters
        .iter()
        .flat_map(|it| it.outcome.run_ns.iter().map(|&ns| ns as f64 * 1e-6))
        .collect();
    let first = &iters[0].outcome;
    vec![
        metric("setup_s", median(setups), "s", setups.len()),
        metric("wall_s", median(&walls), "s", n),
        metric(
            "flit_hops_per_s",
            median(&per_wall(&|o| o.flit_hops as f64)),
            "1/s",
            n,
        ),
        metric(
            "runs_per_s",
            median(&per_wall(&|o| o.run_ns.len() as f64)),
            "1/s",
            n,
        ),
        metric("run_ms_p50", quantile(&run_ms, 0.5), "ms", run_ms.len()),
        metric(
            "run_ms_p90",
            quantile(&run_ms, tail_q(run_ms.len())),
            "ms",
            run_ms.len(),
        ),
        metric("peak_rss_mb", peak_rss_mb(), "MiB", 1),
        metric(
            "sim_latency_p99_cycles",
            first.run_p99.iter().copied().max().unwrap_or(0) as f64,
            "cycles",
            first.run_p99.len(),
        ),
        metric(
            "sim_completion_cycles",
            first.completion as f64,
            "cycles",
            1,
        ),
    ]
}

fn per_layer(
    w: Workload,
    knobs: &Knobs,
    traced: &[&Iteration],
    untraced: &[&Iteration],
) -> Vec<Metric> {
    use noc_sim::telemetry::PHASE_LABELS;
    let n = traced.len();
    let med_of = |its: &[&Iteration], f: &dyn Fn(&Iteration) -> f64| -> f64 {
        median(&its.iter().map(|it| f(it)).collect::<Vec<_>>())
    };
    let med = |f: &dyn Fn(&Iteration) -> f64| med_of(traced, f);
    let ms = |ns: u64| ns as f64 * 1e-6;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    // Layer totals pooled over the traced repetitions.
    let mut pooled = Probe::default();
    for it in traced {
        pooled.merge(it.probe.clone());
    }
    let all = |v: &[u64]| v.iter().map(|&ns| ns as f64).collect::<Vec<_>>();
    let steps = all(&pooled.step_ns);
    let ser = all(&pooled.ser_ns);
    let deser = all(&pooled.deser_ns);
    let o = &traced[0].outcome;
    let p = &traced[0].probe;
    let workers = if w == Workload::PaperSweep {
        knobs.workers
    } else {
        1
    };
    let diff_ns = |it: &Iteration| -> u64 {
        if w == Workload::ConformanceSweep {
            it.outcome.run_ns.iter().sum()
        } else {
            0
        }
    };

    let mut m = vec![
        metric(
            "scenario.build_ms",
            med(&|it| ms(it.probe.build_ns)),
            "ms",
            n,
        ),
        metric("sim.new_ms", med(&|it| ms(it.probe.sim_new_ns)), "ms", n),
        metric("sim.step_calls", p.step_ns.len() as f64, "count", 1),
        metric(
            "sim.step_us_p50",
            quantile(&steps, 0.5) * 1e-3,
            "us",
            steps.len(),
        ),
        metric(
            "sim.step_us_p99",
            quantile(&steps, 0.99) * 1e-3,
            "us",
            steps.len(),
        ),
        metric(
            "sim.ns_per_flit_hop",
            med(&|it| {
                ratio(
                    it.probe.step_ns.iter().sum::<u64>() as f64,
                    it.outcome.flit_hops as f64,
                )
            }),
            "ns",
            n,
        ),
    ];
    let phase_sum: u64 = pooled.phase_ns.iter().sum();
    for (label, ns) in PHASE_LABELS.iter().zip(pooled.phase_ns) {
        m.push(metric(
            &format!("phase.{label}_pct"),
            ratio(ns as f64, phase_sum as f64) * 100.0,
            "%",
            n,
        ));
    }
    for (g, (max, mean)) in pooled.group_ns.iter().enumerate() {
        m.push(metric(
            &format!("par.g{}_imbalance_permille", g + 1),
            ratio(*max as f64 * 1000.0, *mean as f64),
            "permille",
            n,
        ));
    }
    let c = o.counts;
    m.extend([
        metric("ff.probe_calls", p.ff_calls as f64, "count", 1),
        metric(
            "ff.hit_ratio",
            ratio(p.ff_hits as f64, p.ff_calls as f64),
            "ratio",
            1,
        ),
        metric(
            "ff.skipped_cycle_share",
            ratio(o.skipped as f64, o.cycles as f64),
            "ratio",
            1,
        ),
        metric("ff.probe_ms_total", med(&|it| ms(it.probe.ff_ns)), "ms", n),
        metric(
            "snapshot.ser_ms_p50",
            quantile(&ser, 0.5) * 1e-6,
            "ms",
            ser.len(),
        ),
        metric(
            "snapshot.ser_ms_p90",
            quantile(&ser, 0.9) * 1e-6,
            "ms",
            ser.len(),
        ),
        metric(
            "snapshot.deser_ms_p50",
            quantile(&deser, 0.5) * 1e-6,
            "ms",
            deser.len(),
        ),
        metric(
            "snapshot.deser_ms_p90",
            quantile(&deser, 0.9) * 1e-6,
            "ms",
            deser.len(),
        ),
        metric("snapshot.bytes", p.snapshot_bytes as f64, "bytes", 1),
        metric(
            "snapshot.wall_share",
            med(&|it| {
                let codec: u64 = it.probe.ser_ns.iter().chain(&it.probe.deser_ns).sum();
                ratio(codec as f64, it.wall_ns as f64)
            }),
            "ratio",
            n,
        ),
        metric(
            "traffic.capture_ms",
            med(&|it| ms(it.probe.capture_ns)),
            "ms",
            n,
        ),
        metric("ecc.corrected", c.ecc_corrected as f64, "count", 1),
        metric("ecc.uncorrectable", c.ecc_uncorrectable as f64, "count", 1),
        metric("link.retransmissions", c.retransmissions as f64, "count", 1),
        metric("link.nacks", c.nacks as f64, "count", 1),
        metric(
            "mitigation.lob_selections",
            c.lob_selections as f64,
            "count",
            1,
        ),
        metric("mitigation.bist_scans", c.bist_scans as f64, "count", 1),
        metric("trojan.injections", c.trojan_injections as f64, "count", 1),
        metric(
            "router.injection_stalls",
            c.injection_stalls as f64,
            "count",
            1,
        ),
        metric("sim.skipped_cycles", o.skipped as f64, "cycles", 1),
        // The sweep's own timers run untraced too; the untraced
        // repetitions give them without the spans' overhead.
        metric(
            "sweep.efficiency",
            med_of(untraced, &|it| {
                let items: u64 = it.outcome.run_ns.iter().sum();
                ratio(items as f64, it.wall_ns as f64 * workers as f64)
            }),
            "ratio",
            untraced.len(),
        ),
        metric(
            "sweep.item_ms_max",
            med_of(untraced, &|it| {
                ms(it.outcome.run_ns.iter().copied().max().unwrap_or(0))
            }),
            "ms",
            untraced.len(),
        ),
        metric(
            "oracle.ms_total",
            med(&|it| ms(it.probe.oracle_ns)),
            "ms",
            n,
        ),
        metric("diff.ms_total", med(&|it| ms(diff_ns(it))), "ms", n),
        metric(
            "oracle.share",
            med(&|it| ratio(it.probe.oracle_ns as f64, diff_ns(it) as f64)),
            "ratio",
            n,
        ),
        metric("conformance.divergences", o.divergences as f64, "count", 1),
    ]);
    let traced_wall = median(&traced.iter().map(|it| it.wall_s()).collect::<Vec<_>>());
    let untraced_wall = median(&untraced.iter().map(|it| it.wall_s()).collect::<Vec<_>>());
    m.push(metric(
        "trace.overhead_ms",
        (traced_wall - untraced_wall) * 1e3,
        "ms",
        n + untraced.len(),
    ));
    m.push(metric(
        "trace.overhead_share",
        ratio(traced_wall - untraced_wall, untraced_wall),
        "ratio",
        n + untraced.len(),
    ));
    m
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let knobs = Knobs::bench();
    let w = args.workload;
    let (iters, setups) = measure(&args, &knobs);

    // Correctness: every run's own audit, the workload's shape, identical
    // outcomes across repetitions (traced or not), and the committed
    // fingerprint at the default seed.
    let fingerprint = iters[0].outcome.fingerprint.0;
    let mut failures: Vec<String> = Vec::new();
    for it in &iters {
        failures.extend(it.outcome.failures.iter().cloned());
        if it.outcome.fingerprint.0 != fingerprint {
            failures.push(format!(
                "a {} repetition fingerprinted {:#018x}, the first {fingerprint:#018x}",
                if it.traced { "traced" } else { "untraced" },
                it.outcome.fingerprint.0
            ));
        }
    }
    failures.extend(workloads::shape_failures(w, &knobs, &iters[0].outcome));
    if args.seed == DEFAULT_SEED {
        match committed_fingerprint(w) {
            Some(want) if want == fingerprint => {}
            want => failures.push(format!(
                "fingerprint {fingerprint:#018x} != committed {} in fingerprints.txt",
                want.map_or("(none)".to_string(), |v| format!("{v:#018x}"))
            )),
        }
    }
    let attempted: u64 = iters.iter().map(|it| it.outcome.attempted).sum();
    let failed = (failures.len() as u64).min(attempted);

    let (traced, untraced): (Vec<&Iteration>, Vec<&Iteration>) = iters
        .iter()
        .filter(|it| !it.warmup)
        .partition(|it| it.traced);
    let metrics = if args.trace {
        per_layer(w, &knobs, &traced, &untraced)
    } else {
        end_to_end(&untraced, &setups)
    };

    println!(
        "perfbench {} seed {} trace {} workers {} engine threads {} (available_parallelism {})",
        w.name(),
        args.seed,
        u8::from(args.trace),
        knobs.workers,
        knobs.engine_threads,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    println!("fingerprint {fingerprint:#018x}");
    for f in failures.iter().take(10) {
        println!("FAILED {f}");
    }
    println!("{:<30} {:>16} {:<8} samples", "metric", "value", "unit");
    for m in &metrics {
        println!(
            "{:<30} {:>16.4} {:<8} {}",
            m.name, m.value, m.unit, m.samples
        );
    }
    if !args.trace {
        let runs = untraced.iter().map(|it| it.outcome.run_ns.len()).sum();
        println!(
            "(run_ms_p90 is the p{:.0} of {runs} runs)",
            tail_q(runs) * 100.0
        );
    }
    println!(
        "{:<30} {:>16.4} {:<8} {attempted}",
        "fail_ratio",
        failed as f64 / attempted.max(1) as f64,
        "ratio"
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failures.is_empty(),
        body.join(", ")
    );
}
