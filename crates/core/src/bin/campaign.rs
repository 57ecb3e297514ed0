//! Run the deterministic fault-injection campaign from the command line:
//!
//! ```text
//! cargo run -p htnoc-core --bin campaign [seed] [--trace out.json]
//!     [--checkpoint-dir D [--checkpoint-every N] [--resume] [--halt-at C]]
//! ```
//!
//! Replays every seeded failure scenario (transient storm, stuck-at
//! burst, trojan kill-switch toggling, multi-trojan placement, link
//! death/revival, and the unmitigated trojan flood) against the
//! resilience layer. Each scenario asserts packet/flit conservation and
//! a clean invariant audit, so the process exits non-zero on any
//! violation.
//!
//! With `--trace PATH`, the trojan-flood scenario is re-run with the
//! structured tracer armed: the full event stream lands next to `PATH`
//! as JSONL (`<stem>.jsonl`, one canonical event per line — the file
//! `trace_validate` checks), the bounded ring is exported as a Chrome
//! `trace_event` file at `PATH` (load it in Perfetto or
//! `chrome://tracing`), and the per-link metrics table prints with the
//! infected link at the top.
//!
//! With `--checkpoint-dir`, the trojan-flood acceptance scenario runs
//! under periodic crash-safe checkpointing instead: the full simulator
//! state (plus traffic cursor and stall log) is snapshotted every
//! `--checkpoint-every` cycles, and `--resume` continues from the newest
//! valid checkpoint — bit-identically to an uninterrupted run. Without
//! `--resume`, a directory that already holds checkpoints is refused
//! (exit 2) and left untouched. `--halt-at` simulates a crash at a given
//! cycle (used by the kill-and-resume CI job alongside a real SIGKILL).
//!
//! With `--telemetry-out DIR`, the clean uniform baseline and the
//! trojan flood re-run with the side-band telemetry plane armed:
//! `DIR/baseline/` and `DIR/trojan_flood/` each receive an atomically
//! replaced Prometheus exposition (`metrics.prom`, refreshed every
//! `--telemetry-every` cycles, default 100), an append-only heartbeat
//! log (`heartbeat.jsonl`: cycle, cycles/sec, RSS, alerts fired), and
//! the engine self-profile as a Chrome trace (`engine_trace.json`).
//! Telemetry never perturbs the run — the reports are bit-identical to
//! the plain scenarios (pinned by the zero-perturbation suite).

use htnoc_core::campaign::{
    baseline_uniform, run_campaign, trojan_flood, CheckpointOpts, RunError, RunOpts, CAMPAIGN_SEED,
};
use htnoc_core::viz;
use noc_sim::{JsonlSink, TelemetryOut};
use std::io::Write;

const USAGE: &str = "usage: campaign [seed] [--trace out.json] \
    [--telemetry-out DIR [--telemetry-every N]] \
    [--checkpoint-dir D [--checkpoint-every N] [--resume] [--halt-at C]]";

fn main() {
    let mut seed = CAMPAIGN_SEED;
    let mut trace_path: Option<std::path::PathBuf> = None;
    let mut ckpt_dir: Option<std::path::PathBuf> = None;
    let mut ckpt_every: u64 = 500;
    let mut tel_dir: Option<std::path::PathBuf> = None;
    let mut tel_every: u64 = 100;
    let mut resume = false;
    let mut halt_at: Option<u64> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{name} needs a value\n{USAGE}");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--trace" => trace_path = Some(value("--trace").into()),
            "--checkpoint-dir" => ckpt_dir = Some(value("--checkpoint-dir").into()),
            "--checkpoint-every" => {
                ckpt_every = value("--checkpoint-every").parse().unwrap_or_else(|_| {
                    eprintln!("--checkpoint-every needs a cycle count\n{USAGE}");
                    std::process::exit(2);
                })
            }
            "--telemetry-out" => tel_dir = Some(value("--telemetry-out").into()),
            "--telemetry-every" => {
                tel_every = value("--telemetry-every").parse().unwrap_or_else(|_| {
                    eprintln!("--telemetry-every needs a cycle count\n{USAGE}");
                    std::process::exit(2);
                })
            }
            "--resume" => resume = true,
            "--halt-at" => {
                halt_at = Some(value("--halt-at").parse().unwrap_or_else(|_| {
                    eprintln!("--halt-at needs a cycle count\n{USAGE}");
                    std::process::exit(2);
                }))
            }
            _ => {
                seed = arg.parse::<u64>().unwrap_or_else(|_| {
                    eprintln!("{USAGE}   (got {arg:?})");
                    std::process::exit(2);
                })
            }
        }
    }

    if let Some(dir) = ckpt_dir {
        // Checkpointed acceptance run: the trojan-flood scenario under
        // periodic crash-safe snapshots (what the CI kill-and-resume job
        // drives). The finished report is bit-identical to an
        // uninterrupted run of the same seed.
        let mut opts = CheckpointOpts::new(&dir, ckpt_every);
        opts.resume = resume;
        opts.halt_at = halt_at;
        println!(
            "trojan_flood (checkpointed), seed {seed:#x}, every {ckpt_every} \
             cycles into {}{}",
            dir.display(),
            if resume { ", resuming" } else { "" },
        );
        let run = RunOpts {
            checkpoint: Some(&opts),
            ..RunOpts::default()
        };
        match trojan_flood(seed, run) {
            Ok((rep, _)) => println!("{rep}"),
            Err(RunError::Halted) => {
                println!(
                    "halted at cycle {} (simulated crash); rerun with --resume",
                    opts.halt_at.unwrap()
                );
            }
            Err(e) => {
                eprintln!("campaign: {e}");
                std::process::exit(2);
            }
        }
        return;
    }

    println!("fault-injection campaign, seed {seed:#x}");
    println!();
    let reports = run_campaign(seed);
    for rep in &reports {
        println!("{rep}");
    }
    println!();
    let stalls: usize = reports.iter().map(|r| r.stalls.len()).sum();
    let quarantines: u64 = reports.iter().map(|r| r.quarantined_links).sum();
    println!(
        "{} scenario(s) drained with conservation and invariants intact \
         ({stalls} watchdog trip(s), {quarantines} quarantined link(s))",
        reports.len()
    );

    if let Some(dir) = tel_dir {
        run_telemetry(&dir, tel_every, seed);
    }

    let Some(path) = trace_path else { return };
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).unwrap_or_else(|e| {
                eprintln!("campaign: cannot create {}: {e}", parent.display());
                std::process::exit(2);
            });
        }
    }
    let jsonl_path = path.with_extension("jsonl");
    let file = std::fs::File::create(&jsonl_path).unwrap_or_else(|e| {
        eprintln!("campaign: cannot create {}: {e}", jsonl_path.display());
        std::process::exit(2);
    });
    println!();
    println!("re-running trojan_flood with the tracer armed...");
    let run = RunOpts {
        trace_sink: Some(Box::new(JsonlSink::new(file))),
        ..RunOpts::default()
    };
    let (rep, sim) = trojan_flood(seed.wrapping_add(5), run)
        .expect("a traced run has nothing to write but its sink");
    let tracer = sim.tracer().expect("the traced run keeps its recorder");
    println!(
        "  {} events emitted ({} retained in the ring, {} evicted)",
        tracer.emitted(),
        tracer.len(),
        tracer.dropped()
    );
    println!("  full stream: {}", jsonl_path.display());
    let chrome = tracer.to_chrome_trace(sim.mesh());
    std::fs::File::create(&path)
        .and_then(|mut f| f.write_all(chrome.as_bytes()))
        .unwrap_or_else(|e| {
            eprintln!("campaign: cannot write {}: {e}", path.display());
            std::process::exit(2);
        });
    println!("  chrome trace: {} (open in Perfetto)", path.display());
    println!();
    println!("per-link metrics, hottest first (cycles={}):", rep.cycles);
    print!("{}", viz::link_metrics_table(sim.metrics(), rep.cycles, 12));
    println!();
    println!("retransmission heatmap (trojan on the 5->9 hop):");
    print!("{}", viz::retx_heatmap(sim.mesh(), sim.metrics()));
}

/// Re-run the alert-rule control pair with telemetry streaming to disk:
/// the clean baseline (must stay alert-free) and the trojan flood (must
/// alert before the watchdog trips).
fn run_telemetry(dir: &std::path::Path, every: u64, seed: u64) {
    let open = |name: &str| {
        TelemetryOut::new(dir.join(name), every).unwrap_or_else(|e| {
            eprintln!("campaign: cannot open {}/{name}: {e}", dir.display());
            std::process::exit(2);
        })
    };
    println!();
    println!(
        "re-running the baseline + trojan flood with telemetry armed \
         (every {every} cycles into {})...",
        dir.display()
    );
    let mut base_out = open("baseline");
    let (base_rep, base_sim) = baseline_uniform(seed, Some(&mut base_out)).unwrap_or_else(|e| {
        eprintln!("campaign: baseline {e}");
        std::process::exit(2);
    });
    let base_alerts = base_sim.telemetry().map_or(0, |t| t.alerts().fired_total());
    println!("  {base_rep}");
    println!("    alerts fired: {base_alerts}");
    let mut flood_out = open("trojan_flood");
    let run = RunOpts {
        telemetry_out: Some(&mut flood_out),
        ..RunOpts::default()
    };
    let (flood_rep, flood_sim) = trojan_flood(seed.wrapping_add(5), run).unwrap_or_else(|e| {
        eprintln!("campaign: trojan-flood {e}");
        std::process::exit(2);
    });
    let tel = flood_sim.telemetry().expect("telemetry armed");
    println!("  {flood_rep}");
    let cycle_or_never = |c: Option<u64>| c.map_or("never".into(), |c| c.to_string());
    println!(
        "    alerts fired: {} (first at cycle {}, watchdog at cycle {})",
        tel.alerts().fired_total(),
        cycle_or_never(tel.alerts().first_alert_cycle()),
        cycle_or_never(tel.first_watchdog_cycle())
    );
    println!(
        "  exported: {0}/baseline/{{metrics.prom,heartbeat.jsonl,engine_trace.json}} \
         and {0}/trojan_flood/...",
        dir.display()
    );
}
