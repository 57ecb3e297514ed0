//! Randomized conformance fuzzing.
//!
//! ```text
//! cargo run -p htnoc-conformance --bin fuzz -- --seed 1 --cases 500
//! cargo run -p htnoc-conformance --bin fuzz -- --seed 1 --budget-secs 120
//! ```
//!
//! Runs `cases` scenarios generated from consecutive seeds (or as many
//! as fit in `budget-secs`), each through the differential driver. On
//! the first divergence the scenario is shrunk to a minimal reproducer,
//! written as JSON under `--out` (default `target/conformance`) next to
//! a pre-divergence simulator snapshot (the state at the last conformant
//! epoch boundary, restorable via `Simulator::restore` for single-step
//! debugging), and the exact replay command is printed; the process then
//! exits nonzero.
//!
//! With `--checkpoint-dir D`, progress is persisted atomically every
//! `--checkpoint-every` conformant scenarios (default 25), and
//! `--resume` continues a killed campaign from the first unfinished
//! seed instead of re-fuzzing the prefix.
//!
//! With `--telemetry-out DIR`, campaign liveness is exported on the
//! same interval: an atomically replaced Prometheus exposition
//! (`DIR/metrics.prom`, scenario throughput counters) plus an
//! append-only heartbeat log (`DIR/heartbeat.jsonl`) whose `cycle` field
//! counts scenarios completed — the hook a supervisor watches to tell a
//! slow campaign from a hung one.

use htnoc_conformance::{
    divergence_artifact, run_differential_threads, shrink, Scenario, TOPOLOGY_DEGRADED,
    TOPOLOGY_MESH, TOPOLOGY_TORUS,
};
use noc_sim::config::Sabotage;
use noc_sim::snapshot::{open_frame, seal_frame};
use noc_sim::{Reader, TelemetryOut, Writer};
use std::path::{Path, PathBuf};
use std::time::Instant;

struct Args {
    seed: u64,
    cases: u64,
    budget_secs: Option<u64>,
    out: String,
    sabotage: Option<Sabotage>,
    threads: usize,
    checkpoint_dir: Option<PathBuf>,
    checkpoint_every: u64,
    resume: bool,
    telemetry_out: Option<PathBuf>,
    topology: Option<u8>,
}

/// Parse `--topology` specs: `mesh`, `torus`, or `degraded`.
fn parse_topology(spec: &str) -> Result<u8, String> {
    match spec {
        "mesh" => Ok(TOPOLOGY_MESH),
        "torus" => Ok(TOPOLOGY_TORUS),
        "degraded" => Ok(TOPOLOGY_DEGRADED),
        other => Err(format!(
            "unknown topology '{other}' (mesh, torus, degraded)"
        )),
    }
}

/// Fuzz progress, persisted after every `--checkpoint-every` seeds so a
/// killed campaign resumes where it left off instead of re-fuzzing the
/// prefix.
struct Progress {
    /// First seed not yet completed.
    next_seed: u64,
    /// Scenarios completed so far.
    ran: u64,
}

const PROGRESS_MAGIC: &[u8; 8] = b"NOCFUZZ\0";

fn progress_path(dir: &Path) -> PathBuf {
    dir.join("fuzz-progress.bin")
}

/// Atomically persist progress (temp sibling + fsync + rename).
fn save_progress(dir: &Path, p: &Progress) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let mut w = Writer::default();
    w.put(&mut (p.next_seed, p.ran));
    let bytes = seal_frame(PROGRESS_MAGIC, &w.into_bytes());
    noc_sim::telemetry::write_atomic(&progress_path(dir), &bytes)
}

/// Load persisted progress; `None` when absent or corrupt (start fresh).
fn load_progress(dir: &Path) -> Option<Progress> {
    let bytes = std::fs::read(progress_path(dir)).ok()?;
    let mut r = Reader::new(open_frame(PROGRESS_MAGIC, &bytes).ok()?);
    let (next_seed, ran) = r.get().ok()?;
    r.finish().ok()?;
    Some(Progress { next_seed, ran })
}

/// Parse `--sabotage` specs: `stall-sa:R`, `leak-credit:N`, `overcount:N`,
/// or the argless `over-skip`.
fn parse_sabotage(spec: &str) -> Result<Sabotage, String> {
    if spec == "over-skip" {
        return Ok(Sabotage::OverSkip);
    }
    let (kind, arg) = spec
        .split_once(':')
        .ok_or_else(|| format!("sabotage spec '{spec}' needs kind:value"))?;
    let bad = |e: std::num::ParseIntError| format!("sabotage spec '{spec}': {e}");
    let every = || match arg.parse().map_err(bad)? {
        0 => Err(format!(
            "sabotage spec '{spec}': the period must be at least 1"
        )),
        n => Ok(n),
    };
    match kind {
        "stall-sa" => Ok(Sabotage::StallSaRouter {
            router: arg.parse().map_err(bad)?,
        }),
        "leak-credit" => Ok(Sabotage::LeakCredit { every: every()? }),
        "overcount" => Ok(Sabotage::OvercountDelivered { every: every()? }),
        other => Err(format!(
            "unknown sabotage kind '{other}' (stall-sa, leak-credit, overcount, over-skip)"
        )),
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        seed: 1,
        cases: 100,
        budget_secs: None,
        out: "target/conformance".into(),
        sabotage: None,
        threads: 1,
        checkpoint_dir: None,
        checkpoint_every: 25,
        resume: false,
        telemetry_out: None,
        topology: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--seed" => args.seed = value("--seed")?.parse().map_err(|e| format!("{e}"))?,
            "--cases" => args.cases = value("--cases")?.parse().map_err(|e| format!("{e}"))?,
            "--budget-secs" => {
                args.budget_secs = Some(
                    value("--budget-secs")?
                        .parse()
                        .map_err(|e| format!("{e}"))?,
                )
            }
            "--out" => args.out = value("--out")?,
            "--sabotage" => args.sabotage = Some(parse_sabotage(&value("--sabotage")?)?),
            "--threads" => {
                args.threads = value("--threads")?.parse().map_err(|e| format!("{e}"))?
            }
            "--checkpoint-dir" => args.checkpoint_dir = Some(value("--checkpoint-dir")?.into()),
            "--checkpoint-every" => {
                args.checkpoint_every = value("--checkpoint-every")?
                    .parse()
                    .map_err(|e| format!("{e}"))?
            }
            "--resume" => args.resume = true,
            "--telemetry-out" => args.telemetry_out = Some(value("--telemetry-out")?.into()),
            "--topology" => args.topology = Some(parse_topology(&value("--topology")?)?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

/// Prometheus exposition for fuzz-campaign liveness (strict-parse
/// compatible with [`noc_sim::parse_prometheus`]).
fn fuzz_prom(ran: u64, next_seed: u64, threads: usize) -> String {
    let mut out = String::new();
    let mut metric = |name: &str, help: &str, kind: &str, value: u64| {
        out.push_str(&format!(
            "# HELP {name} {help}\n# TYPE {name} {kind}\n{name} {value}\n"
        ));
    };
    metric(
        "fuzz_scenarios_total",
        "Conformant scenarios completed.",
        "counter",
        ran,
    );
    metric(
        "fuzz_next_seed",
        "First seed not yet completed.",
        "gauge",
        next_seed,
    );
    metric(
        "fuzz_threads",
        "Shard count each differential run uses.",
        "gauge",
        threads as u64,
    );
    out
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fuzz: {e}");
            eprintln!(
                "usage: fuzz [--seed N] [--cases K] [--budget-secs S] [--out DIR] \
                 [--threads T] [--topology mesh|torus|degraded] \
                 [--sabotage stall-sa:R|leak-credit:N|overcount:N|over-skip] \
                 [--checkpoint-dir D [--checkpoint-every K] [--resume]] \
                 [--telemetry-out DIR]"
            );
            std::process::exit(2);
        }
    };
    let start = Instant::now();
    let mut ran = 0u64;
    let mut first_seed = args.seed;
    if args.resume {
        let Some(dir) = args.checkpoint_dir.as_deref() else {
            eprintln!("fuzz: --resume needs --checkpoint-dir");
            std::process::exit(2);
        };
        if let Some(p) = load_progress(dir) {
            // Completed seeds are skipped wholesale; the budget counts
            // them as already run.
            first_seed = first_seed.max(p.next_seed);
            ran = p.ran;
            println!("fuzz: resuming at seed {first_seed} ({ran} scenarios already done)");
        }
    }
    let mut telemetry = args.telemetry_out.as_ref().map(|dir| {
        TelemetryOut::new(dir, args.checkpoint_every.max(1)).unwrap_or_else(|e| {
            eprintln!("fuzz: cannot open {}: {e}", dir.display());
            std::process::exit(2);
        })
    });
    // Tracks the first seed not yet completed (where the loop broke).
    let mut next_seed = first_seed;
    for seed in first_seed.. {
        next_seed = seed;
        let time_up = args
            .budget_secs
            .is_some_and(|s| start.elapsed().as_secs() >= s);
        let cases_done = args.budget_secs.is_none() && ran >= args.cases;
        if time_up || cases_done {
            break;
        }
        let mut scenario = Scenario::generate_in(seed, args.topology);
        if let Some(sabotage) = args.sabotage {
            // Self-test mode: compile the defect into every scenario. A
            // stalled router must exist in the sampled mesh to bite.
            scenario.sabotage = Some(match sabotage {
                Sabotage::StallSaRouter { router } => Sabotage::StallSaRouter {
                    router: router % scenario.routers().max(1) as u16,
                },
                other => other,
            });
        }
        let report = run_differential_threads(&scenario, args.threads);
        ran += 1;
        if report.ok() {
            if let Some(dir) = args.checkpoint_dir.as_deref() {
                if args.checkpoint_every > 0 && ran.is_multiple_of(args.checkpoint_every) {
                    let p = Progress {
                        next_seed: seed + 1,
                        ran,
                    };
                    if let Err(e) = save_progress(dir, &p) {
                        eprintln!("fuzz: cannot persist progress: {e}");
                        std::process::exit(2);
                    }
                }
            }
            if let Some(out) = telemetry.as_mut() {
                // Heartbeat "cycle" counts scenarios completed, so a
                // supervisor can tell a slow campaign from a hung one.
                if out.due(ran) {
                    let prom = fuzz_prom(ran, seed + 1, args.threads);
                    if let Err(e) = out.write_now(ran, &prom, None, 0) {
                        eprintln!("fuzz: telemetry write failed: {e}");
                    }
                }
            }
            if ran.is_multiple_of(50) {
                println!(
                    "fuzz: {ran} scenarios conformant ({}s elapsed)",
                    start.elapsed().as_secs()
                );
            }
            continue;
        }
        println!("fuzz: seed {seed} diverged — shrinking");
        for d in report.divergences.iter().take(8) {
            println!("  {d}");
        }
        std::fs::create_dir_all(&args.out).expect("create output directory");
        // Forensic artifact: the simulator frozen at the last conformant
        // epoch boundary, restorable for single-step debugging.
        if let Some((cycle, snap)) = divergence_artifact(&scenario, args.threads) {
            let snap_path = format!("{}/failing-seed-{seed}-pre-divergence.snap", args.out);
            match snap.write_atomic(snap_path.as_ref()) {
                Ok(()) => println!("fuzz: pre-divergence snapshot (cycle {cycle}): {snap_path}"),
                Err(e) => eprintln!("fuzz: cannot write {snap_path}: {e}"),
            }
        }
        let minimal = shrink(&scenario, &|c| {
            !run_differential_threads(c, args.threads).ok()
        });
        let final_report = run_differential_threads(&minimal, args.threads);
        let path = format!("{}/failing-seed-{seed}.json", args.out);
        std::fs::create_dir_all(&args.out).expect("create output directory");
        std::fs::write(&path, minimal.to_json_string()).expect("write failing scenario");
        println!(
            "fuzz: minimized to {} routers / {} packets / {} trojans; divergences:",
            minimal.routers(),
            minimal.packets.len(),
            minimal.trojans.len()
        );
        for d in final_report.divergences.iter().take(8) {
            println!("  {d}");
        }
        println!("fuzz: wrote {path}");
        println!(
            "fuzz: replay with: cargo run -p htnoc-conformance --bin conformance_repro -- {path}"
        );
        std::process::exit(1);
    }
    if let Some(out) = telemetry.as_mut() {
        let prom = fuzz_prom(ran, next_seed, args.threads);
        if let Err(e) = out.write_now(ran, &prom, None, 0) {
            eprintln!("fuzz: telemetry write failed: {e}");
        }
    }
    println!(
        "fuzz: {ran} scenarios, zero divergences ({}s)",
        start.elapsed().as_secs()
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_sim::snapshot::crc64_portable;

    #[test]
    fn sabotage_specs_run_as_written_or_not_at_all() {
        assert_eq!(
            parse_sabotage("stall-sa:65535"),
            Ok(Sabotage::StallSaRouter { router: 65535 })
        );
        assert_eq!(
            parse_sabotage("leak-credit:3"),
            Ok(Sabotage::LeakCredit { every: 3 })
        );
        assert_eq!(parse_sabotage("over-skip"), Ok(Sabotage::OverSkip));
        for spec in [
            "stall-sa:65536",
            "leak-credit:0",
            "overcount:0",
            "overcount:-1",
        ] {
            let err = parse_sabotage(spec).expect_err(spec);
            assert!(err.contains(spec), "{spec}: {err}");
        }
    }

    #[test]
    fn progress_record_keeps_its_layout_and_refuses_any_flipped_byte() {
        let dir = std::env::temp_dir().join(format!("htnoc-fuzz-progress-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        // The record's layout, byte by byte: magic ‖ crc64(payload) ‖
        // payload, the payload `next_seed ‖ ran` as little-endian u64s.
        let mut payload = 1_234u64.to_le_bytes().to_vec();
        payload.extend_from_slice(&56u64.to_le_bytes());
        let mut record = PROGRESS_MAGIC.to_vec();
        record.extend_from_slice(&crc64_portable(&payload).to_le_bytes());
        record.extend_from_slice(&payload);

        std::fs::write(progress_path(&dir), &record).expect("record written");
        let p = load_progress(&dir).expect("a hand-built record loads");
        assert_eq!((p.next_seed, p.ran), (1_234, 56));
        save_progress(&dir, &p).expect("progress saves");
        assert_eq!(std::fs::read(progress_path(&dir)).expect("saved"), record);

        for i in 0..record.len() {
            let mut bad = record.clone();
            bad[i] ^= 0x01;
            std::fs::write(progress_path(&dir), &bad).expect("record written");
            assert!(load_progress(&dir).is_none(), "flip at byte {i} loaded");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
