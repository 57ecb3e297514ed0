//! The `campaign` binary as a user and CI see it: its stdout in every
//! mode, and fingerprints of every file it writes.
//!
//! Wall-clock values are left out: the `noc_phase_ns_total` samples of
//! each `metrics.prom`, each engine Chrome trace, and every heartbeat
//! column but `cycle`, `alerts_fired` and `checkpoint_age`. Everything
//! else two runs of one build write is identical, so a difference here
//! is a change of behaviour. The values are compare-only: a deliberate
//! change re-records them and says so.

use noc_sim::json::Json;
use std::path::{Path, PathBuf};

/// FNV-1a 64-bit, the fingerprint every golden in the tree uses.
fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Assert `bytes` has the recorded length and fingerprint.
fn pin(what: &str, bytes: &[u8], len: usize, fnv: u64) {
    let got = (bytes.len(), fnv64(bytes));
    assert_eq!(
        got,
        (len, fnv),
        "{what} changed (got len {} fnv {:#018x})",
        got.0,
        got.1
    );
}

/// Run the binary with `args`; it must succeed. Returns its stdout.
fn campaign(args: &[&str]) -> String {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_campaign"))
        .args(args)
        .output()
        .expect("campaign runs");
    assert!(out.status.success(), "campaign {args:?}: {out:?}");
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

/// A fresh, empty scratch directory.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "htnoc-campaign-golden-{}-{tag}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn arg(path: &Path) -> &str {
    path.to_str().expect("utf-8 temp path")
}

/// Stdout from its second line on (the first names the directory).
fn after_first_line(stdout: &str) -> &str {
    stdout.split_once('\n').map_or("", |(_, rest)| rest)
}

/// `campaign` with no arguments.
const CAMPAIGN: &str = include_str!("golden/campaign/stdout.txt");

/// The checkpointed flood's report at the default seed.
const CHECKPOINTED_FLOOD: &str = include_str!("golden/campaign/checkpointed_flood.txt");

#[test]
fn the_campaign_prints_as_recorded() {
    assert_eq!(campaign(&[]), CAMPAIGN);
}

#[test]
fn a_checkpointed_flood_without_checkpoints_reports_as_recorded() {
    let dir = scratch_dir("every-0");
    let out = campaign(&["--checkpoint-dir", arg(&dir), "--checkpoint-every", "0"]);
    assert_eq!(after_first_line(&out), CHECKPOINTED_FLOOD);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_halted_and_resumed_flood_writes_and_reports_as_recorded() {
    let dir = scratch_dir("halt");
    let ckpt = ["--checkpoint-dir", arg(&dir), "--checkpoint-every", "300"];
    let halted = campaign(&[&ckpt[..], &["--halt-at", "1700"]].concat());
    assert_eq!(
        after_first_line(&halted),
        "halted at cycle 1700 (simulated crash); rerun with --resume\n"
    );
    let recorded: [(&str, usize, u64); 4] = [
        ("ckpt-000000000900.snap", 517_830, 0xcc6d_7c1e_8a50_6dce),
        ("ckpt-000000001200.snap", 670_776, 0xc205_dc91_6a36_904e),
        ("ckpt-000000001500.snap", 675_500, 0xbc51_252b_a0cb_e3c6),
        (
            "post-mortem/postmortem-cycle-000000000271.snap",
            203_488,
            0xaf74_068e_435d_1b0a,
        ),
    ];
    let mut written = Vec::new();
    for entry in files_under(&dir) {
        let name = entry.strip_prefix(&dir).expect("under dir").to_owned();
        written.push(name.to_str().expect("utf-8 name").to_owned());
    }
    written.sort();
    let names: Vec<&str> = recorded.iter().map(|r| r.0).collect();
    assert_eq!(written, names, "the files the halted run wrote");
    for (name, len, fnv) in recorded {
        pin(
            name,
            &std::fs::read(dir.join(name)).expect("reads"),
            len,
            fnv,
        );
    }
    let resumed = campaign(&[&ckpt[..], &["--resume"]].concat());
    assert_eq!(after_first_line(&resumed), CHECKPOINTED_FLOOD);
    std::fs::remove_dir_all(&dir).ok();
}

/// Every regular file under `dir`, at any depth.
fn files_under(dir: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    for entry in std::fs::read_dir(dir).expect("dir lists") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            files.extend(files_under(&path));
        } else {
            files.push(path);
        }
    }
    files
}

/// What `--trace` and `--telemetry-out` add after [`CAMPAIGN`], with the
/// telemetry directory written as `TEL` and the trace directory as
/// `TRACE`.
const TRACED_TAIL: &str = include_str!("golden/campaign/traced_tail.txt");

#[test]
fn a_traced_run_with_telemetry_prints_and_writes_as_recorded() {
    let dir = scratch_dir("traced");
    let (trace_dir, tel) = (dir.join("trace"), dir.join("tel"));
    let chrome = trace_dir.join("flood.json");
    let out = campaign(&[
        "--trace",
        arg(&chrome),
        "--telemetry-out",
        arg(&tel),
        "--telemetry-every",
        "100",
    ]);
    let out = out
        .replace(arg(&tel), "TEL")
        .replace(arg(&trace_dir), "TRACE");
    assert_eq!(out, format!("{CAMPAIGN}{TRACED_TAIL}"));

    let read = |path: PathBuf| std::fs::read(&path).expect("artefact reads");
    let jsonl = read(trace_dir.join("flood.jsonl"));
    pin("trace JSONL", &jsonl, 9_522_393, 0x5317_4ec6_5457_6a83);
    assert_eq!(jsonl.iter().filter(|&&b| b == b'\n').count(), 106_131);
    pin(
        "Chrome trace",
        &read(chrome),
        6_787_867,
        0x6d56_d2a6_1ab2_015f,
    );
    for (scenario, prom_len, prom_fnv, beats, beats_len, beats_fnv) in [
        (
            "baseline",
            10_616,
            0x5091_ef11_47a2_3f5c,
            14,
            173,
            0x6fa7_4f4c_76a1_197e,
        ),
        (
            "trojan_flood",
            10_307,
            0xf31d_0d01_5ddc_7f93,
            118,
            1_653,
            0xb924_08d4_5f96_7de1,
        ),
    ] {
        let text = String::from_utf8(read(tel.join(scenario).join("metrics.prom"))).unwrap();
        let prom: String = text
            .lines()
            .filter(|l| !l.starts_with("noc_phase_ns_total{"))
            .flat_map(|l| [l, "\n"])
            .collect();
        pin(
            &format!("{scenario} metrics.prom"),
            prom.as_bytes(),
            prom_len,
            prom_fnv,
        );

        let text = String::from_utf8(read(tel.join(scenario).join("heartbeat.jsonl"))).unwrap();
        let mut columns = String::new();
        for line in text.lines() {
            let beat = Json::parse(line).expect("a heartbeat is JSON");
            for key in ["cycle", "alerts_fired", "checkpoint_age"] {
                columns.push_str(&format!("{} ", beat.get(key).expect("member present")));
            }
            columns.push('\n');
        }
        assert_eq!(text.lines().count(), beats, "{scenario} heartbeats");
        pin(
            &format!("{scenario} heartbeat columns"),
            columns.as_bytes(),
            beats_len,
            beats_fnv,
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
