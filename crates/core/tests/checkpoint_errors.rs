//! The checkpointed campaign fails typed: a checkpoint directory it
//! cannot use, a fresh run into a directory that already holds
//! checkpoints, a newest checkpoint whose driver records do not decode,
//! or one written under another snapshot format version ends the
//! `campaign` binary with exit status 2 and a message naming the path,
//! never a panic.

use noc_sim::snapshot::{open_frame, seal_frame};
use noc_sim::{SimSnapshot, SNAPSHOT_VERSION};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn campaign(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_campaign"))
        .args(args)
        .output()
        .expect("campaign runs")
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("htnoc-ckpt-errors-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Run the campaign into `dir` with checkpoints every 300 cycles until it
/// halts at cycle 700, and return the newest checkpoint it left.
fn halt_at_700(dir: &Path) -> PathBuf {
    let halted = campaign(&[&ckpt_args(dir)[..], &["--halt-at", "700"]].concat());
    assert!(halted.status.success(), "{halted:?}");
    std::fs::read_dir(dir)
        .expect("checkpoint dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "snap"))
        .max()
        .expect("a checkpoint was written")
}

fn ckpt_args(dir: &Path) -> [&str; 4] {
    let dir = dir.to_str().expect("utf-8 temp path");
    ["--checkpoint-dir", dir, "--checkpoint-every", "300"]
}

fn assert_exit_2_naming(out: &Output, path: &Path) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(
        stderr.contains(&path.display().to_string()),
        "the message must name {}: {stderr}",
        path.display()
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn a_checkpoint_dir_that_is_a_regular_file_exits_2() {
    let dir = scratch_dir("file");
    let file = dir.join("not-a-dir");
    std::fs::write(&file, b"").expect("regular file");
    let file_arg = file.to_str().expect("utf-8 temp path");
    // Without --resume the first save fails; with it, the listing does.
    for extra in [&[][..], &["--resume"][..]] {
        let mut args = vec!["--checkpoint-dir", file_arg, "--checkpoint-every", "100"];
        args.extend_from_slice(extra);
        assert_exit_2_naming(&campaign(&args), &file);
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_checkpoint_with_truncated_user_data_exits_2() {
    let dir = scratch_dir("truncated");
    let newest = halt_at_700(&dir);
    // Cut the stall log and traffic cursor short; `write_atomic` re-seals
    // the CRC, so only the driver's own decode can object.
    let mut snap = SimSnapshot::read(&newest).expect("checkpoint reads");
    let half = snap.user_data()[..snap.user_data().len() / 2].to_vec();
    snap.set_user_data(half);
    snap.write_atomic(&newest).expect("checkpoint rewritten");

    assert_exit_2_naming(
        &campaign(&[&ckpt_args(&dir)[..], &["--resume"]].concat()),
        &newest,
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_checkpoint_from_another_format_version_exits_2() {
    let dir = scratch_dir("version");
    let newest = halt_at_700(&dir);
    // Declare the previous format version in a frame whose length, magic
    // and CRC all check out: a sound file, not a torn write to skip.
    let bytes = std::fs::read(&newest).expect("checkpoint reads");
    let magic: [u8; 8] = bytes[..8].try_into().expect("8-byte magic");
    let mut body = open_frame(&magic, &bytes).expect("sealed").to_vec();
    body[..4].copy_from_slice(&(SNAPSHOT_VERSION - 1).to_le_bytes());
    std::fs::write(&newest, seal_frame(&magic, &body)).expect("checkpoint rewritten");

    let out = campaign(&[&ckpt_args(&dir)[..], &["--resume"]].concat());
    assert_exit_2_naming(&out, &dir);
    let stderr = String::from_utf8_lossy(&out.stderr);
    let version = format!("snapshot version {}", SNAPSHOT_VERSION - 1);
    assert!(stderr.contains(&version), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Every regular file directly in `dir`, by name, with its bytes.
fn files_in(dir: &Path) -> Vec<(PathBuf, Vec<u8>)> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .expect("checkpoint dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.is_file())
        .map(|p| {
            let bytes = std::fs::read(&p).expect("file reads");
            (p, bytes)
        })
        .collect();
    files.sort();
    files
}

#[test]
fn a_fresh_run_into_a_used_checkpoint_dir_exits_2_and_touches_nothing() {
    let dir = scratch_dir("used");
    halt_at_700(&dir);
    let before = files_in(&dir);
    // Another seed, no --resume: its saves would prune and overwrite the
    // first run's checkpoints, and a later --resume would mix the two.
    let out = campaign(&[&["2"][..], &ckpt_args(&dir)[..], &["--halt-at", "1000"]].concat());
    assert_exit_2_naming(&out, &dir);
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("already holds"),
        "{out:?}"
    );
    assert_eq!(files_in(&dir), before, "no checkpoint written or pruned");
    std::fs::remove_dir_all(&dir).ok();
}
