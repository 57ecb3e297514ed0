//! `conformance_repro` answers a scenario file with its exit code: 0 when
//! the replay conforms, 2 when the file cannot be read or is not a
//! scenario. Hostile files get a typed "not a scenario" answer, never a
//! panic, an abort or a run of something else. `fuzz` refuses a
//! sabotage it cannot run as written the same way.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const FIXTURE: &str = include_str!("fixtures/quarantine_credit_regression.json");

fn repro(path: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_conformance_repro"))
        .arg(path)
        .output()
        .expect("conformance_repro runs")
}

/// A scratch directory of this test's own.
fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("repro-exit-{test}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The committed fixture with one substring replaced.
fn mutated(from: &str, to: &str) -> String {
    assert!(FIXTURE.contains(from), "fixture lost {from}");
    FIXTURE.replacen(from, to, 1)
}

#[test]
fn the_committed_fixture_replays_clean() {
    let dir = scratch("fixture");
    let path = dir.join("fixture.json");
    std::fs::write(&path, FIXTURE).unwrap();
    let out = repro(&path);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(stdout.contains("conformant: no divergences"), "{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn hostile_files_exit_2_naming_the_fault() {
    let dir = scratch("hostile");
    for (name, text, names) in [
        ("deep", "[".repeat(100_000), "nesting deeper than"),
        (
            "width",
            mutated("\"width\":4", "\"width\":260"),
            "'width': 260",
        ),
        (
            "huge",
            mutated("\"width\":4", "\"width\":100000").replacen(
                "\"height\":2",
                "\"height\":100000",
                1,
            ),
            "'width': 100000",
        ),
        (
            "concentration",
            mutated("\"concentration\":1", "\"concentration\":1000"),
            "'concentration': 1000",
        ),
        (
            "duplicate_id",
            mutated("\"id\":11", "\"id\":8"),
            "packet id 8 is not unique",
        ),
        // Values that fit their types but not the engine or the mesh.
        ("width_0", mutated("\"width\":4", "\"width\":0"), "'width'"),
        (
            "height_0",
            mutated("\"height\":2", "\"height\":0"),
            "'height'",
        ),
        (
            "concentration_0",
            mutated("\"concentration\":1", "\"concentration\":0"),
            "'concentration'",
        ),
        ("vcs_0", mutated("\"vcs\":2", "\"vcs\":0"), "'vcs'"),
        ("vcs_100", mutated("\"vcs\":2", "\"vcs\":100"), "'vcs'"),
        (
            "vc_depth_0",
            mutated("\"vc_depth\":2", "\"vc_depth\":0"),
            "'vc_depth'",
        ),
        (
            "retx_depth_0",
            mutated("\"retx_depth\":2", "\"retx_depth\":0"),
            "'retx_depth'",
        ),
        (
            "retry_budget_0",
            mutated("\"retry_budget\":4", "\"retry_budget\":0"),
            "'retry_budget'",
        ),
        (
            "src_999",
            mutated("\"src\":4", "\"src\":999"),
            "'packets[0].src'",
        ),
        (
            "dest_999",
            mutated("\"dest\":6", "\"dest\":999"),
            "'packets[0].dest'",
        ),
        ("vc_99", mutated("\"vc\":0", "\"vc\":99"), "'packets[0].vc'"),
        (
            "len_0",
            mutated("\"len\":4", "\"len\":0"),
            "'packets[0].len'",
        ),
        (
            "trojan_link_9999",
            mutated("\"link\":12", "\"link\":9999"),
            "'trojans[0].link'",
        ),
        (
            "stuck_link_9999",
            mutated("\"stuck\":[]", "\"stuck\":[{\"link\":9999,\"bit\":3}]"),
            "'stuck[0].link'",
        ),
        (
            "stuck_bit_200",
            mutated("\"stuck\":[]", "\"stuck\":[{\"link\":1,\"bit\":200}]"),
            "'stuck[0].bit'",
        ),
        (
            "stall_sa_router_999",
            mutated(
                "\"sabotage\":null",
                "\"sabotage\":{\"kind\":\"stall_sa_router\",\"router\":999}",
            ),
            "'sabotage'",
        ),
        (
            "leak_credit_every_0",
            mutated(
                "\"sabotage\":null",
                "\"sabotage\":{\"kind\":\"leak_credit\",\"every\":0}",
            ),
            "'sabotage'",
        ),
        (
            "overcount_every_0",
            mutated(
                "\"sabotage\":null",
                "\"sabotage\":{\"kind\":\"overcount_delivered\",\"every\":0}",
            ),
            "'sabotage'",
        ),
        ("not_json", "scenario".to_string(), "not a scenario"),
    ] {
        let path = dir.join(format!("{name}.json"));
        std::fs::write(&path, text).unwrap();
        let out = repro(&path);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{name}: {stderr}");
        assert!(stderr.contains("is not a scenario"), "{name}: {stderr}");
        assert!(
            stderr.contains(names),
            "{name} must name {names:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{name} must not run");
    }
    let out = repro(&dir.join("missing.json"));
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fuzz_refuses_a_sabotage_it_cannot_run() {
    for spec in ["leak-credit:0", "overcount:0", "stall-sa:65536"] {
        let out = Command::new(env!("CARGO_BIN_EXE_fuzz"))
            .args(["--cases", "0", "--sabotage", spec])
            .output()
            .expect("fuzz runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{spec}: {stderr}");
        assert!(stderr.contains(spec), "{spec} must be named: {stderr}");
    }
}
