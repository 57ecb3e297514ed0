//! `trace_validate` answers a JSONL trace with its exit code: 0 for a
//! canonical file, 1 for a schema violation (naming the member at fault)
//! or a file with no events.

use noc_mitigation::FaultClass;
use noc_sim::{Record, TraceKind};
use noc_types::{FlitId, LinkId, PacketId};
use std::path::PathBuf;
use std::process::Output;

fn validate(name: &str, text: &str) -> Output {
    let dir = std::env::temp_dir().join(format!("trace-validate-exit-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path: PathBuf = dir.join(name);
    std::fs::write(&path, text).unwrap();
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_trace_validate"))
        .arg(&path)
        .output()
        .expect("trace_validate runs");
    let _ = std::fs::remove_file(&path);
    out
}

fn canonical() -> String {
    [
        TraceKind::FlitInjected {
            flit: FlitId(1),
            packet: PacketId(2),
            core: 3,
        },
        TraceKind::LinkClassified {
            link: LinkId(7),
            class: FaultClass::HardwareTrojan,
        },
    ]
    .into_iter()
    .enumerate()
    .map(|(i, kind)| {
        Record {
            cycle: i as u64,
            kind,
        }
        .to_jsonl()
            + "\n"
    })
    .collect()
}

#[test]
fn a_canonical_file_passes() {
    let out = validate("ok.jsonl", &canonical());
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("2 events, schema OK"));
}

#[test]
fn an_empty_file_fails() {
    let out = validate("empty.jsonl", "");
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("no trace events"));
}

#[test]
fn an_out_of_range_link_fails_naming_the_key() {
    let text = canonical().replace("\"link\":7", "\"link\":70000");
    let out = validate("wide.jsonl", &text);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains(":2:"), "names the line: {stderr}");
    assert!(
        stderr.contains("field 'link': 70000 does not fit in u16"),
        "{stderr}"
    );
}
