//! Fingerprints of the JSON the tree writes where no other golden looks:
//! generated and committed conformance scenarios, the `--json` run
//! export, heartbeat lines, and one trace record per event kind with
//! every optional field both absent and present.
//!
//! A layout change made to a writer and its reader together passes every
//! round-trip test and still breaks each scenario fixture, fuzz artefact
//! and trace file on disk; these values catch it. They are compare-only:
//! a deliberate format change re-records them and says so.

use htnoc::core::report::run_result_json;
use htnoc::core::{run_scenario, select_infected, Scenario as RunScenario, Strategy};
use htnoc::mitigation::{FaultClass, Granularity, LobPlan, ObfuscationMethod};
use htnoc::sim::telemetry::AlertClass;
use htnoc::sim::trace::StallClass;
use htnoc::sim::{Heartbeat, Record, TraceKind};
use htnoc::traffic::{AppModel, AppSpec, TrafficMatrix};
use htnoc::types::{Direction, FlitId, LinkId, Mesh, NodeId, PacketId};
use htnoc_conformance::{Scenario, TOPOLOGY_DEGRADED, TOPOLOGY_MESH, TOPOLOGY_TORUS};

/// FNV-1a 64-bit, the fingerprint every golden in the tree uses.
fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Assert `text` has the recorded length and fingerprint; on a mismatch
/// show the start of what was written.
fn pin(what: &str, text: &str, len: usize, fnv: u64) {
    let got = (text.len(), fnv64(text.as_bytes()));
    assert_eq!(
        got,
        (len, fnv),
        "{what}: the JSON changed (got len {} fnv {:#018x}); it begins {:?}",
        got.0,
        got.1,
        &text[..text.len().min(400)]
    );
}

#[test]
fn generated_scenarios_print_as_recorded() {
    for (family, len, fnv) in [
        (TOPOLOGY_MESH, 534_889, 0x58fe_bbba_f6cf_907e),
        (TOPOLOGY_TORUS, 583_420, 0x6fab_74e2_c7df_93ac),
        (TOPOLOGY_DEGRADED, 598_849, 0xb1c6_ba68_74bf_59df),
    ] {
        let mut text = String::new();
        for seed in 0..500 {
            text.push_str(&Scenario::generate_in(seed, Some(family)).to_json_string());
            text.push('\n');
        }
        pin(&format!("family {family}"), &text, len, fnv);
    }
}

#[test]
fn the_committed_fixture_prints_as_recorded() {
    let text =
        include_str!("../crates/conformance/tests/fixtures/quarantine_credit_regression.json");
    let printed = Scenario::parse(text)
        .expect("the fixture parses")
        .to_json_string();
    pin("fixture", &printed, 481, 0xc7ef_d6e8_cbc4_c603);
}

#[test]
fn a_short_run_exports_as_recorded() {
    let app = AppSpec::fft();
    let mesh = Mesh::paper();
    let mut model = AppModel::new(app.clone(), mesh.clone(), 7);
    let shares = TrafficMatrix::sample(&mut model, 1500).link_shares_xy(&mesh);
    let infected = select_infected(&mesh, &shares, 0.25, Some(app.primary));
    let mut sc = RunScenario::paper_default(app, Strategy::S2sLob).with_infected(infected);
    sc.warmup = 100;
    sc.inject_until = 300;
    sc.max_cycles = 3_000;
    sc.snapshot_interval = 50;
    let json = run_result_json("golden", &run_scenario(&sc));
    pin("run_result_json", &json, 6_183, 0xa733_6e89_4909_3192);
}

#[test]
fn heartbeats_print_as_recorded() {
    let hb = Heartbeat {
        cycle: u64::MAX,
        wall_ms: 1234,
        rate_per_sec: 98_765,
        rss_kb: 40_960,
        checkpoint_age: Some(300),
        alerts_fired: 2,
    };
    let none = Heartbeat {
        checkpoint_age: None,
        cycle: 0,
        ..hb
    };
    let text = format!("{}\n{}\n", hb.to_json(), none.to_json());
    pin("heartbeats", &text, 222, 0xb2bc_c12a_3839_e608);
}

/// One record per event kind, every label of every labelled field, each
/// `Option` both `None` and `Some`, and the widest value of each number.
fn records() -> Vec<Record> {
    let (flit, packet, link) = (FlitId(u64::MAX), PacketId(u64::MAX - 1), LinkId(u16::MAX));
    let mut kinds = vec![
        TraceKind::FlitInjected {
            flit,
            packet,
            core: u16::MAX,
        },
        TraceKind::FlitLaunched {
            flit,
            packet,
            link,
            attempt: u32::MAX,
            obf: None,
        },
        TraceKind::EccCorrected { flit, packet, link },
        TraceKind::EccDetected {
            flit: FlitId(0),
            packet: PacketId(0),
            link: LinkId(0),
        },
        TraceKind::FlitNacked {
            flit,
            packet,
            link,
            lob_requested: true,
        },
        TraceKind::FlitNacked {
            flit,
            packet,
            link,
            lob_requested: false,
        },
        TraceKind::FlitAccepted {
            flit,
            packet,
            link,
            obfuscated: true,
        },
        TraceKind::FlitAccepted {
            flit,
            packet,
            link,
            obfuscated: false,
        },
        TraceKind::FlitEjected {
            flit,
            packet,
            router: NodeId(u16::MAX),
        },
        TraceKind::PacketDropped { packet, link },
        TraceKind::LobEscalated {
            flit,
            link,
            attempts: u32::MAX,
        },
        TraceKind::BistScan { link, passed: true },
        TraceKind::BistScan {
            link,
            passed: false,
        },
        TraceKind::LinkQuarantined {
            link,
            dropped_flits: u64::MAX,
            dropped_packets: 0,
        },
    ];
    let plans = LobPlan::LADDER.into_iter().chain([LobPlan {
        method: ObfuscationMethod::Rotate(7),
        granularity: Granularity::Payload,
    }]);
    for (i, plan) in plans.enumerate() {
        kinds.push(TraceKind::FlitLaunched {
            flit,
            packet,
            link,
            attempt: i as u32,
            obf: Some(plan),
        });
        kinds.push(TraceKind::LobSelected {
            flit,
            packet,
            link,
            plan,
            attempt: i as u32,
        });
    }
    for class in [
        FaultClass::None,
        FaultClass::Transient,
        FaultClass::Permanent,
        FaultClass::HardwareTrojan,
    ] {
        kinds.push(TraceKind::LinkClassified { link, class });
    }
    for class in [
        StallClass::GlobalDeadlock,
        StallClass::CreditStall,
        StallClass::RetxLivelock,
    ] {
        kinds.push(TraceKind::WatchdogTripped {
            class,
            router: None,
            dir: None,
        });
        kinds.push(TraceKind::WatchdogTripped {
            class,
            router: Some(NodeId(u16::MAX)),
            dir: None,
        });
    }
    for dir in Direction::ALL {
        kinds.push(TraceKind::WatchdogTripped {
            class: StallClass::CreditStall,
            router: Some(NodeId(3)),
            dir: Some(dir),
        });
    }
    for class in [
        AlertClass::P99Latency,
        AlertClass::RetxSurge,
        AlertClass::CreditStall,
        AlertClass::EjectionCollapse,
    ] {
        kinds.push(TraceKind::Alert {
            class,
            value: u64::MAX,
            threshold: 96,
        });
    }
    let last = kinds.len() - 1;
    kinds
        .into_iter()
        .enumerate()
        .map(|(i, kind)| Record {
            cycle: if i == last {
                u64::MAX
            } else {
                i as u64 * 1_000_003
            },
            kind,
        })
        .collect()
}

#[test]
fn trace_records_print_as_recorded() {
    let text: String = records().iter().map(|r| r.to_jsonl() + "\n").collect();
    pin("trace records", &text, 5_266, 0x3b84_b046_afb1_6f95);
}
