//! Conformance-subsystem self-tests: the differential driver must pass
//! every scenario on a fixed seed set, and — the other half of the
//! bargain — must *fail*, shrink small, and replay deterministically
//! when a deliberate defect is compiled into the simulator's cycle loop.

use htnoc_conformance::{
    run_differential, shrink, Scenario, TOPOLOGY_DEGRADED, TOPOLOGY_MESH, TOPOLOGY_TORUS,
};
use noc_sim::config::Sabotage;

/// Fixed seed sweep: every generated scenario is conformant. This is the
/// unit-test twin of `fuzz --seed 0 --cases 500` (CI runs the binary at
/// larger budgets; this keeps `cargo test` self-contained). The free
/// sampler mixes all three topology families (mesh half the time, torus
/// and degraded a quarter each).
#[test]
fn fixed_seed_set_is_conformant() {
    for seed in 0..500 {
        let sc = Scenario::generate(seed);
        let report = run_differential(&sc);
        assert!(
            report.ok(),
            "seed {seed} diverged: {:?}",
            report.divergences
        );
    }
}

/// The same 500-seed sweep pinned to each topology family in turn, so a
/// family-specific oracle bug cannot hide behind the mixed sampler's
/// seed allocation.
#[test]
fn fixed_seed_set_is_conformant_per_topology_family() {
    for family in [TOPOLOGY_MESH, TOPOLOGY_TORUS, TOPOLOGY_DEGRADED] {
        for seed in 0..500 {
            let sc = Scenario::generate_in(seed, Some(family));
            let report = run_differential(&sc);
            assert!(
                report.ok(),
                "family {family} seed {seed} diverged: {:?}",
                report.divergences
            );
        }
    }
}

/// Every deliberate defect the sabotage self-tests rely on must still be
/// caught when the fabric is a torus — the differential driver's teeth
/// must not dull on the new topology.
#[test]
fn sabotage_defects_still_diverge_on_a_torus() {
    type SabotageMaker = fn(&Scenario) -> Sabotage;
    let kinds: &[(&str, SabotageMaker)] = &[
        ("stall-sa", |sc| Sabotage::StallSaRouter {
            router: sc.packets[0].src % sc.routers().max(1) as u16,
        }),
        ("leak-credit", |_| Sabotage::LeakCredit { every: 2 }),
        ("overcount", |_| Sabotage::OvercountDelivered { every: 2 }),
        ("over-skip", |_| Sabotage::OverSkip),
    ];
    for (name, make) in kinds {
        let diverged = (0..200).any(|seed| {
            let mut sc = Scenario::generate_in(seed, Some(TOPOLOGY_TORUS));
            sc.sabotage = Some(make(&sc));
            !run_differential(&sc).ok()
        });
        assert!(
            diverged,
            "{name} sabotage never diverged on a torus within 200 seeds"
        );
    }
}

/// The minimized quarantine counterexample the fuzzer found while this
/// subsystem was being built (seed 1454): purging a retransmission entry
/// whose flit had already been accepted downstream restored a credit that
/// was simultaneously riding the reverse wire, overflowing the upstream
/// credit counter past the VC depth. Must stay green forever.
#[test]
fn quarantine_credit_double_return_regression() {
    let text = include_str!("fixtures/quarantine_credit_regression.json");
    let sc = Scenario::parse(text).expect("fixture parses");
    let report = run_differential(&sc);
    assert!(
        report.ok(),
        "quarantine credit regression resurfaced: {:?}",
        report.divergences
    );
}

/// Files written before the topology families (like the fixture) lack
/// `topology` and `removed`; `sabotage` and `retry_budget` may be absent
/// or `null`. Anything else missing or out of type is refused.
#[test]
fn older_scenario_files_still_load() {
    let text = include_str!("fixtures/quarantine_credit_regression.json");
    let edit = |from: &str, to: &str| Scenario::parse(&text.replacen(from, to, 1));
    let sc = Scenario::parse(text).expect("fixture parses");
    assert_eq!(
        (sc.topology, sc.removed.len(), sc.retry_budget),
        (TOPOLOGY_MESH, 0, Some(4))
    );
    let no_sabotage = edit(",\"sabotage\":null", "").expect("sabotage may be absent");
    assert_eq!(no_sabotage.sabotage, None);
    let no_budget = edit("\"retry_budget\":4,", "").expect("retry_budget may be absent");
    assert_eq!(no_budget.retry_budget, None);
    let null_budget = edit("\"retry_budget\":4", "\"retry_budget\":null").expect("or null");
    assert_eq!(null_budget.retry_budget, None);
    for (from, to) in [
        ("\"seed\":1454,", ""),
        ("\"seed\":1454", "\"seed\":1454,\"topology\":null"),
        ("\"seed\":1454", "\"seed\":1454,\"removed\":null"),
    ] {
        assert!(edit(from, to).is_err(), "{from} -> {to}");
    }
}

/// Drive one sabotage through the full pipeline: find a diverging seed,
/// shrink it, check the minimality bounds from the acceptance criteria
/// (≤ 4 routers, ≤ 10 packets), and replay the minimized scenario through
/// a JSON round-trip twice to prove determinism.
fn sabotage_pipeline(make: impl Fn(&Scenario) -> Sabotage) -> Scenario {
    let mut failing = None;
    for seed in 0..200 {
        let mut sc = Scenario::generate(seed);
        sc.sabotage = Some(make(&sc));
        if !run_differential(&sc).ok() {
            failing = Some(sc);
            break;
        }
    }
    let sc = failing.expect("a sabotaged run must diverge within 200 seeds");
    let minimal = shrink(&sc, &|c| !run_differential(c).ok());
    assert!(
        minimal.routers() <= 4,
        "shrunk to {} routers (want <= 4)",
        minimal.routers()
    );
    assert!(
        minimal.packets.len() <= 10,
        "shrunk to {} packets (want <= 10)",
        minimal.packets.len()
    );
    // Deterministic replay through the serialization boundary.
    let round = Scenario::parse(&minimal.to_json_string()).expect("round-trip");
    assert_eq!(round, minimal, "JSON round-trip is lossless");
    let a = run_differential(&round);
    let b = run_differential(&round);
    assert!(!a.ok(), "minimized scenario still fails");
    assert_eq!(
        a.divergences, b.divergences,
        "replay is bit-identically deterministic"
    );
    minimal
}

#[test]
fn stall_sa_sabotage_shrinks_to_minimal_reproducer() {
    let minimal = sabotage_pipeline(|sc| {
        // Stall a router on some packet's route so the defect bites.
        Sabotage::StallSaRouter {
            router: sc.packets[0].src % sc.routers().max(1) as u16,
        }
    });
    assert!(
        matches!(minimal.sabotage, Some(Sabotage::StallSaRouter { .. })),
        "the sabotage itself is load-bearing and must survive shrinking"
    );
}

#[test]
fn leak_credit_sabotage_shrinks_to_minimal_reproducer() {
    let minimal = sabotage_pipeline(|_| Sabotage::LeakCredit { every: 2 });
    assert!(matches!(
        minimal.sabotage,
        Some(Sabotage::LeakCredit { .. })
    ));
}

#[test]
fn overcount_delivered_sabotage_shrinks_to_minimal_reproducer() {
    let minimal = sabotage_pipeline(|_| Sabotage::OvercountDelivered { every: 2 });
    assert!(matches!(
        minimal.sabotage,
        Some(Sabotage::OvercountDelivered { .. })
    ));
}

#[test]
fn over_skip_sabotage_shrinks_to_minimal_reproducer() {
    // The fast-forward off-by-one: only bites when a skip window is
    // bounded by the source's injection horizon, i.e. on scenarios with
    // genuine idle gaps — exactly what the bursty generator arm
    // produces. The skipped-over injection surfaces as injection drift
    // at the next epoch cross-check.
    let minimal = sabotage_pipeline(|_| Sabotage::OverSkip);
    assert!(matches!(minimal.sabotage, Some(Sabotage::OverSkip)));
}

/// The oracle is an independent reimplementation; sanity-check one
/// crossing prediction against the real simulator on the paper's mesh:
/// an armed trojan under mitigation classifies as HardwareTrojan and the
/// victim packet still delivers (the L-Ob resolution from PAPER.md).
#[test]
fn oracle_and_simulator_agree_on_the_paper_attack() {
    use htnoc_conformance::{PacketSpec, TrojanSpec};
    let mut sc = Scenario {
        seed: 0,
        width: 4,
        height: 4,
        concentration: 1,
        vcs: 2,
        vc_depth: 4,
        retx_depth: 4,
        retx_per_vc: false,
        mitigation: true,
        retry_budget: None,
        watchdog: false,
        max_cycles: 2_000,
        packets: vec![PacketSpec {
            id: 1,
            src: 0,
            dest: 15,
            vc: 0,
            len: 4,
            inject_at: 0,
            thread: 0,
        }],
        trojans: Vec::new(),
        stuck: Vec::new(),
        sabotage: None,
        topology: htnoc_conformance::TOPOLOGY_MESH,
        removed: Vec::new(),
    };
    let path =
        htnoc_conformance::oracle::xy_walk(&sc.mesh(), noc_types::NodeId(0), noc_types::NodeId(15));
    sc.trojans.push(TrojanSpec {
        link: path[1],
        target_dest: 15,
        armed: true,
        cooldown: 0,
    });
    let report = run_differential(&sc);
    assert!(
        report.ok(),
        "paper attack diverged: {:?}",
        report.divergences
    );
    assert!(report.quiesced, "mitigation resolves the DoS");
}

/// A diverging scenario yields a pre-divergence snapshot: the simulator
/// frozen at the last conformant epoch boundary, restorable into a fresh
/// simulator with the same config. A conformant scenario yields none.
#[test]
fn divergence_artifact_captures_last_conformant_state() {
    use htnoc_conformance::divergence_artifact;
    // A clean run produces no artifact.
    let clean = Scenario::generate(0);
    assert!(run_differential(&clean).ok(), "seed 0 is conformant");
    assert!(divergence_artifact(&clean, 1).is_none());
    // Find a sabotaged seed that diverges and capture its artifact.
    let mut failing = None;
    for seed in 0..200 {
        let mut sc = Scenario::generate(seed);
        sc.sabotage = Some(Sabotage::LeakCredit { every: 2 });
        if !run_differential(&sc).ok() {
            failing = Some(sc);
            break;
        }
    }
    let sc = failing.expect("a sabotaged run must diverge within 200 seeds");
    let (cycle, snap) = divergence_artifact(&sc, 1).expect("diverging run yields an artifact");
    assert_eq!(
        snap.cycle(),
        cycle,
        "header cycle matches the reported cycle"
    );
    // The artifact restores into a simulator built from the same config.
    let mut sim = noc_sim::Simulator::new(sc.sim_config());
    sim.restore(&snap).expect("artifact restores cleanly");
    assert_eq!(sim.cycle(), cycle);
}
