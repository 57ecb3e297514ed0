//! Cross-crate integration: the full attack → detection → mitigation
//! pipeline, exercised through the public `htnoc` API.

use htnoc::prelude::*;
use noc_types::Direction;

fn infected_set(frac: f64) -> Vec<LinkId> {
    let mesh = Mesh::paper();
    let mut model = AppModel::new(AppSpec::blackscholes(), mesh.clone(), 5);
    let shares = TrafficMatrix::sample(&mut model, 1500).link_shares_xy(&mesh);
    select_infected(&mesh, &shares, frac, Some(AppSpec::blackscholes().primary))
}

fn short_scenario(strategy: Strategy, infected: Vec<LinkId>) -> Scenario {
    let mut sc = Scenario::paper_default(AppSpec::blackscholes(), strategy).with_infected(infected);
    sc.warmup = 200;
    sc.inject_until = 700;
    sc.max_cycles = 10_000;
    sc.snapshot_interval = 50;
    sc
}

#[test]
fn every_strategy_reaches_a_sound_terminal_state() {
    let infected = infected_set(0.10);
    for strategy in [
        Strategy::Unprotected,
        Strategy::E2eObfuscation,
        Strategy::Tdm { domains: 2 },
        Strategy::Reroute,
        Strategy::S2sLob,
    ] {
        let r = run_scenario(&short_scenario(strategy.clone(), infected.clone()));
        // Flit accounting is conserved in every terminal state.
        assert!(
            r.stats.delivered_packets <= r.stats.injected_packets,
            "{strategy:?}"
        );
        assert!(r.stats.delivered_flits <= r.stats.injected_flits);
        // Strategies that defeat or avoid the trojan drain completely.
        match strategy {
            Strategy::S2sLob | Strategy::Reroute => {
                assert!(r.drained, "{strategy:?} must finish the workload");
                assert_eq!(r.stats.delivered_packets, r.stats.injected_packets);
            }
            _ => {
                assert!(!r.drained, "{strategy:?} must stay starved");
            }
        }
    }
}

#[test]
fn detector_classifies_the_infected_link_as_trojan() {
    let infected = infected_set(0.05);
    let sc = short_scenario(Strategy::S2sLob, infected.clone());
    let r = run_scenario(&sc);
    assert!(r.drained);
    // The event stream contains a hardware-trojan classification for at
    // least one of the infected links (detection needs BIST to have run,
    // which needs a repeated identical syndrome — the payload FSM cycles
    // through few states, so repeats happen within the run).
    let classified: Vec<_> = r
        .events
        .iter()
        .filter_map(|e| match e {
            SimEvent::LinkClassified { link, class, .. } => Some((*link, *class)),
            _ => None,
        })
        .collect();
    assert!(
        classified
            .iter()
            .any(|(l, c)| infected.contains(l) && *c == FaultClass::HardwareTrojan),
        "classifications: {classified:?}"
    );
}

#[test]
fn trojan_on_every_link_is_still_mitigated() {
    // The paper's worst case (Fig. 8 right): TASP on all 48 links. With
    // mitigation every link learns its method; traffic keeps flowing.
    let mesh = Mesh::paper();
    let mut sim = Simulator::new(SimConfig::paper());
    for l in mesh.all_links() {
        let ht = TaspHt::new(TaspConfig::new(TargetSpec::dest(0)));
        sim.link_faults_mut(l).trojan = Some(ht);
    }
    sim.arm_trojans(true);
    let mut traffic =
        SyntheticTraffic::new(mesh, Pattern::Hotspot(vec![NodeId(0)]), 0.01, 11).until(400);
    assert!(
        sim.run_to_quiescence(20_000, &mut traffic),
        "mitigation must survive full-fabric infection"
    );
    assert_eq!(sim.stats().delivered_packets, sim.stats().injected_packets);
}

#[test]
fn transients_and_trojans_coexist() {
    // Background transient noise must not confuse the trojan mitigation.
    let mut sim = Simulator::new(SimConfig::paper());
    let mesh = sim.mesh().clone();
    let link = mesh.link_out(NodeId(0), Direction::East).unwrap();
    let ht = TaspHt::new(TaspConfig::new(TargetSpec::dest(1)));
    sim.link_faults_mut(link).trojan = Some(ht);
    sim.arm_trojans(true);
    for l in mesh.all_links() {
        sim.link_faults_mut(l).transient_bit_prob = 0.0002;
    }
    let mut traffic = SyntheticTraffic::new(mesh, Pattern::UniformRandom, 0.015, 3).until(500);
    assert!(sim.run_to_quiescence(30_000, &mut traffic));
    assert_eq!(sim.stats().delivered_packets, sim.stats().injected_packets);
    assert!(sim.stats().corrected_faults > 0, "transients were live");
}

#[test]
fn deterministic_across_runs() {
    let run = || {
        let sc = short_scenario(Strategy::S2sLob, infected_set(0.10));
        let r = run_scenario(&sc);
        (
            r.stats.delivered_packets,
            r.stats.injected_packets,
            r.stats.retransmissions,
            r.stats.latency_sum,
            r.cycles,
        )
    };
    assert_eq!(run(), run(), "same seed ⇒ bit-identical outcome");
}
