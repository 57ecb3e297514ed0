//! Lockstep-equivalence property tests for the bitset wavefront
//! allocation datapath (DESIGN.md §18): across random seeds,
//! retransmission schemes, topologies, trojan arming, and thread counts
//! {1, 4}, the mask-parallel VA/SA/RC stages must produce bit-identical
//! executions. Two layers assert this:
//!
//! * **grant-for-grant, per cycle** — inside the router, every
//!   lane-derived request mask is cross-checked against the retained
//!   struct-walking reference predicates (`reference_rc_mask`,
//!   `reference_va_eligible`, `reference_va_req`, `reference_sa_req`,
//!   compiled behind `cfg(any(test, debug_assertions))`) by
//!   `debug_assert_eq!` at the top of each stage. Test builds keep
//!   debug assertions on, so *every cycle these tests drive* runs the
//!   old predicate walk in parallel with the bitset datapath and aborts
//!   on the first divergent requester bit — before it could even reach
//!   the arbiter;
//! * **fingerprint-identical, end to end** — a threads=1 run and a
//!   threads=4 run of the same scenario must finish with byte-equal
//!   snapshot payloads (every FIFO, credit counter, arbiter pointer,
//!   and RNG cursor) and identical stats.

use noc_sim::config::RetxScheme;
use noc_sim::routing::xy_direction;
use noc_sim::{SimConfig, Simulator, TrafficSource};
use noc_trojan::{TargetSpec, TaspConfig, TaspHt};
use noc_types::{Direction, Mesh, NodeId, Packet, PacketId, VcId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A seeded random injector biased toward the hotspot behind the trojan
/// link, so the allocation wavefront stays saturated (the regime the
/// bitset datapath rewrote) instead of trickling single flits.
struct RandSource {
    rng: StdRng,
    next_id: u64,
    until: u64,
}

impl RandSource {
    fn new(seed: u64, until: u64) -> Self {
        Self {
            rng: StdRng::seed_from_u64(seed),
            next_id: 1,
            until,
        }
    }
}

impl TrafficSource for RandSource {
    fn poll(&mut self, cycle: u64, out: &mut Vec<Packet>) {
        if cycle >= self.until {
            return;
        }
        if self.rng.gen_range(0u8..10) < 4 {
            let src = NodeId(self.rng.gen_range(0u16..16));
            let dest = if self.rng.gen_bool(0.5) {
                NodeId(9)
            } else {
                NodeId(self.rng.gen_range(0u16..16))
            };
            if src != dest {
                let id = self.next_id;
                self.next_id += 1;
                out.push(Packet::new(
                    PacketId(id),
                    src,
                    dest,
                    VcId((id % 2) as u8),
                    (id * 64) as u32,
                    (id % 4) as u8,
                    1 + (id % 4) as u8,
                    cycle,
                ));
            }
        }
    }

    fn done(&self) -> bool {
        false
    }
}

/// The topology axis: 0 = the paper mesh, 1 = its torus closure, 2 = a
/// fault-degraded mesh. The degraded removal set stays clear of the
/// (5 → 9) hot link the trojan pins.
fn axis_mesh(topo: u8) -> Mesh {
    match topo {
        1 => Mesh::new_torus(4, 4, 1),
        2 => Mesh::new_degraded(
            4,
            4,
            1,
            &[(NodeId(5), Direction::East), (NodeId(9), Direction::North)],
        ),
        _ => Mesh::paper(),
    }
}

fn build_sim(scheme: RetxScheme, threads: usize, trojan: bool, topo: u8) -> Simulator {
    let mut cfg = if trojan {
        SimConfig::paper_unprotected()
    } else {
        SimConfig::paper()
    };
    cfg.mesh = axis_mesh(topo);
    cfg.retx_scheme = scheme;
    cfg.threads = Some(threads);
    let mut sim = Simulator::new(cfg);
    if trojan {
        let victim = NodeId(9);
        let dir = xy_direction(sim.mesh(), NodeId(5), victim);
        let hot = sim
            .mesh()
            .link_out(NodeId(5), dir)
            .expect("adjacent routers share a link");
        let ht = TaspHt::new(TaspConfig::new(TargetSpec::dest((victim.0 & 0xF) as u8)));
        sim.link_faults_mut(hot).trojan = Some(ht);
        sim.arm_trojans(true);
    }
    sim
}

/// Run one scenario at the given thread count and return its end-state
/// snapshot payload plus formatted stats.
fn run_one(
    seed: u64,
    scheme: RetxScheme,
    threads: usize,
    trojan: bool,
    topo: u8,
    cycles: u64,
    skip: bool,
) -> (Vec<u8>, String) {
    let mut sim = build_sim(scheme, threads, trojan, topo);
    sim.set_fast_forward(skip);
    let mut src = RandSource::new(seed, cycles * 2 / 3);
    sim.run(cycles, &mut src);
    let payload = sim.snapshot().payload().to_vec();
    (payload, format!("{:?}", sim.stats()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Threads=1 and threads=4 executions of the same scenario are
    /// fingerprint-identical, with the per-cycle reference-predicate
    /// oracle live in both (debug assertions are on in test builds).
    #[test]
    fn wavefront_runs_are_lockstep_equivalent(
        seed in any::<u64>(),
        scheme_pervc in any::<bool>(),
        trojan in any::<bool>(),
        topo in 0u8..3,
        cycles in 60u64..220,
        skip in any::<bool>(),
    ) {
        let scheme = if scheme_pervc { RetxScheme::PerVc } else { RetxScheme::Output };
        let (p1, s1) = run_one(seed, scheme, 1, trojan, topo, cycles, skip);
        let (p4, s4) = run_one(seed, scheme, 4, trojan, topo, cycles, skip);
        prop_assert_eq!(
            p1, p4,
            "threads=1 vs threads=4 snapshot payloads diverged \
             (scheme {:?}, trojan {}, topo {}, cycles {}, skip {})",
            scheme, trojan, topo, cycles, skip
        );
        prop_assert_eq!(s1, s4);
    }

    /// Fast-forward on and off land in identical end states at both
    /// thread counts: a skipped window must be provably invisible to
    /// the wavefront datapath's lane masks and caches.
    #[test]
    fn skip_windows_are_invisible_to_the_wavefront(
        seed in any::<u64>(),
        scheme_pervc in any::<bool>(),
        topo in 0u8..3,
        cycles in 60u64..220,
        four_threads in any::<bool>(),
    ) {
        let scheme = if scheme_pervc { RetxScheme::PerVc } else { RetxScheme::Output };
        let threads = if four_threads { 4 } else { 1 };
        let (p_on, s_on) = run_one(seed, scheme, threads, true, topo, cycles, true);
        let (p_off, s_off) = run_one(seed, scheme, threads, true, topo, cycles, false);
        prop_assert_eq!(
            p_on, p_off,
            "skip on vs off diverged (scheme {:?}, t={}, topo {}, cycles {})",
            scheme, threads, topo, cycles
        );
        prop_assert_eq!(s_on, s_off);
    }
}
