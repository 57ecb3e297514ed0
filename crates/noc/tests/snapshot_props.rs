//! Property tests for crash-safe checkpoint/restore: for random traffic,
//! checkpoint cycles, retransmission schemes, thread counts, and armed
//! trojans, a snapshot → restore → run-K-cycles execution must be
//! bit-identical to the uninterrupted run — including mid-retransmission
//! and mid-quarantine states — and arbitrarily corrupted snapshot bytes
//! must decode to a typed error, never a panic or a silently wrong state.

use noc_sim::config::RetxScheme;
use noc_sim::routing::xy_direction;
use noc_sim::{
    LinkFaults, Persist, Reader, SimConfig, SimSnapshot, Simulator, SnapshotError, TrafficSource,
    Writer,
};
use noc_trojan::{TargetSpec, TaspConfig, TaspHt};
use noc_types::{Direction, Mesh, NodeId, Packet, PacketId, VcId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A seeded random injector with a serializable cursor, biased toward a
/// hotspot so an armed trojan on the hotspot's feeder link keeps the
/// retransmission machinery busy across the checkpoint boundary.
struct RandSource {
    rng: StdRng,
    polled: u64,
    next_id: u64,
    until: u64,
}

impl RandSource {
    fn new(seed: u64, until: u64) -> Self {
        Self {
            rng: StdRng::seed_from_u64(seed),
            polled: 0,
            next_id: 1,
            until,
        }
    }
}

impl RandSource {
    fn cursor(&mut self) -> impl Persist + '_ {
        (
            &mut self.polled,
            &mut self.rng,
            (&mut self.next_id, &mut self.until),
        )
    }
}

impl TrafficSource for RandSource {
    fn poll(&mut self, cycle: u64, out: &mut Vec<Packet>) {
        self.polled += 1;
        if cycle >= self.until {
            return;
        }
        if self.rng.gen_range(0u8..10) < 3 {
            let src = NodeId(self.rng.gen_range(0u16..16));
            // Half the stream aims at the hotspot behind the trojan.
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

    fn save_cursor(&mut self, w: &mut Writer) {
        w.put(&mut self.cursor());
    }

    fn load_cursor(&mut self, r: &mut Reader<'_>) -> Result<(), SnapshotError> {
        self.cursor().persist(r)
    }
}

/// The topology axis: 0 = the paper mesh, 1 = its torus closure, 2 = a
/// fault-degraded mesh. The degraded removal set stays clear of the
/// (5, North) hot link the trojan and quarantine machinery pin.
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
        let faults = std::mem::replace(sim.link_faults_mut(hot), LinkFaults::healthy(hot.0 as u64));
        *sim.link_faults_mut(hot) = faults.with_trojan(ht);
        sim.arm_trojans(true);
    }
    sim
}

/// Quarantine the trojan's link at the same pre-checkpoint cycle in both
/// executions, so the snapshot captures a mid-quarantine simulator.
fn quarantine_hot_link(sim: &mut Simulator) {
    let dir = xy_direction(sim.mesh(), NodeId(5), NodeId(9));
    let hot = sim
        .mesh()
        .link_out(NodeId(5), dir)
        .expect("adjacent routers share a link");
    // Both executions reach this call in identical states, so it either
    // succeeds in both or is a no-op in both.
    sim.quarantine_link(hot).ok();
}

#[allow(clippy::too_many_arguments)]
fn checkpoint_resume_matches(
    seed: u64,
    scheme: RetxScheme,
    threads: usize,
    trojan: bool,
    quarantine: bool,
    ckpt_at: u64,
    extra: u64,
    topo: u8,
) -> Result<(), TestCaseError> {
    let inject_until = ckpt_at + extra / 2;

    // Uninterrupted reference.
    let mut reference = build_sim(scheme, threads, trojan, topo);
    let mut ref_src = RandSource::new(seed, inject_until);
    reference.run(ckpt_at, &mut ref_src);
    if quarantine {
        quarantine_hot_link(&mut reference);
    }
    reference.run(extra, &mut ref_src);

    // Checkpointed twin: identical up to `ckpt_at`, then serialized
    // through bytes (sim payload + traffic cursor) and resumed in a
    // fresh simulator and a fresh source.
    let mut first = build_sim(scheme, threads, trojan, topo);
    let mut src = RandSource::new(seed, inject_until);
    first.run(ckpt_at, &mut src);
    if quarantine {
        quarantine_hot_link(&mut first);
    }
    let mut snap = first.snapshot();
    let mut cursor = Writer::default();
    src.save_cursor(&mut cursor);
    snap.set_user_data(cursor.into_bytes());
    let bytes = snap.to_bytes();
    drop(first);
    let _ = src;

    let snap = SimSnapshot::from_bytes(&bytes).expect("snapshot decodes");
    let mut resumed = build_sim(scheme, threads, trojan, topo);
    resumed.restore(&snap).expect("snapshot restores");
    let mut resumed_src = RandSource::new(0, 0);
    let mut cursor = Reader::new(snap.user_data());
    resumed_src.load_cursor(&mut cursor).expect("cursor loads");
    prop_assert!(cursor.finish().is_ok(), "cursor fully consumed");
    resumed.run(extra, &mut resumed_src);

    let resumed_snap = resumed.snapshot();
    let reference_snap = reference.snapshot();
    prop_assert_eq!(
        resumed_snap.payload(),
        reference_snap.payload(),
        "resumed state diverged (scheme {:?}, t={}, trojan {}, quarantine {}, ckpt {}, +{}, topo {})",
        scheme,
        threads,
        trojan,
        quarantine,
        ckpt_at,
        extra,
        topo
    );
    prop_assert_eq!(
        format!("{:?}", resumed.stats()),
        format!("{:?}", reference.stats())
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Checkpoint → restore → run K more cycles == never checkpointing,
    /// over random seeds, checkpoint cycles, run lengths, schemes,
    /// thread counts, and trojan/quarantine states.
    #[test]
    fn checkpoint_resume_is_bit_identical(
        seed in any::<u64>(),
        scheme_pervc in any::<bool>(),
        four_threads in any::<bool>(),
        trojan in any::<bool>(),
        quarantine in any::<bool>(),
        ckpt_at in 40u64..240,
        extra in 40u64..240,
        topo in 0u8..3,
    ) {
        let scheme = if scheme_pervc { RetxScheme::PerVc } else { RetxScheme::Output };
        let threads = if four_threads { 4 } else { 1 };
        // Quarantine only makes sense with the trojan's link present.
        checkpoint_resume_matches(
            seed, scheme, threads, trojan, quarantine && trojan, ckpt_at, extra, topo,
        )?;
    }

    /// Any corruption of the encoded bytes — truncation at a random
    /// point or a random bit flip — must surface as a typed decode
    /// error, never a panic, and a truncated-to-valid-prefix file must
    /// never decode as a shorter-but-valid snapshot.
    #[test]
    fn corrupted_snapshot_bytes_never_panic(
        seed in any::<u64>(),
        cut_sel in any::<u64>(),
        flip_sel in any::<u64>(),
        flip_bit in 0u8..8,
    ) {
        let mut sim = build_sim(RetxScheme::Output, 1, true, 0);
        let mut src = RandSource::new(seed, 80);
        sim.run(120, &mut src);
        let bytes = sim.snapshot().to_bytes();

        // Truncation: every proper prefix fails to decode.
        let cut = (cut_sel % bytes.len() as u64) as usize;
        prop_assert!(
            SimSnapshot::from_bytes(&bytes[..cut]).is_err(),
            "a {cut}-byte prefix of a {}-byte snapshot must not decode",
            bytes.len()
        );

        // Bit flip: detected by magic, CRC, or structural checks.
        let mut flipped = bytes.clone();
        let at = (flip_sel % bytes.len() as u64) as usize;
        flipped[at] ^= 1 << flip_bit;
        let err = SimSnapshot::from_bytes(&flipped).expect_err("bit flip must be detected");
        prop_assert!(
            matches!(
                err,
                SnapshotError::Corrupt(_) | SnapshotError::VersionMismatch { .. }
            ),
            "unexpected error kind: {err:?}"
        );
    }
}
