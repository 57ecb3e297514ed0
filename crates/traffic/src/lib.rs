//! Traffic generation: synthetic patterns and application-trace models.
//!
//! The paper drives its simulator with "real traffic distributions from the
//! PARSEC and SPLASH-2 benchmark suites". Those gate-level traces are not
//! redistributable, so this crate provides **seeded synthetic models** whose
//! src×dest distributions reproduce the *shape* the paper reports for them
//! (Fig. 1): a primary router acting as the application's master, traffic
//! mass decaying with hop distance from it, and a handful of hot links.
//! DESIGN.md §2 records the substitution argument.
//!
//! Every generator implements [`noc_sim::TrafficSource`] and is fully
//! deterministic given its seed.

pub mod app;
pub mod flood;
pub mod matrix;
pub mod synthetic;
pub mod trace;

pub use app::{AppModel, AppSpec};
pub use flood::FloodAttack;
pub use matrix::TrafficMatrix;
pub use synthetic::{Pattern, SyntheticTraffic};
pub use trace::{Recorder, Replay, Trace};

use noc_sim::Persist;
use rand::rngs::StdRng;

/// The resume cursor of the RNG-driven sources ([`SyntheticTraffic`],
/// [`AppModel`], [`FloodAttack`]): polls so far, the RNG stream and the
/// next packet id. Saving and loading both walk this one value.
fn rng_cursor<'a>(
    polled: &'a mut u64,
    rng: &'a mut StdRng,
    next_packet: &'a mut u64,
) -> impl Persist + 'a {
    (polled, rng, next_packet)
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_sim::{Reader, SnapshotError, TrafficSource, Writer};
    use noc_types::{CoreId, Mesh, NodeId, Packet};

    fn sources() -> Vec<Box<dyn TrafficSource>> {
        let mesh = Mesh::paper();
        vec![
            Box::new(SyntheticTraffic::new(
                mesh.clone(),
                Pattern::UniformRandom,
                0.3,
                7,
            )),
            Box::new(AppModel::new(AppSpec::ferret(), mesh.clone(), 7)),
            Box::new(FloodAttack::new(mesh, vec![CoreId(3)], vec![NodeId(9)], 7).with_rate(0.5)),
        ]
    }

    fn poll(src: &mut dyn TrafficSource, cycles: std::ops::Range<u64>) -> Vec<Packet> {
        let mut out = Vec::new();
        for cycle in cycles {
            src.poll(cycle, &mut out);
        }
        out
    }

    /// A cursor cut short anywhere fails to load rather than resuming a
    /// different traffic stream; the whole cursor resumes the same one.
    #[test]
    fn truncated_cursors_fail_and_whole_cursors_resume() {
        for (i, (mut original, mut fresh)) in sources().into_iter().zip(sources()).enumerate() {
            poll(original.as_mut(), 0..50);
            let mut w = Writer::default();
            original.save_cursor(&mut w);
            let bytes = w.into_bytes();
            for cut in 0..bytes.len() {
                let err = sources()[i].load_cursor(&mut Reader::new(&bytes[..cut]));
                assert!(
                    matches!(err, Err(SnapshotError::Corrupt(_))),
                    "source {i}: a {cut}-byte cursor must not load"
                );
            }
            let mut r = Reader::new(&bytes);
            fresh.load_cursor(&mut r).expect("whole cursor loads");
            r.finish().expect("cursor fully consumed");
            assert_eq!(
                poll(fresh.as_mut(), 50..120),
                poll(original.as_mut(), 50..120),
                "source {i}"
            );
        }
    }
}
