//! Traffic trace recording and replay.
//!
//! The paper drives its simulator from recorded benchmark traces. This
//! module gives the same workflow to any generator in this crate: wrap a
//! source in a [`Recorder`] to capture exactly what it injected, then
//! [`Replay`] the capture — bit-identically — into as many simulator
//! configurations as needed. Replay is how the figure harnesses guarantee
//! that every strategy in a comparison saw *the same* offered workload.

use noc_sim::{Persist, Reader, SnapshotError, TrafficSource, Writer};
use noc_types::Packet;

/// One recorded injection.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEntry {
    /// Cycle the packet was injected.
    pub cycle: u64,
    /// The injected packet.
    pub packet: Packet,
}

/// A complete recorded workload.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    /// The recorded injections in nondecreasing cycle order.
    pub entries: Vec<TraceEntry>,
}

impl Trace {
    /// Record `cycles` of a source's output without running a simulator.
    pub fn capture<S: TrafficSource>(source: &mut S, cycles: u64) -> Self {
        let mut entries = Vec::new();
        let mut buf = Vec::new();
        for cycle in 0..cycles {
            buf.clear();
            source.poll(cycle, &mut buf);
            for p in buf.drain(..) {
                entries.push(TraceEntry { cycle, packet: p });
            }
        }
        Self { entries }
    }

    /// Number of recorded packets.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total flits in the trace.
    pub fn flits(&self) -> u64 {
        self.entries.iter().map(|e| e.packet.len as u64).sum()
    }

    /// A replayable source over this trace.
    pub fn replay(&self) -> Replay {
        Replay {
            entries: self.entries.clone(),
            next: 0,
        }
    }
}

/// Records everything an inner source injects while passing it through.
pub struct Recorder<S> {
    /// The wrapped source.
    pub inner: S,
    /// Everything the source has injected so far.
    pub trace: Trace,
}

impl<S> Recorder<S> {
    /// Wrap a source for recording.
    pub fn new(inner: S) -> Self {
        Self {
            inner,
            trace: Trace::default(),
        }
    }
}

impl<S: TrafficSource> TrafficSource for Recorder<S> {
    fn poll(&mut self, cycle: u64, out: &mut Vec<Packet>) {
        let start = out.len();
        self.inner.poll(cycle, out);
        for p in &out[start..] {
            self.trace.entries.push(TraceEntry {
                cycle,
                packet: p.clone(),
            });
        }
    }
    fn done(&self) -> bool {
        self.inner.done()
    }

    // Lookahead delegates: a window where the inner source provably
    // injects nothing records nothing, so the trace is unperturbed.
    fn next_injection_at(&self, now: u64) -> Option<u64> {
        self.inner.next_injection_at(now)
    }

    fn skip_to(&mut self, to: u64) {
        self.inner.skip_to(to);
    }

    // The cursor delegates to the wrapped source; the already-captured
    // trace prefix is not part of the cursor (a resumed recorder records
    // only from the resume point onward).
    fn save_cursor(&mut self, w: &mut Writer) {
        self.inner.save_cursor(w);
    }

    fn load_cursor(&mut self, r: &mut Reader<'_>) -> Result<(), SnapshotError> {
        self.inner.load_cursor(r)
    }
}

/// Replays a [`Trace`] injection-for-injection. Entries must be in
/// nondecreasing cycle order (which capture and recording guarantee).
pub struct Replay {
    entries: Vec<TraceEntry>,
    next: usize,
}

impl TrafficSource for Replay {
    fn poll(&mut self, cycle: u64, out: &mut Vec<Packet>) {
        while let Some(e) = self.entries.get(self.next) {
            if e.cycle > cycle {
                break;
            }
            if e.cycle == cycle {
                out.push(e.packet.clone());
            }
            self.next += 1;
        }
    }
    fn done(&self) -> bool {
        self.next >= self.entries.len()
    }

    fn next_injection_at(&self, now: u64) -> Option<u64> {
        // The head entry is the next act; an already-late head (stale
        // cycle) clamps to `now`, which disables skipping. Exhausted
        // trace: `done()` is final and nothing is ever produced.
        self.entries.get(self.next).map(|e| e.cycle.max(now))
    }

    fn skip_to(&mut self, to: u64) {
        // Naive polling of cycles `..to` consumes (without emitting)
        // every entry whose cycle is already behind `to`; the cursor is
        // `next`, so it must advance identically.
        while self.entries.get(self.next).is_some_and(|e| e.cycle < to) {
            self.next += 1;
        }
    }

    fn save_cursor(&mut self, w: &mut Writer) {
        w.put(&mut self.next);
    }

    fn load_cursor(&mut self, r: &mut Reader<'_>) -> Result<(), SnapshotError> {
        self.next.persist(r)?;
        self.next = self.next.min(self.entries.len());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::{AppModel, AppSpec};
    use crate::synthetic::{Pattern, SyntheticTraffic};
    use noc_types::Mesh;

    #[test]
    fn capture_and_replay_are_identical() {
        let mesh = Mesh::paper();
        let mut src = SyntheticTraffic::new(mesh.clone(), Pattern::UniformRandom, 0.1, 5);
        let trace = Trace::capture(&mut src, 100);
        assert!(!trace.is_empty());
        let mut replay = trace.replay();
        let recaptured = Trace::capture(&mut replay, 100);
        assert_eq!(trace, recaptured);
    }

    #[test]
    fn recorder_is_transparent() {
        let mesh = Mesh::paper();
        let plain = {
            let mut s = AppModel::new(AppSpec::ferret(), mesh.clone(), 9);
            Trace::capture(&mut s, 80)
        };
        let recorded = {
            let mut r = Recorder::new(AppModel::new(AppSpec::ferret(), mesh, 9));
            let _ = Trace::capture(&mut r, 80);
            r.trace
        };
        assert_eq!(plain, recorded, "recording must not perturb the source");
    }

    #[test]
    fn replay_done_after_last_entry() {
        let mesh = Mesh::paper();
        let mut src = SyntheticTraffic::new(mesh, Pattern::UniformRandom, 0.5, 1);
        let trace = Trace::capture(&mut src, 10);
        let mut replay = trace.replay();
        assert!(!replay.done());
        let mut buf = Vec::new();
        for c in 0..11 {
            replay.poll(c, &mut buf);
        }
        assert!(replay.done());
        assert_eq!(buf.len(), trace.len());
    }

    #[test]
    fn flit_count_sums_packet_lengths() {
        let mesh = Mesh::paper();
        let mut src =
            SyntheticTraffic::new(mesh, Pattern::UniformRandom, 0.3, 2).with_packet_len(3);
        let trace = Trace::capture(&mut src, 20);
        assert_eq!(trace.flits(), trace.len() as u64 * 3);
    }

    #[test]
    fn replay_drives_a_simulator_deterministically() {
        use noc_sim::{SimConfig, Simulator};
        let mesh = Mesh::paper();
        let mut src = SyntheticTraffic::new(mesh, Pattern::Transpose, 0.02, 3).until(200);
        let trace = Trace::capture(&mut src, 250);
        let run = |trace: &Trace| {
            let mut sim = Simulator::new(SimConfig::paper());
            let mut replay = trace.replay();
            sim.run_to_quiescence(5000, &mut replay);
            (
                sim.stats().delivered_packets,
                sim.stats().latency_sum,
                sim.cycle(),
            )
        };
        assert_eq!(run(&trace), run(&trace));
        assert_eq!(run(&trace).0, trace.len() as u64);
    }
}
