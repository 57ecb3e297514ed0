//! Classic synthetic traffic patterns.

use noc_sim::{Persist, Reader, SnapshotError, TrafficSource, Writer};
use noc_types::{Mesh, NodeId, Packet, PacketId, VcId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Destination-selection pattern.
#[derive(Debug, Clone, PartialEq)]
pub enum Pattern {
    /// Uniformly random destination router ≠ source.
    UniformRandom,
    /// `(x, y) → (y, x)` (square meshes only).
    Transpose,
    /// Destination router index = bit-complement of the source index.
    BitComplement,
    /// All traffic converges on the given hotspot routers.
    Hotspot(Vec<NodeId>),
}

impl Pattern {
    fn dest(&self, mesh: &Mesh, src: NodeId, rng: &mut StdRng) -> NodeId {
        match self {
            Pattern::UniformRandom => {
                // A single-router mesh has no destination ≠ src; return
                // src and let the caller's self-traffic filter drop it
                // (the rejection loop below would otherwise never exit).
                if mesh.routers() <= 1 {
                    return src;
                }
                loop {
                    let d = NodeId(rng.gen_range(0..mesh.routers() as u16));
                    if d != src {
                        return d;
                    }
                }
            }
            Pattern::Transpose => {
                let c = mesh.coord_of(src);
                mesh.node_at(noc_types::Coord::new(c.y, c.x))
            }
            Pattern::BitComplement => {
                let mask = (mesh.routers() - 1) as u16;
                NodeId(!src.0 & mask)
            }
            Pattern::Hotspot(spots) => spots[rng.gen_range(0..spots.len())],
        }
    }
}

/// Rate-driven synthetic traffic: every core flips a Bernoulli coin each
/// cycle and, on success, injects one packet toward the pattern's target.
#[derive(Debug)]
pub struct SyntheticTraffic {
    mesh: Mesh,
    pattern: Pattern,
    /// Packets per core per cycle.
    rate: f64,
    packet_len: u8,
    vcs: u8,
    /// Stop injecting after this cycle (`u64::MAX` = run forever).
    until: u64,
    /// Highest cycle polled so far (drives `done`).
    polled: u64,
    rng: StdRng,
    next_packet: u64,
}

impl SyntheticTraffic {
    /// A new rate-driven source with the given pattern and seed.
    pub fn new(mesh: Mesh, pattern: Pattern, rate: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&rate));
        Self {
            mesh,
            pattern,
            rate,
            packet_len: 4,
            vcs: 4,
            until: u64::MAX,
            polled: 0,
            rng: StdRng::seed_from_u64(seed),
            next_packet: 0,
        }
    }

    /// Set the packet length in flits.
    pub fn with_packet_len(mut self, len: u8) -> Self {
        self.packet_len = len;
        self
    }

    /// Stop injecting at `cycle` (exclusive) so drain runs can terminate.
    pub fn until(mut self, cycle: u64) -> Self {
        self.until = cycle;
        self
    }

    /// Packets issued so far.
    pub fn packets_issued(&self) -> u64 {
        self.next_packet
    }
}

impl TrafficSource for SyntheticTraffic {
    fn poll(&mut self, cycle: u64, out: &mut Vec<Packet>) {
        self.polled = self.polled.max(cycle);
        if cycle >= self.until {
            return;
        }
        for core in 0..self.mesh.cores() {
            if !self.rng.gen_bool(self.rate) {
                continue;
            }
            let src = self.mesh.router_of_core(noc_types::CoreId(core as u16));
            let dest = self.pattern.dest(&self.mesh, src, &mut self.rng);
            if dest == src && !matches!(self.pattern, Pattern::Hotspot(_)) {
                continue;
            }
            let id = PacketId(self.next_packet);
            self.next_packet += 1;
            let vc = VcId((self.next_packet % self.vcs as u64) as u8);
            let thread = (core % self.mesh.concentration() as usize) as u8;
            let mem = self.rng.gen::<u32>();
            out.push(Packet::new(
                id,
                src,
                dest,
                vc,
                mem,
                thread,
                self.packet_len,
                cycle,
            ));
        }
    }

    fn done(&self) -> bool {
        // Done only once the whole injection window has been polled
        // through — a bounded source is not "done" before it has had the
        // chance to issue its schedule.
        self.until != u64::MAX && self.polled + 1 >= self.until
    }

    fn next_injection_at(&self, now: u64) -> Option<u64> {
        if now < self.until {
            // The Bernoulli coin is drawn (advancing the RNG) on every
            // polled cycle inside the window, so no cycle is provably
            // injection-free: the earliest candidate is `now` itself.
            Some(now)
        } else {
            // Window closed: `poll` returns before touching the RNG, no
            // packet can ever be produced, and `done()` is already final.
            None
        }
    }

    fn skip_to(&mut self, to: u64) {
        // Mirror what polling cycles `..to` would have done: past the
        // window only the `polled` watermark moves (it is serialized in
        // the cursor, so it must track exactly).
        if to > 0 {
            self.polled = self.polled.max(to - 1);
        }
    }

    fn save_cursor(&mut self, w: &mut Writer) {
        w.put(&mut crate::rng_cursor(
            &mut self.polled,
            &mut self.rng,
            &mut self.next_packet,
        ));
    }

    fn load_cursor(&mut self, r: &mut Reader<'_>) -> Result<(), SnapshotError> {
        crate::rng_cursor(&mut self.polled, &mut self.rng, &mut self.next_packet).persist(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_random_never_self_targets() {
        let mesh = Mesh::paper();
        let mut t = SyntheticTraffic::new(mesh, Pattern::UniformRandom, 1.0, 42);
        let mut out = Vec::new();
        for c in 0..20 {
            t.poll(c, &mut out);
        }
        assert!(!out.is_empty());
        assert!(out.iter().all(|p| p.src != p.dest));
    }

    #[test]
    fn transpose_maps_coordinates() {
        let mesh = Mesh::paper();
        let mut rng = StdRng::seed_from_u64(0);
        // Router 1 = (1,0) → (0,1) = router 4.
        assert_eq!(
            Pattern::Transpose.dest(&mesh, NodeId(1), &mut rng),
            NodeId(4)
        );
    }

    #[test]
    fn bit_complement_within_range() {
        let mesh = Mesh::paper();
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(
            Pattern::BitComplement.dest(&mesh, NodeId(0), &mut rng),
            NodeId(15)
        );
        assert_eq!(
            Pattern::BitComplement.dest(&mesh, NodeId(5), &mut rng),
            NodeId(10)
        );
    }

    #[test]
    fn hotspot_targets_only_spots() {
        let mesh = Mesh::paper();
        let spots = vec![NodeId(3), NodeId(7)];
        let mut t = SyntheticTraffic::new(mesh, Pattern::Hotspot(spots.clone()), 1.0, 1);
        let mut out = Vec::new();
        t.poll(0, &mut out);
        assert!(out.iter().all(|p| spots.contains(&p.dest)));
    }

    #[test]
    fn rate_controls_volume() {
        let mesh = Mesh::paper();
        let mut lo = SyntheticTraffic::new(mesh.clone(), Pattern::UniformRandom, 0.01, 9);
        let mut hi = SyntheticTraffic::new(mesh, Pattern::UniformRandom, 0.5, 9);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        for c in 0..200 {
            lo.poll(c, &mut a);
            hi.poll(c, &mut b);
        }
        assert!(b.len() > a.len() * 5, "{} vs {}", b.len(), a.len());
    }

    #[test]
    fn deterministic_for_same_seed() {
        let mesh = Mesh::paper();
        let run = |seed| {
            let mut t = SyntheticTraffic::new(mesh.clone(), Pattern::UniformRandom, 0.2, seed);
            let mut out = Vec::new();
            for c in 0..50 {
                t.poll(c, &mut out);
            }
            out
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }

    #[test]
    fn until_bounds_injection_and_reports_done() {
        let mesh = Mesh::paper();
        let mut t = SyntheticTraffic::new(mesh, Pattern::UniformRandom, 1.0, 1).until(10);
        assert!(!t.done(), "not done before the window was polled through");
        let mut out = Vec::new();
        t.poll(20, &mut out);
        assert!(out.is_empty());
        assert!(t.done(), "done once polled past the bound");
    }
}
