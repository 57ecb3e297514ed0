//! The Fort-NoCs-style **end-to-end obfuscation** baseline.
//!
//! Fort-NoCs scrambles packet *data* between source and destination network
//! interfaces. Routing information — source, destination, VC — must remain
//! readable by every router on the path, so it cannot be scrambled
//! end-to-end. A TASP comparator keyed on the destination field therefore
//! still sees its target on every hop: **e2e obfuscation fails against
//! header-targeting link trojans**, which is exactly the premise of the
//! paper's Fig. 11(a). A memory-address-targeting trojan, in contrast, is
//! defeated (the address field is scrambled), up to the residual risk of a
//! scrambled value *accidentally* matching the target ("masking an
//! unintended target").

use noc_sim::TrafficSource;
use noc_types::Packet;

/// Wraps a traffic source, scrambling the memory-address field of every
/// packet with a keyed permutation (and leaving src/dest/vc plaintext, as
/// any e2e scheme must).
pub struct E2eObfuscation<S> {
    inner: S,
    key: u32,
}

impl<S> E2eObfuscation<S> {
    /// Wrap a source, scrambling memory addresses with `key`.
    pub fn new(inner: S, key: u32) -> Self {
        Self { inner, key }
    }

    /// The scrambled wire value of a memory address under this key.
    pub fn scramble_mem(&self, mem: u32) -> u32 {
        // xorshift-style keyed mix — bijective, so the destination NI can
        // recover the address.
        let mut v = mem ^ self.key;
        v ^= v << 13;
        v ^= v >> 17;
        v ^= v << 5;
        v
    }

    /// Inverse of [`Self::scramble_mem`].
    pub fn unscramble_mem(&self, wire: u32) -> u32 {
        // Invert the xorshift steps in reverse order.
        let mut v = wire;
        // Invert v ^= v << 5.
        v = invert_xorshift_left(v, 5);
        // Invert v ^= v >> 17.
        v = invert_xorshift_right(v, 17);
        // Invert v ^= v << 13.
        v = invert_xorshift_left(v, 13);
        v ^ self.key
    }
}

/// Solve `x ^ (x << k) == v` for `x` by fixed-point iteration (converges
/// in ⌈32/k⌉ steps because each step fixes k more low bits).
fn invert_xorshift_left(v: u32, k: u32) -> u32 {
    let mut x = v;
    for _ in 0..(32 / k + 1) {
        x = v ^ (x << k);
    }
    x
}

fn invert_xorshift_right(v: u32, k: u32) -> u32 {
    let mut x = v;
    for _ in 0..(32 / k + 1) {
        x = v ^ (x >> k);
    }
    x
}

impl<S: TrafficSource> TrafficSource for E2eObfuscation<S> {
    fn poll(&mut self, cycle: u64, out: &mut Vec<Packet>) {
        let start = out.len();
        self.inner.poll(cycle, out);
        for p in &mut out[start..] {
            p.mem_addr = self.scramble_mem(p.mem_addr);
        }
    }

    fn done(&self) -> bool {
        self.inner.done()
    }

    // Scrambling rewrites packets but never creates or delays them, so
    // the inner source's lookahead holds verbatim.
    fn next_injection_at(&self, now: u64) -> Option<u64> {
        self.inner.next_injection_at(now)
    }

    fn skip_to(&mut self, to: u64) {
        self.inner.skip_to(to);
    }

    // The scrambling key is construction state, not progress: the cursor
    // is exactly the inner source's.
    fn save_cursor(&mut self, w: &mut noc_sim::Writer) {
        self.inner.save_cursor(w);
    }

    fn load_cursor(&mut self, r: &mut noc_sim::Reader<'_>) -> Result<(), noc_sim::SnapshotError> {
        self.inner.load_cursor(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_traffic::{Pattern, SyntheticTraffic};
    use noc_trojan::TargetSpec;
    use noc_types::{Mesh, NodeId};

    #[test]
    fn scramble_is_bijective() {
        let e = E2eObfuscation::new(NoSource, 0xDEAD_BEEF);
        for mem in [0u32, 1, 0xFFFF_FFFF, 0x1234_5678, 0x8000_0000] {
            assert_eq!(e.unscramble_mem(e.scramble_mem(mem)), mem, "{mem:#x}");
        }
    }

    struct NoSource;
    impl TrafficSource for NoSource {
        fn poll(&mut self, _c: u64, _o: &mut Vec<Packet>) {}
    }

    #[test]
    fn mem_field_is_scrambled_but_route_fields_are_not() {
        let mesh = Mesh::paper();
        let inner = SyntheticTraffic::new(mesh.clone(), Pattern::Hotspot(vec![NodeId(3)]), 1.0, 1);
        let mut plain = SyntheticTraffic::new(mesh, Pattern::Hotspot(vec![NodeId(3)]), 1.0, 1);
        let mut e2e = E2eObfuscation::new(inner, 0x5555_AAAA);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        e2e.poll(0, &mut a);
        plain.poll(0, &mut b);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.src, y.src);
            assert_eq!(x.dest, y.dest);
            assert_eq!(x.vc, y.vc);
            assert_ne!(x.mem_addr, y.mem_addr, "mem must be scrambled");
        }
    }

    #[test]
    fn dest_targeting_trojan_still_matches_under_e2e() {
        // The baseline's failure mode: headers can't be hidden end-to-end.
        let mesh = Mesh::paper();
        let inner = SyntheticTraffic::new(mesh, Pattern::Hotspot(vec![NodeId(3)]), 1.0, 1);
        let mut e2e = E2eObfuscation::new(inner, 0x1357_9BDF);
        let mut out = Vec::new();
        e2e.poll(0, &mut out);
        let target = TargetSpec::dest(3);
        assert!(!out.is_empty());
        assert!(out.iter().all(|p| target.matches_header(&p.header())));
    }

    #[test]
    fn mem_targeting_trojan_is_defeated_by_e2e() {
        let mesh = Mesh::paper();
        let inner = SyntheticTraffic::new(mesh, Pattern::Hotspot(vec![NodeId(3)]), 1.0, 7);
        let mut e2e = E2eObfuscation::new(inner, 0x0F0F_F0F0);
        let mut out = Vec::new();
        for c in 0..50 {
            e2e.poll(c, &mut out);
        }
        // A trojan watching a narrow plaintext range almost never matches
        // the scrambled addresses.
        let target = TargetSpec::mem_range(0x1000_0000..=0x1000_FFFF);
        let matches = out
            .iter()
            .filter(|p| target.matches_header(&p.header()))
            .count();
        assert!(
            matches * 100 < out.len(),
            "{matches}/{} scrambled packets matched",
            out.len()
        );
    }
}
