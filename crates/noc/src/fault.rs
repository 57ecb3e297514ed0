//! The per-link fault layer: transient, permanent, and trojan faults.
//!
//! Fig. 2 of the paper contrasts the three ways a link can corrupt a
//! codeword. This module composes all three on one wire bundle, in the
//! order physical reality imposes: the trojan's XOR tree sits between the
//! upstream ECC encoder and the wire, transient upsets strike in flight,
//! and stuck-at wires override whatever arrives at the far end.

use noc_ecc::Codeword;
use noc_mitigation::LinkUnderTest;
use noc_trojan::TaspHt;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Permanent stuck-at wire set.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StuckWires {
    /// Wires forced to 1.
    pub stuck_one: u128,
    /// Wires forced to 0.
    pub stuck_zero: u128,
}

impl StuckWires {
    /// No stuck wires.
    pub fn none() -> Self {
        Self::default()
    }

    /// A stuck-wire set with overlapping masks normalised: a wire listed
    /// in both sets reads as stuck-at-0, matching [`StuckWires::apply`]'s
    /// order of operations. (Physically a wire has exactly one defect;
    /// the overlap only arises from composing fault descriptions.)
    pub fn new(stuck_one: u128, stuck_zero: u128) -> Self {
        Self {
            stuck_one: stuck_one & !stuck_zero,
            stuck_zero,
        }
    }

    /// Whether no wire is stuck.
    pub fn is_clean(&self) -> bool {
        self.stuck_one == 0 && self.stuck_zero == 0
    }

    #[inline]
    /// Force the stuck wires onto a codeword: first OR in the stuck-at-1
    /// wires, then clear the stuck-at-0 wires. `stuck_zero` therefore
    /// wins wherever the two masks overlap — the same precedence
    /// [`StuckWires::new`] normalises to.
    pub fn apply(&self, cw: Codeword) -> Codeword {
        Codeword((cw.0 | self.stuck_one) & !self.stuck_zero)
    }
}

/// Everything that can corrupt one unidirectional link.
#[derive(Debug)]
pub struct LinkFaults {
    /// Per-bit flip probability per traversal (transient upsets).
    pub transient_bit_prob: f64,
    /// Stuck-at wires (permanent faults).
    pub stuck: StuckWires,
    /// A mounted TASP trojan, if this link was compromised at fabrication.
    pub trojan: Option<TaspHt>,
    pub(crate) rng: StdRng,
    /// Counters for analysis.
    pub transient_flips: u64,
    /// Trojan fault injections performed on this link.
    pub trojan_injections: u64,
}

impl LinkFaults {
    /// A healthy link (deterministic: the RNG seed only matters once
    /// `transient_bit_prob > 0`).
    pub fn healthy(seed: u64) -> Self {
        Self {
            transient_bit_prob: 0.0,
            stuck: StuckWires::none(),
            trojan: None,
            rng: StdRng::seed_from_u64(seed),
            transient_flips: 0,
            trojan_injections: 0,
        }
    }

    /// Pass one codeword across the wire during normal operation.
    ///
    /// `wire_word` is the (possibly obfuscated) 64-bit data word the trojan's
    /// comparator taps; `carries_header` is the head-flit side-band.
    pub fn traverse(
        &mut self,
        cycle: u64,
        wire_word: u64,
        carries_header: bool,
        mut cw: Codeword,
    ) -> Codeword {
        // Trojan XOR tree (between encoder and wire).
        if let Some(ht) = self.trojan.as_mut() {
            if let Some(mask) = ht.snoop(cycle, wire_word, carries_header) {
                cw = Codeword(cw.0 ^ mask);
                self.trojan_injections += 1;
            }
        }
        // Transient upsets in flight.
        if self.transient_bit_prob > 0.0 {
            for bit in 0..noc_ecc::CODEWORD_BITS {
                if self.rng.gen_bool(self.transient_bit_prob) {
                    cw = Codeword(cw.0 ^ (1u128 << bit));
                    self.transient_flips += 1;
                }
            }
        }
        // Stuck-at wires at the receiver.
        self.stuck.apply(cw)
    }

    /// Whether a trojan is mounted *and* its kill switch is up.
    pub fn trojan_armed(&self) -> bool {
        self.trojan.as_ref().is_some_and(|t| t.kill_switch())
    }

    /// Earliest future cycle this fault layer could act *on its own*,
    /// without a flit traversal — `None` for every fault model in this
    /// crate: transient upsets and the trojan's XOR tree strike only in
    /// flight (inside [`LinkFaults::traverse`], which is also the only
    /// place the RNG is drawn), stuck wires are combinational, and the
    /// TASP cooldown is anchored to the absolute cycle of the last
    /// injection rather than a per-cycle countdown. The simulator's
    /// fast-forward engine folds this into its skip horizon, so a future
    /// *time-triggered* fault model (a cycle-counter time-bomb trojan,
    /// periodic wear-out) bounds the window by reporting its wakeup here
    /// instead of being silently jumped over.
    pub fn next_autonomous_event_at(&self, now: u64) -> Option<u64> {
        self.trojan
            .as_ref()
            .and_then(|t| t.autonomous_wakeup_at(now))
    }
}

/// BIST drives raw patterns through the same physical effects — except the
/// trojan never fires on them: BIST patterns are not header flits carrying
/// its target (and during manufacturing test the kill switch is down). This
/// is precisely why a trojan-infected link passes BIST.
impl LinkUnderTest for LinkFaults {
    fn transmit(&mut self, cw: Codeword) -> Codeword {
        // Trojan comparator taps the data wires but sees test patterns, not
        // its target; model by snooping with the pattern's data bits.
        let mut out = cw;
        if let Some(ht) = self.trojan.as_mut() {
            if let Some(mask) = ht.snoop(0, (cw.0 >> 1) as u64, false) {
                out = Codeword(out.0 ^ mask);
            }
        }
        // Transients can strike during BIST too, but scan patterns are
        // repeated by real BIST engines; we keep scans noise-free so tests
        // are deterministic (transient_bit_prob is consulted by traffic
        // traversal only).
        self.stuck.apply(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_ecc::Secded;
    use noc_mitigation::Bist;
    use noc_trojan::{TargetSpec, TaspConfig};

    #[test]
    fn healthy_link_is_transparent() {
        let mut f = LinkFaults::healthy(1);
        let cw = Secded::encode(0x1234);
        assert_eq!(f.traverse(0, 0x1234, true, cw), cw);
    }

    #[test]
    fn stuck_zero_wins_where_masks_overlap() {
        let bit = 1u128 << 17;
        let overlapping = StuckWires {
            stuck_one: bit,
            stuck_zero: bit,
        };
        // Raw apply: the AND-with-!stuck_zero runs last, so the wire
        // reads 0 whatever was driven.
        assert_eq!(overlapping.apply(Codeword(bit)).0 & bit, 0);
        assert_eq!(overlapping.apply(Codeword(0)).0 & bit, 0);
        // The normalising constructor encodes the same precedence.
        let normal = StuckWires::new(bit, bit);
        assert_eq!(normal.stuck_one, 0);
        assert_eq!(normal.stuck_zero, bit);
        assert_eq!(
            normal.apply(Codeword(bit)),
            overlapping.apply(Codeword(bit))
        );
        assert!(!normal.is_clean());
    }

    #[test]
    fn stuck_wires_corrupt_and_bist_finds_them() {
        let stuck = StuckWires {
            stuck_one: 1 << 9,
            stuck_zero: 0,
        };
        let mut f = LinkFaults::healthy(1);
        f.stuck = stuck;
        let report = Bist::scan(&mut f);
        assert!(!report.passed());
        assert_eq!(report.stuck_wires.len(), 1);
    }

    #[test]
    fn transients_flip_bits_at_high_probability() {
        let mut f = LinkFaults::healthy(7);
        f.transient_bit_prob = 0.5;
        let cw = Secded::encode(0);
        let mut changed = false;
        for c in 0..8 {
            if f.traverse(c, 0, false, cw) != cw {
                changed = true;
            }
        }
        assert!(changed);
        assert!(f.transient_flips > 0);
    }

    #[test]
    fn armed_trojan_corrupts_its_target_with_two_bits() {
        let target = TargetSpec::dest(9);
        let mut ht = TaspHt::new(TaspConfig::new(target));
        ht.set_kill_switch(true);
        let mut f = LinkFaults::healthy(1);
        f.trojan = Some(ht);
        assert!(f.trojan_armed());
        let word = noc_types::Header {
            src: noc_types::NodeId(0),
            dest: noc_types::NodeId(9),
            vc: noc_types::VcId(0),
            mem_addr: 0,
            thread: 0,
            len: 1,
        }
        .pack();
        let cw = Secded::encode(word);
        let out = f.traverse(0, word, true, cw);
        assert_eq!((out.0 ^ cw.0).count_ones(), 2);
        assert!(Secded::decode(out).needs_retransmission());
        assert_eq!(f.trojan_injections, 1);
    }

    #[test]
    fn trojan_infected_link_passes_bist() {
        let mut ht = TaspHt::new(TaspConfig::new(TargetSpec::dest(9)));
        ht.set_kill_switch(true); // even armed, BIST sees no target
        let mut f = LinkFaults::healthy(1);
        f.trojan = Some(ht);
        assert!(Bist::scan(&mut f).passed(), "the trojan's BIST tell");
    }

    #[test]
    fn disarmed_trojan_is_invisible_to_traffic() {
        let ht = TaspHt::new(TaspConfig::new(TargetSpec::dest(9)));
        let mut f = LinkFaults::healthy(1);
        f.trojan = Some(ht);
        assert!(!f.trojan_armed());
        let word = 0x0000_0009_u64 << 4; // dest=9 wire pattern
        let cw = Secded::encode(word);
        assert_eq!(f.traverse(0, word, true, cw), cw);
    }
}
