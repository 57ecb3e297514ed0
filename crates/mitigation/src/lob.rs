//! L-Ob: switch-to-switch link obfuscation.
//!
//! Each obfuscation is a reversible transform of the 64-bit wire word,
//! restricted to a granularity window (full flit, header bits, or payload
//! bits). The upstream L-Ob applies the transform after a flit has drawn
//! repeated faults; the downstream L-Ob undoes it after a clean ECC decode.
//! Because the trojan's comparator reads the *transformed* word, a matching
//! target no longer matches and the trojan never fires — the link keeps
//! carrying traffic for a 1–3 cycle penalty instead of being abandoned to
//! rerouting.
//!
//! Methods (the paper's brute-force repertoire):
//!
//! * **Invert** — complement every bit in the window (zero hardware state).
//! * **Rotate** — barrel-rotate the window by a fixed amount (the paper's
//!   "shuffling/shifting").
//! * **Scramble** — XOR the window with a partner flit queued behind it
//!   (the walk-through's `(2+4)` pairing); undone once both flits arrive.
//! * **Reorder** — swap the victim flit's departure slot with a younger
//!   flit so the targeted word crosses the link at an unexpected time.
//!   Reorder changes *when*, not *what*, so it composes with the others.

use noc_types::header::HeaderLayout;

/// Bit window an obfuscation applies to.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum Granularity {
    /// All 64 wire bits.
    #[default]
    Full,
    /// The header window (the 42 bits a TASP comparator can watch).
    Header,
    /// Everything above the header window.
    Payload,
}

impl Granularity {
    /// `(offset, width)` of the window within the 64-bit word.
    #[inline]
    pub fn window(self) -> (u32, u32) {
        match self {
            Granularity::Full => (0, 64),
            Granularity::Header => (0, HeaderLayout::FULL_BITS),
            Granularity::Payload => (HeaderLayout::FULL_BITS, 64 - HeaderLayout::FULL_BITS),
        }
    }

    /// Mask of the window bits.
    #[inline]
    pub fn mask(self) -> u64 {
        let (off, w) = self.window();
        if w == 64 {
            u64::MAX
        } else {
            ((1u64 << w) - 1) << off
        }
    }
}

/// One reversible obfuscation method.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum ObfuscationMethod {
    /// Bitwise complement of the window.
    #[default]
    Invert,
    /// Rotate the window left by `k` bits (undo rotates right).
    Rotate(u8),
    /// XOR the window with the partner flit's word (key supplied at
    /// apply/undo time). Self-inverse given the same key.
    Scramble,
    /// Temporal reordering: the transform on the word itself is the
    /// identity; the queueing layer swaps departure slots.
    Reorder,
}

impl ObfuscationMethod {
    /// Receiver-side penalty in cycles for undoing this method, per the
    /// paper: invert/shuffle cost one cycle; scramble costs 1–2 while
    /// waiting for the partner flit (we charge the worst case).
    pub fn undo_penalty(self) -> u32 {
        match self {
            ObfuscationMethod::Invert | ObfuscationMethod::Rotate(_) => 1,
            ObfuscationMethod::Scramble => 2,
            ObfuscationMethod::Reorder => 1,
        }
    }
}

/// A fully specified obfuscation decision for one flit.
///
/// ```
/// use noc_mitigation::LobPlan;
///
/// let plan = LobPlan::LADDER[0]; // header-window inversion
/// let word = 0x0123_4567_89AB_CDEFu64;
/// let wire = plan.apply(word, 0);
/// assert_ne!(wire, word, "the trojan's comparator sees garbage");
/// assert_eq!(plan.undo(wire, 0), word, "the receiver recovers the flit");
/// assert!(plan.method.undo_penalty() <= 3, "within the paper's 1-3 cycles");
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct LobPlan {
    /// The transform to apply.
    pub method: ObfuscationMethod,
    /// The bit window it applies to.
    pub granularity: Granularity,
}

impl LobPlan {
    /// The escalation ladder: tried in order on successive retransmissions
    /// of the same flit until one crosses the link cleanly. Header-window
    /// methods come first (cheapest to undo and most likely to break a
    /// header-matching comparator); scramble and full-window methods follow.
    pub const LADDER: [LobPlan; 6] = [
        LobPlan {
            method: ObfuscationMethod::Invert,
            granularity: Granularity::Header,
        },
        LobPlan {
            method: ObfuscationMethod::Rotate(13),
            granularity: Granularity::Header,
        },
        LobPlan {
            method: ObfuscationMethod::Scramble,
            granularity: Granularity::Full,
        },
        LobPlan {
            method: ObfuscationMethod::Invert,
            granularity: Granularity::Full,
        },
        LobPlan {
            method: ObfuscationMethod::Rotate(29),
            granularity: Granularity::Full,
        },
        LobPlan {
            method: ObfuscationMethod::Reorder,
            granularity: Granularity::Full,
        },
    ];

    /// Stable machine-readable label, `method:granularity` (e.g.
    /// `rotate13:header`) — used by the trace JSONL schema.
    pub fn label(self) -> String {
        let method = match self.method {
            ObfuscationMethod::Invert => "invert".to_string(),
            ObfuscationMethod::Rotate(k) => format!("rotate{k}"),
            ObfuscationMethod::Scramble => "scramble".to_string(),
            ObfuscationMethod::Reorder => "reorder".to_string(),
        };
        let gran = match self.granularity {
            Granularity::Full => "full",
            Granularity::Header => "header",
            Granularity::Payload => "payload",
        };
        format!("{method}:{gran}")
    }

    /// Parse a [`LobPlan::label`] back.
    pub fn from_label(s: &str) -> Option<LobPlan> {
        let (method, gran) = s.split_once(':')?;
        let method = match method {
            "invert" => ObfuscationMethod::Invert,
            "scramble" => ObfuscationMethod::Scramble,
            "reorder" => ObfuscationMethod::Reorder,
            _ => ObfuscationMethod::Rotate(method.strip_prefix("rotate")?.parse().ok()?),
        };
        let granularity = match gran {
            "full" => Granularity::Full,
            "header" => Granularity::Header,
            "payload" => Granularity::Payload,
            _ => return None,
        };
        Some(LobPlan {
            method,
            granularity,
        })
    }

    /// Apply the transform. `key` is the partner word for `Scramble` and is
    /// ignored otherwise.
    pub fn apply(self, word: u64, key: u64) -> u64 {
        transform(word, self, key, false)
    }

    /// Undo the transform (same `key` for `Scramble`).
    pub fn undo(self, word: u64, key: u64) -> u64 {
        transform(word, self, key, true)
    }
}

/// Rotate `width` bits of `value` left (or right when `inverse`) by `k`.
fn rotate_window(value: u64, off: u32, width: u32, k: u32, inverse: bool) -> u64 {
    debug_assert!(width >= 1 && off + width <= 64);
    let k = k % width;
    if k == 0 || width == 1 {
        return value;
    }
    let mask = if width == 64 {
        u64::MAX
    } else {
        ((1u64 << width) - 1) << off
    };
    let win = (value & mask) >> off;
    let k = if inverse { width - k } else { k };
    let rotated = ((win << k) | (win >> (width - k)))
        & (if width == 64 {
            u64::MAX
        } else {
            (1u64 << width) - 1
        });
    (value & !mask) | (rotated << off)
}

fn transform(word: u64, plan: LobPlan, key: u64, inverse: bool) -> u64 {
    let mask = plan.granularity.mask();
    let (off, width) = plan.granularity.window();
    match plan.method {
        ObfuscationMethod::Invert => word ^ mask,
        ObfuscationMethod::Rotate(k) => rotate_window(word, off, width, k as u32, inverse),
        ObfuscationMethod::Scramble => word ^ (key & mask),
        ObfuscationMethod::Reorder => word,
    }
}

/// Per-output-port L-Ob controller: chooses the next method for a flit that
/// keeps faulting and remembers which method last succeeded on this link so
/// similar flits skip straight to it (the paper's method log).
#[derive(Debug, Clone, Default)]
pub struct LobModule {
    /// The last plan that crossed this link cleanly (any plan, ladder or
    /// custom).
    logged: Option<LobPlan>,
    /// Methods attempted since the last success (diagnostics).
    attempts: u64,
    successes: u64,
}

impl LobModule {
    /// A fresh controller with an empty method log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Choose the plan for the `attempt`-th obfuscated retransmission of a
    /// flit (0-based). If a method previously succeeded on this link, start
    /// there; otherwise walk the ladder.
    pub fn plan_for_attempt(&self, attempt: usize) -> LobPlan {
        let base = self
            .logged
            .and_then(|p| LobPlan::LADDER.iter().position(|l| *l == p))
            .unwrap_or(0);
        LobPlan::LADDER[(base + attempt) % LobPlan::LADDER.len()]
    }

    /// Record that `plan` crossed the link without triggering a fault. The
    /// downstream router reports this after a clean decode of an obfuscated
    /// flit; future escalations start from the winning rung.
    pub fn log_success(&mut self, plan: LobPlan) {
        self.logged = Some(plan);
        self.successes += 1;
    }

    /// Record an attempt (for statistics).
    pub fn log_attempt(&mut self) {
        self.attempts += 1;
    }

    /// Attempts made since construction.
    pub fn attempts(&self) -> u64 {
        self.attempts
    }

    /// Clean crossings logged.
    pub fn successes(&self) -> u64 {
        self.successes
    }

    /// The method currently logged as working on this link, if any.
    pub fn logged_plan(&self) -> Option<LobPlan> {
        self.logged
    }

    /// Restore the runtime state captured from another module via
    /// [`LobModule::logged_plan`], [`LobModule::attempts`] and
    /// [`LobModule::successes`] (checkpoint/restore support).
    pub fn restore(&mut self, logged: Option<LobPlan>, attempts: u64, successes: u64) {
        self.logged = logged;
        self.attempts = attempts;
        self.successes = successes;
    }

    /// What the successful granularity says about the trojan's trigger —
    /// "changing the granularity within the packet could allow us to
    /// identify the triggering mechanism" (§IV-A). A header-window method
    /// succeeding pins the comparator to the header; a payload-window
    /// success pins it to payload bits; full-window successes don't narrow
    /// the scope.
    pub fn inferred_trigger_scope(&self) -> TriggerScope {
        match self.logged_plan() {
            Some(LobPlan {
                granularity: Granularity::Header,
                ..
            }) => TriggerScope::Header,
            Some(LobPlan {
                granularity: Granularity::Payload,
                ..
            }) => TriggerScope::Payload,
            Some(_) => TriggerScope::Unknown,
            None => TriggerScope::Unknown,
        }
    }
}

/// The part of the flit a trojan's trigger has been narrowed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TriggerScope {
    /// The comparator keys on header bits (src/dest/vc/mem).
    Header,
    /// The trigger keys on payload bits.
    Payload,
    /// Not yet narrowed (no success, or only a full-window method worked).
    Unknown,
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn windows_tile_the_word() {
        assert_eq!(
            Granularity::Header.mask() | Granularity::Payload.mask(),
            Granularity::Full.mask()
        );
        assert_eq!(Granularity::Header.mask() & Granularity::Payload.mask(), 0);
    }

    #[test]
    fn invert_is_self_inverse_and_confined_to_window() {
        let w = 0x0123_4567_89AB_CDEF;
        for g in [Granularity::Full, Granularity::Header, Granularity::Payload] {
            let plan = LobPlan {
                method: ObfuscationMethod::Invert,
                granularity: g,
            };
            let obf = plan.apply(w, 0);
            assert_eq!(plan.undo(obf, 0), w);
            assert_eq!(obf & !g.mask(), w & !g.mask(), "bits outside window moved");
            assert_ne!(obf & g.mask(), w & g.mask());
        }
    }

    #[test]
    fn rotate_undo_restores_word() {
        let w = 0xFEDC_BA98_7654_3210;
        for k in [1u8, 13, 29, 41, 63] {
            for g in [Granularity::Full, Granularity::Header, Granularity::Payload] {
                let plan = LobPlan {
                    method: ObfuscationMethod::Rotate(k),
                    granularity: g,
                };
                assert_eq!(plan.undo(plan.apply(w, 0), 0), w, "k={k} g={g:?}");
            }
        }
    }

    #[test]
    fn scramble_is_keyed_xor() {
        let w = 0x1111_2222_3333_4444;
        let key = 0xAAAA_BBBB_CCCC_DDDD;
        let plan = LobPlan {
            method: ObfuscationMethod::Scramble,
            granularity: Granularity::Full,
        };
        let obf = plan.apply(w, key);
        assert_eq!(obf, w ^ key);
        assert_eq!(plan.undo(obf, key), w);
        // Wrong key does not restore.
        assert_ne!(plan.undo(obf, key ^ 1), w);
    }

    #[test]
    fn reorder_leaves_word_untouched() {
        let plan = LobPlan {
            method: ObfuscationMethod::Reorder,
            granularity: Granularity::Full,
        };
        assert_eq!(plan.apply(42, 99), 42);
    }

    #[test]
    fn penalties_match_paper_budget() {
        // All within the paper's quoted 1–3 cycle band.
        for plan in LobPlan::LADDER {
            let p = plan.method.undo_penalty();
            assert!((1..=3).contains(&p));
        }
    }

    #[test]
    fn ladder_escalates_and_wraps() {
        let lob = LobModule::new();
        assert_eq!(lob.plan_for_attempt(0), LobPlan::LADDER[0]);
        assert_eq!(lob.plan_for_attempt(5), LobPlan::LADDER[5]);
        assert_eq!(lob.plan_for_attempt(6), LobPlan::LADDER[0]);
    }

    #[test]
    fn trigger_scope_inference_follows_the_winning_granularity() {
        let mut lob = LobModule::new();
        assert_eq!(lob.inferred_trigger_scope(), TriggerScope::Unknown);
        // A header-window success pins the trigger to the header.
        lob.log_success(LobPlan::LADDER[0]);
        assert_eq!(lob.inferred_trigger_scope(), TriggerScope::Header);
        // A later full-window success widens the scope back to unknown.
        lob.log_success(LobPlan::LADDER[3]);
        assert_eq!(lob.inferred_trigger_scope(), TriggerScope::Unknown);
        // A payload-window success pins it to the payload.
        lob.log_success(LobPlan {
            method: ObfuscationMethod::Invert,
            granularity: Granularity::Payload,
        });
        assert_eq!(lob.inferred_trigger_scope(), TriggerScope::Payload);
    }

    #[test]
    fn success_log_fast_paths_future_attempts() {
        let mut lob = LobModule::new();
        lob.log_success(LobPlan::LADDER[2]);
        assert_eq!(lob.plan_for_attempt(0), LobPlan::LADDER[2]);
        assert_eq!(lob.plan_for_attempt(1), LobPlan::LADDER[3]);
        assert_eq!(lob.logged_plan(), Some(LobPlan::LADDER[2]));
        assert_eq!(lob.successes(), 1);
    }

    proptest! {
        #[test]
        fn every_ladder_plan_roundtrips(word in any::<u64>(), key in any::<u64>(),
                                        idx in 0usize..LobPlan::LADDER.len()) {
            let plan = LobPlan::LADDER[idx];
            prop_assert_eq!(plan.undo(plan.apply(word, key), key), word);
        }

        #[test]
        fn rotate_any_k_roundtrips(word in any::<u64>(), k in any::<u8>()) {
            for g in [Granularity::Full, Granularity::Header, Granularity::Payload] {
                let plan = LobPlan { method: ObfuscationMethod::Rotate(k), granularity: g };
                prop_assert_eq!(plan.undo(plan.apply(word, 0), 0), word);
            }
        }

        #[test]
        fn header_window_methods_keep_payload_bits(word in any::<u64>(), key in any::<u64>()) {
            for m in [ObfuscationMethod::Invert, ObfuscationMethod::Rotate(7),
                      ObfuscationMethod::Scramble] {
                let plan = LobPlan { method: m, granularity: Granularity::Header };
                let obf = plan.apply(word, key);
                prop_assert_eq!(obf & !Granularity::Header.mask(),
                                word & !Granularity::Header.mask());
            }
        }
    }
}
