//! Hierarchical active-set bitmaps for the sharded cycle engine.
//!
//! An [`ActiveSet`] is a two-level bitmap over a dense id space (routers,
//! cores, or link *positions* in a shard-ordered permutation): a `words`
//! level with one bit per id, and a `summary` level with one bit per
//! word. The phase loops iterate only the set bits of their own shard's
//! range instead of linearly scanning every id, and the whole-network
//! quiescence gate in [`crate::Simulator::skip_idle_cycles`] is a scan of
//! the (tiny) summary level.
//!
//! Bits are *superset hints*: a set bit means the id **may** have work,
//! and every consumer re-checks the authoritative predicate (the
//! `router_active` bool, wire occupancy, queue emptiness) before acting.
//! A stale set bit therefore costs one wasted check; a stale *clear* bit
//! would lose work, so the update protocol only ever clears a bit at the
//! single site that just observed the authoritative predicate false.
//! The router set's predicate is "may be able to act": a router whose
//! work no stage can move is moved to the simulator's `parked` set, and
//! every event that could let it move sets its router bit again.
//!
//! Concurrency: `set`/`clear`/`get` use relaxed atomics. The engine's
//! barrier groups provide the happens-before edges (a bit set in group
//! G2 is consumed in G1 of the *next* cycle, across a pool barrier), and
//! within a group each bit is touched only by the shard that owns its
//! id, so same-word operations from different shards target disjoint
//! bits and commute — iteration order and results stay deterministic at
//! every shard count. `clear` deliberately leaves the summary bit alone
//! (a concurrent summary clear could lose a sibling's set); the serial
//! [`ActiveSet::compact`] pass between cycles trims the summary level,
//! after which [`ActiveSet::all_clear`] is exact.
//!
//! `set` reads each level before writing it and issues the locked
//! read-modify-write only for a clear bit. A bit that reads set stays
//! set for the rest of the group: within a group a bit is either only
//! ever set, or set and cleared by its owning shard alone (which is the
//! shard reading it), and summary bits fall only in the serial
//! `compact`, `clear_all` and `set_all`. So skipping the write leaves
//! both levels exactly as the unconditional `fetch_or` would.

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

const WORD_BITS: usize = 64;

/// Two-level atomic bitmap over `len` ids (see module docs).
pub(crate) struct ActiveSet {
    /// One bit per id.
    words: Vec<AtomicU64>,
    /// One bit per word: a superset of "word is nonzero".
    summary: Vec<AtomicU64>,
    len: usize,
}

impl std::fmt::Debug for ActiveSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ActiveSet")
            .field("len", &self.len)
            .field("set", &self.count())
            .finish()
    }
}

impl ActiveSet {
    /// A set over ids `0..len` with every bit set (everything may have
    /// work until proven otherwise — the safe initial state).
    pub(crate) fn new_all_set(len: usize) -> Self {
        let mut s = Self::new_all_clear(len);
        s.set_all();
        s
    }

    /// A set over ids `0..len` with no bit set.
    pub(crate) fn new_all_clear(len: usize) -> Self {
        Self {
            words: (0..len.div_ceil(WORD_BITS))
                .map(|_| AtomicU64::new(0))
                .collect(),
            summary: (0..len.div_ceil(WORD_BITS).div_ceil(WORD_BITS))
                .map(|_| AtomicU64::new(0))
                .collect(),
            len,
        }
    }

    /// Mark every id active (new/restore/re-shard: conservative reset).
    /// Tail bits past `len` stay zero so [`ActiveSet::all_clear`] and
    /// [`ActiveSet::count`] never see phantom ids.
    pub(crate) fn set_all(&mut self) {
        for (w, word) in self.words.iter_mut().enumerate() {
            let base = w * WORD_BITS;
            let live = self.len.saturating_sub(base).min(WORD_BITS);
            *word.get_mut() = if live == WORD_BITS {
                u64::MAX
            } else {
                (1u64 << live) - 1
            };
        }
        for (s, sw) in self.summary.iter_mut().enumerate() {
            let base = s * WORD_BITS;
            let live = self.words.len().saturating_sub(base).min(WORD_BITS);
            *sw.get_mut() = if live == WORD_BITS {
                u64::MAX
            } else {
                (1u64 << live) - 1
            };
        }
    }

    /// Mark id `i` active. Safe to call concurrently from any shard.
    /// In a busy network most calls find both bits already up, so each
    /// level is read first and written only when its bit is clear (see
    /// module docs for why that is exact).
    #[inline]
    pub(crate) fn set(&self, i: usize) {
        debug_assert!(i < self.len);
        let w = i / WORD_BITS;
        set_bit(&self.words[w], 1u64 << (i % WORD_BITS));
        set_bit(&self.summary[w / WORD_BITS], 1u64 << (w % WORD_BITS));
    }

    /// Mark id `i` inactive. Only the shard that owns `i` in the current
    /// group may call this, and only after observing the authoritative
    /// predicate false. The summary bit is left set (see module docs).
    #[inline]
    pub(crate) fn clear(&self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i / WORD_BITS].fetch_and(!(1u64 << (i % WORD_BITS)), Ordering::Relaxed);
    }

    /// Whether id `i` is marked active. The owning shard may read its
    /// own ids at any time; the parking protocol reads `parked` bits on
    /// the hot path, the audits and tests read every set.
    #[inline]
    pub(crate) fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.words[i / WORD_BITS].load(Ordering::Relaxed) & (1u64 << (i % WORD_BITS)) != 0
    }

    /// Mark every id inactive (restore/re-shard of a set whose bits
    /// are not superset hints, such as `parked`).
    pub(crate) fn clear_all(&mut self) {
        for w in self.words.iter_mut().chain(self.summary.iter_mut()) {
            *w.get_mut() = 0;
        }
    }

    /// Serial maintenance between cycles: drop summary bits whose word
    /// went all-clear. After this, [`ActiveSet::all_clear`] is exact.
    pub(crate) fn compact(&mut self) {
        for (s, sw) in self.summary.iter_mut().enumerate() {
            let mut bits = *sw.get_mut();
            let mut keep = bits;
            while bits != 0 {
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let w = s * WORD_BITS + b;
                if self
                    .words
                    .get_mut(w)
                    .is_none_or(|word| *word.get_mut() == 0)
                {
                    keep &= !(1u64 << b);
                }
            }
            *sw.get_mut() = keep;
        }
    }

    /// Whether no id is marked active. Exact immediately after
    /// [`ActiveSet::compact`]; otherwise may report a stale `false`
    /// (never a stale `true` — sets raise summary bits eagerly).
    pub(crate) fn all_clear(&self) -> bool {
        self.summary.iter().all(|s| s.load(Ordering::Relaxed) == 0)
    }

    /// Whether any id is marked active — exact, without mutating the
    /// summary level. The word level is authoritative (`clear` lands
    /// there immediately), so each set summary bit is chased to its
    /// word and a nonzero word answers `true`. Under saturation the
    /// very first probe is nonzero, making this a one-or-two-load
    /// reject for the skip gate; after a drain, stale summary bits
    /// cost one extra load each but the answer stays exact.
    #[inline]
    pub(crate) fn any_set(&self) -> bool {
        for (s, sw) in self.summary.iter().enumerate() {
            let mut bits = sw.load(Ordering::Relaxed);
            while bits != 0 {
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let w = s * WORD_BITS + b;
                if self
                    .words
                    .get(w)
                    .is_some_and(|word| word.load(Ordering::Relaxed) != 0)
                {
                    return true;
                }
            }
        }
        false
    }

    /// Number of set bits (diagnostics only).
    pub(crate) fn count(&self) -> usize {
        self.words
            .iter()
            .map(|w| w.load(Ordering::Relaxed).count_ones() as usize)
            .sum()
    }

    /// Visit every set id in `range`, ascending. The summary level skips
    /// 64-word (4096-id) dead zones in one load. Iterates over a
    /// snapshot of each word, so the callback may `clear` visited ids
    /// (the refresh loop does) without perturbing the walk.
    #[inline]
    pub(crate) fn for_each_set_in(&self, range: Range<usize>, mut f: impl FnMut(usize)) {
        if range.start >= range.end {
            return;
        }
        let first_w = range.start / WORD_BITS;
        let last_w = (range.end - 1) / WORD_BITS;
        let mut w = first_w;
        while w <= last_w {
            // Summary hop: skip whole all-clear summary blocks.
            let s = w / WORD_BITS;
            let sbits = self.summary[s].load(Ordering::Relaxed) >> (w % WORD_BITS);
            if sbits == 0 {
                w = (s + 1) * WORD_BITS;
                continue;
            }
            w += sbits.trailing_zeros() as usize;
            if w > last_w {
                break;
            }
            let mut bits = self.words[w].load(Ordering::Relaxed);
            if w == first_w {
                bits &= u64::MAX << (range.start % WORD_BITS);
            }
            if w == last_w {
                let tail = range.end - w * WORD_BITS;
                if tail < WORD_BITS {
                    bits &= (1u64 << tail) - 1;
                }
            }
            while bits != 0 {
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                f(w * WORD_BITS + b);
            }
            w += 1;
        }
    }
}

/// Raise `bit` in `word`, with a locked instruction only when it reads
/// clear.
#[inline]
fn set_bit(word: &AtomicU64, bit: u64) {
    if word.load(Ordering::Relaxed) & bit == 0 {
        word.fetch_or(bit, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect(set: &ActiveSet, r: Range<usize>) -> Vec<usize> {
        let mut v = Vec::new();
        set.for_each_set_in(r, |i| v.push(i));
        v
    }

    #[test]
    fn starts_all_set_and_clears_exactly() {
        let mut s = ActiveSet::new_all_set(130);
        assert_eq!(s.count(), 130);
        assert!(!s.all_clear());
        for i in 0..130 {
            assert!(s.get(i));
            s.clear(i);
        }
        assert_eq!(s.count(), 0);
        // Summary is a lazy superset until compacted.
        assert!(!s.all_clear());
        s.compact();
        assert!(s.all_clear());
    }

    #[test]
    fn set_after_compact_raises_summary_again() {
        let mut s = ActiveSet::new_all_set(100);
        for i in 0..100 {
            s.clear(i);
        }
        s.compact();
        assert!(s.all_clear());
        s.set(77);
        assert!(!s.all_clear(), "set must eagerly raise the summary");
        assert!(s.get(77));
        assert_eq!(collect(&s, 0..100), vec![77]);
    }

    #[test]
    fn ranged_iteration_is_ascending_and_masked() {
        let s = ActiveSet::new_all_set(300);
        for i in 0..300 {
            s.clear(i);
        }
        for &i in &[3usize, 63, 64, 65, 127, 128, 200, 299] {
            s.set(i);
        }
        assert_eq!(collect(&s, 0..300), vec![3, 63, 64, 65, 127, 128, 200, 299]);
        assert_eq!(collect(&s, 64..128), vec![64, 65, 127]);
        assert_eq!(collect(&s, 65..65), Vec::<usize>::new());
        assert_eq!(collect(&s, 66..200), vec![127, 128]);
        assert_eq!(collect(&s, 299..300), vec![299]);
    }

    #[test]
    fn iteration_survives_clearing_visited_bits() {
        let mut s = ActiveSet::new_all_set(192);
        for i in 0..192 {
            s.clear(i);
        }
        for &i in &[10usize, 70, 130, 190] {
            s.set(i);
        }
        let mut seen = Vec::new();
        s.for_each_set_in(0..192, |i| {
            seen.push(i);
            s.clear(i);
        });
        assert_eq!(seen, vec![10, 70, 130, 190]);
        s.compact();
        assert!(s.all_clear());
    }

    #[test]
    fn any_set_is_exact_without_compaction() {
        let s = ActiveSet::new_all_set(300);
        assert!(s.any_set());
        for i in 0..300 {
            s.clear(i);
        }
        // Summary bits are still raised (clear leaves them), but the
        // word level is authoritative — any_set must say drained.
        assert!(!s.all_clear(), "summary is a lazy superset");
        assert!(!s.any_set(), "any_set chases summary bits to words");
        s.set(257);
        assert!(s.any_set());
        s.clear(257);
        assert!(!s.any_set());
    }

    #[test]
    fn setting_a_set_bit_changes_neither_level() {
        let mut s = ActiveSet::new_all_clear(130);
        s.set(70);
        let levels = |s: &mut ActiveSet| {
            let words: Vec<u64> = s.words.iter_mut().map(|w| *w.get_mut()).collect();
            let summary: Vec<u64> = s.summary.iter_mut().map(|w| *w.get_mut()).collect();
            (words, summary)
        };
        let before = levels(&mut s);
        assert_eq!(before, (vec![0, 1 << 6, 0], vec![0b10]));
        s.set(70);
        assert_eq!(levels(&mut s), before);
        // A cleared bit in a word whose summary bit is still up: only
        // the word level is written.
        s.clear(70);
        s.set(70);
        assert_eq!(levels(&mut s), before);
    }

    #[test]
    fn concurrent_sets_of_one_word_all_land() {
        // Two threads set disjoint halves of one word (and so one
        // summary bit), released together by a barrier.
        let s = ActiveSet::new_all_clear(64);
        let go = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            for half in [0..32, 32..64] {
                let (s, go) = (&s, &go);
                scope.spawn(move || {
                    go.wait();
                    for i in half {
                        s.set(i);
                    }
                });
            }
        });
        assert_eq!(s.count(), 64);
        assert_eq!(s.summary[0].load(Ordering::Relaxed), 1);
        assert_eq!(collect(&s, 0..64), (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn summary_hop_skips_dead_zones() {
        // 8192 ids = 2 summary words; only the far end is populated.
        let mut s = ActiveSet::new_all_set(8192);
        for i in 0..8192 {
            s.clear(i);
        }
        s.compact();
        s.set(8000);
        assert_eq!(collect(&s, 0..8192), vec![8000]);
    }
}
