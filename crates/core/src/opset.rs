//! Dense bitsets over the local op indices of one search.
//!
//! The exact search used to represent its scheduled sets, predecessor masks,
//! and memo keys as `u128` bitmasks, hard-capping every search at 128
//! operations. [`OpSet`] lifts that ceiling: a small-vector bitset whose
//! one-allocation-free inline representation covers up to
//! [`OpSet::INLINE_BITS`] bits (two words — the entire old `u128` range, so
//! the ≤128-op benches keep their flat-word arithmetic), spilling to a heap
//! word box only for larger universes.
//!
//! All sets participating in one search share one universe size, fixed at
//! construction.

use std::hash::{Hash, Hasher};

const WORD_BITS: usize = 64;

/// Number of `u64` words needed for `bits` bits.
#[inline]
pub(crate) fn words_for(bits: usize) -> usize {
    bits.div_ceil(WORD_BITS).max(1)
}

/// A fixed-universe bitset over local op indices.
///
/// Cheap to clone in the inline regime (a memo-table key), heap-boxed beyond
/// [`OpSet::INLINE_BITS`] bits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpSet {
    repr: Repr,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Repr {
    /// Up to [`OpSet::INLINE_BITS`] bits, no allocation.
    Inline([u64; 2]),
    /// Any larger universe.
    Spilled(Box<[u64]>),
}

impl OpSet {
    /// Largest universe (in bits) the inline representation covers.
    pub const INLINE_BITS: usize = 2 * WORD_BITS;

    /// The empty set over a universe of `universe` bits.
    pub fn empty(universe: usize) -> Self {
        let n = words_for(universe);
        if n <= 2 {
            OpSet { repr: Repr::Inline([0; 2]) }
        } else {
            OpSet { repr: Repr::Spilled(vec![0u64; n].into_boxed_slice()) }
        }
    }

    /// The set `{0, 1, …, count-1}` over a universe of `universe` bits.
    ///
    /// This replaces the old `u128::MAX >> (128 - required.len())` idiom,
    /// which was one guard away from a shift-overflow panic at the
    /// representation boundary; here every boundary (0, 64, 127, 128, 129, …)
    /// is handled by whole-word fills plus one partial word.
    ///
    /// # Panics
    ///
    /// Panics if `count > universe`.
    pub fn first_n(universe: usize, count: usize) -> Self {
        assert!(count <= universe, "first_n({count}) exceeds universe {universe}");
        let mut set = Self::empty(universe);
        let words = set.words_mut();
        let full = count / WORD_BITS;
        for w in words.iter_mut().take(full) {
            *w = u64::MAX;
        }
        let rem = count % WORD_BITS;
        if rem != 0 {
            // rem < 64, so the shift below cannot overflow.
            words[full] = u64::MAX >> (WORD_BITS - rem);
        }
        set
    }

    /// The words of the set, least-significant first.
    #[inline]
    pub fn words(&self) -> &[u64] {
        match &self.repr {
            Repr::Inline(w) => w,
            Repr::Spilled(w) => w,
        }
    }

    #[inline]
    fn words_mut(&mut self) -> &mut [u64] {
        match &mut self.repr {
            Repr::Inline(w) => w,
            Repr::Spilled(w) => w,
        }
    }

    /// Word `w` of the set (zero beyond the universe).
    #[inline]
    pub fn word(&self, w: usize) -> u64 {
        self.words().get(w).copied().unwrap_or(0)
    }

    /// Number of words in the representation.
    #[inline]
    pub fn num_words(&self) -> usize {
        self.words().len()
    }

    /// True if `i` is in the set.
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        self.word(i / WORD_BITS) & (1u64 << (i % WORD_BITS)) != 0
    }

    /// Inserts `i`.
    #[inline]
    pub fn insert(&mut self, i: usize) {
        self.words_mut()[i / WORD_BITS] |= 1u64 << (i % WORD_BITS);
    }

    /// Removes `i`.
    #[inline]
    pub fn remove(&mut self, i: usize) {
        self.words_mut()[i / WORD_BITS] &= !(1u64 << (i % WORD_BITS));
    }

    /// ORs in the low bits of `bits`, shifted up by `offset` — the
    /// optional-subset construction `required_mask | (subset << |required|)`,
    /// generalized across word boundaries.
    pub fn or_shifted(&mut self, bits: u64, offset: usize) {
        let words = self.words_mut();
        let (w, sh) = (offset / WORD_BITS, offset % WORD_BITS);
        words[w] |= bits << sh;
        if sh != 0 {
            let spill = (bits as u128 >> (WORD_BITS - sh)) as u64;
            if spill != 0 {
                words[w + 1] |= spill;
            }
        }
    }

    /// Number of elements.
    #[inline]
    pub fn count(&self) -> usize {
        self.words().iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True if the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.words().iter().all(|&w| w == 0)
    }

    /// Iterates the elements in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words().iter().enumerate().flat_map(|(wi, &word)| {
            std::iter::successors((word != 0).then_some(word), |w| {
                let next = w & (w - 1);
                (next != 0).then_some(next)
            })
            .map(move |w| wi * WORD_BITS + w.trailing_zeros() as usize)
        })
    }
}

impl Hash for OpSet {
    fn hash<H: Hasher>(&self, state: &mut H) {
        for &w in self.words() {
            state.write_u64(w);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_inline_boundary() {
        for universe in [0, 1, 63, 64, 65, 127, 128] {
            let s = OpSet::empty(universe);
            assert!(matches!(s.repr, Repr::Inline(_)), "universe {universe} stays inline");
            assert!(s.is_empty());
        }
        for universe in [129, 192, 1000] {
            let s = OpSet::empty(universe);
            assert!(matches!(s.repr, Repr::Spilled(_)), "universe {universe} spills");
            assert_eq!(s.num_words(), words_for(universe));
            assert!(s.is_empty());
        }
    }

    #[test]
    fn first_n_at_word_boundaries() {
        // The exact boundary cases the old `u128::MAX >> (128 - len)` idiom
        // was fragile around.
        for (universe, count) in
            [(64, 64), (127, 127), (128, 128), (129, 129), (129, 128), (200, 64), (200, 0)]
        {
            let s = OpSet::first_n(universe, count);
            assert_eq!(s.count(), count, "first_n({universe}, {count})");
            for i in 0..universe {
                assert_eq!(s.contains(i), i < count, "bit {i} of first_n({universe}, {count})");
            }
        }
    }

    #[test]
    fn insert_remove_contains_across_words() {
        let mut s = OpSet::empty(200);
        for i in [0, 63, 64, 127, 128, 199] {
            assert!(!s.contains(i));
            s.insert(i);
            assert!(s.contains(i));
        }
        assert_eq!(s.count(), 6);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 63, 64, 127, 128, 199]);
        s.remove(64);
        s.remove(199);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 63, 127, 128]);
    }

    #[test]
    fn or_shifted_crosses_word_boundaries() {
        // Offset 62 with 4 bits set spans words 0 and 1.
        let mut s = OpSet::empty(130);
        s.or_shifted(0b1111, 62);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![62, 63, 64, 65]);
        // Offset at exactly a word boundary.
        let mut t = OpSet::empty(200);
        t.or_shifted(0b101, 128);
        assert_eq!(t.iter().collect::<Vec<_>>(), vec![128, 130]);
        // Offset 120 spilling into the third word of a spilled set.
        let mut u = OpSet::empty(200);
        u.or_shifted(0x3FF, 120);
        assert_eq!(u.count(), 10);
        assert!(u.contains(120) && u.contains(129));
    }

    #[test]
    fn equality_and_hash_agree_on_words() {
        use crate::hashing::FxBuildHasher;
        use std::hash::BuildHasher;
        let mut a = OpSet::empty(129);
        let mut b = OpSet::empty(129);
        a.insert(128);
        assert_ne!(a, b);
        b.insert(128);
        assert_eq!(a, b);
        let build = FxBuildHasher::default();
        assert_eq!(build.hash_one(&a), build.hash_one(&b));
    }
}
