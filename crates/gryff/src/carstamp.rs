//! Carstamps: Gryff's consensus-after-register timestamps.
//!
//! Every write and read-modify-write is tagged with a carstamp denoting its
//! position in the per-key total order; reads adopt the carstamp of the value
//! they return. Carstamps are totally ordered, and a writer picks one strictly
//! larger than every carstamp reported by its first-phase quorum, which is the
//! property the correctness argument (Appendix D.2, Lemma D.6 onward) builds
//! on.
//!
//! Like Gryff's, a carstamp has **three** components `(count, writer, rmwc)`:
//! base writes advance `count` (resetting `rmwc`), while read-modify-writes
//! extend the base value they observed by advancing only `rmwc`. The third
//! component is load-bearing, not cosmetic: if rmws advanced `count` instead,
//! a base write racing an rmw could pick the same `count` and lose the
//! writer tie-break, leaving an update that no later operation observes even
//! after it completed — an execution with *no* legal serialization. (A
//! 256-seed conformance sweep of the composed fault scenario caught exactly
//! that anomaly against a two-component simplification; see
//! `spec_violation` artifacts from `regular-bench sweep` for what it looks
//! like.) With `rmwc`, a concurrent base write always orders above the rmw
//! chain it raced, exactly as in Gryff.

use regular_storage::wire_layout;

/// A carstamp: a logical count, the writer's identifier for tie-breaking,
/// and the read-modify-write counter extending a base value.
///
/// Ordering is lexicographic over `(count, writer, rmwc)` — the field order
/// of the struct.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Carstamp {
    /// Logical counter (dominant component), advanced by base writes.
    pub count: u64,
    /// Identifier of the writer of the base value, breaking counter ties.
    pub writer: u64,
    /// Number of read-modify-writes applied on top of the base value.
    pub rmwc: u64,
}

wire_layout! { struct Carstamp { count, writer, rmwc } }

impl Carstamp {
    /// The carstamp of the initial (absent) value.
    pub const ZERO: Carstamp = Carstamp { count: 0, writer: 0, rmwc: 0 };

    /// The carstamp of a base write over `self`: strictly larger than `self`
    /// (and than every rmw applied to it), owned by `writer`.
    pub fn next(self, writer: u64) -> Carstamp {
        Carstamp { count: self.count + 1, writer, rmwc: 0 }
    }

    /// The carstamp of a read-modify-write applied to the value at `self`:
    /// strictly larger than `self` but still below any later base write.
    pub fn next_rmw(self) -> Carstamp {
        Carstamp { rmwc: self.rmwc + 1, ..self }
    }

    /// True for the initial carstamp.
    pub fn is_zero(self) -> bool {
        self == Carstamp::ZERO
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_is_by_count_then_writer_then_rmwc() {
        let a = Carstamp { count: 1, writer: 5, rmwc: 0 };
        let b = Carstamp { count: 2, writer: 1, rmwc: 0 };
        let c = Carstamp { count: 2, writer: 3, rmwc: 0 };
        let d = Carstamp { count: 2, writer: 3, rmwc: 4 };
        assert!(a < b);
        assert!(b < c);
        assert!(c < d);
        assert!(Carstamp::ZERO < a);
    }

    #[test]
    fn next_is_strictly_larger() {
        let a = Carstamp { count: 7, writer: 2, rmwc: 3 };
        let n = a.next(9);
        assert!(n > a);
        assert_eq!(n.count, 8);
        assert_eq!(n.writer, 9);
        assert_eq!(n.rmwc, 0, "a base write resets the rmw counter");
        assert!(!n.is_zero());
        assert!(Carstamp::ZERO.is_zero());
    }

    #[test]
    fn rmws_extend_the_base_below_the_next_write() {
        let base = Carstamp { count: 3, writer: 7, rmwc: 0 };
        let r1 = base.next_rmw();
        let r2 = r1.next_rmw();
        assert!(base < r1 && r1 < r2);
        assert_eq!((r2.count, r2.writer, r2.rmwc), (3, 7, 2));
        // The property that makes racing writes safe: ANY later base write —
        // even one whose writer id loses the tie-break to the base — orders
        // above the whole rmw chain, so a completed write can never be
        // serialized underneath an rmw that did not observe it.
        let racing_write = base.next(1);
        assert!(racing_write > r2);
    }
}
