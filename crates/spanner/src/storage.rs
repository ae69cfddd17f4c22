//! Multi-versioned key-value storage for a shard.
//!
//! Spanner is a multi-version store: committed writes are tagged with their
//! commit timestamp, and reads return the latest version at or before the
//! read timestamp. Versions per key stay sorted by commit timestamp, which is
//! guaranteed by the locking protocol (conflicting transactions serialize, and
//! prepare/commit timestamps are monotone per key).
//!
//! Version chains live in a [`DenseKeyMap`]: each key is interned once and
//! its chain lands in a dense slot, so the simulator's hottest storage path
//! (one read per key per read-only round) is an FxHash probe plus a vector
//! index instead of a SipHash `HashMap` walk.

use regular_core::densemap::DenseKeyMap;
use regular_core::types::{Key, Value};

use crate::messages::Ts;

/// A multi-version store mapping keys to version chains.
#[derive(Debug, Clone, Default)]
pub struct MvccStore {
    versions: DenseKeyMap<Vec<(Ts, Value)>>,
}

impl MvccStore {
    /// Creates an empty store (every key reads as null at every timestamp).
    pub fn new() -> Self {
        Self::default()
    }

    /// Installs a committed version of `key` at timestamp `ts`.
    pub fn apply(&mut self, key: Key, ts: Ts, value: Value) {
        let chain = self.versions.get_or_insert_with(key, Vec::new);
        chain.push((ts, value));
        // Keep the chain sorted; out-of-order installs are possible when
        // non-conflicting transactions commit with out-of-order timestamps.
        let mut i = chain.len() - 1;
        while i > 0 && chain[i - 1].0 > chain[i].0 {
            chain.swap(i - 1, i);
            i -= 1;
        }
    }

    /// Reads the latest version of `key` at or before `ts`, returning the
    /// version's commit timestamp and value (timestamp 0 and null when no
    /// version qualifies).
    pub fn read_at(&self, key: Key, ts: Ts) -> (Ts, Value) {
        match self.versions.get(key) {
            None => (0, Value::NULL),
            Some(chain) => {
                chain.iter().rev().find(|(t, _)| *t <= ts).copied().unwrap_or((0, Value::NULL))
            }
        }
    }

    /// The latest committed timestamp for `key` (0 if none).
    pub fn latest_ts(&self, key: Key) -> Ts {
        self.versions.get(key).and_then(|c| c.last()).map(|(t, _)| *t).unwrap_or(0)
    }

    /// Total number of stored versions (for diagnostics).
    pub fn version_count(&self) -> usize {
        self.versions.values().map(|c| c.len()).sum()
    }

    /// Every version chain, borrowed, ordered by key (each chain is ordered by
    /// timestamp): the deterministic walk a checkpoint streams from.
    pub fn chains_by_key(&self) -> Vec<(Key, &[(Ts, Value)])> {
        let mut chains: Vec<_> = self.versions.iter().map(|(k, c)| (k, c.as_slice())).collect();
        chains.sort_unstable_by_key(|(k, _)| k.0);
        chains
    }

    /// Every stored version, for differential tests. Unordered; callers sort
    /// as needed.
    pub fn dump(&self) -> Vec<(Key, Ts, Value)> {
        self.versions
            .iter()
            .flat_map(|(k, chain)| chain.iter().map(move |(ts, v)| (k, *ts, *v)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_store_reads_null() {
        let s = MvccStore::new();
        assert_eq!(s.read_at(Key(1), 100), (0, Value::NULL));
        assert_eq!(s.latest_ts(Key(1)), 0);
        assert_eq!(s.version_count(), 0);
    }

    #[test]
    fn reads_respect_timestamps() {
        let mut s = MvccStore::new();
        s.apply(Key(1), 10, Value(100));
        s.apply(Key(1), 20, Value(200));
        assert_eq!(s.read_at(Key(1), 5), (0, Value::NULL));
        assert_eq!(s.read_at(Key(1), 10), (10, Value(100)));
        assert_eq!(s.read_at(Key(1), 15), (10, Value(100)));
        assert_eq!(s.read_at(Key(1), 25), (20, Value(200)));
        assert_eq!(s.latest_ts(Key(1)), 20);
        assert_eq!(s.version_count(), 2);
    }

    #[test]
    fn out_of_order_installs_are_sorted() {
        let mut s = MvccStore::new();
        s.apply(Key(1), 30, Value(300));
        s.apply(Key(1), 10, Value(100));
        s.apply(Key(1), 20, Value(200));
        assert_eq!(s.read_at(Key(1), 12), (10, Value(100)));
        assert_eq!(s.read_at(Key(1), 22), (20, Value(200)));
        assert_eq!(s.read_at(Key(1), 35), (30, Value(300)));
    }

    #[test]
    fn keys_are_independent() {
        let mut s = MvccStore::new();
        s.apply(Key(1), 10, Value(1));
        assert_eq!(s.read_at(Key(2), 100), (0, Value::NULL));
    }
}
