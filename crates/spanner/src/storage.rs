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
//!
//! A chain holds only live capacity. Nothing is ever pruned, so the store is
//! a durable shard's largest structure, and most keys are written once: on a
//! write-heavy single-DC run, ~42 k of ~43 k chains hold one version. A
//! `Vec`'s first push reserves four slots, which would leave three of every
//! four version slots empty. So a key's first version allocates exactly
//! one slot (16 B instead of 64 B). Growth after that is `Vec`'s own, so a
//! chain stays one contiguous slice for reads.
//!
//! A committed version is never rewritten: [`MvccStore::apply`] only adds.
//! So a durable shard never checkpoints the store whole. Each checkpoint
//! appends the versions installed since the last one to the device's chain,
//! in install order (`crate::durable::ShardChunk`), and recovery applies
//! the chain in order.

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
        let chain = self.versions.get_or_insert_with(key, || Vec::with_capacity(1));
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
    use crate::durable::ShardChunk;
    use regular_storage::codec::Wire;

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

    /// The store against the plainest model of it: a sorted map of keys to
    /// version lists kept sorted by timestamp. Installs arrive with
    /// out-of-order timestamps; a few hot keys take many versions while the
    /// long tail is written about once, as on a write-heavy shard.
    #[test]
    fn random_installs_match_a_sorted_map_model() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        use std::collections::BTreeMap;

        let mut rng = SmallRng::seed_from_u64(26);
        let mut store = MvccStore::new();
        let mut model: BTreeMap<Key, Vec<(Ts, Value)>> = BTreeMap::new();
        let mut installs = Vec::new();
        for i in 0..2_000u64 {
            let key = match rng.gen_range(0..10u32) {
                0..=2 => Key(rng.gen_range(0..8)),
                _ => Key(rng.gen_range(100..3_000)),
            };
            // Timestamps mostly ascend, with stragglers up to 5 000 behind.
            let max_lag: u64 = if rng.gen_bool(0.2) { 5_000 } else { 10 };
            let ts = 10 * i + 5_000 - rng.gen_range(0..max_lag);
            let value = Value(rng.gen_range(1..1_000_000));
            store.apply(key, ts, value);
            installs.push((key, ts, value));
            let chain = model.entry(key).or_default();
            let at = chain.partition_point(|(t, _)| *t <= ts);
            chain.insert(at, (ts, value));
        }
        let multi = model.values().filter(|c| c.len() > 1).count();
        assert!(multi >= 8 && model.len() > 1_000, "{multi} multi-version keys of {}", model.len());

        let model_read = |key: Key, ts: Ts| {
            let chain = model.get(&key).map_or(&[][..], Vec::as_slice);
            let at = chain.partition_point(|(t, _)| *t <= ts);
            at.checked_sub(1).map_or((0, Value::NULL), |i| chain[i])
        };
        let probes: Vec<(Key, Ts)> =
            (0..5_000).map(|_| (Key(rng.gen_range(0..3_100)), rng.gen_range(0..26_000))).collect();
        for &(key, ts) in &probes {
            assert_eq!(store.read_at(key, ts), model_read(key, ts), "{key:?} at {ts}");
        }
        for (&key, chain) in &model {
            assert_eq!(store.latest_ts(key), chain.last().unwrap().0, "{key:?}");
        }
        assert_eq!(store.latest_ts(Key(99)), 0);
        assert_eq!(store.version_count(), 2_000);
        let mut expected: Vec<(Key, Ts, Value)> = model
            .iter()
            .flat_map(|(&k, chain)| chain.iter().map(move |&(ts, v)| (k, ts, v)))
            .collect();
        expected.sort_unstable();
        let sorted_dump = |store: &MvccStore| {
            let mut dump = store.dump();
            dump.sort_unstable();
            dump
        };
        assert_eq!(sorted_dump(&store), expected);

        // What a durable shard checkpoints: the installs as chunks of what
        // arrived since the last checkpoint, in install order. Replayed into
        // an empty store, they read as the model does. (This used to pin a
        // digest of one snapshot with every chain in key order; that format
        // went when the chains moved to the chain of chunks.)
        let mut replayed = MvccStore::new();
        let mut written = Vec::new();
        for since_checkpoint in installs.chunks(250) {
            let chunk = ShardChunk { versions: since_checkpoint.to_vec(), decided: Vec::new() };
            let bytes = chunk.to_bytes();
            for (key, ts, value) in ShardChunk::from_bytes(&bytes).unwrap().versions {
                replayed.apply(key, ts, value);
            }
            written.extend(bytes);
        }
        assert_eq!(sorted_dump(&replayed), expected);
        for &(key, ts) in &probes {
            assert_eq!(replayed.read_at(key, ts), model_read(key, ts), "replayed {key:?} at {ts}");
        }
        let fnv = written.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
        });
        assert_eq!(format!("{}:{fnv:016x}", written.len()), "48064:b7a5a290b2a8dc6f");
    }
}
