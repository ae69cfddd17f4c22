//! WAL records and checkpoint parts for a durable shard.
//!
//! Under `Durability::Wal` a shard logs every durable state transition —
//! prepares, 2PC coordinator steps, decisions, safe-time advances — as one of
//! these records, and a checkpoint persists the durable state in two parts
//! (`regular_storage::wal`, "On-device layout"):
//!
//! * the *chunk* appended to the device's chain: the versions installed and
//!   the decisions recorded since the previous checkpoint (`ShardChunk`).
//!   The store and the decision log only ever grow, so they are the bulk of
//!   the state and the part a checkpoint must not write again.
//! * the *whole part*: the safe time, the prepared transactions and the open
//!   coordinator rounds (`ShardSnapshot`), which change in place and stay
//!   small, written in full.
//!
//! A Gryff replica checkpoints the other way, whole part only: its registers
//! are overwritten in place, so its state is bounded by the key space, while
//! a chain of overwrites would grow with the run.
//!
//! Crash recovery replays chain, whole part, then the records after the
//! checkpoint; nothing else survives. The byte layouts are declared with
//! [`regular_storage::codec`]'s `wire_layout!`.

use std::borrow::Cow;

use regular_core::types::{Key, Value};
use regular_sim::engine::NodeId;
use regular_storage::codec::{Enc, Wire};
use regular_storage::device::NodeDisk;
use regular_storage::wal::Wal;
use regular_storage::{wire_layout, MemDisk};

use crate::messages::{Ts, TxnId};
use crate::storage::MvccStore;

/// One durable state transition at a shard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardRecord {
    /// A transaction prepared here (participant role): its write locks are
    /// held and its writes buffered until the decision arrives.
    Prepare { txn: TxnId, t_prepare: Ts, t_ee: Ts, coordinator: NodeId, writes: Vec<(Key, Value)> },
    /// A commit/abort outcome became known here — as coordinator (decision
    /// log entry) or as participant (applying buffered writes).
    Decision { txn: TxnId, commit: bool, t_commit: Ts },
    /// This shard started coordinating a 2PC round.
    CoordBegin {
        txn: TxnId,
        client: NodeId,
        t_ee: Ts,
        writes_by_shard: Vec<(NodeId, Vec<(Key, Value)>)>,
    },
    /// A participant's vote arrived.
    CoordVote { txn: TxnId, shard: NodeId, t_prepare: Ts },
    /// The vote set completed: the commit timestamp is chosen and commit
    /// wait runs until `fire_at_us`. Recovery re-arms the release timer —
    /// without this record a recovered coordinator would hold a complete
    /// round forever (participant re-acks bounce off the duplicate guard).
    CoordTs { txn: TxnId, t_commit: Ts, fire_at_us: u64 },
    /// The safe time advanced to serve a read-only transaction. Losing this
    /// would let a post-recovery prepare slip under an answered read.
    SafeTime { ts: Ts },
}

wire_layout! {
    enum ShardRecord {
        1 => Prepare { txn, t_prepare, t_ee, coordinator, writes },
        2 => Decision { txn, commit, t_commit },
        3 => CoordBegin { txn, client, t_ee, writes_by_shard },
        4 => CoordVote { txn, shard, t_prepare },
        5 => CoordTs { txn, t_commit, fire_at_us },
        6 => SafeTime { ts },
    }
}

impl ShardRecord {
    /// The record's bytes, as `Wal::append` takes them. (The shard itself
    /// frames in place: `wal.append_with(now, |e| rec.encode_into(e))`.)
    pub fn encode(&self) -> Vec<u8> {
        self.to_bytes()
    }

    pub fn decode(bytes: &[u8]) -> Option<ShardRecord> {
        Self::from_bytes(bytes)
    }
}

/// Offline reconstruction of a shard's committed store from its device —
/// what the differential tests pin against the live shard's final state.
/// Replays the chain's versions, the whole part's prepared writes, then every
/// surviving record: prepares buffer writes, commit decisions install them.
pub fn replay_store(disk: MemDisk) -> MvccStore {
    let log = Wal::read_log(&mut NodeDisk::Mem(disk));
    let (chunks, whole, records) = log.decode::<ShardChunk, ShardSnapshot, ShardRecord>(
        "a spanner shard's device (offline replay)",
        SNAPSHOT_VERSION,
    );
    let mut store = MvccStore::new();
    for chunk in chunks {
        for (key, ts, value) in chunk.versions {
            store.apply(key, ts, value);
        }
    }
    let mut prepared: Vec<(TxnId, Vec<(Key, Value)>)> = whole
        .into_iter()
        .flat_map(|whole| whole.prepared)
        .map(|p| (p.txn, p.writes.into_owned()))
        .collect();
    for rec in records {
        match rec {
            ShardRecord::Prepare { txn, writes, .. }
                if !prepared.iter().any(|(t, _)| *t == txn) =>
            {
                prepared.push((txn, writes));
            }
            ShardRecord::Decision { txn, commit, t_commit } => {
                if let Some(pos) = prepared.iter().position(|(t, _)| *t == txn) {
                    let (_, writes) = prepared.remove(pos);
                    if commit {
                        for (k, v) in writes {
                            store.apply(k, t_commit, v);
                        }
                    }
                }
            }
            _ => {}
        }
    }
    store
}

/// A prepared transaction as serialized into a checkpoint's whole part:
/// borrowed from the shard when encoding, owned when decoded.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct SnapPrepared<'a> {
    pub txn: TxnId,
    pub writes: Cow<'a, [(Key, Value)]>,
    pub t_prepare: Ts,
    pub t_ee: Ts,
    pub coordinator: NodeId,
}

wire_layout! { struct SnapPrepared<'a> { txn, t_prepare, t_ee, coordinator, writes } }

/// One participant's share of a transaction's writes.
type ShardWrites = (NodeId, Vec<(Key, Value)>);

/// A coordinator round as serialized into a checkpoint's whole part.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct SnapCoord<'a> {
    pub txn: TxnId,
    pub client: NodeId,
    pub t_ee: Ts,
    pub max_prepare: Ts,
    pub commit_fire_at_us: Option<u64>,
    pub writes_by_shard: Cow<'a, [ShardWrites]>,
    pub awaiting: Vec<NodeId>,
}

wire_layout! {
    struct SnapCoord<'a> {
        txn, client, t_ee, max_prepare, commit_fire_at_us, writes_by_shard, awaiting,
    }
}

/// A checkpoint's append part: the versions a shard installed and the
/// decisions it recorded since the previous checkpoint, in install order.
/// A committed version is never rewritten and a decision never taken back,
/// so the chain of these, replayed in order, rebuilds the store and the
/// decision log, and no checkpoint writes either twice. The shard keeps the
/// one it is filling in this type too.
#[derive(Debug, Default, PartialEq, Eq)]
pub(crate) struct ShardChunk {
    pub versions: Vec<(Key, Ts, Value)>,
    pub decided: Vec<(TxnId, bool, Ts)>,
}

wire_layout! { struct ShardChunk { versions, decided } }

/// A checkpoint's whole part: the durable state a shard changes in place,
/// written in full every time.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct ShardSnapshot {
    pub max_ts: Ts,
    pub prepared: Vec<SnapPrepared<'static>>,
    pub coordinating: Vec<SnapCoord<'static>>,
}

wire_layout! { struct ShardSnapshot { max_ts, prepared, coordinating } }

/// Leads every whole part; one with any other version is not decoded.
/// Version 1 was one snapshot of the whole state, chains and decision log
/// included.
pub(crate) const SNAPSHOT_VERSION: u32 = 2;

/// Streams a checkpoint's whole part into `e` straight from the shard's
/// state, borrowed, so a checkpoint copies each byte once. Every slice
/// arrives in its canonical order (transaction ids, node ids ascending),
/// which makes the bytes a function of the state alone.
pub(crate) fn encode_whole(
    e: &mut Enc,
    max_ts: Ts,
    prepared: &[SnapPrepared],
    coordinating: &[SnapCoord],
) {
    e.u32(SNAPSHOT_VERSION).u64(max_ts).slice(prepared).slice(coordinating);
}

#[cfg(test)]
mod tests {
    use super::*;
    use regular_storage::codec::check_layout;

    impl ShardSnapshot {
        fn decode(bytes: &[u8]) -> Option<ShardSnapshot> {
            let (version, snapshot) = <(u32, ShardSnapshot)>::from_bytes(bytes)?;
            (version == SNAPSHOT_VERSION).then_some(snapshot)
        }
    }

    fn txn(client: NodeId, seq: u64) -> TxnId {
        TxnId { client, seq }
    }

    /// Records of every variant, each with the bytes it has always had.
    fn samples() -> Vec<(ShardRecord, &'static str)> {
        vec![
            (
                ShardRecord::Prepare {
                    txn: txn(9, 4),
                    t_prepare: 1000,
                    t_ee: 2000,
                    coordinator: 2,
                    writes: vec![(Key(1), Value(10)), (Key(4), Value(40))],
                },
                "0109000000000000000400000000000000e803000000000000d00700000000000002000000000000000200000001000000000000000a0000000000000004000000000000002800000000000000",
            ),
            (ShardRecord::Decision { txn: txn(9, 4), commit: true, t_commit: 1500 }, "020900000000000000040000000000000001dc05000000000000"),
            (ShardRecord::Decision { txn: txn(9, 5), commit: false, t_commit: 0 }, "0209000000000000000500000000000000000000000000000000"),
            (
                ShardRecord::CoordBegin {
                    txn: txn(7, 1),
                    client: 7,
                    t_ee: 900,
                    writes_by_shard: vec![(0, vec![(Key(3), Value(30))]), (1, vec![])],
                },
                "0307000000000000000100000000000000070000000000000084030000000000000200000000000000000000000100000003000000000000001e00000000000000010000000000000000000000",
            ),
            (ShardRecord::CoordVote { txn: txn(7, 1), shard: 1, t_prepare: 1200 }, "04070000000000000001000000000000000100000000000000b004000000000000"),
            (ShardRecord::CoordTs { txn: txn(7, 1), t_commit: 1400, fire_at_us: 5000 }, "050700000000000000010000000000000078050000000000008813000000000000"),
            (ShardRecord::SafeTime { ts: 7777 }, "06611e000000000000"),
        ]
    }

    fn sample_records() -> Vec<ShardRecord> {
        samples().into_iter().map(|(rec, _)| rec).collect()
    }

    #[test]
    fn every_variant_keeps_its_bytes() {
        check_layout(ShardRecord::TAGS, &samples());
    }

    #[test]
    fn encoding_in_place_frames_the_same_bytes() {
        use regular_storage::{StorageRegistry, WalOptions};
        let registry = StorageRegistry::new();
        let opts = WalOptions::mem(registry.clone());
        let (mut copied, _) = Wal::open(&opts, "copied");
        let (mut in_place, _) = Wal::open(&opts, "in-place");
        for rec in sample_records() {
            copied.append(&rec.encode(), 0);
            in_place.append_with(0, |enc| rec.encode_into(enc));
        }
        assert_eq!(
            registry.disk("copied").read_segment(0),
            registry.disk("in-place").read_segment(0)
        );
    }

    #[test]
    fn snapshot_round_trips() {
        // Re-recorded for version 2, when the store's chains and the decision
        // log moved out of the whole part into the chain's chunks.
        let snap = ShardSnapshot {
            max_ts: 123456,
            prepared: vec![SnapPrepared {
                txn: txn(3, 7),
                writes: vec![(Key(9), Value(90))].into(),
                t_prepare: 30,
                t_ee: 40,
                coordinator: 1,
            }],
            coordinating: vec![SnapCoord {
                txn: txn(4, 2),
                client: 4,
                t_ee: 55,
                max_prepare: 60,
                commit_fire_at_us: Some(70),
                writes_by_shard: vec![(0, vec![(Key(2), Value(22))])].into(),
                awaiting: vec![],
            }],
        };
        let mut e = Enc::new();
        encode_whole(&mut e, snap.max_ts, &snap.prepared, &snap.coordinating);
        let bytes = e.finish();
        // The streaming encoder and the declared layout write the same bytes.
        assert_eq!(ShardSnapshot::decode(&bytes).as_ref(), Some(&snap));
        let versioned = (SNAPSHOT_VERSION, snap);
        assert_eq!(bytes, versioned.to_bytes());
        check_layout(&[], &[(versioned, "0200000040e201000000000001000000030000000000000007000000000000001e00000000000000280000000000000001000000000000000100000009000000000000005a000000000000000100000004000000000000000200000000000000040000000000000037000000000000003c00000000000000014600000000000000010000000000000000000000010000000200000000000000160000000000000000000000")]);

        // A chunk: versions in install order (not key order), then decisions.
        let chunk = ShardChunk {
            versions: vec![
                (Key(2), 5, Value(50)),
                (Key(1), 20, Value(200)),
                (Key(1), 10, Value(100)),
            ],
            decided: vec![(txn(5, 6), false, 0), (txn(5, 5), true, 99)],
        };
        check_layout(&[], &[(chunk, "0300000002000000000000000500000000000000320000000000000001000000000000001400000000000000c80000000000000001000000000000000a000000000000006400000000000000020000000500000000000000060000000000000000000000000000000005000000000000000500000000000000016300000000000000")]);
    }

    #[test]
    fn hostile_counts_are_rejected_without_allocation() {
        // A prepared count of u32::MAX with nothing behind it.
        let snapshot = (SNAPSHOT_VERSION, (0u64, u32::MAX)).to_bytes();
        assert_eq!(ShardSnapshot::decode(&snapshot), None);
        assert_eq!(ShardChunk::from_bytes(&u32::MAX.to_bytes()), None);
    }

    /// A device whose one checkpoint carries `whole` as its whole part.
    fn device_with_whole(whole: &[u8]) -> regular_storage::StorageRegistry {
        use regular_storage::{StorageRegistry, WalOptions};
        let registry = StorageRegistry::new();
        let (mut wal, _) = Wal::open(&WalOptions::mem(registry.clone()), "spanner-shard-0");
        assert!(wal.checkpoint(whole));
        registry
    }

    #[test]
    #[should_panic(expected = "spanner-shard-0: the whole part, snapshot version 1 (this build")]
    fn recovering_a_snapshot_of_an_unknown_version_stops_the_shard() {
        // A version-1 snapshot of an empty shard: it decoded as version 2
        // never would, and skipping it used to recover an empty shard.
        let mut v1 = Enc::new();
        v1.u32(1).u64(0).u32(0).u32(0).u32(0).u32(0);
        let registry = device_with_whole(v1.as_slice());
        let config = crate::config::SpannerConfig::wan(crate::config::Mode::SpannerRss)
            .with_durability(regular_storage::Durability::Wal(regular_storage::WalOptions::mem(
                registry,
            )));
        let _ = crate::shard::ShardNode::new(&config, 0, regular_sim::time::SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "snapshot version 99 (this build reads 2), passed its CRC")]
    fn offline_replay_of_an_unknown_version_stops_too() {
        let registry = device_with_whole(&(99u32, 0u64).to_bytes());
        let _ = replay_store(registry.disk("spanner-shard-0"));
    }

    #[test]
    fn offline_replay_builds_store_from_prepare_and_decision() {
        use regular_storage::{StorageRegistry, WalOptions};
        let registry = StorageRegistry::new();
        let (mut wal, _) =
            regular_storage::wal::Wal::open(&WalOptions::mem(registry.clone()), "shard-x");
        let t1 = txn(1, 1);
        let t2 = txn(1, 2);
        wal.append(
            &ShardRecord::Prepare {
                txn: t1,
                t_prepare: 10,
                t_ee: 20,
                coordinator: 0,
                writes: vec![(Key(5), Value(55))],
            }
            .encode(),
            0,
        );
        wal.append(
            &ShardRecord::Prepare {
                txn: t2,
                t_prepare: 12,
                t_ee: 22,
                coordinator: 0,
                writes: vec![(Key(6), Value(66))],
            }
            .encode(),
            0,
        );
        wal.append(&ShardRecord::Decision { txn: t1, commit: true, t_commit: 15 }.encode(), 0);
        wal.append(&ShardRecord::Decision { txn: t2, commit: false, t_commit: 0 }.encode(), 0);
        wal.sync();
        let store = replay_store(registry.disk("shard-x"));
        assert_eq!(store.read_at(Key(5), 100), (15, Value(55)));
        assert_eq!(store.read_at(Key(6), 100), (0, Value::NULL), "aborted write never lands");
    }
}
