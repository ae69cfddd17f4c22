//! WAL records and checkpoint snapshots for a durable shard.
//!
//! Under `Durability::Wal` a shard logs every durable state transition —
//! prepares, 2PC coordinator steps, decisions, safe-time advances — as one of
//! these records, and a checkpoint serializes the full durable state. Crash
//! recovery replays snapshot + records; nothing else survives. The byte
//! layouts are declared with [`regular_storage::codec`]'s `wire_layout!`.

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
/// Replays the checkpoint snapshot, then every surviving record: prepares
/// buffer writes, commit decisions install them.
pub fn replay_store(disk: MemDisk) -> MvccStore {
    let mut node_disk = NodeDisk::Mem(disk);
    let log = Wal::read_log(&mut node_disk);
    let mut store = MvccStore::new();
    let mut prepared: Vec<(TxnId, Vec<(Key, Value)>)> = Vec::new();
    if let Some(snapshot) = &log.snapshot {
        if let Some(snap) = ShardSnapshot::decode(snapshot) {
            for (key, ts, value) in snap.versions {
                store.apply(key, ts, value);
            }
            for p in snap.prepared {
                prepared.push((p.txn, p.writes.into_owned()));
            }
        }
    }
    for bytes in &log.records {
        match ShardRecord::decode(bytes) {
            Some(ShardRecord::Prepare { txn, writes, .. })
                if !prepared.iter().any(|(t, _)| *t == txn) =>
            {
                prepared.push((txn, writes));
            }
            Some(ShardRecord::Decision { txn, commit, t_commit }) => {
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

/// A prepared transaction as serialized into a checkpoint snapshot: borrowed
/// from the shard when encoding, owned when decoded.
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

/// A coordinator round as serialized into a checkpoint snapshot.
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

/// The full durable state of a shard, as decoded from a checkpoint.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct ShardSnapshot {
    pub max_ts: Ts,
    pub versions: Vec<(Key, Ts, Value)>,
    pub prepared: Vec<SnapPrepared<'static>>,
    pub coordinating: Vec<SnapCoord<'static>>,
    pub decided: Vec<(TxnId, bool, Ts)>,
}

wire_layout! { struct ShardSnapshot { max_ts, versions, prepared, coordinating, decided } }

/// Leads every snapshot; one with any other version is not decoded.
const SNAPSHOT_VERSION: u32 = 1;

/// Streams a checkpoint snapshot into `e` straight from the shard's state —
/// the version chains as the store holds them, the rest borrowed — so a
/// checkpoint copies each byte once. Every slice arrives in its canonical
/// order (keys, transaction ids, node ids ascending), which makes the bytes
/// a function of the state alone.
pub(crate) fn encode_snapshot(
    e: &mut Enc,
    max_ts: Ts,
    chains: &[(Key, &[(Ts, Value)])],
    prepared: &[SnapPrepared],
    coordinating: &[SnapCoord],
    decided: &[(TxnId, bool, Ts)],
) {
    e.u32(SNAPSHOT_VERSION).u64(max_ts);
    e.u32(chains.iter().map(|(_, chain)| chain.len()).sum::<usize>() as u32);
    for (key, chain) in chains {
        for (ts, value) in *chain {
            (*key, *ts, *value).encode_into(e);
        }
    }
    e.slice(prepared).slice(coordinating).slice(decided);
}

impl ShardSnapshot {
    pub fn decode(bytes: &[u8]) -> Option<ShardSnapshot> {
        let (version, snapshot) = <(u32, ShardSnapshot)>::from_bytes(bytes)?;
        (version == SNAPSHOT_VERSION).then_some(snapshot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use regular_storage::codec::check_layout;

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
        let snap = ShardSnapshot {
            max_ts: 123456,
            versions: vec![
                (Key(1), 10, Value(100)),
                (Key(1), 20, Value(200)),
                (Key(2), 5, Value(50)),
            ],
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
            decided: vec![(txn(5, 5), true, 99), (txn(5, 6), false, 0)],
        };
        // Two chains, as the store would hand them over.
        let chains: [(Key, &[(Ts, Value)]); 2] =
            [(Key(1), &[(10, Value(100)), (20, Value(200))]), (Key(2), &[(5, Value(50))])];
        let mut e = Enc::new();
        encode_snapshot(
            &mut e,
            snap.max_ts,
            &chains,
            &snap.prepared,
            &snap.coordinating,
            &snap.decided,
        );
        let bytes = e.finish();
        // The streaming encoder and the declared layout write the same bytes,
        // the ones snapshots have always had.
        assert_eq!(ShardSnapshot::decode(&bytes).as_ref(), Some(&snap));
        let versioned = (SNAPSHOT_VERSION, snap);
        assert_eq!(bytes, versioned.to_bytes());
        check_layout(&[], &[(versioned, "0100000040e20100000000000300000001000000000000000a00000000000000640000000000000001000000000000001400000000000000c80000000000000002000000000000000500000000000000320000000000000001000000030000000000000007000000000000001e00000000000000280000000000000001000000000000000100000009000000000000005a000000000000000100000004000000000000000200000000000000040000000000000037000000000000003c00000000000000014600000000000000010000000000000000000000010000000200000000000000160000000000000000000000020000000500000000000000050000000000000001630000000000000005000000000000000600000000000000000000000000000000")]);
    }

    #[test]
    fn hostile_counts_are_rejected_without_allocation() {
        // A version count of u32::MAX with nothing behind it.
        let snapshot = (SNAPSHOT_VERSION, (0u64, u32::MAX)).to_bytes();
        assert_eq!(ShardSnapshot::decode(&snapshot), None);
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
