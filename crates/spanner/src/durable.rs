//! WAL records and snapshot codec for a durable shard.
//!
//! Under `Durability::Wal` a shard logs every durable state transition —
//! prepares, 2PC coordinator steps, decisions, safe-time advances — as one of
//! these records, and checkpoints serialize the full durable state through
//! the same helpers. Crash recovery replays snapshot + records; nothing else
//! survives. The encodings are hand-rolled little-endian (the vendored
//! `serde` is derive-only) via [`regular_storage::codec`].

use std::borrow::Cow;

use regular_core::types::{Key, Value};
use regular_sim::engine::NodeId;
use regular_storage::codec::{Dec, Enc};
use regular_storage::device::NodeDisk;
use regular_storage::wal::Wal;
use regular_storage::MemDisk;

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

const T_PREPARE_REC: u8 = 1;
const T_DECISION: u8 = 2;
const T_COORD_BEGIN: u8 = 3;
const T_COORD_VOTE: u8 = 4;
const T_COORD_TS: u8 = 5;
const T_SAFE_TIME: u8 = 6;

pub(crate) fn enc_txn(e: &mut Enc, txn: TxnId) {
    e.u64(txn.client as u64).u64(txn.seq);
}

pub(crate) fn dec_txn(d: &mut Dec) -> Option<TxnId> {
    Some(TxnId { client: d.u64()? as NodeId, seq: d.u64()? })
}

pub(crate) fn enc_writes(e: &mut Enc, writes: &[(Key, Value)]) {
    e.u32(writes.len() as u32);
    for (k, v) in writes {
        e.u64(k.0).u64(v.0);
    }
}

pub(crate) fn dec_writes(d: &mut Dec) -> Option<Vec<(Key, Value)>> {
    let n = d.u32()? as usize;
    let mut writes = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        writes.push((Key(d.u64()?), Value(d.u64()?)));
    }
    Some(writes)
}

impl ShardRecord {
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::with_capacity(128);
        self.encode_into(&mut e);
        e.finish()
    }

    /// Appends the record's encoding to `e` (what `Wal::append_with` frames
    /// in place).
    pub fn encode_into(&self, e: &mut Enc) {
        match self {
            ShardRecord::Prepare { txn, t_prepare, t_ee, coordinator, writes } => {
                e.u8(T_PREPARE_REC);
                enc_txn(e, *txn);
                e.u64(*t_prepare).u64(*t_ee).u64(*coordinator as u64);
                enc_writes(e, writes);
            }
            ShardRecord::Decision { txn, commit, t_commit } => {
                e.u8(T_DECISION);
                enc_txn(e, *txn);
                e.bool(*commit).u64(*t_commit);
            }
            ShardRecord::CoordBegin { txn, client, t_ee, writes_by_shard } => {
                e.u8(T_COORD_BEGIN);
                enc_txn(e, *txn);
                e.u64(*client as u64).u64(*t_ee);
                e.u32(writes_by_shard.len() as u32);
                for (node, writes) in writes_by_shard {
                    e.u64(*node as u64);
                    enc_writes(e, writes);
                }
            }
            ShardRecord::CoordVote { txn, shard, t_prepare } => {
                e.u8(T_COORD_VOTE);
                enc_txn(e, *txn);
                e.u64(*shard as u64).u64(*t_prepare);
            }
            ShardRecord::CoordTs { txn, t_commit, fire_at_us } => {
                e.u8(T_COORD_TS);
                enc_txn(e, *txn);
                e.u64(*t_commit).u64(*fire_at_us);
            }
            ShardRecord::SafeTime { ts } => {
                e.u8(T_SAFE_TIME);
                e.u64(*ts);
            }
        }
    }

    pub fn decode(bytes: &[u8]) -> Option<ShardRecord> {
        let mut d = Dec::new(bytes);
        let rec = match d.u8()? {
            T_PREPARE_REC => ShardRecord::Prepare {
                txn: dec_txn(&mut d)?,
                t_prepare: d.u64()?,
                t_ee: d.u64()?,
                coordinator: d.u64()? as NodeId,
                writes: dec_writes(&mut d)?,
            },
            T_DECISION => ShardRecord::Decision {
                txn: dec_txn(&mut d)?,
                commit: d.bool()?,
                t_commit: d.u64()?,
            },
            T_COORD_BEGIN => {
                let txn = dec_txn(&mut d)?;
                let client = d.u64()? as NodeId;
                let t_ee = d.u64()?;
                let n = d.u32()? as usize;
                let mut writes_by_shard = Vec::with_capacity(n.min(64));
                for _ in 0..n {
                    let node = d.u64()? as NodeId;
                    writes_by_shard.push((node, dec_writes(&mut d)?));
                }
                ShardRecord::CoordBegin { txn, client, t_ee, writes_by_shard }
            }
            T_COORD_VOTE => ShardRecord::CoordVote {
                txn: dec_txn(&mut d)?,
                shard: d.u64()? as NodeId,
                t_prepare: d.u64()?,
            },
            T_COORD_TS => ShardRecord::CoordTs {
                txn: dec_txn(&mut d)?,
                t_commit: d.u64()?,
                fire_at_us: d.u64()?,
            },
            T_SAFE_TIME => ShardRecord::SafeTime { ts: d.u64()? },
            _ => return None,
        };
        if !d.is_empty() {
            return None;
        }
        Some(rec)
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

/// The full durable state of a shard, as decoded from a checkpoint.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct ShardSnapshot {
    pub max_ts: Ts,
    pub versions: Vec<(Key, Ts, Value)>,
    pub prepared: Vec<SnapPrepared<'static>>,
    pub coordinating: Vec<SnapCoord<'static>>,
    pub decided: Vec<(TxnId, bool, Ts)>,
}

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
    e.u32(SNAPSHOT_VERSION);
    e.u64(max_ts);
    e.u32(chains.iter().map(|(_, chain)| chain.len()).sum::<usize>() as u32);
    for (key, chain) in chains {
        for (ts, value) in *chain {
            e.u64(key.0).u64(*ts).u64(value.0);
        }
    }
    e.u32(prepared.len() as u32);
    for p in prepared {
        enc_txn(e, p.txn);
        e.u64(p.t_prepare).u64(p.t_ee).u64(p.coordinator as u64);
        enc_writes(e, &p.writes);
    }
    e.u32(coordinating.len() as u32);
    for c in coordinating {
        enc_txn(e, c.txn);
        e.u64(c.client as u64).u64(c.t_ee).u64(c.max_prepare);
        match c.commit_fire_at_us {
            Some(at) => e.bool(true).u64(at),
            None => e.bool(false),
        };
        e.u32(c.writes_by_shard.len() as u32);
        for (node, writes) in c.writes_by_shard.iter() {
            e.u64(*node as u64);
            enc_writes(e, writes);
        }
        e.u32(c.awaiting.len() as u32);
        for node in &c.awaiting {
            e.u64(*node as u64);
        }
    }
    e.u32(decided.len() as u32);
    for (txn, commit, t_commit) in decided {
        enc_txn(e, *txn);
        e.bool(*commit).u64(*t_commit);
    }
}

impl ShardSnapshot {
    pub fn decode(bytes: &[u8]) -> Option<ShardSnapshot> {
        let mut d = Dec::new(bytes);
        if d.u32()? != SNAPSHOT_VERSION {
            return None;
        }
        let max_ts = d.u64()?;
        let n = d.u32()? as usize;
        let mut versions = Vec::with_capacity(n.min(65536));
        for _ in 0..n {
            versions.push((Key(d.u64()?), d.u64()?, Value(d.u64()?)));
        }
        let n = d.u32()? as usize;
        let mut prepared = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            prepared.push(SnapPrepared {
                txn: dec_txn(&mut d)?,
                t_prepare: d.u64()?,
                t_ee: d.u64()?,
                coordinator: d.u64()? as NodeId,
                writes: dec_writes(&mut d)?.into(),
            });
        }
        let n = d.u32()? as usize;
        let mut coordinating = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            let txn = dec_txn(&mut d)?;
            let client = d.u64()? as NodeId;
            let t_ee = d.u64()?;
            let max_prepare = d.u64()?;
            let commit_fire_at_us = if d.bool()? { Some(d.u64()?) } else { None };
            let shards = d.u32()? as usize;
            let mut writes_by_shard = Vec::with_capacity(shards.min(64));
            for _ in 0..shards {
                let node = d.u64()? as NodeId;
                writes_by_shard.push((node, dec_writes(&mut d)?));
            }
            let awaits = d.u32()? as usize;
            let mut awaiting = Vec::with_capacity(awaits.min(64));
            for _ in 0..awaits {
                awaiting.push(d.u64()? as NodeId);
            }
            coordinating.push(SnapCoord {
                txn,
                client,
                t_ee,
                max_prepare,
                commit_fire_at_us,
                writes_by_shard: writes_by_shard.into(),
                awaiting,
            });
        }
        let n = d.u32()? as usize;
        let mut decided = Vec::with_capacity(n.min(4096));
        for _ in 0..n {
            decided.push((dec_txn(&mut d)?, d.bool()?, d.u64()?));
        }
        Some(ShardSnapshot { max_ts, versions, prepared, coordinating, decided })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn txn(client: NodeId, seq: u64) -> TxnId {
        TxnId { client, seq }
    }

    /// One record of every variant.
    fn sample_records() -> Vec<ShardRecord> {
        vec![
            ShardRecord::Prepare {
                txn: txn(9, 4),
                t_prepare: 1000,
                t_ee: 2000,
                coordinator: 2,
                writes: vec![(Key(1), Value(10)), (Key(4), Value(40))],
            },
            ShardRecord::Decision { txn: txn(9, 4), commit: true, t_commit: 1500 },
            ShardRecord::Decision { txn: txn(9, 5), commit: false, t_commit: 0 },
            ShardRecord::CoordBegin {
                txn: txn(7, 1),
                client: 7,
                t_ee: 900,
                writes_by_shard: vec![(0, vec![(Key(3), Value(30))]), (1, vec![])],
            },
            ShardRecord::CoordVote { txn: txn(7, 1), shard: 1, t_prepare: 1200 },
            ShardRecord::CoordTs { txn: txn(7, 1), t_commit: 1400, fire_at_us: 5000 },
            ShardRecord::SafeTime { ts: 7777 },
        ]
    }

    #[test]
    fn records_round_trip() {
        for rec in sample_records() {
            let bytes = rec.encode();
            assert_eq!(ShardRecord::decode(&bytes), Some(rec.clone()), "round trip {rec:?}");
            // Truncations must decode to None, never panic.
            for cut in 0..bytes.len() {
                assert_eq!(ShardRecord::decode(&bytes[..cut]), None, "truncated {rec:?} at {cut}");
            }
        }
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
        let back = ShardSnapshot::decode(&bytes).expect("decode");
        assert_eq!(back.max_ts, snap.max_ts);
        assert_eq!(back.versions, snap.versions);
        assert_eq!(back.prepared.len(), 1);
        assert_eq!(back.prepared[0].writes, snap.prepared[0].writes);
        assert_eq!(back.coordinating.len(), 1);
        assert_eq!(back.coordinating[0].commit_fire_at_us, Some(70));
        assert_eq!(back.decided, snap.decided);
        assert_eq!(ShardSnapshot::decode(&bytes[..bytes.len() - 1]), None);
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
