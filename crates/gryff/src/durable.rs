//! WAL records and snapshot codec for a durable Gryff replica.
//!
//! Under `Durability::Wal` a replica logs every durable state transition —
//! register applies, rmw coordination steps — and checkpoints serialize the
//! full durable state through the same helpers. Crash recovery replays
//! snapshot + records; nothing else survives. Encodings are hand-rolled
//! little-endian (the vendored `serde` is derive-only) via
//! [`regular_storage::codec`].

use regular_core::types::{Key, Value};
use regular_sim::engine::NodeId;
use regular_storage::codec::{Dec, Enc};
use regular_storage::device::NodeDisk;
use regular_storage::wal::Wal;
use regular_storage::MemDisk;

use crate::carstamp::Carstamp;
use crate::messages::OpRef;

/// One durable state transition at a replica.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GryffRecord {
    /// A register advanced to `(value, cs)` (write-if-newer already held).
    Apply { key: Key, value: Value, cs: Carstamp },
    /// This replica started coordinating a read-modify-write.
    RmwBegin { internal: u64, client: NodeId, client_op: OpRef, key: Key, new_value: Value },
    /// The read phase completed: the base value and the chosen carstamp are
    /// fixed. Recovery must resume in the write phase with the same
    /// carstamp — re-running the read phase after some replicas already
    /// applied `Write2` could install the rmw twice at different positions.
    RmwChosen { internal: u64, old_value: Value, cs: Carstamp },
    /// The write quorum completed: the rmw is decided and enters the
    /// at-most-once table.
    RmwFinish { internal: u64, client_op: OpRef, key: Key, old_value: Value, cs: Carstamp },
}

const T_APPLY: u8 = 1;
const T_RMW_BEGIN: u8 = 2;
const T_RMW_CHOSEN: u8 = 3;
const T_RMW_FINISH: u8 = 4;

fn enc_cs(e: &mut Enc, cs: Carstamp) {
    e.u64(cs.count).u64(cs.writer).u64(cs.rmwc);
}

fn dec_cs(d: &mut Dec) -> Option<Carstamp> {
    Some(Carstamp { count: d.u64()?, writer: d.u64()?, rmwc: d.u64()? })
}

fn enc_op(e: &mut Enc, op: OpRef) {
    e.u64(op.node as u64).u64(op.seq);
}

fn dec_op(d: &mut Dec) -> Option<OpRef> {
    Some(OpRef { node: d.u64()? as NodeId, seq: d.u64()? })
}

impl GryffRecord {
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::with_capacity(128);
        self.encode_into(&mut e);
        e.finish()
    }

    /// Appends the record's encoding to `e` (what `Wal::append_with` frames
    /// in place).
    pub fn encode_into(&self, e: &mut Enc) {
        match self {
            GryffRecord::Apply { key, value, cs } => {
                e.u8(T_APPLY);
                e.u64(key.0).u64(value.0);
                enc_cs(e, *cs);
            }
            GryffRecord::RmwBegin { internal, client, client_op, key, new_value } => {
                e.u8(T_RMW_BEGIN);
                e.u64(*internal).u64(*client as u64);
                enc_op(e, *client_op);
                e.u64(key.0).u64(new_value.0);
            }
            GryffRecord::RmwChosen { internal, old_value, cs } => {
                e.u8(T_RMW_CHOSEN);
                e.u64(*internal).u64(old_value.0);
                enc_cs(e, *cs);
            }
            GryffRecord::RmwFinish { internal, client_op, key, old_value, cs } => {
                e.u8(T_RMW_FINISH);
                e.u64(*internal);
                enc_op(e, *client_op);
                e.u64(key.0).u64(old_value.0);
                enc_cs(e, *cs);
            }
        }
    }

    pub fn decode(bytes: &[u8]) -> Option<GryffRecord> {
        let mut d = Dec::new(bytes);
        let rec = match d.u8()? {
            T_APPLY => GryffRecord::Apply {
                key: Key(d.u64()?),
                value: Value(d.u64()?),
                cs: dec_cs(&mut d)?,
            },
            T_RMW_BEGIN => GryffRecord::RmwBegin {
                internal: d.u64()?,
                client: d.u64()? as NodeId,
                client_op: dec_op(&mut d)?,
                key: Key(d.u64()?),
                new_value: Value(d.u64()?),
            },
            T_RMW_CHOSEN => GryffRecord::RmwChosen {
                internal: d.u64()?,
                old_value: Value(d.u64()?),
                cs: dec_cs(&mut d)?,
            },
            T_RMW_FINISH => GryffRecord::RmwFinish {
                internal: d.u64()?,
                client_op: dec_op(&mut d)?,
                key: Key(d.u64()?),
                old_value: Value(d.u64()?),
                cs: dec_cs(&mut d)?,
            },
            _ => return None,
        };
        if !d.is_empty() {
            return None;
        }
        Some(rec)
    }
}

/// Offline reconstruction of a replica's registers from its device — the
/// differential anchor durability tests pin against the live replica's final
/// state. Replays the checkpoint snapshot, then every surviving `Apply`
/// record under the write-if-newer rule.
pub fn replay_registers(disk: MemDisk) -> Vec<(Key, Value, Carstamp)> {
    let mut node_disk = NodeDisk::Mem(disk);
    let log = Wal::read_log(&mut node_disk);
    let mut registers: Vec<(Key, Value, Carstamp)> = Vec::new();
    let mut apply = |key: Key, value: Value, cs: Carstamp| match registers
        .iter_mut()
        .find(|(k, _, _)| *k == key)
    {
        Some(slot) => {
            if cs > slot.2 {
                slot.1 = value;
                slot.2 = cs;
            }
        }
        None => registers.push((key, value, cs)),
    };
    if let Some(snapshot) = &log.snapshot {
        if let Some(snap) = GryffSnapshot::decode(snapshot) {
            for (key, value, cs) in snap.store {
                apply(key, value, cs);
            }
        }
    }
    for bytes in &log.records {
        if let Some(GryffRecord::Apply { key, value, cs }) = GryffRecord::decode(bytes) {
            apply(key, value, cs);
        }
    }
    registers.sort_unstable_by_key(|(k, _, _)| k.0);
    registers
}

/// An in-flight rmw coordination as serialized into a checkpoint snapshot.
/// The `replied` set is volatile (recovery re-collects a quorum by
/// re-driving the round) and is not stored.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct SnapRmw {
    pub internal: u64,
    pub client: NodeId,
    pub client_op: OpRef,
    pub key: Key,
    pub new_value: Value,
    /// 0 = read phase, 1 = write phase.
    pub phase: u8,
    pub max_value: Value,
    pub max_cs: Carstamp,
    pub chosen: Carstamp,
}

/// The full durable state of a replica at checkpoint time.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct GryffSnapshot {
    pub store: Vec<(Key, Value, Carstamp)>,
    pub rmws: Vec<SnapRmw>,
    pub next_internal: u64,
    pub finished: Vec<(OpRef, Value, Carstamp)>,
}

const SNAPSHOT_VERSION: u32 = 1;

/// Streams a checkpoint snapshot into `e`. Every slice arrives in its
/// canonical order (keys, internal ids, client operations ascending), which
/// makes the bytes a function of the state alone.
pub(crate) fn encode_snapshot(
    e: &mut Enc,
    store: &[(Key, Value, Carstamp)],
    rmws: &[SnapRmw],
    next_internal: u64,
    finished: &[(OpRef, Value, Carstamp)],
) {
    e.u32(SNAPSHOT_VERSION);
    e.u32(store.len() as u32);
    for (key, value, cs) in store {
        e.u64(key.0).u64(value.0);
        enc_cs(e, *cs);
    }
    e.u32(rmws.len() as u32);
    for r in rmws {
        e.u64(r.internal).u64(r.client as u64);
        enc_op(e, r.client_op);
        e.u64(r.key.0).u64(r.new_value.0).u8(r.phase).u64(r.max_value.0);
        enc_cs(e, r.max_cs);
        enc_cs(e, r.chosen);
    }
    e.u64(next_internal);
    e.u32(finished.len() as u32);
    for (op, value, cs) in finished {
        enc_op(e, *op);
        e.u64(value.0);
        enc_cs(e, *cs);
    }
}

impl GryffSnapshot {
    pub fn decode(bytes: &[u8]) -> Option<GryffSnapshot> {
        let mut d = Dec::new(bytes);
        if d.u32()? != SNAPSHOT_VERSION {
            return None;
        }
        let n = d.u32()? as usize;
        let mut store = Vec::with_capacity(n.min(65536));
        for _ in 0..n {
            store.push((Key(d.u64()?), Value(d.u64()?), dec_cs(&mut d)?));
        }
        let n = d.u32()? as usize;
        let mut rmws = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            rmws.push(SnapRmw {
                internal: d.u64()?,
                client: d.u64()? as NodeId,
                client_op: dec_op(&mut d)?,
                key: Key(d.u64()?),
                new_value: Value(d.u64()?),
                phase: d.u8()?,
                max_value: Value(d.u64()?),
                max_cs: dec_cs(&mut d)?,
                chosen: dec_cs(&mut d)?,
            });
        }
        let next_internal = d.u64()?;
        let n = d.u32()? as usize;
        let mut finished = Vec::with_capacity(n.min(4096));
        for _ in 0..n {
            finished.push((dec_op(&mut d)?, Value(d.u64()?), dec_cs(&mut d)?));
        }
        Some(GryffSnapshot { store, rmws, next_internal, finished })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cs(count: u64, writer: u64, rmwc: u64) -> Carstamp {
        Carstamp { count, writer, rmwc }
    }

    /// One record of every variant.
    fn sample_records() -> Vec<GryffRecord> {
        vec![
            GryffRecord::Apply { key: Key(3), value: Value(30), cs: cs(2, 1, 0) },
            GryffRecord::RmwBegin {
                internal: 7,
                client: 9,
                client_op: OpRef { node: 9, seq: 4 },
                key: Key(3),
                new_value: Value(31),
            },
            GryffRecord::RmwChosen { internal: 7, old_value: Value(30), cs: cs(2, 1, 1) },
            GryffRecord::RmwFinish {
                internal: 7,
                client_op: OpRef { node: 9, seq: 4 },
                key: Key(3),
                old_value: Value(30),
                cs: cs(2, 1, 1),
            },
        ]
    }

    #[test]
    fn records_round_trip() {
        for rec in sample_records() {
            let bytes = rec.encode();
            assert_eq!(GryffRecord::decode(&bytes), Some(rec.clone()), "round trip {rec:?}");
            for cut in 0..bytes.len() {
                assert_eq!(GryffRecord::decode(&bytes[..cut]), None, "truncated {rec:?} at {cut}");
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
        let snap = GryffSnapshot {
            store: vec![(Key(1), Value(10), cs(3, 2, 0)), (Key(2), Value(20), cs(1, 0, 4))],
            rmws: vec![SnapRmw {
                internal: 5,
                client: 8,
                client_op: OpRef { node: 8, seq: 2 },
                key: Key(1),
                new_value: Value(11),
                phase: 1,
                max_value: Value(10),
                max_cs: cs(3, 2, 0),
                chosen: cs(3, 2, 1),
            }],
            next_internal: 6,
            finished: vec![(OpRef { node: 8, seq: 1 }, Value(9), cs(3, 2, 0))],
        };
        let mut e = Enc::new();
        encode_snapshot(&mut e, &snap.store, &snap.rmws, snap.next_internal, &snap.finished);
        let bytes = e.finish();
        let back = GryffSnapshot::decode(&bytes).expect("decode");
        assert_eq!(back, snap);
        assert_eq!(GryffSnapshot::decode(&bytes[..bytes.len() - 1]), None);
    }

    #[test]
    fn offline_replay_applies_write_if_newer() {
        use regular_storage::{StorageRegistry, WalOptions};
        let registry = StorageRegistry::new();
        let (mut wal, _) = Wal::open(&WalOptions::mem(registry.clone()), "replica-x");
        wal.append(
            &GryffRecord::Apply { key: Key(1), value: Value(10), cs: cs(2, 0, 0) }.encode(),
            0,
        );
        // An older carstamp arriving later must not win.
        wal.append(
            &GryffRecord::Apply { key: Key(1), value: Value(5), cs: cs(1, 9, 0) }.encode(),
            0,
        );
        wal.append(
            &GryffRecord::Apply { key: Key(2), value: Value(20), cs: cs(1, 1, 0) }.encode(),
            0,
        );
        wal.sync();
        let regs = replay_registers(registry.disk("replica-x"));
        assert_eq!(regs, vec![(Key(1), Value(10), cs(2, 0, 0)), (Key(2), Value(20), cs(1, 1, 0))]);
    }
}
