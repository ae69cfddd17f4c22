//! WAL records and checkpoint snapshots for a durable Gryff replica.
//!
//! Under `Durability::Wal` a replica logs every durable state transition —
//! register applies, rmw coordination steps — and a checkpoint serializes
//! the full durable state as its whole part, with an empty chunk. A
//! register is overwritten in place, so the state is bounded by the key
//! space, while a chain of its overwrites would grow with the run. (A
//! Spanner shard's store only grows, which is why it checkpoints in chunks;
//! see `regular_storage::wal`, "On-device layout".) Crash recovery replays
//! the whole part + records; nothing else survives. The byte layouts are
//! declared with [`regular_storage::codec`]'s `wire_layout!`.

use regular_core::types::{Key, Value};
use regular_sim::engine::NodeId;
use regular_storage::codec::{Enc, Wire};
use regular_storage::device::NodeDisk;
use regular_storage::wal::{refuse, RecoveredLog, Wal};
use regular_storage::{wire_layout, MemDisk};

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

wire_layout! {
    enum GryffRecord {
        1 => Apply { key, value, cs },
        2 => RmwBegin { internal, client, client_op, key, new_value },
        3 => RmwChosen { internal, old_value, cs },
        4 => RmwFinish { internal, client_op, key, old_value, cs },
    }
}

impl GryffRecord {
    /// The record's bytes, as `Wal::append` takes them. (The replica itself
    /// frames in place: `wal.append_with(now, |e| rec.encode_into(e))`.)
    pub fn encode(&self) -> Vec<u8> {
        self.to_bytes()
    }

    pub fn decode(bytes: &[u8]) -> Option<GryffRecord> {
        Self::from_bytes(bytes)
    }
}

/// Offline reconstruction of a replica's registers from its device — the
/// differential anchor durability tests pin against the live replica's final
/// state. Replays the checkpoint snapshot, then every surviving `Apply`
/// record under the write-if-newer rule.
pub fn replay_registers(disk: MemDisk) -> Vec<(Key, Value, Carstamp)> {
    let log = Wal::read_log(&mut NodeDisk::Mem(disk));
    let (snapshot, records) = decode_log("a gryff replica's device (offline replay)", log);
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
    for (key, value, cs) in snapshot.into_iter().flat_map(|snap| snap.store) {
        apply(key, value, cs);
    }
    for rec in records {
        if let GryffRecord::Apply { key, value, cs } = rec {
            apply(key, value, cs);
        }
    }
    registers.sort_unstable_by_key(|(k, _, _)| k.0);
    registers
}

/// Decodes what a recovery scan read ([`RecoveredLog::decode`]): the
/// snapshot, then the log tail. A replica writes no chunks, so a chain
/// stops `node`'s recovery like any part that does not decode.
pub(crate) fn decode_log(
    node: &str,
    log: RecoveredLog,
) -> (Option<GryffSnapshot>, Vec<GryffRecord>) {
    if !log.chunks.is_empty() {
        let what =
            format!("a chain of {} chunk(s), which a replica never writes,", log.chunks.len());
        refuse(node, &what);
    }
    // The chunk type is never decoded: the chain is empty.
    let (_, snapshot, records) = log.decode::<u8, _, _>(node, SNAPSHOT_VERSION);
    (snapshot, records)
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

wire_layout! {
    struct SnapRmw {
        internal, client, client_op, key, new_value, phase, max_value, max_cs, chosen,
    }
}

/// The full durable state of a replica at checkpoint time.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct GryffSnapshot {
    pub store: Vec<(Key, Value, Carstamp)>,
    pub rmws: Vec<SnapRmw>,
    pub next_internal: u64,
    pub finished: Vec<(OpRef, Value, Carstamp)>,
}

wire_layout! { struct GryffSnapshot { store, rmws, next_internal, finished } }

/// Leads every snapshot; one with any other version is not decoded.
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
    e.u32(SNAPSHOT_VERSION).slice(store).slice(rmws).u64(next_internal).slice(finished);
}

#[cfg(test)]
mod tests {
    use super::*;
    use regular_storage::codec::check_layout;

    impl GryffSnapshot {
        fn decode(bytes: &[u8]) -> Option<GryffSnapshot> {
            let (version, snapshot) = <(u32, GryffSnapshot)>::from_bytes(bytes)?;
            (version == SNAPSHOT_VERSION).then_some(snapshot)
        }
    }

    fn cs(count: u64, writer: u64, rmwc: u64) -> Carstamp {
        Carstamp { count, writer, rmwc }
    }

    /// Records of every variant, each with the bytes it has always had.
    fn samples() -> Vec<(GryffRecord, &'static str)> {
        vec![
            (GryffRecord::Apply { key: Key(3), value: Value(30), cs: cs(2, 1, 0) }, "0103000000000000001e00000000000000020000000000000001000000000000000000000000000000"),
            (
                GryffRecord::RmwBegin {
                    internal: 7,
                    client: 9,
                    client_op: OpRef { node: 9, seq: 4 },
                    key: Key(3),
                    new_value: Value(31),
                },
                "02070000000000000009000000000000000900000000000000040000000000000003000000000000001f00000000000000",
            ),
            (GryffRecord::RmwChosen { internal: 7, old_value: Value(30), cs: cs(2, 1, 1) }, "0307000000000000001e00000000000000020000000000000001000000000000000100000000000000"),
            (
                GryffRecord::RmwFinish {
                    internal: 7,
                    client_op: OpRef { node: 9, seq: 4 },
                    key: Key(3),
                    old_value: Value(30),
                    cs: cs(2, 1, 1),
                },
                "0407000000000000000900000000000000040000000000000003000000000000001e00000000000000020000000000000001000000000000000100000000000000",
            ),
        ]
    }

    fn sample_records() -> Vec<GryffRecord> {
        samples().into_iter().map(|(rec, _)| rec).collect()
    }

    #[test]
    fn every_variant_keeps_its_bytes() {
        check_layout(GryffRecord::TAGS, &samples());
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
        // The streaming encoder and the declared layout write the same bytes,
        // the ones snapshots have always had.
        assert_eq!(GryffSnapshot::decode(&bytes).as_ref(), Some(&snap));
        let versioned = (SNAPSHOT_VERSION, snap);
        assert_eq!(bytes, versioned.to_bytes());
        check_layout(&[], &[(versioned, "010000000200000001000000000000000a000000000000000300000000000000020000000000000000000000000000000200000000000000140000000000000001000000000000000000000000000000040000000000000001000000050000000000000008000000000000000800000000000000020000000000000001000000000000000b00000000000000010a00000000000000030000000000000002000000000000000000000000000000030000000000000002000000000000000100000000000000060000000000000001000000080000000000000001000000000000000900000000000000030000000000000002000000000000000000000000000000")]);
    }

    #[test]
    fn hostile_counts_are_rejected_without_allocation() {
        // A register count of u32::MAX with nothing behind it.
        let snapshot = (SNAPSHOT_VERSION, u32::MAX).to_bytes();
        assert_eq!(GryffSnapshot::decode(&snapshot), None);
    }

    #[test]
    #[should_panic(
        expected = "gryff-replica-0: the whole part, snapshot version 2 (this build reads 1)"
    )]
    fn recovering_a_snapshot_of_an_unknown_version_stops_the_replica() {
        use regular_storage::{Durability, StorageRegistry, WalOptions};
        let registry = StorageRegistry::new();
        let opts = WalOptions::mem(registry);
        let (mut wal, _) = Wal::open(&opts, "gryff-replica-0");
        // An empty replica's snapshot, as a version 2 would lead it.
        let mut e = Enc::new();
        e.u32(2).u32(0).u32(0).u64(0).u32(0);
        assert!(wal.checkpoint(e.as_slice()));
        let config = crate::config::GryffConfig::wan(crate::config::Mode::GryffRsc)
            .with_durability(Durability::Wal(opts));
        let _ = crate::replica::GryffReplica::new(&config, 0);
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
