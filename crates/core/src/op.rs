//! Operations: the invocations application processes issue on services.
//!
//! The paper's formal model covers both non-transactional services (reads,
//! writes, read-modify-writes on a key-value store; enqueues and dequeues on a
//! messaging service) and transactional services (read-only and read-write
//! transactions). [`OpKind`] captures all of them so a single history type can
//! describe executions against a composite service.

use regular_storage::wire_layout;

use crate::types::{Key, Value};

/// A key and the value written to or read from it.
type KeyValue = (Key, Value);

/// The kind (and arguments) of an operation.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Non-transactional read of a single key.
    Read { key: Key },
    /// Non-transactional write of a single key.
    Write { key: Key, value: Value },
    /// Atomic read-modify-write: writes `value` and returns the prior value.
    Rmw { key: Key, value: Value },
    /// Read-only transaction over a set of keys.
    RoTxn { keys: Vec<Key> },
    /// Read-write transaction: reads `read_keys`, then writes `writes`.
    RwTxn { read_keys: Vec<Key>, writes: Vec<(Key, Value)> },
    /// Enqueue a value onto a FIFO queue (messaging service).
    Enqueue { queue: Key, value: Value },
    /// Dequeue the head of a FIFO queue; returns [`Value::NULL`] when empty.
    Dequeue { queue: Key },
    /// A real-time fence (Section 4.1); has no return value.
    Fence,
}

/// The result carried by an operation's response.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum OpResult {
    /// A single value: `Read` and `Dequeue` results, or the *prior* value for `Rmw`.
    Value(Value),
    /// Per-key values read by a transaction (`RoTxn` and `RwTxn`).
    Values(Vec<(Key, Value)>),
    /// Acknowledgement with no data (`Write`, `Enqueue`, `Fence`).
    Ack,
}

wire_layout! {
    enum OpKind {
        0 => Read { key },
        1 => Write { key, value },
        2 => Rmw { key, value },
        3 => RoTxn { keys },
        4 => RwTxn { read_keys, writes },
        5 => Enqueue { queue, value },
        6 => Dequeue { queue },
        7 => Fence,
    }
}

wire_layout! {
    enum OpResult {
        0 => Value(value),
        1 => Values(values),
        2 => Ack,
    }
}

impl OpKind {
    /// True if the operation mutates service state (is a "write" in the sense
    /// of the RSS/RSC definitions' set `W`).
    pub fn is_mutating(&self) -> bool {
        matches!(
            self,
            OpKind::Write { .. }
                | OpKind::Rmw { .. }
                | OpKind::RwTxn { .. }
                | OpKind::Enqueue { .. }
        )
    }

    /// True if the operation is purely read-only (a candidate member of a
    /// conflict set `C(w)`).
    pub fn is_read_only(&self) -> bool {
        matches!(self, OpKind::Read { .. } | OpKind::RoTxn { .. } | OpKind::Dequeue { .. })
    }

    /// True if the operation is transactional (RSS rather than RSC territory).
    pub fn is_transactional(&self) -> bool {
        matches!(self, OpKind::RoTxn { .. } | OpKind::RwTxn { .. })
    }

    /// True if this is a real-time fence.
    pub fn is_fence(&self) -> bool {
        matches!(self, OpKind::Fence)
    }

    /// Keys written by this operation (for queues, the queue key).
    pub fn written_keys_iter(&self) -> impl Iterator<Item = Key> + '_ {
        self.written_values_iter().map(|(k, _)| k)
    }

    /// The values this operation writes, as `(key, value)` pairs (for
    /// queues, the queue key and the enqueued value).
    pub fn written_values_iter(&self) -> impl Iterator<Item = (Key, Value)> + '_ {
        let (one, many): (Option<KeyValue>, &[KeyValue]) = match self {
            OpKind::Write { key, value } | OpKind::Rmw { key, value } => {
                (Some((*key, *value)), &[])
            }
            OpKind::RwTxn { writes, .. } => (None, writes),
            OpKind::Enqueue { queue, value } => (Some((*queue, *value)), &[]),
            _ => (None, &[]),
        };
        one.into_iter().chain(many.iter().copied())
    }

    /// Keys read by this operation (for dequeues, the queue key). `Rmw` and
    /// `RwTxn` read as well as write.
    pub fn read_keys_iter(&self) -> impl Iterator<Item = Key> + '_ {
        let (one, many): (Option<Key>, &[Key]) = match self {
            OpKind::Read { key } | OpKind::Rmw { key, .. } => (Some(*key), &[]),
            OpKind::RoTxn { keys } => (None, keys),
            OpKind::RwTxn { read_keys, .. } => (None, read_keys),
            OpKind::Dequeue { queue } => (Some(*queue), &[]),
            _ => (None, &[]),
        };
        one.into_iter().chain(many.iter().copied())
    }

    /// Every key accessed: the read keys, then the written ones (a key both
    /// read and written appears twice).
    pub fn accessed_keys_iter(&self) -> impl Iterator<Item = Key> + '_ {
        self.read_keys_iter().chain(self.written_keys_iter())
    }
}

impl OpResult {
    /// The value read for `key`, if this result contains one.
    pub fn value_for(&self, key: Key, kind: &OpKind) -> Option<Value> {
        match self {
            OpResult::Value(v) => match kind {
                OpKind::Read { key: k }
                | OpKind::Rmw { key: k, .. }
                | OpKind::Dequeue { queue: k } => {
                    if *k == key {
                        Some(*v)
                    } else {
                        None
                    }
                }
                _ => None,
            },
            OpResult::Values(vs) => vs.iter().find(|(k, _)| *k == key).map(|(_, v)| *v),
            OpResult::Ack => None,
        }
    }

    /// All `(key, value)` pairs observed by this result of a `kind` op.
    pub fn observed_iter(&self, kind: &OpKind) -> impl Iterator<Item = (Key, Value)> + '_ {
        let (one, many): (Option<KeyValue>, &[KeyValue]) = match self {
            OpResult::Value(v) => match kind {
                OpKind::Read { key } | OpKind::Rmw { key, .. } | OpKind::Dequeue { queue: key } => {
                    (Some((*key, *v)), &[])
                }
                _ => (None, &[]),
            },
            OpResult::Values(vs) => (None, vs),
            OpResult::Ack => (None, &[]),
        };
        one.into_iter().chain(many.iter().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use regular_storage::codec::check_layout;

    #[test]
    fn every_variant_keeps_its_bytes() {
        check_layout(
            OpKind::TAGS,
            &[
                (OpKind::Read { key: Key(1) }, "000100000000000000"),
                (
                    OpKind::Write { key: Key(2), value: Value(3) },
                    "0102000000000000000300000000000000",
                ),
                (
                    OpKind::Rmw { key: Key(4), value: Value(5) },
                    "0204000000000000000500000000000000",
                ),
                (
                    OpKind::RoTxn { keys: vec![Key(6), Key(7)] },
                    "030200000006000000000000000700000000000000",
                ),
                (
                    OpKind::RwTxn { read_keys: vec![Key(1)], writes: vec![(Key(2), Value(3))] },
                    "040100000001000000000000000100000002000000000000000300000000000000",
                ),
                (
                    OpKind::Enqueue { queue: Key(8), value: Value(9) },
                    "0508000000000000000900000000000000",
                ),
                (OpKind::Dequeue { queue: Key(8) }, "060800000000000000"),
                (OpKind::Fence, "07"),
            ],
        );
        check_layout(
            OpResult::TAGS,
            &[
                (OpResult::Value(Value(9)), "000900000000000000"),
                (
                    OpResult::Values(vec![(Key(1), Value(9)), (Key(2), Value::NULL)]),
                    "01020000000100000000000000090000000000000002000000000000000000000000000000",
                ),
                (OpResult::Ack, "02"),
            ],
        );
    }

    fn rw(reads: &[u64], writes: &[(u64, u64)]) -> OpKind {
        OpKind::RwTxn {
            read_keys: reads.iter().map(|&k| Key(k)).collect(),
            writes: writes.iter().map(|&(k, v)| (Key(k), Value(v))).collect(),
        }
    }

    #[test]
    fn mutating_classification() {
        assert!(OpKind::Write { key: Key(1), value: Value(2) }.is_mutating());
        assert!(OpKind::Rmw { key: Key(1), value: Value(2) }.is_mutating());
        assert!(rw(&[1], &[(2, 3)]).is_mutating());
        assert!(OpKind::Enqueue { queue: Key(1), value: Value(2) }.is_mutating());
        assert!(!OpKind::Read { key: Key(1) }.is_mutating());
        assert!(!OpKind::RoTxn { keys: vec![Key(1)] }.is_mutating());
        assert!(!OpKind::Dequeue { queue: Key(1) }.is_mutating());
        assert!(!OpKind::Fence.is_mutating());
    }

    #[test]
    fn read_only_classification() {
        assert!(OpKind::Read { key: Key(1) }.is_read_only());
        assert!(OpKind::RoTxn { keys: vec![Key(1)] }.is_read_only());
        assert!(OpKind::Dequeue { queue: Key(1) }.is_read_only());
        assert!(!OpKind::Write { key: Key(1), value: Value(2) }.is_read_only());
        assert!(!OpKind::Fence.is_read_only());
    }

    #[test]
    fn transactional_classification() {
        assert!(OpKind::RoTxn { keys: vec![] }.is_transactional());
        assert!(rw(&[], &[]).is_transactional());
        assert!(!OpKind::Read { key: Key(1) }.is_transactional());
        assert!(OpKind::Fence.is_fence());
    }

    #[test]
    fn key_sets() {
        let op = rw(&[1, 2], &[(2, 9), (3, 9)]);
        assert_eq!(op.read_keys_iter().collect::<Vec<_>>(), [Key(1), Key(2)]);
        assert_eq!(op.written_keys_iter().collect::<Vec<_>>(), [Key(2), Key(3)]);
        assert_eq!(op.accessed_keys_iter().collect::<Vec<_>>(), [1, 2, 2, 3].map(Key));
        assert_eq!(
            op.written_values_iter().collect::<Vec<_>>(),
            [(Key(2), Value(9)), (Key(3), Value(9))]
        );
    }

    #[test]
    fn rmw_reads_and_writes() {
        let op = OpKind::Rmw { key: Key(4), value: Value(10) };
        assert_eq!(op.read_keys_iter().collect::<Vec<_>>(), [Key(4)]);
        assert_eq!(op.written_values_iter().collect::<Vec<_>>(), [(Key(4), Value(10))]);
    }

    #[test]
    fn key_iterators_agree_with_the_vec_visitors() {
        // What the deleted `Vec` visitors (`read_keys`, `written_keys`,
        // `written_values`, `accessed_keys`) returned, variant by variant.
        let (key, queue, value) = (Key(1), Key(2), Value(3));
        let cases: [(OpKind, &[Key], &[KeyValue]); 8] = [
            (OpKind::Read { key }, &[key], &[]),
            (OpKind::Write { key, value }, &[], &[(key, value)]),
            (OpKind::Rmw { key, value }, &[key], &[(key, value)]),
            (OpKind::RoTxn { keys: vec![Key(4), Key(5)] }, &[Key(4), Key(5)], &[]),
            (
                rw(&[1, 2], &[(2, 9), (3, 9)]),
                &[Key(1), Key(2)],
                &[(Key(2), Value(9)), (Key(3), Value(9))],
            ),
            (OpKind::Enqueue { queue, value }, &[], &[(queue, value)]),
            (OpKind::Dequeue { queue }, &[queue], &[]),
            (OpKind::Fence, &[], &[]),
        ];
        for (kind, reads, writes) in cases {
            assert_eq!(kind.read_keys_iter().collect::<Vec<_>>(), reads, "{kind:?}");
            assert_eq!(kind.written_values_iter().collect::<Vec<_>>(), writes, "{kind:?}");
            let written: Vec<Key> = writes.iter().map(|(k, _)| *k).collect();
            assert_eq!(kind.written_keys_iter().collect::<Vec<_>>(), written, "{kind:?}");
            let accessed: Vec<Key> = reads.iter().copied().chain(written).collect();
            assert_eq!(kind.accessed_keys_iter().collect::<Vec<_>>(), accessed, "{kind:?}");
        }
    }

    #[test]
    fn result_lookup() {
        let kind = OpKind::RoTxn { keys: vec![Key(1), Key(2)] };
        let res = OpResult::Values(vec![(Key(1), Value(7)), (Key(2), Value::NULL)]);
        assert_eq!(res.value_for(Key(1), &kind), Some(Value(7)));
        assert_eq!(res.value_for(Key(2), &kind), Some(Value::NULL));
        assert_eq!(res.value_for(Key(3), &kind), None);
        assert_eq!(res.observed_iter(&kind).count(), 2);

        let kind = OpKind::Read { key: Key(9) };
        let res = OpResult::Value(Value(3));
        assert_eq!(res.value_for(Key(9), &kind), Some(Value(3)));
        assert_eq!(res.value_for(Key(8), &kind), None);
        assert_eq!(OpResult::Ack.value_for(Key(9), &kind), None);
        assert_eq!(OpResult::Ack.observed_iter(&kind).count(), 0);
        let dequeue = OpKind::Dequeue { queue: Key(4) };
        let observed: Vec<_> = OpResult::Value(Value(6)).observed_iter(&dequeue).collect();
        assert_eq!(observed, [(Key(4), Value(6))]);
        assert_eq!(OpResult::Value(Value(6)).observed_iter(&OpKind::Fence).count(), 0);
    }
}
