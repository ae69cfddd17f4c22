//! Sequential specifications and sequence replay.
//!
//! A service's *specification* (Section 3.2) is the set of correct sequential
//! behaviours. For the services used throughout the paper and this repository
//! it is:
//!
//! * **Key-value store** (transactional or not): a read returns the value of
//!   the most recent preceding write to the same key, or null if none.
//!   Read-modify-writes return the prior value and install the new one.
//!   Read-write transactions read and then atomically write.
//! * **FIFO messaging service**: dequeues return enqueued values in order,
//!   or null when the queue is empty.
//!
//! A composite service is the interleaving of its constituents' specifications:
//! each operation targets exactly one service, so replaying a sequence simply
//! keeps separate state per [`ServiceId`].

use std::collections::VecDeque;

use crate::hashing::FxHashMap;
use crate::history::History;
use crate::op::{OpKind, OpResult};
use crate::types::{Key, OpId, ServiceId, Value};

/// A violation found while replaying a candidate sequence against the spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecViolation {
    /// The operation whose recorded result disagrees with the replay.
    pub op: OpId,
    /// What the sequential replay would have returned.
    pub expected: OpResult,
    /// What the history recorded.
    pub actual: OpResult,
}

/// In-memory sequential state of a composite service.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpecState {
    // Fx, not SipHash: every replayed op probes `kv`, and no iteration
    // order reaches output (`fingerprint` sorts).
    kv: FxHashMap<(ServiceId, Key), Value>,
    queues: FxHashMap<(ServiceId, Key), VecDeque<Value>>,
}

impl SpecState {
    /// Creates the empty (initial) state: every key absent, every queue empty.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reads the current value of a key (null if absent).
    pub fn get(&self, service: ServiceId, key: Key) -> Value {
        self.kv.get(&(service, key)).copied().unwrap_or(Value::NULL)
    }

    /// A deterministic fingerprint of the state, used by the search checker to
    /// prune repeated (scheduled-set, state) pairs. Equal states always hash
    /// equal; collisions between different states only cost extra pruning of
    /// work that would have failed anyway, because the fingerprint is always
    /// combined with the exact scheduled-set mask.
    pub fn fingerprint(&self) -> u64 {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let mut kv: Vec<(u32, u64, u64)> =
            self.kv.iter().map(|(&(s, k), &v)| (s.0, k.0, v.0)).collect();
        kv.sort_unstable();
        let mut queues: Vec<(u32, u64, Vec<u64>)> = self
            .queues
            .iter()
            .map(|(&(s, k), q)| (s.0, k.0, q.iter().map(|v| v.0).collect()))
            .collect();
        queues.sort_unstable();
        let mut hasher = DefaultHasher::new();
        kv.hash(&mut hasher);
        queues.hash(&mut hasher);
        hasher.finish()
    }

    /// Applies `kind` to the state, returning the result the operation would
    /// produce in a sequential execution.
    pub fn apply(&mut self, service: ServiceId, kind: &OpKind) -> OpResult {
        match kind {
            OpKind::Read { key } => OpResult::Value(self.get(service, *key)),
            OpKind::Write { key, value } => {
                self.kv.insert((service, *key), *value);
                OpResult::Ack
            }
            OpKind::Rmw { key, value } => {
                let prior = self.get(service, *key);
                self.kv.insert((service, *key), *value);
                OpResult::Value(prior)
            }
            OpKind::RoTxn { keys } => {
                OpResult::Values(keys.iter().map(|k| (*k, self.get(service, *k))).collect())
            }
            OpKind::RwTxn { read_keys, writes } => {
                let reads = read_keys.iter().map(|k| (*k, self.get(service, *k))).collect();
                for (k, v) in writes {
                    self.kv.insert((service, *k), *v);
                }
                OpResult::Values(reads)
            }
            OpKind::Enqueue { queue, value } => {
                self.queues.entry((service, *queue)).or_default().push_back(*value);
                OpResult::Ack
            }
            OpKind::Dequeue { queue } => {
                let v = self
                    .queues
                    .get_mut(&(service, *queue))
                    .and_then(|q| q.pop_front())
                    .unwrap_or(Value::NULL);
                OpResult::Value(v)
            }
            OpKind::Fence => OpResult::Ack,
        }
    }

    /// [`SpecState::apply`] followed by the comparison [`check_sequence`]
    /// makes, without building the result unless it is wrong: a transaction's
    /// reads are compared in place. `recorded` is the op's recorded result
    /// (`None` for a pending op, which only takes effect). On a mismatch
    /// returns what the replay produced; the state is left exactly as
    /// `apply` leaves it either way.
    pub fn apply_expecting(
        &mut self,
        service: ServiceId,
        kind: &OpKind,
        recorded: Option<&OpResult>,
    ) -> Result<(), OpResult> {
        let reads_match = |state: &Self, keys: &[Key]| match recorded {
            None => true,
            Some(OpResult::Values(vs)) => {
                vs.len() == keys.len()
                    && vs
                        .iter()
                        .zip(keys)
                        .all(|(&(k, v), &key)| k == key && v == state.get(service, key))
            }
            Some(_) => false,
        };
        match kind {
            OpKind::RoTxn { keys } if reads_match(self, keys) => Ok(()),
            OpKind::RwTxn { read_keys, writes } if reads_match(self, read_keys) => {
                for (k, v) in writes {
                    self.kv.insert((service, *k), *v);
                }
                Ok(())
            }
            // Everything else builds no `Vec`, and a transaction only gets
            // here when it is already wrong.
            _ => {
                let produced = self.apply(service, kind);
                match recorded {
                    Some(recorded) if !results_compatible(kind, &produced, recorded) => {
                        Err(produced)
                    }
                    _ => Ok(()),
                }
            }
        }
    }
}

/// Entry in the [`IndexedSpecState`] undo log.
#[derive(Debug, Clone, Copy)]
enum UndoEntry {
    /// A key-value slot changed; restore the old value.
    Kv { slot: u32, old: u64 },
    /// A value was pushed to the back of a queue; pop it.
    QueuePush { slot: u32 },
    /// A value was popped from the front of a queue; push it back.
    QueuePop { slot: u32, value: u64 },
}

/// Sequential service state over the dense key ids of a
/// [`crate::history::HistoryIndex`]: flat arrays instead of hash maps, an
/// incrementally maintained fingerprint, and an undo log so the exact search
/// can backtrack without cloning.
///
/// This is the hot-path twin of [`SpecState`]; the public replay API
/// ([`check_sequence`]) keeps the map-based implementation because it works
/// without an index.
#[derive(Debug, Clone)]
pub struct IndexedSpecState {
    kv: Vec<u64>,
    queues: Vec<std::collections::VecDeque<u64>>,
    /// Monotonic count of pops per queue, giving every queue element a stable
    /// absolute position for the fingerprint.
    queue_heads: Vec<u64>,
    fingerprint: u64,
    undo_log: Vec<UndoEntry>,
}

impl IndexedSpecState {
    /// The empty initial state for a history with `num_keys` dense keys.
    pub fn new(num_keys: usize) -> Self {
        IndexedSpecState {
            kv: vec![Value::NULL.0; num_keys],
            queues: vec![std::collections::VecDeque::new(); num_keys],
            queue_heads: vec![0; num_keys],
            fingerprint: 0,
            undo_log: Vec::new(),
        }
    }

    /// The current fingerprint. Maintained incrementally: O(1) to read.
    ///
    /// Equal states always have equal fingerprints for the key-value part;
    /// queue fingerprints additionally mix in absolute element positions,
    /// which are a function of how many dequeues have been applied (for a
    /// fixed scheduled-set mask that count is fixed, so the memo key stays
    /// sound).
    #[inline]
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// A checkpoint to [`IndexedSpecState::rollback`] to.
    #[inline]
    pub fn checkpoint(&self) -> usize {
        self.undo_log.len()
    }

    /// Rolls the state back to a previous checkpoint.
    pub fn rollback(&mut self, checkpoint: usize) {
        while self.undo_log.len() > checkpoint {
            match self.undo_log.pop().expect("log is non-empty") {
                UndoEntry::Kv { slot, old } => self.set_kv(slot, old),
                UndoEntry::QueuePush { slot } => {
                    let s = slot as usize;
                    let v = self.queues[s].pop_back().expect("undo of recorded push");
                    let pos = self.queue_heads[s] + self.queues[s].len() as u64;
                    self.fingerprint ^= queue_term(slot, pos, v);
                }
                UndoEntry::QueuePop { slot, value } => {
                    let s = slot as usize;
                    self.queues[s].push_front(value);
                    self.queue_heads[s] -= 1;
                    self.fingerprint ^= queue_term(slot, self.queue_heads[s], value);
                }
            }
        }
    }

    /// Current value of a key slot.
    #[inline]
    pub fn get(&self, slot: u32) -> u64 {
        self.kv[slot as usize]
    }

    #[inline]
    fn set_kv(&mut self, slot: u32, value: u64) {
        let old = std::mem::replace(&mut self.kv[slot as usize], value);
        if old != value {
            self.fingerprint ^= kv_term(slot, old) ^ kv_term(slot, value);
        }
    }

    /// Writes `value` to a key slot, recording the undo entry.
    #[inline]
    pub fn write(&mut self, slot: u32, value: u64) {
        let old = self.kv[slot as usize];
        self.undo_log.push(UndoEntry::Kv { slot, old });
        self.set_kv(slot, value);
    }

    /// Enqueues `value` on a queue slot, recording the undo entry.
    pub fn enqueue(&mut self, slot: u32, value: u64) {
        let s = slot as usize;
        let pos = self.queue_heads[s] + self.queues[s].len() as u64;
        self.queues[s].push_back(value);
        self.fingerprint ^= queue_term(slot, pos, value);
        self.undo_log.push(UndoEntry::QueuePush { slot });
    }

    /// Dequeues from a queue slot (null if empty), recording the undo entry.
    pub fn dequeue(&mut self, slot: u32) -> u64 {
        let s = slot as usize;
        match self.queues[s].pop_front() {
            Some(v) => {
                self.fingerprint ^= queue_term(slot, self.queue_heads[s], v);
                self.queue_heads[s] += 1;
                self.undo_log.push(UndoEntry::QueuePop { slot, value: v });
                v
            }
            None => Value::NULL.0,
        }
    }

    /// Applies operation `i` of `index` and checks its recorded result.
    ///
    /// Returns `true` if the operation is compatible with the current state
    /// (its effects are applied); returns `false` *with the state unchanged*
    /// if the recorded result contradicts the replay.
    pub fn apply_checked(&mut self, index: &crate::history::HistoryIndex, i: usize) -> bool {
        use crate::history::KindTag;

        if index.has_unsat_result(i) {
            return false;
        }
        let check = index.is_complete(i);
        match index.kind_tag(i) {
            KindTag::Fence => true,
            KindTag::Read | KindTag::RoTxn => {
                if check {
                    let keys = index.read_key_ids(i);
                    let obs = index.read_observations(i);
                    for (k, o) in keys.iter().zip(obs) {
                        if self.get(*k) != *o {
                            return false;
                        }
                    }
                }
                true
            }
            KindTag::Write => {
                let keys = index.write_key_ids(i);
                let vals = index.write_values(i);
                self.write(keys[0], vals[0]);
                true
            }
            KindTag::Rmw => {
                if check {
                    let obs = index.read_observations(i);
                    if self.get(index.read_key_ids(i)[0]) != obs[0] {
                        return false;
                    }
                }
                let keys = index.write_key_ids(i);
                let vals = index.write_values(i);
                self.write(keys[0], vals[0]);
                true
            }
            KindTag::RwTxn => {
                if check {
                    let keys = index.read_key_ids(i);
                    let obs = index.read_observations(i);
                    for (k, o) in keys.iter().zip(obs) {
                        if self.get(*k) != *o {
                            return false;
                        }
                    }
                }
                let keys = index.write_key_ids(i);
                let vals = index.write_values(i);
                for (k, v) in keys.iter().zip(vals) {
                    self.write(*k, *v);
                }
                true
            }
            KindTag::Enqueue => {
                let keys = index.write_key_ids(i);
                let vals = index.write_values(i);
                self.enqueue(keys[0], vals[0]);
                true
            }
            KindTag::Dequeue => {
                let cp = self.checkpoint();
                let popped = self.dequeue(index.read_key_ids(i)[0]);
                if check && popped != index.read_observations(i)[0] {
                    self.rollback(cp);
                    return false;
                }
                true
            }
        }
    }
}

#[inline]
fn kv_term(slot: u32, value: u64) -> u64 {
    crate::hashing::mix_slot(slot as u64, value)
}

#[inline]
fn queue_term(slot: u32, pos: u64, value: u64) -> u64 {
    crate::hashing::mix_slot((slot as u64) | (pos << 32), value.rotate_left(17))
}

/// Replays `order` (a candidate legal sequence `S ∈ 𝔖`) against the
/// specification and checks every *complete* operation's recorded result.
///
/// Incomplete operations included in the order take effect but have no result
/// to check (they model the "extend with zero or more responses" clause of the
/// consistency definitions).
pub fn check_sequence(history: &History, order: &[OpId]) -> Result<(), SpecViolation> {
    let mut state = SpecState::new();
    for &id in order {
        let op = history.op(id);
        let produced = state.apply(op.service, &op.kind);
        if let Some(recorded) = op.result() {
            if !results_compatible(&op.kind, &produced, recorded) {
                return Err(SpecViolation { op: id, expected: produced, actual: recorded.clone() });
            }
        }
    }
    Ok(())
}

/// Result comparison: results must be identical, except that acknowledgement
/// payloads are ignored for mutating operations that return no data.
pub(crate) fn results_compatible(kind: &OpKind, expected: &OpResult, actual: &OpResult) -> bool {
    match kind {
        OpKind::Write { .. } | OpKind::Enqueue { .. } | OpKind::Fence => true,
        _ => expected == actual,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::HistoryBuilder;
    use crate::types::{ProcessId, Timestamp};

    #[test]
    fn kv_spec_basics() {
        let mut s = SpecState::new();
        let svc = ServiceId::KV;
        assert_eq!(s.apply(svc, &OpKind::Read { key: Key(1) }), OpResult::Value(Value::NULL));
        assert_eq!(s.apply(svc, &OpKind::Write { key: Key(1), value: Value(5) }), OpResult::Ack);
        assert_eq!(s.apply(svc, &OpKind::Read { key: Key(1) }), OpResult::Value(Value(5)));
        assert_eq!(
            s.apply(svc, &OpKind::Rmw { key: Key(1), value: Value(9) }),
            OpResult::Value(Value(5))
        );
        assert_eq!(s.get(svc, Key(1)), Value(9));
    }

    #[test]
    fn txn_spec_reads_then_writes() {
        let mut s = SpecState::new();
        let svc = ServiceId::KV;
        s.apply(svc, &OpKind::Write { key: Key(1), value: Value(1) });
        let r = s.apply(
            svc,
            &OpKind::RwTxn {
                read_keys: Box::new([Key(1), Key(2)]),
                writes: vec![(Key(2), Value(7))],
            },
        );
        assert_eq!(r, OpResult::Values(vec![(Key(1), Value(1)), (Key(2), Value::NULL)]));
        let r = s.apply(svc, &OpKind::RoTxn { keys: vec![Key(2)] });
        assert_eq!(r, OpResult::Values(vec![(Key(2), Value(7))]));
    }

    #[test]
    fn queue_spec_fifo() {
        let mut s = SpecState::new();
        let svc = ServiceId::QUEUE;
        assert_eq!(s.apply(svc, &OpKind::Dequeue { queue: Key(0) }), OpResult::Value(Value::NULL));
        s.apply(svc, &OpKind::Enqueue { queue: Key(0), value: Value(1) });
        s.apply(svc, &OpKind::Enqueue { queue: Key(0), value: Value(2) });
        assert_eq!(s.apply(svc, &OpKind::Dequeue { queue: Key(0) }), OpResult::Value(Value(1)));
        assert_eq!(s.apply(svc, &OpKind::Dequeue { queue: Key(0) }), OpResult::Value(Value(2)));
        assert_eq!(s.apply(svc, &OpKind::Dequeue { queue: Key(0) }), OpResult::Value(Value::NULL));
    }

    #[test]
    fn services_are_independent() {
        let mut s = SpecState::new();
        s.apply(ServiceId(0), &OpKind::Write { key: Key(1), value: Value(5) });
        assert_eq!(s.get(ServiceId(1), Key(1)), Value::NULL);
        assert_eq!(s.get(ServiceId(0), Key(1)), Value(5));
    }

    #[test]
    fn check_sequence_accepts_valid_order() {
        let mut b = HistoryBuilder::new();
        let w = b.write(1, 1, 42, 0, 5);
        let r = b.read(2, 1, 42, 6, 9);
        let h = b.build();
        assert!(check_sequence(&h, &[w, r]).is_ok());
    }

    #[test]
    fn check_sequence_rejects_invalid_order() {
        let mut b = HistoryBuilder::new();
        let w = b.write(1, 1, 42, 0, 5);
        let r = b.read(2, 1, 42, 6, 9);
        let h = b.build();
        // Reading 42 before it is written contradicts the spec.
        let err = check_sequence(&h, &[r, w]).unwrap_err();
        assert_eq!(err.op, r);
        assert_eq!(err.expected, OpResult::Value(Value::NULL));
    }

    #[test]
    fn check_sequence_ignores_incomplete_results() {
        let mut b = HistoryBuilder::new();
        let pw = b.pending_write(1, 1, 7, 0);
        let r = b.read(2, 1, 7, 10, 12);
        let h = b.build();
        // Including the pending write makes the read legal.
        assert!(check_sequence(&h, &[pw, r]).is_ok());
        // Excluding it does not.
        assert!(check_sequence(&h, &[r]).is_err());
    }

    /// One generated op: `(kind, key, value, key count, recording)`.
    type GenOp = (u8, u64, u64, u64, u8);

    /// The op `g` describes, and the service it targets.
    fn op_of(&(kind, key, value, n, _): &GenOp) -> (ServiceId, OpKind) {
        let keys = (0..n).map(|i| Key((key + i) % 3));
        let kv = ServiceId::KV;
        match kind {
            0 => (kv, OpKind::Read { key: Key(key) }),
            1 => (kv, OpKind::Write { key: Key(key), value: Value(value) }),
            2 => (kv, OpKind::Rmw { key: Key(key), value: Value(value) }),
            3 => (kv, OpKind::RoTxn { keys: keys.collect() }),
            4 => {
                let writes = keys.clone().map(|k| (k, Value(value + k.0))).collect();
                (kv, OpKind::RwTxn { read_keys: keys.rev().collect(), writes })
            }
            5 => (ServiceId::QUEUE, OpKind::Enqueue { queue: Key(key), value: Value(value) }),
            6 => (ServiceId::QUEUE, OpKind::Dequeue { queue: Key(key) }),
            _ => (kv, OpKind::Fence),
        }
    }

    /// The recorded result: the correct one, none (a pending op), or one
    /// perturbed in value, key, length or shape.
    fn record(correct: OpResult, how: u8) -> Option<OpResult> {
        let bump = |v: Value| Value(v.0 + 1);
        Some(match (how, correct) {
            (0 | 1, r) => r,
            (2, _) => return None,
            (3, OpResult::Value(v)) => OpResult::Value(bump(v)),
            (3, OpResult::Values(mut vs)) => {
                match vs.last_mut() {
                    Some((_, v)) => *v = bump(*v),
                    None => vs.push((Key(0), Value::NULL)),
                }
                OpResult::Values(vs)
            }
            (4, OpResult::Values(mut vs)) if !vs.is_empty() => {
                vs[0].0 = Key(vs[0].0 .0 + 1);
                OpResult::Values(vs)
            }
            (4, OpResult::Values(mut vs)) => {
                vs.pop();
                OpResult::Values(vs)
            }
            (5, OpResult::Value(v)) => OpResult::Values(vec![(Key(0), v)]),
            _ => OpResult::Ack,
        })
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        #[test]
        fn apply_expecting_agrees_with_apply_and_compare(
            ops in proptest::collection::vec((0u8..8, 0u64..3, 1u64..4, 0u64..4, 0u8..7), 1..24)
        ) {
            let (mut reference, mut fast) = (SpecState::new(), SpecState::new());
            for g in &ops {
                let (service, kind) = op_of(g);
                let recorded = record(reference.clone().apply(service, &kind), g.4);
                let produced = reference.apply(service, &kind);
                let verdict = match &recorded {
                    Some(r) if !results_compatible(&kind, &produced, r) => Err(produced),
                    _ => Ok(()),
                };
                proptest::prop_assert_eq!(fast.apply_expecting(service, &kind, recorded.as_ref()), verdict, "{:?}", kind);
                proptest::prop_assert_eq!(&fast, &reference);
            }
        }
    }

    #[test]
    fn fence_is_a_no_op_in_the_spec() {
        let mut h = History::new();
        let f = h.add_complete(
            ProcessId(1),
            ServiceId::KV,
            OpKind::Fence,
            Timestamp(0),
            Timestamp(1),
            OpResult::Ack,
        );
        assert!(check_sequence(&h, &[f]).is_ok());
    }
}
