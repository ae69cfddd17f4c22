//! The photo-sharing application: invariants I1/I2 and anomalies A1–A3.
//!
//! Table 1 of the paper compares consistency models by which application
//! invariants they preserve and which anomalies they admit, using a
//! photo-sharing application as the running example:
//!
//! * **I1** — an album never references a photo whose data is null.
//! * **I2** — a worker that dequeues a photo id from the messaging service
//!   never reads null data for that photo.
//! * **A1** — Alice adds two photos; later only one is in her album.
//! * **A2** — Alice adds a photo and calls Bob; Bob does not see it.
//! * **A3** — Alice sees Charlie's photo and calls Bob; Bob does not see it.
//!
//! This module encodes the application's data model over the generic history
//! type (albums are bitmasks of photo indices, photos map to non-null blobs,
//! the messaging service is a FIFO queue), provides checkers for the
//! invariants and anomaly patterns, and provides canonical violating histories
//! used by the Table 1 harness to ask each consistency model "do you admit an
//! execution that breaks this?".

use crate::history::{ByProcess, History};
use crate::op::{OpKind, OpResult};
use crate::types::{Key, OpId, ProcessId, ServiceId, Timestamp, Value};

/// Key layout of the photo-sharing application.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhotoAppKeys {
    /// The key-value service storing albums and photos.
    pub kv_service: ServiceId,
    /// The messaging service carrying thumbnail-processing requests.
    pub mq_service: ServiceId,
    /// Key of the album object (value: bitmask of photo indices).
    pub album: Key,
    /// Base key for photos: photo `i` lives at `Key(photo_base.0 + i)`.
    pub photo_base: Key,
    /// Key (queue name) of the thumbnail-request queue on the messaging service.
    pub queue: Key,
}

impl Default for PhotoAppKeys {
    fn default() -> Self {
        PhotoAppKeys {
            kv_service: ServiceId::KV,
            mq_service: ServiceId::QUEUE,
            album: Key(1),
            photo_base: Key(100),
            queue: Key(1),
        }
    }
}

impl PhotoAppKeys {
    /// The key storing photo `i`'s data.
    pub fn photo(&self, i: u64) -> Key {
        Key(self.photo_base.0 + i)
    }

    /// The album value referencing exactly the given photo indices.
    pub fn album_value(&self, photos: &[u64]) -> Value {
        Value(photos.iter().fold(0u64, |acc, &i| acc | (1 << i)))
    }

    /// The photo indices referenced by an album value.
    pub fn photos_in_album(&self, album: Value) -> Vec<u64> {
        (0..64).filter(|i| album.0 & (1 << i) != 0).collect()
    }

    /// The (non-null) data blob stored for photo `i`.
    pub fn photo_data(&self, i: u64) -> Value {
        Value(1_000 + i)
    }

    /// The queue message requesting processing of photo `i`.
    pub fn queue_message(&self, i: u64) -> Value {
        Value(10_000 + i)
    }

    /// The photo index encoded in a queue message, if any.
    pub fn photo_of_message(&self, v: Value) -> Option<u64> {
        if v.0 >= 10_000 {
            Some(v.0 - 10_000)
        } else {
            None
        }
    }
}

/// A detected invariant violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvariantViolation {
    /// Which invariant was broken ("I1" or "I2").
    pub invariant: &'static str,
    /// The operation that observed the inconsistent state.
    pub observer: OpId,
    /// The photo index whose data was missing.
    pub photo: u64,
}

/// The first read of `photo` by `op`'s process after `op` to return null.
fn later_null_read(
    history: &History,
    by_process: &ByProcess,
    keys: &PhotoAppKeys,
    op: &crate::history::OpRecord,
    photo: u64,
) -> Option<OpId> {
    by_process.ops_of(op.process).iter().copied().find(|&later_id| {
        let later = history.op(later_id);
        later.invoke >= op.invoke
            && later.id != op.id
            && later.service == keys.kv_service
            && later.observed_value(keys.photo(photo)).is_some_and(|v| v.is_null())
    })
}

/// Checks invariant I1 over a history: whenever an operation's result shows an
/// album referencing photo `i` *and* the same operation (or a causally later
/// read by the same process) reads photo `i`, the photo's data must be
/// non-null.
pub fn check_i1(history: &History, keys: &PhotoAppKeys) -> Result<(), InvariantViolation> {
    let by_process = ByProcess::new(history);
    for op in history.ops() {
        if op.service != keys.kv_service {
            continue;
        }
        let Some(album_value) = op.observed_value(keys.album) else { continue };
        for i in keys.photos_in_album(album_value) {
            // Same operation (transactional read of album + photo), then
            // later reads of the photo by the same process.
            let observer = if op.observed_value(keys.photo(i)).is_some_and(|v| v.is_null()) {
                Some(op.id)
            } else {
                later_null_read(history, &by_process, keys, op, i)
            };
            if let Some(observer) = observer {
                return Err(InvariantViolation { invariant: "I1", observer, photo: i });
            }
        }
    }
    Ok(())
}

/// Checks invariant I2 over a history: whenever a worker dequeues the request
/// for photo `i`, every later read of photo `i` by that worker returns
/// non-null data.
pub fn check_i2(history: &History, keys: &PhotoAppKeys) -> Result<(), InvariantViolation> {
    let by_process = ByProcess::new(history);
    for op in history.ops() {
        if op.service != keys.mq_service
            || !matches!(op.kind, OpKind::Dequeue { queue } if queue == keys.queue)
        {
            continue;
        }
        let Some(&OpResult::Value(v)) = op.result() else { continue };
        let Some(photo) = keys.photo_of_message(v) else { continue };
        if let Some(observer) = later_null_read(history, &by_process, keys, op, photo) {
            return Err(InvariantViolation { invariant: "I2", observer, photo });
        }
    }
    Ok(())
}

/// A detected anomaly (user-visible misbehaviour that is not an invariant
/// violation because detecting it needs information outside the application's
/// state, such as wall-clock ordering or out-of-band communication).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Anomaly {
    /// Which anomaly pattern matched ("A1", "A2", or "A3").
    pub anomaly: &'static str,
    /// The operation that exposed the anomaly to a user.
    pub observer: OpId,
}

/// Detects anomaly A1: two add-photo transactions completed, yet an album read
/// that starts after both finish is missing one of the photos.
pub fn detect_a1(history: &History, keys: &PhotoAppKeys) -> Option<Anomaly> {
    let adds: Vec<&crate::history::OpRecord> = history
        .ops()
        .iter()
        .filter(|o| {
            o.is_complete()
                && o.service == keys.kv_service
                && o.kind.written_keys_iter().any(|k| k == keys.album)
        })
        .collect();
    for read in history.ops() {
        if read.service != keys.kv_service || read.kind.is_mutating() {
            continue;
        }
        let Some(album) = read.observed_value(keys.album) else { continue };
        let in_album = keys.photos_in_album(album);
        for add in &adds {
            let Some(resp) = add.response() else { continue };
            if resp >= read.invoke {
                continue;
            }
            // Which photos did this add put in the album?
            let added: Vec<u64> = add
                .kind
                .written_values_iter()
                .filter(|(k, _)| *k == keys.album)
                .flat_map(|(_, v)| keys.photos_in_album(v))
                .collect();
            if added.iter().any(|p| !in_album.contains(p)) {
                return Some(Anomaly { anomaly: "A1", observer: read.id });
            }
        }
    }
    None
}

/// Detects anomaly A2/A3: a process (Alice) that wrote or observed a photo in
/// the album communicates with another process (Bob) — through the application
/// or entirely out of band — and Bob's subsequent album read misses that photo.
pub fn detect_a2_a3(history: &History, keys: &PhotoAppKeys) -> Option<Anomaly> {
    let by_process = ByProcess::new(history);
    for m in history.messages().iter().chain(history.external_communications()) {
        // Photos Alice knew about before sending: photos she added or observed.
        let mut known: Vec<u64> = Vec::new();
        let mut wrote_any = false;
        for &id in by_process.ops_of(m.from) {
            let op = history.op(id);
            let Some(resp) = op.response() else { continue };
            if resp > m.sent_at || op.service != keys.kv_service {
                continue;
            }
            for (k, v) in op.kind.written_values_iter() {
                if k == keys.album {
                    wrote_any = true;
                    known.extend(keys.photos_in_album(v));
                }
            }
            if let Some(album) = op.observed_value(keys.album) {
                known.extend(keys.photos_in_album(album));
            }
        }
        known.sort_unstable();
        known.dedup();
        if known.is_empty() {
            continue;
        }
        for &id in by_process.ops_of(m.to) {
            let op = history.op(id);
            if op.invoke < m.received_at || op.service != keys.kv_service {
                continue;
            }
            if let Some(album) = op.observed_value(keys.album) {
                let seen = keys.photos_in_album(album);
                if known.iter().any(|p| !seen.contains(p)) {
                    let anomaly = if wrote_any { "A2" } else { "A3" };
                    return Some(Anomaly { anomaly, observer: op.id });
                }
            }
        }
    }
    None
}

/// Canonical histories used by the Table 1 harness: each exhibits a violation
/// of the named invariant or an instance of the named anomaly, so asking a
/// consistency model whether it *admits* the history answers whether the
/// invariant can break (the anomaly can occur) under that model.
pub mod scenarios {
    use super::*;

    /// Helper: a complete add-photo read-write transaction by `process`,
    /// creating photo `i` and adding it to the album whose prior content is
    /// `prior_photos`.
    #[allow(clippy::too_many_arguments)]
    fn add_photo(
        h: &mut History,
        keys: &PhotoAppKeys,
        process: u32,
        photo: u64,
        prior_photos: &[u64],
        invoke: u64,
        response: u64,
    ) -> OpId {
        let mut all: Vec<u64> = prior_photos.to_vec();
        all.push(photo);
        h.add_complete(
            ProcessId(process),
            keys.kv_service,
            OpKind::RwTxn {
                read_keys: Box::new([keys.album]),
                writes: vec![
                    (keys.photo(photo), keys.photo_data(photo)),
                    (keys.album, keys.album_value(&all)),
                ],
            },
            Timestamp(invoke),
            Timestamp(response),
            OpResult::Values(vec![(keys.album, keys.album_value(prior_photos))]),
        )
    }

    /// I1 violation: a reader sees the album referencing photo 1 but reads
    /// null for the photo's data, in the same read-only transaction.
    pub fn i1_violation(keys: &PhotoAppKeys) -> History {
        let mut h = History::new();
        add_photo(&mut h, keys, 1, 1, &[], 0, 10);
        h.add_complete(
            ProcessId(2),
            keys.kv_service,
            OpKind::RoTxn { keys: vec![keys.album, keys.photo(1)] },
            Timestamp(20),
            Timestamp(30),
            OpResult::Values(vec![
                (keys.album, keys.album_value(&[1])),
                (keys.photo(1), Value::NULL),
            ]),
        );
        h
    }

    /// I2 violation: the web server adds the photo and then enqueues the
    /// processing request; the worker dequeues the request but reads null from
    /// the key-value store (the stores are distinct services, so only a
    /// composable model forbids this).
    pub fn i2_violation(keys: &PhotoAppKeys) -> History {
        let mut h = History::new();
        add_photo(&mut h, keys, 1, 1, &[], 0, 10);
        h.add_complete(
            ProcessId(1),
            keys.mq_service,
            OpKind::Enqueue { queue: keys.queue, value: keys.queue_message(1) },
            Timestamp(11),
            Timestamp(15),
            OpResult::Ack,
        );
        h.add_complete(
            ProcessId(2),
            keys.mq_service,
            OpKind::Dequeue { queue: keys.queue },
            Timestamp(20),
            Timestamp(25),
            OpResult::Value(keys.queue_message(1)),
        );
        h.add_complete(
            ProcessId(2),
            keys.kv_service,
            OpKind::RoTxn { keys: vec![keys.photo(1)] },
            Timestamp(26),
            Timestamp(30),
            OpResult::Values(vec![(keys.photo(1), Value::NULL)]),
        );
        h
    }

    /// A1: Alice (via two web servers, i.e. two processes) adds photos 1 and
    /// 2; the second add does not observe the first (a lost update), and a
    /// later read of the album sees only photo 2.
    pub fn a1_anomaly(keys: &PhotoAppKeys) -> History {
        let mut h = History::new();
        add_photo(&mut h, keys, 1, 1, &[], 0, 10);
        // The second web server's transaction reads a stale (empty) album.
        add_photo(&mut h, keys, 2, 2, &[], 20, 30);
        h.add_complete(
            ProcessId(3),
            keys.kv_service,
            OpKind::RoTxn { keys: vec![keys.album] },
            Timestamp(40),
            Timestamp(50),
            OpResult::Values(vec![(keys.album, keys.album_value(&[2]))]),
        );
        h
    }

    /// A2: Alice adds a photo and calls Bob (a phone call, outside the
    /// application); Bob's read of the album does not include it.
    pub fn a2_anomaly(keys: &PhotoAppKeys) -> History {
        let mut h = History::new();
        add_photo(&mut h, keys, 1, 1, &[], 0, 10);
        h.add_external_communication(ProcessId(1), Timestamp(15), ProcessId(2), Timestamp(20));
        h.add_complete(
            ProcessId(2),
            keys.kv_service,
            OpKind::RoTxn { keys: vec![keys.album] },
            Timestamp(25),
            Timestamp(35),
            OpResult::Values(vec![(keys.album, Value::NULL)]),
        );
        h
    }

    /// A3: Charlie is still adding a photo when Alice's read observes it;
    /// Alice calls Bob; Bob's read misses the photo.
    pub fn a3_anomaly(keys: &PhotoAppKeys) -> History {
        let mut h = History::new();
        // Charlie's add-photo transaction is still in flight (incomplete).
        h.add_incomplete(
            ProcessId(3),
            keys.kv_service,
            OpKind::RwTxn {
                read_keys: Box::new([keys.album]),
                writes: vec![
                    (keys.photo(1), keys.photo_data(1)),
                    (keys.album, keys.album_value(&[1])),
                ],
            },
            Timestamp(0),
        );
        // Alice sees it.
        h.add_complete(
            ProcessId(1),
            keys.kv_service,
            OpKind::RoTxn { keys: vec![keys.album] },
            Timestamp(10),
            Timestamp(20),
            OpResult::Values(vec![(keys.album, keys.album_value(&[1]))]),
        );
        // Alice calls Bob (outside the application).
        h.add_external_communication(ProcessId(1), Timestamp(25), ProcessId(2), Timestamp(30));
        // Bob misses it.
        h.add_complete(
            ProcessId(2),
            keys.kv_service,
            OpKind::RoTxn { keys: vec![keys.album] },
            Timestamp(35),
            Timestamp(45),
            OpResult::Values(vec![(keys.album, Value::NULL)]),
        );
        h
    }

    /// A correct execution of the application: add a photo, enqueue the
    /// request, worker processes it; all invariants hold, no anomalies.
    pub fn correct_execution(keys: &PhotoAppKeys) -> History {
        let mut h = History::new();
        add_photo(&mut h, keys, 1, 1, &[], 0, 10);
        h.add_complete(
            ProcessId(1),
            keys.mq_service,
            OpKind::Enqueue { queue: keys.queue, value: keys.queue_message(1) },
            Timestamp(11),
            Timestamp(15),
            OpResult::Ack,
        );
        h.add_complete(
            ProcessId(2),
            keys.mq_service,
            OpKind::Dequeue { queue: keys.queue },
            Timestamp(20),
            Timestamp(25),
            OpResult::Value(keys.queue_message(1)),
        );
        h.add_complete(
            ProcessId(2),
            keys.kv_service,
            OpKind::RoTxn { keys: vec![keys.photo(1), keys.album] },
            Timestamp(26),
            Timestamp(30),
            OpResult::Values(vec![
                (keys.photo(1), keys.photo_data(1)),
                (keys.album, keys.album_value(&[1])),
            ]),
        );
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::models::{satisfies, satisfies_composed, Model};

    fn keys() -> PhotoAppKeys {
        PhotoAppKeys::default()
    }

    #[test]
    fn album_encoding_round_trips() {
        let k = keys();
        let album = k.album_value(&[1, 3, 5]);
        assert_eq!(k.photos_in_album(album), vec![1, 3, 5]);
        assert!(k.photos_in_album(Value::NULL).is_empty());
        assert_eq!(k.photo(3), Key(103));
        assert_eq!(k.photo_of_message(k.queue_message(7)), Some(7));
        assert_eq!(k.photo_of_message(Value(5)), None);
        assert!(!k.photo_data(1).is_null());
    }

    #[test]
    fn correct_execution_has_no_violations() {
        let k = keys();
        let h = scenarios::correct_execution(&k);
        assert!(check_i1(&h, &k).is_ok());
        assert!(check_i2(&h, &k).is_ok());
        assert!(detect_a1(&h, &k).is_none());
        assert!(detect_a2_a3(&h, &k).is_none());
    }

    #[test]
    fn i1_violation_detected_and_model_verdicts() {
        let k = keys();
        let h = scenarios::i1_violation(&k);
        let v = check_i1(&h, &k).unwrap_err();
        assert_eq!(v.invariant, "I1");
        assert_eq!(v.photo, 1);
        // Neither strict serializability, nor RSS, nor PO serializability
        // admits this history: the photo and album are written atomically.
        assert!(!satisfies(&h, Model::StrictSerializability));
        assert!(!satisfies(&h, Model::RegularSequentialSerializability));
        assert!(!satisfies(&h, Model::ProcessOrderedSerializability));
    }

    #[test]
    fn i2_violation_detected_and_model_verdicts() {
        let k = keys();
        let h = scenarios::i2_violation(&k);
        let v = check_i2(&h, &k).unwrap_err();
        assert_eq!(v.invariant, "I2");
        // Strict serializability and RSS forbid it (composable real-time /
        // causal guarantees across the key-value store and the messaging
        // service). A composition of independently PO-serializable services
        // admits it, because PO serializability is not composable.
        assert!(!satisfies(&h, Model::StrictSerializability));
        assert!(!satisfies(&h, Model::RegularSequentialSerializability));
        assert!(satisfies_composed(&h, Model::ProcessOrderedSerializability));
        // The composite (single-service-style) check would forbid it, which is
        // exactly the distinction between a composable and a non-composable
        // guarantee.
        assert!(!satisfies(&h, Model::ProcessOrderedSerializability));
    }

    #[test]
    fn a1_detected_and_model_verdicts() {
        let k = keys();
        let h = scenarios::a1_anomaly(&k);
        assert_eq!(detect_a1(&h, &k).unwrap().anomaly, "A1");
        // A read that misses a photo whose add-transaction completed is a lost
        // update visible to users; none of the three models admits it here
        // because the adds are sequential read-modify-write transactions.
        assert!(!satisfies(&h, Model::StrictSerializability));
        assert!(!satisfies(&h, Model::RegularSequentialSerializability));
        assert!(!satisfies(&h, Model::ProcessOrderedSerializability));
    }

    #[test]
    fn a2_detected_and_model_verdicts() {
        let k = keys();
        let h = scenarios::a2_anomaly(&k);
        assert_eq!(detect_a2_a3(&h, &k).unwrap().anomaly, "A2");
        // Strict serializability forbids it (real-time), RSS forbids it
        // (causality through the call), PO serializability admits it.
        assert!(!satisfies(&h, Model::StrictSerializability));
        assert!(!satisfies(&h, Model::RegularSequentialSerializability));
        assert!(satisfies(&h, Model::ProcessOrderedSerializability));
    }

    #[test]
    fn a3_detected_and_model_verdicts() {
        let k = keys();
        let h = scenarios::a3_anomaly(&k);
        assert_eq!(detect_a2_a3(&h, &k).unwrap().anomaly, "A3");
        // Charlie's add is still in flight. Once Alice's read observed it and
        // completed, strict serializability forces every later read to include
        // it — so A3 never happens. Under RSS the constraint is only causal,
        // and the phone call is invisible to the services, so Bob's stale read
        // is (temporarily) allowed. PO serializability allows it as well.
        assert!(!satisfies(&h, Model::StrictSerializability));
        assert!(satisfies(&h, Model::RegularSequentialSerializability));
        assert!(satisfies(&h, Model::ProcessOrderedSerializability));
    }

    #[test]
    fn i1_violation_across_ops_of_same_process() {
        let k = keys();
        let mut h = History::new();
        // Album references photo 1 but the photo write is missing entirely.
        h.add_complete(
            ProcessId(1),
            k.kv_service,
            OpKind::RoTxn { keys: vec![k.album] },
            Timestamp(0),
            Timestamp(5),
            OpResult::Values(vec![(k.album, k.album_value(&[1]))]),
        );
        h.add_complete(
            ProcessId(1),
            k.kv_service,
            OpKind::RoTxn { keys: vec![k.photo(1)] },
            Timestamp(6),
            Timestamp(10),
            OpResult::Values(vec![(k.photo(1), Value::NULL)]),
        );
        let v = check_i1(&h, &k).unwrap_err();
        assert_eq!(v.invariant, "I1");
        assert_eq!(v.observer, OpId(1));
    }
}
