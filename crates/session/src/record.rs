//! Completed-operation records and the shared history recorder.
//!
//! Every protocol client used to keep its own completion struct
//! (`CompletedTxn`, `CompletedOp`) and every harness its own conversion to
//! [`regular_core::History`]. The session layer unifies both: services emit
//! [`CompletedRecord`]s carrying the *core* operation kind and result
//! directly, and [`HistoryRecorder`] performs the one remaining conversion —
//! assigning application processes to `(client, session, slot)` lanes and
//! appending to the history — identically for every protocol.

use regular_core::hashing::FxHashMap;
use regular_core::history::{ByProcess, History};
use regular_core::op::{OpKind, OpResult};
use regular_core::types::{OpId, ProcessId, ServiceId, Timestamp};
use regular_sim::time::{SimDuration, SimTime};
use regular_storage::wire_layout;

/// Identifies one pipeline slot of one session: the unit that behaves as a
/// sequential application process. With `batch = 1` every session has exactly
/// one lane (slot 0), reproducing the paper's session-per-process model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LaneId {
    /// The issuing session.
    pub session: u64,
    /// The pipeline slot within the session's batch.
    pub slot: u32,
}

impl LaneId {
    /// A dense `u64` key uniquely identifying this lane, for per-process
    /// bookkeeping keyed by plain integers (e.g.
    /// [`regular_librss::FencePlanner`]). The session sits in the low bits:
    /// a multiply hash such as `FxHasher` takes its low bits, and so the
    /// map bucket, from the key's low bits, and with the slot there (0 for
    /// every lane at batch 1) every lane would probe from one bucket.
    pub fn key(self) -> u64 {
        debug_assert!(self.session < 1 << 32, "session ids stay within 32 bits");
        (u64::from(self.slot) << 32) | self.session
    }
}

/// Protocol ordering metadata attached to a completion, used by the harnesses
/// to derive serialization witnesses without protocol-specific structs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WitnessHint {
    /// No ordering metadata (e.g. fences in ordering-by-edges protocols).
    None,
    /// A globally comparable serialization timestamp (Spanner's commit and
    /// snapshot timestamps).
    Timestamp {
        /// The serialization timestamp in TrueTime microseconds.
        ts: u64,
    },
    /// A per-key carstamp (Gryff): totally ordered within a key only.
    Carstamp {
        /// Carstamp counter (advanced by base writes).
        count: u64,
        /// Writer id breaking counter ties.
        writer: u64,
        /// Read-modify-write counter extending the base value.
        rmwc: u64,
    },
}

/// One completed session operation, as reported by a [`crate::Service`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompletedRecord {
    /// The service the operation executed at.
    pub service: ServiceId,
    /// The operation, in the consistency core's vocabulary.
    pub kind: OpKind,
    /// The returned result.
    pub result: OpResult,
    /// Invocation instant (first attempt).
    pub invoke: SimTime,
    /// Completion instant.
    pub finish: SimTime,
    /// The issuing session.
    pub session: u64,
    /// The issuing pipeline slot within the session.
    pub slot: u32,
    /// Number of protocol attempts (1 = first try).
    pub attempts: u32,
    /// Wide-area round trips the operation needed (protocols that track it).
    pub rounds: u8,
    /// True if the client had already given up on this operation when it
    /// completed. Orphaned completions are part of the execution history
    /// (their effects are visible) but are excluded from latency measurements
    /// and are not ordered within their session.
    pub orphan: bool,
    /// Protocol ordering metadata for witness assembly.
    pub witness: WitnessHint,
}

wire_layout! {
    enum WitnessHint {
        0 => None,
        1 => Timestamp { ts },
        2 => Carstamp { count, writer, rmwc },
    }
}

wire_layout! {
    struct CompletedRecord {
        service, kind, result, invoke, finish, session, slot, attempts, rounds, orphan, witness,
    }
}

impl CompletedRecord {
    /// The operation's latency.
    pub fn latency(&self) -> SimDuration {
        self.finish.since(self.invoke)
    }

    /// The serialization timestamp, if the protocol provided one.
    pub fn witness_ts(&self) -> Option<u64> {
        match self.witness {
            WitnessHint::Timestamp { ts } => Some(ts),
            _ => None,
        }
    }
}

/// Builds a [`History`] from completed records, assigning one
/// [`ProcessId`] per `(client, session, slot)` lane and a fresh process to
/// every orphaned completion (the client had already moved on, so the
/// operation is not ordered within its session).
#[derive(Debug, Default)]
pub struct HistoryRecorder {
    history: History,
    process_of: FxHashMap<(u64, u64, u32), ProcessId>,
    orphan_pid: u32,
}

/// Orphan processes are numbered from here, far above any lane process.
const ORPHAN_PID_BASE: u32 = 1_000_000;

impl HistoryRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// An empty recorder whose history has room for `ops` completions.
    pub fn with_capacity(ops: usize) -> Self {
        HistoryRecorder {
            history: History::with_capacity(ops),
            process_of: FxHashMap::default(),
            orphan_pid: ORPHAN_PID_BASE,
        }
    }

    /// Records one completion from client node `client` and returns its op id.
    pub fn record(&mut self, client: u64, rec: &CompletedRecord) -> OpId {
        let pid = if rec.orphan {
            self.orphan_pid += 1;
            ProcessId(self.orphan_pid)
        } else {
            let next_pid = ProcessId((self.process_of.len() + 1) as u32);
            *self.process_of.entry((client, rec.session, rec.slot)).or_insert(next_pid)
        };
        self.history.add_complete(
            pid,
            rec.service,
            rec.kind.clone(),
            Timestamp(rec.invoke.as_micros()),
            Timestamp(rec.finish.as_micros()),
            rec.result.clone(),
        )
    }

    /// The history recorded so far.
    pub fn history(&self) -> &History {
        &self.history
    }

    /// The process assigned to a non-orphan lane, if it has recorded any
    /// operation.
    pub fn process_of(&self, client: u64, session: u64, slot: u32) -> Option<ProcessId> {
        self.process_of.get(&(client, session, slot)).copied()
    }

    /// Records an out-of-band communication between two lanes (a
    /// `CausalContext` handoff, Section 4.2) as an external-communication
    /// edge of the history. Returns `false` (recording nothing) if either
    /// lane never completed an operation.
    pub fn record_external_communication(
        &mut self,
        from: (u64, u64, u32),
        sent_us: u64,
        to: (u64, u64, u32),
        received_us: u64,
    ) -> bool {
        let (Some(from_pid), Some(to_pid)) =
            (self.process_of(from.0, from.1, from.2), self.process_of(to.0, to.1, to.2))
        else {
            return false;
        };
        self.history.add_external_communication(
            from_pid,
            Timestamp(sent_us),
            to_pid,
            Timestamp(received_us),
        );
        true
    }

    /// The id of the lane's last operation that completed at or before
    /// `at_us` — the exporter side of a causal-handoff constraint edge. `lane`
    /// is `(client, session, slot)`; `by_process` is [`ByProcess::new`] of
    /// this recorder's history.
    pub fn last_completed_before(
        &self,
        by_process: &ByProcess,
        lane: (u64, u64, u32),
        at_us: u64,
    ) -> Option<OpId> {
        let pid = self.process_of(lane.0, lane.1, lane.2)?;
        by_process
            .ops_of(pid)
            .iter()
            .rev()
            .copied()
            .find(|&id| self.history.op(id).response.is_some_and(|r| r.0 <= at_us))
    }

    /// The id of the lane's first operation invoked at or after `at_us` —
    /// the importer side of a causal-handoff constraint edge. `lane` and
    /// `by_process` are as in [`Self::last_completed_before`].
    pub fn first_invoked_after(
        &self,
        by_process: &ByProcess,
        lane: (u64, u64, u32),
        at_us: u64,
    ) -> Option<OpId> {
        let pid = self.process_of(lane.0, lane.1, lane.2)?;
        by_process.ops_of(pid).iter().copied().find(|&id| self.history.op(id).invoke.0 >= at_us)
    }

    /// Finishes recording, returning the history.
    pub fn into_history(self) -> History {
        self.history
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use regular_core::types::{Key, Value};
    use regular_storage::codec::check_layout;

    #[test]
    fn every_variant_keeps_its_bytes() {
        check_layout(
            WitnessHint::TAGS,
            &[
                (WitnessHint::None, "00"),
                (WitnessHint::Timestamp { ts: 25 }, "011900000000000000"),
                (
                    WitnessHint::Carstamp { count: 4, writer: 2, rmwc: 1 },
                    "02040000000000000002000000000000000100000000000000",
                ),
            ],
        );
        let rec = CompletedRecord {
            service: ServiceId(1),
            kind: OpKind::RwTxn { read_keys: vec![Key(1)], writes: vec![(Key(2), Value(3))] },
            result: OpResult::Values(vec![(Key(1), Value(9))]),
            invoke: SimTime::from_micros(10),
            finish: SimTime::from_micros(30),
            session: 4,
            slot: 1,
            attempts: 2,
            rounds: 3,
            orphan: false,
            witness: WitnessHint::Timestamp { ts: 25 },
        };
        check_layout(&[], &[(rec, "010000000401000000010000000000000001000000020000000000000003000000000000000101000000010000000000000009000000000000000a000000000000001e00000000000000040000000000000001000000020000000300011900000000000000")]);
    }

    fn write_rec(session: u64, slot: u32, key: u64, at: u64, orphan: bool) -> CompletedRecord {
        CompletedRecord {
            service: ServiceId::KV,
            kind: OpKind::Write { key: Key(key), value: Value(at + 1) },
            result: OpResult::Ack,
            invoke: SimTime::from_micros(at),
            finish: SimTime::from_micros(at + 10),
            session,
            slot,
            attempts: 1,
            rounds: 1,
            orphan,
            witness: WitnessHint::Timestamp { ts: at },
        }
    }

    #[test]
    fn lanes_become_processes_in_first_seen_order() {
        let mut r = HistoryRecorder::new();
        let a = r.record(0, &write_rec(0, 0, 1, 0, false));
        let b = r.record(0, &write_rec(1, 0, 1, 20, false));
        let c = r.record(0, &write_rec(0, 0, 1, 40, false));
        let d = r.record(1, &write_rec(0, 0, 1, 60, false));
        let h = r.into_history();
        assert_eq!(h.op(a).process, ProcessId(1));
        assert_eq!(h.op(b).process, ProcessId(2));
        assert_eq!(h.op(c).process, ProcessId(1), "same lane, same process");
        assert_eq!(h.op(d).process, ProcessId(3), "another client is another process");
    }

    #[test]
    fn slots_are_distinct_processes() {
        let mut r = HistoryRecorder::new();
        let a = r.record(0, &write_rec(0, 0, 1, 0, false));
        let b = r.record(0, &write_rec(0, 1, 1, 0, false));
        let h = r.into_history();
        assert_ne!(h.op(a).process, h.op(b).process);
        // Concurrent slots must not trip the one-outstanding-op validation.
        assert!(h.validate().is_ok());
    }

    #[test]
    fn orphans_get_fresh_high_processes() {
        let mut r = HistoryRecorder::new();
        r.record(0, &write_rec(0, 0, 1, 0, false));
        let o1 = r.record(0, &write_rec(0, 0, 1, 5, true));
        let o2 = r.record(0, &write_rec(0, 0, 1, 6, true));
        let h = r.history();
        assert_eq!(h.op(o1).process, ProcessId(ORPHAN_PID_BASE + 1));
        assert_eq!(h.op(o2).process, ProcessId(ORPHAN_PID_BASE + 2));
    }

    #[test]
    fn handoff_queries_find_the_lane_ops_around_an_instant() {
        let mut r = HistoryRecorder::new();
        let a = r.record(0, &write_rec(0, 0, 1, 0, false)); // [0, 10]
        let b = r.record(0, &write_rec(0, 0, 1, 20, false)); // [20, 30]
        let c = r.record(0, &write_rec(0, 0, 1, 40, false)); // [40, 50]
        r.record(0, &write_rec(0, 1, 1, 0, false)); // another lane
        let by_process = ByProcess::new(r.history());
        assert_eq!(r.last_completed_before(&by_process, (0, 0, 0), 35), Some(b));
        assert_eq!(r.last_completed_before(&by_process, (0, 0, 0), 60), Some(c));
        assert_eq!(r.last_completed_before(&by_process, (0, 0, 0), 5), None);
        assert_eq!(r.first_invoked_after(&by_process, (0, 0, 0), 0), Some(a));
        assert_eq!(r.first_invoked_after(&by_process, (0, 0, 0), 21), Some(c));
        assert_eq!(r.first_invoked_after(&by_process, (0, 0, 0), 41), None);
        assert_eq!(r.last_completed_before(&by_process, (1, 0, 0), 25), None, "an unknown lane");
    }

    #[test]
    fn process_order_follows_invocation_order() {
        let mut r = HistoryRecorder::new();
        let a = r.record(0, &write_rec(0, 0, 1, 0, false));
        let b = r.record(0, &write_rec(0, 0, 2, 20, false));
        let c = r.record(0, &write_rec(1, 0, 3, 10, false));
        let orphan = r.record(0, &write_rec(0, 0, 4, 30, true));
        let edges: Vec<_> = regular_core::ByProcess::new(r.history()).pairs().collect();
        assert!(edges.contains(&(a, b)));
        assert!(!edges.iter().any(|(x, y)| *x == c || *y == c), "single-op lane has no edges");
        assert!(!edges.iter().any(|(x, y)| *x == orphan || *y == orphan));
    }
}
