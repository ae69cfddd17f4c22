//! Execution histories: the observable record of an application's interaction
//! with a set of services.
//!
//! A [`History`] corresponds to the paper's notion of an execution restricted
//! to what matters for checking consistency: each operation's invocation and
//! response actions (with real-time instants from the omniscient clock), the
//! issuing process, the target service, and the message-passing interactions
//! between processes. The per-process sub-execution, the real-time order, and
//! the causal order are all derived from this record (see [`crate::order`]).

use crate::op::{OpKind, OpResult};
use crate::types::{Key, OpId, ProcessId, ServiceId, Timestamp, Value};

/// One recorded operation: invocation, optional response, and metadata.
///
/// Byte budget: 96 bytes — an id, a process and a service (4 bytes each),
/// a 40-byte [`OpKind`], the invocation instant and a 32-byte `outcome`. A
/// history holds one per operation for as long as it is checked, so a test
/// pins the size: a new field fails there instead of raising every run's
/// heap.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpRecord {
    /// Dense identifier (index into the history).
    pub id: OpId,
    /// The process that issued the operation.
    pub process: ProcessId,
    /// The service the operation targets.
    pub service: ServiceId,
    /// The operation kind and arguments.
    pub kind: OpKind,
    /// Real-time instant of the invocation action.
    pub invoke: Timestamp,
    /// Real-time instant of the response action and the returned result;
    /// `None` if the operation never completed (e.g. the process stopped
    /// while waiting). One option, so the two are present together or not
    /// at all.
    pub outcome: Option<(Timestamp, OpResult)>,
}

impl OpRecord {
    /// True if the operation completed (has a response).
    pub fn is_complete(&self) -> bool {
        self.outcome.is_some()
    }

    /// Real-time instant of the response action, if the operation completed.
    pub fn response(&self) -> Option<Timestamp> {
        self.outcome.as_ref().map(|(at, _)| *at)
    }

    /// The returned result, if the operation completed.
    pub fn result(&self) -> Option<&OpResult> {
        self.outcome.as_ref().map(|(_, result)| result)
    }

    /// The value this operation observed for `key`, if any.
    pub fn observed_value(&self, key: Key) -> Option<Value> {
        self.result().and_then(|r| r.value_for(key, &self.kind))
    }
}

/// A message-passing interaction between two processes (out-of-band of the
/// services), used to derive causal edges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MessageEdge {
    /// Sending process.
    pub from: ProcessId,
    /// Instant of the send action at the sender.
    pub sent_at: Timestamp,
    /// Receiving process.
    pub to: ProcessId,
    /// Instant of the receive action at the receiver.
    pub received_at: Timestamp,
}

/// Problems detected by [`History::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HistoryError {
    /// An operation's response precedes its invocation.
    ResponseBeforeInvoke(OpId),
    /// Two operations of the same process overlap in time (processes have at
    /// most one outstanding invocation).
    OverlappingOps(OpId, OpId),
    /// A message is received before it is sent.
    MessageBeforeSend(usize),
}

/// An execution history over a (possibly composite) service.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct History {
    ops: Vec<OpRecord>,
    messages: Vec<MessageEdge>,
    /// Out-of-band communication invisible to the application and its services
    /// (e.g. Alice phoning Bob). These edges are *not* part of the causal
    /// order services must respect; they exist so anomaly detectors can judge
    /// executions from the users' point of view (Section 2.3).
    external: Vec<MessageEdge>,
}

impl History {
    /// Creates an empty history.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty history with room for `ops` operations.
    pub fn with_capacity(ops: usize) -> Self {
        History { ops: Vec::with_capacity(ops), ..Self::default() }
    }

    /// Records a complete operation and returns its id.
    #[allow(clippy::too_many_arguments)]
    pub fn add_complete(
        &mut self,
        process: ProcessId,
        service: ServiceId,
        kind: OpKind,
        invoke: Timestamp,
        response: Timestamp,
        result: OpResult,
    ) -> OpId {
        let id = OpId(self.ops.len() as u32);
        self.ops.push(OpRecord {
            id,
            process,
            service,
            kind,
            invoke,
            outcome: Some((response, result)),
        });
        id
    }

    /// Records an operation whose response was never observed.
    pub fn add_incomplete(
        &mut self,
        process: ProcessId,
        service: ServiceId,
        kind: OpKind,
        invoke: Timestamp,
    ) -> OpId {
        let id = OpId(self.ops.len() as u32);
        self.ops.push(OpRecord { id, process, service, kind, invoke, outcome: None });
        id
    }

    /// Records a message between two application processes. Such messages are
    /// part of the causal order (Section 3.3, "message passing").
    pub fn add_message(
        &mut self,
        from: ProcessId,
        sent_at: Timestamp,
        to: ProcessId,
        received_at: Timestamp,
    ) {
        self.messages.push(MessageEdge { from, sent_at, to, received_at });
    }

    /// Records communication that happens entirely outside the application
    /// (e.g. a phone call between users). It is ignored by the causal order
    /// but available to anomaly detectors.
    pub fn add_external_communication(
        &mut self,
        from: ProcessId,
        sent_at: Timestamp,
        to: ProcessId,
        received_at: Timestamp,
    ) {
        self.external.push(MessageEdge { from, sent_at, to, received_at });
    }

    /// All operations, in insertion order.
    pub fn ops(&self) -> &[OpRecord] {
        &self.ops
    }

    /// The operation with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn op(&self, id: OpId) -> &OpRecord {
        &self.ops[id.index()]
    }

    /// Number of operations in the history.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True if the history contains no operations.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// All application-level message edges (part of the causal order).
    pub fn messages(&self) -> &[MessageEdge] {
        &self.messages
    }

    /// All external (out-of-band, user-level) communication edges.
    pub fn external_communications(&self) -> &[MessageEdge] {
        &self.external
    }

    /// The sub-history containing only this service's operations (with fresh,
    /// dense operation ids) and all message edges. Used to check composed
    /// non-composable models: a set of independently consistent services.
    pub fn project_service(&self, service: ServiceId) -> History {
        let mut h = History::new();
        for op in &self.ops {
            if op.service != service {
                continue;
            }
            match &op.outcome {
                Some((resp, result)) => {
                    h.add_complete(
                        op.process,
                        op.service,
                        op.kind.clone(),
                        op.invoke,
                        *resp,
                        result.clone(),
                    );
                }
                None => {
                    h.add_incomplete(op.process, op.service, op.kind.clone(), op.invoke);
                }
            }
        }
        h.messages = self.messages.clone();
        h.external = self.external.clone();
        h
    }

    /// Ids of all complete operations.
    pub fn complete_ids(&self) -> Vec<OpId> {
        self.ops.iter().filter(|o| o.is_complete()).map(|o| o.id).collect()
    }

    /// Ids of all incomplete operations.
    pub fn incomplete_ids(&self) -> Vec<OpId> {
        self.ops.iter().filter(|o| !o.is_complete()).map(|o| o.id).collect()
    }

    /// Ids of incomplete *mutating* operations — the ones whose effects may or
    /// may not be visible (the "extend with zero or more responses" clause in
    /// the RSS/RSC definitions).
    pub fn pending_mutations(&self) -> Vec<OpId> {
        self.ops.iter().filter(|o| !o.is_complete() && o.kind.is_mutating()).map(|o| o.id).collect()
    }

    /// The distinct processes appearing in the history, sorted.
    pub fn processes(&self) -> Vec<ProcessId> {
        let mut ps: Vec<ProcessId> = self.ops.iter().map(|o| o.process).collect();
        ps.sort();
        ps.dedup();
        ps
    }

    /// The distinct services appearing in the history, sorted.
    pub fn services(&self) -> Vec<ServiceId> {
        let mut ss: Vec<ServiceId> = self.ops.iter().map(|o| o.service).collect();
        ss.sort();
        ss.dedup();
        ss
    }

    /// Operations of `process`, ordered by invocation time (the process's
    /// sub-execution restricted to service interactions). Scans the whole
    /// history: to walk *every* process, take [`ByProcess`] instead.
    pub fn ops_of_process(&self, process: ProcessId) -> Vec<OpId> {
        let mut ids: Vec<OpId> =
            self.ops.iter().filter(|o| o.process == process).map(|o| o.id).collect();
        ids.sort_by_key(|id| (self.op(*id).invoke, *id));
        ids
    }

    /// Checks structural well-formedness (Section 3.1): responses follow
    /// invocations, a process has at most one outstanding operation, and
    /// messages are sent before they are received. (A result without a
    /// response, or the reverse, is not representable.)
    pub fn validate(&self) -> Result<(), HistoryError> {
        for op in &self.ops {
            if op.response().is_some_and(|resp| resp < op.invoke) {
                return Err(HistoryError::ResponseBeforeInvoke(op.id));
            }
        }
        for (a, b) in ByProcess::new(self).pairs() {
            let (a, b) = (self.op(a), self.op(b));
            // `a` must respond (or never respond but then it must be the
            // final op) before `b` is invoked.
            match a.response() {
                Some(resp) if resp <= b.invoke => {}
                _ => return Err(HistoryError::OverlappingOps(a.id, b.id)),
            }
        }
        for (i, m) in self.messages.iter().chain(self.external.iter()).enumerate() {
            if m.received_at < m.sent_at {
                return Err(HistoryError::MessageBeforeSend(i));
            }
        }
        Ok(())
    }
}

/// Every process's operations in process order, derived from a history in
/// one pass whose cost does not depend on the number of processes. The one
/// source of process order for whatever walks all processes: validation,
/// [`crate::order`]'s edges, [`HistoryIndex`], the witness checkers.
#[derive(Debug, Clone, Default)]
pub struct ByProcess {
    /// Every op id, grouped by process, each group sorted by `(invoke, id)`.
    ids: Vec<OpId>,
    /// Each process, ascending, with its group's range in `ids`.
    groups: Vec<(ProcessId, std::ops::Range<u32>)>,
}

impl ByProcess {
    /// Groups `history`'s operations by process.
    pub fn new(history: &History) -> Self {
        Self::group(history.ops.iter().map(|o| o.process), |id| history.op(id).invoke.as_micros())
    }

    /// [`Self::new`] from each op's process, in id order, and a way to read an
    /// op's invocation instant. A counting sort: number the processes as they
    /// first appear, lay their groups out in ascending order, scatter the ids,
    /// then sort each group — a scan when ids already ascend with invocations.
    fn group(processes: impl Iterator<Item = ProcessId>, invoke: impl Fn(OpId) -> u64) -> Self {
        use crate::hashing::FxBuildHasher;
        use std::collections::HashMap;

        let mut slot_of: HashMap<ProcessId, u32, FxBuildHasher> = HashMap::default();
        let mut counts: Vec<(ProcessId, u32)> = Vec::new();
        let slots: Vec<u32> = processes
            .map(|p| {
                let slot = *slot_of.entry(p).or_insert_with(|| {
                    counts.push((p, 0));
                    counts.len() as u32 - 1
                });
                counts[slot as usize].1 += 1;
                slot
            })
            .collect();
        let mut ascending: Vec<u32> = (0..counts.len() as u32).collect();
        ascending.sort_unstable_by_key(|&slot| counts[slot as usize].0);
        let mut cursor = vec![0u32; counts.len()];
        let mut groups = Vec::with_capacity(counts.len());
        let mut start = 0;
        for slot in ascending {
            let (process, count) = counts[slot as usize];
            cursor[slot as usize] = start;
            groups.push((process, start..start + count));
            start += count;
        }
        let mut ids = vec![OpId(0); slots.len()];
        for (id, &slot) in slots.iter().enumerate() {
            ids[cursor[slot as usize] as usize] = OpId(id as u32);
            cursor[slot as usize] += 1;
        }
        for (_, range) in &groups {
            ids[range.start as usize..range.end as usize]
                .sort_unstable_by_key(|id| (invoke(*id), *id));
        }
        ByProcess { ids, groups }
    }

    fn slice(&self, range: &std::ops::Range<u32>) -> &[OpId] {
        &self.ids[range.start as usize..range.end as usize]
    }

    /// Each process, ascending, with its operations sorted by `(invoke, id)`.
    pub fn iter(&self) -> impl Iterator<Item = (ProcessId, &[OpId])> + '_ {
        self.groups.iter().map(|(p, range)| (*p, self.slice(range)))
    }

    /// The operations of `process` sorted by `(invoke, id)`; empty if none.
    pub fn ops_of(&self, process: ProcessId) -> &[OpId] {
        match self.groups.binary_search_by_key(&process, |(p, _)| *p) {
            Ok(slot) => self.slice(&self.groups[slot].1),
            Err(_) => &[],
        }
    }

    /// Direct process-order pairs: consecutive operations of one process.
    pub fn pairs(&self) -> impl Iterator<Item = (OpId, OpId)> + '_ {
        self.iter().flat_map(|(_, ids)| ids.windows(2).map(|w| (w[0], w[1])))
    }

    /// For every op id, its immediate predecessor in its process's order —
    /// what [`crate::StreamingChecker::push`] takes as `prev_in_process`.
    pub fn predecessors(&self) -> Vec<Predecessor> {
        let mut prev = vec![Predecessor::NONE; self.ids.len()];
        for (a, b) in self.pairs() {
            prev[b.index()] = Predecessor(a.0);
        }
        prev
    }
}

/// An operation's immediate predecessor in its process's order, if any, in
/// the 4 bytes of an [`OpId`] (an `Option<OpId>` takes 8): one per op for
/// as long as a streaming certification runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Predecessor(u32);

impl Predecessor {
    /// No predecessor: the op is its process's first. (No history holds
    /// `u32::MAX` operations: ids are `u32` indices.)
    pub const NONE: Predecessor = Predecessor(u32::MAX);

    /// The predecessor's id, if there is one.
    pub fn get(self) -> Option<OpId> {
        (self != Self::NONE).then_some(OpId(self.0))
    }
}

/// Discriminant of an operation kind, exposed by [`HistoryIndex`] so the hot
/// checker loops can dispatch without touching the heap-carrying [`OpKind`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum KindTag {
    /// `OpKind::Read`.
    Read = 0,
    /// `OpKind::Write`.
    Write = 1,
    /// `OpKind::Rmw`.
    Rmw = 2,
    /// `OpKind::RoTxn`.
    RoTxn = 3,
    /// `OpKind::RwTxn`.
    RwTxn = 4,
    /// `OpKind::Enqueue`.
    Enqueue = 5,
    /// `OpKind::Dequeue`.
    Dequeue = 6,
    /// `OpKind::Fence`.
    Fence = 7,
}

/// Response instant used by [`HistoryIndex`] for incomplete operations.
const NO_RESPONSE: u64 = u64::MAX;

mod flags {
    pub const MUTATING: u8 = 1 << 0;
    pub const READ_ONLY: u8 = 1 << 1;
    pub const COMPLETE: u8 = 1 << 2;
    /// The recorded result's shape can never equal the shape a sequential
    /// replay produces (e.g. a `Read` whose result is a `Values` list), so
    /// the operation can never legally appear in a witness.
    pub const UNSAT_RESULT: u8 = 1 << 3;
}

/// A dense, arena-backed index over a [`History`], built once per check.
///
/// Every checker used to re-derive the same facts inside its inner loops —
/// `OpKind::written_keys` allocates a fresh `Vec` per call,
/// `History::ops_of_process` re-sorts per call, and per-key grouping went
/// through `HashMap<(ServiceId, Key), _>`. The index computes all of it in
/// one pass:
///
/// * contiguous op indices (op ids are already dense) with O(1) scalar
///   lookups for kind, interval, process, and service,
/// * flattened read-/write-key arenas holding *dense key ids* (an interned
///   `(service, key)` table), so per-key grouping is an array index,
/// * recorded observed values aligned with the read-key arena, so replay
///   checks need no `OpResult` reconstruction,
/// * per-process operation lists sorted once.
///
/// Shared by the exact search ([`crate::checker::search`]), the model
/// constraint builders ([`crate::checker::models`],
/// [`crate::checker::proximal`]), and the certificate checker
/// ([`crate::checker::certificate`]).
#[derive(Debug, Clone)]
pub struct HistoryIndex {
    num_ops: usize,
    invoke: Vec<u64>,
    response: Vec<u64>,
    service: Vec<u32>,
    kind_tag: Vec<KindTag>,
    flags: Vec<u8>,
    read_key_off: Vec<u32>,
    read_key_ids: Vec<u32>,
    read_obs: Vec<u64>,
    write_key_off: Vec<u32>,
    write_key_ids: Vec<u32>,
    write_vals: Vec<u64>,
    key_table: Vec<(ServiceId, Key)>,
    complete: Vec<OpId>,
    pending_mutations: Vec<OpId>,
    ops_by_process: ByProcess,
}

impl HistoryIndex {
    /// Builds the index in one pass over the history.
    pub fn new(history: &History) -> Self {
        use crate::hashing::FxBuildHasher;
        use std::collections::HashMap;

        let n = history.len();
        let mut index = HistoryIndex {
            num_ops: n,
            invoke: Vec::with_capacity(n),
            response: Vec::with_capacity(n),
            service: Vec::with_capacity(n),
            kind_tag: Vec::with_capacity(n),
            flags: Vec::with_capacity(n),
            read_key_off: Vec::with_capacity(n + 1),
            read_key_ids: Vec::new(),
            read_obs: Vec::new(),
            write_key_off: Vec::with_capacity(n + 1),
            write_key_ids: Vec::new(),
            write_vals: Vec::new(),
            key_table: Vec::new(),
            complete: Vec::new(),
            pending_mutations: Vec::new(),
            ops_by_process: ByProcess::default(),
        };
        let mut key_lookup: HashMap<(u32, u64), u32, FxBuildHasher> = HashMap::default();
        let mut intern = |svc: ServiceId, key: Key, table: &mut Vec<(ServiceId, Key)>| -> u32 {
            *key_lookup.entry((svc.0, key.0)).or_insert_with(|| {
                table.push((svc, key));
                (table.len() - 1) as u32
            })
        };

        index.read_key_off.push(0);
        index.write_key_off.push(0);
        let mut processes = Vec::with_capacity(n);
        for op in history.ops() {
            index.invoke.push(op.invoke.as_micros());
            index.response.push(op.response().map_or(NO_RESPONSE, Timestamp::as_micros));
            index.service.push(op.service.0);

            let mut f = 0u8;
            if op.kind.is_mutating() {
                f |= flags::MUTATING;
            }
            if op.kind.is_read_only() {
                f |= flags::READ_ONLY;
            }
            if op.is_complete() {
                f |= flags::COMPLETE;
                index.complete.push(op.id);
            } else if op.kind.is_mutating() {
                index.pending_mutations.push(op.id);
            }

            let tag = match &op.kind {
                OpKind::Read { .. } => KindTag::Read,
                OpKind::Write { .. } => KindTag::Write,
                OpKind::Rmw { .. } => KindTag::Rmw,
                OpKind::RoTxn { .. } => KindTag::RoTxn,
                OpKind::RwTxn { .. } => KindTag::RwTxn,
                OpKind::Enqueue { .. } => KindTag::Enqueue,
                OpKind::Dequeue { .. } => KindTag::Dequeue,
                OpKind::Fence => KindTag::Fence,
            };
            index.kind_tag.push(tag);

            // Read-/write-key arenas, with recorded observations (if any)
            // aligned positionally per read key. A result whose shape cannot
            // match a sequential replay marks the op unsatisfiable instead;
            // for `Values` results the shape check guarantees
            // `vs[j].0 == read_keys[j]`, so positional indexing is identical
            // to whole-result equality even with duplicate keys. The kinds
            // are matched inline so the build allocates nothing per op.
            let usable_result = match op.result() {
                Some(result) => {
                    if result_shape_matches(&op.kind, result) {
                        Some(result)
                    } else {
                        f |= flags::UNSAT_RESULT;
                        None
                    }
                }
                None => None,
            };
            let single_obs = match usable_result {
                Some(OpResult::Value(v)) => v.0,
                _ => Value::NULL.0,
            };
            let txn_obs = |j: usize| match usable_result {
                Some(OpResult::Values(vs)) => vs[j].1 .0,
                _ => Value::NULL.0,
            };
            match &op.kind {
                OpKind::Read { key } | OpKind::Dequeue { queue: key } => {
                    let id = intern(op.service, *key, &mut index.key_table);
                    index.read_key_ids.push(id);
                    index.read_obs.push(single_obs);
                }
                OpKind::Write { key, value } | OpKind::Enqueue { queue: key, value } => {
                    let id = intern(op.service, *key, &mut index.key_table);
                    index.write_key_ids.push(id);
                    index.write_vals.push(value.0);
                }
                OpKind::Rmw { key, value } => {
                    let id = intern(op.service, *key, &mut index.key_table);
                    index.read_key_ids.push(id);
                    index.read_obs.push(single_obs);
                    index.write_key_ids.push(id);
                    index.write_vals.push(value.0);
                }
                OpKind::RoTxn { keys } => {
                    for (j, k) in keys.iter().enumerate() {
                        let id = intern(op.service, *k, &mut index.key_table);
                        index.read_key_ids.push(id);
                        index.read_obs.push(txn_obs(j));
                    }
                }
                OpKind::RwTxn { read_keys, writes } => {
                    for (j, k) in read_keys.iter().enumerate() {
                        let id = intern(op.service, *k, &mut index.key_table);
                        index.read_key_ids.push(id);
                        index.read_obs.push(txn_obs(j));
                    }
                    for (k, v) in writes {
                        let id = intern(op.service, *k, &mut index.key_table);
                        index.write_key_ids.push(id);
                        index.write_vals.push(v.0);
                    }
                }
                OpKind::Fence => {}
            }
            index.read_key_off.push(index.read_key_ids.len() as u32);
            index.write_key_off.push(index.write_key_ids.len() as u32);

            index.flags.push(f);
            processes.push(op.process);
        }
        index.ops_by_process =
            ByProcess::group(processes.into_iter(), |id| index.invoke[id.index()]);
        index
    }

    /// Number of operations.
    #[inline]
    pub fn len(&self) -> usize {
        self.num_ops
    }

    /// True if the history has no operations.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.num_ops == 0
    }

    /// The operation-kind discriminant.
    #[inline]
    pub fn kind_tag(&self, i: usize) -> KindTag {
        self.kind_tag[i]
    }

    /// True if the operation mutates service state.
    #[inline]
    pub fn is_mutating(&self, i: usize) -> bool {
        self.flags[i] & flags::MUTATING != 0
    }

    /// True if the operation is read-only.
    #[inline]
    pub fn is_read_only(&self, i: usize) -> bool {
        self.flags[i] & flags::READ_ONLY != 0
    }

    /// True if the operation completed (so it has a recorded result to
    /// check against).
    #[inline]
    pub fn is_complete(&self, i: usize) -> bool {
        self.flags[i] & flags::COMPLETE != 0
    }

    /// True if the recorded result's shape can never match a replay (the
    /// operation can never legally be placed in a sequence).
    #[inline]
    pub fn has_unsat_result(&self, i: usize) -> bool {
        self.flags[i] & flags::UNSAT_RESULT != 0
    }

    /// Invocation instant in microseconds.
    #[inline]
    pub fn invoke_us(&self, i: usize) -> u64 {
        self.invoke[i]
    }

    /// Response instant in microseconds, or `None` if incomplete.
    #[inline]
    pub fn response_us(&self, i: usize) -> Option<u64> {
        let r = self.response[i];
        (r != NO_RESPONSE).then_some(r)
    }

    /// True if op `a` precedes op `b` in real time.
    #[inline]
    pub fn real_time_precedes(&self, a: usize, b: usize) -> bool {
        self.response[a] != NO_RESPONSE && self.response[a] < self.invoke[b]
    }

    /// Raw service id the operation targets.
    #[inline]
    pub fn service_raw(&self, i: usize) -> u32 {
        self.service[i]
    }

    /// Dense key ids this operation reads (queue key for dequeues).
    #[inline]
    pub fn read_key_ids(&self, i: usize) -> &[u32] {
        &self.read_key_ids[self.read_key_off[i] as usize..self.read_key_off[i + 1] as usize]
    }

    /// Recorded observed values aligned with [`HistoryIndex::read_key_ids`];
    /// meaningful only when [`HistoryIndex::is_complete`] holds and the op is
    /// not [`HistoryIndex::has_unsat_result`].
    #[inline]
    pub fn read_observations(&self, i: usize) -> &[u64] {
        &self.read_obs[self.read_key_off[i] as usize..self.read_key_off[i + 1] as usize]
    }

    /// Dense key ids this operation writes (queue key for enqueues).
    #[inline]
    pub fn write_key_ids(&self, i: usize) -> &[u32] {
        &self.write_key_ids[self.write_key_off[i] as usize..self.write_key_off[i + 1] as usize]
    }

    /// Values written, aligned with [`HistoryIndex::write_key_ids`].
    #[inline]
    pub fn write_values(&self, i: usize) -> &[u64] {
        &self.write_vals[self.write_key_off[i] as usize..self.write_key_off[i + 1] as usize]
    }

    /// Number of distinct `(service, key)` pairs in the history.
    #[inline]
    pub fn num_dense_keys(&self) -> usize {
        self.key_table.len()
    }

    /// Ids of all complete operations, in insertion order.
    #[inline]
    pub fn complete_ids(&self) -> &[OpId] {
        &self.complete
    }

    /// Ids of incomplete mutating operations, in insertion order.
    #[inline]
    pub fn pending_mutations(&self) -> &[OpId] {
        &self.pending_mutations
    }

    /// Per-process operation lists, sorted by process id; each list is sorted
    /// by `(invoke, id)`.
    #[inline]
    pub fn ops_by_process(&self) -> &ByProcess {
        &self.ops_by_process
    }
}

/// True if `result`'s shape is the one a sequential replay of `kind` would
/// produce (replay checks compare per key only when this holds).
pub(crate) fn result_shape_matches(kind: &OpKind, result: &OpResult) -> bool {
    match kind {
        OpKind::Write { .. } | OpKind::Enqueue { .. } | OpKind::Fence => true,
        OpKind::Read { .. } | OpKind::Rmw { .. } | OpKind::Dequeue { .. } => {
            matches!(result, OpResult::Value(_))
        }
        OpKind::RoTxn { keys } => match result {
            OpResult::Values(vs) => {
                vs.len() == keys.len() && vs.iter().zip(keys).all(|((k, _), key)| k == key)
            }
            _ => false,
        },
        OpKind::RwTxn { read_keys, .. } => match result {
            OpResult::Values(vs) => {
                vs.len() == read_keys.len()
                    && vs.iter().zip(read_keys).all(|((k, _), key)| k == key)
            }
            _ => false,
        },
    }
}

/// A small fluent builder for hand-constructing histories in tests and in the
/// Appendix A comparison harness, with explicit invocation/response instants.
#[derive(Debug, Default)]
pub struct HistoryBuilder {
    history: History,
}

impl HistoryBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a complete write `key := value` on the default service.
    pub fn write(&mut self, p: u32, key: u64, value: u64, invoke: u64, response: u64) -> OpId {
        self.history.add_complete(
            ProcessId(p),
            ServiceId::KV,
            OpKind::Write { key: Key(key), value: Value(value) },
            Timestamp(invoke),
            Timestamp(response),
            OpResult::Ack,
        )
    }

    /// Adds a complete read of `key` returning `value`.
    pub fn read(&mut self, p: u32, key: u64, value: u64, invoke: u64, response: u64) -> OpId {
        self.history.add_complete(
            ProcessId(p),
            ServiceId::KV,
            OpKind::Read { key: Key(key) },
            Timestamp(invoke),
            Timestamp(response),
            OpResult::Value(Value(value)),
        )
    }

    /// Adds an incomplete write (invoked, never responded).
    pub fn pending_write(&mut self, p: u32, key: u64, value: u64, invoke: u64) -> OpId {
        self.history.add_incomplete(
            ProcessId(p),
            ServiceId::KV,
            OpKind::Write { key: Key(key), value: Value(value) },
            Timestamp(invoke),
        )
    }

    /// Adds a complete read-write transaction.
    pub fn rw_txn(
        &mut self,
        p: u32,
        reads: &[(u64, u64)],
        writes: &[(u64, u64)],
        invoke: u64,
        response: u64,
    ) -> OpId {
        self.history.add_complete(
            ProcessId(p),
            ServiceId::KV,
            OpKind::RwTxn {
                read_keys: reads.iter().map(|&(k, _)| Key(k)).collect(),
                writes: writes.iter().map(|&(k, v)| (Key(k), Value(v))).collect(),
            },
            Timestamp(invoke),
            Timestamp(response),
            OpResult::Values(reads.iter().map(|&(k, v)| (Key(k), Value(v))).collect()),
        )
    }

    /// Adds a complete read-only transaction.
    pub fn ro_txn(&mut self, p: u32, reads: &[(u64, u64)], invoke: u64, response: u64) -> OpId {
        self.history.add_complete(
            ProcessId(p),
            ServiceId::KV,
            OpKind::RoTxn { keys: reads.iter().map(|&(k, _)| Key(k)).collect() },
            Timestamp(invoke),
            Timestamp(response),
            OpResult::Values(reads.iter().map(|&(k, v)| (Key(k), Value(v))).collect()),
        )
    }

    /// Adds an out-of-band message between processes.
    pub fn message(&mut self, from: u32, sent_at: u64, to: u32, received_at: u64) -> &mut Self {
        self.history.add_message(
            ProcessId(from),
            Timestamp(sent_at),
            ProcessId(to),
            Timestamp(received_at),
        );
        self
    }

    /// Finishes the builder, returning the history.
    pub fn build(self) -> History {
        self.history
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_op_record_stays_within_its_byte_budget() {
        assert_eq!(std::mem::size_of::<OpRecord>(), 96);
    }

    #[test]
    fn builder_and_accessors() {
        let mut b = HistoryBuilder::new();
        let w = b.write(1, 1, 10, 0, 5);
        let r = b.read(2, 1, 10, 6, 8);
        let pw = b.pending_write(3, 2, 7, 9);
        b.message(1, 5, 2, 6);
        let h = b.build();

        assert_eq!(h.len(), 3);
        assert!(!h.is_empty());
        assert_eq!(h.complete_ids(), vec![w, r]);
        assert_eq!(h.incomplete_ids(), vec![pw]);
        assert_eq!(h.pending_mutations(), vec![pw]);
        assert_eq!(h.processes(), vec![ProcessId(1), ProcessId(2), ProcessId(3)]);
        assert_eq!(h.services(), vec![ServiceId::KV]);
        assert_eq!(h.messages().len(), 1);
        assert_eq!(h.op(w).observed_value(Key(1)), None);
        assert_eq!(h.op(r).observed_value(Key(1)), Some(Value(10)));
        assert!(h.validate().is_ok());
    }

    #[test]
    fn validate_rejects_response_before_invoke() {
        let mut h = History::new();
        h.add_complete(
            ProcessId(1),
            ServiceId::KV,
            OpKind::Read { key: Key(1) },
            Timestamp(10),
            Timestamp(5),
            OpResult::Value(Value::NULL),
        );
        assert_eq!(h.validate(), Err(HistoryError::ResponseBeforeInvoke(OpId(0))));
    }

    #[test]
    fn validate_rejects_overlapping_ops_in_one_process() {
        let mut b = HistoryBuilder::new();
        b.write(1, 1, 10, 0, 10);
        b.read(1, 1, 10, 5, 20);
        let h = b.build();
        assert!(matches!(h.validate(), Err(HistoryError::OverlappingOps(_, _))));
    }

    #[test]
    fn validate_rejects_message_received_before_sent() {
        let mut b = HistoryBuilder::new();
        b.write(1, 1, 10, 0, 1);
        b.message(1, 10, 2, 5);
        let h = b.build();
        assert_eq!(h.validate(), Err(HistoryError::MessageBeforeSend(0)));
    }

    #[test]
    fn incomplete_final_op_is_well_formed() {
        let mut b = HistoryBuilder::new();
        b.write(1, 1, 10, 0, 5);
        b.pending_write(1, 2, 20, 6);
        let h = b.build();
        assert!(h.validate().is_ok());
    }

    #[test]
    fn ops_of_process_sorted_by_invocation() {
        let mut h = History::new();
        // Inserted out of order on purpose.
        let b = h.add_complete(
            ProcessId(1),
            ServiceId::KV,
            OpKind::Read { key: Key(1) },
            Timestamp(10),
            Timestamp(12),
            OpResult::Value(Value::NULL),
        );
        let a = h.add_complete(
            ProcessId(1),
            ServiceId::KV,
            OpKind::Read { key: Key(1) },
            Timestamp(1),
            Timestamp(3),
            OpResult::Value(Value::NULL),
        );
        assert_eq!(h.ops_of_process(ProcessId(1)), vec![a, b]);
    }
}
