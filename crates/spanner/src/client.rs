//! The Spanner client protocol core: read-write transactions via two-phase
//! commit, the read-only transaction protocols of Spanner (blocking) and
//! Spanner-RSS (Algorithm 1), and a TrueTime-based real-time fence.
//!
//! The core implements [`regular_session::Service`]: session arrival, pacing,
//! and batching live in the protocol-agnostic
//! [`regular_session::SessionRunner`]; this module only executes operations.
//! Each *session* still owns the protocol state the paper attaches to it —
//! the minimum read timestamp `t_min` capturing its causal past — shared by
//! all of the session's pipeline slots.
//!
//! # Operation mapping
//!
//! Spanner is a transactional store, so the non-transactional session
//! operations are served as single-key transactions: `Read` as a read-only
//! transaction, `Write`/`Rmw` as a read-write transaction. `Fence` is a
//! client-side TrueTime barrier: it picks `t_f = TT.now().latest`, waits
//! until `t_f` has definitely passed (`TT.now().earliest > t_f`, the commit
//! wait argument), and raises the session's `t_min` to `t_f`, so every
//! transaction the session subsequently issues — at this or, via `libRSS`,
//! another service — is serialized after everything that committed before the
//! fence.

use rand::Rng;

use regular_core::hashing::{FxHashMap, FxHashSet};
use regular_core::op::{OpKind, OpResult};
use regular_core::types::{Key, ServiceId, Value};
use regular_session::{service_tag, CompletedRecord, LaneId, Service, SessionOp, WitnessHint};
use regular_sim::engine::{Context, NodeId};
use regular_sim::net::{LatencyMatrix, Region};
use regular_sim::time::{SimDuration, SimTime};

use crate::config::Mode;
use crate::messages::{PreparedInfo, SpannerMsg, Ts, TxnId};
use crate::workload::TxnRequest;

/// Static client configuration (shared by every client node of a cluster).
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Protocol variant.
    pub mode: Mode,
    /// Region this client runs in.
    pub region: usize,
    /// Node id of each shard leader, indexed by shard.
    pub shard_nodes: Vec<NodeId>,
    /// Region of each shard leader, indexed by shard.
    pub shard_regions: Vec<usize>,
    /// Replication delay of each shard, indexed by shard.
    pub replication_delays: Vec<SimDuration>,
    /// The network model, used to estimate the earliest end time `t_ee`.
    pub net: LatencyMatrix,
    /// TrueTime uncertainty bound (for the `t_ee` estimate).
    pub truetime_epsilon: SimDuration,
    /// Abort-and-retry timeout for the commit phase.
    pub commit_timeout: SimDuration,
    /// Back-off before retrying an aborted transaction.
    pub retry_backoff: SimDuration,
    /// Timeout after which a transaction stuck before its commit phase is
    /// abandoned and re-issued (see
    /// [`crate::config::SpannerConfig::op_timeout`]). `None` disables the
    /// retry path.
    pub op_timeout: Option<SimDuration>,
}

/// Aggregate client statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClientStats {
    /// Completed read-write transactions.
    pub rw_completed: u64,
    /// Completed read-only transactions.
    pub ro_completed: u64,
    /// Completed fences.
    pub fences: u64,
    /// Read-write attempts that aborted (timeout) and were retried.
    pub aborted_attempts: u64,
    /// Read-only transactions that had to wait for slow replies (Spanner-RSS).
    pub ro_waited_slow: u64,
    /// Transactions abandoned and re-issued after an operation timeout (a
    /// crashed shard or a lost message; fault runs only).
    pub timeout_retries: u64,
}

#[derive(Debug)]
struct Session {
    t_min: Ts,
}

#[derive(Debug)]
enum Phase {
    Execute {
        pending: FxHashSet<NodeId>,
    },
    Committing,
    RoFast {
        pending: FxHashSet<NodeId>,
    },
    RoSlow,
    /// A fence waiting out its TrueTime barrier.
    Fence,
}

#[derive(Debug)]
struct AbandonedTxn {
    lane: LaneId,
    invoke: SimTime,
    attempts: u32,
    writes: Vec<(Key, Value)>,
    /// The 2PC coordinator, probed for the outcome under fault schedules.
    coordinator: NodeId,
}

#[derive(Debug)]
struct ActiveTxn {
    lane: LaneId,
    request: TxnRequest,
    invoke: SimTime,
    phase: Phase,
    attempts: u32,
    // Read-write state.
    writes_by_shard: Vec<(NodeId, Vec<(Key, Value)>)>,
    coordinator: NodeId,
    t_ee: Ts,
    commit_timer: Option<u64>,
    // Read-only state.
    t_read: Ts,
    t_min_at_start: Ts,
    versions: FxHashMap<Key, Vec<(Ts, Value)>>,
    skipped: FxHashMap<TxnId, Ts>,
    resolved_early: FxHashSet<TxnId>,
    t_snap: Ts,
}

enum TimerAction {
    RetryTxn { seq: u64 },
    CommitTimeout { seq: u64 },
    OpTimeout { seq: u64 },
    ProbeAbandoned { seq: u64 },
    FinishRw { seq: u64, t_commit: Ts },
    FinishFence { seq: u64 },
}

/// The Spanner / Spanner-RSS client protocol core (a
/// [`regular_session::Service`]).
pub struct SpannerService {
    cfg: ClientConfig,
    service: ServiceId,
    sessions: FxHashMap<u64, Session>,
    txns: FxHashMap<u64, ActiveTxn>,
    abandoned: FxHashMap<u64, AbandonedTxn>,
    next_seq: u64,
    value_counter: u64,
    timers: FxHashMap<u64, TimerAction>,
    next_timer: u64,
    completed: Vec<CompletedRecord>,
    /// Aggregate statistics.
    pub stats: ClientStats,
}

impl SpannerService {
    /// Creates a client protocol core with the given configuration.
    pub fn new(cfg: ClientConfig) -> Self {
        SpannerService {
            cfg,
            service: ServiceId::KV,
            sessions: FxHashMap::default(),
            txns: FxHashMap::default(),
            abandoned: FxHashMap::default(),
            next_seq: 0,
            value_counter: 0,
            timers: FxHashMap::default(),
            next_timer: 0,
            completed: Vec::new(),
            stats: ClientStats::default(),
        }
    }

    /// Sets the service id recorded on this core's operations (defaults to
    /// [`ServiceId::KV`]); composed deployments give each store its own id.
    pub fn with_service_id(mut self, service: ServiceId) -> Self {
        self.service = service;
        self
    }

    fn set_timer(
        &mut self,
        ctx: &mut Context<SpannerMsg>,
        delay: SimDuration,
        action: TimerAction,
    ) -> u64 {
        let tag = service_tag(&mut self.next_timer);
        self.timers.insert(tag, action);
        ctx.set_timer(delay, tag);
        tag
    }

    /// Retry delay after an aborted attempt: randomized exponential backoff.
    ///
    /// A fixed backoff livelocks conflicting transactions. Two lanes whose
    /// write sets overlap in opposite lock order deadlock in prepare, both
    /// hit the same commit timeout, abort, and — with identical backoff and
    /// (for co-located lanes) identical latencies — re-issue in lockstep and
    /// deadlock again, forever. Jitter drawn from the engine RNG breaks the
    /// symmetry while keeping runs seed-deterministic.
    fn retry_delay(&self, ctx: &mut Context<SpannerMsg>, attempts: u32) -> SimDuration {
        let base = self.cfg.retry_backoff.as_micros().max(1);
        // Window doubles per attempt, capped at 64x base.
        let window = base << attempts.saturating_sub(1).min(6);
        SimDuration::from_micros(base + ctx.rng().gen_range(0..window))
    }

    fn shard_of(&self, key: Key) -> usize {
        (key.0 % self.cfg.shard_nodes.len() as u64) as usize
    }

    fn shards_for(&self, keys: &[Key]) -> Vec<usize> {
        let mut shards: Vec<usize> = keys.iter().map(|k| self.shard_of(*k)).collect();
        shards.sort_unstable();
        shards.dedup();
        shards
    }

    fn fresh_value(&mut self, ctx: &Context<SpannerMsg>) -> Value {
        self.value_counter += 1;
        Value(((ctx.node_id() as u64 + 1) << 40) | self.value_counter)
    }

    fn t_min_of(&self, session: u64) -> Ts {
        self.sessions.get(&session).map(|s| s.t_min).unwrap_or(0)
    }

    fn raise_t_min(&mut self, session: u64, to: Ts) {
        let s = self.sessions.entry(session).or_insert(Session { t_min: 0 });
        s.t_min = s.t_min.max(to);
    }

    /// Estimated minimum commit latency (in microseconds) when using
    /// `coordinator` for a transaction spanning `participants`.
    fn estimate_commit_latency(&self, coordinator: usize, participants: &[usize]) -> u64 {
        let client = Region(self.cfg.region);
        let coord_region = Region(self.cfg.shard_regions[coordinator]);
        let one_way_client = self.cfg.net.one_way(client, coord_region).as_micros();
        let prepare = participants
            .iter()
            .map(|&p| {
                let pr = Region(self.cfg.shard_regions[p]);
                let net = if p == coordinator {
                    0
                } else {
                    2 * self.cfg.net.one_way(coord_region, pr).as_micros()
                };
                net + self.cfg.replication_delays[p].as_micros()
            })
            .max()
            .unwrap_or(0);
        let commit = self.cfg.replication_delays[coordinator].as_micros()
            + 2 * self.cfg.truetime_epsilon.as_micros();
        2 * one_way_client + prepare + commit
    }

    fn pick_coordinator(&self, participants: &[usize]) -> (usize, u64) {
        participants
            .iter()
            .map(|&c| (c, self.estimate_commit_latency(c, participants)))
            .min_by_key(|&(_, est)| est)
            .expect("transactions access at least one shard")
    }

    /// Issues (or re-issues, after an abort) the transaction `seq`. A stale
    /// retry timer may fire for a sequence number the operation timeout has
    /// already abandoned (and re-issued under a fresh number) — that retry
    /// must die here, not resurrect the old attempt.
    fn issue(&mut self, ctx: &mut Context<SpannerMsg>, seq: u64) {
        let (request, session) = {
            let Some(t) = self.txns.get(&seq) else { return };
            (t.request.clone(), t.lane.session)
        };
        // Under a fault schedule the request (or every reply) may be lost:
        // watch the pre-commit phases with a timeout so the lane cannot
        // stall forever on a crashed shard.
        if let Some(timeout) = self.cfg.op_timeout {
            self.set_timer(ctx, timeout, TimerAction::OpTimeout { seq });
        }
        let txn_id = TxnId { client: ctx.node_id(), seq };
        match &request {
            TxnRequest::ReadWrite { keys } => {
                let shards = self.shards_for(keys);
                let pending: FxHashSet<NodeId> =
                    shards.iter().map(|&s| self.cfg.shard_nodes[s]).collect();
                for &s in &shards {
                    let shard_keys: Vec<Key> =
                        keys.iter().filter(|k| self.shard_of(**k) == s).copied().collect();
                    ctx.send(
                        self.cfg.shard_nodes[s],
                        SpannerMsg::ExecRead { txn: txn_id, keys: shard_keys },
                    );
                }
                let t = self.txns.get_mut(&seq).expect("transaction exists");
                t.phase = Phase::Execute { pending };
            }
            TxnRequest::ReadOnly { keys } => {
                let t_read = ctx.truetime_now().latest.as_micros();
                let t_min = match self.cfg.mode {
                    Mode::Spanner => 0,
                    Mode::SpannerRss => self.t_min_of(session),
                };
                let shards = self.shards_for(keys);
                let pending: FxHashSet<NodeId> =
                    shards.iter().map(|&s| self.cfg.shard_nodes[s]).collect();
                for &s in &shards {
                    let shard_keys: Vec<Key> =
                        keys.iter().filter(|k| self.shard_of(**k) == s).copied().collect();
                    ctx.send(
                        self.cfg.shard_nodes[s],
                        SpannerMsg::RoCommit { txn: txn_id, keys: shard_keys, t_read, t_min },
                    );
                }
                let t = self.txns.get_mut(&seq).expect("transaction exists");
                t.t_read = t_read;
                t.t_min_at_start = t_min;
                t.phase = Phase::RoFast { pending };
            }
        }
    }

    fn begin_commit(&mut self, ctx: &mut Context<SpannerMsg>, seq: u64) {
        let keys: Vec<Key> = self.txns[&seq].request.keys().to_vec();
        let shards = self.shards_for(&keys);
        let (coordinator, est) = self.pick_coordinator(&shards);
        let t_ee = ctx.truetime_now().earliest.as_micros() + est;
        // Assign fresh, globally unique values to every written key and group
        // the writes by participant shard.
        let mut assigned: Vec<(NodeId, Vec<(Key, Value)>)> = Vec::new();
        for &s in &shards {
            let shard_keys: Vec<Key> =
                keys.iter().filter(|k| self.shard_of(**k) == s).copied().collect();
            let mut vs = Vec::with_capacity(shard_keys.len());
            for k in shard_keys {
                let v = self.fresh_value(ctx);
                vs.push((k, v));
            }
            assigned.push((self.cfg.shard_nodes[s], vs));
        }
        let txn_id = TxnId { client: ctx.node_id(), seq };
        let coord_node = self.cfg.shard_nodes[coordinator];
        ctx.send(
            coord_node,
            SpannerMsg::CommitRequest { txn: txn_id, writes_by_shard: assigned.clone(), t_ee },
        );
        let timeout = self.cfg.commit_timeout;
        let tag = self.set_timer(ctx, timeout, TimerAction::CommitTimeout { seq });
        let t = self.txns.get_mut(&seq).expect("transaction exists");
        t.phase = Phase::Committing;
        t.writes_by_shard = assigned;
        t.coordinator = coord_node;
        t.t_ee = t_ee;
        t.commit_timer = Some(tag);
    }

    fn finish_txn(&mut self, seq: u64, record: CompletedRecord) {
        self.txns.remove(&seq).expect("transaction exists");
        if record.kind.is_read_only() {
            self.stats.ro_completed += 1;
        } else if record.kind.is_fence() {
            self.stats.fences += 1;
        } else {
            self.stats.rw_completed += 1;
        }
        self.completed.push(record);
    }

    // ----- Read-only completion logic (Algorithm 1) -----

    fn ro_calculate_snapshot(&self, seq: u64) -> Ts {
        let txn = &self.txns[&seq];
        let mut t_snap = 0;
        for key in txn.request.keys() {
            let earliest = txn
                .versions
                .get(key)
                .and_then(|vs| vs.iter().map(|(ts, _)| *ts).min())
                .unwrap_or(0);
            t_snap = t_snap.max(earliest);
        }
        t_snap
    }

    fn ro_try_finish(&mut self, ctx: &mut Context<SpannerMsg>, seq: u64) {
        let (t_snap, ready) = {
            let txn = &self.txns[&seq];
            let t_snap = if txn.t_snap == 0 { self.ro_calculate_snapshot(seq) } else { txn.t_snap };
            let min_prepared = txn.skipped.values().copied().min();
            let ready = match min_prepared {
                None => true,
                Some(tp) => tp > t_snap,
            };
            (t_snap, ready)
        };
        {
            let txn = self.txns.get_mut(&seq).expect("transaction exists");
            txn.t_snap = t_snap;
        }
        if !ready {
            let txn = self.txns.get_mut(&seq).expect("transaction exists");
            if !matches!(txn.phase, Phase::RoSlow) {
                txn.phase = Phase::RoSlow;
                self.stats.ro_waited_slow += 1;
            }
            return;
        }
        // Assemble the result: for each key, the latest version at or before
        // the snapshot timestamp.
        let (record, session, t_snap) = {
            let txn = &self.txns[&seq];
            let keys = txn.request.keys().to_vec();
            let mut results = Vec::new();
            for key in &keys {
                let v = txn
                    .versions
                    .get(key)
                    .and_then(|vs| {
                        vs.iter().filter(|(ts, _)| *ts <= t_snap).max_by_key(|(ts, _)| *ts).copied()
                    })
                    .map(|(_, v)| v)
                    .unwrap_or(Value::NULL);
                results.push((*key, v));
            }
            let timestamp = match self.cfg.mode {
                Mode::Spanner => txn.t_read,
                Mode::SpannerRss => t_snap.max(txn.t_min_at_start),
            };
            (
                CompletedRecord {
                    service: self.service,
                    kind: OpKind::RoTxn { keys },
                    result: OpResult::Values(results),
                    invoke: txn.invoke,
                    finish: ctx.now(),
                    session: txn.lane.session,
                    slot: txn.lane.slot,
                    attempts: txn.attempts,
                    rounds: 1,
                    orphan: false,
                    witness: WitnessHint::Timestamp { ts: timestamp },
                },
                txn.lane.session,
                t_snap,
            )
        };
        self.raise_t_min(session, t_snap);
        self.finish_txn(seq, record);
    }
}

impl Service for SpannerService {
    type Msg = SpannerMsg;

    fn service_id(&self) -> ServiceId {
        self.service
    }

    fn name(&self) -> &str {
        match self.cfg.mode {
            Mode::Spanner => "spanner",
            Mode::SpannerRss => "spanner-rss",
        }
    }

    fn submit(&mut self, ctx: &mut Context<SpannerMsg>, lane: LaneId, op: SessionOp) {
        self.sessions.entry(lane.session).or_insert(Session { t_min: 0 });
        let request = match op {
            SessionOp::RoTxn { keys } => TxnRequest::ReadOnly { keys },
            SessionOp::Read { key } => TxnRequest::ReadOnly { keys: vec![key] },
            SessionOp::RwTxn { keys } => TxnRequest::ReadWrite { keys },
            // A transactional store serves single-key mutations as
            // single-key read-write transactions.
            SessionOp::Write { key } | SessionOp::Rmw { key } => {
                TxnRequest::ReadWrite { keys: vec![key] }
            }
            SessionOp::Fence => {
                // TrueTime barrier: pick t_f = TT.now().latest and wait until
                // it has definitely passed; afterwards the session's t_min
                // covers everything serialized before the fence.
                let now = ctx.truetime_now();
                let t_f = now.latest.as_micros();
                let seq = self.next_seq;
                self.next_seq += 1;
                self.txns.insert(
                    seq,
                    ActiveTxn {
                        lane,
                        request: TxnRequest::ReadOnly { keys: Vec::new() },
                        invoke: ctx.now(),
                        phase: Phase::Fence,
                        attempts: 1,
                        writes_by_shard: Vec::new(),
                        coordinator: 0,
                        t_ee: 0,
                        commit_timer: None,
                        t_read: t_f,
                        t_min_at_start: 0,
                        versions: FxHashMap::default(),
                        skipped: FxHashMap::default(),
                        resolved_early: FxHashSet::default(),
                        t_snap: 0,
                    },
                );
                let wait =
                    SimDuration::from_micros(t_f.saturating_sub(now.earliest.as_micros()) + 1);
                self.set_timer(ctx, wait, TimerAction::FinishFence { seq });
                return;
            }
        };
        let seq = self.next_seq;
        self.next_seq += 1;
        self.txns.insert(
            seq,
            ActiveTxn {
                lane,
                request,
                invoke: ctx.now(),
                phase: Phase::Execute { pending: FxHashSet::default() },
                attempts: 1,
                writes_by_shard: Vec::new(),
                coordinator: 0,
                t_ee: 0,
                commit_timer: None,
                t_read: 0,
                t_min_at_start: 0,
                versions: FxHashMap::default(),
                skipped: FxHashMap::default(),
                resolved_early: FxHashSet::default(),
                t_snap: 0,
            },
        );
        self.issue(ctx, seq);
    }

    fn on_timer(&mut self, ctx: &mut Context<SpannerMsg>, tag: u64) {
        let Some(action) = self.timers.remove(&tag) else { return };
        match action {
            TimerAction::RetryTxn { seq } => self.issue(ctx, seq),
            TimerAction::OpTimeout { seq } => {
                let Some(txn) = self.txns.get(&seq) else { return };
                // Only the pre-commit phases are watched here: the commit
                // phase has its own timeout, and fences always complete
                // locally. Pre-commit phases have no visible effects, so the
                // attempt can be abandoned outright and re-issued fresh
                // (stale replies to the old sequence number are ignored).
                if !matches!(
                    txn.phase,
                    Phase::Execute { .. } | Phase::RoFast { .. } | Phase::RoSlow
                ) {
                    return;
                }
                self.stats.timeout_retries += 1;
                let old = self.txns.remove(&seq).expect("transaction exists");
                let new_seq = self.next_seq;
                self.next_seq += 1;
                self.txns.insert(
                    new_seq,
                    ActiveTxn {
                        lane: old.lane,
                        request: old.request,
                        invoke: old.invoke,
                        phase: Phase::Execute { pending: FxHashSet::default() },
                        attempts: old.attempts + 1,
                        writes_by_shard: Vec::new(),
                        coordinator: 0,
                        t_ee: 0,
                        commit_timer: None,
                        t_read: 0,
                        t_min_at_start: 0,
                        versions: FxHashMap::default(),
                        skipped: FxHashMap::default(),
                        resolved_early: FxHashSet::default(),
                        t_snap: 0,
                    },
                );
                self.issue(ctx, new_seq);
            }
            TimerAction::CommitTimeout { seq } => {
                let Some(txn) = self.txns.get(&seq) else { return };
                if !matches!(txn.phase, Phase::Committing) {
                    return;
                }
                self.stats.aborted_attempts += 1;
                let coordinator = txn.coordinator;
                let old_id = TxnId { client: ctx.node_id(), seq };
                ctx.send(coordinator, SpannerMsg::AbortRequest { txn: old_id });
                // Move the attempt to the abandoned set: if the commit still
                // lands, its writes become part of the history as an orphan.
                let old = self.txns.remove(&seq).expect("transaction exists");
                self.abandoned.insert(
                    seq,
                    AbandonedTxn {
                        lane: old.lane,
                        invoke: old.invoke,
                        attempts: old.attempts,
                        writes: old.writes_by_shard.iter().flat_map(|(_, w)| w.clone()).collect(),
                        coordinator,
                    },
                );
                // Under a fault schedule the abort/commit reply itself may be
                // lost, leaving the outcome unknown — and an unknowingly
                // committed write would be visible yet absent from the
                // recorded history. Probe the coordinator's durable decision
                // log until the outcome is learned (2PC cooperative
                // termination).
                if let Some(probe_after) = self.cfg.op_timeout {
                    self.set_timer(ctx, probe_after, TimerAction::ProbeAbandoned { seq });
                }
                // Re-issue under a fresh sequence number so stale replies are
                // not confused with the new attempt.
                let new_seq = self.next_seq;
                self.next_seq += 1;
                self.txns.insert(
                    new_seq,
                    ActiveTxn {
                        lane: old.lane,
                        request: old.request,
                        invoke: old.invoke,
                        phase: Phase::Execute { pending: FxHashSet::default() },
                        attempts: old.attempts + 1,
                        writes_by_shard: Vec::new(),
                        coordinator: 0,
                        t_ee: 0,
                        commit_timer: None,
                        t_read: 0,
                        t_min_at_start: 0,
                        versions: FxHashMap::default(),
                        skipped: FxHashMap::default(),
                        resolved_early: FxHashSet::default(),
                        t_snap: 0,
                    },
                );
                let backoff = self.retry_delay(ctx, old.attempts + 1);
                self.set_timer(ctx, backoff, TimerAction::RetryTxn { seq: new_seq });
            }
            TimerAction::ProbeAbandoned { seq } => {
                let Some(orphan) = self.abandoned.get(&seq) else { return };
                let coordinator = orphan.coordinator;
                ctx.send(
                    coordinator,
                    SpannerMsg::StatusRequest { txn: TxnId { client: ctx.node_id(), seq } },
                );
                let probe_after = self.cfg.op_timeout.expect("probing implies op_timeout");
                self.set_timer(ctx, probe_after, TimerAction::ProbeAbandoned { seq });
            }
            TimerAction::FinishRw { seq, t_commit } => {
                let Some(txn) = self.txns.get(&seq) else { return };
                let record = CompletedRecord {
                    service: self.service,
                    kind: OpKind::RwTxn {
                        read_keys: Vec::new(),
                        writes: txn.writes_by_shard.iter().flat_map(|(_, w)| w.clone()).collect(),
                    },
                    result: OpResult::Values(Vec::new()),
                    invoke: txn.invoke,
                    finish: ctx.now(),
                    session: txn.lane.session,
                    slot: txn.lane.slot,
                    attempts: txn.attempts,
                    rounds: 1,
                    orphan: false,
                    witness: WitnessHint::Timestamp { ts: t_commit },
                };
                let session = txn.lane.session;
                self.raise_t_min(session, t_commit);
                self.finish_txn(seq, record);
            }
            TimerAction::FinishFence { seq } => {
                let Some(txn) = self.txns.get(&seq) else { return };
                if !matches!(txn.phase, Phase::Fence) {
                    return;
                }
                let t_f = txn.t_read;
                let record = CompletedRecord {
                    service: self.service,
                    kind: OpKind::Fence,
                    result: OpResult::Ack,
                    invoke: txn.invoke,
                    finish: ctx.now(),
                    session: txn.lane.session,
                    slot: txn.lane.slot,
                    attempts: 1,
                    rounds: 0,
                    orphan: false,
                    witness: WitnessHint::Timestamp { ts: t_f },
                };
                let session = txn.lane.session;
                self.raise_t_min(session, t_f);
                self.finish_txn(seq, record);
            }
        }
    }

    fn end_session(&mut self, session: u64) {
        // The session issues no further transactions, so its causal floor
        // (t_min) is no longer needed. Long partly-open runs spawn a fresh
        // session per arrival; dropping the entry keeps the map bounded by
        // the number of *live* sessions.
        self.sessions.remove(&session);
    }

    fn session_floor(&self, session: u64) -> u64 {
        self.t_min_of(session)
    }

    fn raise_session_floor(&mut self, session: u64, floor: u64) {
        // An imported causal context behaves exactly like the session's own
        // causal past: subsequent read-only transactions must observe every
        // write at or below the floor (Algorithm 1's t_min).
        self.raise_t_min(session, floor);
    }

    fn on_message(&mut self, ctx: &mut Context<SpannerMsg>, from: NodeId, msg: SpannerMsg) {
        match msg {
            SpannerMsg::ExecReadReply { txn, .. } => {
                let seq = txn.seq;
                let ready = {
                    let Some(t) = self.txns.get_mut(&seq) else { return };
                    match &mut t.phase {
                        Phase::Execute { pending } => {
                            pending.remove(&from);
                            pending.is_empty()
                        }
                        _ => false,
                    }
                };
                if ready {
                    self.begin_commit(ctx, seq);
                }
            }
            SpannerMsg::CommitReply { txn, commit, t_commit } => {
                let seq = txn.seq;
                if let Some(orphan) = self.abandoned.remove(&seq) {
                    // The client had already given up on this attempt; if the
                    // commit landed anyway, record its (visible) writes.
                    if commit {
                        self.completed.push(CompletedRecord {
                            service: self.service,
                            kind: OpKind::RwTxn { read_keys: Vec::new(), writes: orphan.writes },
                            result: OpResult::Values(Vec::new()),
                            invoke: orphan.invoke,
                            finish: ctx.now(),
                            session: orphan.lane.session,
                            slot: orphan.lane.slot,
                            attempts: orphan.attempts,
                            rounds: 1,
                            orphan: true,
                            witness: WitnessHint::Timestamp { ts: t_commit },
                        });
                    }
                    return;
                }
                let Some(t) = self.txns.get_mut(&seq) else {
                    return;
                };
                if !matches!(t.phase, Phase::Committing) {
                    return;
                }
                if let Some(tag) = t.commit_timer.take() {
                    self.timers.remove(&tag);
                }
                if commit {
                    let t_ee = t.t_ee;
                    // Ensure the earliest end time really is in the past
                    // before reporting completion (Section 5).
                    let now_earliest = ctx.truetime_now().earliest.as_micros();
                    let delay = if t_ee >= now_earliest {
                        SimDuration::from_micros(t_ee - now_earliest + 1)
                    } else {
                        SimDuration::ZERO
                    };
                    self.set_timer(ctx, delay, TimerAction::FinishRw { seq, t_commit });
                } else {
                    // Aborted by the coordinator; retry after a back-off.
                    let t = self.txns.get_mut(&seq).expect("transaction exists");
                    t.attempts += 1;
                    t.phase = Phase::Execute { pending: FxHashSet::default() };
                    let attempts = t.attempts;
                    self.stats.aborted_attempts += 1;
                    let backoff = self.retry_delay(ctx, attempts);
                    self.set_timer(ctx, backoff, TimerAction::RetryTxn { seq });
                }
            }
            SpannerMsg::RoReply { txn, values, .. } => {
                let seq = txn.seq;
                let ready = {
                    let Some(t) = self.txns.get_mut(&seq) else { return };
                    for (k, ts, v) in values {
                        t.versions.entry(k).or_default().push((ts, v));
                    }
                    match &mut t.phase {
                        Phase::RoFast { pending } => {
                            pending.remove(&from);
                            pending.is_empty()
                        }
                        _ => false,
                    }
                };
                if ready {
                    self.ro_try_finish(ctx, seq);
                }
            }
            SpannerMsg::RoFastReply { txn, skipped, values, .. } => {
                let seq = txn.seq;
                let ready = {
                    let Some(t) = self.txns.get_mut(&seq) else { return };
                    for (k, ts, v) in values {
                        t.versions.entry(k).or_default().push((ts, v));
                    }
                    for PreparedInfo { txn: id, t_prepare } in skipped {
                        if !t.resolved_early.contains(&id) {
                            t.skipped.insert(id, t_prepare);
                        }
                    }
                    match &mut t.phase {
                        Phase::RoFast { pending } => {
                            pending.remove(&from);
                            pending.is_empty()
                        }
                        _ => false,
                    }
                };
                if ready {
                    self.ro_try_finish(ctx, seq);
                }
            }
            SpannerMsg::RoSlowReply { txn, resolved, committed, t_commit, values, .. } => {
                let seq = txn.seq;
                let evaluate = {
                    let Some(t) = self.txns.get_mut(&seq) else { return };
                    t.skipped.remove(&resolved);
                    // Remember every resolution (not only early ones): a
                    // duplicated fast reply arriving after the slow reply
                    // must not resurrect the skipped transaction, or the
                    // read-only transaction waits on it forever.
                    t.resolved_early.insert(resolved);
                    if committed {
                        for (k, ts, v) in values {
                            let _ = t_commit;
                            t.versions.entry(k).or_default().push((ts, v));
                        }
                    }
                    matches!(t.phase, Phase::RoSlow)
                };
                if evaluate {
                    self.ro_try_finish(ctx, seq);
                }
            }
            _ => {}
        }
    }

    fn drain_completed(&mut self) -> Vec<CompletedRecord> {
        std::mem::take(&mut self.completed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn txn_request_accessors() {
        let rw = TxnRequest::ReadWrite { keys: vec![Key(1), Key(2)] };
        let ro = TxnRequest::ReadOnly { keys: vec![Key(3)] };
        assert!(!rw.is_read_only());
        assert!(ro.is_read_only());
        assert_eq!(rw.keys().len(), 2);
    }

    #[test]
    fn completed_record_carries_core_kinds() {
        let c = CompletedRecord {
            service: ServiceId::KV,
            kind: OpKind::RoTxn { keys: vec![Key(1)] },
            result: OpResult::Values(vec![(Key(1), Value(5))]),
            invoke: SimTime::from_millis(1),
            finish: SimTime::from_millis(2),
            session: 0,
            slot: 0,
            attempts: 1,
            rounds: 1,
            orphan: false,
            witness: WitnessHint::Timestamp { ts: 100 },
        };
        let d = c.clone();
        assert!(d.kind.is_read_only());
        assert_eq!(d.witness_ts(), Some(100));
        assert_eq!(d.latency(), SimDuration::from_millis(1));
    }
}
