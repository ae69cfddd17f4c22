//! The Spanner client protocol core: read-write transactions via two-phase
//! commit, read-only transactions (one path for both protocols: replies go
//! to a [`RoRead`], whose [`ReadPolicy`] stamps the read), and a
//! TrueTime-based real-time fence.
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

use regular_core::hashing::FxHashMap;
use regular_core::op::{OpKind, OpResult};
use regular_core::types::{Key, ServiceId, Value};
use regular_session::{service_tag, CompletedRecord, LaneId, Service, SessionOp, WitnessHint};
use regular_sim::engine::{Context, NodeId};
use regular_sim::net::{LatencyMatrix, Region};
use regular_sim::time::{SimDuration, SimTime};

#[cfg(any(test, feature = "bug-zoo"))]
use crate::config::BugZoo;
use crate::config::Mode;
use crate::messages::{SpannerMsg, Ts, TxnId};
use crate::ro::{ReadPolicy, RoRead};
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
    /// Bug-zoo mutants (see [`crate::config::BugZoo`]); compiled only into
    /// test and `bug-zoo` builds.
    #[cfg(any(test, feature = "bug-zoo"))]
    pub bug_zoo: BugZoo,
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

/// A set of shard indices, bit `s` for shard `s` (a client serves at most 64
/// shards; [`SpannerService::new`] checks).
type ShardMask = u64;

/// The shard indices in `mask`, ascending.
fn shards_in(mut mask: ShardMask) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let s = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            s
        })
    })
}

#[derive(Debug)]
enum Phase {
    /// Reading at the participants; `pending` still owe a reply.
    Execute {
        pending: ShardMask,
    },
    Committing,
    /// A read-only transaction (Algorithm 1).
    Ro(RoRead),
    /// A fence waiting out its TrueTime barrier at `t_f`.
    Fence {
        t_f: Ts,
    },
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
    /// Every write, grouped by participant shard in ascending shard order.
    writes: Vec<(Key, Value)>,
    coordinator: NodeId,
    t_ee: Ts,
    /// The operation timeout armed by this attempt's latest issue.
    op_timer: Option<u64>,
    commit_timer: Option<u64>,
}

impl ActiveTxn {
    /// An attempt about to be issued.
    fn new(lane: LaneId, request: TxnRequest, invoke: SimTime, attempts: u32) -> Self {
        ActiveTxn {
            lane,
            request,
            invoke,
            phase: Phase::Execute { pending: 0 },
            attempts,
            writes: Vec::new(),
            coordinator: 0,
            t_ee: 0,
            op_timer: None,
            commit_timer: None,
        }
    }
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
    /// Stamps read-only transactions (the `t_ee` skip is the shards' call).
    policy: ReadPolicy,
    service: ServiceId,
    /// Each live session's `t_min`.
    sessions: FxHashMap<u64, Ts>,
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
    ///
    /// # Panics
    ///
    /// Panics if the cluster has more than 64 shards: a transaction keeps
    /// the shards it still waits on as a bit mask.
    pub fn new(cfg: ClientConfig) -> Self {
        assert!(
            cfg.shard_nodes.len() <= 64,
            "a Spanner client tracks shards in a 64-bit mask; this cluster has {} shards",
            cfg.shard_nodes.len()
        );
        SpannerService {
            policy: ReadPolicy::new(cfg.mode, false),
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

    /// The index of the shard led by `node`.
    fn shard_index(&self, node: NodeId) -> Option<usize> {
        self.cfg.shard_nodes.iter().position(|&n| n == node)
    }

    fn shard_of(&self, key: Key) -> usize {
        (key.0 % self.cfg.shard_nodes.len() as u64) as usize
    }

    fn shards_for(&self, keys: &[Key]) -> ShardMask {
        keys.iter().fold(0, |mask, k| mask | 1 << self.shard_of(*k))
    }

    /// The keys of `keys` that live on shard `s`, in request order.
    fn keys_on<'a>(&'a self, keys: &'a [Key], s: usize) -> impl Iterator<Item = Key> + 'a {
        keys.iter().copied().filter(move |k| self.shard_of(*k) == s)
    }

    fn t_min_of(&self, session: u64) -> Ts {
        self.sessions.get(&session).copied().unwrap_or(0)
    }

    fn raise_t_min(&mut self, session: u64, to: Ts) {
        let t_min = self.sessions.entry(session).or_insert(0);
        *t_min = (*t_min).max(to);
    }

    /// Estimated minimum commit latency (in microseconds) when using
    /// `coordinator` for a transaction spanning `participants`.
    fn estimate_commit_latency(&self, coordinator: usize, participants: ShardMask) -> u64 {
        let client = Region(self.cfg.region);
        let coord_region = Region(self.cfg.shard_regions[coordinator]);
        let one_way_client = self.cfg.net.one_way(client, coord_region).as_micros();
        let prepare = shards_in(participants)
            .map(|p| {
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

    fn pick_coordinator(&self, participants: ShardMask) -> (usize, u64) {
        shards_in(participants)
            .map(|c| (c, self.estimate_commit_latency(c, participants)))
            .min_by_key(|&(_, est)| est)
            .expect("transactions access at least one shard")
    }

    /// Issues (or re-issues, after an abort) the transaction `seq`. A stale
    /// retry timer may fire for a sequence number the operation timeout has
    /// already abandoned (and re-issued under a fresh number) — that retry
    /// must die here, not resurrect the old attempt.
    fn issue(&mut self, ctx: &mut Context<SpannerMsg>, seq: u64) {
        if !self.txns.contains_key(&seq) {
            return;
        }
        // Under a fault schedule the request (or every reply) may be lost:
        // watch the pre-commit phases with a timeout so the lane cannot
        // stall forever on a crashed shard.
        let op_timer = self
            .cfg
            .op_timeout
            .map(|timeout| self.set_timer(ctx, timeout, TimerAction::OpTimeout { seq }));
        let txn_id = TxnId { client: ctx.node_id(), seq };
        let t = &self.txns[&seq];
        let keys = t.request.keys();
        let pending = self.shards_for(keys);
        let read_only = t.request.is_read_only();
        let (t_read, t_min) = if read_only {
            (ctx.truetime_now().latest.as_micros(), self.t_min_of(t.lane.session))
        } else {
            (0, 0)
        };
        for s in shards_in(pending) {
            let keys = self.keys_on(keys, s).collect();
            let msg = if read_only {
                SpannerMsg::RoCommit { txn: txn_id, keys, t_read, t_min }
            } else {
                SpannerMsg::ExecRead { txn: txn_id, keys }
            };
            ctx.send(self.cfg.shard_nodes[s], msg);
        }
        let t = self.txns.get_mut(&seq).expect("transaction exists");
        t.op_timer = op_timer;
        if read_only {
            let reads = t.request.keys().len();
            let ro = RoRead::new(self.policy, t_read, t_min, pending, reads);
            #[cfg(any(test, feature = "bug-zoo"))]
            let ro = ro.with_bug_zoo(self.cfg.bug_zoo);
            t.phase = Phase::Ro(ro);
        } else {
            t.phase = Phase::Execute { pending };
        }
    }

    fn begin_commit(&mut self, ctx: &mut Context<SpannerMsg>, seq: u64) {
        let keys = self.txns[&seq].request.keys();
        let participants = self.shards_for(keys);
        let (coordinator, est) = self.pick_coordinator(participants);
        let t_ee = ctx.truetime_now().earliest.as_micros() + est;
        // Assign fresh, globally unique values to every written key and group
        // the writes by participant shard.
        let node_bits = (ctx.node_id() as u64 + 1) << 40;
        let mut counter = self.value_counter;
        let mut assigned = Vec::with_capacity(participants.count_ones() as usize);
        let mut writes = Vec::with_capacity(keys.len());
        for s in shards_in(participants) {
            let shard_writes: Vec<(Key, Value)> = self
                .keys_on(keys, s)
                .map(|k| {
                    counter += 1;
                    (k, Value(node_bits | counter))
                })
                .collect();
            writes.extend_from_slice(&shard_writes);
            assigned.push((self.cfg.shard_nodes[s], shard_writes));
        }
        self.value_counter = counter;
        let txn_id = TxnId { client: ctx.node_id(), seq };
        let coord_node = self.cfg.shard_nodes[coordinator];
        ctx.send(
            coord_node,
            SpannerMsg::CommitRequest { txn: txn_id, writes_by_shard: assigned, t_ee },
        );
        let timeout = self.cfg.commit_timeout;
        let tag = self.set_timer(ctx, timeout, TimerAction::CommitTimeout { seq });
        let t = self.txns.get_mut(&seq).expect("transaction exists");
        t.phase = Phase::Committing;
        t.writes = writes;
        t.coordinator = coord_node;
        t.t_ee = t_ee;
        t.commit_timer = Some(tag);
    }

    /// Records `txn`'s operation, returning `result` and serialized at `ts`,
    /// and raises its session's `t_min` to `floor`.
    ///
    /// The attempt's operation timeout dies with it: the engine still fires
    /// the timer, which finds no action, as it would find no transaction.
    /// The timeouts of earlier issues under the same `seq` (an attempt the
    /// coordinator aborted) stay armed.
    fn finish_txn(
        &mut self,
        ctx: &Context<SpannerMsg>,
        txn: ActiveTxn,
        ts: Ts,
        floor: Ts,
        result: OpResult,
    ) {
        let (kind, done) = match txn.phase {
            Phase::Ro(_) => {
                (OpKind::RoTxn { keys: txn.request.into_keys() }, &mut self.stats.ro_completed)
            }
            Phase::Fence { .. } => (OpKind::Fence, &mut self.stats.fences),
            _ => (
                OpKind::RwTxn { read_keys: Vec::new(), writes: txn.writes },
                &mut self.stats.rw_completed,
            ),
        };
        *done += 1;
        if let Some(tag) = txn.op_timer {
            self.timers.remove(&tag);
        }
        self.raise_t_min(txn.lane.session, floor);
        self.completed.push(CompletedRecord {
            service: self.service,
            rounds: if kind.is_fence() { 0 } else { 1 },
            kind,
            result,
            invoke: txn.invoke,
            finish: ctx.now(),
            session: txn.lane.session,
            slot: txn.lane.slot,
            attempts: txn.attempts,
            orphan: false,
            witness: WitnessHint::Timestamp { ts },
        });
    }

    /// Decides read-only transaction `seq` once its replies say a decision
    /// is due; false if it now waits for slow replies.
    fn ro_try_finish(&mut self, ctx: &mut Context<SpannerMsg>, seq: u64) -> bool {
        let txn = self.txns.get_mut(&seq).expect("transaction exists");
        let Phase::Ro(ro) = &mut txn.phase else { unreachable!("a read-only phase") };
        let Some((result, stamp, t_snap)) = ro.try_finish(txn.request.keys()) else {
            return false;
        };
        let txn = self.txns.remove(&seq).expect("transaction exists");
        self.finish_txn(ctx, txn, stamp, t_snap, result);
        true
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
        self.sessions.entry(lane.session).or_insert(0);
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
                let request = TxnRequest::ReadOnly { keys: Vec::new() };
                let mut fence = ActiveTxn::new(lane, request, ctx.now(), 1);
                fence.phase = Phase::Fence { t_f };
                self.txns.insert(seq, fence);
                let wait =
                    SimDuration::from_micros(t_f.saturating_sub(now.earliest.as_micros()) + 1);
                self.set_timer(ctx, wait, TimerAction::FinishFence { seq });
                return;
            }
        };
        let seq = self.next_seq;
        self.next_seq += 1;
        self.txns.insert(seq, ActiveTxn::new(lane, request, ctx.now(), 1));
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
                if !matches!(txn.phase, Phase::Execute { .. } | Phase::Ro(_)) {
                    return;
                }
                self.stats.timeout_retries += 1;
                let old = self.txns.remove(&seq).expect("transaction exists");
                let new_seq = self.next_seq;
                self.next_seq += 1;
                let retry = ActiveTxn::new(old.lane, old.request, old.invoke, old.attempts + 1);
                self.txns.insert(new_seq, retry);
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
                        writes: old.writes,
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
                let retry = ActiveTxn::new(old.lane, old.request, old.invoke, old.attempts + 1);
                self.txns.insert(new_seq, retry);
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
                let Some(txn) = self.txns.remove(&seq) else { return };
                self.finish_txn(ctx, txn, t_commit, t_commit, OpResult::Values(Vec::new()));
            }
            TimerAction::FinishFence { seq } => {
                let Some(&ActiveTxn { phase: Phase::Fence { t_f }, .. }) = self.txns.get(&seq)
                else {
                    return;
                };
                let txn = self.txns.remove(&seq).expect("transaction exists");
                self.finish_txn(ctx, txn, t_f, t_f, OpResult::Ack);
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
                let s = self.shard_index(from);
                let Some(ActiveTxn { phase: Phase::Execute { pending }, .. }) =
                    self.txns.get_mut(&seq)
                else {
                    return;
                };
                if let Some(s) = s {
                    *pending &= !(1 << s);
                }
                if *pending == 0 {
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
                    t.phase = Phase::Execute { pending: 0 };
                    let attempts = t.attempts;
                    self.stats.aborted_attempts += 1;
                    let backoff = self.retry_delay(ctx, attempts);
                    self.set_timer(ctx, backoff, TimerAction::RetryTxn { seq });
                }
            }
            SpannerMsg::RoFastReply { txn, shard, skipped, values } => {
                let seq = txn.seq;
                let Some(s) = self.shard_index(shard) else { return };
                let Some(ActiveTxn { phase: Phase::Ro(ro), .. }) = self.txns.get_mut(&seq) else {
                    return;
                };
                // A read that does not finish on its last fast reply waits.
                if ro.on_fast(s, values, skipped) && !self.ro_try_finish(ctx, seq) {
                    self.stats.ro_waited_slow += 1;
                }
            }
            SpannerMsg::RoSlowReply { txn, shard, resolved, committed, values, .. } => {
                let seq = txn.seq;
                let Some(s) = self.shard_index(shard) else { return };
                let Some(ActiveTxn { phase: Phase::Ro(ro), .. }) = self.txns.get_mut(&seq) else {
                    return;
                };
                if ro.on_slow(s, resolved, committed, values) {
                    self.ro_try_finish(ctx, seq);
                }
            }
            _ => {}
        }
    }

    fn drain_completed(&mut self, out: &mut Vec<CompletedRecord>) {
        out.append(&mut self.completed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::PreparedInfo;

    #[test]
    fn txn_request_accessors() {
        let rw = TxnRequest::ReadWrite { keys: vec![Key(1), Key(2)] };
        let ro = TxnRequest::ReadOnly { keys: vec![Key(3)] };
        assert!(!rw.is_read_only());
        assert!(ro.is_read_only());
        assert_eq!(rw.keys().len(), 2);
    }

    const SHARD: NodeId = 0;
    const CLIENT: NodeId = 1;

    /// Runs `f` on `client` at 1 ms, dropping what it sends and the timers it
    /// sets.
    fn turn(
        client: &mut SpannerService,
        f: impl FnOnce(&mut SpannerService, &mut Context<SpannerMsg>),
    ) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
        let mut truetime = regular_sim::truetime::TrueTime::perfect(1);
        let (mut outbox, mut timers) = (Vec::new(), Vec::new());
        let mut ctx = Context::from_parts(regular_sim::engine::ContextParts {
            now: SimTime::from_millis(1),
            node_id: CLIENT,
            rng: &mut rng,
            truetime: &mut truetime,
            outbox: &mut outbox,
            timers: &mut timers,
        });
        f(client, &mut ctx);
    }

    /// A Spanner-RSS client of the shards led by `shard_nodes`, all in one
    /// region.
    fn rss_client(shard_nodes: Vec<NodeId>) -> SpannerService {
        let shards = shard_nodes.len();
        SpannerService::new(ClientConfig {
            mode: Mode::SpannerRss,
            region: 0,
            shard_nodes,
            shard_regions: vec![0; shards],
            replication_delays: vec![SimDuration::ZERO; shards],
            net: LatencyMatrix::single_region(SimDuration::from_millis(1)),
            truetime_epsilon: SimDuration::ZERO,
            commit_timeout: SimDuration::from_secs(1),
            retry_backoff: SimDuration::from_millis(1),
            op_timeout: None,
            bug_zoo: BugZoo::none(),
        })
    }

    #[test]
    fn equal_timestamps_resolve_to_the_later_arrival() {
        let mut client = rss_client(vec![SHARD]);
        let (txn, skipped) = (TxnId { client: CLIENT, seq: 0 }, TxnId { client: 7, seq: 3 });
        let lane = LaneId { session: 0, slot: 0 };
        turn(&mut client, |c, ctx| c.submit(ctx, lane, SessionOp::RoTxn { keys: vec![Key(4)] }));
        // The fast reply skips a transaction prepared below the snapshot, so
        // the read waits for its slow reply, which brings a second version
        // of key 4 at the same timestamp.
        let fast = SpannerMsg::RoFastReply {
            txn,
            shard: SHARD,
            skipped: vec![PreparedInfo { txn: skipped, t_prepare: 50 }],
            values: vec![(Key(4), 100, Value(1))],
        };
        turn(&mut client, |c, ctx| c.on_message(ctx, SHARD, fast));
        let mut completed = Vec::new();
        client.drain_completed(&mut completed);
        assert!(completed.is_empty(), "the skipped prepare holds the read back");
        let slow = SpannerMsg::RoSlowReply {
            txn,
            shard: SHARD,
            resolved: skipped,
            committed: true,
            t_commit: 100,
            values: vec![(Key(4), 100, Value(2))],
        };
        turn(&mut client, |c, ctx| c.on_message(ctx, SHARD, slow));
        client.drain_completed(&mut completed);
        assert_eq!(completed.len(), 1);
        assert_eq!(completed[0].result, OpResult::Values(vec![(Key(4), Value(2))]));
        assert_eq!(completed[0].witness_ts(), Some(100));
    }

    /// A read of key 4 on shard A and key 5 on shard B, which both skip the
    /// prepared transaction W, on a client with `bug_zoo`. Returns, for A's
    /// committing slow reply (i) before B's fast reply and (ii) between B's
    /// fast and slow replies, the index of the message after which the read
    /// completed and its result.
    fn read_skipping_at_two_shards(bug_zoo: BugZoo) -> Vec<(usize, OpResult)> {
        const SHARD_B: NodeId = 2;
        let (txn, w) = (TxnId { client: CLIENT, seq: 0 }, TxnId { client: 7, seq: 3 });
        let fast = |shard, key, value| SpannerMsg::RoFastReply {
            txn,
            shard,
            skipped: vec![PreparedInfo { txn: w, t_prepare: 50 }],
            values: vec![(key, 100, value)],
        };
        let slow = |shard, key, value| SpannerMsg::RoSlowReply {
            txn,
            shard,
            resolved: w,
            committed: true,
            t_commit: 100,
            values: vec![(key, 100, value)],
        };
        let a = [(SHARD, fast(SHARD, Key(4), Value(1))), (SHARD, slow(SHARD, Key(4), Value(2)))];
        let b = [
            (SHARD_B, fast(SHARD_B, Key(5), Value(3))),
            (SHARD_B, slow(SHARD_B, Key(5), Value(4))),
        ];
        let orders = [[&a[0], &a[1], &b[0], &b[1]], [&a[0], &b[0], &a[1], &b[1]]];
        let mut outcomes = Vec::new();
        for order in orders {
            let mut client = rss_client(vec![SHARD, SHARD_B]);
            client.cfg.bug_zoo = bug_zoo;
            let lane = LaneId { session: 0, slot: 0 };
            let read = SessionOp::RoTxn { keys: vec![Key(4), Key(5)] };
            turn(&mut client, |c, ctx| c.submit(ctx, lane, read));
            let mut completed = Vec::new();
            for (i, (from, msg)) in order.into_iter().enumerate() {
                turn(&mut client, |c, ctx| c.on_message(ctx, *from, msg.clone()));
                client.drain_completed(&mut completed);
                if let [done] = &completed[..] {
                    outcomes.push((i, done.result.clone()));
                    break;
                }
            }
        }
        outcomes
    }

    /// A slow reply carries one shard's writes of W, so A's resolves W at A
    /// only: the read must wait for B's and return W's writes on both keys.
    #[test]
    fn a_skipped_transaction_resolves_per_shard() {
        let both = OpResult::Values(vec![(Key(4), Value(2)), (Key(5), Value(4))]);
        let outcomes = read_skipping_at_two_shards(BugZoo::none());
        assert_eq!(outcomes, [(3, both.clone()), (3, both)]);
    }

    /// Under the bug-zoo mutant that keys skips by `TxnId` alone, A's slow
    /// reply resolves W at B too: the read returns before B's slow reply,
    /// with W's write on key 4 and the value before it on key 5.
    #[test]
    fn the_txn_id_keying_mutant_returns_a_fractured_read() {
        let fractured = OpResult::Values(vec![(Key(4), Value(2)), (Key(5), Value(3))]);
        let outcomes = read_skipping_at_two_shards(BugZoo { skips_by_txn_id: true });
        assert_eq!(outcomes, [(2, fractured.clone()), (2, fractured)]);
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
