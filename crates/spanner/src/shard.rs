//! The shard leader node: two-phase commit participant/coordinator and the
//! read-only transaction server (Algorithm 2).
//!
//! Each shard is simulated as its leader; replication of prepare and commit
//! records to a majority is modeled as a fixed delay (the round-trip time to
//! the nearest replica), and the Paxos safe time is advanced eagerly as the
//! leader-lease optimization in the paper permits.

use std::collections::VecDeque;

use regular_core::hashing::{FxHashMap, FxHashSet};

use regular_core::types::{Key, Value};
use regular_sim::engine::{Context, NodeId};
use regular_sim::time::SimDuration;
use regular_storage::codec::{Enc, Wire};
use regular_storage::wal::{RecoveredLog, Wal, WalStats};
use regular_storage::Durability;

use crate::config::{Mode, SpannerConfig};
use crate::durable::{self, ShardChunk, ShardRecord, SnapCoord, SnapPrepared};
use crate::locks::LockTable;
use crate::messages::{PreparedInfo, SpannerMsg, Ts, TxnId};
use crate::storage::MvccStore;

/// A prepared-but-undecided read-write transaction at this shard.
#[derive(Debug, Clone)]
struct PreparedTxn {
    writes: Vec<(Key, Value)>,
    t_prepare: Ts,
    t_ee: Ts,
    /// The coordinator to re-ack after a crash (recovery re-drives 2PC).
    coordinator: NodeId,
}

/// A prepare request still waiting for its write locks.
#[derive(Debug, Clone)]
struct PendingPrepare {
    writes: Vec<(Key, Value)>,
    t_ee: Ts,
    coordinator: NodeId,
}

/// Coordinator-side state of a two-phase commit this shard is driving.
///
/// In Spanner the coordinator is itself a Paxos group, so this state (like
/// the decision log) survives leader crashes; recovery re-sends `Prepare` to
/// the participants still awaited.
#[derive(Debug, Clone)]
struct CoordState {
    client: NodeId,
    /// The participants whose vote has not arrived.
    awaiting: Vec<NodeId>,
    max_prepare: Ts,
    /// The prepared writes per participant, kept so a recovered coordinator
    /// can re-drive the prepare round. Its nodes are the participants.
    writes_by_shard: Vec<(NodeId, Vec<(Key, Value)>)>,
    t_ee: Ts,
    /// When the vote set is complete: the simulated time at which the
    /// commit-wait timer releases the decision. Durable (checkpointed and
    /// WAL-logged via `CoordTs`) so a recovered coordinator re-arms the
    /// release instead of holding a complete round forever.
    commit_fire_at_us: Option<u64>,
}

impl CoordState {
    /// A round that has just sent `writes_by_shard`'s prepares.
    fn open(client: NodeId, t_ee: Ts, writes_by_shard: Vec<(NodeId, Vec<(Key, Value)>)>) -> Self {
        CoordState {
            client,
            awaiting: writes_by_shard.iter().map(|(n, _)| *n).collect(),
            max_prepare: 0,
            writes_by_shard,
            t_ee,
            commit_fire_at_us: None,
        }
    }

    /// The participants, in the order the client listed them.
    fn participants(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.writes_by_shard.iter().map(|(n, _)| *n)
    }

    /// Counts `shard`'s vote (a repeated vote changes nothing but the max).
    fn vote(&mut self, shard: NodeId, t_prepare: Ts) {
        if let Some(i) = self.awaiting.iter().position(|&n| n == shard) {
            self.awaiting.swap_remove(i);
        }
        self.max_prepare = self.max_prepare.max(t_prepare);
    }
}

/// A baseline read-only transaction blocked on conflicting prepared
/// transactions (Spanner) or a Spanner-RSS read-only transaction blocked on
/// its must-observe set `B` (Algorithm 2, line 7).
#[derive(Debug, Clone)]
struct BlockedRo {
    client: NodeId,
    txn: TxnId,
    keys: Vec<Key>,
    t_read: Ts,
    blockers: FxHashSet<TxnId>,
}

/// A Spanner-RSS read-only transaction for which this shard still owes slow
/// replies about skipped prepared transactions (Algorithm 2, lines 11-18).
#[derive(Debug, Clone)]
struct RssWatcher {
    client: NodeId,
    txn: TxnId,
    keys: Vec<Key>,
    pending: FxHashSet<TxnId>,
}

/// A queue of cooperative-termination checks behind at most one engine timer.
///
/// Every prepare and every coordinator round queues a check one
/// `commit_timeout` ahead; almost all of them find their transaction long
/// closed. So the checks wait here, in due order (each is queued at `now +
/// commit_timeout` and `now` only grows), and one engine timer is armed for
/// the front. Its firing hands back every entry that is due and still open,
/// and walks past the closed ones up to the next open entry, which it
/// re-arms for: a closed entry never takes a turn (or a service time) of its
/// own, and a stuck transaction is checked at the instant a timer of its own
/// would have fired.
#[derive(Debug, Default)]
struct TerminationQueue {
    /// `(due µs, transaction)`, due ascending.
    checks: VecDeque<(u64, TxnId)>,
    /// Tag of the engine timer in flight; `Some` exactly while `checks` is
    /// non-empty. A tag that fires without matching (armed before a crash
    /// wiped the queue) is stale and ignored.
    armed: Option<u64>,
}

impl TerminationQueue {
    /// Queues a check of `txn` one `interval` from now.
    fn push(
        &mut self,
        ctx: &mut Context<SpannerMsg>,
        next_timer: &mut u64,
        interval: SimDuration,
        txn: TxnId,
    ) {
        self.checks.push_back((ctx.now().as_micros() + interval.as_micros(), txn));
        self.arm(ctx, next_timer);
    }

    /// Arms the engine timer for the front check unless one is in flight.
    fn arm(&mut self, ctx: &mut Context<SpannerMsg>, next_timer: &mut u64) {
        let (None, Some(&(at, _))) = (self.armed, self.checks.front()) else { return };
        let delay = SimDuration::from_micros(at.saturating_sub(ctx.now().as_micros()));
        ctx.set_timer(delay, *next_timer);
        self.armed = Some(*next_timer);
        *next_timer += 1;
    }

    /// The armed timer fired: removes and returns the transactions whose
    /// check is due and that are still `open` (the caller acts and queues
    /// them again), drops closed entries up to the first open one that is
    /// not due yet, and re-arms for it.
    fn fire(
        &mut self,
        ctx: &mut Context<SpannerMsg>,
        next_timer: &mut u64,
        open: impl Fn(&TxnId) -> bool,
    ) -> Vec<TxnId> {
        self.armed = None;
        let now = ctx.now().as_micros();
        let mut due = Vec::new();
        while let Some(&(at, txn)) = self.checks.front() {
            let is_open = open(&txn);
            if is_open && at > now {
                break;
            }
            self.checks.pop_front();
            if is_open {
                due.push(txn);
            }
        }
        self.arm(ctx, next_timer);
        due
    }
}

/// Counters exposed for the evaluation harness.
#[derive(Debug, Clone, Copy, Default)]
pub struct ShardStats {
    /// Read-only requests answered without blocking.
    pub ro_immediate: u64,
    /// Read-only requests that had to block (baseline) or wait for their `B`
    /// set (Spanner-RSS).
    pub ro_blocked: u64,
    /// Prepared transactions skipped by Spanner-RSS fast replies.
    pub ro_skipped_prepared: u64,
    /// Slow replies sent (Spanner-RSS only).
    pub ro_slow_replies: u64,
    /// Transactions prepared.
    pub prepares: u64,
    /// Transactions committed.
    pub commits: u64,
    /// Transactions aborted.
    pub aborts: u64,
}

/// The shard leader node.
pub struct ShardNode {
    mode: Mode,
    disable_tee_skip: bool,
    shard_index: usize,
    replication_delay: SimDuration,
    store: MvccStore,
    locks: LockTable,
    prepared: FxHashMap<TxnId, PreparedTxn>,
    pending_prepares: FxHashMap<TxnId, PendingPrepare>,
    coordinating: FxHashMap<TxnId, CoordState>,
    /// Commit/abort decisions this shard coordinated (the durable decision
    /// log): lets a recovered participant re-learn an outcome it missed.
    decided: FxHashMap<TxnId, (bool, Ts)>,
    /// The versions installed and the decisions recorded since the last
    /// checkpoint: its chunk. Filled only under a WAL, where the device's
    /// chain plus this always equals the store and the decision log.
    unsaved: ShardChunk,
    blocked_ros: Vec<BlockedRo>,
    rss_watchers: Vec<RssWatcher>,
    /// Floor for prepare and commit timestamps chosen at this shard; also
    /// plays the role of the Paxos safe time.
    max_ts: Ts,
    /// Commit-wait timers: tag -> transaction.
    timers: FxHashMap<u64, TxnId>,
    /// Decision probes: a prepared participant that has not learned its
    /// outcome re-acks `PrepareOk` so the coordinator re-answers from the
    /// decision log (2PC cooperative termination). Without it, one dropped
    /// `CommitDecision` leaves the participant's write locks held forever
    /// and every later transaction touching those keys livelocks.
    probes: TerminationQueue,
    /// Prepare re-drives: a coordinator whose vote set is still incomplete
    /// re-sends `Prepare` to the awaited participants, exactly as crash
    /// recovery does. Without it, one dropped `Prepare` leaves the round
    /// open forever — and the cooperative-termination `StatusRequest` stays
    /// silent while a round is open, so the client's probe loop never
    /// terminates either.
    redrives: TerminationQueue,
    /// Interval between decision probes for prepared-but-undecided
    /// transactions and prepare re-drives for open coordinator rounds.
    decision_probe: SimDuration,
    next_timer: u64,
    /// Statistics for the harness.
    pub stats: ShardStats,
    /// The write-ahead log under `Durability::Wal`; `None` keeps the
    /// pre-existing in-memory behaviour on every path.
    wal: Option<Wal>,
    /// Outbound messages held back until the records they depend on are
    /// synced (group commit): releasing an ack before its record is durable
    /// would let a torn tail contradict something the world already saw.
    wal_pending: Vec<(NodeId, SimDuration, SpannerMsg)>,
    /// Armed group-commit flush timer, if any.
    flush_timer: Option<u64>,
}

impl ShardNode {
    /// Creates a shard leader for `shard_index` under the given configuration.
    pub fn new(cfg: &SpannerConfig, shard_index: usize, replication_delay: SimDuration) -> Self {
        let (wal, recovered) = match &cfg.durability {
            Durability::InMemory => (None, None),
            Durability::Wal(opts) => {
                let (wal, log) = Wal::open(opts, &format!("spanner-shard-{shard_index}"));
                (Some(wal), Some(log))
            }
        };
        let mut node = ShardNode {
            mode: cfg.mode,
            disable_tee_skip: cfg.disable_tee_skip,
            shard_index,
            replication_delay,
            store: MvccStore::new(),
            locks: LockTable::new(),
            prepared: FxHashMap::default(),
            pending_prepares: FxHashMap::default(),
            coordinating: FxHashMap::default(),
            decided: FxHashMap::default(),
            unsaved: ShardChunk::default(),
            blocked_ros: Vec::new(),
            rss_watchers: Vec::new(),
            max_ts: 0,
            timers: FxHashMap::default(),
            probes: TerminationQueue::default(),
            redrives: TerminationQueue::default(),
            decision_probe: cfg.commit_timeout,
            next_timer: 0,
            stats: ShardStats::default(),
            wal,
            wal_pending: Vec::new(),
            flush_timer: None,
        };
        // A pre-existing log (a live-plane process restart) replays into the
        // initial state; fresh simulation runs start from an empty device.
        if let Some(log) = recovered {
            node.apply_replay(log);
        }
        node
    }

    /// WAL counters for this shard (zeroes under `Durability::InMemory`).
    pub fn wal_stats(&self) -> WalStats {
        self.wal.as_ref().map(|w| w.stats()).unwrap_or_default()
    }

    /// Whether this shard runs on a write-ahead log.
    pub fn is_durable(&self) -> bool {
        self.wal.is_some()
    }

    /// Appends a durable state transition to the WAL (no-op when in-memory).
    /// Out of line: inlined, the record encoder lands in every handler and
    /// the in-memory runs, which never take this branch, pay for its size.
    #[inline(never)]
    fn log(&mut self, ctx: &Context<SpannerMsg>, rec: &ShardRecord) {
        if let Some(wal) = self.wal.as_mut() {
            wal.append_with(ctx.now().as_micros(), |enc| rec.encode_into(enc));
        }
    }

    /// Sends `msg` to `to` (after `extra` delay), holding it back while the
    /// WAL has unsynced records: a message must never reveal state the log
    /// could still lose. FIFO order with earlier held messages is preserved.
    fn send_d(
        &mut self,
        ctx: &mut Context<SpannerMsg>,
        to: NodeId,
        extra: SimDuration,
        msg: SpannerMsg,
    ) {
        let gated =
            self.wal.as_ref().is_some_and(|w| w.wants_sync()) || !self.wal_pending.is_empty();
        if gated {
            self.wal_pending.push((to, extra, msg));
        } else if extra == SimDuration::ZERO {
            ctx.send(to, msg);
        } else {
            ctx.send_after(to, extra, msg);
        }
    }

    fn release_pending(&mut self, ctx: &mut Context<SpannerMsg>) {
        for (to, extra, msg) in std::mem::take(&mut self.wal_pending) {
            if extra == SimDuration::ZERO {
                ctx.send(to, msg);
            } else {
                ctx.send_after(to, extra, msg);
            }
        }
    }

    /// Group-commit bookkeeping at the end of every handler turn: write a
    /// due checkpoint, sync immediately (window 0 or expired) or arm the
    /// flush timer, and release held messages once nothing is unsynced.
    fn turn_end(&mut self, ctx: &mut Context<SpannerMsg>) {
        if self.wal.is_none() {
            debug_assert!(self.wal_pending.is_empty());
            return;
        }
        if self.wal.as_ref().unwrap().checkpoint_due() {
            // Out of `self` while the encoders borrow the rest of it. A whole
            // part that outgrew its area is skipped and counted, and a sweep
            // seed with any skip fails (`StorageSummary::skipped_checkpoints`);
            // the chunk then stays here for the next checkpoint.
            let mut wal = self.wal.take().unwrap();
            let wrote = wal
                .checkpoint_with(|enc| self.unsaved.encode_into(enc), |enc| self.encode_whole(enc));
            self.wal = Some(wal);
            if wrote {
                self.unsaved.versions.clear();
                self.unsaved.decided.clear();
            }
        }
        let now = ctx.now().as_micros();
        let wal = self.wal.as_mut().unwrap();
        if wal.wants_sync() {
            let deadline = wal.deadline_us().expect("dirty log has a deadline");
            if wal.group_commit_us() == 0 || deadline <= now {
                wal.sync();
            } else if self.flush_timer.is_none() {
                let tag = self.next_timer;
                self.next_timer += 1;
                self.flush_timer = Some(tag);
                ctx.set_timer(SimDuration::from_micros(deadline - now), tag);
            }
        }
        if !self.wal.as_ref().unwrap().wants_sync() {
            self.release_pending(ctx);
        }
    }

    /// Serializes a checkpoint's whole part, deterministically: both
    /// hash-map sections sorted, nothing cloned. Only these two are sorted:
    /// the store and the decision log travel in chunks, in install order.
    fn encode_whole(&self, enc: &mut Enc) {
        let mut prepared: Vec<SnapPrepared> = self
            .prepared
            .iter()
            .map(|(txn, p)| SnapPrepared {
                txn: *txn,
                writes: p.writes.as_slice().into(),
                t_prepare: p.t_prepare,
                t_ee: p.t_ee,
                coordinator: p.coordinator,
            })
            .collect();
        prepared.sort_unstable_by_key(|p| p.txn);
        let mut coordinating: Vec<SnapCoord> = self
            .coordinating
            .iter()
            .map(|(txn, s)| {
                let mut awaiting = s.awaiting.clone();
                awaiting.sort_unstable();
                SnapCoord {
                    txn: *txn,
                    client: s.client,
                    t_ee: s.t_ee,
                    max_prepare: s.max_prepare,
                    commit_fire_at_us: s.commit_fire_at_us,
                    writes_by_shard: s.writes_by_shard.as_slice().into(),
                    awaiting,
                }
            })
            .collect();
        coordinating.sort_unstable_by_key(|c| c.txn);
        durable::encode_whole(enc, self.max_ts, &prepared, &coordinating);
    }

    /// Installs a committed version, noting it for the next chunk when
    /// durable.
    fn install(&mut self, key: Key, ts: Ts, value: Value) {
        self.store.apply(key, ts, value);
        if self.wal.is_some() {
            self.unsaved.versions.push((key, ts, value));
        }
    }

    /// Records an outcome in the decision log, noting it for the next chunk
    /// when durable.
    fn decide(&mut self, txn: TxnId, commit: bool, t_commit: Ts) {
        self.decided.insert(txn, (commit, t_commit));
        if self.wal.is_some() {
            self.unsaved.decided.push((txn, commit, t_commit));
        }
    }

    /// Rebuilds durable state from a recovered chain + whole part + log
    /// tail. The chain is on the device already, so its entries skip the
    /// chunk buffers; the tail's go through them, exactly as they did before
    /// the crash. Volatile state (pending prepares, parked reads, timers)
    /// stays empty; the recovery hook re-arms what protocol liveness needs.
    fn apply_replay(&mut self, log: RecoveredLog) {
        let node = format!("spanner-shard-{}", self.shard_index);
        let (chunks, whole, records) = durable::decode_log(&node, log);
        for chunk in chunks {
            for (key, ts, value) in chunk.versions {
                self.store.apply(key, ts, value);
            }
            for (txn, commit, t_commit) in chunk.decided {
                self.decided.insert(txn, (commit, t_commit));
            }
        }
        if let Some(snap) = whole {
            self.max_ts = self.max_ts.max(snap.max_ts);
            for p in snap.prepared {
                let granted = self.locks.acquire(p.txn, p.writes.iter().map(|(k, _)| k));
                debug_assert!(granted, "prepared transactions hold disjoint locks");
                self.prepared.insert(
                    p.txn,
                    PreparedTxn {
                        writes: p.writes.into_owned(),
                        t_prepare: p.t_prepare,
                        t_ee: p.t_ee,
                        coordinator: p.coordinator,
                    },
                );
            }
            for c in snap.coordinating {
                self.coordinating.insert(
                    c.txn,
                    CoordState {
                        client: c.client,
                        awaiting: c.awaiting,
                        max_prepare: c.max_prepare,
                        writes_by_shard: c.writes_by_shard.into_owned(),
                        t_ee: c.t_ee,
                        commit_fire_at_us: c.commit_fire_at_us,
                    },
                );
            }
        }
        for rec in records {
            self.replay_record(rec);
        }
    }

    fn replay_record(&mut self, rec: ShardRecord) {
        match rec {
            ShardRecord::Prepare { txn, t_prepare, t_ee, coordinator, writes } => {
                let granted = self.locks.acquire(txn, writes.iter().map(|(k, _)| k));
                debug_assert!(granted, "replayed prepares hold disjoint locks");
                self.max_ts = self.max_ts.max(t_prepare);
                self.prepared.insert(txn, PreparedTxn { writes, t_prepare, t_ee, coordinator });
            }
            ShardRecord::Decision { txn, commit, t_commit } => {
                self.decide(txn, commit, t_commit);
                self.coordinating.remove(&txn);
                if let Some(p) = self.prepared.remove(&txn) {
                    if commit {
                        for &(k, v) in &p.writes {
                            self.install(k, t_commit, v);
                        }
                        self.max_ts = self.max_ts.max(t_commit);
                    }
                    let _ = self.locks.release(txn);
                }
            }
            ShardRecord::CoordBegin { txn, client, t_ee, writes_by_shard } => {
                self.coordinating.insert(txn, CoordState::open(client, t_ee, writes_by_shard));
            }
            ShardRecord::CoordVote { txn, shard, t_prepare } => {
                if let Some(state) = self.coordinating.get_mut(&txn) {
                    state.vote(shard, t_prepare);
                }
            }
            ShardRecord::CoordTs { txn, t_commit, fire_at_us } => {
                self.max_ts = self.max_ts.max(t_commit);
                if let Some(state) = self.coordinating.get_mut(&txn) {
                    state.max_prepare = t_commit;
                    state.commit_fire_at_us = Some(fire_at_us);
                }
            }
            ShardRecord::SafeTime { ts } => {
                self.max_ts = self.max_ts.max(ts);
            }
        }
    }

    /// The shard index this leader serves.
    pub fn shard_index(&self) -> usize {
        self.shard_index
    }

    /// Read access to the multi-version store (for tests and harnesses).
    pub fn store(&self) -> &MvccStore {
        &self.store
    }

    fn read_values(&self, keys: &[Key], t_read: Ts) -> Vec<(Key, Ts, Value)> {
        keys.iter()
            .map(|k| {
                let (ts, v) = self.store.read_at(*k, t_read);
                (*k, ts, v)
            })
            .collect()
    }

    fn conflicting_prepared(&self, keys: &[Key], t_read: Ts) -> Vec<(TxnId, Ts, Ts)> {
        self.prepared
            .iter()
            .filter(|(_, p)| {
                p.t_prepare <= t_read && p.writes.iter().any(|(k, _)| keys.contains(k))
            })
            .map(|(id, p)| (*id, p.t_prepare, p.t_ee))
            .collect()
    }

    fn finish_prepare(
        &mut self,
        ctx: &mut Context<SpannerMsg>,
        txn: TxnId,
        writes: Vec<(Key, Value)>,
        t_ee: Ts,
        coordinator: NodeId,
    ) {
        let tt = ctx.truetime_now();
        let t_prepare = (self.max_ts + 1).max(tt.latest.as_micros());
        self.max_ts = t_prepare;
        if self.wal.is_some() {
            let writes = writes.clone();
            self.log(ctx, &ShardRecord::Prepare { txn, t_prepare, t_ee, coordinator, writes });
        }
        self.prepared.insert(txn, PreparedTxn { writes, t_prepare, t_ee, coordinator });
        self.stats.prepares += 1;
        // The prepare record is durable at a majority after one replication
        // round trip; only then may the participant vote yes.
        self.send_d(
            ctx,
            coordinator,
            self.replication_delay,
            SpannerMsg::PrepareOk { txn, shard: ctx.node_id(), t_prepare },
        );
        self.arm_decision_probe(ctx, txn);
    }

    /// Arms the cooperative-termination probe for a prepared transaction:
    /// while the outcome is unknown, periodically re-ack `PrepareOk` so the
    /// coordinator (or its decision log) re-sends the decision this shard
    /// may have missed.
    fn arm_decision_probe(&mut self, ctx: &mut Context<SpannerMsg>, txn: TxnId) {
        self.probes.push(ctx, &mut self.next_timer, self.decision_probe, txn);
    }

    /// Arms the prepare re-drive for a coordinator round still awaiting
    /// votes; the timer keeps re-arming until the vote set completes or the
    /// round is aborted.
    fn arm_prepare_redrive(&mut self, ctx: &mut Context<SpannerMsg>, txn: TxnId) {
        self.redrives.push(ctx, &mut self.next_timer, self.decision_probe, txn);
    }

    fn handle_prepare(
        &mut self,
        ctx: &mut Context<SpannerMsg>,
        txn: TxnId,
        writes: Vec<(Key, Value)>,
        t_ee: Ts,
        coordinator: NodeId,
    ) {
        // Duplicate Prepare (a recovered coordinator re-driving its round,
        // or a duplicated message): the prepare record is durable, so
        // re-ack with the original timestamp instead of preparing twice.
        if let Some(p) = self.prepared.get(&txn) {
            let t_prepare = p.t_prepare;
            let reply = SpannerMsg::PrepareOk { txn, shard: ctx.node_id(), t_prepare };
            self.send_d(ctx, coordinator, SimDuration::ZERO, reply);
            return;
        }
        if self.pending_prepares.contains_key(&txn) {
            return;
        }
        if self.locks.acquire(txn, writes.iter().map(|(k, _)| k)) {
            self.finish_prepare(ctx, txn, writes, t_ee, coordinator);
        } else {
            self.pending_prepares.insert(txn, PendingPrepare { writes, t_ee, coordinator });
        }
    }

    /// Applies a commit/abort decision locally: installs writes, releases
    /// locks, wakes queued prepares, and resolves read-only transactions that
    /// were blocked on (or watching) this transaction.
    fn apply_decision(
        &mut self,
        ctx: &mut Context<SpannerMsg>,
        txn: TxnId,
        commit: bool,
        t_commit: Ts,
    ) {
        let prepared = self.prepared.remove(&txn);
        let pending = self.pending_prepares.remove(&txn);
        // The participant-side durable transition: a prepared transaction
        // learned its outcome (its buffered writes install or evaporate).
        if prepared.is_some() {
            self.log(ctx, &ShardRecord::Decision { txn, commit, t_commit });
        }
        match (&prepared, commit) {
            (Some(p), true) => {
                for &(k, v) in &p.writes {
                    self.install(k, t_commit, v);
                }
                self.max_ts = self.max_ts.max(t_commit);
                self.stats.commits += 1;
            }
            _ => {
                if prepared.is_some() || pending.is_some() {
                    self.stats.aborts += 1;
                }
            }
        }
        // Release locks and grant queued prepares.
        let granted = self.locks.release(txn);
        for g in granted {
            if let Some(p) = self.pending_prepares.remove(&g) {
                self.finish_prepare(ctx, g, p.writes, p.t_ee, p.coordinator);
            }
        }
        // Wake blocked read-only transactions.
        let mut ready = Vec::new();
        for (i, b) in self.blocked_ros.iter_mut().enumerate() {
            if b.blockers.remove(&txn) && b.blockers.is_empty() {
                ready.push(i);
            }
        }
        for i in ready.into_iter().rev() {
            let b = self.blocked_ros.remove(i);
            self.answer_ro(ctx, b.client, b.txn, &b.keys, b.t_read);
        }
        // Send slow replies for RSS watchers (collected first: sends go
        // through the WAL gate, which needs `&mut self`).
        let mut done = Vec::new();
        let mut slow_replies = Vec::new();
        for (i, w) in self.rss_watchers.iter_mut().enumerate() {
            if w.pending.remove(&txn) {
                let values = if commit {
                    let relevant: Vec<(Key, Ts, Value)> = prepared
                        .as_ref()
                        .map(|p| {
                            p.writes
                                .iter()
                                .filter(|(k, _)| w.keys.contains(k))
                                .map(|(k, v)| (*k, t_commit, *v))
                                .collect()
                        })
                        .unwrap_or_default();
                    relevant
                } else {
                    Vec::new()
                };
                self.stats.ro_slow_replies += 1;
                slow_replies.push((
                    w.client,
                    SpannerMsg::RoSlowReply {
                        txn: w.txn,
                        shard: ctx.node_id(),
                        resolved: txn,
                        committed: commit,
                        t_commit,
                        values,
                    },
                ));
                if w.pending.is_empty() {
                    done.push(i);
                }
            }
        }
        for (client, reply) in slow_replies {
            self.send_d(ctx, client, SimDuration::ZERO, reply);
        }
        for i in done.into_iter().rev() {
            self.rss_watchers.remove(i);
        }
    }

    /// Answers a read-only request whose blocking requirement has been met:
    /// baseline replies with the snapshot at `t_read`; Spanner-RSS sends a
    /// fast reply listing any still-prepared conflicting transactions it
    /// skipped and registers a watcher for their outcomes.
    fn answer_ro(
        &mut self,
        ctx: &mut Context<SpannerMsg>,
        client: NodeId,
        txn: TxnId,
        keys: &[Key],
        t_read: Ts,
    ) {
        let values = self.read_values(keys, t_read);
        match self.mode {
            Mode::Spanner => {
                let reply = SpannerMsg::RoReply { txn, shard: ctx.node_id(), values };
                self.send_d(ctx, client, SimDuration::ZERO, reply);
            }
            Mode::SpannerRss => {
                let skipped: Vec<PreparedInfo> = self
                    .conflicting_prepared(keys, t_read)
                    .into_iter()
                    .map(|(id, t_prepare, _)| PreparedInfo { txn: id, t_prepare })
                    .collect();
                self.stats.ro_skipped_prepared += skipped.len() as u64;
                if !skipped.is_empty() {
                    self.rss_watchers.push(RssWatcher {
                        client,
                        txn,
                        keys: keys.to_vec(),
                        pending: skipped.iter().map(|p| p.txn).collect(),
                    });
                }
                let reply = SpannerMsg::RoFastReply { txn, shard: ctx.node_id(), skipped, values };
                self.send_d(ctx, client, SimDuration::ZERO, reply);
            }
        }
    }

    fn handle_ro(
        &mut self,
        ctx: &mut Context<SpannerMsg>,
        from: NodeId,
        txn: TxnId,
        keys: Vec<Key>,
        t_read: Ts,
        t_min: Ts,
    ) {
        // Advance the safe time so every later prepare gets a timestamp above
        // t_read; this is what lets the reply remain valid at t_read. The
        // advance is durable: a recovered leader must not hand out a prepare
        // timestamp below a snapshot it already served.
        if t_read > self.max_ts {
            self.log(ctx, &ShardRecord::SafeTime { ts: t_read });
        }
        self.max_ts = self.max_ts.max(t_read);
        let conflicting = self.conflicting_prepared(&keys, t_read);
        let blockers: FxHashSet<TxnId> = match self.mode {
            // Baseline: block on every conflicting prepared transaction.
            Mode::Spanner => conflicting.iter().map(|(id, _, _)| *id).collect(),
            // Spanner-RSS: block only on the must-observe set B
            // (t_p ≤ t_min, or the transaction could have finished before the
            // read-only transaction started: t_ee ≤ t_read).
            Mode::SpannerRss => conflicting
                .iter()
                .filter(|(_, t_p, t_ee)| self.disable_tee_skip || *t_p <= t_min || *t_ee <= t_read)
                .map(|(id, _, _)| *id)
                .collect(),
        };
        if blockers.is_empty() {
            self.stats.ro_immediate += 1;
            self.answer_ro(ctx, from, txn, &keys, t_read);
        } else {
            self.stats.ro_blocked += 1;
            self.blocked_ros.push(BlockedRo { client: from, txn, keys, t_read, blockers });
        }
    }
}

impl ShardNode {
    fn dispatch_message(&mut self, ctx: &mut Context<SpannerMsg>, from: NodeId, msg: SpannerMsg) {
        match msg {
            SpannerMsg::ExecRead { txn, keys } => {
                let values = keys
                    .iter()
                    .map(|k| {
                        let (_, v) = self.store.read_at(*k, Ts::MAX);
                        (*k, v)
                    })
                    .collect();
                self.send_d(
                    ctx,
                    from,
                    SimDuration::ZERO,
                    SpannerMsg::ExecReadReply { txn, values },
                );
            }
            SpannerMsg::CommitRequest { txn, writes_by_shard, t_ee } => {
                // A duplicated request must not reset in-flight (or decided)
                // coordination state.
                if self.coordinating.contains_key(&txn) || self.decided.contains_key(&txn) {
                    return;
                }
                // The coordinator state is Paxos-replicated in Spanner; here
                // the round is opened in the log before any Prepare leaves.
                if self.wal.is_some() {
                    let writes_by_shard = writes_by_shard.clone();
                    self.log(
                        ctx,
                        &ShardRecord::CoordBegin { txn, client: from, t_ee, writes_by_shard },
                    );
                }
                let coordinator = ctx.node_id();
                for (node, writes) in &writes_by_shard {
                    let writes = writes.clone();
                    let prepare = SpannerMsg::Prepare { txn, writes, t_ee, coordinator };
                    self.send_d(ctx, *node, SimDuration::ZERO, prepare);
                }
                self.coordinating.insert(txn, CoordState::open(from, t_ee, writes_by_shard));
                self.arm_prepare_redrive(ctx, txn);
            }
            SpannerMsg::Prepare { txn, writes, t_ee, coordinator } => {
                self.handle_prepare(ctx, txn, writes, t_ee, coordinator);
            }
            SpannerMsg::PrepareOk { txn, shard, t_prepare } => {
                let Some(state) = self.coordinating.get_mut(&txn) else {
                    // A recovered participant re-acking a transaction whose
                    // outcome was already decided: answer from the durable
                    // decision log so it can release its prepared state.
                    if let Some(&(commit, t_commit)) = self.decided.get(&txn) {
                        self.send_d(
                            ctx,
                            shard,
                            SimDuration::ZERO,
                            SpannerMsg::CommitDecision { txn, commit, t_commit },
                        );
                    }
                    return;
                };
                // Once the vote set is complete the commit timestamp is
                // chosen and its commit wait is running; a duplicated ack
                // must not re-run the decision with a fresh timestamp.
                if state.awaiting.is_empty() {
                    return;
                }
                state.vote(shard, t_prepare);
                let complete = state.awaiting.is_empty();
                let max_prepare = state.max_prepare;
                self.log(ctx, &ShardRecord::CoordVote { txn, shard, t_prepare });
                if complete {
                    let tt = ctx.truetime_now();
                    let t_commit = max_prepare.max(self.max_ts + 1).max(tt.latest.as_micros());
                    self.max_ts = self.max_ts.max(t_commit);
                    // The commit record must be replicated, then commit wait
                    // must elapse before the outcome is released.
                    let commit_wait = regular_sim::time::SimTime::from_micros(t_commit)
                        .since(tt.earliest)
                        + SimDuration::from_micros(1);
                    let delay = self.replication_delay + commit_wait;
                    let fire_at = ctx.now().as_micros() + delay.as_micros();
                    // The chosen timestamp and its release time are durable:
                    // a recovered coordinator must re-arm the commit-wait
                    // release, or a complete round would hang forever (the
                    // participants' re-acks bounce off the duplicate guard).
                    self.log(ctx, &ShardRecord::CoordTs { txn, t_commit, fire_at_us: fire_at });
                    let state = self.coordinating.get_mut(&txn).expect("round still open");
                    // Stash the commit timestamp in max_prepare for the timer.
                    state.max_prepare = t_commit;
                    state.commit_fire_at_us = Some(fire_at);
                    let tag = self.next_timer;
                    self.next_timer += 1;
                    self.timers.insert(tag, txn);
                    ctx.set_timer(delay, tag);
                }
            }
            SpannerMsg::CommitDecision { txn, commit, t_commit } => {
                self.apply_decision(ctx, txn, commit, t_commit);
            }
            SpannerMsg::CommitReply { .. } | SpannerMsg::ExecReadReply { .. } => {
                // Client-bound messages; a shard never receives them.
            }
            SpannerMsg::AbortRequest { txn } => {
                if let Some(state) = self.coordinating.remove(&txn) {
                    // Record the abort in the durable decision log and drop
                    // the coordinator state: later re-acks from probing
                    // participants are answered from the log (the old
                    // tombstoned-in-place entry silently swallowed them,
                    // leaving participant locks held forever).
                    self.decide(txn, false, 0);
                    self.log(ctx, &ShardRecord::Decision { txn, commit: false, t_commit: 0 });
                    for p in state.participants() {
                        self.send_d(
                            ctx,
                            p,
                            SimDuration::ZERO,
                            SpannerMsg::CommitDecision { txn, commit: false, t_commit: 0 },
                        );
                    }
                    self.send_d(
                        ctx,
                        state.client,
                        SimDuration::ZERO,
                        SpannerMsg::CommitReply { txn, commit: false, t_commit: 0 },
                    );
                } else {
                    // Not coordinating this transaction (any more). If the
                    // durable decision log says it committed, the abort lost
                    // the race with the decision — a late abort must not
                    // discard prepared writes the commit still has to apply.
                    // Otherwise tombstone the abort (as StatusRequest does)
                    // so a delayed CommitRequest cannot resurrect a
                    // transaction its client already gave up on.
                    match self.decided.get(&txn) {
                        Some(&(true, t_commit)) => self.apply_decision(ctx, txn, true, t_commit),
                        _ => {
                            self.decide(txn, false, 0);
                            self.log(
                                ctx,
                                &ShardRecord::Decision { txn, commit: false, t_commit: 0 },
                            );
                            self.apply_decision(ctx, txn, false, 0);
                        }
                    }
                }
            }
            SpannerMsg::StatusRequest { txn } => {
                // 2PC cooperative termination: answer from the durable
                // decision log. An unknown transaction is tombstoned as
                // aborted so a delayed CommitRequest arriving later cannot
                // resurrect it (the client has already given up).
                if let Some(&(commit, t_commit)) = self.decided.get(&txn) {
                    self.send_d(
                        ctx,
                        from,
                        SimDuration::ZERO,
                        SpannerMsg::CommitReply { txn, commit, t_commit },
                    );
                } else if !self.coordinating.contains_key(&txn) {
                    self.decide(txn, false, 0);
                    self.log(ctx, &ShardRecord::Decision { txn, commit: false, t_commit: 0 });
                    self.send_d(
                        ctx,
                        from,
                        SimDuration::ZERO,
                        SpannerMsg::CommitReply { txn, commit: false, t_commit: 0 },
                    );
                }
                // Still coordinating: stay silent; the client probes again.
            }
            SpannerMsg::RoCommit { txn, keys, t_read, t_min } => {
                self.handle_ro(ctx, from, txn, keys, t_read, t_min);
            }
            SpannerMsg::RoReply { .. }
            | SpannerMsg::RoFastReply { .. }
            | SpannerMsg::RoSlowReply { .. } => {
                // Client-bound messages; a shard never receives them.
            }
        }
    }

    /// Re-sends `Prepare` to the participants coordinator round `txn` still
    /// awaits.
    fn resend_prepares(&mut self, ctx: &mut Context<SpannerMsg>, txn: TxnId) {
        let state = &self.coordinating[&txn];
        let resend: Vec<(NodeId, Vec<(Key, Value)>)> = state
            .writes_by_shard
            .iter()
            .filter(|(node, _)| state.awaiting.contains(node))
            .cloned()
            .collect();
        let t_ee = state.t_ee;
        let coordinator = ctx.node_id();
        for (node, writes) in resend {
            let msg = SpannerMsg::Prepare { txn, writes, t_ee, coordinator };
            self.send_d(ctx, node, SimDuration::ZERO, msg);
        }
    }

    fn dispatch_timer(&mut self, ctx: &mut Context<SpannerMsg>, tag: u64) {
        if self.probes.armed == Some(tag) {
            // Decision probes: every transaction still prepared with no
            // outcome a `commit_timeout` after its last ack re-acks the
            // coordinator (idempotent — it re-answers from the decision log
            // once decided) and keeps probing.
            let prepared = &self.prepared;
            let open = |txn: &TxnId| prepared.contains_key(txn);
            for txn in self.probes.fire(ctx, &mut self.next_timer, open) {
                let p = &self.prepared[&txn];
                let reply =
                    SpannerMsg::PrepareOk { txn, shard: ctx.node_id(), t_prepare: p.t_prepare };
                self.send_d(ctx, p.coordinator, SimDuration::ZERO, reply);
                self.arm_decision_probe(ctx, txn);
            }
            return;
        }
        if self.redrives.armed == Some(tag) {
            // Prepare re-drives: every coordinator round still missing
            // votes re-sends Prepare to the awaited participants (they
            // re-ack idempotently) and stays queued.
            let coordinating = &self.coordinating;
            let open = |txn: &TxnId| coordinating.get(txn).is_some_and(|s| !s.awaiting.is_empty());
            for txn in self.redrives.fire(ctx, &mut self.next_timer, open) {
                self.resend_prepares(ctx, txn);
                self.arm_prepare_redrive(ctx, txn);
            }
            return;
        }
        let Some(txn) = self.timers.remove(&tag) else { return };
        let Some(state) = self.coordinating.remove(&txn) else { return };
        let t_commit = state.max_prepare;
        self.decide(txn, true, t_commit);
        // The coordinator-side commit point: commit wait elapsed, the
        // decision enters the durable decision log and is released.
        self.log(ctx, &ShardRecord::Decision { txn, commit: true, t_commit });
        for p in state.participants() {
            self.send_d(
                ctx,
                p,
                SimDuration::ZERO,
                SpannerMsg::CommitDecision { txn, commit: true, t_commit },
            );
        }
        self.send_d(
            ctx,
            state.client,
            SimDuration::ZERO,
            SpannerMsg::CommitReply { txn, commit: true, t_commit },
        );
    }
}

impl regular_sim::engine::Node<SpannerMsg> for ShardNode {
    fn on_message(&mut self, ctx: &mut Context<SpannerMsg>, from: NodeId, msg: SpannerMsg) {
        self.dispatch_message(ctx, from, msg);
        self.turn_end(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Context<SpannerMsg>, tag: u64) {
        if self.flush_timer == Some(tag) {
            // Group-commit window expired: sync the log and release every
            // message the gate held back.
            self.flush_timer = None;
            if let Some(wal) = self.wal.as_mut() {
                if wal.wants_sync() {
                    wal.sync();
                }
            }
            self.release_pending(ctx);
            return;
        }
        self.dispatch_timer(ctx, tag);
        self.turn_end(ctx);
    }

    fn on_crash(&mut self, _ctx: &mut Context<SpannerMsg>) {
        if let Some(wal) = self.wal.as_mut() {
            // Machine-wipe semantics: the crash destroys everything volatile,
            // and the device applies its own crash semantics to unsynced
            // bytes (truncation, possibly a torn tail). Recovery rebuilds
            // exclusively from what the log can prove.
            wal.on_crash();
            self.wal_pending.clear();
            self.flush_timer = None;
            self.store = MvccStore::new();
            self.locks = LockTable::new();
            self.prepared.clear();
            self.pending_prepares.clear();
            self.coordinating.clear();
            self.decided.clear();
            self.unsaved = ShardChunk::default();
            self.blocked_ros.clear();
            self.rss_watchers.clear();
            self.max_ts = 0;
            self.timers.clear();
            self.probes = TerminationQueue::default();
            self.redrives = TerminationQueue::default();
            // `next_timer` is deliberately NOT reset: engine timers armed
            // before the crash are deferred and still fire with their old
            // tags after recovery; a reused tag would collide with a timer
            // armed fresh during recovery. Stats stay — they are harness
            // counters, not protocol state.
            return;
        }
        // Durable (Paxos-replicated) state survives: the versioned store,
        // prepared transactions and their locks, coordinator state, the
        // decision log, and the safe time. Volatile leader state is lost:
        //
        // * prepares still waiting for locks never voted and are forgotten —
        //   the coordinator (or the client's commit timeout) aborts them;
        // * blocked read-only transactions and RSS watchers are client-facing
        //   read sessions — the clients re-issue after their operation
        //   timeout.
        let waiting: Vec<TxnId> = self.pending_prepares.drain().map(|(txn, _)| txn).collect();
        for txn in waiting {
            // Dropped waiters hold no locks; release removes their queue
            // entries (grants can only go to other queued waiters, which are
            // dropped here too).
            let _ = self.locks.release(txn);
        }
        self.blocked_ros.clear();
        self.rss_watchers.clear();
    }

    fn on_recover(&mut self, ctx: &mut Context<SpannerMsg>) {
        if self.wal.is_some() {
            // Rebuild durable state from the device: the checkpoint's chain
            // and whole part, plus the log tail that survived the crash.
            let log = self.wal.as_mut().unwrap().recover();
            self.apply_replay(log);
            // Volatile timers died with the machine; re-arm what liveness
            // needs, in deterministic (TxnId) order.
            let mut prepared_txns: Vec<TxnId> = self.prepared.keys().copied().collect();
            prepared_txns.sort_unstable();
            for txn in prepared_txns {
                self.arm_decision_probe(ctx, txn);
            }
            let now = ctx.now().as_micros();
            let mut coord: Vec<TxnId> = self.coordinating.keys().copied().collect();
            coord.sort_unstable();
            for txn in coord {
                let state = &self.coordinating[&txn];
                if !state.awaiting.is_empty() {
                    self.arm_prepare_redrive(ctx, txn);
                } else if let Some(fire_at) = state.commit_fire_at_us {
                    // A complete round mid-commit-wait: re-arm the release
                    // (participant re-acks bounce off the duplicate guard,
                    // so nothing else would ever finish this round).
                    let tag = self.next_timer;
                    self.next_timer += 1;
                    self.timers.insert(tag, txn);
                    ctx.set_timer(SimDuration::from_micros(fire_at.saturating_sub(now)), tag);
                }
            }
        }
        // Re-drive 2PC from durable state, in deterministic (TxnId) order.
        //
        // As coordinator: votes may have been lost while down — re-send
        // Prepare to every participant still awaited (they re-ack
        // idempotently with their original timestamps).
        let mut coordinating: Vec<TxnId> = self
            .coordinating
            .iter()
            .filter(|(_, s)| !s.awaiting.is_empty())
            .map(|(txn, _)| *txn)
            .collect();
        coordinating.sort_unstable();
        for txn in coordinating {
            self.resend_prepares(ctx, txn);
        }
        // As participant: the commit/abort decision may have expired at our
        // door — re-ack every prepared transaction so the coordinator
        // answers from its decision log (or completes its vote set).
        let mut prepared: Vec<(TxnId, Ts, NodeId)> =
            self.prepared.iter().map(|(txn, p)| (*txn, p.t_prepare, p.coordinator)).collect();
        prepared.sort_unstable();
        for (txn, t_prepare, coordinator) in prepared {
            let reply = SpannerMsg::PrepareOk { txn, shard: ctx.node_id(), t_prepare };
            self.send_d(ctx, coordinator, SimDuration::ZERO, reply);
        }
        self.turn_end(ctx);
    }
}
