//! The shard leader node: two-phase commit participant/coordinator and the
//! read-only transaction server (Algorithm 2) of both protocols. A read
//! waits for the prepares its [`ReadPolicy`] must observe, then gets a fast
//! reply listing the conflicting prepares it skipped (none under strict
//! Spanner) and one slow reply as each skipped prepare resolves.
//!
//! Each shard is simulated as its leader; replication of prepare and commit
//! records to a majority is modeled as a fixed delay (the round-trip time to
//! the nearest replica), and the Paxos safe time is advanced eagerly as the
//! leader-lease optimization in the paper permits.

use std::collections::VecDeque;

use regular_core::hashing::{FxHashMap, FxHashSet};

use regular_core::types::{Key, Value};
use regular_session::DurableLog;
use regular_sim::engine::{Context, NodeId};
use regular_sim::time::SimDuration;
use regular_storage::codec::{Enc, Wire};
use regular_storage::wal::{RecoveredLog, WalStats};

use crate::config::SpannerConfig;
use crate::durable::{
    self, ShardChunk, ShardRecord, ShardSnapshot, SnapCoord, SnapPrepared, SNAPSHOT_VERSION,
};
use crate::locks::LockTable;
use crate::messages::{PreparedInfo, SpannerMsg, Ts, TxnId};
use crate::ro::ReadPolicy;
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

/// A read-only transaction parked on prepared transactions: blocked on its
/// must-observe set `B` (Algorithm 2, line 7), or answered and owed one slow
/// reply per skipped prepare (lines 11-18).
#[derive(Debug, Clone)]
struct ParkedRo {
    client: NodeId,
    txn: TxnId,
    keys: Vec<Key>,
    t_read: Ts,
    waiting_on: FxHashSet<TxnId>,
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

/// Serializes a checkpoint's whole part, deterministically: both hash-map
/// sections sorted, nothing cloned. Only these two are sorted: the store and
/// the decision log travel in chunks, in install order.
fn encode_whole(
    enc: &mut Enc,
    max_ts: Ts,
    prepared: &FxHashMap<TxnId, PreparedTxn>,
    coordinating: &FxHashMap<TxnId, CoordState>,
) {
    let mut prepared: Vec<SnapPrepared> = prepared
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
    let mut coordinating: Vec<SnapCoord> = coordinating
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
    durable::encode_whole(enc, max_ts, &prepared, &coordinating);
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
    /// Slow replies sent.
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
    /// Which conflicting prepares a read-only transaction must observe.
    policy: ReadPolicy,
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
    blocked_ros: Vec<ParkedRo>,
    rss_watchers: Vec<ParkedRo>,
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
    /// The write-ahead log under `Durability::Wal`, and every send, held
    /// back until the records it depends on are synced.
    durable: DurableLog<SpannerMsg>,
}

impl ShardNode {
    /// Creates a shard leader for `shard_index` under the given configuration.
    pub fn new(cfg: &SpannerConfig, shard_index: usize, replication_delay: SimDuration) -> Self {
        let (durable, recovered) =
            DurableLog::open(&cfg.durability, &format!("spanner-shard-{shard_index}"));
        let mut node = ShardNode {
            policy: ReadPolicy::new(cfg.mode, cfg.disable_tee_skip),
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
            durable,
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
        self.durable.stats()
    }

    /// The end of every handler turn ([`DurableLog::end_turn`]), with this
    /// shard's checkpoint parts: the chunk of what it installed and decided
    /// since the last checkpoint, dropped once written, and the whole part.
    fn end_turn(&mut self, ctx: &mut Context<SpannerMsg>) {
        let (unsaved, prepared, coordinating) = (&self.unsaved, &self.prepared, &self.coordinating);
        let whole = |enc: &mut Enc| encode_whole(enc, self.max_ts, prepared, coordinating);
        if self.durable.end_turn(ctx, &mut self.next_timer, |enc| unsaved.encode_into(enc), whole) {
            self.unsaved.versions.clear();
            self.unsaved.decided.clear();
        }
    }

    /// Installs a committed version, noting it for the next chunk when
    /// durable.
    fn install(&mut self, key: Key, ts: Ts, value: Value) {
        self.store.apply(key, ts, value);
        if self.durable.is_durable() {
            self.unsaved.versions.push((key, ts, value));
        }
    }

    /// Records an outcome in the decision log, noting it for the next chunk
    /// when durable.
    fn decide(&mut self, txn: TxnId, commit: bool, t_commit: Ts) {
        self.decided.insert(txn, (commit, t_commit));
        if self.durable.is_durable() {
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
        let (chunks, whole, records) =
            log.decode::<ShardChunk, ShardSnapshot, ShardRecord>(&node, SNAPSHOT_VERSION);
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

    /// The prepared transactions at or below `t_read` that write one of
    /// `keys`.
    fn conflicting_prepared<'a>(
        &'a self,
        keys: &'a [Key],
        t_read: Ts,
    ) -> impl Iterator<Item = (&'a TxnId, &'a PreparedTxn)> + 'a {
        self.prepared.iter().filter(move |(_, p)| {
            p.t_prepare <= t_read && p.writes.iter().any(|(k, _)| keys.contains(k))
        })
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
        if self.durable.is_durable() {
            let writes = writes.clone();
            self.durable
                .append(ctx, &ShardRecord::Prepare { txn, t_prepare, t_ee, coordinator, writes });
        }
        self.prepared.insert(txn, PreparedTxn { writes, t_prepare, t_ee, coordinator });
        self.stats.prepares += 1;
        // The prepare record is durable at a majority after one replication
        // round trip; only then may the participant vote yes.
        self.durable.send_after(
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
            self.durable.send(ctx, coordinator, reply);
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
            self.durable.append(ctx, &ShardRecord::Decision { txn, commit, t_commit });
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
        // Wake blocked read-only transactions, latest first.
        let woken = |b: &mut ParkedRo| b.waiting_on.remove(&txn) && b.waiting_on.is_empty();
        let ready: Vec<ParkedRo> = self.blocked_ros.extract_if(.., woken).collect();
        for b in ready.into_iter().rev() {
            self.answer_ro(ctx, b.client, b.txn, &b.keys, b.t_read);
        }
        // Slow replies for the RSS watchers of this transaction.
        let (shard, durable, stats) = (ctx.node_id(), &mut self.durable, &mut self.stats);
        self.rss_watchers.retain_mut(|w| {
            if !w.waiting_on.remove(&txn) {
                return true;
            }
            let values = match (&prepared, commit) {
                (Some(p), true) => {
                    let read = p.writes.iter().filter(|(k, _)| w.keys.contains(k));
                    read.map(|&(k, v)| (k, t_commit, v)).collect()
                }
                _ => Vec::new(),
            };
            let (resolved, committed, txn) = (txn, commit, w.txn);
            let reply =
                SpannerMsg::RoSlowReply { txn, shard, resolved, committed, t_commit, values };
            durable.send(ctx, w.client, reply);
            stats.ro_slow_replies += 1;
            !w.waiting_on.is_empty()
        });
    }

    /// Answers a read-only request whose must-observe set has resolved: the
    /// snapshot at `t_read` and the undecided conflicting prepares skipped,
    /// each owed a slow reply. Strict skips none: `handle_ro` raised `max_ts`
    /// to `t_read`, so all such prepares were blockers.
    fn answer_ro(
        &mut self,
        ctx: &mut Context<SpannerMsg>,
        client: NodeId,
        txn: TxnId,
        keys: &[Key],
        t_read: Ts,
    ) {
        let values = self.read_values(keys, t_read);
        let skipped: Vec<PreparedInfo> = self
            .conflicting_prepared(keys, t_read)
            .map(|(&txn, p)| PreparedInfo { txn, t_prepare: p.t_prepare })
            .collect();
        debug_assert!(skipped.is_empty() || self.policy != ReadPolicy::Strict);
        self.stats.ro_skipped_prepared += skipped.len() as u64;
        if !skipped.is_empty() {
            let waiting_on = skipped.iter().map(|p| p.txn).collect();
            let keys = keys.to_vec();
            self.rss_watchers.push(ParkedRo { client, txn, keys, t_read, waiting_on });
        }
        let reply = SpannerMsg::RoFastReply { txn, shard: ctx.node_id(), skipped, values };
        self.durable.send(ctx, client, reply);
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
            self.durable.append(ctx, &ShardRecord::SafeTime { ts: t_read });
        }
        self.max_ts = self.max_ts.max(t_read);
        let waiting_on: FxHashSet<TxnId> = self
            .conflicting_prepared(&keys, t_read)
            .filter(|(_, p)| self.policy.must_observe(p.t_prepare, p.t_ee, t_read, t_min))
            .map(|(&id, _)| id)
            .collect();
        if waiting_on.is_empty() {
            self.stats.ro_immediate += 1;
            self.answer_ro(ctx, from, txn, &keys, t_read);
        } else {
            self.stats.ro_blocked += 1;
            self.blocked_ros.push(ParkedRo { client: from, txn, keys, t_read, waiting_on });
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
                self.durable.send(ctx, from, SpannerMsg::ExecReadReply { txn, values });
            }
            SpannerMsg::CommitRequest { txn, writes_by_shard, t_ee } => {
                // A duplicated request must not reset in-flight (or decided)
                // coordination state.
                if self.coordinating.contains_key(&txn) || self.decided.contains_key(&txn) {
                    return;
                }
                // The coordinator state is Paxos-replicated in Spanner; here
                // the round is opened in the log before any Prepare leaves.
                if self.durable.is_durable() {
                    let writes_by_shard = writes_by_shard.clone();
                    self.durable.append(
                        ctx,
                        &ShardRecord::CoordBegin { txn, client: from, t_ee, writes_by_shard },
                    );
                }
                let coordinator = ctx.node_id();
                for (node, writes) in &writes_by_shard {
                    let writes = writes.clone();
                    let prepare = SpannerMsg::Prepare { txn, writes, t_ee, coordinator };
                    self.durable.send(ctx, *node, prepare);
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
                        self.durable.send(
                            ctx,
                            shard,
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
                self.durable.append(ctx, &ShardRecord::CoordVote { txn, shard, t_prepare });
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
                    self.durable
                        .append(ctx, &ShardRecord::CoordTs { txn, t_commit, fire_at_us: fire_at });
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
                    self.durable
                        .append(ctx, &ShardRecord::Decision { txn, commit: false, t_commit: 0 });
                    for p in state.participants() {
                        self.durable.send(
                            ctx,
                            p,
                            SpannerMsg::CommitDecision { txn, commit: false, t_commit: 0 },
                        );
                    }
                    self.durable.send(
                        ctx,
                        state.client,
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
                            self.durable.append(
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
                    self.durable.send(ctx, from, SpannerMsg::CommitReply { txn, commit, t_commit });
                } else if !self.coordinating.contains_key(&txn) {
                    self.decide(txn, false, 0);
                    self.durable
                        .append(ctx, &ShardRecord::Decision { txn, commit: false, t_commit: 0 });
                    self.durable.send(
                        ctx,
                        from,
                        SpannerMsg::CommitReply { txn, commit: false, t_commit: 0 },
                    );
                }
                // Still coordinating: stay silent; the client probes again.
            }
            SpannerMsg::RoCommit { txn, keys, t_read, t_min } => {
                self.handle_ro(ctx, from, txn, keys, t_read, t_min);
            }
            SpannerMsg::RoFastReply { .. } | SpannerMsg::RoSlowReply { .. } => {
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
            self.durable.send(ctx, node, msg);
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
                self.durable.send(ctx, p.coordinator, reply);
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
        self.durable.append(ctx, &ShardRecord::Decision { txn, commit: true, t_commit });
        for p in state.participants() {
            self.durable.send(ctx, p, SpannerMsg::CommitDecision { txn, commit: true, t_commit });
        }
        self.durable.send(
            ctx,
            state.client,
            SpannerMsg::CommitReply { txn, commit: true, t_commit },
        );
    }
}

impl regular_sim::engine::Node<SpannerMsg> for ShardNode {
    fn on_message(&mut self, ctx: &mut Context<SpannerMsg>, from: NodeId, msg: SpannerMsg) {
        self.dispatch_message(ctx, from, msg);
        self.end_turn(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Context<SpannerMsg>, tag: u64) {
        if self.durable.on_timer(ctx, tag) {
            return;
        }
        self.dispatch_timer(ctx, tag);
        self.end_turn(ctx);
    }

    fn on_crash(&mut self, _ctx: &mut Context<SpannerMsg>) {
        if self.durable.crash() {
            // Machine-wipe semantics: the crash destroys everything volatile.
            // Recovery rebuilds exclusively from what the log can prove.
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
        if let Some(log) = self.durable.recover() {
            // Rebuild durable state from the device: the checkpoint's chain
            // and whole part, plus the log tail that survived the crash.
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
            self.durable.send(ctx, coordinator, reply);
        }
        self.end_turn(ctx);
    }
}
