//! The Gryff replica: shared-register storage plus read-modify-write
//! coordination.
//!
//! Replicas store, per key, the current value and its carstamp, and apply
//! updates only when the incoming carstamp is larger (the register
//! "write-if-newer" rule). Read-modify-writes are serialized per key at a
//! deterministic coordinator replica (`key mod num_replicas`), which runs a
//! read phase and a write phase against a quorum — a simplification of
//! Gryff's EPaxos-based consensus path that preserves per-key atomicity of
//! rmws (see ARCHITECTURE.md, "Substitutions and simplifications").

use std::collections::hash_map::Entry;
use std::collections::VecDeque;

use regular_core::hashing::FxHashMap;

use regular_core::types::{Key, Value};
use regular_sim::engine::{Context, NodeId};
use regular_sim::time::SimDuration;
use regular_storage::codec::{Enc, Wire};
use regular_storage::wal::{RecoveredLog, Wal, WalStats};
use regular_storage::Durability;

use crate::carstamp::Carstamp;
use crate::config::{GryffConfig, Replied};
use crate::durable::{self, GryffRecord, SnapRmw};
use crate::messages::{Dep, GryffMsg, OpRef};

/// Counters exposed for the evaluation harness.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReplicaStats {
    /// Read-phase requests served.
    pub reads_served: u64,
    /// Write-phase (second round) applications.
    pub writes_applied: u64,
    /// Piggybacked dependencies applied before processing a request.
    pub deps_applied: u64,
    /// Read-modify-writes coordinated by this replica.
    pub rmws_coordinated: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RmwPhase {
    Read,
    Write,
}

#[derive(Debug)]
struct RmwCoordination {
    client: NodeId,
    client_op: OpRef,
    key: Key,
    new_value: Value,
    phase: RmwPhase,
    /// Replicas that answered the current round — a set, because rounds may
    /// be re-sent after a crash and messages may be duplicated, and a quorum
    /// must mean distinct replicas.
    replied: Replied,
    max: (Carstamp, Value),
    chosen: Carstamp,
}

/// A Gryff replica node.
pub struct GryffReplica {
    index: usize,
    quorum: usize,
    num_replicas: usize,
    /// Engine node id of replica 0. The replica group occupies the node-id
    /// range `first_node .. first_node + num_replicas`; standalone
    /// deployments add replicas first (`first_node = 0`), composed
    /// deployments place them after other stores' nodes.
    first_node: NodeId,
    /// The registers. Every `Read1` / `Write1` looks its key up once, so
    /// this is one hash probe; nothing iterates it in an order that reaches
    /// output (`registers` sorts).
    store: FxHashMap<Key, (Value, Carstamp)>,
    /// In-flight rmw coordinations, keyed by internal sequence number. Like
    /// real Gryff's EPaxos-based rmw path, coordination state is
    /// consensus-replicated and therefore survives leader crashes; recovery
    /// re-drives the current round (see `Node::on_recover`).
    rmws: FxHashMap<u64, RmwCoordination>,
    next_internal: u64,
    /// Per-key queue of rmws waiting their turn (the head is active).
    rmw_queue: FxHashMap<Key, VecDeque<u64>>,
    /// The at-most-once table: decided rmws by client operation id, so a
    /// retried `Rmw` request is answered from the log instead of being
    /// applied twice.
    finished_rmws: FxHashMap<OpRef, (Value, Carstamp)>,
    /// Statistics for the harness.
    pub stats: ReplicaStats,
    /// The write-ahead log under `Durability::Wal`; `None` keeps the
    /// pre-existing in-memory behaviour on every path.
    wal: Option<Wal>,
    /// Outbound messages held back until the records they depend on are
    /// synced (group commit): an ack must never reveal state the log could
    /// still lose.
    wal_pending: Vec<(NodeId, GryffMsg)>,
    /// Armed group-commit flush timer, if any.
    flush_timer: Option<u64>,
    /// Timer-tag allocator. Replicas only use timers for the group-commit
    /// flush, but tags must stay monotone across crashes (deferred engine
    /// timers fire post-recovery with their old tags).
    next_timer: u64,
    /// Bug-zoo mutant knobs (see `crate::config::BugZoo`); only compiled-in
    /// builds read them.
    #[cfg(any(test, feature = "bug-zoo"))]
    bug_zoo: crate::config::BugZoo,
}

impl GryffReplica {
    /// Creates a replica with the given index.
    ///
    /// # Panics
    ///
    /// Panics if the group has more than 64 replicas: a coordination round
    /// keeps the replicas that answered as a bit mask.
    pub fn new(cfg: &GryffConfig, index: usize) -> Self {
        Replied::check_group(cfg.num_replicas);
        let (wal, recovered) = match &cfg.durability {
            Durability::InMemory => (None, None),
            Durability::Wal(opts) => {
                let (wal, log) = Wal::open(opts, &format!("gryff-replica-{index}"));
                (Some(wal), Some(log))
            }
        };
        let mut replica = GryffReplica {
            index,
            quorum: cfg.quorum(),
            num_replicas: cfg.num_replicas,
            first_node: 0,
            store: FxHashMap::default(),
            rmws: FxHashMap::default(),
            next_internal: 0,
            rmw_queue: FxHashMap::default(),
            finished_rmws: FxHashMap::default(),
            stats: ReplicaStats::default(),
            wal,
            wal_pending: Vec::new(),
            flush_timer: None,
            next_timer: 0,
            #[cfg(any(test, feature = "bug-zoo"))]
            bug_zoo: cfg.bug_zoo,
        };
        // A pre-existing log (a live-plane process restart) replays into the
        // initial state; fresh simulation runs start from an empty device.
        if let Some(log) = recovered {
            replica.apply_replay(log);
        }
        replica
    }

    /// WAL counters for this replica (zeroes under `Durability::InMemory`).
    pub fn wal_stats(&self) -> WalStats {
        self.wal.as_ref().map(|w| w.stats()).unwrap_or_default()
    }

    /// Whether this replica runs on a write-ahead log.
    pub fn is_durable(&self) -> bool {
        self.wal.is_some()
    }

    /// Every register this replica holds, sorted by key — the differential
    /// anchor for durability tests.
    pub fn registers(&self) -> Vec<(Key, Value, Carstamp)> {
        let mut regs: Vec<(Key, Value, Carstamp)> =
            self.store.iter().map(|(&k, &(v, cs))| (k, v, cs)).collect();
        regs.sort_unstable_by_key(|(k, _, _)| k.0);
        regs
    }

    /// Appends a durable state transition to the WAL (no-op when in-memory).
    /// Out of line: inlined, the record encoder lands in every handler and
    /// the in-memory runs, which never take this branch, pay for its size.
    #[inline(never)]
    fn log(&mut self, ctx: &Context<GryffMsg>, rec: &GryffRecord) {
        if let Some(wal) = self.wal.as_mut() {
            wal.append_with(ctx.now().as_micros(), |enc| rec.encode_into(enc));
        }
    }

    /// Sends `msg` to `to`, holding it back while the WAL has unsynced
    /// records. FIFO order with earlier held messages is preserved.
    fn send_d(&mut self, ctx: &mut Context<GryffMsg>, to: NodeId, msg: GryffMsg) {
        let gated =
            self.wal.as_ref().is_some_and(|w| w.wants_sync()) || !self.wal_pending.is_empty();
        if gated {
            self.wal_pending.push((to, msg));
        } else {
            ctx.send(to, msg);
        }
    }

    fn release_pending(&mut self, ctx: &mut Context<GryffMsg>) {
        for (to, msg) in std::mem::take(&mut self.wal_pending) {
            ctx.send(to, msg);
        }
    }

    /// Group-commit bookkeeping at the end of every handler turn: write a
    /// due checkpoint, sync immediately (window 0 or expired) or arm the
    /// flush timer, and release held messages once nothing is unsynced.
    fn turn_end(&mut self, ctx: &mut Context<GryffMsg>) {
        if self.wal.is_none() {
            debug_assert!(self.wal_pending.is_empty());
            return;
        }
        if self.wal.as_ref().unwrap().checkpoint_due() {
            // Out of `self` while the encoder borrows the rest of it. The
            // whole state is the whole part, and the chunk is empty (module
            // docs of `durable`). A snapshot that outgrew its area is skipped
            // and counted, and a sweep seed with any skip fails
            // (`StorageSummary::skipped_checkpoints`).
            let mut wal = self.wal.take().unwrap();
            let _wrote = wal.checkpoint_with(|_| {}, |enc| self.encode_snapshot(enc));
            self.wal = Some(wal);
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

    /// Serializes the durable state for a checkpoint, deterministically.
    fn encode_snapshot(&self, enc: &mut Enc) {
        let mut rmws: Vec<SnapRmw> = self
            .rmws
            .iter()
            .map(|(&internal, c)| SnapRmw {
                internal,
                client: c.client,
                client_op: c.client_op,
                key: c.key,
                new_value: c.new_value,
                phase: match c.phase {
                    RmwPhase::Read => 0,
                    RmwPhase::Write => 1,
                },
                max_value: c.max.1,
                max_cs: c.max.0,
                chosen: c.chosen,
            })
            .collect();
        rmws.sort_unstable_by_key(|r| r.internal);
        let mut finished: Vec<(OpRef, Value, Carstamp)> =
            self.finished_rmws.iter().map(|(&op, &(v, cs))| (op, v, cs)).collect();
        finished.sort_unstable_by_key(|(op, _, _)| (op.node, op.seq));
        durable::encode_snapshot(enc, &self.registers(), &rmws, self.next_internal, &finished);
    }

    /// Rebuilds durable state from a recovered snapshot + log tail. The
    /// `replied` sets stay empty; the recovery hook re-drives head-of-queue
    /// rounds to re-collect their quorums.
    fn apply_replay(&mut self, log: RecoveredLog) {
        let node = format!("gryff-replica-{}", self.index);
        let (snapshot, records) = durable::decode_log(&node, log);
        if let Some(snap) = snapshot {
            for (key, value, cs) in snap.store {
                self.apply_raw(key, value, cs);
            }
            self.next_internal = self.next_internal.max(snap.next_internal);
            let mut rmws = snap.rmws;
            rmws.sort_unstable_by_key(|r| r.internal);
            for r in rmws {
                self.rmws.insert(
                    r.internal,
                    RmwCoordination {
                        client: r.client,
                        client_op: r.client_op,
                        key: r.key,
                        new_value: r.new_value,
                        phase: if r.phase == 0 { RmwPhase::Read } else { RmwPhase::Write },
                        replied: Replied::default(),
                        max: (r.max_cs, r.max_value),
                        chosen: r.chosen,
                    },
                );
                // Queue order is arrival order, which is internal-id order.
                self.rmw_queue.entry(r.key).or_default().push_back(r.internal);
            }
            for (op, value, cs) in snap.finished {
                self.finished_rmws.insert(op, (value, cs));
            }
        }
        for rec in records {
            self.replay_record(rec);
        }
    }

    fn replay_record(&mut self, rec: GryffRecord) {
        match rec {
            GryffRecord::Apply { key, value, cs } => {
                self.apply_raw(key, value, cs);
            }
            GryffRecord::RmwBegin { internal, client, client_op, key, new_value } => {
                self.next_internal = self.next_internal.max(internal + 1);
                self.rmws.insert(
                    internal,
                    RmwCoordination {
                        client,
                        client_op,
                        key,
                        new_value,
                        phase: RmwPhase::Read,
                        replied: Replied::default(),
                        max: (Carstamp::ZERO, Value::NULL),
                        chosen: Carstamp::ZERO,
                    },
                );
                self.rmw_queue.entry(key).or_default().push_back(internal);
            }
            GryffRecord::RmwChosen { internal, old_value, cs } => {
                if let Some(coord) = self.rmws.get_mut(&internal) {
                    coord.phase = RmwPhase::Write;
                    coord.replied = Replied::default();
                    coord.max.1 = old_value;
                    coord.chosen = cs;
                }
            }
            GryffRecord::RmwFinish { internal, client_op, key, old_value, cs } => {
                self.rmws.remove(&internal);
                self.finished_rmws.insert(client_op, (old_value, cs));
                if let Some(queue) = self.rmw_queue.get_mut(&key) {
                    queue.retain(|&i| i != internal);
                    if queue.is_empty() {
                        self.rmw_queue.remove(&key);
                    }
                }
            }
        }
    }

    /// This replica's index.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Places the replica group at engine node ids
    /// `first .. first + num_replicas` (composed deployments add other
    /// stores' nodes before the replicas, so replica `i` is *not* node `i`).
    pub fn with_first_node(mut self, first: NodeId) -> Self {
        self.first_node = first;
        self
    }

    /// The engine node ids of the whole replica group, coordination rounds'
    /// destinations (self included, via loopback).
    fn peer_nodes(&self) -> std::ops::Range<NodeId> {
        self.first_node..self.first_node + self.num_replicas
    }

    /// The group position of engine node `from`, if it is one of the
    /// group's replicas.
    fn position_of(&self, from: NodeId) -> Option<usize> {
        let position = from.wrapping_sub(self.first_node);
        (position < self.num_replicas).then_some(position)
    }

    /// Current value and carstamp for a key.
    pub fn get(&self, key: Key) -> (Value, Carstamp) {
        self.store.get(&key).copied().unwrap_or((Value::NULL, Carstamp::ZERO))
    }

    /// Installs `(value, cs)` under the write-if-newer rule in one probe,
    /// without logging (replay path — the record already exists). Returns
    /// whether the register advanced; an absent key holds
    /// `Carstamp::ZERO`, and a write that does not beat it stores nothing.
    fn apply_raw(&mut self, key: Key, value: Value, cs: Carstamp) -> bool {
        match self.store.entry(key) {
            Entry::Occupied(mut reg) if cs > reg.get().1 => {
                reg.insert((value, cs));
                true
            }
            Entry::Vacant(slot) if cs > Carstamp::ZERO => {
                slot.insert((value, cs));
                true
            }
            _ => false,
        }
    }

    /// Installs `(value, cs)` under the write-if-newer rule, logging the
    /// register transition when it actually advances.
    fn apply(&mut self, ctx: &Context<GryffMsg>, key: Key, value: Value, cs: Carstamp) {
        if self.apply_raw(key, value, cs) {
            self.log(ctx, &GryffRecord::Apply { key, value, cs });
        }
    }

    fn apply_dep(&mut self, ctx: &Context<GryffMsg>, dep: Option<Dep>) {
        if let Some(d) = dep {
            self.apply(ctx, d.key, d.value, d.cs);
            self.stats.deps_applied += 1;
        }
    }

    fn start_next_rmw(&mut self, ctx: &mut Context<GryffMsg>, key: Key) {
        let Some(queue) = self.rmw_queue.get(&key) else { return };
        let Some(&internal) = queue.front() else { return };
        let op = OpRef { node: ctx.node_id(), seq: internal };
        let key = self.rmws[&internal].key;
        // Read phase against all replicas (including ourselves via loopback).
        for p in self.peer_nodes() {
            self.send_d(ctx, p, GryffMsg::Read1 { op, key, dep: None });
        }
    }

    /// Re-sends the current round of coordination `internal` if it is the
    /// head of its key queue (a queued coordination starts when the head
    /// finishes, so only the head has a round in flight). Rounds are
    /// idempotent and reply-counting dedups by replica, so replicas that
    /// already answered simply answer again.
    ///
    /// Called when a client retries an in-flight `Rmw` — without this, a
    /// round whose replies were lost (a partition or drop window) stalls
    /// forever: nothing on the coordinator re-drives it, and the retried
    /// request used to be swallowed by the at-most-once dedup. The client's
    /// operation timeout is the retry clock.
    fn redrive_rmw(&mut self, ctx: &mut Context<GryffMsg>, internal: u64) {
        let Some(coord) = self.rmws.get(&internal) else { return };
        let key = coord.key;
        if self.rmw_queue.get(&key).and_then(|q| q.front()) != Some(&internal) {
            return;
        }
        let op = OpRef { node: ctx.node_id(), seq: internal };
        match coord.phase {
            RmwPhase::Read => {
                for p in self.peer_nodes() {
                    self.send_d(ctx, p, GryffMsg::Read1 { op, key, dep: None });
                }
            }
            RmwPhase::Write => {
                // The decision (value, carstamp) is durable: re-sending the
                // same Write2 is a no-op at replicas that already applied it.
                let (value, cs) = (coord.new_value, coord.chosen);
                for p in self.peer_nodes() {
                    self.send_d(ctx, p, GryffMsg::Write2 { op, key, value, cs });
                }
            }
        }
    }

    fn handle_rmw_reply_read(
        &mut self,
        ctx: &mut Context<GryffMsg>,
        from: NodeId,
        internal: u64,
        value: Value,
        cs: Carstamp,
    ) {
        let ready = {
            let Some(position) = self.position_of(from) else { return };
            let Some(coord) = self.rmws.get_mut(&internal) else { return };
            if coord.phase != RmwPhase::Read || !coord.replied.insert(position) {
                return;
            }
            if (cs, value) > coord.max {
                coord.max = (cs, value);
            }
            coord.replied.len() >= self.quorum
        };
        if !ready {
            return;
        }
        // Move to the write phase: install the new value at max + 1.
        let (op, key, new_value, chosen, old_value) = {
            let coord = self.rmws.get_mut(&internal).expect("coordination exists");
            coord.phase = RmwPhase::Write;
            coord.replied = Replied::default();
            // The rmw extends the base value it observed: only `rmwc`
            // advances, so a racing base write (count + 1) still orders
            // above this rmw — see `Carstamp::next_rmw`.
            coord.chosen = coord.max.0.next_rmw();
            // Bug-zoo mutant: the PR 5 regression chose a fresh two-component
            // carstamp instead, at count+1 with the maximal writer id — so
            // the rmw always wins the tie-break against a racing base write
            // at the same count, and that write becomes unobservable.
            #[cfg(any(test, feature = "bug-zoo"))]
            if self.bug_zoo.two_component_carstamps {
                coord.chosen = coord.max.0.next(u64::MAX);
            }
            (
                OpRef { node: ctx.node_id(), seq: internal },
                coord.key,
                coord.new_value,
                coord.chosen,
                coord.max.1,
            )
        };
        // The chosen carstamp must be durable before any Write2 leaves:
        // recovery must resume this exact decision, not re-run the read
        // phase and install the rmw a second time at a new position.
        self.log(ctx, &GryffRecord::RmwChosen { internal, old_value, cs: chosen });
        for p in self.peer_nodes() {
            self.send_d(ctx, p, GryffMsg::Write2 { op, key, value: new_value, cs: chosen });
        }
    }

    fn handle_rmw_reply_write(&mut self, ctx: &mut Context<GryffMsg>, from: NodeId, internal: u64) {
        let done = {
            let Some(position) = self.position_of(from) else { return };
            let Some(coord) = self.rmws.get_mut(&internal) else { return };
            if coord.phase != RmwPhase::Write || !coord.replied.insert(position) {
                return;
            }
            coord.replied.len() >= self.quorum
        };
        if !done {
            return;
        }
        let coord = self.rmws.remove(&internal).expect("coordination exists");
        self.stats.rmws_coordinated += 1;
        self.finished_rmws.insert(coord.client_op, (coord.max.1, coord.chosen));
        self.log(
            ctx,
            &GryffRecord::RmwFinish {
                internal,
                client_op: coord.client_op,
                key: coord.key,
                old_value: coord.max.1,
                cs: coord.chosen,
            },
        );
        self.send_d(
            ctx,
            coord.client,
            GryffMsg::RmwReply { op: coord.client_op, old_value: coord.max.1, cs: coord.chosen },
        );
        // Start the next queued rmw for this key, if any.
        if let Some(queue) = self.rmw_queue.get_mut(&coord.key) {
            queue.pop_front();
            if queue.is_empty() {
                self.rmw_queue.remove(&coord.key);
            } else {
                self.start_next_rmw(ctx, coord.key);
            }
        }
    }
}

impl GryffReplica {
    fn dispatch_message(&mut self, ctx: &mut Context<GryffMsg>, from: NodeId, msg: GryffMsg) {
        match msg {
            GryffMsg::Read1 { op, key, dep } => {
                self.apply_dep(ctx, dep);
                self.stats.reads_served += 1;
                let (value, cs) = self.get(key);
                self.send_d(ctx, from, GryffMsg::Read1Reply { op, value, cs });
            }
            GryffMsg::Write1 { op, key, dep } => {
                self.apply_dep(ctx, dep);
                let (_, cs) = self.get(key);
                self.send_d(ctx, from, GryffMsg::Write1Reply { op, cs });
            }
            GryffMsg::Write2 { op, key, value, cs } => {
                self.apply(ctx, key, value, cs);
                self.stats.writes_applied += 1;
                self.send_d(ctx, from, GryffMsg::Write2Reply { op });
            }
            GryffMsg::Rmw { op, key, new_value, dep } => {
                self.apply_dep(ctx, dep);
                // At-most-once: a retried (or duplicated) request for a
                // decided rmw is answered from the log; one already in
                // flight keeps coordinating.
                if let Some(&(old_value, cs)) = self.finished_rmws.get(&op) {
                    self.send_d(ctx, from, GryffMsg::RmwReply { op, old_value, cs });
                    return;
                }
                if let Some(internal) =
                    self.rmws.iter().find(|(_, c)| c.client_op == op).map(|(&i, _)| i)
                {
                    // Already coordinating: the retry means the client timed
                    // out, so the round's replies were probably lost —
                    // re-drive it instead of dropping the request.
                    self.redrive_rmw(ctx, internal);
                    return;
                }
                let internal = self.next_internal;
                self.next_internal += 1;
                self.rmws.insert(
                    internal,
                    RmwCoordination {
                        client: from,
                        client_op: op,
                        key,
                        new_value,
                        phase: RmwPhase::Read,
                        replied: Replied::default(),
                        max: (Carstamp::ZERO, Value::NULL),
                        chosen: Carstamp::ZERO,
                    },
                );
                self.log(
                    ctx,
                    &GryffRecord::RmwBegin {
                        internal,
                        client: from,
                        client_op: op,
                        key,
                        new_value,
                    },
                );
                let queue = self.rmw_queue.entry(key).or_default();
                queue.push_back(internal);
                if queue.len() == 1 {
                    self.start_next_rmw(ctx, key);
                }
            }
            // Replies to this replica acting as an rmw coordinator.
            GryffMsg::Read1Reply { op, value, cs } => {
                if op.node == ctx.node_id() {
                    self.handle_rmw_reply_read(ctx, from, op.seq, value, cs);
                }
            }
            GryffMsg::Write2Reply { op } => {
                if op.node == ctx.node_id() {
                    self.handle_rmw_reply_write(ctx, from, op.seq);
                }
            }
            GryffMsg::Write1Reply { .. } | GryffMsg::RmwReply { .. } => {
                // Client-bound messages; replicas ignore them.
            }
        }
    }
}

impl regular_sim::engine::Node<GryffMsg> for GryffReplica {
    fn on_message(&mut self, ctx: &mut Context<GryffMsg>, from: NodeId, msg: GryffMsg) {
        self.dispatch_message(ctx, from, msg);
        self.turn_end(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Context<GryffMsg>, tag: u64) {
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
        }
        // Any other tag is a stale flush timer deferred across a crash.
    }

    fn on_crash(&mut self, _ctx: &mut Context<GryffMsg>) {
        let Some(wal) = self.wal.as_mut() else {
            // In-memory mode models the paper's assumptions directly: the
            // register store is disk-backed and rmw coordination state is
            // consensus-replicated (as in Gryff's EPaxos rmw path), so a
            // crash loses nothing.
            return;
        };
        // Machine-wipe semantics: the crash destroys everything volatile,
        // and the device applies its own crash semantics to unsynced bytes.
        // Recovery rebuilds exclusively from what the log can prove.
        wal.on_crash();
        self.wal_pending.clear();
        self.flush_timer = None;
        self.store = FxHashMap::default();
        self.rmws.clear();
        self.next_internal = 0;
        self.rmw_queue = FxHashMap::default();
        self.finished_rmws.clear();
        // `next_timer` is deliberately NOT reset (deferred engine timers
        // keep their old tags); stats are harness counters and stay.
    }

    fn on_recover(&mut self, ctx: &mut Context<GryffMsg>) {
        if self.wal.is_some() {
            // Rebuild durable state from the device: last checkpoint
            // snapshot plus the log tail that survived the crash.
            let log = self.wal.as_mut().unwrap().recover();
            self.apply_replay(log);
        }
        // Replies that arrived while this coordinator was down expired.
        // Re-drive the current round of every active (head-of-queue)
        // coordination; rounds are idempotent and reply-counting dedups by
        // replica, so replicas that already answered simply answer again.
        let mut heads: Vec<(Key, u64)> = self
            .rmw_queue
            .iter()
            .filter_map(|(&k, q)| q.front().map(|&internal| (k, internal)))
            .collect();
        // Key order, not the map's: the re-driven rounds' sends are the
        // history.
        heads.sort_unstable();
        for (_, internal) in heads {
            self.redrive_rmw(ctx, internal);
        }
        self.turn_end(ctx);
    }

    /// The replica's behaviour-coverage phase tag: bit 0 — rmw coordinations in
    /// flight; bit 1 — an rmw already in its write phase; bit 2 — outbound
    /// messages gated on a WAL sync; bit 3 — a group-commit flush timer
    /// armed. A message delivered while a bit is set is a different
    /// behaviour than the same message on an idle replica — exactly the
    /// distinctions the carstamp and recovery races live in.
    fn phase_tag(&self) -> u16 {
        let mut tag = 0;
        if !self.rmws.is_empty() {
            tag |= 1;
        }
        if self.rmws.values().any(|c| c.phase == RmwPhase::Write) {
            tag |= 1 << 1;
        }
        if !self.wal_pending.is_empty() {
            tag |= 1 << 2;
        }
        if self.flush_timer.is_some() {
            tag |= 1 << 3;
        }
        tag
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Mode;

    #[test]
    fn apply_respects_carstamp_order() {
        let cfg = GryffConfig::wan(Mode::Gryff);
        let mut r = GryffReplica::new(&cfg, 0);
        assert_eq!(r.get(Key(1)), (Value::NULL, Carstamp::ZERO));
        r.apply_raw(Key(1), Value(10), Carstamp { count: 2, writer: 1, rmwc: 0 });
        r.apply_raw(Key(1), Value(20), Carstamp { count: 1, writer: 9, rmwc: 0 });
        assert_eq!(r.get(Key(1)).0, Value(10), "older carstamp must not overwrite newer");
        r.apply_raw(Key(1), Value(30), Carstamp { count: 3, writer: 0, rmwc: 0 });
        assert_eq!(r.get(Key(1)).0, Value(30));
    }

    #[test]
    fn replica_metadata() {
        let cfg = GryffConfig::wan(Mode::Gryff);
        let r = GryffReplica::new(&cfg, 2);
        assert_eq!(r.num_replicas, 5);
        assert_eq!(r.quorum, 3);
        assert_eq!(r.index(), 2);
    }
}
