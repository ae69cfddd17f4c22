//! The Gryff / Gryff-RSC client protocol core: reads, writes,
//! read-modify-writes, and real-time fences.
//!
//! * **Reads** (baseline): a read phase against a quorum; if the quorum
//!   disagrees, a write-back phase propagates the newest value before the read
//!   returns (two round trips).
//! * **Reads** (Gryff-RSC): always one round trip; when the quorum disagrees
//!   the observed value becomes a *dependency* piggybacked on the client's
//!   next operation (Algorithm 3).
//! * **Writes**: carstamp collection then propagation (two round trips).
//! * **Read-modify-writes**: forwarded to the key's coordinator replica.
//! * **Fences** (Gryff-RSC): write back the pending dependency to a quorum so
//!   all future reads — by any client — observe it (Section 7.1).
//!
//! The core implements [`regular_session::Service`]: session arrival, pacing,
//! and batching live in the protocol-agnostic
//! [`regular_session::SessionRunner`]. Gryff is a non-transactional store, so
//! single-key transactions are served as plain operations and multi-key
//! transactions are rejected.

use regular_core::hashing::FxHashMap;
use regular_core::op::{OpKind, OpResult};
use regular_core::types::{ServiceId, Value};
use regular_session::{service_tag, CompletedRecord, LaneId, Service, SessionOp, WitnessHint};
use regular_sim::engine::{Context, NodeId};
use regular_sim::time::{SimDuration, SimTime};

use crate::carstamp::Carstamp;
use crate::config::{Mode, Replied};
use crate::messages::{Dep, GryffMsg, OpRef};
use crate::workload::OpRequest;

/// Client configuration shared by all client nodes of a deployment.
#[derive(Debug, Clone)]
pub struct GryffClientConfig {
    /// Protocol variant.
    pub mode: Mode,
    /// Node ids of the replicas (0..num_replicas by construction).
    pub replicas: Vec<NodeId>,
    /// Majority quorum size.
    pub quorum: usize,
    /// Timeout after which a stalled operation's current round is re-sent
    /// (see [`crate::config::GryffConfig::op_timeout`]). `None` disables the
    /// retry path.
    pub op_timeout: Option<SimDuration>,
}

/// Aggregate client statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct GryffClientStats {
    /// Completed reads.
    pub reads: u64,
    /// Reads that needed the write-back (second) round.
    pub slow_reads: u64,
    /// Completed writes.
    pub writes: u64,
    /// Completed read-modify-writes.
    pub rmws: u64,
    /// Completed fences.
    pub fences: u64,
    /// Dependencies piggybacked onto later operations (Gryff-RSC).
    pub deps_piggybacked: u64,
    /// Rounds re-sent after an operation timeout (a crashed replica or a
    /// lost message; fault runs only).
    pub timeout_retries: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OpPhase {
    ReadRound,
    ReadWriteBack,
    WriteRound1,
    WriteRound2,
    RmwWait,
    FenceRound,
}

#[derive(Debug)]
struct ActiveOp {
    lane: LaneId,
    request: OpRequest,
    invoke: SimTime,
    phase: OpPhase,
    /// Replicas that answered the current round. A set, not a counter:
    /// rounds may be re-sent after a timeout and messages may be duplicated
    /// by the fault plane, and a quorum must mean *distinct* replicas.
    replied: Replied,
    /// Maximum (carstamp, value) observed in the current round.
    max: (Carstamp, Value),
    /// Whether the first-round quorum disagreed.
    disagreement: bool,
    /// Value to write (writes and rmws).
    write_value: Value,
    /// Carstamp chosen for the write.
    chosen: Carstamp,
    /// The dependency attached to *every* send of this operation's first
    /// round, if any. Tracking the value (not just a flag) keeps the
    /// quorum-time clearing of the node's pending dependency sound under
    /// round re-sends: the dependency is only cleared if it is still the
    /// pending one, i.e. a quorum of replicas demonstrably received it.
    carried: Option<Dep>,
    /// The write-back payload of a fence (the pending dependency), kept so a
    /// timed-out fence round can be re-sent.
    fence_write: Option<Dep>,
    rounds: u8,
}

/// The Gryff client protocol core (a [`regular_session::Service`]).
pub struct GryffService {
    cfg: GryffClientConfig,
    service: ServiceId,
    ops: FxHashMap<u64, ActiveOp>,
    next_seq: u64,
    value_counter: u64,
    /// Operation-timeout timers: tag -> watched sequence number.
    timers: FxHashMap<u64, u64>,
    next_timer: u64,
    /// The pending dependency (Gryff-RSC): the last read observation not yet
    /// known to be at a quorum. Shared by all of this node's sessions, as in
    /// the paper's per-process dependency.
    dep: Option<Dep>,
    completed: Vec<CompletedRecord>,
    /// Aggregate statistics.
    pub stats: GryffClientStats,
}

impl GryffService {
    /// Creates a client protocol core with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if the group has more than 64 replicas: an operation keeps
    /// the replicas that answered its round as a bit mask.
    pub fn new(cfg: GryffClientConfig) -> Self {
        Replied::check_group(cfg.replicas.len());
        GryffService {
            cfg,
            service: ServiceId::KV,
            ops: FxHashMap::default(),
            next_seq: 0,
            value_counter: 0,
            timers: FxHashMap::default(),
            next_timer: 0,
            dep: None,
            completed: Vec::new(),
            stats: GryffClientStats::default(),
        }
    }

    /// Sets the service id recorded on this core's operations (defaults to
    /// [`ServiceId::KV`]); composed deployments give each store its own id.
    pub fn with_service_id(mut self, service: ServiceId) -> Self {
        self.service = service;
        self
    }

    fn fresh_value(&mut self, ctx: &Context<GryffMsg>) -> Value {
        self.value_counter += 1;
        Value(((ctx.node_id() as u64 + 1) << 40) | self.value_counter)
    }

    /// The client core's behaviour-coverage phase tag (see
    /// `regular_sim::engine::Node::phase_tag`). Bit 7 marks the tag as a
    /// client's, keeping it disjoint from replica tags; bit 0 — operations
    /// in flight; bit 1 — an operation past its first round; bit 2 — an
    /// operation whose round was re-sent after a timeout; bit 3 — a pending
    /// dependency waiting to be piggybacked.
    pub fn phase_tag(&self) -> u16 {
        let mut tag = 1 << 7;
        if !self.ops.is_empty() {
            tag |= 1;
        }
        if self.ops.values().any(|o| o.phase != OpPhase::ReadRound) {
            tag |= 1 << 1;
        }
        if self.ops.values().any(|o| o.rounds > 1) {
            tag |= 1 << 2;
        }
        if self.dep.is_some() {
            tag |= 1 << 3;
        }
        tag
    }

    /// Takes the pending dependency for piggybacking (Gryff-RSC only).
    fn take_dep_for_piggyback(&mut self) -> Option<Dep> {
        if self.cfg.mode == Mode::GryffRsc {
            if self.dep.is_some() {
                self.stats.deps_piggybacked += 1;
            }
            self.dep
        } else {
            None
        }
    }

    /// Arms the operation timeout for `seq`, if configured.
    fn arm_op_timer(&mut self, ctx: &mut Context<GryffMsg>, seq: u64) {
        if let Some(timeout) = self.cfg.op_timeout {
            let tag = service_tag(&mut self.next_timer);
            self.timers.insert(tag, seq);
            ctx.set_timer(timeout, tag);
        }
    }

    /// Re-sends the current round of a stalled operation. Safe because every
    /// round is idempotent at the replicas under the same operation id
    /// (reads are point reads, `Write2` applies write-if-newer, rmw
    /// coordination dedups by client op) and quorum counting dedups by
    /// replica.
    fn resend_round(&mut self, ctx: &mut Context<GryffMsg>, seq: u64) {
        let dep = if self.cfg.mode == Mode::GryffRsc { self.dep } else { None };
        let Some(active) = self.ops.get_mut(&seq) else { return };
        // If the pending dependency changed since the original send, the
        // round's replies no longer all come from replicas that saw one
        // single dependency — stop claiming the quorum propagated it.
        if active.carried != dep {
            active.carried = None;
        }
        let active = &*active;
        self.stats.timeout_retries += 1;
        let op_ref = OpRef { node: ctx.node_id(), seq };
        match (active.phase, &active.request) {
            (OpPhase::ReadRound, OpRequest::Read { key }) => {
                let key = *key;
                for &r in &self.cfg.replicas {
                    ctx.send(r, GryffMsg::Read1 { op: op_ref, key, dep });
                }
            }
            (OpPhase::WriteRound1, OpRequest::Write { key }) => {
                let key = *key;
                for &r in &self.cfg.replicas {
                    ctx.send(r, GryffMsg::Write1 { op: op_ref, key, dep });
                }
            }
            (OpPhase::WriteRound2, OpRequest::Write { key }) => {
                let (key, value, cs) = (*key, active.write_value, active.chosen);
                for &r in &self.cfg.replicas {
                    ctx.send(r, GryffMsg::Write2 { op: op_ref, key, value, cs });
                }
            }
            (OpPhase::ReadWriteBack, OpRequest::Read { key }) => {
                let (key, (cs, value)) = (*key, active.max);
                for &r in &self.cfg.replicas {
                    ctx.send(r, GryffMsg::Write2 { op: op_ref, key, value, cs });
                }
            }
            (OpPhase::RmwWait, OpRequest::Rmw { key }) => {
                let (key, new_value) = (*key, active.write_value);
                let coordinator =
                    self.cfg.replicas[(key.0 % self.cfg.replicas.len() as u64) as usize];
                ctx.send(coordinator, GryffMsg::Rmw { op: op_ref, key, new_value, dep });
            }
            (OpPhase::FenceRound, OpRequest::Fence) => {
                if let Some(d) = active.fence_write {
                    for &r in &self.cfg.replicas {
                        ctx.send(
                            r,
                            GryffMsg::Write2 { op: op_ref, key: d.key, value: d.value, cs: d.cs },
                        );
                    }
                }
            }
            _ => {}
        }
        self.arm_op_timer(ctx, seq);
    }

    /// The carstamp writer id of `lane` on client node `node`: unique per
    /// concurrently writing lane.
    ///
    /// # Panics
    ///
    /// Panics if the node, session or slot overflows its bit range.
    fn writer_id(node: NodeId, lane: LaneId) -> u64 {
        // Lanes of one node issue writes concurrently and must not collide on
        // the same carstamp count, so the id packs (node, session, slot) into
        // disjoint bit ranges. The asserts make an out-of-range configuration
        // fail loudly, in every build, instead of silently corrupting the
        // per-key write order.
        assert!((lane.slot as u64) < (1 << 12), "pipeline slots fit in 12 bits");
        assert!(lane.session < (1 << 28), "session ids fit in 28 bits");
        assert!((node as u64) < (1 << 24), "node ids fit in 24 bits");
        ((node as u64) << 40) | (lane.session << 12) | lane.slot as u64
    }

    fn finish_op(
        &mut self,
        ctx: &mut Context<GryffMsg>,
        seq: u64,
        read_value: Value,
        carstamp: Carstamp,
    ) {
        let op = self.ops.remove(&seq).expect("operation exists");
        let (kind, result) = match op.request {
            OpRequest::Read { key } => {
                self.stats.reads += 1;
                if op.rounds > 1 {
                    self.stats.slow_reads += 1;
                }
                (OpKind::Read { key }, OpResult::Value(read_value))
            }
            OpRequest::Write { key } => {
                self.stats.writes += 1;
                (OpKind::Write { key, value: op.write_value }, OpResult::Ack)
            }
            OpRequest::Rmw { key } => {
                self.stats.rmws += 1;
                (OpKind::Rmw { key, value: op.write_value }, OpResult::Value(read_value))
            }
            OpRequest::Fence => {
                self.stats.fences += 1;
                (OpKind::Fence, OpResult::Ack)
            }
        };
        let witness = match kind {
            // Fences carry no per-key ordering metadata.
            OpKind::Fence => WitnessHint::None,
            _ => WitnessHint::Carstamp {
                count: carstamp.count,
                writer: carstamp.writer,
                rmwc: carstamp.rmwc,
            },
        };
        self.completed.push(CompletedRecord {
            service: self.service,
            kind,
            result,
            invoke: op.invoke,
            finish: ctx.now(),
            session: op.lane.session,
            slot: op.lane.slot,
            attempts: 1,
            rounds: op.rounds,
            orphan: false,
            witness,
        });
    }
}

impl Service for GryffService {
    type Msg = GryffMsg;

    fn service_id(&self) -> ServiceId {
        self.service
    }

    fn name(&self) -> &str {
        match self.cfg.mode {
            Mode::Gryff => "gryff",
            Mode::GryffRsc => "gryff-rsc",
        }
    }

    fn submit(&mut self, ctx: &mut Context<GryffMsg>, lane: LaneId, op: SessionOp) {
        let request = match op {
            SessionOp::Read { key } => OpRequest::Read { key },
            SessionOp::Write { key } => OpRequest::Write { key },
            SessionOp::Rmw { key } => OpRequest::Rmw { key },
            SessionOp::Fence => OpRequest::Fence,
            // A non-transactional store serves single-key transactions as
            // plain operations.
            SessionOp::RoTxn { keys } if keys.len() == 1 => OpRequest::Read { key: keys[0] },
            SessionOp::RwTxn { keys } if keys.len() == 1 => OpRequest::Write { key: keys[0] },
            SessionOp::RoTxn { .. } | SessionOp::RwTxn { .. } => {
                panic!("Gryff is non-transactional: multi-key transactions are unsupported")
            }
        };
        let seq = self.next_seq;
        self.next_seq += 1;
        let op_ref = OpRef { node: ctx.node_id(), seq };
        let mut active = ActiveOp {
            lane,
            request: request.clone(),
            invoke: ctx.now(),
            phase: OpPhase::ReadRound,
            replied: Replied::default(),
            max: (Carstamp::ZERO, Value::NULL),
            disagreement: false,
            write_value: Value::NULL,
            chosen: Carstamp::ZERO,
            carried: None,
            fence_write: None,
            rounds: 1,
        };
        match request {
            OpRequest::Read { key } => {
                let dep = self.take_dep_for_piggyback();
                active.carried = dep;
                active.phase = OpPhase::ReadRound;
                for &r in &self.cfg.replicas {
                    ctx.send(r, GryffMsg::Read1 { op: op_ref, key, dep });
                }
            }
            OpRequest::Write { key } => {
                let dep = self.take_dep_for_piggyback();
                active.carried = dep;
                active.write_value = self.fresh_value(ctx);
                active.phase = OpPhase::WriteRound1;
                for &r in &self.cfg.replicas {
                    ctx.send(r, GryffMsg::Write1 { op: op_ref, key, dep });
                }
            }
            OpRequest::Rmw { key } => {
                let dep = self.take_dep_for_piggyback();
                active.carried = dep;
                active.write_value = self.fresh_value(ctx);
                active.phase = OpPhase::RmwWait;
                let coordinator =
                    self.cfg.replicas[(key.0 % self.cfg.replicas.len() as u64) as usize];
                ctx.send(
                    coordinator,
                    GryffMsg::Rmw { op: op_ref, key, new_value: active.write_value, dep },
                );
            }
            OpRequest::Fence => {
                match (self.cfg.mode, self.dep) {
                    (Mode::GryffRsc, Some(d)) => {
                        // Write the pending observation back to a quorum so
                        // every future read observes it.
                        active.phase = OpPhase::FenceRound;
                        active.max = (d.cs, d.value);
                        active.fence_write = Some(d);
                        for &r in &self.cfg.replicas {
                            ctx.send(
                                r,
                                GryffMsg::Write2 {
                                    op: op_ref,
                                    key: d.key,
                                    value: d.value,
                                    cs: d.cs,
                                },
                            );
                        }
                    }
                    _ => {
                        // Nothing to propagate (or already linearizable):
                        // complete immediately.
                        self.stats.fences += 1;
                        self.completed.push(CompletedRecord {
                            service: self.service,
                            kind: OpKind::Fence,
                            result: OpResult::Ack,
                            invoke: ctx.now(),
                            finish: ctx.now(),
                            session: lane.session,
                            slot: lane.slot,
                            attempts: 1,
                            rounds: 0,
                            orphan: false,
                            witness: WitnessHint::None,
                        });
                        return;
                    }
                }
            }
        }
        self.ops.insert(seq, active);
        self.arm_op_timer(ctx, seq);
    }

    fn on_timer(&mut self, ctx: &mut Context<GryffMsg>, tag: u64) {
        let Some(seq) = self.timers.remove(&tag) else { return };
        if self.ops.contains_key(&seq) {
            self.resend_round(ctx, seq);
        }
    }

    fn on_message(&mut self, ctx: &mut Context<GryffMsg>, from: NodeId, msg: GryffMsg) {
        // Every reply comes from a replica; its position is its quorum bit.
        let Some(position) = self.cfg.replicas.iter().position(|&r| r == from) else { return };
        match msg {
            GryffMsg::Read1Reply { op, value, cs } => {
                let seq = op.seq;
                let Some(active) = self.ops.get_mut(&seq) else { return };
                if active.phase != OpPhase::ReadRound || !active.replied.insert(position) {
                    return;
                }
                if active.replied.len() == 1 {
                    active.max = (cs, value);
                } else {
                    if cs != active.max.0 {
                        active.disagreement = true;
                    }
                    if (cs, value) > active.max {
                        active.max = (cs, value);
                    }
                }
                if active.replied.len() < self.cfg.quorum {
                    return;
                }
                // Quorum reached: the piggybacked dependency (if it is still
                // the pending one) is now at a quorum and can be cleared.
                let key = match active.request {
                    OpRequest::Read { key } => key,
                    _ => return,
                };
                let (cs, value) = active.max;
                let disagreement = active.disagreement;
                if active.carried.is_some() && self.dep == active.carried {
                    self.dep = None;
                }
                match self.cfg.mode {
                    Mode::Gryff => {
                        if disagreement {
                            // Write-back phase: propagate the newest value
                            // before returning (linearizability).
                            let active = self.ops.get_mut(&seq).expect("operation exists");
                            active.phase = OpPhase::ReadWriteBack;
                            active.replied = Replied::default();
                            active.rounds = 2;
                            let op_ref = OpRef { node: ctx.node_id(), seq };
                            for &r in &self.cfg.replicas {
                                ctx.send(r, GryffMsg::Write2 { op: op_ref, key, value, cs });
                            }
                        } else {
                            self.finish_op(ctx, seq, value, cs);
                        }
                    }
                    Mode::GryffRsc => {
                        if disagreement {
                            // Remember the observation as a dependency for the
                            // next operation instead of writing it back now.
                            self.dep = Some(Dep { key, value, cs });
                        }
                        self.finish_op(ctx, seq, value, cs);
                    }
                }
            }
            GryffMsg::Write2Reply { op } => {
                let seq = op.seq;
                let Some(active) = self.ops.get_mut(&seq) else { return };
                let in_write2_round = matches!(
                    active.phase,
                    OpPhase::ReadWriteBack | OpPhase::WriteRound2 | OpPhase::FenceRound
                );
                if !in_write2_round
                    || !active.replied.insert(position)
                    || active.replied.len() < self.cfg.quorum
                {
                    return;
                }
                match active.phase {
                    OpPhase::ReadWriteBack => {
                        let (cs, value) = active.max;
                        self.finish_op(ctx, seq, value, cs);
                    }
                    OpPhase::WriteRound2 => {
                        let cs = active.chosen;
                        self.finish_op(ctx, seq, Value::NULL, cs);
                    }
                    OpPhase::FenceRound => {
                        // The written-back dependency is now at a quorum.
                        if self.dep == active.fence_write {
                            self.dep = None;
                        }
                        let cs = active.max.0;
                        self.finish_op(ctx, seq, Value::NULL, cs);
                    }
                    _ => unreachable!("filtered above"),
                }
            }
            GryffMsg::Write1Reply { op, cs } => {
                let seq = op.seq;
                let Some(active) = self.ops.get_mut(&seq) else { return };
                if active.phase != OpPhase::WriteRound1 || !active.replied.insert(position) {
                    return;
                }
                if cs > active.max.0 {
                    active.max.0 = cs;
                }
                if active.replied.len() < self.cfg.quorum {
                    return;
                }
                // The piggybacked dependency (if still pending) is now at a
                // quorum.
                if active.carried.is_some() && self.dep == active.carried {
                    self.dep = None;
                }
                let key = match active.request {
                    OpRequest::Write { key } => key,
                    _ => return,
                };
                active.chosen = active.max.0.next(Self::writer_id(ctx.node_id(), active.lane));
                active.phase = OpPhase::WriteRound2;
                active.replied = Replied::default();
                active.rounds = 2;
                let op_ref = OpRef { node: ctx.node_id(), seq };
                let (value, cs) = (active.write_value, active.chosen);
                for &r in &self.cfg.replicas {
                    ctx.send(r, GryffMsg::Write2 { op: op_ref, key, value, cs });
                }
            }
            GryffMsg::RmwReply { op, old_value, cs } => {
                let seq = op.seq;
                let Some(active) = self.ops.get_mut(&seq) else { return };
                if active.phase != OpPhase::RmwWait {
                    return;
                }
                // The dependency travelled with the rmw and reached a quorum
                // through the coordinator's read phase.
                if active.carried.is_some() && self.dep == active.carried {
                    self.dep = None;
                }
                self.finish_op(ctx, seq, old_value, cs);
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
    use regular_core::types::Key;
    use regular_sim::time::SimDuration;

    #[test]
    fn fresh_values_are_unique_and_non_null() {
        // The value encoding must never collide with NULL and must be unique
        // per client.
        let v1 = Value(((7u64 + 1) << 40) | 1);
        let v2 = Value(((7u64 + 1) << 40) | 2);
        assert_ne!(v1, Value::NULL);
        assert_ne!(v1, v2);
    }

    #[test]
    fn writer_ids_pack_node_session_and_slot() {
        let lane = LaneId { session: (1 << 28) - 1, slot: 3 };
        assert_eq!(GryffService::writer_id(5, lane), (5 << 40) | (((1 << 28) - 1) << 12) | 3);
    }

    #[test]
    #[should_panic(expected = "session ids fit in 28 bits")]
    fn a_session_id_past_28_bits_is_refused() {
        GryffService::writer_id(0, LaneId { session: 1 << 28, slot: 0 });
    }

    #[test]
    fn completed_record_keeps_rounds_and_carstamps() {
        let rec = CompletedRecord {
            service: ServiceId::KV,
            kind: OpKind::Read { key: Key(1) },
            result: OpResult::Value(Value(3)),
            invoke: SimTime::from_millis(0),
            finish: SimTime::from_millis(72),
            session: 0,
            slot: 0,
            attempts: 1,
            rounds: 1,
            orphan: false,
            witness: WitnessHint::Carstamp { count: 1, writer: 2, rmwc: 0 },
        };
        assert_eq!(rec.rounds, 1);
        assert_eq!(rec.latency(), SimDuration::from_millis(72));
        assert!(matches!(rec.witness, WitnessHint::Carstamp { count: 1, writer: 2, rmwc: 0 }));
    }
}
