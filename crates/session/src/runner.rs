//! The session runner: the simulation node that drives services with
//! sessions.
//!
//! [`SessionRunner`] drives one or several services behind one wire type.
//! With several, `libRSS` fence planning ([`regular_librss::FencePlanner`])
//! inserts a real-time fence at the previous service whenever a lane switches
//! services (Section 4.1, Figure 3); with one, lanes never switch and no
//! fence, parking or handoff ever fires.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use regular_core::hashing::FxHashMap;
use regular_librss::{CausalContext, FencePlanner, FenceStats};
use regular_sim::engine::{Context, Node, NodeId};
use regular_sim::time::{SimDuration, SimTime};

use crate::config::SessionConfig;
use crate::op::{MultiServiceWorkload, SessionOp};
use crate::plane::PlaneNode;
use crate::record::{CompletedRecord, LaneId};
use crate::scheduler::{SessionScheduler, Wake};
use crate::service::{runner_tag, Service};

/// Aggregate counters a runner keeps about its sessions.
#[derive(Debug, Clone, Copy, Default)]
pub struct SessionStats {
    /// Batches issued.
    pub batches: u64,
    /// Non-orphan operations completed.
    pub ops_completed: u64,
    /// Causal contexts exported for out-of-band handoff (Section 4.2).
    pub contexts_exported: u64,
    /// Causal contexts imported from another session's handoff.
    pub contexts_imported: u64,
    /// Sessions that arrived (partly-open and open-loop drivers), shed ones
    /// included — the *offered* load.
    pub arrivals: u64,
    /// Open-loop arrivals shed over the in-flight cap (see
    /// [`crate::SessionDriver::OpenLoop`]). Nonzero means the run was past
    /// the saturation knee.
    pub shed: u64,
}

impl SessionStats {
    /// Accumulates another runner's counters (for cluster-wide aggregation).
    pub fn merge(&mut self, other: &SessionStats) {
        self.batches += other.batches;
        self.ops_completed += other.ops_completed;
        self.contexts_exported += other.contexts_exported;
        self.contexts_imported += other.contexts_imported;
        self.arrivals += other.arrivals;
        self.shed += other.shed;
    }
}

/// One out-of-band causal handoff between two lanes (Section 4.2): the
/// exporter's context was serialized at `exported_at` and imported by the
/// receiving lane at `imported_at` — a real-time external communication the
/// recorded history must stay consistent with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HandoffRecord {
    /// The exporting lane.
    pub from: LaneId,
    /// When the context was exported.
    pub exported_at: SimTime,
    /// The importing lane.
    pub to: LaneId,
    /// When the context was imported (before the lane's next operation).
    pub imported_at: SimTime,
}

/// Records per completion chunk: 144 KiB of [`CompletedRecord`]s.
const CHUNK: usize = 1_024;

/// A runner's completions in completion order, in chunks of fixed capacity.
///
/// The buffer grows for the whole run and is read once, at the end on the
/// simulator. One `Vec` would double, and a doubled buffer is up to half
/// empty; here the services append to the open chunk, a full chunk is
/// sealed, and only the open chunk has spare capacity. The first chunk
/// grows from empty, so a node that drains after every handler (the live
/// plane) holds a few records' capacity, not a chunk's; every later chunk
/// starts at full size.
struct Completions {
    /// Full chunks, oldest first.
    sealed: Vec<Vec<CompletedRecord>>,
    /// The chunk the services append to.
    open: Vec<CompletedRecord>,
}

impl Completions {
    fn new() -> Self {
        Completions { sealed: Vec::new(), open: Vec::new() }
    }

    fn len(&self) -> usize {
        self.sealed.iter().map(Vec::len).sum::<usize>() + self.open.len()
    }

    #[cfg(test)]
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Seals the open chunk once it holds [`CHUNK`] records. A service that
    /// appended past the capacity made it grow; the sealed chunk gives the
    /// slack back.
    fn seal_if_full(&mut self) {
        if self.open.len() >= CHUNK {
            let mut full = std::mem::replace(&mut self.open, Vec::with_capacity(CHUNK));
            full.shrink_to_fit();
            self.sealed.push(full);
        }
    }

    /// Moves every record to `out`, oldest first, tagged by `tag`. `out`
    /// grows once, to the exact size; each sealed chunk is freed as it
    /// empties, and the open chunk keeps its capacity for the next records
    /// (the live plane drains after every handler).
    fn drain_into(
        &mut self,
        out: &mut Vec<(usize, CompletedRecord)>,
        tag: impl Fn(&CompletedRecord) -> usize,
    ) {
        out.reserve_exact(self.len());
        for chunk in self.sealed.drain(..) {
            out.extend(chunk.into_iter().map(|rec| (tag(&rec), rec)));
        }
        out.extend(self.open.drain(..).map(|rec| (tag(&rec), rec)));
    }
}

/// A simulation node driving one or several [`Service`]s with configured
/// sessions.
///
/// `S` is a concrete service (`SessionRunner<SpannerService>`) when the node
/// drives one protocol, so the harness can read its statistics after the
/// run, or `dyn Service<Msg = M>` when sessions hop between several stores
/// lifted to one wire type `M` (typically via [`crate::MappedService`]).
///
/// # One service per protocol
///
/// Incoming wire messages are offered to every service; each service accepts
/// the variants its protocol understands and ignores the rest. That routing
/// is only unambiguous when **at most one service speaks each protocol
/// message type**: two instances of the same protocol would both accept the
/// same replies (their operation identifiers carry no store discriminator)
/// and silently corrupt each other's in-flight state. [`SessionRunner::new`]
/// enforces the cheap proxy of that rule — distinct
/// [`Service::service_id`]s — and composing two same-protocol stores
/// additionally requires a wire type whose conversions separate them.
pub struct SessionRunner<S: Service + ?Sized> {
    services: Vec<Box<S>>,
    planner: FencePlanner<LaneId>,
    scheduler: SessionScheduler,
    workload: Box<dyn MultiServiceWorkload>,
    /// Dedicated workload RNG (see [`SessionConfig::workload_seed`]); `None`
    /// draws from the engine RNG.
    workload_rng: Option<SmallRng>,
    timers: FxHashMap<u64, Wake>,
    next_timer: u64,
    outstanding: FxHashMap<u64, usize>,
    /// Operations waiting for their preceding auto-fence, keyed by lane.
    pending_after_fence: FxHashMap<LaneId, (usize, SessionOp)>,
    /// Export a causal context every this many completed batches (see
    /// [`SessionRunner::with_context_handoff`]); `None` disables handoffs.
    handoff_every: Option<u64>,
    /// An exported context waiting for a *different* session to pick it up.
    pending_context: Option<(CausalContext, LaneId, SimTime)>,
    /// Every completed handoff, for external-communication edges in the
    /// recorded history.
    pub handoffs: Vec<HandoffRecord>,
    /// All completions from every service, including warm-up, orphans and
    /// auto-fences, in completion order.
    completed: Completions,
    /// Aggregate session statistics.
    pub stats: SessionStats,
}

impl<S: Service + ?Sized> SessionRunner<S> {
    /// Creates a runner over `services` issuing batches until
    /// `stop_issuing_at`. The workload's service indices are positions in
    /// `services`.
    ///
    /// # Panics
    ///
    /// Panics if `services` is empty or two services share a
    /// [`Service::service_id`] (see the type-level docs: one service per
    /// protocol).
    pub fn new(
        services: Vec<Box<S>>,
        sessions: SessionConfig,
        stop_issuing_at: SimTime,
        workload: Box<dyn MultiServiceWorkload>,
    ) -> Self {
        assert!(!services.is_empty(), "a session runner needs at least one service");
        let mut ids: Vec<_> = services.iter().map(|s| s.service_id()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(
            ids.len(),
            services.len(),
            "composed services must have distinct service ids (one store per protocol)"
        );
        SessionRunner {
            services,
            planner: FencePlanner::new(),
            workload_rng: sessions.workload_seed.map(SmallRng::seed_from_u64),
            scheduler: SessionScheduler::new(sessions, stop_issuing_at),
            workload,
            timers: FxHashMap::default(),
            next_timer: 0,
            outstanding: FxHashMap::default(),
            pending_after_fence: FxHashMap::default(),
            handoff_every: None,
            pending_context: None,
            handoffs: Vec::new(),
            completed: Completions::new(),
            stats: SessionStats::default(),
        }
    }

    /// Enables periodic cross-process causal handoffs (Section 4.2): every
    /// `every` completed batches, the completing session exports its
    /// [`CausalContext`] (as a web server would serialize it into a
    /// response), and the next *other* session to issue a batch imports it —
    /// inheriting the exporter's last service (so `libRSS` fences it) and
    /// causal floor. Each handoff is recorded in
    /// [`SessionRunner::handoffs`].
    ///
    /// # Panics
    ///
    /// Panics if `every` is zero.
    pub fn with_context_handoff(mut self, every: u64) -> Self {
        assert!(every > 0, "handoff cadence must be positive");
        self.handoff_every = Some(every);
        self
    }

    /// Fence statistics from the `libRSS` planner: how many operation starts
    /// required a fence at the previous service.
    pub fn fence_stats(&self) -> FenceStats {
        self.planner.stats()
    }

    /// Exports `lane`'s causal context for out-of-band propagation to
    /// another process (Section 4.2): the name of its last service and the
    /// maximum causal floor any service holds for its session.
    pub fn export_context(&self, lane: LaneId) -> CausalContext {
        let last_service =
            self.planner.last_service(&lane).map(|idx| self.services[idx].name().to_string());
        let min_timestamp =
            self.services.iter().map(|s| s.session_floor(lane.session)).max().unwrap_or(0);
        CausalContext { last_service, min_timestamp }
    }

    /// Imports a causal context into `lane`: its next operation fences the
    /// sender's last service exactly as if this lane had issued its previous
    /// operation there, and every service raises the session's causal floor
    /// to the sender's. Unknown service names only propagate the floor (the
    /// sender's store is not deployed here; there is nothing to fence).
    pub fn import_context(&mut self, lane: LaneId, ctx: &CausalContext) {
        if let Some(name) = ctx.last_service.as_deref() {
            if let Some(idx) = self.services.iter().position(|s| s.name() == name) {
                self.planner.import_context(lane, idx);
            }
        }
        if ctx.min_timestamp > 0 {
            for s in &mut self.services {
                s.raise_session_floor(lane.session, ctx.min_timestamp);
            }
        }
    }

    /// The services driven by this runner, in workload-index order.
    pub fn services(&self) -> &[Box<S>] {
        &self.services
    }

    fn arm(&mut self, ctx: &mut Context<S::Msg>, delay: SimDuration, wake: Wake) {
        let tag = runner_tag(&mut self.next_timer);
        self.timers.insert(tag, wake);
        ctx.set_timer(delay, tag);
    }

    fn issue_batch(&mut self, ctx: &mut Context<S::Msg>, session: u64) {
        let batch = self.scheduler.batch();
        // A context exported by another session is imported by the next
        // session to act, before any of its operations start: the classic
        // web-server handoff, where the response carries the context and the
        // receiver's first request must respect it.
        if self.pending_context.as_ref().is_some_and(|(_, from, _)| from.session != session) {
            let (cctx, from, exported_at) = self.pending_context.take().expect("checked above");
            for slot in 0..batch {
                self.import_context(LaneId { session, slot: slot as u32 }, &cctx);
            }
            self.stats.contexts_imported += 1;
            self.handoffs.push(HandoffRecord {
                from,
                exported_at,
                to: LaneId { session, slot: 0 },
                imported_at: ctx.now(),
            });
        }
        self.outstanding.insert(session, batch);
        self.stats.batches += 1;
        for slot in 0..batch {
            let lane = LaneId { session, slot: slot as u32 };
            let (target, op) = match &mut self.workload_rng {
                Some(rng) => self.workload.next_targeted_op(rng, lane),
                None => self.workload.next_targeted_op(ctx.rng(), lane),
            };
            assert!(target < self.services.len(), "workload targeted unknown service {target}");
            // libRSS: fence the previous service before the first operation at
            // a different one (Figure 3). The fence runs first; the operation
            // is parked until the fence's completion drains back. The planner
            // is keyed per LANE: each pipeline slot is its own application
            // process, so its service-switch history — and therefore its
            // fences — must be its own.
            match self.planner.on_transaction(lane, target) {
                Some(prev) => {
                    self.pending_after_fence.insert(lane, (target, op));
                    self.services[prev].submit(ctx, lane, SessionOp::Fence);
                }
                None => self.services[target].submit(ctx, lane, op),
            }
        }
    }

    /// Drops the per-session state of a departed session: every lane's fence
    /// history in the planner and the services' per-session protocol state.
    fn end_session(&mut self, session: u64) {
        for slot in 0..self.scheduler.batch() {
            self.planner.end_session(&LaneId { session, slot: slot as u32 });
        }
        for s in &mut self.services {
            s.end_session(session);
        }
    }

    /// Collects completions from every service straight into the open chunk
    /// of `self.completed`. An auto-fence completion releases its parked
    /// operation instead of finishing the slot; when a session's batch fully
    /// completes, asks the scheduler how the session continues. Loops until
    /// quiescence, because a submission issued from a completion may itself
    /// complete synchronously (e.g. a Gryff-RSC fence with no pending
    /// dependency).
    fn drain(&mut self, ctx: &mut Context<S::Msg>) {
        loop {
            let mut drained = false;
            for idx in 0..self.services.len() {
                let mut next = self.completed.open.len();
                self.services[idx].drain_completed(&mut self.completed.open);
                drained |= self.completed.open.len() > next;
                while let Some(rec) = self.completed.open.get(next) {
                    next += 1;
                    if rec.orphan {
                        continue;
                    }
                    let lane = LaneId { session: rec.session, slot: rec.slot };
                    if rec.kind.is_fence() {
                        if let Some((target, op)) = self.pending_after_fence.remove(&lane) {
                            self.services[target].submit(ctx, lane, op);
                            continue;
                        }
                    }
                    self.finish_slot(ctx, lane.session);
                }
                self.completed.seal_if_full();
            }
            if !drained {
                return;
            }
        }
    }

    /// Counts one slot of `session` done; the last slot of a batch lets the
    /// scheduler decide how the session continues, and may export a causal
    /// context for a periodic out-of-band handoff.
    fn finish_slot(&mut self, ctx: &mut Context<S::Msg>, session: u64) {
        self.stats.ops_completed += 1;
        let Some(n) = self.outstanding.get_mut(&session) else { return };
        *n -= 1;
        if *n > 0 {
            return;
        }
        self.outstanding.remove(&session);
        if let Some((delay, wake)) = self.scheduler.on_batch_complete(ctx.rng(), session) {
            self.arm(ctx, delay, wake);
        }
        if !self.scheduler.is_active(session) {
            self.end_session(session);
        }
        // Periodic out-of-band handoff: the completing session serializes its
        // context; the next other session to issue a batch inherits it.
        if let Some(every) = self.handoff_every {
            if self.stats.batches.is_multiple_of(every) {
                let from = LaneId { session, slot: 0 };
                let exported = self.export_context(from);
                self.pending_context = Some((exported, from, ctx.now()));
                self.stats.contexts_exported += 1;
            }
        }
    }
}

impl<S: Service + ?Sized> PlaneNode<S::Msg> for SessionRunner<S>
where
    S::Msg: Clone,
{
    /// Tags each record with the position of the service that produced it.
    fn drain_completions(&mut self, out: &mut Vec<(usize, CompletedRecord)>) {
        let services = &self.services;
        let position = |rec: &CompletedRecord| {
            services
                .iter()
                .position(|s| s.service_id() == rec.service)
                .expect("a service records its own service id")
        };
        self.completed.drain_into(out, position);
    }
}

impl<S: Service + ?Sized> Node<S::Msg> for SessionRunner<S>
where
    S::Msg: Clone,
{
    fn on_start(&mut self, ctx: &mut Context<S::Msg>) {
        for s in &mut self.services {
            s.on_start(ctx);
        }
        let timers = self.scheduler.on_start(ctx.rng());
        for (delay, wake) in timers {
            self.arm(ctx, delay, wake);
        }
    }

    fn on_message(&mut self, ctx: &mut Context<S::Msg>, from: NodeId, msg: S::Msg) {
        // Exactly one service understands a given wire message (it narrows
        // via TryInto and ignores the other protocols' variants), so offering
        // a clone to all but the last service and the message itself to the
        // last delivers it precisely once.
        let (last, rest) = self.services.split_last_mut().expect("at least one service");
        for s in rest {
            s.on_message(ctx, from, msg.clone());
        }
        last.on_message(ctx, from, msg);
        self.drain(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Context<S::Msg>, tag: u64) {
        if tag & 1 == 1 {
            // Service-owned timer: with several services each accepts only
            // tags in its own namespace (see
            // `MappedService::with_tag_namespace`).
            for s in &mut self.services {
                s.on_timer(ctx, tag);
            }
        } else {
            let Some(wake) = self.timers.remove(&tag) else { return };
            let (issue, timer) = self.scheduler.on_wake(ctx.now(), ctx.rng(), wake);
            self.stats.arrivals = self.scheduler.arrivals();
            self.stats.shed = self.scheduler.shed();
            if let Some((delay, next)) = timer {
                self.arm(ctx, delay, next);
            }
            if let Some(session) = issue {
                self.issue_batch(ctx, session);
            }
            // The stop-issuing cutoff retires sessions at wake time.
            if let Wake::Issue { session } = wake {
                if !self.scheduler.is_active(session) && !self.outstanding.contains_key(&session) {
                    self.end_session(session);
                }
            }
        }
        self.drain(ctx);
    }

    fn phase_tag(&self) -> u16 {
        self.services.iter().fold(0, |tag, s| tag | s.phase_tag())
    }
}

#[cfg(test)]
mod tests {
    use std::collections::VecDeque;

    use regular_core::op::{OpKind, OpResult};
    use regular_core::types::{Key, ServiceId};
    use regular_sim::engine::ContextParts;
    use regular_sim::truetime::TrueTime;

    use super::*;
    use crate::op::{RoundRobinWorkload, ScriptedSessionWorkload, SessionWorkload};
    use crate::record::WitnessHint;

    /// The fake protocol's one message: "complete your oldest open
    /// operation", addressed to one service; an orphan completion reports the
    /// operation but leaves it open.
    #[derive(Clone, Debug)]
    struct Complete {
        service: ServiceId,
        orphan: bool,
    }

    /// A service that logs every submission and completes on demand.
    struct Fake {
        id: ServiceId,
        submitted: Vec<(LaneId, SessionOp)>,
        open: VecDeque<(LaneId, SessionOp)>,
        done: Vec<CompletedRecord>,
        ended: Vec<u64>,
    }

    impl Fake {
        fn new(id: u32) -> Fake {
            Fake {
                id: ServiceId(id),
                submitted: Vec::new(),
                open: VecDeque::new(),
                done: Vec::new(),
                ended: Vec::new(),
            }
        }
    }

    impl Service for Fake {
        type Msg = Complete;
        fn service_id(&self) -> ServiceId {
            self.id
        }
        fn name(&self) -> &str {
            "fake"
        }
        fn submit(&mut self, _: &mut Context<Complete>, lane: LaneId, op: SessionOp) {
            self.submitted.push((lane, op.clone()));
            self.open.push_back((lane, op));
        }
        fn on_message(&mut self, ctx: &mut Context<Complete>, _: NodeId, msg: Complete) {
            if msg.service != self.id {
                return;
            }
            let (lane, op) = if msg.orphan {
                self.open.front().cloned().expect("an open operation")
            } else {
                self.open.pop_front().expect("an open operation")
            };
            let kind = if op.is_fence() { OpKind::Fence } else { OpKind::Read { key: Key(0) } };
            self.done.push(CompletedRecord {
                service: self.id,
                kind,
                result: OpResult::Ack,
                invoke: ctx.now(),
                finish: ctx.now(),
                session: lane.session,
                slot: lane.slot,
                attempts: 1,
                rounds: 1,
                orphan: msg.orphan,
                witness: WitnessHint::None,
            });
        }
        fn end_session(&mut self, session: u64) {
            self.ended.push(session);
        }
        fn drain_completed(&mut self, out: &mut Vec<CompletedRecord>) {
            out.append(&mut self.done);
        }
    }

    /// Drives a runner's hooks by hand, collecting the timers it arms.
    struct Harness {
        runner: SessionRunner<Fake>,
        now: SimTime,
        rng: SmallRng,
        truetime: TrueTime,
        timers: Vec<(SimDuration, u64)>,
    }

    impl Harness {
        fn new(services: Vec<Fake>, batch: usize, workload: Box<dyn MultiServiceWorkload>) -> Self {
            let sessions = SessionConfig::closed_loop(1, SimDuration::ZERO).with_batch(batch);
            let mut h = Harness {
                runner: SessionRunner::new(
                    services.into_iter().map(Box::new).collect(),
                    sessions,
                    SimTime::from_secs(1),
                    workload,
                ),
                now: SimTime::ZERO,
                rng: SmallRng::seed_from_u64(7),
                truetime: TrueTime::new(SimDuration::ZERO, 0),
                timers: Vec::new(),
            };
            h.with_ctx(|r, ctx| r.on_start(ctx));
            h
        }

        fn with_ctx(&mut self, f: impl FnOnce(&mut SessionRunner<Fake>, &mut Context<Complete>)) {
            let mut outbox = Vec::new();
            let mut ctx = Context::from_parts(ContextParts {
                now: self.now,
                node_id: 0,
                rng: &mut self.rng,
                truetime: &mut self.truetime,
                outbox: &mut outbox,
                timers: &mut self.timers,
            });
            f(&mut self.runner, &mut ctx);
        }

        /// Fires the one armed timer; panics unless exactly one is armed.
        fn fire(&mut self) {
            assert_eq!(self.timers.len(), 1, "one armed timer: {:?}", self.timers);
            let (_, tag) = self.timers.pop().expect("checked");
            self.with_ctx(|r, ctx| r.on_timer(ctx, tag));
        }

        fn complete(&mut self, service: u32, orphan: bool) {
            let msg = Complete { service: ServiceId(service), orphan };
            self.with_ctx(|r, ctx| r.on_message(ctx, 1, msg));
        }

        fn service(&self, idx: usize) -> &Fake {
            &self.runner.services()[idx]
        }
    }

    fn reads(n: usize) -> Box<dyn SessionWorkload> {
        Box::new(ScriptedSessionWorkload::new(vec![SessionOp::Read { key: Key(0) }; n]))
    }

    const LANE: LaneId = LaneId { session: 0, slot: 0 };

    #[test]
    fn one_service_completes_batches_and_the_scheduler_continues() {
        let mut h = Harness::new(vec![Fake::new(0)], 2, reads(8));
        h.fire();
        assert_eq!(h.service(0).submitted.len(), 2, "a batch of two");
        h.complete(0, false);
        assert!(h.timers.is_empty(), "half a batch: the session waits");
        h.complete(0, false);
        assert_eq!(h.timers.len(), 1, "a full batch: the closed loop issues again");
        assert_eq!((h.runner.stats.batches, h.runner.stats.ops_completed), (1, 2));
        h.fire();
        assert_eq!(h.service(0).submitted.len(), 4);
        assert_eq!(h.runner.fence_stats().executed, 0, "one service never fences");
    }

    #[test]
    fn a_retired_session_reaches_end_session() {
        let mut h = Harness::new(vec![Fake::new(0)], 1, reads(8));
        h.fire();
        h.complete(0, false);
        assert!(h.service(0).ended.is_empty());
        h.now = SimTime::from_secs(2);
        h.fire();
        assert_eq!(h.service(0).ended, vec![0], "the stop-issuing cutoff retires the session");
        assert_eq!(h.service(0).submitted.len(), 1, "and it issues nothing more");
    }

    #[test]
    fn an_orphan_completion_does_not_finish_its_slot() {
        let mut h = Harness::new(vec![Fake::new(0)], 1, reads(8));
        h.fire();
        h.complete(0, true);
        assert_eq!(h.runner.completed.len(), 1, "the orphan is recorded");
        assert_eq!(h.runner.stats.ops_completed, 0);
        assert!(h.timers.is_empty(), "the slot is still outstanding");
        h.complete(0, false);
        assert_eq!(h.runner.stats.ops_completed, 1);
        assert_eq!(h.timers.len(), 1);
    }

    #[test]
    fn a_switch_fences_the_previous_service_and_parks_the_operation() {
        let hop_every_op = RoundRobinWorkload::new(vec![reads(8), reads(8)], 1);
        let mut h = Harness::new(vec![Fake::new(0), Fake::new(1)], 1, Box::new(hop_every_op));
        h.fire();
        h.complete(0, false);
        h.fire();
        // The lane's second operation targets service 1: libRSS fences
        // service 0 first and parks the operation.
        assert_eq!(h.service(0).submitted.last(), Some(&(LANE, SessionOp::Fence)));
        assert!(h.service(1).submitted.is_empty(), "parked until the fence drains");
        h.complete(0, false);
        assert_eq!(h.service(1).submitted, vec![(LANE, SessionOp::Read { key: Key(0) })]);
        assert_eq!(h.runner.stats.ops_completed, 1, "the auto-fence finishes no slot");
        assert!(h.timers.is_empty());
        h.complete(1, false);
        assert_eq!(h.runner.stats.ops_completed, 2);
        assert_eq!(h.runner.fence_stats().executed, 1);
        let mut out = Vec::new();
        h.runner.drain_completions(&mut out);
        let tagged: Vec<_> = out.iter().map(|(svc, rec)| (*svc, rec.kind.is_fence())).collect();
        assert_eq!(tagged, vec![(0, false), (0, true), (1, false)], "tagged by service position");
        assert!(h.runner.completed.is_empty(), "drained");
    }

    /// Slot `s` of every session targets service `s`, so no lane ever hops.
    struct SlotPerService;

    impl MultiServiceWorkload for SlotPerService {
        fn next_targeted_op(&mut self, _: &mut SmallRng, lane: LaneId) -> (usize, SessionOp) {
            (lane.slot as usize, SessionOp::Read { key: Key(0) })
        }
    }

    #[test]
    fn more_than_a_chunk_drains_in_completion_order_at_exact_length() {
        // Service ids in the opposite order to positions: a record is tagged
        // by where its service sits, not by its id.
        let mut h = Harness::new(vec![Fake::new(9), Fake::new(4)], 2, Box::new(SlotPerService));
        h.fire();
        let n = 2 * CHUNK + CHUNK / 2;
        for i in 0..n {
            // Orphans leave the operation open, so the next completion has
            // one to report; the instant numbers the record.
            h.now = SimTime::from_micros(i as u64);
            h.complete(if i % 3 == 0 { 4 } else { 9 }, true);
        }
        assert_eq!(h.runner.completed.sealed.len(), 2, "two full chunks and an open one");
        assert_eq!(h.runner.completed.len(), n);
        let mut out = Vec::new();
        h.runner.drain_completions(&mut out);
        assert_eq!((out.len(), out.capacity()), (n, n), "one buffer of exact size");
        for (i, (position, rec)) in out.iter().enumerate() {
            assert_eq!(rec.finish, SimTime::from_micros(i as u64), "completion order");
            let service = if i % 3 == 0 { 4 } else { 9 };
            assert_eq!((*position, rec.service), (usize::from(service == 4), ServiceId(service)));
        }
        assert!(h.runner.completed.is_empty(), "drained");
        assert_eq!(h.runner.completed.open.capacity(), CHUNK, "the open chunk is kept");
    }

    #[test]
    #[should_panic(expected = "distinct service ids")]
    fn two_services_must_not_share_an_id() {
        let _ = Harness::new(vec![Fake::new(0), Fake::new(0)], 1, reads(1));
    }
}
