//! Session runners: the simulation nodes that drive services with sessions.
//!
//! [`SessionRunner`] drives a single service — the building block the
//! Spanner-RSS and Gryff-RSC harnesses assemble client nodes from.
//! [`ComposedRunner`] drives *several* services behind one wire type, with
//! `libRSS` fence planning ([`regular_librss::FencePlanner`]) inserting a
//! real-time fence at the previous service whenever a session switches
//! services (Section 4.1, Figure 3).

use rand::rngs::SmallRng;
use rand::SeedableRng;
use regular_core::fence::FenceStats;
use regular_core::hashing::FxHashMap;
use regular_librss::{CausalContext, FencePlanner};
use regular_sim::engine::{Context, Node, NodeId};
use regular_sim::time::{SimDuration, SimTime};

use crate::config::SessionConfig;
use crate::op::{MultiServiceWorkload, SessionOp, SessionWorkload};
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

/// A simulation node driving one [`Service`] with configured sessions.
pub struct SessionRunner<S: Service> {
    /// The protocol service front-end (public so harnesses can read its
    /// protocol-specific statistics after the run).
    pub service: S,
    scheduler: SessionScheduler,
    workload: Box<dyn SessionWorkload>,
    /// Dedicated workload RNG (see [`SessionConfig::workload_seed`]); `None`
    /// draws from the engine RNG.
    workload_rng: Option<SmallRng>,
    timers: FxHashMap<u64, Wake>,
    next_timer: u64,
    outstanding: FxHashMap<u64, usize>,
    /// All completions, including warm-up and orphans, in completion order.
    pub completed: Vec<CompletedRecord>,
    /// Aggregate session statistics.
    pub stats: SessionStats,
}

impl<S: Service> SessionRunner<S> {
    /// Creates a runner issuing batches until `stop_issuing_at`.
    pub fn new(
        service: S,
        sessions: SessionConfig,
        stop_issuing_at: SimTime,
        workload: Box<dyn SessionWorkload>,
    ) -> Self {
        SessionRunner {
            service,
            workload_rng: sessions.workload_seed.map(SmallRng::seed_from_u64),
            scheduler: SessionScheduler::new(sessions, stop_issuing_at),
            workload,
            timers: FxHashMap::default(),
            next_timer: 0,
            outstanding: FxHashMap::default(),
            completed: Vec::new(),
            stats: SessionStats::default(),
        }
    }

    fn arm(&mut self, ctx: &mut Context<S::Msg>, delay: SimDuration, wake: Wake) {
        let tag = runner_tag(&mut self.next_timer);
        self.timers.insert(tag, wake);
        ctx.set_timer(delay, tag);
    }

    fn issue_batch(&mut self, ctx: &mut Context<S::Msg>, session: u64) {
        let batch = self.scheduler.batch();
        self.outstanding.insert(session, batch);
        self.stats.batches += 1;
        for slot in 0..batch {
            let op = match &mut self.workload_rng {
                Some(rng) => self.workload.next_op(rng),
                None => self.workload.next_op(ctx.rng()),
            };
            self.service.submit(ctx, LaneId { session, slot: slot as u32 }, op);
        }
    }

    /// Collects completions; when a session's batch fully completes, asks the
    /// scheduler how the session continues. Loops because a submission issued
    /// from a completion (none today, but cheap to be safe) may itself
    /// complete synchronously.
    fn drain(&mut self, ctx: &mut Context<S::Msg>) {
        loop {
            let records = self.service.drain_completed();
            if records.is_empty() {
                return;
            }
            for rec in records {
                if !rec.orphan {
                    self.stats.ops_completed += 1;
                    if let Some(n) = self.outstanding.get_mut(&rec.session) {
                        *n -= 1;
                        if *n == 0 {
                            self.outstanding.remove(&rec.session);
                            let timers =
                                self.scheduler.on_batch_complete(ctx.now(), ctx.rng(), rec.session);
                            for (delay, wake) in timers {
                                self.arm(ctx, delay, wake);
                            }
                            if !self.scheduler.is_active(rec.session) {
                                self.service.end_session(rec.session);
                            }
                        }
                    }
                }
                self.completed.push(rec);
            }
        }
    }
}

impl<S: Service> PlaneNode<S::Msg> for SessionRunner<S> {
    fn drain_completions(&mut self, out: &mut Vec<(usize, CompletedRecord)>) {
        // Taking the buffer (instead of draining it in place) frees it once
        // moved out, so a simulator run never holds its completions twice.
        out.extend(std::mem::take(&mut self.completed).into_iter().map(|rec| (0, rec)));
    }
}

impl<S: Service> Node<S::Msg> for SessionRunner<S> {
    fn on_start(&mut self, ctx: &mut Context<S::Msg>) {
        self.service.on_start(ctx);
        let timers = self.scheduler.on_start(ctx.rng());
        for (delay, wake) in timers {
            self.arm(ctx, delay, wake);
        }
    }

    fn on_message(&mut self, ctx: &mut Context<S::Msg>, from: NodeId, msg: S::Msg) {
        self.service.on_message(ctx, from, msg);
        self.drain(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Context<S::Msg>, tag: u64) {
        if tag & 1 == 1 {
            self.service.on_timer(ctx, tag);
        } else {
            let Some(wake) = self.timers.remove(&tag) else { return };
            let (issue, timers) = self.scheduler.on_wake(ctx.now(), ctx.rng(), wake);
            self.stats.arrivals = self.scheduler.arrivals();
            self.stats.shed = self.scheduler.shed();
            for (delay, next) in timers {
                self.arm(ctx, delay, next);
            }
            for session in issue {
                self.issue_batch(ctx, session);
            }
            // The stop-issuing cutoff retires sessions at wake time.
            if let Wake::Issue { session } = wake {
                if !self.scheduler.is_active(session) && !self.outstanding.contains_key(&session) {
                    self.service.end_session(session);
                }
            }
        }
        self.drain(ctx);
    }
}

/// A simulation node whose sessions hop between several services (all lifted
/// to one wire type `M`, typically via [`crate::MappedService`]), fencing the
/// previous service on every switch exactly as `libRSS` prescribes.
///
/// # One service per protocol
///
/// Incoming wire messages are offered to every service; each service accepts
/// the variants its protocol understands and ignores the rest. That routing
/// is only unambiguous when **at most one service speaks each protocol
/// message type**: two instances of the same protocol would both accept the
/// same replies (their operation identifiers carry no store discriminator)
/// and silently corrupt each other's in-flight state. [`ComposedRunner::new`]
/// enforces the cheap proxy of that rule — distinct
/// [`Service::service_id`]s — and composing two same-protocol stores
/// additionally requires a wire type whose conversions separate them.
pub struct ComposedRunner<M: 'static> {
    services: Vec<Box<dyn Service<Msg = M>>>,
    planner: FencePlanner,
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
    /// [`ComposedRunner::with_context_handoff`]); `None` disables handoffs.
    handoff_every: Option<u64>,
    /// An exported context waiting for a *different* session to pick it up.
    pending_context: Option<(CausalContext, LaneId, SimTime)>,
    /// Every completed handoff, for external-communication edges in the
    /// recorded history.
    pub handoffs: Vec<HandoffRecord>,
    /// All completions from every service, including auto-fences, annotated
    /// with the index of the service that produced them.
    pub completed: Vec<(usize, CompletedRecord)>,
    /// Aggregate session statistics.
    pub stats: SessionStats,
}

impl<M: 'static> ComposedRunner<M> {
    /// Creates a composed runner over the given services.
    ///
    /// # Panics
    ///
    /// Panics if `services` is empty or two services share a
    /// [`Service::service_id`] (see the type-level docs: one service per
    /// protocol).
    pub fn new(
        services: Vec<Box<dyn Service<Msg = M>>>,
        sessions: SessionConfig,
        stop_issuing_at: SimTime,
        workload: Box<dyn MultiServiceWorkload>,
    ) -> Self {
        assert!(!services.is_empty(), "a composed runner needs at least one service");
        let mut ids: Vec<_> = services.iter().map(|s| s.service_id()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(
            ids.len(),
            services.len(),
            "composed services must have distinct service ids (one store per protocol)"
        );
        ComposedRunner {
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
            completed: Vec::new(),
            stats: SessionStats::default(),
        }
    }

    /// Enables periodic cross-process causal handoffs (Section 4.2): every
    /// `every` completed batches, the completing session exports its
    /// [`CausalContext`] (as a web server would serialize it into a
    /// response), and the next *other* session to issue a batch imports it —
    /// inheriting the exporter's last service (so `libRSS` fences it) and
    /// causal floor. Each handoff is recorded in
    /// [`ComposedRunner::handoffs`].
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
        let last_service = self
            .planner
            .export_context(lane.key())
            .map(|idx| self.services[idx].name().to_string());
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
                self.planner.import_context(lane.key(), idx);
            }
        }
        if ctx.min_timestamp > 0 {
            for s in &mut self.services {
                s.raise_session_floor(lane.session, ctx.min_timestamp);
            }
        }
    }

    /// The services driven by this runner.
    pub fn services(&self) -> &[Box<dyn Service<Msg = M>>] {
        &self.services
    }

    fn arm(&mut self, ctx: &mut Context<M>, delay: SimDuration, wake: Wake) {
        let tag = runner_tag(&mut self.next_timer);
        self.timers.insert(tag, wake);
        ctx.set_timer(delay, tag);
    }

    fn issue_batch(&mut self, ctx: &mut Context<M>, session: u64) {
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
            match self.planner.on_transaction(lane.key(), target) {
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
            self.planner.end_session(LaneId { session, slot: slot as u32 }.key());
        }
        for s in &mut self.services {
            s.end_session(session);
        }
    }

    /// Collects completions from every service. Auto-fence completions
    /// release the parked operation instead of finishing the slot, so the
    /// loop keeps draining until quiescence (a fence can complete
    /// synchronously, e.g. Gryff-RSC with no pending dependency).
    fn drain(&mut self, ctx: &mut Context<M>) {
        loop {
            let mut progressed = false;
            for idx in 0..self.services.len() {
                for rec in self.services[idx].drain_completed() {
                    progressed = true;
                    let lane = LaneId { session: rec.session, slot: rec.slot };
                    let release = if rec.kind.is_fence() && !rec.orphan {
                        self.pending_after_fence.remove(&lane)
                    } else {
                        None
                    };
                    let finishes_slot = release.is_none() && !rec.orphan;
                    self.completed.push((idx, rec));
                    if let Some((target, op)) = release {
                        self.services[target].submit(ctx, lane, op);
                        continue;
                    }
                    if finishes_slot {
                        self.stats.ops_completed += 1;
                        let mut batch_done = false;
                        if let Some(n) = self.outstanding.get_mut(&lane.session) {
                            *n -= 1;
                            if *n == 0 {
                                batch_done = true;
                                self.outstanding.remove(&lane.session);
                                let timers = self.scheduler.on_batch_complete(
                                    ctx.now(),
                                    ctx.rng(),
                                    lane.session,
                                );
                                for (delay, wake) in timers {
                                    self.arm(ctx, delay, wake);
                                }
                                if !self.scheduler.is_active(lane.session) {
                                    self.end_session(lane.session);
                                }
                            }
                        }
                        // Periodic out-of-band handoff: the completing
                        // session serializes its context; the next other
                        // session to issue a batch inherits it.
                        if batch_done {
                            if let Some(every) = self.handoff_every {
                                if self.stats.batches.is_multiple_of(every) {
                                    let from = LaneId { session: lane.session, slot: 0 };
                                    let exported = self.export_context(from);
                                    self.pending_context = Some((exported, from, ctx.now()));
                                    self.stats.contexts_exported += 1;
                                }
                            }
                        }
                    }
                }
            }
            if !progressed {
                return;
            }
        }
    }
}

impl<M: Clone + 'static> PlaneNode<M> for ComposedRunner<M> {
    fn drain_completions(&mut self, out: &mut Vec<(usize, CompletedRecord)>) {
        out.append(&mut self.completed);
    }
}

impl<M: Clone + 'static> Node<M> for ComposedRunner<M> {
    fn on_start(&mut self, ctx: &mut Context<M>) {
        for s in &mut self.services {
            s.on_start(ctx);
        }
        let timers = self.scheduler.on_start(ctx.rng());
        for (delay, wake) in timers {
            self.arm(ctx, delay, wake);
        }
    }

    fn on_message(&mut self, ctx: &mut Context<M>, from: NodeId, msg: M) {
        // Exactly one service understands a given wire message (it narrows
        // via TryInto and ignores the other protocols' variants), so offering
        // a clone to each service delivers it precisely once.
        for s in &mut self.services {
            s.on_message(ctx, from, msg.clone());
        }
        self.drain(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Context<M>, tag: u64) {
        if tag & 1 == 1 {
            // Service-owned timer: each service accepts only tags in its own
            // namespace (see `MappedService::with_tag_namespace`).
            for s in &mut self.services {
                s.on_timer(ctx, tag);
            }
        } else {
            let Some(wake) = self.timers.remove(&tag) else { return };
            let (issue, timers) = self.scheduler.on_wake(ctx.now(), ctx.rng(), wake);
            self.stats.arrivals = self.scheduler.arrivals();
            self.stats.shed = self.scheduler.shed();
            for (delay, next) in timers {
                self.arm(ctx, delay, next);
            }
            for session in issue {
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
}
