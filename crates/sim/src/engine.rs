//! The discrete-event engine driving protocol nodes.
//!
//! Protocols (Spanner, Spanner-RSS, Gryff, Gryff-RSC) are written as
//! deterministic state machines implementing [`Node`]. Nodes react to
//! delivered messages and expired timers through a [`Context`] that lets them
//! send messages, set timers, read the simulated clock, query TrueTime, and
//! draw random numbers from the engine's seeded generator.
//!
//! # Time model
//!
//! * Message delivery is decided by the engine's [`NetworkModel`]: the
//!   one-way latency between the sender's and receiver's regions (plus
//!   jitter and any extra delay requested by the sender), and a per-message
//!   [`Delivery`] verdict — deliver, delay, drop, or duplicate. The default
//!   model, [`crate::net::LatencyMatrix`], always delivers.
//! * A scripted [`FaultSchedule`] (see [`Engine::install_faults`]) overlays
//!   link partitions, probabilistic drop/duplicate/delay windows, and node
//!   crash/recover events on top of the model's verdicts. Messages addressed
//!   to a crashed node expire; its timers are deferred to the recovery
//!   instant (the durable state machine resumes where it left off), and the
//!   [`Node::on_crash`] / [`Node::on_recover`] hooks let protocols drop
//!   volatile state and re-drive stalled work.
//! * Each node has a *service time*: the CPU cost of handling one event. If a
//!   message arrives while the node is still busy, its processing is delayed
//!   until the node frees up. This produces queueing, which is what makes the
//!   throughput/latency experiments (Figure 6, §7.4) saturate realistically.
//!   The ordering contract: a deferred event is re-keyed `(busy_until, fresh
//!   seq)` at the moment it reaches the global head; an event arriving at
//!   exactly the busy instant with an older seq is served first. The queue
//!   parks each node's backlog in a run queue of its own without changing
//!   that order ([`crate::queue`], "The busy path").
//! * Events scheduled for the same instant are processed in scheduling order,
//!   which keeps runs bit-for-bit deterministic for a fixed seed — with or
//!   without faults, since drop/duplicate sampling draws from the same
//!   seeded RNG stream.
//!
//! # Event storage
//!
//! Events live in an arena-backed indexed queue ([`crate::queue`]): payloads
//! are written into a slab once at dispatch and moved out once at delivery.
//! A calendar time wheel orders the near future: scheduling appends a
//! compact ref to its 64 µs bucket's list, and a bucket is sorted once, when
//! the clock reaches it; far timers wait in a heap fallback. Message
//! delivery is zero-clone — the only path that clones a message is a
//! `Delivery::Duplicate` verdict, which copies the payload in-arena for the
//! echo. Per-turn outbox/timer buffers are engine scratch, reused across
//! turns. The seed engine's heap-of-whole-entries queue survives as
//! [`crate::queue::QueueKind::ReferenceHeap`]; both kinds pop in identical
//! `(time, seq)` order, so they replay identical histories (differentially
//! tested in `tests/queue_determinism.rs`).

use std::collections::BTreeSet;

use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::fault::FaultSchedule;
use crate::metrics::{EngineStats, MessageStats};
use crate::net::{Delivery, NetworkModel, Region};
use crate::queue::{QueueKind, SimQueue};
use crate::time::{SimDuration, SimTime};
use crate::truetime::{TrueTime, TtInterval};

/// Index of a node within the engine.
pub type NodeId = usize;

/// A protocol participant driven by the engine.
///
/// All methods receive a [`Context`] used to interact with the simulated
/// world. Implementations must be deterministic given the context's RNG.
pub trait Node<M>: 'static {
    /// Called once when the simulation starts, before any message delivery.
    fn on_start(&mut self, _ctx: &mut Context<M>) {}

    /// Called when a message from `from` is delivered to this node.
    fn on_message(&mut self, ctx: &mut Context<M>, from: NodeId, msg: M);

    /// Called when a timer previously set with [`Context::set_timer`] fires.
    fn on_timer(&mut self, _ctx: &mut Context<M>, _tag: u64) {}

    /// Called when a scripted [`FaultSchedule`] crash takes this node down.
    ///
    /// Implementations drop their *volatile* state here (in-memory queues,
    /// client-facing read sessions) and keep what the real system would have
    /// made durable (replicated logs, on-disk stores). Anything sent or
    /// scheduled from this hook is discarded — a crashing node cannot act.
    fn on_crash(&mut self, _ctx: &mut Context<M>) {}

    /// Called when a crashed node recovers.
    ///
    /// The node resumes from its durable state: timers that would have fired
    /// while it was down fire right after this hook, and implementations
    /// re-drive any coordination that stalled while they were away (e.g.
    /// re-sending the current round of an in-flight agreement).
    fn on_recover(&mut self, _ctx: &mut Context<M>) {}

    /// A small tag naming the node's current protocol phase, sampled at each
    /// message delivery when coverage instrumentation is installed (see
    /// [`Engine::install_coverage`]). The engine records the pair
    /// `(message class, receiver phase tag)` as a behaviour-coverage
    /// feature; protocols encode "what am I in the middle of" here (e.g.
    /// bits for in-flight RMW coordinations, pending WAL writes, queued
    /// re-drives). The default — a constant — collapses all phases into one.
    fn phase_tag(&self) -> u16 {
        0
    }
}

/// Engine-wide configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// CPU cost of handling one event at a node, unless overridden per node.
    pub default_service_time: SimDuration,
    /// Hard stop: events scheduled after this instant are not processed.
    pub max_time: SimTime,
    /// TrueTime uncertainty bound ε for all nodes.
    pub truetime_epsilon: SimDuration,
    /// Event-queue implementation (see [`QueueKind`]): the indexed
    /// arena/time-wheel queue by default, or the retained reference heap for
    /// differential tests and benchmarks. Both pop in identical order, so
    /// this knob never changes a simulation's history — only its wall-clock.
    pub queue: QueueKind,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            default_service_time: SimDuration::from_micros(10),
            max_time: SimTime::from_secs(3_600),
            truetime_epsilon: SimDuration::ZERO,
            queue: QueueKind::Indexed,
        }
    }
}

#[derive(Clone)]
enum EventKind<M> {
    Start { node: NodeId },
    Message { from: NodeId, to: NodeId, msg: M },
    Timer { node: NodeId, tag: u64 },
    Crash { node: NodeId, recover_at: Option<SimTime> },
    Recover { node: NodeId },
}

/// The node-facing handle into the simulation.
///
/// The outbox/timer buffers are engine-owned scratch vectors, reused across
/// turns (the engine drains them after every handler) instead of allocating
/// per event.
pub struct Context<'a, M> {
    now: SimTime,
    node_id: NodeId,
    rng: &'a mut SmallRng,
    truetime: &'a mut TrueTime,
    /// Messages to send: (destination, extra delay, message).
    outbox: &'a mut Vec<(NodeId, SimDuration, M)>,
    /// Timers to set: (delay, tag).
    timers: &'a mut Vec<(SimDuration, u64)>,
}

/// The borrowed state an execution engine lends a [`Context`] for one
/// handler invocation.
///
/// [`Node`] implementations only ever see a `Context`, so any engine that
/// can produce these parts can drive them: the discrete-event [`Engine`]
/// assembles contexts from its own arrays, and the live (threaded) execution
/// plane assembles them from per-thread state with `now` mapped from the
/// wall clock. This is what makes a protocol node engine-agnostic.
pub struct ContextParts<'a, M> {
    /// The current (simulated or wall-mapped) time.
    pub now: SimTime,
    /// The node being invoked.
    pub node_id: NodeId,
    /// The node's deterministic RNG stream.
    pub rng: &'a mut SmallRng,
    /// The node's TrueTime clock.
    pub truetime: &'a mut TrueTime,
    /// Receives messages the handler sends: (destination, extra delay, msg).
    pub outbox: &'a mut Vec<(NodeId, SimDuration, M)>,
    /// Receives timers the handler sets: (delay, tag).
    pub timers: &'a mut Vec<(SimDuration, u64)>,
}

impl<'a, M> Context<'a, M> {
    /// Assembles a context from engine-owned parts (see [`ContextParts`]).
    pub fn from_parts(parts: ContextParts<'a, M>) -> Self {
        Context {
            now: parts.now,
            node_id: parts.node_id,
            rng: parts.rng,
            truetime: parts.truetime,
            outbox: parts.outbox,
            timers: parts.timers,
        }
    }
    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The identifier of the node being invoked.
    pub fn node_id(&self) -> NodeId {
        self.node_id
    }

    /// Sends `msg` to node `to` with network latency only.
    pub fn send(&mut self, to: NodeId, msg: M) {
        self.outbox.push((to, SimDuration::ZERO, msg));
    }

    /// Sends `msg` to node `to`, adding `extra` delay on top of the network
    /// latency (used, e.g., to model replication to a majority).
    pub fn send_after(&mut self, to: NodeId, extra: SimDuration, msg: M) {
        self.outbox.push((to, extra, msg));
    }

    /// Schedules [`Node::on_timer`] to fire on this node after `delay`.
    pub fn set_timer(&mut self, delay: SimDuration, tag: u64) {
        self.timers.push((delay, tag));
    }

    /// Reads this node's TrueTime clock.
    pub fn truetime_now(&mut self) -> TtInterval {
        self.truetime.now(self.now)
    }

    /// The TrueTime uncertainty bound ε.
    pub fn truetime_epsilon(&self) -> SimDuration {
        self.truetime.epsilon()
    }

    /// The engine's deterministic random number generator.
    pub fn rng(&mut self) -> &mut SmallRng {
        self.rng
    }

    /// Runs `f` with a context typed for an *embedded* protocol whose message
    /// type `P` can be lifted into this simulation's message type `M`.
    ///
    /// This is the substrate for multi-protocol simulations (see
    /// [`crate::compose`]): a node written against `Context<P>` can run
    /// unchanged inside an engine whose wire type is an enum over several
    /// protocols. Messages the inner node sends are converted with
    /// `P::into()`; timers and the clock/TrueTime/RNG state are shared with
    /// the outer context.
    pub fn with_protocol<P, R>(&mut self, f: impl FnOnce(&mut Context<'_, P>) -> R) -> R
    where
        P: Into<M>,
    {
        self.with_protocol_tagged(|t| t, f)
    }

    /// [`Context::with_protocol`] with a timer-tag transform applied to every
    /// timer the inner protocol sets. Hosts that embed *several* protocol
    /// state machines in one node use it to keep their timer namespaces
    /// disjoint (the host applies the inverse transform before delivering
    /// `on_timer`).
    pub fn with_protocol_tagged<P, R>(
        &mut self,
        map_tag: impl Fn(u64) -> u64,
        f: impl FnOnce(&mut Context<'_, P>) -> R,
    ) -> R
    where
        P: Into<M>,
    {
        let mut outbox: Vec<(NodeId, SimDuration, P)> = Vec::new();
        let mut timers: Vec<(SimDuration, u64)> = Vec::new();
        let mut inner: Context<'_, P> = Context {
            now: self.now,
            node_id: self.node_id,
            rng: &mut *self.rng,
            truetime: &mut *self.truetime,
            outbox: &mut outbox,
            timers: &mut timers,
        };
        let r = f(&mut inner);
        let _ = inner;
        for (to, extra, msg) in outbox {
            self.outbox.push((to, extra, msg.into()));
        }
        for (delay, tag) in timers {
            self.timers.push((delay, map_tag(tag)));
        }
        r
    }
}

/// Classifier turning a protocol message into a coverage class (see
/// [`Engine::install_coverage`]).
type CoverageClassify<M> = Box<dyn Fn(&M) -> u16>;

/// The discrete-event engine.
///
/// `M` is the protocol's message type; `N` is the node type (typically an enum
/// over the protocol's roles so the harness can inspect nodes after the run).
pub struct Engine<M, N> {
    cfg: EngineConfig,
    net: Box<dyn NetworkModel>,
    faults: FaultSchedule,
    nodes: Vec<N>,
    regions: Vec<Region>,
    service_times: Vec<SimDuration>,
    truetimes: Vec<TrueTime>,
    busy_until: Vec<SimTime>,
    crashed: Vec<bool>,
    crashed_until: Vec<Option<SimTime>>,
    queue: SimQueue<EventKind<M>>,
    now: SimTime,
    rng: SmallRng,
    started: bool,
    messages: MessageStats,
    processed_events: u64,
    dispatch_seq: u64,
    coverage_classify: Option<CoverageClassify<M>>,
    coverage_hits: BTreeSet<(u16, u16)>,
    seed: u64,
    /// Scratch buffers lent to [`Context`]s and drained after every handler,
    /// so a turn costs no allocation once they reach steady-state capacity.
    outbox_scratch: Vec<(NodeId, SimDuration, M)>,
    timers_scratch: Vec<(SimDuration, u64)>,
}

impl<M: Clone + 'static, N: Node<M>> Engine<M, N> {
    /// Creates an engine with the given configuration, network model, and
    /// random seed.
    pub fn new(cfg: EngineConfig, net: impl NetworkModel, seed: u64) -> Self {
        let queue = SimQueue::new(cfg.queue);
        Engine {
            cfg,
            net: Box::new(net),
            faults: FaultSchedule::default(),
            nodes: Vec::new(),
            regions: Vec::new(),
            service_times: Vec::new(),
            truetimes: Vec::new(),
            busy_until: Vec::new(),
            crashed: Vec::new(),
            crashed_until: Vec::new(),
            queue,
            now: SimTime::ZERO,
            rng: SmallRng::seed_from_u64(seed),
            started: false,
            messages: MessageStats::default(),
            processed_events: 0,
            dispatch_seq: 0,
            coverage_classify: None,
            coverage_hits: BTreeSet::new(),
            seed,
            outbox_scratch: Vec::new(),
            timers_scratch: Vec::new(),
        }
    }

    /// Installs a scripted fault schedule: link cuts and message windows
    /// apply to every message sent from now on; crash/recover events fire at
    /// their scripted instants.
    ///
    /// # Panics
    ///
    /// Panics if the simulation already started, or if two crash windows of
    /// the same node overlap.
    pub fn install_faults(&mut self, faults: FaultSchedule) {
        assert!(!self.started, "install faults before running the simulation");
        let mut windows: Vec<_> =
            faults.crashes().iter().map(|c| (c.node, c.at, c.recover_at)).collect();
        windows.sort_unstable();
        for pair in windows.windows(2) {
            let ((node_a, _, recover_a), (node_b, at_b, _)) = (pair[0], pair[1]);
            if node_a == node_b {
                assert!(
                    recover_a.is_some_and(|r| r <= at_b),
                    "crash windows of node {node_a} overlap"
                );
            }
        }
        self.faults = faults;
    }

    /// Adds a node placed in `region`, returning its [`NodeId`].
    pub fn add_node(&mut self, node: N, region: usize) -> NodeId {
        self.add_node_with(node, region, self.cfg.default_service_time)
    }

    /// Adds a node with an explicit per-event service time.
    pub fn add_node_with(&mut self, node: N, region: usize, service_time: SimDuration) -> NodeId {
        let id = self.nodes.len();
        self.nodes.push(node);
        self.regions.push(Region(region));
        self.service_times.push(service_time);
        self.truetimes
            .push(TrueTime::new(self.cfg.truetime_epsilon, self.seed.wrapping_add(id as u64 * 77)));
        self.busy_until.push(SimTime::ZERO);
        self.crashed.push(false);
        self.crashed_until.push(None);
        id
    }

    /// Number of nodes added so far.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Immutable access to a node (typically after the run, to read metrics).
    pub fn node(&self, id: NodeId) -> &N {
        &self.nodes[id]
    }

    /// Iterates over all nodes.
    pub fn nodes(&self) -> impl Iterator<Item = &N> {
        self.nodes.iter()
    }

    /// Ends the simulation and hands back the nodes, in id order.
    pub fn into_nodes(self) -> Vec<N> {
        self.nodes
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The network model.
    pub fn network(&self) -> &dyn NetworkModel {
        &*self.net
    }

    /// The installed fault schedule (empty unless
    /// [`Engine::install_faults`] was called).
    pub fn faults(&self) -> &FaultSchedule {
        &self.faults
    }

    /// True while `node` is down under a scripted crash window.
    pub fn is_crashed(&self, node: NodeId) -> bool {
        self.crashed[node]
    }

    /// Message delivery counters: delivered, dropped (verdicts and cut
    /// links), duplicated (extra copies injected), and expired (addressed to
    /// a node that was down at delivery time).
    pub fn message_stats(&self) -> MessageStats {
        self.messages
    }

    /// Total events (start, message, timer) processed so far.
    pub fn processed_events(&self) -> u64 {
        self.processed_events
    }

    /// The event loop's work counters so far.
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            events: self.processed_events,
            deferrals: self.queue.deferrals(),
            queue_ops: self.queue.queue_ops(),
        }
    }

    /// Installs behaviour-coverage instrumentation: `classify` maps each
    /// message to a small class (typically its enum discriminant), and the
    /// engine records the pair `(class, receiver phase tag)` at every
    /// delivery — plus `(class, 0xFFFF)` for messages that expire at a
    /// crashed receiver. The distinct pairs a run produced are read back with
    /// [`Engine::coverage_pairs`]. Without this call the engine records
    /// nothing and delivery stays zero-overhead.
    pub fn install_coverage(&mut self, classify: impl Fn(&M) -> u16 + 'static) {
        self.coverage_classify = Some(Box::new(classify));
    }

    /// The distinct `(message class, receiver phase tag)` pairs observed so
    /// far, in sorted order. Empty unless [`Engine::install_coverage`] was
    /// called.
    pub fn coverage_pairs(&self) -> impl Iterator<Item = (u16, u16)> + '_ {
        self.coverage_hits.iter().copied()
    }

    /// Allocates `kind` into the event arena and schedules it at `time`.
    /// The payload moves into the queue exactly once (see
    /// [`SimQueue::alloc`]'s `#[must_use]` id for why there is no
    /// by-reference variant to clone from).
    fn push_event(&mut self, time: SimTime, kind: EventKind<M>) {
        let (node, power) = Self::route(&kind);
        let id = self.queue.alloc(kind);
        self.queue.schedule(time, id, node, power);
    }

    /// The routing header of an event: destination node, and whether it is
    /// a power (crash/recover) event that bypasses the CPU/busy model.
    fn route(kind: &EventKind<M>) -> (NodeId, bool) {
        match kind {
            EventKind::Start { node } => (*node, false),
            EventKind::Message { to, .. } => (*to, false),
            EventKind::Timer { node, .. } => (*node, false),
            EventKind::Crash { node, .. } => (*node, true),
            EventKind::Recover { node } => (*node, true),
        }
    }

    fn schedule_start_events(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for node in 0..self.nodes.len() {
            self.push_event(SimTime::ZERO, EventKind::Start { node });
        }
        // Same-time events process in push order, so order the power events
        // chronologically with recoveries first: when one window's recovery
        // coincides with the next window's crash, the node must come up
        // before it goes down again, not end up alive through the second
        // window.
        let mut power: Vec<(SimTime, u8, NodeId, Option<SimTime>)> = Vec::new();
        for crash in self.faults.crashes() {
            assert!(
                crash.node < self.nodes.len(),
                "crash window names unknown node {}",
                crash.node
            );
            power.push((crash.at, 1, crash.node, crash.recover_at));
            if let Some(at) = crash.recover_at {
                power.push((at, 0, crash.node, None));
            }
        }
        power.sort_unstable();
        for (time, kind, node, recover_at) in power {
            if kind == 0 {
                self.push_event(time, EventKind::Recover { node });
            } else {
                self.push_event(time, EventKind::Crash { node, recover_at });
            }
        }
    }

    /// Schedules one sent message according to the network verdict.
    fn dispatch(&mut self, from: NodeId, to: NodeId, extra: SimDuration, msg: M) {
        // A scripted nudge stretches this dispatch's delivery by a fixed
        // extra delay, keyed on the global dispatch counter. It composes
        // with (never overrides) the network/fault verdict: a dropped
        // message stays dropped, a duplicate's both copies shift.
        let extra = match self.faults.nudge_for(self.dispatch_seq) {
            Some(nudge) => extra + nudge,
            None => extra,
        };
        self.dispatch_seq += 1;
        let base = self.net.delivery(self.now, self.regions[from], self.regions[to], &mut self.rng);
        let verdict = self.faults.verdict(
            self.now,
            self.regions[from],
            self.regions[to],
            &mut self.rng,
            base,
        );
        match verdict {
            Delivery::Deliver { latency } => {
                self.push_event(self.now + latency + extra, EventKind::Message { from, to, msg });
            }
            Delivery::Delay { latency, extra: fault_extra } => {
                self.push_event(
                    self.now + latency + extra + fault_extra,
                    EventKind::Message { from, to, msg },
                );
            }
            Delivery::Drop => {
                self.messages.dropped += 1;
            }
            Delivery::Duplicate { latency, echo_after } => {
                self.messages.duplicated += 1;
                let at = self.now + latency + extra;
                // The only cloning path in delivery: the echo copy is cloned
                // in-arena; the original is moved, never copied.
                let first = self.queue.alloc(EventKind::Message { from, to, msg });
                let echo = self.queue.alloc_duplicate(first);
                self.queue.schedule(at, first, to, false);
                self.queue.schedule(at + echo_after, echo, to, false);
            }
        }
    }

    /// Runs until the event queue is empty or [`EngineConfig::max_time`] is
    /// reached. Returns the final simulated time.
    pub fn run(&mut self) -> SimTime {
        self.run_until(self.cfg.max_time)
    }

    /// True when per-turn buffers are reused across turns. The reference
    /// engine allocates fresh ones per handler, exactly like the seed
    /// engine, so the `engine_hotpath` A/B measures the full before/after
    /// (queue layout *and* allocation discipline) in one binary.
    fn reuse_scratch(&self) -> bool {
        self.queue.kind() == QueueKind::Indexed
    }

    /// The outbox/timer buffers for one turn: the engine's scratch (empty,
    /// capacity warm) under the indexed queue, fresh allocations under the
    /// reference engine.
    #[allow(clippy::type_complexity)]
    fn take_turn_buffers(&mut self) -> (Vec<(NodeId, SimDuration, M)>, Vec<(SimDuration, u64)>) {
        if self.reuse_scratch() {
            (std::mem::take(&mut self.outbox_scratch), std::mem::take(&mut self.timers_scratch))
        } else {
            (Vec::new(), Vec::new())
        }
    }

    /// Hands (emptied) turn buffers back to the engine for reuse; the
    /// reference engine drops them, exactly like the seed engine did.
    fn return_turn_buffers(
        &mut self,
        outbox: Vec<(NodeId, SimDuration, M)>,
        timers: Vec<(SimDuration, u64)>,
    ) {
        debug_assert!(outbox.is_empty() && timers.is_empty());
        if self.reuse_scratch() {
            self.outbox_scratch = outbox;
            self.timers_scratch = timers;
        }
    }

    /// Drains the turn buffers into dispatched messages and scheduled timers
    /// for `node`, then hands the buffers — emptied, capacity intact — back
    /// to the engine for the next turn.
    fn flush_turn(
        &mut self,
        node: NodeId,
        mut outbox: Vec<(NodeId, SimDuration, M)>,
        mut timers: Vec<(SimDuration, u64)>,
    ) {
        for (to, extra, msg) in outbox.drain(..) {
            self.dispatch(node, to, extra, msg);
        }
        for (delay, tag) in timers.drain(..) {
            self.push_event(self.now + delay, EventKind::Timer { node, tag });
        }
        self.return_turn_buffers(outbox, timers);
    }

    /// Runs until the event queue is empty or the given deadline is reached.
    pub fn run_until(&mut self, deadline: SimTime) -> SimTime {
        self.schedule_start_events();
        while let Some((head_time, head_node, head_power)) = self.queue.peek_head() {
            if head_time > deadline {
                break;
            }
            // Model CPU contention from the routing header alone: if the
            // target node is still busy, defer the head to when it frees up
            // without ever touching the payload. (Power events bypass the
            // busy model, and events for crashed nodes are handled below.)
            if !head_power && !self.crashed[head_node] {
                let busy = self.busy_until[head_node];
                if busy > head_time {
                    self.queue.defer_head(busy);
                    // Advance time to the event we deferred from, keeping
                    // `now` monotone for observers.
                    self.now = self.now.max(head_time);
                    continue;
                }
            }
            let (time, kind) = self.queue.pop().expect("peeked entry must exist");
            let node_id = head_node;
            // Crash and recover are external power events: they bypass the
            // CPU/busy model and the crashed-node filters below.
            match kind {
                EventKind::Crash { node, recover_at } => {
                    self.now = self.now.max(time);
                    self.processed_events += 1;
                    self.crashed[node] = true;
                    self.crashed_until[node] = recover_at;
                    self.busy_until[node] = self.now;
                    let (mut outbox, mut timers) = self.take_turn_buffers();
                    let mut ctx = Context {
                        now: self.now,
                        node_id: node,
                        rng: &mut self.rng,
                        truetime: &mut self.truetimes[node],
                        outbox: &mut outbox,
                        timers: &mut timers,
                    };
                    self.nodes[node].on_crash(&mut ctx);
                    let _ = ctx;
                    // A crashing node cannot act: discard anything the hook
                    // tried to send or schedule.
                    outbox.clear();
                    timers.clear();
                    self.return_turn_buffers(outbox, timers);
                    continue;
                }
                EventKind::Recover { node } => {
                    self.now = self.now.max(time);
                    self.processed_events += 1;
                    self.crashed[node] = false;
                    self.crashed_until[node] = None;
                    self.busy_until[node] = self.now;
                    let (mut outbox, mut timers) = self.take_turn_buffers();
                    let mut ctx = Context {
                        now: self.now,
                        node_id: node,
                        rng: &mut self.rng,
                        truetime: &mut self.truetimes[node],
                        outbox: &mut outbox,
                        timers: &mut timers,
                    };
                    self.nodes[node].on_recover(&mut ctx);
                    let _ = ctx;
                    self.flush_turn(node, outbox, timers);
                    continue;
                }
                _ => {}
            }
            if self.crashed[node_id] {
                self.now = self.now.max(time);
                match kind {
                    EventKind::Message { msg, .. } => {
                        // Addressed to a node that is down: the message is
                        // lost (the transport cannot hold it).
                        self.messages.expired += 1;
                        if let Some(classify) = &self.coverage_classify {
                            self.coverage_hits.insert((classify(&msg), 0xFFFF));
                        }
                    }
                    EventKind::Timer { node, tag } => {
                        // The durable state machine resumes after recovery:
                        // defer the timer to the recovery instant (or drop it
                        // if the node never comes back).
                        if let Some(recover_at) = self.crashed_until[node] {
                            self.push_event(recover_at, EventKind::Timer { node, tag });
                        }
                    }
                    EventKind::Start { .. } => {}
                    EventKind::Crash { .. } | EventKind::Recover { .. } => {
                        unreachable!("handled above")
                    }
                }
                continue;
            }
            self.now = self.now.max(time);
            self.busy_until[node_id] = self.now + self.service_times[node_id];
            self.processed_events += 1;

            let (mut outbox, mut timers) = self.take_turn_buffers();
            let mut ctx = Context {
                now: self.now,
                node_id,
                rng: &mut self.rng,
                truetime: &mut self.truetimes[node_id],
                outbox: &mut outbox,
                timers: &mut timers,
            };
            match kind {
                EventKind::Start { .. } => self.nodes[node_id].on_start(&mut ctx),
                EventKind::Message { from, msg, .. } => {
                    self.messages.delivered += 1;
                    if let Some(classify) = &self.coverage_classify {
                        self.coverage_hits
                            .insert((classify(&msg), self.nodes[node_id].phase_tag()));
                    }
                    self.nodes[node_id].on_message(&mut ctx, from, msg);
                }
                EventKind::Timer { tag, .. } => self.nodes[node_id].on_timer(&mut ctx, tag),
                EventKind::Crash { .. } | EventKind::Recover { .. } => {
                    unreachable!("handled above")
                }
            }
            let _ = ctx;
            self.flush_turn(node_id, outbox, timers);
        }
        self.now
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::LatencyMatrix;

    #[derive(Clone, Debug, PartialEq)]
    enum Msg {
        Ping(u32),
        Pong(u32),
    }

    #[derive(Default)]
    struct PingNode {
        sent: u32,
        received_pongs: Vec<u32>,
        pong_times: Vec<SimTime>,
    }

    #[derive(Default)]
    struct EchoNode {
        received_pings: Vec<u32>,
    }

    enum TestNode {
        Ping(PingNode),
        Echo(EchoNode),
    }

    impl Node<Msg> for TestNode {
        fn on_start(&mut self, ctx: &mut Context<Msg>) {
            if let TestNode::Ping(p) = self {
                p.sent = 1;
                ctx.send(1, Msg::Ping(1));
                ctx.set_timer(SimDuration::from_millis(500), 7);
            }
        }

        fn on_message(&mut self, ctx: &mut Context<Msg>, from: NodeId, msg: Msg) {
            match (self, msg) {
                (TestNode::Echo(e), Msg::Ping(n)) => {
                    e.received_pings.push(n);
                    ctx.send(from, Msg::Pong(n));
                }
                (TestNode::Ping(p), Msg::Pong(n)) => {
                    p.received_pongs.push(n);
                    p.pong_times.push(ctx.now());
                    if n < 3 {
                        p.sent += 1;
                        ctx.send(from, Msg::Ping(n + 1));
                    }
                }
                _ => {}
            }
        }

        fn on_timer(&mut self, _ctx: &mut Context<Msg>, tag: u64) {
            if let TestNode::Ping(p) = self {
                assert_eq!(tag, 7);
                p.received_pongs.push(1000);
            }
        }
    }

    fn build_engine(seed: u64) -> Engine<Msg, TestNode> {
        let cfg = EngineConfig {
            default_service_time: SimDuration::from_micros(10),
            max_time: SimTime::from_secs(10),
            truetime_epsilon: SimDuration::from_millis(5),
            ..EngineConfig::default()
        };
        let net = LatencyMatrix::spanner_wan();
        let mut engine = Engine::new(cfg, net, seed);
        engine.add_node(TestNode::Ping(PingNode::default()), 0);
        engine.add_node(TestNode::Echo(EchoNode::default()), 1);
        engine
    }

    #[test]
    fn ping_pong_round_trips_match_wan_latency() {
        let mut engine = build_engine(1);
        engine.run();
        let ping = match engine.node(0) {
            TestNode::Ping(p) => p,
            _ => panic!("node 0 must be the ping node"),
        };
        // Three pongs plus the timer marker.
        assert_eq!(ping.received_pongs.iter().filter(|&&n| n < 1000).count(), 3);
        assert!(ping.received_pongs.contains(&1000));
        // First pong arrives no earlier than one CA-VA round trip (62 ms).
        assert!(ping.pong_times[0] >= SimTime::from_millis(62));
        // And within a couple ms of it (jitter + service time).
        assert!(ping.pong_times[0] <= SimTime::from_millis(65));
        let echo = match engine.node(1) {
            TestNode::Echo(e) => e,
            _ => panic!("node 1 must be the echo node"),
        };
        assert_eq!(echo.received_pings, vec![1, 2, 3]);
    }

    #[test]
    fn deterministic_across_runs() {
        let mut a = build_engine(99);
        let mut b = build_engine(99);
        a.run();
        b.run();
        let (pa, pb) = match (a.node(0), b.node(0)) {
            (TestNode::Ping(x), TestNode::Ping(y)) => (x, y),
            _ => panic!("node 0 must be the ping node"),
        };
        assert_eq!(pa.pong_times, pb.pong_times);
        assert_eq!(a.processed_events(), b.processed_events());
    }

    #[test]
    fn different_seeds_change_jitter() {
        let mut a = build_engine(1);
        let mut b = build_engine(2);
        a.run();
        b.run();
        let (pa, pb) = match (a.node(0), b.node(0)) {
            (TestNode::Ping(x), TestNode::Ping(y)) => (x, y),
            _ => panic!("node 0 must be the ping node"),
        };
        // Jitter is sampled from the seeded RNG, so times should differ.
        assert_ne!(pa.pong_times, pb.pong_times);
    }

    #[test]
    fn run_until_stops_early() {
        let mut engine = build_engine(1);
        engine.run_until(SimTime::from_millis(10));
        let ping = match engine.node(0) {
            TestNode::Ping(p) => p,
            _ => panic!("node 0 must be the ping node"),
        };
        // No pong can arrive within 10 ms over a 62 ms RTT.
        assert!(ping.received_pongs.is_empty());
        assert!(engine.now() <= SimTime::from_millis(10));
    }

    /// A node that floods itself with timers to exercise the busy/service-time
    /// queueing path.
    struct BusyNode {
        handled: u64,
        last_handled_at: SimTime,
    }

    impl Node<Msg> for BusyNode {
        fn on_start(&mut self, ctx: &mut Context<Msg>) {
            // Schedule 100 timers at the same instant.
            for _ in 0..100 {
                ctx.set_timer(SimDuration::from_millis(1), 0);
            }
        }
        fn on_message(&mut self, _ctx: &mut Context<Msg>, _from: NodeId, _msg: Msg) {}
        fn on_timer(&mut self, ctx: &mut Context<Msg>, _tag: u64) {
            self.handled += 1;
            self.last_handled_at = ctx.now();
        }
    }

    /// A node that pings a peer every 100 ms and records replies; used by the
    /// fault tests.
    struct Chatter {
        peer: NodeId,
        got: u64,
        pings_heard: u64,
        crashes: u64,
        recoveries: u64,
    }

    impl Node<Msg> for Chatter {
        fn on_start(&mut self, ctx: &mut Context<Msg>) {
            ctx.set_timer(SimDuration::from_millis(100), 1);
        }
        fn on_message(&mut self, ctx: &mut Context<Msg>, from: NodeId, msg: Msg) {
            match msg {
                Msg::Ping(n) => {
                    self.pings_heard += 1;
                    ctx.send(from, Msg::Pong(n));
                }
                Msg::Pong(_) => self.got += 1,
            }
        }
        fn on_timer(&mut self, ctx: &mut Context<Msg>, _tag: u64) {
            ctx.send(self.peer, Msg::Ping(1));
            if ctx.now() < SimTime::from_secs(10) {
                ctx.set_timer(SimDuration::from_millis(100), 1);
            }
        }
        fn on_crash(&mut self, _ctx: &mut Context<Msg>) {
            self.crashes += 1;
        }
        fn on_recover(&mut self, _ctx: &mut Context<Msg>) {
            self.recoveries += 1;
        }
    }

    fn chatter_engine(seed: u64) -> Engine<Msg, Chatter> {
        let cfg = EngineConfig {
            default_service_time: SimDuration::from_micros(10),
            max_time: SimTime::from_secs(12),
            truetime_epsilon: SimDuration::ZERO,
            ..EngineConfig::default()
        };
        // Two regions, 10 ms one-way.
        let net = LatencyMatrix::from_rtt_ms(&[&[0.2, 20.0], &[20.0, 0.2]], SimDuration::ZERO);
        let mut engine = Engine::new(cfg, net, seed);
        engine.add_node(Chatter { peer: 1, got: 0, pings_heard: 0, crashes: 0, recoveries: 0 }, 0);
        engine.add_node(Chatter { peer: 0, got: 0, pings_heard: 0, crashes: 0, recoveries: 0 }, 1);
        engine
    }

    #[test]
    fn crashed_nodes_expire_messages_and_hooks_fire() {
        let mut engine = chatter_engine(1);
        engine.install_faults(FaultSchedule::new().crash(
            1,
            SimTime::from_secs(2),
            SimTime::from_secs(4),
        ));
        engine.run();
        let healthy = {
            let mut e = chatter_engine(1);
            e.run();
            e.node(0).got
        };
        assert_eq!(engine.node(1).crashes, 1);
        assert_eq!(engine.node(1).recoveries, 1);
        // Pings sent into the 2-second outage expire; the sender hears fewer
        // pongs than in the healthy run but traffic resumes after recovery.
        let stats = engine.message_stats();
        assert!(stats.expired >= 15, "~20 pings expire at the crashed node ({stats:?})");
        assert!(engine.node(0).got < healthy, "the outage cost replies");
        assert!(engine.node(0).got > healthy / 2, "traffic resumed after recovery");
        assert!(!engine.is_crashed(1), "recovered by the end of the run");
    }

    #[test]
    fn partition_drops_messages_on_cut_links_only() {
        let mut engine = chatter_engine(2);
        engine.install_faults(FaultSchedule::new().partition_region(
            Region(1),
            SimTime::from_secs(2),
            SimTime::from_secs(5),
        ));
        engine.run();
        let stats = engine.message_stats();
        // Both directions of the cross-region link are cut for 3 s: ~30 pings
        // from each side are dropped at send time.
        assert!(stats.dropped >= 40, "cut-link sends are dropped ({stats:?})");
        assert_eq!(stats.expired, 0, "no node crashed");
        assert!(engine.node(0).got > 0 && engine.node(1).got > 0, "both sides resume after heal");
    }

    #[test]
    fn oneway_cut_drops_only_one_direction() {
        // Cut region 0 -> region 1 for most of the run. Node 0's pings (and
        // its pongs answering node 1) vanish at the send, so node 1 hears
        // nothing; node 1's pings still cross 1 -> 0 and node 0 keeps
        // hearing them. That inbound asymmetry is the one-way signature —
        // a symmetric Pair cut would starve both inboxes equally.
        let mut engine = chatter_engine(8);
        engine.install_faults(FaultSchedule::new().cut_link_oneway(
            Region(0),
            Region(1),
            SimTime::from_secs(1),
            SimTime::from_secs(9),
        ));
        engine.run();
        let stats = engine.message_stats();
        assert!(stats.dropped >= 100, "all 0->1 sends were dropped ({stats:?})");
        assert_eq!(stats.expired, 0, "no node crashed");
        let (zero, one) = (engine.node(0), engine.node(1));
        assert!(
            zero.pings_heard >= one.pings_heard + 60,
            "node 0 keeps receiving on the healthy direction ({} vs {})",
            zero.pings_heard,
            one.pings_heard
        );
        assert!(one.pings_heard < 25, "node 1's inbound link is cut ({})", one.pings_heard);
    }

    #[test]
    fn duplicate_windows_inject_extra_copies() {
        let mut engine = chatter_engine(3);
        engine.install_faults(FaultSchedule::new().duplicate_window(
            crate::fault::LinkScope::All,
            SimTime::from_secs(1),
            SimTime::from_secs(9),
            1.0,
        ));
        engine.run();
        let stats = engine.message_stats();
        assert!(stats.duplicated > 100, "every in-window message is duplicated ({stats:?})");
        // Duplicated pongs are counted twice by the receiver: protocols must
        // tolerate duplicates (the protocol crates dedup by op id).
        assert!(engine.node(0).got > engine.node(1).got / 2);
    }

    #[test]
    fn faulty_runs_are_deterministic_for_a_seed() {
        let schedule = || {
            FaultSchedule::new().crash(1, SimTime::from_secs(2), SimTime::from_secs(3)).drop_window(
                crate::fault::LinkScope::All,
                SimTime::from_secs(4),
                SimTime::from_secs(6),
                0.3,
            )
        };
        let mut a = chatter_engine(9);
        a.install_faults(schedule());
        let mut b = chatter_engine(9);
        b.install_faults(schedule());
        a.run();
        b.run();
        assert_eq!(a.message_stats(), b.message_stats());
        assert_eq!(a.node(0).got, b.node(0).got);
        assert_eq!(a.processed_events(), b.processed_events());
    }

    #[test]
    fn timers_of_crashed_nodes_defer_to_recovery() {
        // Node 1 sets a timer for t=2.5 s and is down [2 s, 4 s): the timer
        // must fire right after recovery, not be lost.
        struct OneTimer {
            fired_at: Option<SimTime>,
        }
        impl Node<Msg> for OneTimer {
            fn on_start(&mut self, ctx: &mut Context<Msg>) {
                ctx.set_timer(SimDuration::from_millis(2_500), 7);
            }
            fn on_message(&mut self, _: &mut Context<Msg>, _: NodeId, _: Msg) {}
            fn on_timer(&mut self, ctx: &mut Context<Msg>, _tag: u64) {
                self.fired_at = Some(ctx.now());
            }
        }
        let cfg = EngineConfig::default();
        let net = LatencyMatrix::single_region(SimDuration::from_millis(1));
        let mut engine: Engine<Msg, OneTimer> = Engine::new(cfg, net, 4);
        engine.add_node(OneTimer { fired_at: None }, 0);
        engine.install_faults(FaultSchedule::new().crash(
            0,
            SimTime::from_secs(2),
            SimTime::from_secs(4),
        ));
        engine.run();
        assert_eq!(engine.node(0).fired_at, Some(SimTime::from_secs(4)));
    }

    #[test]
    fn back_to_back_crash_windows_keep_the_node_down() {
        // Two adjacent windows, listed out of chronological order: at the
        // shared boundary (t = 4 s) the first window's recovery must process
        // before the second window's crash, leaving the node down through
        // [2 s, 6 s) with an instantaneous blip at 4 s.
        let mut engine = chatter_engine(6);
        engine.install_faults(
            FaultSchedule::new().crash(1, SimTime::from_secs(4), SimTime::from_secs(6)).crash(
                1,
                SimTime::from_secs(2),
                SimTime::from_secs(4),
            ),
        );
        engine.run_until(SimTime::from_secs(5));
        assert!(engine.is_crashed(1), "still inside the second window at t = 5 s");
        engine.run();
        assert!(!engine.is_crashed(1));
        assert_eq!(engine.node(1).crashes, 2);
        assert_eq!(engine.node(1).recoveries, 2);
    }

    #[test]
    #[should_panic(expected = "crash windows of node 0 overlap")]
    fn overlapping_crash_windows_are_rejected() {
        let mut engine = chatter_engine(1);
        engine.install_faults(
            FaultSchedule::new().crash(0, SimTime::from_secs(1), SimTime::from_secs(3)).crash(
                0,
                SimTime::from_secs(2),
                SimTime::from_secs(4),
            ),
        );
    }

    #[test]
    fn service_time_serializes_event_handling() {
        let cfg = EngineConfig {
            default_service_time: SimDuration::from_micros(100),
            max_time: SimTime::from_secs(10),
            truetime_epsilon: SimDuration::ZERO,
            ..EngineConfig::default()
        };
        let net = LatencyMatrix::single_region(SimDuration::from_micros(50));
        let mut engine: Engine<Msg, BusyNode> = Engine::new(cfg, net, 5);
        engine.add_node(BusyNode { handled: 0, last_handled_at: SimTime::ZERO }, 0);
        engine.run();
        let node = engine.node(0);
        assert_eq!(node.handled, 100);
        // 100 events at 100 µs each cannot all finish before ~1 ms + 99 * 100 µs.
        assert!(node.last_handled_at >= SimTime::from_micros(1_000 + 99 * 100));
    }
}
