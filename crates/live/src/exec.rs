//! The live executor: one OS thread per protocol node, driven by a mailbox.
//!
//! Each node thread owns its [`Node`](regular_sim::Node) state machine, a
//! local timer heap, a seeded RNG stream, and a TrueTime clock, and builds
//! the same [`Context`] the discrete-event engine builds (via
//! [`ContextParts`]) — so shards, replicas, and session runners execute
//! **unmodified** on real threads. The differences from the
//! simulator are exactly the ones the live plane exists to exercise: `now`
//! comes from the wall clock (scaled, see [`crate::clock::LiveClock`]),
//! handlers run concurrently across nodes, and handler CPU cost is real
//! instead of a configured service time.
//!
//! Crash semantics mirror the engine: a crashed node loses messages
//! (counted as expired), defers pending timers until recovery, and any
//! output produced by the `on_crash` hook itself is discarded.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::SeedableRng;
use regular_session::{CompletedRecord, Deployment, Plane, PlaneNode, Ran};
use regular_sim::engine::{Context, ContextParts};
use regular_sim::fault::FaultSchedule;
use regular_sim::net::{NetworkModel, Region};
use regular_sim::{NodeId, SimDuration, SimTime, TrueTime, WireStats};

use crate::clock::LiveClock;
use crate::net::{run_hub_conns, run_worker_conn, SocketStream};
use crate::transport::{run_router, LiveEvent, Mailbox, Outgoing, RouterReport, TransportKind};
use crate::wire::Wire;

/// The live plane: every node of a [`Deployment`] an OS thread, time the
/// scaled wall clock, messages routed over the chosen transport. Live runs
/// are *not* bit-deterministic for a seed (thread interleaving is real);
/// `record_deliveries` preserves the schedule evidence for artifacts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LivePlane {
    /// Simulated microseconds per wall microsecond (≥ 1).
    pub time_scale: u64,
    /// Record the delivery log (for failure artifacts / replay evidence).
    pub record_deliveries: bool,
    /// Which transport carries the messages (mpsc, UDS, or TCP).
    pub transport: TransportKind,
}

impl<M: Wire + Clone + Send + 'static> Plane<M> for LivePlane {
    /// # Panics
    ///
    /// Panics if socket setup fails (an in-process pair failing means the
    /// host is out of descriptors) or a node/router thread panics.
    fn run<N: PlaneNode<M>>(&self, deployment: Deployment<N>) -> Ran<N> {
        run_live_transport(self, deployment)
    }
}

/// What the router and the collector keep of a deployment once its nodes
/// have been handed to their threads.
pub(crate) struct Fabric {
    pub(crate) net: Box<dyn NetworkModel>,
    pub(crate) faults: FaultSchedule,
    /// Id-indexed regions of **all** nodes.
    pub(crate) regions: Vec<Region>,
    pub(crate) seed: u64,
    pub(crate) stop_at: SimTime,
}

/// Splits a deployment into its nodes (in id order), the fabric they talk
/// over, and the TrueTime ε their threads run with.
pub(crate) fn split<N>(deployment: Deployment<N>) -> (Vec<N>, Fabric, SimDuration) {
    let Deployment { nodes, net, faults, seed, truetime_epsilon, stop_at } = deployment;
    let regions = nodes.iter().map(|n| Region(n.region)).collect();
    let nodes = nodes.into_iter().map(|n| n.node).collect();
    (nodes, Fabric { net: Box::new(net), faults, regions, seed, stop_at }, truetime_epsilon)
}

/// A completion record on its way to the collector: the node, the stream
/// (service) it belongs to, and the record.
pub(crate) type Completion = (NodeId, usize, CompletedRecord);

/// The router thread of a run, and the flag that stops it.
pub(crate) struct Router {
    thread: JoinHandle<RouterReport>,
    stop: Arc<AtomicBool>,
}

impl Router {
    /// Starts routing `rx`'s messages to `mailboxes` over `fabric`.
    pub(crate) fn spawn<M: Clone + Send + 'static>(
        plane: &LivePlane,
        clock: LiveClock,
        fabric: Fabric,
        mailboxes: Vec<Arc<dyn Mailbox<M>>>,
        rx: Receiver<Outgoing<M>>,
    ) -> Router {
        let Fabric { net, faults, regions, seed, .. } = fabric;
        let stop = Arc::new(AtomicBool::new(false));
        let (flag, record) = (Arc::clone(&stop), plane.record_deliveries);
        let thread = std::thread::spawn(move || {
            run_router(clock, net, faults, regions, mailboxes, rx, seed, record, flag)
        });
        Router { thread, stop }
    }

    /// Tells the router to stop once it has delivered what is due.
    pub(crate) fn stop(&self) {
        self.stop.store(true, Ordering::Relaxed);
    }

    /// Waits for the router to stop.
    pub(crate) fn join(self) -> RouterReport {
        self.thread.join().expect("live router panicked")
    }
}

/// Collects completions online, per node, until the clock reaches `stop_at`
/// or every sender is gone; returns them with the instant collection ended.
pub(crate) fn collect_until(
    clock: &LiveClock,
    stop_at: SimTime,
    num_nodes: usize,
    rx: &Receiver<Completion>,
) -> (Vec<Vec<(usize, CompletedRecord)>>, SimTime) {
    let mut completed = vec![Vec::new(); num_nodes];
    while clock.sim_now() < stop_at {
        let wait = clock.wall_until(stop_at).min(Duration::from_millis(50));
        match rx.recv_timeout(wait) {
            Ok((id, stream, rec)) => completed[id].push((stream, rec)),
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
    (completed, clock.sim_now())
}

impl RouterReport {
    /// The run's result. The router counted every mailbox push as
    /// delivered; the `expired` ones reached a crashed node, never a live
    /// one, which is how the engine counts them.
    pub(crate) fn into_ran<N>(
        self,
        nodes: Vec<N>,
        (completed, finished_at): (Vec<Vec<(usize, CompletedRecord)>>, SimTime),
        expired: u64,
        wall: Duration,
        wire: WireStats,
    ) -> Ran<N> {
        let RouterReport { mut stats, deliveries } = self;
        stats.delivered = stats.delivered.saturating_sub(expired);
        stats.expired = expired;
        Ran {
            nodes,
            completed,
            net_stats: stats,
            finished_at,
            engine: Default::default(),
            coverage: None,
            wall,
            deliveries,
            wire,
        }
    }
}

/// What a node handler is being invoked for.
enum Invoke<M> {
    Start,
    Msg(NodeId, M),
    Timer(u64),
    Crash,
    Recover,
}

pub(crate) struct NodeResult<N> {
    pub(crate) node: N,
    pub(crate) expired: u64,
}

/// The per-node thread loop.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_node<M, N>(
    mut node: N,
    id: NodeId,
    clock: LiveClock,
    seed: u64,
    epsilon: SimDuration,
    mailbox: Receiver<LiveEvent<M>>,
    net_tx: Sender<Outgoing<M>>,
    rec_tx: Sender<Completion>,
) -> NodeResult<N>
where
    M: Send + 'static,
    N: PlaneNode<M>,
{
    // Disjoint per-node stream from the run seed (golden-ratio mix).
    let mut rng = SmallRng::seed_from_u64(
        seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(id as u64 + 1)),
    );
    let mut truetime = TrueTime::new(epsilon, seed);
    // (deadline, set-order, tag): same-instant timers fire in set order.
    let mut timers: BinaryHeap<Reverse<(SimTime, u64, u64)>> = BinaryHeap::new();
    let mut timer_seq = 0u64;
    let mut crashed = false;
    let mut expired = 0u64;
    // Handler scratch, reused across events like the engine's.
    let mut outbox: Vec<(NodeId, SimDuration, M)> = Vec::new();
    let mut to_set: Vec<(SimDuration, u64)> = Vec::new();
    let mut comps: Vec<(usize, CompletedRecord)> = Vec::new();

    loop {
        // Fire a due timer, unless crashed (crashed nodes defer timers).
        let mut invoke = None;
        if !crashed {
            if let Some(&Reverse((at, _, tag))) = timers.peek() {
                if at <= clock.sim_now() {
                    timers.pop();
                    invoke = Some(Invoke::Timer(tag));
                }
            }
        }
        let invoke = match invoke {
            Some(i) => i,
            None => {
                // Sleep until the next timer deadline or the next mailbox
                // event, whichever comes first.
                let ev = if crashed {
                    // No timers can fire; only the mailbox can wake us.
                    match mailbox.recv() {
                        Ok(e) => e,
                        Err(_) => break,
                    }
                } else {
                    match timers.peek() {
                        Some(&Reverse((at, _, _))) => {
                            match mailbox.recv_timeout(clock.wall_until(at)) {
                                Ok(e) => e,
                                Err(RecvTimeoutError::Timeout) => continue,
                                Err(RecvTimeoutError::Disconnected) => break,
                            }
                        }
                        None => match mailbox.recv() {
                            Ok(e) => e,
                            Err(_) => break,
                        },
                    }
                };
                match ev {
                    LiveEvent::Stop => break,
                    LiveEvent::Start => Invoke::Start,
                    LiveEvent::Msg { from, msg } => {
                        if crashed {
                            // Engine semantics: deliveries to a crashed node
                            // are lost.
                            expired += 1;
                            continue;
                        }
                        Invoke::Msg(from, msg)
                    }
                    LiveEvent::Crash => {
                        if crashed {
                            continue;
                        }
                        crashed = true;
                        Invoke::Crash
                    }
                    LiveEvent::Recover => {
                        if !crashed {
                            continue;
                        }
                        crashed = false;
                        Invoke::Recover
                    }
                }
            }
        };

        let discard_output = matches!(invoke, Invoke::Crash);
        let now = clock.sim_now();
        {
            let mut ctx = Context::from_parts(ContextParts {
                now,
                node_id: id,
                rng: &mut rng,
                truetime: &mut truetime,
                outbox: &mut outbox,
                timers: &mut to_set,
            });
            match invoke {
                Invoke::Start => node.on_start(&mut ctx),
                Invoke::Msg(from, msg) => node.on_message(&mut ctx, from, msg),
                Invoke::Timer(tag) => node.on_timer(&mut ctx, tag),
                Invoke::Crash => node.on_crash(&mut ctx),
                Invoke::Recover => node.on_recover(&mut ctx),
            }
        }
        if discard_output {
            // Whatever on_crash tried to send or schedule died with the node.
            outbox.clear();
            to_set.clear();
            continue;
        }
        for (to, extra, msg) in outbox.drain(..) {
            let _ = net_tx.send(Outgoing { from: id, to, extra, msg });
        }
        for (delay, tag) in to_set.drain(..) {
            timer_seq += 1;
            timers.push(Reverse((now + delay, timer_seq, tag)));
        }
        node.drain_completions(&mut comps);
        for (stream, rec) in comps.drain(..) {
            let _ = rec_tx.send((id, stream, rec));
        }
    }
    NodeResult { node, expired }
}

/// Runs `deployment` over in-process mpsc channels: one thread per node until
/// the hard stop, every message routed through the live transport.
///
/// Node ids are positions in the deployment, matching the discrete-event
/// engine's `add_node` order, so assemblies translate one-to-one.
fn run_live<M, N>(plane: &LivePlane, deployment: Deployment<N>) -> Ran<N>
where
    M: Clone + Send + 'static,
    N: PlaneNode<M>,
{
    let start_wall = Instant::now();
    let (nodes, fabric, epsilon) = split(deployment);
    let (seed, stop_at) = (fabric.seed, fabric.stop_at);
    let num_nodes = nodes.len();

    let mut mailboxes: Vec<Sender<LiveEvent<M>>> = Vec::with_capacity(num_nodes);
    let mut inboxes: Vec<Receiver<LiveEvent<M>>> = Vec::with_capacity(num_nodes);
    for _ in 0..num_nodes {
        let (tx, rx) = mpsc::channel();
        mailboxes.push(tx);
        inboxes.push(rx);
    }
    let (net_tx, net_rx) = mpsc::channel::<Outgoing<M>>();
    let (rec_tx, rec_rx) = mpsc::channel::<Completion>();

    let clock = LiveClock::start(plane.time_scale);
    let router_boxes: Vec<Arc<dyn Mailbox<M>>> =
        mailboxes.iter().map(|tx| Arc::new(tx.clone()) as Arc<dyn Mailbox<M>>).collect();
    let router = Router::spawn(plane, clock, fabric, router_boxes, net_rx);

    let mut workers = Vec::with_capacity(num_nodes);
    for (id, (node, inbox)) in nodes.into_iter().zip(inboxes).enumerate() {
        let net_tx = net_tx.clone();
        let rec_tx = rec_tx.clone();
        workers.push(std::thread::spawn(move || {
            run_node(node, id, clock, seed, epsilon, inbox, net_tx, rec_tx)
        }));
    }
    // The threads hold the only clones that matter; dropping ours lets the
    // channels disconnect when the run winds down.
    drop(net_tx);
    drop(rec_tx);

    for tx in &mailboxes {
        let _ = tx.send(LiveEvent::Start);
    }

    let (mut completed, finished_at) = collect_until(&clock, stop_at, num_nodes, &rec_rx);

    for tx in &mailboxes {
        let _ = tx.send(LiveEvent::Stop);
    }
    router.stop();
    drop(mailboxes);

    let mut out_nodes = Vec::with_capacity(num_nodes);
    let mut expired_total = 0u64;
    for w in workers {
        let r = w.join().expect("live node thread panicked");
        expired_total += r.expired;
        out_nodes.push(r.node);
    }
    // Node threads are gone; drain the stragglers they sent before exiting.
    while let Ok((id, stream, rec)) = rec_rx.recv() {
        completed[id].push((stream, rec));
    }
    let (collected, wire) = ((completed, finished_at), WireStats::default());
    router.join().into_ran(out_nodes, collected, expired_total, start_wall.elapsed(), wire)
}

/// Runs `deployment` on the live plane behind `plane.transport`.
///
/// `Mpsc` moves messages between threads over in-process channels. The
/// socket kinds run the same cluster with every message crossing a real
/// kernel socket: the node threads live in one worker group connected to the
/// router over an in-process socket pair (`UnixStream::pair` or loopback
/// TCP), exercising the full wire path — encode, frame, syscall, decode — of
/// a multi-process deployment while still returning the final node states.
/// For genuinely separate OS processes, see
/// [`crate::net::run_hub_multiproc`] / [`crate::net::run_worker_multiproc`].
///
/// The `M: Wire` bound is what a socket demands: messages must serialize.
fn run_live_transport<M, N>(plane: &LivePlane, deployment: Deployment<N>) -> Ran<N>
where
    M: Wire + Clone + Send + 'static,
    N: PlaneNode<M>,
{
    if matches!(plane.transport, TransportKind::Mpsc) {
        return run_live(plane, deployment);
    }
    let (hub_end, worker_end) =
        SocketStream::pair(plane.transport).expect("live transport socket pair");
    let (nodes, fabric, epsilon) = split(deployment);
    let with_ids: Vec<(NodeId, N)> = nodes.into_iter().enumerate().collect();
    let seed = fabric.seed;
    let worker =
        std::thread::spawn(move || run_worker_conn::<M, N>(worker_end, 0, with_ids, seed, epsilon));
    let mut ran =
        run_hub_conns::<M, N>(plane, fabric, vec![hub_end]).expect("live transport hub failed");
    let mut nodes_by_id = worker
        .join()
        .expect("live transport worker panicked")
        .expect("live transport worker failed");
    nodes_by_id.sort_by_key(|&(id, _)| id);
    ran.nodes = nodes_by_id.into_iter().map(|(_, n)| n).collect();
    ran
}
