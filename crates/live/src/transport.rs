//! The live transport: a router thread that applies network and fault
//! verdicts to every message and delivers into per-node mailboxes.
//!
//! This is the wall-clock counterpart of the discrete-event engine's
//! `dispatch`: the base verdict comes from the same [`NetworkModel`], the
//! fault overlay from the same [`FaultSchedule::verdict`] composition, and
//! scripted crash windows become `Crash`/`Recover` control events pushed
//! through the victim's mailbox. Delivery times are *simulated* instants
//! (see [`LiveClock`]); the router sleeps until the earliest pending
//! delivery is due on the wall clock, so messages arrive in simulated-time
//! order with real concurrency between nodes.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::Duration;

use rand::rngs::SmallRng;
use rand::SeedableRng;
use regular_sim::fault::FaultSchedule;
use regular_sim::net::{Delivery, NetworkModel, Region};
use regular_sim::{DeliveryRecord, MessageStats, NodeId, SimDuration, SimTime};

use crate::clock::LiveClock;

/// Which transport carries messages between the nodes and the router.
///
/// The router logic is identical for all three — same [`NetworkModel`]
/// latency, same [`FaultSchedule`] verdicts on the scaled wall clock, same
/// [`DeliveryRecord`] log. What changes is the path a message takes to and
/// from it: an in-process channel, or a kernel socket carrying
/// length-prefixed CRC-framed bytes (see [`crate::wire`]), which is also
/// what lets nodes live in separate OS processes ([`crate::net`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransportKind {
    /// In-process mpsc channels (PR 7's original plane). Zero
    /// serialization; nodes must share the router's address space.
    #[default]
    Mpsc,
    /// Unix-domain stream sockets: kernel-mediated, process-capable, no IP
    /// stack.
    Uds,
    /// TCP over loopback (or any address, for operator-driven multi-host
    /// clusters).
    Tcp,
}

impl TransportKind {
    /// Stable lowercase name (CLI and report vocabulary).
    pub fn name(&self) -> &'static str {
        match self {
            TransportKind::Mpsc => "mpsc",
            TransportKind::Uds => "uds",
            TransportKind::Tcp => "tcp",
        }
    }

    /// Parses a [`TransportKind::name`].
    pub fn parse(s: &str) -> Option<Self> {
        match s.trim().to_ascii_lowercase().as_str() {
            "mpsc" => Some(TransportKind::Mpsc),
            "uds" | "unix" => Some(TransportKind::Uds),
            "tcp" => Some(TransportKind::Tcp),
            _ => None,
        }
    }
}

/// Where the router delivers a node's events: a local channel, or a socket
/// peer that encodes them onto a connection (implemented by
/// [`crate::net::RemotePeer`]).
///
/// `deliver` returns `false` only when the destination is gone (channel or
/// connection closed) — mirroring `Sender::send`'s error, which the router
/// uses to skip counting the delivery.
pub trait Mailbox<M>: Send + Sync {
    /// Delivers one event; `false` if the destination has disconnected.
    fn deliver(&self, ev: LiveEvent<M>) -> bool;
}

impl<M: Send> Mailbox<M> for Sender<LiveEvent<M>> {
    fn deliver(&self, ev: LiveEvent<M>) -> bool {
        self.send(ev).is_ok()
    }
}

/// An event delivered into a node thread's mailbox.
pub enum LiveEvent<M> {
    /// Run `on_start` (sent once, before any delivery).
    Start,
    /// A message delivery.
    Msg {
        /// Sending node.
        from: NodeId,
        /// The message.
        msg: M,
    },
    /// A scripted crash: the node discards its state per `on_crash` and
    /// ignores deliveries until `Recover`.
    Crash,
    /// Recovery from a scripted crash.
    Recover,
    /// End of run; the node thread exits.
    Stop,
}

/// A message handed to the router by a node thread.
pub struct Outgoing<M> {
    /// Sending node.
    pub from: NodeId,
    /// Destination node.
    pub to: NodeId,
    /// Extra delay on top of network latency (`Context::send_after`).
    pub extra: SimDuration,
    /// The message.
    pub msg: M,
}

/// What the router accumulated over the run.
pub struct RouterReport {
    /// Message counters. `delivered` counts mailbox pushes; the executor
    /// subtracts the receivers' expired counts to match engine semantics.
    pub stats: MessageStats,
    /// The delivery log (empty unless recording was enabled).
    pub deliveries: Vec<DeliveryRecord>,
}

/// A scheduled router action: a future delivery or a scripted power event.
enum PendingKind<M> {
    Msg { from: NodeId, to: NodeId, msg: M },
    Crash { node: NodeId },
    Recover { node: NodeId },
}

struct Pending<M> {
    at: SimTime,
    /// Tie-break class: recoveries before crashes before messages at the
    /// same instant, mirroring the engine's power-event ordering.
    class: u8,
    seq: u64,
    kind: PendingKind<M>,
}

impl<M> Pending<M> {
    fn key(&self) -> (SimTime, u8, u64) {
        (self.at, self.class, self.seq)
    }
}

impl<M> PartialEq for Pending<M> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<M> Eq for Pending<M> {}
impl<M> PartialOrd for Pending<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Pending<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

const CLASS_RECOVER: u8 = 0;
const CLASS_CRASH: u8 = 1;
const CLASS_MSG: u8 = 2;

/// Mixed into the run seed for the router's RNG stream so it does not
/// collide with any node's stream.
const ROUTER_SALT: u64 = 0xF0E1_D2C3_B4A5_9687;

/// The router loop. Runs on its own thread until `stop` is raised or every
/// node-side sender is gone.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_router<M: Clone + Send + 'static>(
    clock: LiveClock,
    mut net: Box<dyn NetworkModel>,
    faults: FaultSchedule,
    regions: Vec<Region>,
    mailboxes: Vec<Arc<dyn Mailbox<M>>>,
    rx: Receiver<Outgoing<M>>,
    seed: u64,
    record_deliveries: bool,
    stop: Arc<AtomicBool>,
) -> RouterReport {
    let mut rng = SmallRng::seed_from_u64(seed ^ ROUTER_SALT);
    let mut heap: BinaryHeap<Reverse<Pending<M>>> = BinaryHeap::new();
    let mut seq = 0u64;
    // Schedules `kind` at `at`, behind everything of its class scheduled
    // for the same instant before it.
    let mut schedule = |heap: &mut BinaryHeap<_>, at, class, kind| {
        heap.push(Reverse(Pending { at, class, seq, kind }));
        seq += 1;
    };
    let mut stats = MessageStats::default();
    let mut deliveries = Vec::new();

    // Scripted power events are known up front; seed the schedule with them.
    for w in faults.crashes() {
        schedule(&mut heap, w.at, CLASS_CRASH, PendingKind::Crash { node: w.node });
        if let Some(r) = w.recover_at {
            schedule(&mut heap, r, CLASS_RECOVER, PendingKind::Recover { node: w.node });
        }
    }

    let mut disconnected = false;
    loop {
        // Deliver everything that is due.
        let now = clock.sim_now();
        while heap.peek().is_some_and(|Reverse(p)| p.at <= now) {
            let Reverse(p) = heap.pop().unwrap();
            match p.kind {
                PendingKind::Msg { from, to, msg } => {
                    if mailboxes[to].deliver(LiveEvent::Msg { from, msg }) {
                        if record_deliveries {
                            deliveries.push(DeliveryRecord {
                                seq: deliveries.len() as u64,
                                at_us: p.at.0,
                                from,
                                to,
                            });
                        }
                        stats.delivered += 1;
                    }
                }
                PendingKind::Crash { node } => {
                    let _ = mailboxes[node].deliver(LiveEvent::Crash);
                }
                PendingKind::Recover { node } => {
                    let _ = mailboxes[node].deliver(LiveEvent::Recover);
                }
            }
        }
        if stop.load(Ordering::Relaxed) || (disconnected && heap.is_empty()) {
            break;
        }

        // Sleep until the next pending event is due, but wake periodically
        // to notice the stop flag even when the schedule holds only
        // far-future events.
        let cap = Duration::from_millis(20);
        let wait = match heap.peek() {
            Some(Reverse(p)) => clock.wall_until(p.at).min(cap),
            None => cap,
        };
        if disconnected {
            std::thread::sleep(wait);
            continue;
        }
        match rx.recv_timeout(wait) {
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => disconnected = true,
            Ok(out) => {
                // Drain the channel: verdicts are cheap, and batching keeps
                // the heap hot while senders are bursty.
                let mut next = Some(out);
                while let Some(o) = next {
                    let now = clock.sim_now();
                    let from_r = regions[o.from];
                    let to_r = regions[o.to];
                    let base = net.delivery(now, from_r, to_r, &mut rng);
                    let verdict = faults.verdict(now, from_r, to_r, &mut rng, base);
                    let (from, to) = (o.from, o.to);
                    let mut deliver = |at, msg| {
                        schedule(&mut heap, at, CLASS_MSG, PendingKind::Msg { from, to, msg });
                    };
                    match verdict {
                        Delivery::Deliver { latency } => deliver(now + latency + o.extra, o.msg),
                        Delivery::Delay { latency, extra } => {
                            deliver(now + latency + o.extra + extra, o.msg);
                        }
                        Delivery::Drop => stats.dropped += 1,
                        Delivery::Duplicate { latency, echo_after } => {
                            let at = now + latency + o.extra;
                            deliver(at, o.msg.clone());
                            deliver(at + echo_after, o.msg);
                            stats.duplicated += 1;
                        }
                    }
                    next = rx.try_recv().ok();
                }
            }
        }
    }
    RouterReport { stats, deliveries }
}
