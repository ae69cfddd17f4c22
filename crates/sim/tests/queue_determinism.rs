//! The indexed event queue replays the reference heap's executions exactly.
//!
//! The engine promises that `QueueKind` never changes a simulation — only
//! its wall-clock. These tests pin that promise at the engine level: the
//! same seeded simulation run on [`QueueKind::Indexed`] and
//! [`QueueKind::ReferenceHeap`] must process the same events in the same
//! order (same-timestamp tie-breaks included), deliver the same messages,
//! fire the same timers at the same instants, and count the same
//! drops/duplicates/expirations — under an empty schedule and under
//! proptest-generated random [`FaultSchedule`]s. The protocol-level
//! byte-identical-history pin lives in `tests/indexed_engine_equivalence.rs`
//! at the workspace root.

use proptest::prelude::*;
use regular_sim::engine::{Context, Engine, EngineConfig, Node, NodeId};
use regular_sim::fault::{FaultSchedule, LinkScope};
use regular_sim::net::{LatencyMatrix, Region};
use regular_sim::queue::QueueKind;
use regular_sim::time::{SimDuration, SimTime};

/// A chatty node that exercises every engine path the queue orders: paced
/// timers, request/reply messages, same-instant bursts (three sends per
/// tick), a saturating service time, and crash/recover hooks.
#[derive(Clone, Debug, PartialEq)]
enum Msg {
    Ping(u64),
    Pong(u64),
}

/// How dense a run is: the paced runs tick every 50 ms for 8 s and leave
/// the nodes mostly idle; [`saturated`] runs drown two of them.
#[derive(Clone, Copy)]
struct Shape {
    tick: SimDuration,
    send_until: SimTime,
    /// Per-node service times.
    service: [SimDuration; 3],
    max_time: SimTime,
}

const PACED: Shape = Shape {
    tick: SimDuration::from_millis(50),
    send_until: SimTime::from_secs(8),
    service: [SimDuration::from_micros(200); 3],
    max_time: SimTime::from_secs(10),
};

/// Node 0 costs nothing per event, so its ticks are never throttled: it
/// sprays a ping at each of nodes 1 and 2 every `tick_us`, and they take
/// `slowdown` ticks to serve one. Their run queues grow by the thousand, and
/// the hard stop cuts the run with the backlog still parked.
fn saturated(tick_us: u64, slowdown: u64) -> Shape {
    let slow = SimDuration::from_micros(tick_us * slowdown);
    Shape {
        tick: SimDuration::from_micros(tick_us),
        send_until: SimTime::from_millis(400),
        service: [SimDuration::ZERO, slow, slow],
        max_time: SimTime::from_secs(1),
    }
}

struct Chatty {
    shape: Shape,
    peers: Vec<NodeId>,
    /// Trace of (now, from, payload) for every delivery, the equality pin.
    trace: Vec<(SimTime, NodeId, u64)>,
    timer_trace: Vec<(SimTime, u64)>,
    crashes: u64,
    recoveries: u64,
    sent: u64,
}

impl Node<Msg> for Chatty {
    fn on_start(&mut self, ctx: &mut Context<Msg>) {
        ctx.set_timer(self.shape.tick, 1);
    }
    fn on_message(&mut self, ctx: &mut Context<Msg>, from: NodeId, msg: Msg) {
        match msg {
            Msg::Ping(n) => {
                self.trace.push((ctx.now(), from, n));
                ctx.send(from, Msg::Pong(n));
            }
            Msg::Pong(n) => {
                self.trace.push((ctx.now(), from, n | 1 << 32));
            }
        }
    }
    fn on_timer(&mut self, ctx: &mut Context<Msg>, tag: u64) {
        self.timer_trace.push((ctx.now(), tag));
        // A same-instant burst to every peer: exercises tie-breaking.
        for &p in &self.peers.clone() {
            self.sent += 1;
            ctx.send(p, Msg::Ping(self.sent));
        }
        if ctx.now() < self.shape.send_until {
            ctx.set_timer(self.shape.tick, 1);
        }
    }
    fn on_crash(&mut self, _ctx: &mut Context<Msg>) {
        self.crashes += 1;
    }
    fn on_recover(&mut self, ctx: &mut Context<Msg>) {
        self.recoveries += 1;
        ctx.set_timer(SimDuration::from_millis(10), 2);
    }
}

fn build(seed: u64, kind: QueueKind, faults: &FaultSchedule, shape: Shape) -> Engine<Msg, Chatty> {
    let cfg = EngineConfig {
        max_time: shape.max_time,
        truetime_epsilon: SimDuration::from_millis(3),
        queue: kind,
        ..EngineConfig::default()
    };
    let net = LatencyMatrix::from_rtt_ms(
        &[&[0.2, 10.0, 30.0], &[10.0, 0.2, 24.0], &[30.0, 24.0, 0.2]],
        SimDuration::from_micros(150),
    );
    let mut engine = Engine::new(cfg, net, seed);
    for region in 0..3 {
        let peers = (0..3).filter(|&peer| peer != region).collect();
        let node = Chatty {
            shape,
            peers,
            trace: Vec::new(),
            timer_trace: Vec::new(),
            crashes: 0,
            recoveries: 0,
            sent: 0,
        };
        engine.add_node_with(node, region, shape.service[region]);
    }
    if !faults.is_empty() {
        engine.install_faults(faults.clone());
    }
    engine
}

/// Runs `shape` on both queue kinds, checks the executions are the same,
/// and returns the busy deferrals per processed event.
fn assert_equivalent(seed: u64, faults: &FaultSchedule, shape: Shape) -> f64 {
    let mut indexed = build(seed, QueueKind::Indexed, faults, shape);
    let mut heap = build(seed, QueueKind::ReferenceHeap, faults, shape);
    indexed.run();
    heap.run();
    let (stats, heap_stats) = (indexed.stats(), heap.stats());
    assert_eq!(
        (stats.events, stats.deferrals),
        (heap_stats.events, heap_stats.deferrals),
        "seed {seed}: processed-event or deferral counts diverged"
    );
    assert_eq!(indexed.message_stats(), heap.message_stats(), "seed {seed}: stats diverged");
    assert_eq!(indexed.now(), heap.now(), "seed {seed}: final clocks diverged");
    for id in 0..3 {
        let (a, b) = (indexed.node(id), heap.node(id));
        assert_eq!(a.trace, b.trace, "seed {seed}: node {id} delivery traces diverged");
        assert_eq!(a.timer_trace, b.timer_trace, "seed {seed}: node {id} timer traces diverged");
        assert_eq!((a.crashes, a.recoveries), (b.crashes, b.recoveries), "seed {seed}: hooks");
    }
    stats.deferrals as f64 / stats.events as f64
}

#[test]
fn fault_free_runs_are_identical_across_queue_kinds() {
    for seed in 0..8 {
        assert_equivalent(seed, &FaultSchedule::new(), PACED);
    }
}

#[test]
fn scripted_fault_runs_are_identical_across_queue_kinds() {
    let faults = FaultSchedule::new()
        .crash(1, SimTime::from_secs(2), SimTime::from_secs(3))
        .partition_region(Region(2), SimTime::from_secs(4), SimTime::from_secs(5))
        .cut_link_oneway(Region(0), Region(1), SimTime::from_millis(5_500), SimTime::from_secs(6))
        .drop_window(LinkScope::All, SimTime::from_secs(6), SimTime::from_secs(7), 0.1)
        .duplicate_window(LinkScope::All, SimTime::from_secs(6), SimTime::from_secs(7), 0.1)
        .delay_window(
            LinkScope::All,
            SimTime::from_secs(7),
            SimTime::from_secs(8),
            0.2,
            SimDuration::from_millis(9),
        );
    for seed in [3, 17, 992] {
        assert_equivalent(seed, &faults, PACED);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The two queue kinds replay identically under *random* fault
    /// schedules: random crash windows (sometimes permanent), drop /
    /// duplicate / delay windows with random scopes and probabilities, and
    /// one-way cuts — the satellite's pinned property.
    #[test]
    fn random_fault_schedules_replay_identically(
        seed in 0u64..10_000,
        crash_node in 0usize..3,
        crash_at_ms in 500u64..4_000,
        crash_len_ms in 100u64..2_000,
        permanent_bit in 0u64..2,
        cut_from in 0usize..3,
        cut_to in 0usize..3,
        cut_at_ms in 500u64..6_000,
        drop_permille in 0u64..300,
        dup_permille in 0u64..300,
        delay_ms in 1u64..20,
    ) {
        let permanent = permanent_bit == 1;
        let mut faults = if permanent {
            FaultSchedule::new().crash_forever(crash_node, SimTime::from_millis(crash_at_ms))
        } else {
            FaultSchedule::new().crash(
                crash_node,
                SimTime::from_millis(crash_at_ms),
                SimTime::from_millis(crash_at_ms + crash_len_ms),
            )
        };
        if cut_from != cut_to {
            faults = faults.cut_link_oneway(
                Region(cut_from),
                Region(cut_to),
                SimTime::from_millis(cut_at_ms),
                SimTime::from_millis(cut_at_ms + 800),
            );
        }
        faults = faults
            .drop_window(
                LinkScope::All,
                SimTime::from_secs(5),
                SimTime::from_secs(7),
                drop_permille as f64 / 1_000.0,
            )
            .duplicate_window(
                LinkScope::Region(Region(1)),
                SimTime::from_secs(5),
                SimTime::from_secs(7),
                dup_permille as f64 / 1_000.0,
            )
            .delay_window(
                LinkScope::Pair(Region(0), Region(2)),
                SimTime::from_secs(7),
                SimTime::from_secs(8),
                0.5,
                SimDuration::from_millis(delay_ms),
            );
        assert_equivalent(seed, &faults, PACED);
    }

    /// The same under saturation: a service time of 50 to 200 mean
    /// inter-arrival gaps, so events wait in run queues thousands long, with
    /// a crash of a saturated node (its parked backlog expires one head at
    /// a time; parked timers move to the recovery instant) and a duplicate
    /// window that doubles the arrival rate mid-run.
    #[test]
    fn saturated_runs_replay_identically(
        seed in 0u64..10_000,
        tick_us in 50u64..400,
        slowdown in 50u64..200,
        crash_node in 1usize..3,
        crash_at_ms in 20u64..600,
        crash_len_ms in 1u64..300,
    ) {
        let crash_at = SimTime::from_millis(crash_at_ms);
        let faults = FaultSchedule::new()
            .crash(crash_node, crash_at, crash_at + SimDuration::from_millis(crash_len_ms))
            .duplicate_window(
                LinkScope::All,
                SimTime::from_millis(100),
                SimTime::from_millis(200),
                0.5,
            );
        let deferrals_per_event = assert_equivalent(seed, &faults, saturated(tick_us, slowdown));
        prop_assert!(deferrals_per_event > 5.0, "run queues stayed short: {deferrals_per_event}");
    }
}
