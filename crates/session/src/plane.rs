//! Deployments and planes: a run described once, executed on either plane.
//!
//! A [`Deployment`] is a plain value — the node list in id order, the
//! network model, the fault schedule, the seed, TrueTime ε and the hard-stop
//! instant. A [`Plane`] executes it and hands back a [`Ran`]: the final
//! nodes, each node's completion stream, the message counters and the
//! wall-clock report. There are exactly two planes: [`SimPlane`] here (the
//! discrete-event [`Engine`]) and `regular_live::LivePlane` (OS threads on
//! the scaled wall clock). Everything a plane alone decides — which event
//! queue, whether to record coverage, the time scale, the transport — is a
//! field of the plane value, never of a protocol's configuration, so
//! protocol crates build one node graph and never learn where it runs.

use std::time::Duration;

use regular_sim::engine::{Engine, EngineConfig, Node};
use regular_sim::fault::FaultSchedule;
use regular_sim::metrics::{DeliveryRecord, EngineStats, MessageStats, WireStats};
use regular_sim::net::LatencyMatrix;
use regular_sim::queue::QueueKind;
use regular_sim::time::{SimDuration, SimTime};

use crate::record::CompletedRecord;

/// A node that can be deployed on a plane.
///
/// The supertrait bound is the whole contract: any `Send` [`Node`] runs
/// unmodified on both planes. `drain_completions` is the bridge into
/// collection — client nodes surface the operations their sessions completed
/// since the last call (the live plane drains after every handler, the
/// simulator once at the end); server nodes use the default no-op.
pub trait PlaneNode<M>: Node<M> + Send {
    /// Appends `(stream, record)` pairs completed since the last call.
    ///
    /// `stream` distinguishes services on multi-service (composed) nodes;
    /// single-service nodes use 0.
    fn drain_completions(&mut self, _out: &mut Vec<(usize, CompletedRecord)>) {}
}

/// One node of a [`Deployment`].
pub struct NodeSpec<N> {
    /// The protocol state machine.
    pub node: N,
    /// Region index into the deployment's network model.
    pub region: usize,
    /// CPU cost of handling one event (the simulator charges it; on the live
    /// plane handler cost is real).
    pub service_time: SimDuration,
}

/// One run, described once. Node ids are positions in `nodes`.
pub struct Deployment<N> {
    /// The nodes, in id order.
    pub nodes: Vec<NodeSpec<N>>,
    /// Network model.
    pub net: LatencyMatrix,
    /// Scripted fault plane.
    pub faults: FaultSchedule,
    /// Random seed; the plane derives every node's streams from it.
    pub seed: u64,
    /// TrueTime uncertainty bound ε for all nodes.
    pub truetime_epsilon: SimDuration,
    /// Hard stop: the run ends when the plane's clock reaches this instant.
    pub stop_at: SimTime,
}

/// What a plane hands back.
pub struct Ran<N> {
    /// The node state machines, in id order, as they were at the end. Empty
    /// at a multi-process hub, whose nodes live and die in worker processes.
    pub nodes: Vec<N>,
    /// Completions per node in completion order (empty for server nodes),
    /// tagged with the originating service stream.
    pub completed: Vec<Vec<(usize, CompletedRecord)>>,
    /// Message counters (`delivered` excludes deliveries that expired at a
    /// crashed node).
    pub net_stats: MessageStats,
    /// Simulated time when the run stopped.
    pub finished_at: SimTime,
    /// The simulator's event-loop counters; zeroes on the live plane, which
    /// has no event queue.
    pub engine: EngineStats,
    /// Distinct `(message class, receiver phase tag)` pairs, `(class,
    /// 0xFFFF)` for messages that expired at a crashed receiver. `None`
    /// unless the plane recorded coverage (see [`SimPlane::classify`]).
    pub coverage: Option<Vec<(u16, u16)>>,
    /// Wall-clock duration of the run; zero on the simulator, whose wall
    /// clock measures the host and not the system under test.
    pub wall: Duration,
    /// The transport's delivery log (empty on the simulator, and on the live
    /// plane unless recording was enabled).
    pub deliveries: Vec<DeliveryRecord>,
    /// Socket traffic counters (all zeros off the socket transports).
    pub wire: WireStats,
}

/// Strips the service-stream tags off a single-service node's completions.
pub fn untagged(stream: Vec<(usize, CompletedRecord)>) -> Vec<CompletedRecord> {
    let mut records: Vec<CompletedRecord> = stream.into_iter().map(|(_, rec)| rec).collect();
    // The collect reuses the tagged buffer in place and keeps its capacity;
    // hand the tags' eight bytes per record back for the result's lifetime.
    records.shrink_to_fit();
    records
}

/// Completions counted inside `[measure_from, stop_issuing_at)` per simulated
/// second; 0 for an empty window.
pub fn per_sim_second(window_count: u64, measure_from: SimTime, stop_issuing_at: SimTime) -> f64 {
    let window = stop_issuing_at.since(measure_from).as_micros();
    if window == 0 {
        0.0
    } else {
        window_count as f64 * 1_000_000.0 / window as f64
    }
}

/// Measured completions per wall-clock second; 0 when no wall time passed
/// (every simulator run).
pub fn per_wall_second(measured: u64, wall: Duration) -> f64 {
    let secs = wall.as_secs_f64();
    if secs > 0.0 {
        measured as f64 / secs
    } else {
        0.0
    }
}

/// An execution substrate for deployments whose nodes exchange `M`.
pub trait Plane<M> {
    /// Runs `deployment` to its hard stop.
    fn run<N: PlaneNode<M>>(&self, deployment: Deployment<N>) -> Ran<N>;
}

/// The simulator plane: the deterministic discrete-event [`Engine`].
pub struct SimPlane<M> {
    /// Event-queue implementation. Both kinds pop in identical order, so
    /// this never changes a history — only the host's wall clock.
    pub queue: QueueKind,
    /// Message classifier for behaviour-coverage recording (typically the
    /// message enum's discriminant); `None` skips the instrumentation
    /// entirely.
    pub classify: Option<fn(&M) -> u16>,
}

impl<M> Default for SimPlane<M> {
    fn default() -> Self {
        SimPlane { queue: QueueKind::Indexed, classify: None }
    }
}

impl<M: Clone + 'static> Plane<M> for SimPlane<M> {
    fn run<N: PlaneNode<M>>(&self, deployment: Deployment<N>) -> Ran<N> {
        let Deployment { nodes, net, faults, seed, truetime_epsilon, stop_at } = deployment;
        let cfg = EngineConfig {
            max_time: stop_at,
            truetime_epsilon,
            queue: self.queue,
            ..EngineConfig::default()
        };
        let mut engine: Engine<M, N> = Engine::new(cfg, net, seed);
        if !faults.is_empty() {
            engine.install_faults(faults);
        }
        if let Some(classify) = self.classify {
            engine.install_coverage(classify);
        }
        for spec in nodes {
            engine.add_node_with(spec.node, spec.region, spec.service_time);
        }
        let finished_at = engine.run();
        let net_stats = engine.message_stats();
        let engine_stats = engine.stats();
        let coverage = self.classify.map(|_| engine.coverage_pairs().collect());
        let mut nodes = engine.into_nodes();
        let completed = nodes
            .iter_mut()
            .map(|node| {
                let mut stream = Vec::new();
                node.drain_completions(&mut stream);
                stream
            })
            .collect();
        Ran {
            nodes,
            completed,
            net_stats,
            finished_at,
            engine: engine_stats,
            coverage,
            wall: Duration::ZERO,
            deliveries: Vec::new(),
            wire: WireStats::default(),
        }
    }
}
