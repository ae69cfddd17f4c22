//! A run described, measured and folded once, for every deployment.
//!
//! A one-protocol run is a [`ClusterSpec`]: the protocol's configuration,
//! the network, the seed, one [`ClientSpec`] per client node and the
//! measurement window. The protocol places its servers and
//! [`ClusterSpec::deploy`] adds the clients; a plane runs the [`Deployment`];
//! [`fold_cluster`] and [`measure`] turn what it hands back into the parts
//! every report shares. So a protocol writes its servers, its service
//! constructor and its half of the fold (its server and client statistics),
//! and nothing else. The composed deployment walks its own nodes through
//! the same [`fold`] and [`measure`].

use std::time::Duration;

use regular_core::op::OpKind;
use regular_sim::engine::NodeId;
use regular_sim::fault::FaultSchedule;
use regular_sim::metrics::LatencyRecorder;
use regular_sim::net::LatencyMatrix;
use regular_sim::time::{SimDuration, SimTime};
use regular_storage::{StorageSummary, WalStats};

use crate::op::SessionWorkload;
use crate::plane::{untagged, ClusterNode, Deployment, NodeSpec};
use crate::record::CompletedRecord;
use crate::runner::{SessionRunner, SessionStats};
use crate::{Service, SessionConfig};

/// One client (load generator) node.
pub struct ClientSpec {
    /// Region the node runs in.
    pub region: usize,
    /// Session arrival/pacing/batching model.
    pub sessions: SessionConfig,
    /// Workload generator.
    pub workload: Box<dyn SessionWorkload>,
}

/// A one-protocol cluster run, over the protocol's configuration `C`.
pub struct ClusterSpec<C> {
    /// Protocol and topology configuration.
    pub config: C,
    /// Network model.
    pub net: LatencyMatrix,
    /// Random seed (runs are deterministic for a given seed).
    pub seed: u64,
    /// Client nodes.
    pub clients: Vec<ClientSpec>,
    /// Clients stop issuing new operations at this instant.
    pub stop_issuing_at: SimTime,
    /// Extra time to let in-flight operations drain.
    pub drain: SimDuration,
    /// Latency/throughput measurements only cover completions at or after
    /// this instant (warm-up exclusion).
    pub measure_from: SimTime,
}

impl<C> ClusterSpec<C> {
    /// The run's [`Deployment`]: `nodes` holds the servers (ids
    /// `0..nodes.len()`), then each client follows as a [`SessionRunner`]
    /// over the one service `service(&config, &net, region)` builds, charged
    /// `client_service_time` per event.
    pub fn deploy<S, V: Service>(
        self,
        mut nodes: Vec<NodeSpec<ClusterNode<S, SessionRunner<V>>>>,
        client_service_time: SimDuration,
        faults: FaultSchedule,
        truetime_epsilon: SimDuration,
        service: impl Fn(&C, &LatencyMatrix, usize) -> V,
    ) -> Deployment<ClusterNode<S, SessionRunner<V>>> {
        let ClusterSpec { config, net, seed, clients, stop_issuing_at, drain, measure_from: _ } =
            self;
        for c in clients {
            let service = Box::new(service(&config, &net, c.region));
            let runner = SessionRunner::new(vec![service], c.sessions, stop_issuing_at, c.workload);
            nodes.push(NodeSpec {
                node: ClusterNode::Client(Box::new(runner)),
                region: c.region,
                service_time: client_service_time,
            });
        }
        Deployment { nodes, net, faults, seed, truetime_epsilon, stop_at: stop_issuing_at + drain }
    }
}

/// What [`measure`] makes of a run's completions.
pub struct Measured<const N: usize> {
    /// Latencies inside the window, one recorder per latency class, in
    /// simulated time on both planes.
    pub latencies: [LatencyRecorder; N],
    /// Measured completions before `stop_issuing_at`, per simulated second.
    pub throughput: f64,
    /// Measured completions per wall-clock second; 0 on the simulator.
    pub wall_throughput: f64,
}

/// The one window rule. A completion is measured if it is neither an
/// orphan nor a fence and finishes at or after `measure_from`: its latency
/// goes to the recorder `class` names for its kind (none: it is only
/// counted), and it counts toward `wall_throughput` over `wall`. Measured
/// completions that also finish before `stop_issuing_at` give `throughput`.
pub fn measure<'a, const N: usize>(
    records: impl IntoIterator<Item = &'a CompletedRecord>,
    measure_from: SimTime,
    stop_issuing_at: SimTime,
    wall: Duration,
    class: impl Fn(&OpKind) -> Option<usize>,
) -> Measured<N> {
    let mut latencies = std::array::from_fn(|_| LatencyRecorder::new());
    let (mut measured, mut window_count) = (0u64, 0u64);
    for rec in records {
        if rec.finish >= measure_from && !rec.orphan && !rec.kind.is_fence() {
            if let Some(class) = class(&rec.kind) {
                latencies[class].record(rec.latency());
            }
            measured += 1;
            window_count += u64::from(rec.finish < stop_issuing_at);
        }
    }
    let window = stop_issuing_at.since(measure_from).as_micros() as f64;
    let wall = wall.as_secs_f64();
    Measured {
        latencies,
        throughput: if window > 0.0 { window_count as f64 * 1_000_000.0 / window } else { 0.0 },
        wall_throughput: if wall > 0.0 { measured as f64 / wall } else { 0.0 },
    }
}

/// What [`fold`] learns of one node.
pub enum Part<T> {
    /// A server, with its write-ahead-log counters.
    Server(WalStats),
    /// A client, with its session statistics and what the report keeps of it.
    Client(SessionStats, T),
}

/// What [`fold`] gathers from a run's nodes. The rest of a report is the
/// plane's counters, which every report copies from the [`Ran`](crate::Ran).
pub struct Folded<T> {
    /// Each client's [`Part::Client`] share, in node order.
    pub clients: Vec<T>,
    /// Session-scheduler statistics summed over every client (arrivals and
    /// shed matter for open-loop runs).
    pub session_stats: SessionStats,
    /// WAL counters summed over every server (all zeroes under
    /// `Durability::InMemory`).
    pub storage: StorageSummary,
}

/// Folds a run's nodes and their completion streams, as a [`Ran`](crate::Ran)
/// holds them: `part` takes each node, with its id and stream, and says what
/// it was.
pub fn fold<N, T>(
    nodes: Vec<N>,
    completed: Vec<Vec<(usize, CompletedRecord)>>,
    mut part: impl FnMut(NodeId, N, Vec<(usize, CompletedRecord)>) -> Part<T>,
) -> Folded<T> {
    let (mut clients, mut session_stats) = (Vec::new(), SessionStats::default());
    let mut storage = StorageSummary::default();
    for (id, (node, stream)) in nodes.into_iter().zip(completed).enumerate() {
        match part(id, node, stream) {
            Part::Server(wal) => storage.add_wal(&wal),
            Part::Client(stats, kept) => {
                session_stats.merge(&stats);
                clients.push(kept);
            }
        }
    }
    Folded { clients, session_stats, storage }
}

/// [`fold`] for a one-protocol deployment: `server` reads a server's
/// statistics and returns its WAL counters, `client` reads each client's
/// service, and every client keeps its id and its completions.
pub fn fold_cluster<S, V: Service>(
    nodes: Vec<ClusterNode<S, SessionRunner<V>>>,
    completed: Vec<Vec<(usize, CompletedRecord)>>,
    mut server: impl FnMut(&S) -> WalStats,
    mut client: impl FnMut(&V),
) -> Folded<(NodeId, Vec<CompletedRecord>)> {
    fold(nodes, completed, |id, node, stream| match node {
        ClusterNode::Server(s) => Part::Server(server(&s)),
        ClusterNode::Client(c) => {
            client(&c.services()[0]);
            Part::Client(c.stats, (id, untagged(stream)))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use regular_core::op::OpResult;
    use regular_core::types::{Key, ServiceId, Value};

    use crate::WitnessHint;

    fn rec(kind: OpKind, finish_ms: u64, orphan: bool) -> CompletedRecord {
        CompletedRecord {
            service: ServiceId(0),
            kind,
            result: OpResult::Ack,
            invoke: SimTime::from_millis(finish_ms - 1),
            finish: SimTime::from_millis(finish_ms),
            session: 0,
            slot: 0,
            attempts: 1,
            rounds: 1,
            orphan,
            witness: WitnessHint::None,
        }
    }

    fn read() -> OpKind {
        OpKind::Read { key: Key(1) }
    }

    fn write() -> OpKind {
        OpKind::Write { key: Key(1), value: Value(1) }
    }

    /// Reads to class 0, writes to class 1.
    fn class(kind: &OpKind) -> Option<usize> {
        match kind {
            OpKind::Read { .. } => Some(0),
            OpKind::Write { .. } => Some(1),
            _ => None,
        }
    }

    #[test]
    fn measure_applies_the_one_window_rule() {
        let (from, stop) = (SimTime::from_secs(1), SimTime::from_secs(2));
        let records = [
            rec(read(), 999, false),    // before the window
            rec(read(), 1_000, false),  // exactly at `measure_from`: measured
            rec(write(), 1_500, false), // inside
            rec(OpKind::Fence, 1_500, false),
            rec(write(), 1_500, true),  // an orphan
            rec(read(), 2_000, false),  // exactly at `stop_issuing_at`: measured, no throughput
            rec(write(), 2_500, false), // after the window: measured, no throughput
        ];
        let m: Measured<2> = measure(&records, from, stop, Duration::from_secs(2), class);
        let [reads, writes] = &m.latencies;
        assert_eq!((reads.len(), writes.len()), (2, 2), "each class gets only its own ops");
        assert_eq!(m.throughput, 2.0, "two measured completions in a one-second window");
        assert_eq!(m.wall_throughput, 2.0, "four measured completions over two wall seconds");
        let m: Measured<0> = measure(&records, stop, stop, Duration::ZERO, |_| None);
        assert_eq!((m.throughput, m.wall_throughput), (0.0, 0.0), "an empty window reads 0");
    }
}
