//! Deployment assembly, execution, and result extraction for Gryff/Gryff-RSC.
//!
//! [`build`]s the replica and client nodes ([`regular_session::SessionRunner`]s
//! over the [`GryffService`] protocol core) once as a plane-independent
//! [`Deployment`], runs it on the [`Plane`] the caller passes ([`run_gryff`]
//! is the simulator default), and converts the recorded operations into
//! latency distributions, a [`regular_core::History`] (via the shared
//! [`regular_session::HistoryRecorder`]), and a serialization witness. The
//! witness is assembled from the per-key carstamp order plus each lane's
//! process order, extended with the model's real-time constraints — the
//! relation `<ψ` of the paper's Appendix D.2 proof.

use std::time::Duration;

use regular_core::checker::assemble::assemble_witness;
use regular_core::checker::certificate::{check_witness, WitnessModel, WitnessViolation};
use regular_core::coverage::{domain, CoverageBuilder, CoverageSignature};
use regular_core::history::{ByProcess, History};
use regular_core::op::OpKind;
use regular_core::types::OpId;
use regular_session::{
    fold_cluster, measure, ClientSpec, ClusterNode, CompletedRecord, Deployment, HistoryRecorder,
    Measured, NodeSpec, Plane, Ran, SessionRunner, SessionStats, SimPlane, WitnessHint,
};
use regular_sim::engine::NodeId;
use regular_sim::metrics::{DeliveryRecord, EngineStats, LatencyRecorder, MessageStats, WireStats};
use regular_sim::time::{SimDuration, SimTime};
use regular_storage::StorageSummary;

use crate::carstamp::Carstamp;
use crate::client::{GryffClientConfig, GryffClientStats, GryffService};
use crate::config::{GryffConfig, Mode};
use crate::messages::GryffMsg;
use crate::replica::{GryffReplica, ReplicaStats};

/// A node of the simulated deployment: a storage replica or a client (the
/// protocol-agnostic session runner over the Gryff core).
pub type GryffNode = ClusterNode<GryffReplica, SessionRunner<GryffService>>;

/// Specification of one client node: the one [`ClientSpec`]. ROADMAP item
/// 18(b) removes this alias once `benchmark/` names the generic type.
pub type GryffClientSpec = ClientSpec;

/// Specification of a deployment run: the one
/// [`regular_session::ClusterSpec`] over a [`GryffConfig`]. ROADMAP item
/// 18(b) removes this alias once `benchmark/` names the generic type.
pub type GryffClusterSpec = regular_session::ClusterSpec<GryffConfig>;

/// The outcome of a run, on either plane.
pub struct GryffRunResult {
    /// Protocol variant that was run.
    pub mode: Mode,
    /// Read latencies (measurement window only), in simulated time on both
    /// planes.
    pub read_latencies: LatencyRecorder,
    /// Write latencies (measurement window only).
    pub write_latencies: LatencyRecorder,
    /// Read-modify-write latencies (measurement window only).
    pub rmw_latencies: LatencyRecorder,
    /// Completed operations per client node (all, including warm-up), in
    /// completion order.
    pub completed: Vec<(NodeId, Vec<CompletedRecord>)>,
    /// Aggregate throughput over the measurement window (simulated op/s).
    pub throughput: f64,
    /// Measured completions per wall-clock second; 0 on the simulator.
    pub wall_throughput: f64,
    /// Aggregated client statistics.
    pub client_stats: GryffClientStats,
    /// Aggregated session-scheduler statistics across all clients
    /// (arrivals/shed matter for open-loop runs).
    pub session_stats: SessionStats,
    /// Per-replica statistics.
    pub replica_stats: Vec<ReplicaStats>,
    /// Full message counters, including the fault plane's drops, duplicates,
    /// and expirations.
    pub net_stats: MessageStats,
    /// The simulator's event-loop counters (zeroes on the live plane).
    pub engine: EngineStats,
    /// Aggregated write-ahead-log counters across every replica (all zeroes
    /// under `Durability::InMemory`).
    pub storage: StorageSummary,
    /// Behaviour-coverage signature of the run: message-phase pairs, expired
    /// classes, bucketed fault-plane pressure, recovery activity, and
    /// storage (WAL) behaviour — the signal the coverage-guided hunter
    /// (`regular-hunt`) ranks schedules by. `None` unless the plane recorded
    /// coverage (a [`SimPlane`] with a classifier, e.g. [`GryffMsg::class`]);
    /// plain runs skip the instrumentation entirely.
    pub coverage: Option<CoverageSignature>,
    /// Wall-clock duration of the run; zero on the simulator.
    pub wall: Duration,
    /// The live transport's delivery log (empty unless recording was
    /// enabled; always empty on the simulator).
    pub deliveries: Vec<DeliveryRecord>,
    /// Socket traffic counters (all zeros off the socket transports).
    pub wire: WireStats,
}

/// Builds the [`GryffClientConfig`] every client node of a deployment shares.
pub fn client_config(config: &GryffConfig, replicas: Vec<NodeId>) -> GryffClientConfig {
    GryffClientConfig {
        mode: config.mode,
        replicas,
        quorum: config.quorum(),
        op_timeout: config.op_timeout,
    }
}

/// Assembles the deployment's node graph — replicas first (ids
/// `0..num_replicas`), then clients — as a plane-independent
/// [`Deployment`]; multi-process workers each build the identical one.
///
/// # Panics
///
/// Panics if the configuration is invalid.
pub fn build(mut spec: GryffClusterSpec) -> Deployment<GryffNode> {
    let config = &spec.config;
    config.validate().expect("invalid Gryff configuration");
    let mut nodes = Vec::with_capacity(config.num_replicas + spec.clients.len());
    for i in 0..config.num_replicas {
        nodes.push(NodeSpec {
            node: ClusterNode::Server(Box::new(GryffReplica::new(config, i))),
            region: config.replica_regions[i],
            service_time: config.replica_service_time,
        });
    }
    let replica_ids: Vec<NodeId> = (0..config.num_replicas).collect();
    let client_time = config.client_service_time;
    let faults = std::mem::take(&mut spec.config.faults);
    spec.deploy(nodes, client_time, faults, SimDuration::ZERO, |config, _, _| {
        GryffService::new(client_config(config, replica_ids.clone()))
    })
}

/// The latency class [`regular_session::measure`] files an operation under:
/// 0 read, 1 write, 2 read-modify-write.
fn latency_class(kind: &OpKind) -> Option<usize> {
    match kind {
        OpKind::Read { .. } => Some(0),
        OpKind::Write { .. } => Some(1),
        OpKind::Rmw { .. } => Some(2),
        _ => None,
    }
}

/// Builds a deployment, runs it on `plane`, and [`collect`]s what the plane
/// hands back.
///
/// # Panics
///
/// Panics if the configuration is invalid.
pub fn run_gryff_on(plane: &impl Plane<GryffMsg>, spec: GryffClusterSpec) -> GryffRunResult {
    let (mode, measure_from, stop_issuing_at) =
        (spec.config.mode, spec.measure_from, spec.stop_issuing_at);
    collect(plane.run(build(spec)), mode, measure_from, stop_issuing_at)
}

/// Folds what a plane handed back for a [`build`] of a spec in `mode` into a
/// [`GryffRunResult`], measuring latencies over `measure_from ..
/// stop_issuing_at`: the shared part, then the replicas' and the clients'
/// statistics and the coverage signature if one was recorded. The replicas
/// themselves are dropped here; a caller that wants their final registers
/// ([`GryffReplica::registers`]) reads them from `ran.nodes` first.
pub fn collect(
    ran: Ran<GryffNode>,
    mode: Mode,
    measure_from: SimTime,
    stop_issuing_at: SimTime,
) -> GryffRunResult {
    let mut stats = GryffClientStats::default();
    let mut replica_stats = Vec::new();
    let replica = |r: &GryffReplica| {
        replica_stats.push(r.stats);
        r.wal_stats()
    };
    let client = |c: &GryffService| {
        let s = &c.stats;
        stats.reads += s.reads;
        stats.slow_reads += s.slow_reads;
        stats.writes += s.writes;
        stats.rmws += s.rmws;
        stats.fences += s.fences;
        stats.deps_piggybacked += s.deps_piggybacked;
        stats.timeout_retries += s.timeout_retries;
    };
    let run = fold_cluster(ran.nodes, ran.completed, replica, client);
    let records = run.clients.iter().flat_map(|(_, records)| records);
    let measured = measure(records, measure_from, stop_issuing_at, ran.wall, latency_class);
    let (net, storage) = (ran.net_stats, run.storage);
    let coverage = ran.coverage.map(|pairs| {
        let mut b = CoverageBuilder::new();
        for (class, phase) in pairs {
            if phase == 0xFFFF {
                b.hit(domain::EXPIRED_CLASS, class);
            } else {
                b.hit(domain::MESSAGE_PHASE, (class << 8) | (phase & 0xff));
            }
        }
        b.hit_bucketed(domain::NET_PRESSURE, 0, net.dropped);
        b.hit_bucketed(domain::NET_PRESSURE, 1, net.duplicated);
        b.hit_bucketed(domain::NET_PRESSURE, 2, net.expired);
        b.hit_bucketed(domain::RECOVERY, 0, stats.timeout_retries);
        b.hit_bucketed(domain::RECOVERY, 1, replica_stats.iter().map(|r| r.rmws_coordinated).sum());
        b.hit_bucketed(domain::STORAGE, 0, storage.recoveries);
        b.hit_bucketed(domain::STORAGE, 1, storage.replayed);
        b.hit_bucketed(domain::STORAGE, 2, storage.torn_bytes);
        b.build()
    });
    let Measured {
        latencies: [read_latencies, write_latencies, rmw_latencies],
        throughput,
        wall_throughput,
    } = measured;
    GryffRunResult {
        mode,
        read_latencies,
        write_latencies,
        rmw_latencies,
        completed: run.clients,
        throughput,
        wall_throughput,
        client_stats: stats,
        session_stats: run.session_stats,
        replica_stats,
        net_stats: net,
        engine: ran.engine,
        storage,
        coverage,
        wall: ran.wall,
        deliveries: ran.deliveries,
        wire: ran.wire,
    }
}

/// [`run_gryff_on`] the deterministic simulator.
pub fn run_gryff(spec: GryffClusterSpec) -> GryffRunResult {
    run_gryff_on(&SimPlane::default(), spec)
}

/// Where a completion sits in its key's carstamp chain, if it carries a
/// carstamp: `(key, carstamp, rank, finish)`, writes ranking before reads
/// among carstamp ties.
fn chain_position(rec: &CompletedRecord) -> Option<(u64, Carstamp, u8, u64)> {
    let (key, rank) = match &rec.kind {
        OpKind::Read { key } => (*key, 1),
        OpKind::Write { key, .. } | OpKind::Rmw { key, .. } => (*key, 0),
        _ => return None,
    };
    let WitnessHint::Carstamp { count, writer, rmwc } = rec.witness else { return None };
    Some((key.0, Carstamp { count, writer, rmwc }, rank, rec.finish.as_micros()))
}

/// The per-key carstamp chains as constraint edges: each key's carstamped
/// operations in carstamp order (ties: writes first, then by finish instant
/// and id), consecutive ones linked; keys ascending. `records[i]` is the
/// completion recorded as op `i`; the ones without a carstamp (fences,
/// transactions) are in no chain.
///
/// The sorts move the 4-byte ids of the chained ops: first grouped by key,
/// read from a dense array of every op's key, then each key's group in
/// chain order, read once per op from its record into a buffer as long as
/// that group.
pub fn carstamp_chain_edges<'a>(
    records: &'a [&'a CompletedRecord],
) -> impl Iterator<Item = (OpId, OpId)> + 'a {
    let mut keys: Vec<u64> = Vec::with_capacity(records.len());
    let mut chained: Vec<u32> = Vec::new();
    for (id, rec) in records.iter().enumerate() {
        let position = chain_position(rec);
        keys.push(position.map_or(0, |p| p.0));
        chained.extend(position.map(|_| id as u32));
    }
    let key = move |id: u32| keys[id as usize];
    chained.sort_unstable_by_key(|&id| key(id));
    for group in chained.chunk_by_mut(|&a, &b| key(a) == key(b)) {
        group.sort_by_cached_key(|&id| (chain_position(records[id as usize]), id));
    }
    (1..chained.len()).filter_map(move |i| {
        let (a, b) = (chained[i - 1], chained[i]);
        (key(a) == key(b)).then_some((OpId(a), OpId(b)))
    })
}

/// Builds the history and the per-key/process-order constraint edges of a run.
pub fn build_history(result: &GryffRunResult) -> (History, Vec<(OpId, OpId)>) {
    build_history_from(&result.completed)
}

/// [`build_history`] from bare per-client completion lists, for harnesses
/// (e.g. a multi-process hub) that do not assemble a [`GryffRunResult`].
pub fn build_history_from(
    completed: &[(NodeId, Vec<CompletedRecord>)],
) -> (History, Vec<(OpId, OpId)>) {
    let total = completed.iter().map(|(_, ops)| ops.len()).sum();
    let mut recorder = HistoryRecorder::with_capacity(total);
    let mut records: Vec<&CompletedRecord> = Vec::with_capacity(total);
    for (client, ops) in completed {
        for op in ops {
            let id = recorder.record(*client as u64, op);
            debug_assert_eq!(id.index(), records.len());
            records.push(op);
        }
    }
    // At most one chain edge and one process-order edge an operation.
    let mut edges = Vec::with_capacity(2 * total);
    edges.extend(carstamp_chain_edges(&records));
    drop(records);
    edges.extend(ByProcess::new(recorder.history()).pairs());
    // Each key's and each process's first op has none; the edges are held
    // to the end of a certification, so give that room back.
    edges.shrink_to_fit();
    (recorder.into_history(), edges)
}

/// The history of bare per-client completion lists together with the witness
/// assembled from its carstamp/process-order constraints under `model` — or
/// the reason there is none (the constraints are cyclic), in the sweep's
/// violation idiom. The witness still has to pass a certificate check.
pub fn history_and_witness(
    completed: &[(NodeId, Vec<CompletedRecord>)],
    model: WitnessModel,
) -> (History, Result<Vec<OpId>, String>) {
    let (history, edges) = build_history_from(completed);
    let witness = assemble_witness(&history, &edges, model).map_err(|e| {
        format!("carstamp/process-order constraints are cyclic ({} ops unordered)", e.unordered)
    });
    (history, witness)
}

/// Verifies that a run satisfies its consistency model: linearizability for
/// the Gryff baseline, RSC for Gryff-RSC.
pub fn verify_run(result: &GryffRunResult) -> Result<(), GryffVerificationError> {
    let (history, edges) = build_history(result);
    let model = match result.mode {
        Mode::Gryff => WitnessModel::RealTime,
        Mode::GryffRsc => WitnessModel::Regular,
    };
    let witness = assemble_witness(&history, &edges, model)
        .map_err(|e| GryffVerificationError::Cyclic(e.unordered))?;
    check_witness(&history, &witness, model).map_err(GryffVerificationError::Witness)
}

/// Why verification failed.
#[derive(Debug, Clone, PartialEq)]
pub enum GryffVerificationError {
    /// The combined ordering constraints are cyclic (no serialization exists).
    Cyclic(usize),
    /// The assembled witness was rejected by the certificate checker.
    Witness(WitnessViolation),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::ConflictWorkload;
    use regular_core::types::Value;
    use regular_session::{SessionConfig, SessionWorkload};
    use regular_sim::net::LatencyMatrix;
    use regular_sim::time::SimTime;

    /// Whether every read observed a value some write actually wrote (or
    /// null), independent of the full witness check.
    fn all_reads_explainable(result: &GryffRunResult) -> bool {
        let mut written: std::collections::HashSet<Value> = std::collections::HashSet::new();
        for (_, ops) in &result.completed {
            for op in ops {
                for (_, v) in op.kind.written_values_iter() {
                    written.insert(v);
                }
            }
        }
        result.completed.iter().all(|(_, ops)| {
            ops.iter().all(|op| match (&op.kind, &op.result) {
                (OpKind::Read { .. }, regular_core::op::OpResult::Value(v)) => {
                    v.is_null() || written.contains(v)
                }
                _ => true,
            })
        })
    }

    fn run(mode: Mode, seed: u64, write_ratio: f64, conflict: f64) -> GryffRunResult {
        run_batched(mode, seed, write_ratio, conflict, 1)
    }

    fn run_batched(
        mode: Mode,
        seed: u64,
        write_ratio: f64,
        conflict: f64,
        batch: usize,
    ) -> GryffRunResult {
        let config = GryffConfig::wan(mode);
        let net = LatencyMatrix::gryff_wan();
        let clients = (0..5)
            .map(|i| GryffClientSpec {
                region: i % 5,
                sessions: SessionConfig::closed_loop(3, SimDuration::ZERO).with_batch(batch),
                workload: Box::new(ConflictWorkload::ycsb(write_ratio, conflict, i as u64))
                    as Box<dyn SessionWorkload>,
            })
            .collect();
        run_gryff(GryffClusterSpec {
            config,
            net,
            seed,
            clients,
            stop_issuing_at: SimTime::from_secs(30),
            drain: SimDuration::from_secs(10),
            measure_from: SimTime::from_secs(3),
        })
    }

    #[test]
    fn baseline_is_linearizable() {
        let result = run(Mode::Gryff, 1, 0.5, 0.5);
        assert!(result.client_stats.reads > 100);
        assert!(result.client_stats.writes > 100);
        assert!(all_reads_explainable(&result));
        verify_run(&result).expect("Gryff must be linearizable");
    }

    #[test]
    fn rsc_variant_satisfies_rsc() {
        let result = run(Mode::GryffRsc, 1, 0.5, 0.5);
        assert!(result.client_stats.reads > 100);
        assert!(all_reads_explainable(&result));
        verify_run(&result).expect("Gryff-RSC must satisfy RSC");
    }

    #[test]
    fn rsc_reads_always_take_one_round() {
        let result = run(Mode::GryffRsc, 3, 0.5, 0.5);
        assert_eq!(result.client_stats.slow_reads, 0, "Gryff-RSC reads never take a second round");
        assert!(result.client_stats.deps_piggybacked > 0, "dependencies should be exercised");
    }

    #[test]
    fn baseline_reads_sometimes_take_two_rounds_under_conflict() {
        let result = run(Mode::Gryff, 3, 0.5, 0.9);
        assert!(result.client_stats.slow_reads > 0, "high conflict should force write-backs");
        let mut slow = result.read_latencies.clone();
        // A two-round read from the worst-placed region exceeds 300 ms; the
        // maximum read latency should reflect the second round trip.
        assert!(slow.max().unwrap() > SimDuration::from_millis(200));
    }

    #[test]
    fn rsc_p99_read_latency_not_worse_than_baseline() {
        let baseline = run(Mode::Gryff, 5, 0.5, 0.25);
        let rsc = run(Mode::GryffRsc, 5, 0.5, 0.25);
        let mut b = baseline.read_latencies.clone();
        let mut r = rsc.read_latencies.clone();
        let pb = b.percentile(99.0).unwrap();
        let pr = r.percentile(99.0).unwrap();
        assert!(pr <= pb, "Gryff-RSC p99 read latency ({pr}) must not exceed Gryff's ({pb})");
    }

    #[test]
    fn deterministic_for_a_seed() {
        let a = run(Mode::GryffRsc, 9, 0.3, 0.1);
        let b = run(Mode::GryffRsc, 9, 0.3, 0.1);
        assert_eq!(a.client_stats.reads, b.client_stats.reads);
        assert_eq!(a.net_stats.delivered, b.net_stats.delivered);
    }

    /// Certification input is a function of the records: key groups are walked
    /// in sorted order, never in a hash map's, so two builds agree edge for
    /// edge — and the assembled witness does not depend on edge order at all.
    #[test]
    fn constraint_edges_and_witness_are_deterministic() {
        let result = run(Mode::GryffRsc, 9, 0.5, 0.25);
        let (history, edges) = build_history(&result);
        assert!(edges.len() > 500, "the run must produce a real constraint set");
        assert_eq!(build_history(&result).1, edges);
        let witness = assemble_witness(&history, &edges, WitnessModel::Regular).unwrap();
        assert_eq!(assemble_witness(&history, &edges, WitnessModel::Regular).unwrap(), witness);
        let mut shuffled = edges.clone();
        shuffled.reverse();
        shuffled.rotate_left(edges.len() / 3);
        shuffled.swap(0, edges.len() / 2);
        assert_eq!(assemble_witness(&history, &shuffled, WitnessModel::Regular).unwrap(), witness);
    }

    #[test]
    fn batched_sessions_pipeline_and_stay_consistent() {
        let serial = run_batched(Mode::GryffRsc, 21, 0.5, 0.25, 1);
        let batched = run_batched(Mode::GryffRsc, 21, 0.5, 0.25, 8);
        let total = |r: &GryffRunResult| r.client_stats.reads + r.client_stats.writes;
        assert!(
            total(&batched) > 3 * total(&serial),
            "batch 8 should complete several times the closed-loop throughput \
             (batched {} vs serial {})",
            total(&batched),
            total(&serial)
        );
        verify_run(&batched).expect("batched Gryff-RSC must still satisfy RSC");
        let (history, _) = build_history(&batched);
        history.validate().expect("pipelined lanes keep the history well-formed");
    }

    #[test]
    fn rsc_survives_replica_crash_and_lossy_links() {
        use regular_sim::fault::{FaultSchedule, LinkScope};
        use regular_sim::net::Region;

        // Replica 2 (Ireland) is down for 4 s — it coordinates rmws for
        // keys = 2 mod 5 — then Japan is partitioned away, then every link
        // drops/duplicates 2% of messages for a stretch.
        let faults = FaultSchedule::new()
            .crash(2, SimTime::from_secs(5), SimTime::from_secs(9))
            .partition_region(Region(4), SimTime::from_secs(11), SimTime::from_secs(13))
            .drop_window(LinkScope::All, SimTime::from_secs(14), SimTime::from_secs(18), 0.02)
            .duplicate_window(LinkScope::All, SimTime::from_secs(14), SimTime::from_secs(18), 0.02);
        let config =
            GryffConfig::wan(Mode::GryffRsc).with_faults(faults, SimDuration::from_millis(1_200));
        let net = LatencyMatrix::gryff_wan();
        let clients = (0..5)
            .map(|i| GryffClientSpec {
                region: i % 5,
                sessions: SessionConfig::closed_loop(3, SimDuration::ZERO),
                workload: Box::new(ConflictWorkload {
                    rmw_ratio: 0.1,
                    ..ConflictWorkload::ycsb(0.5, 0.4, i as u64)
                }) as Box<dyn SessionWorkload>,
            })
            .collect();
        let result = run_gryff(GryffClusterSpec {
            config,
            net,
            seed: 31,
            clients,
            stop_issuing_at: SimTime::from_secs(24),
            drain: SimDuration::from_secs(10),
            measure_from: SimTime::from_secs(1),
        });
        let stats = result.net_stats;
        assert!(
            stats.dropped > 0 && stats.duplicated > 0,
            "the fault plane was active ({stats:?})"
        );
        assert!(stats.expired > 0, "messages expired at the crashed replica ({stats:?})");
        assert!(
            result.client_stats.timeout_retries > 0,
            "clients re-sent stalled rounds ({:?})",
            result.client_stats
        );
        assert!(result.client_stats.rmws > 20, "rmws kept completing ({:?})", result.client_stats);
        assert!(all_reads_explainable(&result));
        verify_run(&result).expect("Gryff-RSC must satisfy RSC through crashes and loss");
    }

    #[test]
    fn faulty_gryff_runs_are_deterministic_for_a_seed() {
        use regular_sim::fault::{FaultSchedule, LinkScope};

        let run = || {
            let faults = FaultSchedule::new()
                .crash(1, SimTime::from_secs(3), SimTime::from_secs(6))
                .drop_window(LinkScope::All, SimTime::from_secs(7), SimTime::from_secs(10), 0.05);
            let config = GryffConfig::wan(Mode::GryffRsc)
                .with_faults(faults, SimDuration::from_millis(1_200));
            let clients = (0..3)
                .map(|i| GryffClientSpec {
                    region: i % 5,
                    sessions: SessionConfig::closed_loop(2, SimDuration::ZERO)
                        .with_workload_seed(55 + i as u64),
                    workload: Box::new(ConflictWorkload::ycsb(0.5, 0.25, i as u64))
                        as Box<dyn SessionWorkload>,
                })
                .collect();
            run_gryff(GryffClusterSpec {
                config,
                net: LatencyMatrix::gryff_wan(),
                seed: 8,
                clients,
                stop_issuing_at: SimTime::from_secs(12),
                drain: SimDuration::from_secs(8),
                measure_from: SimTime::from_secs(1),
            })
        };
        let a = run();
        let b = run();
        let (ha, _) = build_history(&a);
        let (hb, _) = build_history(&b);
        assert_eq!(ha, hb, "identical seed + schedule yields a byte-identical history");
        assert_eq!(a.net_stats, b.net_stats);
    }

    #[test]
    fn rmws_are_atomic_on_dedicated_keys() {
        let config = GryffConfig::wan(Mode::Gryff);
        let net = LatencyMatrix::gryff_wan();
        let clients = (0..3)
            .map(|i| GryffClientSpec {
                region: i % 5,
                sessions: SessionConfig::closed_loop(2, SimDuration::ZERO),
                workload: Box::new(ConflictWorkload {
                    rmw_ratio: 1.0,
                    ..ConflictWorkload::ycsb(0.0, 0.0, i as u64)
                }) as Box<dyn SessionWorkload>,
            })
            .collect();
        let result = run_gryff(GryffClusterSpec {
            config,
            net,
            seed: 4,
            clients,
            stop_issuing_at: SimTime::from_secs(20),
            drain: SimDuration::from_secs(10),
            measure_from: SimTime::from_secs(2),
        });
        assert!(result.client_stats.rmws > 50);
        verify_run(&result).expect("rmw-only workload must be linearizable");
    }
}
