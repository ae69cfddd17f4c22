//! Cluster assembly, execution, and result extraction.
//!
//! The harness [`build`]s a cluster (shard leaders plus client nodes —
//! [`regular_session::SessionRunner`]s driving the [`SpannerService`] protocol
//! core) once as a plane-independent [`Deployment`], runs it on whichever
//! [`Plane`] the caller passes ([`run_cluster`] is the simulator default),
//! and turns the recorded [`CompletedRecord`]s into the
//! artifacts the evaluation and the conformance tests need: latency
//! distributions, throughput, a [`regular_core::History`] (via the shared
//! [`regular_session::HistoryRecorder`]), and a serialization witness derived
//! from the protocol's timestamps (commit timestamps and snapshot
//! timestamps), mirroring the construction in the paper's proof of
//! correctness (Appendix D.1).

use std::time::Duration;

use regular_core::checker::certificate::{check_witness, WitnessModel, WitnessViolation};
use regular_core::history::History;
use regular_core::op::OpKind;
use regular_core::types::{Key, OpId, Value};
use regular_session::{
    fold_cluster, measure, ClusterNode, CompletedRecord, Deployment, HistoryRecorder, Measured,
    NodeSpec, Plane, SessionRunner, SessionStats, SimPlane,
};
use regular_sim::engine::NodeId;
use regular_sim::metrics::{DeliveryRecord, EngineStats, LatencyRecorder, MessageStats, WireStats};
use regular_sim::net::LatencyMatrix;
use regular_sim::time::SimDuration;
use regular_storage::StorageSummary;

use crate::client::{ClientConfig, ClientStats, SpannerService};
use crate::config::{Mode, SpannerConfig};
use crate::messages::{SpannerMsg, Ts};
use crate::shard::{ShardNode, ShardStats};

/// A node of the simulated cluster: a shard leader or a client (the
/// protocol-agnostic session runner over the Spanner core).
pub type SpannerNode = ClusterNode<ShardNode, SessionRunner<SpannerService>>;

/// Specification of one client (load generator) node.
pub use regular_session::ClientSpec;

/// Specification of a full cluster run: the one
/// [`regular_session::ClusterSpec`] over a [`SpannerConfig`]. ROADMAP item
/// 18(b) removes this alias once `benchmark/` names the generic type.
pub type ClusterSpec = regular_session::ClusterSpec<SpannerConfig>;

/// The outcome of a cluster run, on either plane.
pub struct RunResult {
    /// Protocol variant that was run.
    pub mode: Mode,
    /// Read-write transaction latencies (measurement window only), in
    /// simulated time on both planes.
    pub rw_latencies: LatencyRecorder,
    /// Read-only transaction latencies (measurement window only).
    pub ro_latencies: LatencyRecorder,
    /// Completed transactions per client node (all, including warm-up), in
    /// completion order.
    pub completed: Vec<(NodeId, Vec<CompletedRecord>)>,
    /// Aggregate throughput over the measurement window (simulated txn/s).
    pub throughput: f64,
    /// Measured completions per wall-clock second; 0 on the simulator.
    pub wall_throughput: f64,
    /// Aggregated client statistics.
    pub client_stats: ClientStats,
    /// Aggregated session-scheduler statistics across all clients
    /// (arrivals/shed matter for open-loop runs).
    pub session_stats: SessionStats,
    /// Per-shard statistics.
    pub shard_stats: Vec<ShardStats>,
    /// Full message counters, including the fault plane's drops, duplicates,
    /// and expirations.
    pub net_stats: MessageStats,
    /// The simulator's event-loop counters (zeroes on the live plane).
    pub engine: EngineStats,
    /// Aggregated write-ahead-log counters across every shard (all zeroes
    /// under `Durability::InMemory`).
    pub storage: StorageSummary,
    /// Final committed store contents per shard, sorted by (key, timestamp):
    /// the differential anchor for durability tests (recovered store must
    /// equal an in-memory reference, offline WAL replay must equal this).
    pub shard_stores: Vec<Vec<(Key, Ts, Value)>>,
    /// Wall-clock duration of the run; zero on the simulator.
    pub wall: Duration,
    /// The live transport's delivery log (empty unless recording was
    /// enabled; always empty on the simulator).
    pub deliveries: Vec<DeliveryRecord>,
    /// Socket traffic counters (all zeros off the socket transports).
    pub wire: WireStats,
}

/// Builds the [`ClientConfig`] every client node of a cluster shares.
pub fn client_config(
    config: &SpannerConfig,
    net: &LatencyMatrix,
    region: usize,
    shard_nodes: Vec<NodeId>,
    replication_delays: Vec<SimDuration>,
) -> ClientConfig {
    ClientConfig {
        mode: config.mode,
        region,
        shard_nodes,
        shard_regions: config.leader_regions.clone(),
        replication_delays,
        net: net.clone(),
        truetime_epsilon: config.truetime_epsilon,
        commit_timeout: config.commit_timeout,
        retry_backoff: config.retry_backoff,
        op_timeout: config.op_timeout,
        #[cfg(any(test, feature = "bug-zoo"))]
        bug_zoo: crate::config::BugZoo::none(),
    }
}

/// Assembles the cluster's node graph — shards first (ids
/// `0..num_shards`), then clients — as a plane-independent [`Deployment`].
/// Multi-process workers call it too: every process builds the identical
/// deployment from the shared spec, so node ids line up.
///
/// # Panics
///
/// Panics if the configuration is structurally invalid (see
/// [`SpannerConfig::validate`]).
pub fn build(mut spec: ClusterSpec) -> Deployment<SpannerNode> {
    let config = &spec.config;
    config.validate().expect("invalid Spanner configuration");
    let mut nodes = Vec::with_capacity(config.num_shards + spec.clients.len());
    let mut replication_delays = Vec::new();
    for shard in 0..config.num_shards {
        let delay = config.replication_delay(shard, &spec.net);
        replication_delays.push(delay);
        nodes.push(NodeSpec {
            node: ClusterNode::Server(Box::new(ShardNode::new(config, shard, delay))),
            region: config.leader_regions[shard],
            service_time: config.shard_service_time,
        });
    }
    let shard_nodes: Vec<NodeId> = (0..config.num_shards).collect();
    let (client_time, epsilon) = (config.client_service_time, config.truetime_epsilon);
    let faults = std::mem::take(&mut spec.config.faults);
    spec.deploy(nodes, client_time, faults, epsilon, |config, net, region| {
        let delays = replication_delays.clone();
        SpannerService::new(client_config(config, net, region, shard_nodes.clone(), delays))
    })
}

/// The latency class [`regular_session::measure`] files a transaction
/// under: 0 read-only, 1 read-write.
pub fn latency_class(kind: &OpKind) -> Option<usize> {
    Some(usize::from(!kind.is_read_only()))
}

/// Builds a cluster, runs it on `plane`, and folds what the plane hands
/// back into a [`RunResult`]: the shared part, then the shards' statistics
/// and final stores and the clients' statistics.
///
/// # Panics
///
/// Panics if the configuration is structurally invalid (see
/// [`SpannerConfig::validate`]).
pub fn run_cluster_on(plane: &impl Plane<SpannerMsg>, spec: ClusterSpec) -> RunResult {
    let (mode, measure_from, stop_issuing_at) =
        (spec.config.mode, spec.measure_from, spec.stop_issuing_at);
    let ran = plane.run(build(spec));
    let mut client_stats = ClientStats::default();
    let (mut shard_stats, mut shard_stores) = (Vec::new(), Vec::new());
    let shard = |s: &ShardNode| {
        shard_stats.push(s.stats);
        let mut dump = s.store().dump();
        dump.sort_unstable_by_key(|(k, ts, _)| (k.0, *ts));
        shard_stores.push(dump);
        s.wal_stats()
    };
    let client = |c: &SpannerService| {
        let s = &c.stats;
        client_stats.rw_completed += s.rw_completed;
        client_stats.ro_completed += s.ro_completed;
        client_stats.fences += s.fences;
        client_stats.aborted_attempts += s.aborted_attempts;
        client_stats.ro_waited_slow += s.ro_waited_slow;
        client_stats.timeout_retries += s.timeout_retries;
    };
    let run = fold_cluster(ran.nodes, ran.completed, shard, client);
    let records = run.clients.iter().flat_map(|(_, records)| records);
    let Measured { latencies: [ro_latencies, rw_latencies], throughput, wall_throughput } =
        measure(records, measure_from, stop_issuing_at, ran.wall, latency_class);
    RunResult {
        mode,
        rw_latencies,
        ro_latencies,
        completed: run.clients,
        throughput,
        wall_throughput,
        client_stats,
        session_stats: run.session_stats,
        shard_stats,
        net_stats: ran.net_stats,
        engine: ran.engine,
        storage: run.storage,
        shard_stores,
        wall: ran.wall,
        deliveries: ran.deliveries,
        wire: ran.wire,
    }
}

/// [`run_cluster_on`] the deterministic simulator.
pub fn run_cluster(spec: ClusterSpec) -> RunResult {
    run_cluster_on(&SimPlane::default(), spec)
}

/// Builds a [`History`] and a serialization witness from a run.
///
/// Each `(client node, session, slot)` lane becomes one application process
/// (via the shared [`HistoryRecorder`]); the witness orders transactions by
/// their protocol timestamp.
pub fn build_history(result: &RunResult) -> (History, Vec<OpId>) {
    build_history_from(&result.completed)
}

/// [`build_history`] from bare per-client completion lists, for harnesses
/// (e.g. a multi-process hub) that do not assemble a [`RunResult`].
///
/// The witness sorts by `(timestamp, rank, finish, op)`: the order of the
/// paper's correctness proof — commit timestamps for read-write
/// transactions, snapshot timestamps for read-only ones. Among timestamp
/// ties, read-write transactions and fences rank before read-only ones:
/// commit wait makes every pre-fence timestamp strictly smaller than the
/// fence's `t_f`, while a session's post-fence read-only transaction may
/// serialize at exactly `t_f` and must follow the fence.
pub fn build_history_from(completed: &[(NodeId, Vec<CompletedRecord>)]) -> (History, Vec<OpId>) {
    let total = completed.iter().map(|(_, txns)| txns.len()).sum();
    let mut recorder = HistoryRecorder::with_capacity(total);
    let mut witness_keys: Vec<(u64, u8, u64, OpId)> = Vec::with_capacity(total);
    for (client, txns) in completed {
        for rec in txns {
            let id = recorder.record(*client as u64, rec);
            let ts = rec.witness_ts().unwrap_or_else(|| rec.finish.as_micros());
            let rank = u8::from(rec.kind.is_read_only());
            witness_keys.push((ts, rank, rec.finish.as_micros(), id));
        }
    }
    witness_keys.sort_unstable();
    let witness = witness_keys.into_iter().map(|(_, _, _, id)| id).collect();
    (recorder.into_history(), witness)
}

/// Verifies that a run satisfies its consistency model: strict serializability
/// for the Spanner baseline, RSS for Spanner-RSS.
pub fn verify_run(result: &RunResult) -> Result<(), WitnessViolation> {
    let (history, witness) = build_history(result);
    let model = match result.mode {
        Mode::Spanner => WitnessModel::RealTime,
        Mode::SpannerRss => WitnessModel::Regular,
    };
    check_witness(&history, &witness, model)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::UniformWorkload;

    use regular_session::{SessionConfig, SessionWorkload};
    use regular_sim::time::SimTime;

    fn small_cluster(mode: Mode, seed: u64, skewless_keys: u64) -> RunResult {
        small_cluster_batched(mode, seed, skewless_keys, 1)
    }

    fn small_cluster_batched(mode: Mode, seed: u64, skewless_keys: u64, batch: usize) -> RunResult {
        let config = SpannerConfig::wan(mode);
        let net = LatencyMatrix::spanner_wan();
        let clients = (0..3)
            .map(|i| ClientSpec {
                region: i % 3,
                sessions: SessionConfig::closed_loop(4, SimDuration::ZERO).with_batch(batch),
                workload: Box::new(UniformWorkload {
                    num_keys: skewless_keys,
                    ro_fraction: 0.5,
                    keys_per_txn: 2,
                }) as Box<dyn SessionWorkload>,
            })
            .collect();
        run_cluster(ClusterSpec {
            config,
            net,
            seed,
            clients,
            stop_issuing_at: SimTime::from_secs(20),
            drain: SimDuration::from_secs(5),
            measure_from: SimTime::from_secs(2),
        })
    }

    #[test]
    fn baseline_cluster_makes_progress_and_is_strictly_serializable() {
        let result = small_cluster(Mode::Spanner, 7, 1000);
        assert!(result.client_stats.rw_completed > 50, "read-write transactions should complete");
        assert!(result.client_stats.ro_completed > 50, "read-only transactions should complete");
        assert!(result.throughput > 0.0);
        verify_run(&result).expect("Spanner must be strictly serializable");
    }

    #[test]
    fn rss_cluster_makes_progress_and_satisfies_rss() {
        let result = small_cluster(Mode::SpannerRss, 7, 1000);
        assert!(result.client_stats.rw_completed > 50);
        assert!(result.client_stats.ro_completed > 50);
        verify_run(&result).expect("Spanner-RSS must satisfy RSS");
    }

    #[test]
    fn contended_rss_run_satisfies_rss() {
        // A tiny key space maximizes conflicts between read-only and prepared
        // read-write transactions, exercising the skip + slow-reply paths.
        let result = small_cluster(Mode::SpannerRss, 11, 20);
        assert!(result.client_stats.ro_completed > 50);
        verify_run(&result).expect("Spanner-RSS must satisfy RSS under contention");
        let skipped: u64 = result.shard_stats.iter().map(|s| s.ro_skipped_prepared).sum();
        assert!(skipped > 0, "the contended run should exercise the skip path");
    }

    #[test]
    fn contended_baseline_run_is_strictly_serializable() {
        let result = small_cluster(Mode::Spanner, 11, 20);
        assert!(result.client_stats.ro_completed > 50);
        verify_run(&result).expect("Spanner must be strictly serializable under contention");
        let blocked: u64 = result.shard_stats.iter().map(|s| s.ro_blocked).sum();
        assert!(blocked > 0, "the contended run should exercise the blocking path");
    }

    #[test]
    fn runs_are_deterministic_for_a_seed() {
        let a = small_cluster(Mode::SpannerRss, 3, 100);
        let b = small_cluster(Mode::SpannerRss, 3, 100);
        assert_eq!(a.client_stats.rw_completed, b.client_stats.rw_completed);
        assert_eq!(a.client_stats.ro_completed, b.client_stats.ro_completed);
        assert_eq!(a.net_stats.delivered, b.net_stats.delivered);
        let mut x = a.ro_latencies.clone();
        let mut y = b.ro_latencies.clone();
        assert_eq!(x.percentile(99.0), y.percentile(99.0));
    }

    #[test]
    fn rw_latency_reflects_wide_area_round_trips() {
        let result = small_cluster(Mode::Spanner, 5, 1000);
        let mut rw = result.rw_latencies.clone();
        // A read-write transaction needs at least one cross-region round trip
        // (execute) plus commit: well above 60 ms in this topology.
        assert!(rw.percentile(50.0).unwrap() >= SimDuration::from_millis(60));
    }

    #[test]
    fn batched_sessions_pipeline_and_stay_consistent() {
        let serial = small_cluster_batched(Mode::SpannerRss, 13, 500, 1);
        let batched = small_cluster_batched(Mode::SpannerRss, 13, 500, 8);
        let total = |r: &RunResult| r.client_stats.rw_completed + r.client_stats.ro_completed;
        assert!(
            total(&batched) > 3 * total(&serial),
            "batch 8 should complete several times the closed-loop throughput \
             (batched {} vs serial {})",
            total(&batched),
            total(&serial)
        );
        verify_run(&batched).expect("batched Spanner-RSS must still satisfy RSS");
        // Lanes, not sessions, are the sequential processes.
        let (history, _) = build_history(&batched);
        history.validate().expect("pipelined lanes keep the history well-formed");
    }

    #[test]
    fn batched_baseline_is_strictly_serializable() {
        let result = small_cluster_batched(Mode::Spanner, 17, 500, 4);
        verify_run(&result).expect("batched Spanner must stay strictly serializable");
    }

    #[test]
    fn rss_survives_shard_crash_partition_and_lossy_links() {
        use regular_sim::fault::{FaultSchedule, LinkScope};
        use regular_sim::net::Region;

        // Shard 1 (Virginia) is down for 3 s, Ireland is partitioned away
        // for 2 s, and all links drop 2% / duplicate 2% of messages for a
        // stretch — all while clients keep issuing.
        let faults = FaultSchedule::new()
            .crash(1, SimTime::from_secs(4), SimTime::from_secs(7))
            .partition_region(Region(2), SimTime::from_secs(9), SimTime::from_secs(11))
            .drop_window(LinkScope::All, SimTime::from_secs(12), SimTime::from_secs(16), 0.02)
            .duplicate_window(LinkScope::All, SimTime::from_secs(12), SimTime::from_secs(16), 0.02);
        let config = SpannerConfig::wan(Mode::SpannerRss)
            .with_faults(faults, SimDuration::from_millis(1_500));
        let net = LatencyMatrix::spanner_wan();
        let clients = (0..3)
            .map(|i| ClientSpec {
                region: i % 3,
                sessions: SessionConfig::closed_loop(4, SimDuration::ZERO),
                workload: Box::new(UniformWorkload {
                    num_keys: 100,
                    ro_fraction: 0.5,
                    keys_per_txn: 2,
                }) as Box<dyn SessionWorkload>,
            })
            .collect();
        let result = run_cluster(ClusterSpec {
            config,
            net,
            seed: 23,
            clients,
            stop_issuing_at: SimTime::from_secs(20),
            drain: SimDuration::from_secs(8),
            measure_from: SimTime::from_secs(1),
        });
        let stats = result.net_stats;
        assert!(stats.dropped > 0, "the fault plane dropped messages ({stats:?})");
        assert!(stats.duplicated > 0, "the fault plane duplicated messages ({stats:?})");
        assert!(stats.expired > 0, "messages expired at the crashed shard ({stats:?})");
        assert!(
            result.client_stats.timeout_retries > 0,
            "clients observed timeouts and retried ({:?})",
            result.client_stats
        );
        assert!(
            result.client_stats.ro_completed > 50 && result.client_stats.rw_completed > 50,
            "the cluster kept serving through the faults ({:?})",
            result.client_stats
        );
        verify_run(&result).expect("Spanner-RSS must satisfy RSS through crashes and loss");
    }

    #[test]
    fn faulty_runs_are_deterministic_for_a_seed() {
        use regular_sim::fault::{FaultSchedule, LinkScope};

        let run = || {
            let faults = FaultSchedule::new()
                .crash(0, SimTime::from_secs(3), SimTime::from_secs(5))
                .drop_window(LinkScope::All, SimTime::from_secs(6), SimTime::from_secs(9), 0.05);
            let config = SpannerConfig::wan(Mode::SpannerRss)
                .with_faults(faults, SimDuration::from_millis(1_500));
            let clients = (0..2)
                .map(|i| ClientSpec {
                    region: i % 3,
                    sessions: SessionConfig::closed_loop(2, SimDuration::ZERO)
                        .with_workload_seed(77 + i as u64),
                    workload: Box::new(UniformWorkload {
                        num_keys: 50,
                        ro_fraction: 0.5,
                        keys_per_txn: 2,
                    }) as Box<dyn SessionWorkload>,
                })
                .collect();
            run_cluster(ClusterSpec {
                config,
                net: LatencyMatrix::spanner_wan(),
                seed: 5,
                clients,
                stop_issuing_at: SimTime::from_secs(12),
                drain: SimDuration::from_secs(6),
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
}
