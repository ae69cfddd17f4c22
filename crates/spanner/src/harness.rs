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
use regular_core::types::{Key, OpId, Value};
use regular_session::{
    per_sim_second, per_wall_second, untagged, CompletedRecord, Deployment, HistoryRecorder,
    NodeSpec, Plane, PlaneNode, Ran, SessionConfig, SessionRunner, SessionStats, SessionWorkload,
    SimPlane,
};
use regular_sim::engine::{Context, Node, NodeId};
use regular_sim::metrics::{DeliveryRecord, EngineStats, LatencyRecorder, MessageStats, WireStats};
use regular_sim::net::LatencyMatrix;
use regular_sim::time::{SimDuration, SimTime};
use regular_storage::StorageSummary;

use crate::client::{ClientConfig, ClientStats, SpannerService};
use crate::config::{Mode, SpannerConfig};
use crate::messages::{SpannerMsg, Ts};
use crate::shard::{ShardNode, ShardStats};

/// A client node: the protocol-agnostic session runner over the Spanner core.
pub type SpannerClient = SessionRunner<SpannerService>;

/// A node of the simulated cluster.
pub enum SpannerNode {
    /// A shard leader.
    Shard(Box<ShardNode>),
    /// A client / load generator.
    Client(Box<SpannerClient>),
}

impl Node<SpannerMsg> for SpannerNode {
    fn on_start(&mut self, ctx: &mut Context<SpannerMsg>) {
        match self {
            SpannerNode::Shard(s) => s.on_start(ctx),
            SpannerNode::Client(c) => c.on_start(ctx),
        }
    }
    fn on_message(&mut self, ctx: &mut Context<SpannerMsg>, from: NodeId, msg: SpannerMsg) {
        match self {
            SpannerNode::Shard(s) => s.on_message(ctx, from, msg),
            SpannerNode::Client(c) => c.on_message(ctx, from, msg),
        }
    }
    fn on_timer(&mut self, ctx: &mut Context<SpannerMsg>, tag: u64) {
        match self {
            SpannerNode::Shard(s) => s.on_timer(ctx, tag),
            SpannerNode::Client(c) => c.on_timer(ctx, tag),
        }
    }
    fn on_crash(&mut self, ctx: &mut Context<SpannerMsg>) {
        match self {
            SpannerNode::Shard(s) => s.on_crash(ctx),
            SpannerNode::Client(c) => c.on_crash(ctx),
        }
    }
    fn on_recover(&mut self, ctx: &mut Context<SpannerMsg>) {
        match self {
            SpannerNode::Shard(s) => s.on_recover(ctx),
            SpannerNode::Client(c) => c.on_recover(ctx),
        }
    }
}

/// Specification of one client (load generator) node.
pub struct ClientSpec {
    /// Region the node runs in.
    pub region: usize,
    /// Session arrival/pacing/batching model.
    pub sessions: SessionConfig,
    /// Workload generator.
    pub workload: Box<dyn SessionWorkload>,
}

/// Specification of a full cluster run.
pub struct ClusterSpec {
    /// Protocol and topology configuration.
    pub config: SpannerConfig,
    /// Wide-area network model.
    pub net: LatencyMatrix,
    /// Random seed (runs are deterministic for a given seed).
    pub seed: u64,
    /// Client nodes.
    pub clients: Vec<ClientSpec>,
    /// Clients stop issuing new transactions at this instant.
    pub stop_issuing_at: SimTime,
    /// Extra time to let in-flight transactions drain.
    pub drain: SimDuration,
    /// Latency/throughput measurements only cover completions at or after
    /// this instant (warm-up exclusion).
    pub measure_from: SimTime,
}

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
    /// Simulated time when the run finished.
    pub finished_at: SimTime,
    /// Total messages delivered.
    pub messages: u64,
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

impl PlaneNode<SpannerMsg> for SpannerNode {
    fn drain_completions(&mut self, out: &mut Vec<(usize, CompletedRecord)>) {
        if let SpannerNode::Client(c) = self {
            c.drain_completions(out);
        }
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
pub fn build(spec: ClusterSpec) -> Deployment<SpannerNode> {
    let ClusterSpec { config, net, seed, clients, stop_issuing_at, drain, measure_from: _ } = spec;
    config.validate().expect("invalid Spanner configuration");
    let mut nodes = Vec::with_capacity(config.num_shards + clients.len());
    let mut replication_delays = Vec::new();
    for shard in 0..config.num_shards {
        let delay = config.replication_delay(shard, &net);
        replication_delays.push(delay);
        nodes.push(NodeSpec {
            node: SpannerNode::Shard(Box::new(ShardNode::new(&config, shard, delay))),
            region: config.leader_regions[shard],
            service_time: config.shard_service_time,
        });
    }
    let shard_nodes: Vec<NodeId> = (0..config.num_shards).collect();
    for c in clients {
        let cfg =
            client_config(&config, &net, c.region, shard_nodes.clone(), replication_delays.clone());
        let runner =
            SessionRunner::new(SpannerService::new(cfg), c.sessions, stop_issuing_at, c.workload);
        nodes.push(NodeSpec {
            node: SpannerNode::Client(Box::new(runner)),
            region: c.region,
            service_time: config.client_service_time,
        });
    }
    Deployment {
        nodes,
        net,
        faults: config.faults,
        seed,
        truetime_epsilon: config.truetime_epsilon,
        stop_at: stop_issuing_at + drain,
    }
}

/// The records-only half of collection: everything that is a function of
/// the completion lists and the measurement window alone — which is all a
/// multi-process hub, whose nodes never come back, can compute.
pub struct Measured {
    /// Read-write transaction latencies inside the window.
    pub rw_latencies: LatencyRecorder,
    /// Read-only transaction latencies inside the window.
    pub ro_latencies: LatencyRecorder,
    /// Measured completions before `stop_issuing_at`, per simulated second.
    pub throughput: f64,
    /// Non-orphan, non-fence completions at or after `measure_from`.
    pub measured: u64,
}

/// Measures per-client completion lists over `[measure_from, ..)`.
pub fn measure(
    completed: &[(NodeId, Vec<CompletedRecord>)],
    measure_from: SimTime,
    stop_issuing_at: SimTime,
) -> Measured {
    let mut rw = LatencyRecorder::new();
    let mut ro = LatencyRecorder::new();
    let mut measured = 0u64;
    let mut window_count = 0u64;
    for txn in completed.iter().flat_map(|(_, recs)| recs) {
        if txn.finish >= measure_from && !txn.orphan && !txn.kind.is_fence() {
            let latency = txn.latency();
            if txn.kind.is_read_only() {
                ro.record(latency);
            } else {
                rw.record(latency);
            }
            measured += 1;
            if txn.finish < stop_issuing_at {
                window_count += 1;
            }
        }
    }
    let throughput = per_sim_second(window_count, measure_from, stop_issuing_at);
    Measured { rw_latencies: rw, ro_latencies: ro, throughput, measured }
}

/// Turns what a plane handed back into a [`RunResult`]: [`measure`] over the
/// completion streams, then the nodes half (statistics, WAL counters, final
/// stores).
fn collect(
    mode: Mode,
    measure_from: SimTime,
    stop_issuing_at: SimTime,
    ran: Ran<SpannerNode>,
) -> RunResult {
    let mut completed = Vec::new();
    let mut client_stats = ClientStats::default();
    let mut session_stats = SessionStats::default();
    let mut shard_stats = Vec::new();
    let mut storage = StorageSummary::default();
    let mut shard_stores = Vec::new();
    for (id, (node, stream)) in ran.nodes.iter().zip(ran.completed).enumerate() {
        match node {
            SpannerNode::Shard(s) => {
                shard_stats.push(s.stats);
                storage.add_wal(&s.wal_stats());
                let mut dump = s.store().dump();
                dump.sort_unstable_by_key(|(k, ts, _)| (k.0, *ts));
                shard_stores.push(dump);
            }
            SpannerNode::Client(c) => {
                let s = &c.service.stats;
                client_stats.rw_completed += s.rw_completed;
                client_stats.ro_completed += s.ro_completed;
                client_stats.fences += s.fences;
                client_stats.aborted_attempts += s.aborted_attempts;
                client_stats.ro_waited_slow += s.ro_waited_slow;
                client_stats.timeout_retries += s.timeout_retries;
                session_stats.merge(&c.stats);
                completed.push((id, untagged(stream)));
            }
        }
    }
    let Measured { rw_latencies, ro_latencies, throughput, measured } =
        measure(&completed, measure_from, stop_issuing_at);
    RunResult {
        mode,
        rw_latencies,
        ro_latencies,
        completed,
        throughput,
        wall_throughput: per_wall_second(measured, ran.wall),
        client_stats,
        session_stats,
        shard_stats,
        finished_at: ran.finished_at,
        messages: ran.net_stats.delivered,
        net_stats: ran.net_stats,
        engine: ran.engine,
        storage,
        shard_stores,
        wall: ran.wall,
        deliveries: ran.deliveries,
        wire: ran.wire,
    }
}

/// Builds a cluster, runs it on `plane`, and collects the results.
///
/// # Panics
///
/// Panics if the configuration is structurally invalid (see
/// [`SpannerConfig::validate`]).
pub fn run_cluster_on(plane: &impl Plane<SpannerMsg>, spec: ClusterSpec) -> RunResult {
    let (mode, measure_from, stop_issuing_at) =
        (spec.config.mode, spec.measure_from, spec.stop_issuing_at);
    collect(mode, measure_from, stop_issuing_at, plane.run(build(spec)))
}

/// [`run_cluster_on`] the deterministic simulator.
pub fn run_cluster(spec: ClusterSpec) -> RunResult {
    run_cluster_on(&SimPlane::default(), spec)
}

/// Witness sort rank: read-write transactions and fences order first among
/// timestamp ties, then read-only transactions. (Commit wait makes every
/// pre-fence timestamp strictly smaller than the fence's `t_f`, while a
/// session's post-fence read-only transaction may serialize at exactly `t_f`
/// and must follow the fence.)
fn witness_rank(rec: &CompletedRecord) -> u8 {
    u8::from(rec.kind.is_read_only())
}

/// Appends a client's records to the shared recorder and returns the
/// `(timestamp, rank, finish, op)` witness sort keys — the order used in the
/// paper's correctness proof (commit timestamps for read-write transactions,
/// snapshot timestamps for read-only ones, read-write first among equals).
pub fn record_with_witness_keys(
    recorder: &mut HistoryRecorder,
    client: u64,
    records: &[CompletedRecord],
) -> Vec<(u64, u8, u64, OpId)> {
    let mut keys = Vec::with_capacity(records.len());
    for rec in records {
        let id = recorder.record(client, rec);
        let ts = rec.witness_ts().unwrap_or_else(|| rec.finish.as_micros());
        keys.push((ts, witness_rank(rec), rec.finish.as_micros(), id));
    }
    keys
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
pub fn build_history_from(completed: &[(NodeId, Vec<CompletedRecord>)]) -> (History, Vec<OpId>) {
    let total = completed.iter().map(|(_, txns)| txns.len()).sum();
    let mut recorder = HistoryRecorder::with_capacity(total);
    let mut witness_keys: Vec<(u64, u8, u64, OpId)> = Vec::with_capacity(total);
    for (client, txns) in completed {
        witness_keys.extend(record_with_witness_keys(&mut recorder, *client as u64, txns));
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
        assert_eq!(a.messages, b.messages);
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
