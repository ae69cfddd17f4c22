//! The composed multi-service deployment as a reusable scenario.
//!
//! One simulation runs a Spanner-RSS store (3 shards) and a Gryff-RSC store
//! (5 replicas) side by side; composed app nodes drive sessions that hop
//! between the stores through the unified `Service` API, with `libRSS`
//! inserting a real-time fence at the previous service on every switch. The
//! combined history — both services, one process space — is certified
//! against the RSS (Regular) witness model, which is exactly the paper's
//! Figure 3 composition guarantee.
//!
//! This module was extracted from the `multi_service` integration test so
//! the conformance sweep can fan it across seeds; the test now drives this
//! code (one implementation, certified both places).

use std::collections::HashMap;
use std::time::Duration;

use regular_core::checker::assemble::assemble_witness;
use regular_core::checker::certificate::{check_witness_parallel, WitnessModel};
use regular_core::history::{History, HistoryIndex};
use regular_core::op::{OpKind, OpResult};
use regular_core::types::{OpId, ServiceId};
use regular_gryff::prelude::{GryffConfig, GryffService};
use regular_gryff::replica::GryffReplica;
use regular_gryff::workload::ConflictWorkload;
use regular_gryff::{Carstamp, GryffMsg};
use regular_live::{
    run_live_transport, DeliveryRecord, LiveConfig, LiveNode, LiveOutcome, TransportKind, WireStats,
};
use regular_session::{
    CompletedRecord, ComposedRunner, HandoffRecord, HistoryRecorder, MappedService,
    MultiServiceWorkload, RoundRobinWorkload, Service, SessionConfig, SessionWorkload, WitnessHint,
};
use regular_sim::compose::Embedded;
use regular_sim::engine::{Context, Engine, EngineConfig, Node, NodeId};
use regular_sim::fault::FaultSchedule;
use regular_sim::metrics::MessageStats;
use regular_sim::net::LatencyMatrix;
use regular_sim::queue::QueueKind;
use regular_sim::time::{SimDuration, SimTime};
use regular_spanner::prelude::{
    Mode as SpannerMode, SpannerConfig, SpannerService, UniformWorkload,
};
use regular_spanner::shard::ShardNode;
use regular_spanner::SpannerMsg;
use regular_storage::{wire_layout, Durability, StorageSummary};
use regular_workloads::photo::PhotoSharingWorkload;

/// Service id of the Spanner-RSS store in the combined history.
pub const SPANNER_SERVICE: ServiceId = ServiceId(0);
/// Service id of the Gryff-RSC store in the combined history.
pub const GRYFF_SERVICE: ServiceId = ServiceId(1);

/// The combined wire type of the composite deployment.
#[derive(Clone, Debug, PartialEq)]
pub enum DuoMsg {
    /// A Spanner protocol message.
    Spanner(SpannerMsg),
    /// A Gryff protocol message.
    Gryff(GryffMsg),
}

impl From<SpannerMsg> for DuoMsg {
    fn from(m: SpannerMsg) -> Self {
        DuoMsg::Spanner(m)
    }
}
impl From<GryffMsg> for DuoMsg {
    fn from(m: GryffMsg) -> Self {
        DuoMsg::Gryff(m)
    }
}
impl TryFrom<DuoMsg> for SpannerMsg {
    type Error = ();
    fn try_from(m: DuoMsg) -> Result<Self, ()> {
        match m {
            DuoMsg::Spanner(s) => Ok(s),
            DuoMsg::Gryff(_) => Err(()),
        }
    }
}
impl TryFrom<DuoMsg> for GryffMsg {
    type Error = ();
    fn try_from(m: DuoMsg) -> Result<Self, ()> {
        match m {
            DuoMsg::Gryff(g) => Ok(g),
            DuoMsg::Spanner(_) => Err(()),
        }
    }
}

// One tag byte selecting the protocol, then that protocol's own wire
// encoding — which makes the composed deployment socket-capable (see
// `regular_live::wire`).
wire_layout! {
    enum DuoMsg {
        0 => Spanner(msg),
        1 => Gryff(msg),
    }
}

/// A node of the composite deployment.
enum DuoNode {
    SpannerShard(Embedded<ShardNode, SpannerMsg>),
    GryffReplica(Embedded<GryffReplica, GryffMsg>),
    App(ComposedRunner<DuoMsg>),
}

impl LiveNode<DuoMsg> for DuoNode {
    fn drain_completions(&mut self, out: &mut Vec<(usize, CompletedRecord)>) {
        if let DuoNode::App(runner) = self {
            out.append(&mut runner.completed);
        }
    }
}

impl Node<DuoMsg> for DuoNode {
    fn on_start(&mut self, ctx: &mut Context<DuoMsg>) {
        match self {
            DuoNode::SpannerShard(n) => n.on_start(ctx),
            DuoNode::GryffReplica(n) => n.on_start(ctx),
            DuoNode::App(n) => n.on_start(ctx),
        }
    }
    fn on_message(&mut self, ctx: &mut Context<DuoMsg>, from: NodeId, msg: DuoMsg) {
        match self {
            DuoNode::SpannerShard(n) => n.on_message(ctx, from, msg),
            DuoNode::GryffReplica(n) => n.on_message(ctx, from, msg),
            DuoNode::App(n) => n.on_message(ctx, from, msg),
        }
    }
    fn on_timer(&mut self, ctx: &mut Context<DuoMsg>, tag: u64) {
        match self {
            DuoNode::SpannerShard(n) => n.on_timer(ctx, tag),
            DuoNode::GryffReplica(n) => n.on_timer(ctx, tag),
            DuoNode::App(n) => n.on_timer(ctx, tag),
        }
    }
    fn on_crash(&mut self, ctx: &mut Context<DuoMsg>) {
        match self {
            DuoNode::SpannerShard(n) => n.on_crash(ctx),
            DuoNode::GryffReplica(n) => n.on_crash(ctx),
            DuoNode::App(n) => n.on_crash(ctx),
        }
    }
    fn on_recover(&mut self, ctx: &mut Context<DuoMsg>) {
        match self {
            DuoNode::SpannerShard(n) => n.on_recover(ctx),
            DuoNode::GryffReplica(n) => n.on_recover(ctx),
            DuoNode::App(n) => n.on_recover(ctx),
        }
    }
}

/// One app node's results.
pub struct AppResult {
    /// The app's node id.
    pub node: NodeId,
    /// Completions annotated with the producing service index.
    pub completed: Vec<(usize, CompletedRecord)>,
    /// Auto-fences `libRSS` executed for this app.
    pub auto_fences: u64,
    /// Cross-process causal handoffs this app performed.
    pub handoffs: Vec<HandoffRecord>,
    /// Causal contexts imported by this app's sessions.
    pub contexts_imported: u64,
}

/// Which application drives the composed deployment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ComposedWorkload {
    /// Sessions alternate uniform/YCSB operations, hopping stores every
    /// `ops_per_service` operations.
    RoundRobin,
    /// The Section 2 photo-sharing app: uploader and worker lanes hopping
    /// between the photo store and the request queue on every step
    /// (`regular_workloads::photo`).
    PhotoApp,
}

/// Parameters of a composed run.
#[derive(Debug, Clone)]
pub struct ComposedRunConfig {
    /// Number of composed app nodes.
    pub num_apps: usize,
    /// Operations a session issues at one store before hopping to the next
    /// (round-robin workload only; the photo app hops every step).
    pub ops_per_service: usize,
    /// Session pipelining depth.
    pub batch: usize,
    /// Simulated seconds of load generation.
    pub duration_secs: u64,
    /// Extra simulated seconds to drain in-flight operations.
    pub drain_secs: u64,
    /// The application driving the stores.
    pub workload: ComposedWorkload,
    /// Scripted faults installed into the one shared engine. Node indices:
    /// Spanner shards are nodes `0..3`, Gryff replicas `3..8`, apps from 8.
    pub faults: FaultSchedule,
    /// Client-side operation timeout for both protocol cores; required (and
    /// only meaningful) when `faults` is non-empty.
    pub op_timeout: Option<SimDuration>,
    /// Export/import a cross-process `CausalContext` every this many
    /// completed batches per app (see
    /// [`ComposedRunner::with_context_handoff`]); `None` disables handoffs.
    pub handoff_every: Option<u64>,
    /// Event-queue implementation the shared engine runs on (differential
    /// tests run the same seed on both kinds and compare histories).
    pub queue_kind: QueueKind,
    /// Storage backing for both stores' nodes (`InMemory` keeps the
    /// pre-existing volatile behaviour; `Wal` routes shard and replica state
    /// through per-node write-ahead logs and recovers crashes from them).
    pub durability: Durability,
    /// Transport carrying messages on the live plane (ignored by the
    /// discrete-event engine, which has no transport to choose).
    pub transport: TransportKind,
}

impl Default for ComposedRunConfig {
    fn default() -> Self {
        ComposedRunConfig {
            num_apps: 3,
            ops_per_service: 3,
            batch: 1,
            duration_secs: 20,
            drain_secs: 10,
            workload: ComposedWorkload::RoundRobin,
            faults: FaultSchedule::default(),
            op_timeout: None,
            handoff_every: None,
            queue_kind: QueueKind::Indexed,
            durability: Durability::InMemory,
            transport: TransportKind::Mpsc,
        }
    }
}

/// The raw output of a composed run.
pub struct ComposedOutcome {
    /// Per-app completions.
    pub apps: Vec<AppResult>,
    /// Engine message counters (drops, duplicates, expirations included).
    pub net_stats: MessageStats,
    /// Aggregated WAL counters across every shard and replica (all zeroes
    /// under `Durability::InMemory`).
    pub storage: StorageSummary,
}

impl ComposedOutcome {
    /// Completed operations at the Spanner store (fences excluded).
    pub fn spanner_ops(&self) -> u64 {
        self.count(|svc, rec| svc == 0 && !rec.kind.is_fence())
    }

    /// Completed operations at the Gryff store (fences excluded).
    pub fn gryff_ops(&self) -> u64 {
        self.count(|svc, rec| svc != 0 && !rec.kind.is_fence())
    }

    /// Fence operations that completed (at either store).
    pub fn fences(&self) -> u64 {
        self.count(|_, rec| rec.kind.is_fence())
    }

    /// Auto-fences the `libRSS` planners executed across all apps.
    pub fn auto_fences(&self) -> u64 {
        self.apps.iter().map(|a| a.auto_fences).sum()
    }

    /// Total completions, fences included.
    pub fn total_completed(&self) -> usize {
        self.apps.iter().map(|a| a.completed.len()).sum()
    }

    /// Cross-process causal handoffs across all apps.
    pub fn handoffs(&self) -> u64 {
        self.apps.iter().map(|a| a.handoffs.len() as u64).sum()
    }

    fn count(&self, pred: impl Fn(usize, &CompletedRecord) -> bool) -> u64 {
        self.apps
            .iter()
            .flat_map(|a| a.completed.iter())
            .filter(|(svc, rec)| pred(*svc, rec))
            .count() as u64
    }
}

/// Runs the composite deployment: 3 Spanner-RSS shards + 5 Gryff-RSC
/// replicas, `config.num_apps` composed client nodes whose sessions
/// alternate between the two stores every `config.ops_per_service`
/// operations. Deterministic for a fixed `(seed, config)`.
pub fn run_composed(seed: u64, config: &ComposedRunConfig) -> ComposedOutcome {
    let mut spanner_cfg = SpannerConfig::wan(SpannerMode::SpannerRss);
    let mut gryff_cfg = GryffConfig::wan(regular_gryff::config::Mode::GryffRsc);
    spanner_cfg.op_timeout = config.op_timeout;
    gryff_cfg.op_timeout = config.op_timeout;
    spanner_cfg.durability = config.durability.clone();
    gryff_cfg.durability = config.durability.clone();
    assert!(
        config.faults.is_empty() || config.op_timeout.is_some(),
        "fault schedules need a client operation timeout, or lanes whose \
         requests are lost stall forever"
    );
    // Both topologies use regions 0..=4 of the Gryff WAN matrix; the Spanner
    // stores' three leaders sit in regions 0/1/2.
    let net = LatencyMatrix::gryff_wan();
    let stop_issuing_at = SimTime::from_secs(config.duration_secs);
    let engine_cfg = EngineConfig {
        default_service_time: spanner_cfg.shard_service_time,
        max_time: stop_issuing_at + SimDuration::from_secs(config.drain_secs),
        truetime_epsilon: spanner_cfg.truetime_epsilon,
        queue: config.queue_kind,
    };
    let mut engine: Engine<DuoMsg, DuoNode> = Engine::new(engine_cfg, net.clone(), seed);
    if !config.faults.is_empty() {
        engine.install_faults(config.faults.clone());
    }

    // Spanner shards.
    let mut shard_nodes = Vec::new();
    let mut replication_delays = Vec::new();
    for shard in 0..spanner_cfg.num_shards {
        let delay = spanner_cfg.replication_delay(shard, &net);
        replication_delays.push(delay);
        let id = engine.add_node_with(
            DuoNode::SpannerShard(Embedded::new(ShardNode::new(&spanner_cfg, shard, delay))),
            spanner_cfg.leader_regions[shard],
            spanner_cfg.shard_service_time,
        );
        shard_nodes.push(id);
    }
    // Gryff replicas, at node ids num_shards..num_shards+num_replicas: each
    // replica must know the group's node-id base for its rmw coordination
    // rounds.
    let replica_base = engine.num_nodes();
    let mut replica_nodes = Vec::new();
    for i in 0..gryff_cfg.num_replicas {
        let replica = GryffReplica::new(&gryff_cfg, i).with_first_node(replica_base);
        let id = engine.add_node_with(
            DuoNode::GryffReplica(Embedded::new(replica)),
            gryff_cfg.replica_regions[i],
            gryff_cfg.replica_service_time,
        );
        replica_nodes.push(id);
    }
    // Composed app nodes: each drives sessions hopping between both stores.
    let mut app_ids = Vec::new();
    for i in 0..config.num_apps {
        let region = i % 3;
        let s_core = SpannerService::new(regular_spanner::client_config(
            &spanner_cfg,
            &net,
            region,
            shard_nodes.clone(),
            replication_delays.clone(),
        ))
        .with_service_id(SPANNER_SERVICE);
        let g_core =
            GryffService::new(regular_gryff::client_config(&gryff_cfg, replica_nodes.clone()))
                .with_service_id(GRYFF_SERVICE);
        let services: Vec<Box<dyn Service<Msg = DuoMsg>>> = vec![
            Box::new(MappedService::with_tag_namespace(s_core, 0, 2)),
            Box::new(MappedService::with_tag_namespace(g_core, 1, 2)),
        ];
        let workload: Box<dyn MultiServiceWorkload> = match config.workload {
            ComposedWorkload::RoundRobin => Box::new(RoundRobinWorkload::new(
                vec![
                    Box::new(UniformWorkload { num_keys: 60, ro_fraction: 0.5, keys_per_txn: 2 })
                        as Box<dyn SessionWorkload>,
                    Box::new(ConflictWorkload::ycsb(0.5, 0.4, seed.wrapping_add(i as u64)))
                        as Box<dyn SessionWorkload>,
                ],
                config.ops_per_service,
            )),
            ComposedWorkload::PhotoApp => Box::new(PhotoSharingWorkload::default()),
        };
        let mut runner = ComposedRunner::new(
            services,
            SessionConfig::closed_loop(2, SimDuration::ZERO)
                .with_batch(config.batch)
                .with_workload_seed(seed.wrapping_mul(31).wrapping_add(i as u64)),
            stop_issuing_at,
            workload,
        );
        if let Some(every) = config.handoff_every {
            runner = runner.with_context_handoff(every);
        }
        let id =
            engine.add_node_with(DuoNode::App(runner), region, spanner_cfg.client_service_time);
        app_ids.push(id);
    }

    engine.run();

    if std::env::var_os("COMPOSED_DEBUG").is_some() {
        for id in 0..engine.num_nodes() {
            match engine.node(id) {
                DuoNode::SpannerShard(s) => eprintln!("node {id} {}", s.inner.debug_inflight()),
                DuoNode::GryffReplica(_) => {}
                DuoNode::App(runner) => eprintln!("app {id} {}", runner.debug_inflight()),
            }
        }
    }

    let apps = app_ids
        .into_iter()
        .map(|id| match engine.node(id) {
            DuoNode::App(runner) => AppResult {
                node: id,
                completed: runner.completed.clone(),
                auto_fences: runner.fence_stats().executed,
                handoffs: runner.handoffs.clone(),
                contexts_imported: runner.stats.contexts_imported,
            },
            _ => unreachable!("app ids point at composed runners"),
        })
        .collect();
    let mut storage = StorageSummary::default();
    for id in shard_nodes.iter().chain(replica_nodes.iter()) {
        match engine.node(*id) {
            DuoNode::SpannerShard(s) => storage.add_wal(&s.inner.wal_stats()),
            DuoNode::GryffReplica(r) => storage.add_wal(&r.inner.wal_stats()),
            DuoNode::App(_) => unreachable!("store ids point at protocol nodes"),
        }
    }
    ComposedOutcome { apps, net_stats: engine.message_stats(), storage }
}

/// The outcome of a live composed run: the per-app results in the exact
/// shape [`run_composed`] produces (so [`certify_composed`] is shared
/// between planes), plus the wall-clock metrics and the transport's
/// delivery log only the live plane has.
pub struct ComposedLiveRun {
    /// Per-app completions and message counters.
    pub outcome: ComposedOutcome,
    /// Wall-clock duration of the run.
    pub wall: Duration,
    /// Non-fence completions per wall-clock second.
    pub wall_throughput: f64,
    /// Simulated time when the run stopped.
    pub finished_at: SimTime,
    /// The transport's delivery log (empty unless recording was enabled).
    pub deliveries: Vec<DeliveryRecord>,
    /// Socket traffic counters (all zeros on the mpsc transport).
    pub wire: WireStats,
}

/// [`run_composed`] on the live execution plane: the same node graph of
/// 3 shards, 5 replicas, and the app runners, but every node is an OS thread
/// and time is the scaled wall clock. `config.queue_kind` is ignored — there is no event queue to
/// choose. Live runs are *not* bit-deterministic for a seed; pass
/// `record_deliveries` to preserve the schedule evidence for artifacts.
pub fn run_composed_live(
    seed: u64,
    config: &ComposedRunConfig,
    time_scale: u64,
    record_deliveries: bool,
) -> ComposedLiveRun {
    let mut spanner_cfg = SpannerConfig::wan(SpannerMode::SpannerRss);
    let mut gryff_cfg = GryffConfig::wan(regular_gryff::config::Mode::GryffRsc);
    spanner_cfg.op_timeout = config.op_timeout;
    gryff_cfg.op_timeout = config.op_timeout;
    spanner_cfg.durability = config.durability.clone();
    gryff_cfg.durability = config.durability.clone();
    assert!(
        config.faults.is_empty() || config.op_timeout.is_some(),
        "fault schedules need a client operation timeout, or lanes whose \
         requests are lost stall forever"
    );
    let net = LatencyMatrix::gryff_wan();
    let stop_issuing_at = SimTime::from_secs(config.duration_secs);

    // Same node-id layout as `run_composed`: shards, then replicas, then
    // apps, so fault scripts written against one plane hit the same victims
    // on the other.
    let mut nodes: Vec<(DuoNode, usize)> = Vec::new();
    let mut shard_nodes = Vec::new();
    let mut replication_delays = Vec::new();
    for shard in 0..spanner_cfg.num_shards {
        let delay = spanner_cfg.replication_delay(shard, &net);
        replication_delays.push(delay);
        shard_nodes.push(nodes.len());
        nodes.push((
            DuoNode::SpannerShard(Embedded::new(ShardNode::new(&spanner_cfg, shard, delay))),
            spanner_cfg.leader_regions[shard],
        ));
    }
    let replica_base = nodes.len();
    let mut replica_nodes = Vec::new();
    for i in 0..gryff_cfg.num_replicas {
        let replica = GryffReplica::new(&gryff_cfg, i).with_first_node(replica_base);
        replica_nodes.push(nodes.len());
        nodes.push((DuoNode::GryffReplica(Embedded::new(replica)), gryff_cfg.replica_regions[i]));
    }
    let app_base = nodes.len();
    for i in 0..config.num_apps {
        let region = i % 3;
        let s_core = SpannerService::new(regular_spanner::client_config(
            &spanner_cfg,
            &net,
            region,
            shard_nodes.clone(),
            replication_delays.clone(),
        ))
        .with_service_id(SPANNER_SERVICE);
        let g_core =
            GryffService::new(regular_gryff::client_config(&gryff_cfg, replica_nodes.clone()))
                .with_service_id(GRYFF_SERVICE);
        let services: Vec<Box<dyn Service<Msg = DuoMsg>>> = vec![
            Box::new(MappedService::with_tag_namespace(s_core, 0, 2)),
            Box::new(MappedService::with_tag_namespace(g_core, 1, 2)),
        ];
        let workload: Box<dyn MultiServiceWorkload> = match config.workload {
            ComposedWorkload::RoundRobin => Box::new(RoundRobinWorkload::new(
                vec![
                    Box::new(UniformWorkload { num_keys: 60, ro_fraction: 0.5, keys_per_txn: 2 })
                        as Box<dyn SessionWorkload>,
                    Box::new(ConflictWorkload::ycsb(0.5, 0.4, seed.wrapping_add(i as u64)))
                        as Box<dyn SessionWorkload>,
                ],
                config.ops_per_service,
            )),
            ComposedWorkload::PhotoApp => Box::new(PhotoSharingWorkload::default()),
        };
        let mut runner = ComposedRunner::new(
            services,
            SessionConfig::closed_loop(2, SimDuration::ZERO)
                .with_batch(config.batch)
                .with_workload_seed(seed.wrapping_mul(31).wrapping_add(i as u64)),
            stop_issuing_at,
            workload,
        );
        if let Some(every) = config.handoff_every {
            runner = runner.with_context_handoff(every);
        }
        nodes.push((DuoNode::App(runner), region));
    }

    let live_cfg = LiveConfig {
        seed,
        faults: config.faults.clone(),
        truetime_epsilon: spanner_cfg.truetime_epsilon,
        time_scale,
        stop_at: stop_issuing_at + SimDuration::from_secs(config.drain_secs),
        record_deliveries,
    };
    let outcome: LiveOutcome<DuoNode> =
        run_live_transport(live_cfg, Box::new(net), nodes, config.transport);
    let LiveOutcome { nodes, mut completed, net_stats, deliveries, finished_at, wall, wire } =
        outcome;

    let mut apps = Vec::new();
    let mut storage = StorageSummary::default();
    for (id, node) in nodes.into_iter().enumerate() {
        match node {
            DuoNode::SpannerShard(s) => storage.add_wal(&s.inner.wal_stats()),
            DuoNode::GryffReplica(r) => storage.add_wal(&r.inner.wal_stats()),
            DuoNode::App(runner) => {
                debug_assert!(id >= app_base, "nodes from app_base on are composed runners");
                let auto_fences = runner.fence_stats().executed;
                apps.push(AppResult {
                    node: id,
                    completed: std::mem::take(&mut completed[id]),
                    auto_fences,
                    handoffs: runner.handoffs,
                    contexts_imported: runner.stats.contexts_imported,
                });
            }
        }
    }
    let outcome = ComposedOutcome { apps, net_stats, storage };
    let measured = outcome.spanner_ops() + outcome.gryff_ops();
    let wall_secs = wall.as_secs_f64();
    let wall_throughput = if wall_secs > 0.0 { measured as f64 / wall_secs } else { 0.0 };
    ComposedLiveRun { outcome, wall, wall_throughput, finished_at, deliveries, wire }
}

/// A certified composed run: the combined history and the accepted witness.
pub struct CertifiedComposed {
    /// The combined two-store history.
    pub history: History,
    /// The witness accepted by the Regular (RSS) certificate checker.
    pub witness: Vec<OpId>,
}

/// Why certification of a composed run failed. Carries the history (and the
/// witness when one was assembled) so callers can dump a replayable
/// artifact.
pub struct ComposedViolation {
    /// Human-readable description.
    pub reason: String,
    /// The combined history.
    pub history: History,
    /// The rejected witness (empty when the constraints were cyclic and no
    /// witness could be assembled).
    pub witness: Vec<OpId>,
}

/// Builds the combined history of a composed run and certifies it against
/// the RSS (Regular) witness model, sharding the certificate check across
/// `check_threads` threads.
///
/// Edge construction per protocol:
///
/// * Spanner **read-write** transactions are chained in commit-timestamp
///   order (writes really are totally ordered; commit wait keeps that order
///   consistent with real time and the cross-service hops). Read-only
///   transactions are *not* chained globally — RSS lets a stale snapshot
///   float later in the serialization, which the cross-service causal edges
///   exploit — but each is pinned per key between the version it observed
///   and the next write of that key.
/// * Gryff ops contribute their per-key carstamp chains.
/// * Every session lane contributes its process order — including the
///   cross-service hops the fences make safe.
pub fn certify_composed(
    run: &ComposedOutcome,
    check_threads: usize,
) -> Result<CertifiedComposed, ComposedViolation> {
    let mut recorder = HistoryRecorder::new();
    // Spanner read-write transactions: (ts, finish, op).
    let mut spanner_rw: Vec<(u64, u64, OpId)> = Vec::new();
    // Spanner writes per key: (ts, value, op).
    let mut spanner_writes: HashMap<u64, Vec<(u64, u64, OpId)>> = HashMap::new();
    // Spanner read-only transactions: (serialization ts, op, [(key, value)]).
    type SpannerRo = (u64, OpId, Vec<(u64, u64)>);
    let mut spanner_ro: Vec<SpannerRo> = Vec::new();
    let mut per_key: HashMap<u64, Vec<(Carstamp, u8, u64, OpId)>> = HashMap::new();
    for app in &run.apps {
        let client = app.node;
        for (svc, rec) in &app.completed {
            let id = recorder.record(client as u64, rec);
            match *svc {
                0 => {
                    let ts = rec.witness_ts().unwrap_or_else(|| rec.finish.as_micros());
                    match (&rec.kind, &rec.result) {
                        (OpKind::RwTxn { writes, .. }, _) => {
                            spanner_rw.push((ts, rec.finish.as_micros(), id));
                            for (k, v) in writes {
                                spanner_writes.entry(k.0).or_default().push((ts, v.0, id));
                            }
                        }
                        (OpKind::RoTxn { .. }, OpResult::Values(vs)) => {
                            spanner_ro.push((ts, id, vs.iter().map(|(k, v)| (k.0, v.0)).collect()));
                        }
                        _ => {} // fences: process order only
                    }
                }
                _ => {
                    let (key, rank) = match &rec.kind {
                        OpKind::Read { key } => (Some(*key), 1),
                        OpKind::Write { key, .. } | OpKind::Rmw { key, .. } => (Some(*key), 0),
                        _ => (None, 0),
                    };
                    if let (Some(k), WitnessHint::Carstamp { count, writer, rmwc }) =
                        (key, rec.witness)
                    {
                        per_key.entry(k.0).or_default().push((
                            Carstamp { count, writer, rmwc },
                            rank,
                            rec.finish.as_micros(),
                            id,
                        ));
                    }
                }
            }
        }
    }
    let mut edges: Vec<(OpId, OpId)> = Vec::new();
    // Spanner write chain.
    spanner_rw.sort_unstable();
    for w in spanner_rw.windows(2) {
        edges.push((w[0].2, w[1].2));
    }
    // Spanner read-only placement: after the observed version, before the
    // next write of each read key.
    for list in spanner_writes.values_mut() {
        list.sort_unstable();
    }
    for (ts, ro, reads) in &spanner_ro {
        for (key, value) in reads {
            let Some(writes) = spanner_writes.get(key) else { continue };
            if *value != 0 {
                if let Some(&(_, _, w)) = writes.iter().find(|(_, v, _)| v == value) {
                    edges.push((w, *ro));
                }
            }
            if let Some(&(_, _, w_next)) = writes.iter().find(|(wts, _, _)| wts > ts) {
                edges.push((*ro, w_next));
            }
        }
    }
    // Gryff carstamp chains.
    for (_, mut items) in per_key {
        items.sort_unstable();
        for w in items.windows(2) {
            edges.push((w[0].3, w[1].3));
        }
    }
    edges.extend(recorder.process_order_edges());
    // Cross-process causal handoffs (Section 4.2): each is an external
    // communication of the history, and a serialization constraint — every
    // operation the exporter completed before serializing its context must
    // precede everything the importer issued after deserializing it. The
    // imported context's inherited fence is what makes these constraints
    // satisfiable.
    for app in &run.apps {
        let client = app.node as u64;
        for h in &app.handoffs {
            let sent = h.exported_at.as_micros();
            let received = h.imported_at.as_micros();
            recorder.record_external_communication(
                (client, h.from.session, h.from.slot),
                sent,
                (client, h.to.session, h.to.slot),
                received,
            );
            if let (Some(before), Some(after)) = (
                recorder.last_completed_before(client, h.from.session, h.from.slot, sent),
                recorder.first_invoked_after(client, h.to.session, h.to.slot, received),
            ) {
                edges.push((before, after));
            }
        }
    }
    let history = recorder.into_history();
    if let Err(e) = history.validate() {
        return Err(ComposedViolation {
            reason: format!("combined history is malformed: {e:?}"),
            history,
            witness: Vec::new(),
        });
    }
    let witness = match assemble_witness(&history, &edges, WitnessModel::Regular) {
        Ok(w) => w,
        Err(e) => {
            return Err(ComposedViolation {
                reason: format!(
                    "combined constraints are cyclic ({} ops unordered): no RSS serialization",
                    e.unordered
                ),
                history,
                witness: Vec::new(),
            });
        }
    };
    let index = HistoryIndex::new(&history);
    match check_witness_parallel(&history, &index, &witness, WitnessModel::Regular, check_threads) {
        Ok(()) => Ok(CertifiedComposed { history, witness }),
        Err(v) => Err(ComposedViolation {
            reason: format!("combined execution violates RSS: {v:?}"),
            history,
            witness,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use regular_gryff::messages::OpRef;
    use regular_spanner::messages::TxnId;
    use regular_storage::codec::check_layout;

    #[test]
    fn every_variant_keeps_its_bytes() {
        check_layout(
            DuoMsg::TAGS,
            &[
                (
                    DuoMsg::Spanner(SpannerMsg::AbortRequest { txn: TxnId { client: 1, seq: 2 } }),
                    "000801000000000000000200000000000000",
                ),
                (
                    DuoMsg::Gryff(GryffMsg::Write2Reply { op: OpRef { node: 1, seq: 2 } }),
                    "010501000000000000000200000000000000",
                ),
            ],
        );
    }
}
