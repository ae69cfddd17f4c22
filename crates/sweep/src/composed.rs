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
use regular_core::checker::certificate::{check_witness, WitnessModel};
use regular_core::history::{ByProcess, History};
use regular_core::op::{OpKind, OpResult};
use regular_core::types::{OpId, ServiceId};
use regular_gryff::prelude::{GryffConfig, GryffService};
use regular_gryff::replica::GryffReplica;
use regular_gryff::workload::ConflictWorkload;
use regular_gryff::{carstamp_chain_edges, GryffMsg};
use regular_session::{
    fold, measure, CompletedRecord, Deployment, HandoffRecord, HistoryRecorder, MappedService,
    Measured, MultiServiceWorkload, NodeSpec, Part, Plane, PlaneNode, RoundRobinWorkload, Service,
    SessionConfig, SessionRunner, SessionStats, SessionWorkload, SimPlane,
};
use regular_sim::compose::Embedded;
use regular_sim::engine::{Context, Node, NodeId};
use regular_sim::fault::FaultSchedule;
use regular_sim::metrics::{DeliveryRecord, MessageStats, WireStats};
use regular_sim::net::LatencyMatrix;
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
// A deployment has a dozen of these, each held for the whole run: the size
// difference between a shard leader and a replica costs nothing.
#[allow(clippy::large_enum_variant)]
enum DuoNode {
    SpannerShard(Embedded<ShardNode, SpannerMsg>),
    GryffReplica(Embedded<GryffReplica, GryffMsg>),
    App(SessionRunner<dyn Service<Msg = DuoMsg>>),
}

impl PlaneNode<DuoMsg> for DuoNode {
    fn drain_completions(&mut self, out: &mut Vec<(usize, CompletedRecord)>) {
        if let DuoNode::App(runner) = self {
            runner.drain_completions(out);
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
    /// Scripted faults of the one shared deployment. Node indices:
    /// Spanner shards are nodes `0..3`, Gryff replicas `3..8`, apps from 8.
    pub faults: FaultSchedule,
    /// Client-side operation timeout for both protocol cores; required (and
    /// only meaningful) when `faults` is non-empty.
    pub op_timeout: Option<SimDuration>,
    /// Export/import a cross-process `CausalContext` every this many
    /// completed batches per app (see
    /// [`SessionRunner::with_context_handoff`]); `None` disables handoffs.
    pub handoff_every: Option<u64>,
    /// Storage backing for both stores' nodes (`InMemory` keeps the
    /// pre-existing volatile behaviour; `Wal` routes shard and replica state
    /// through per-node write-ahead logs and recovers crashes from them).
    pub durability: Durability,
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
            durability: Durability::InMemory,
        }
    }
}

/// The raw output of a composed run, on either plane.
pub struct ComposedOutcome {
    /// Per-app completions.
    pub apps: Vec<AppResult>,
    /// Message counters (drops, duplicates, expirations included).
    pub net_stats: MessageStats,
    /// Aggregated WAL counters across every shard and replica (all zeroes
    /// under `Durability::InMemory`).
    pub storage: StorageSummary,
    /// Aggregated session-scheduler statistics across all apps.
    pub session_stats: SessionStats,
    /// Wall-clock duration of the run; zero on the simulator.
    pub wall: Duration,
    /// Measured completions (neither fences nor orphans, see
    /// [`regular_session::measure`]) per wall-clock second; 0 on the
    /// simulator.
    pub wall_throughput: f64,
    /// The live transport's delivery log (empty unless recording was
    /// enabled; always empty on the simulator).
    pub deliveries: Vec<DeliveryRecord>,
    /// Socket traffic counters (all zeros off the socket transports).
    pub wire: WireStats,
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

/// Assembles the composite deployment: 3 Spanner-RSS shards (nodes `0..3`),
/// 5 Gryff-RSC replicas (`3..8`), then `config.num_apps` composed client
/// nodes whose sessions alternate between the two stores every
/// `config.ops_per_service` operations. Fault scripts address these ids on
/// either plane.
fn build(seed: u64, config: &ComposedRunConfig) -> Deployment<DuoNode> {
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
    let mut nodes = Vec::new();

    // Spanner shards.
    let mut replication_delays = Vec::new();
    for shard in 0..spanner_cfg.num_shards {
        let delay = spanner_cfg.replication_delay(shard, &net);
        replication_delays.push(delay);
        nodes.push(NodeSpec {
            node: DuoNode::SpannerShard(Embedded::new(ShardNode::new(&spanner_cfg, shard, delay))),
            region: spanner_cfg.leader_regions[shard],
            service_time: spanner_cfg.shard_service_time,
        });
    }
    let shard_nodes: Vec<NodeId> = (0..nodes.len()).collect();
    // Gryff replicas, at node ids num_shards..num_shards+num_replicas: each
    // replica must know the group's node-id base for its rmw coordination
    // rounds.
    let replica_base = nodes.len();
    for i in 0..gryff_cfg.num_replicas {
        let replica = GryffReplica::new(&gryff_cfg, i).with_first_node(replica_base);
        nodes.push(NodeSpec {
            node: DuoNode::GryffReplica(Embedded::new(replica)),
            region: gryff_cfg.replica_regions[i],
            service_time: gryff_cfg.replica_service_time,
        });
    }
    let replica_nodes: Vec<NodeId> = (replica_base..nodes.len()).collect();
    // Composed app nodes: each drives sessions hopping between both stores.
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
        let mut runner = SessionRunner::new(
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
        nodes.push(NodeSpec {
            node: DuoNode::App(runner),
            region,
            service_time: spanner_cfg.client_service_time,
        });
    }
    Deployment {
        nodes,
        net,
        faults: config.faults.clone(),
        seed,
        truetime_epsilon: spanner_cfg.truetime_epsilon,
        stop_at: stop_issuing_at + SimDuration::from_secs(config.drain_secs),
    }
}

/// Runs the composite deployment — 3 Spanner-RSS shards + 5 Gryff-RSC
/// replicas + `config.num_apps` composed app nodes — on `plane`, and folds
/// what it hands back: the shared part, with each app's completions, fences
/// and handoffs. On the simulator the run is deterministic for a fixed
/// `(seed, config)`; live runs are not (pass a plane that records
/// deliveries to keep the schedule evidence for artifacts).
pub fn run_composed_on(
    plane: &impl Plane<DuoMsg>,
    seed: u64,
    config: &ComposedRunConfig,
) -> ComposedOutcome {
    let ran = plane.run(build(seed, config));
    let run = fold(ran.nodes, ran.completed, |node, duo, completed| match duo {
        DuoNode::SpannerShard(s) => Part::Server(s.inner.wal_stats()),
        DuoNode::GryffReplica(r) => Part::Server(r.inner.wal_stats()),
        DuoNode::App(runner) => Part::Client(
            runner.stats,
            AppResult {
                node,
                completed,
                auto_fences: runner.fence_stats().executed,
                handoffs: runner.handoffs,
            },
        ),
    });
    let records = run.clients.iter().flat_map(|app| &app.completed).map(|(_, rec)| rec);
    let measured: Measured<0> =
        measure(records, SimTime::ZERO, ran.finished_at, ran.wall, |_| None);
    ComposedOutcome {
        apps: run.clients,
        net_stats: ran.net_stats,
        storage: run.storage,
        session_stats: run.session_stats,
        wall: ran.wall,
        wall_throughput: measured.wall_throughput,
        deliveries: ran.deliveries,
        wire: ran.wire,
    }
}

/// [`run_composed_on`] the deterministic simulator.
pub fn run_composed(seed: u64, config: &ComposedRunConfig) -> ComposedOutcome {
    run_composed_on(&SimPlane::default(), seed, config)
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
/// the RSS (Regular) witness model with the reference checker.
pub fn certify_composed(run: &ComposedOutcome) -> Result<CertifiedComposed, ComposedViolation> {
    let (history, witness) = assemble_composed(run)?;
    match check_witness(&history, &witness, WitnessModel::Regular) {
        Ok(()) => Ok(CertifiedComposed { history, witness }),
        Err(v) => Err(ComposedViolation {
            reason: format!("combined execution violates RSS: {v:?}"),
            history,
            witness,
        }),
    }
}

/// Builds the combined history of a composed run and the serialization
/// witness its timestamps and carstamps induce; checks neither (the sweep
/// hands both to the certifier every scenario shares).
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
pub(crate) fn assemble_composed(
    run: &ComposedOutcome,
) -> Result<(History, Vec<OpId>), ComposedViolation> {
    let total = run.apps.iter().map(|app| app.completed.len()).sum();
    let mut recorder = HistoryRecorder::with_capacity(total);
    // Spanner read-write transactions: (ts, finish, op).
    let mut spanner_rw: Vec<(u64, u64, OpId)> = Vec::new();
    // Spanner writes per key: (ts, value, op).
    let mut spanner_writes: HashMap<u64, Vec<(u64, u64, OpId)>> = HashMap::new();
    // Spanner read-only transactions: (serialization ts, op, [(key, value)]).
    type SpannerRo = (u64, OpId, Vec<(u64, u64)>);
    let mut spanner_ro: Vec<SpannerRo> = Vec::new();
    // Every completion by op id; only Gryff's carry carstamps.
    let mut records: Vec<&CompletedRecord> = Vec::with_capacity(total);
    for app in &run.apps {
        let client = app.node;
        for (svc, rec) in &app.completed {
            let id = recorder.record(client as u64, rec);
            debug_assert_eq!(id.index(), records.len());
            records.push(rec);
            // Gryff completions are ordered by their carstamp chains, below.
            if *svc == 0 {
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
        }
    }
    let mut edges: Vec<(OpId, OpId)> = Vec::with_capacity(2 * total);
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
    edges.extend(carstamp_chain_edges(&records));
    drop(records);
    let by_process = ByProcess::new(recorder.history());
    edges.extend(by_process.pairs());
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
            let from = (client, h.from.session, h.from.slot);
            let to = (client, h.to.session, h.to.slot);
            recorder.record_external_communication(from, sent, to, received);
            if let (Some(before), Some(after)) = (
                recorder.last_completed_before(&by_process, from, sent),
                recorder.first_invoked_after(&by_process, to, received),
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
    match assemble_witness(&history, &edges, WitnessModel::Regular) {
        Ok(witness) => Ok((history, witness)),
        Err(e) => Err(ComposedViolation {
            reason: format!(
                "combined constraints are cyclic ({} ops unordered): no RSS serialization",
                e.unordered
            ),
            history,
            witness: Vec::new(),
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
