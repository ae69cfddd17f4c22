//! One input, one runner: the description of a certified run that the sweep
//! and the hunter share, and [`run_input`], the one function that simulates
//! and certifies it.
//!
//! A [`HuntInput`] is a point in the `(seed, workload, fault schedule,
//! delivery order)` space: an engine seed, millisecond-granularity fault
//! events, per-dispatch delivery nudges, a run length, and what drives the
//! deployment — scripted sessions on the five-region Gryff-RSC WAN, or one of
//! the sweep's generated [`Workload`]s, which also fixes the deployment. A
//! sweep scenario is an input (`Scenario::input`); the hunter mutates and
//! shrinks inputs. Every dimension is stored in a simplified encoding (fault
//! events rather than a raw [`FaultSchedule`]) so mutation stays structural
//! and every input — however mangled — lowers into a schedule the engine
//! accepts: windows are clamped to positive length, node and region indices
//! wrapped by the deployment's own server and region counts, and overlapping
//! crash windows of one node dropped.
//!
//! The JSON form ([`JsonLayout`]) is what every `FailureArtifact` carries in
//! its `schedule` field: enough to re-simulate, and shrink, the exact failing
//! execution from nothing but the artifact.

use std::time::Instant;

use regular_core::types::Key;
use regular_core::{CoverageSignature, History, OpId, WitnessModel};
use regular_gryff::prelude as gryff;
use regular_live::{DeliveryRecord, LivePlane, Wire};
use regular_session::{
    CompletedRecord, Deployment, Plane, PlaneNode, Ran, SessionConfig, SessionOp, SessionWorkload,
    SimPlane,
};
use regular_sim::fault::{FaultSchedule, LinkScope};
use regular_sim::metrics::MessageStats;
use regular_sim::net::{LatencyMatrix, Region};
use regular_sim::time::{SimDuration, SimTime};
use regular_spanner::prelude as spanner;
use regular_storage::{Durability, StorageRegistry, StorageSummary, WalOptions};

use crate::artifact::{model_name, FailureArtifact};
use crate::composed::{assemble_composed, run_composed_on, ComposedRunConfig, ComposedWorkload};
use crate::json::JsonLayout;
use crate::json_layout;
use crate::stream::{certify_streaming, StreamStats};

/// The witness model every input is certified against: RSS for Spanner and
/// the composed deployment, RSC for Gryff.
const MODEL: WitnessModel = WitnessModel::Regular;

/// One scripted client operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HuntOp {
    /// Read a key.
    Read(u64),
    /// Write a fresh value to a key.
    Write(u64),
    /// Read-modify-write a key.
    Rmw(u64),
}

impl HuntOp {
    /// The session-layer operation this scripted op issues.
    pub fn to_session_op(self) -> SessionOp {
        match self {
            HuntOp::Read(k) => SessionOp::Read { key: Key(k) },
            HuntOp::Write(k) => SessionOp::Write { key: Key(k) },
            HuntOp::Rmw(k) => SessionOp::Rmw { key: Key(k) },
        }
    }

    /// The key this op touches.
    pub fn key(self) -> u64 {
        match self {
            HuntOp::Read(k) | HuntOp::Write(k) | HuntOp::Rmw(k) => k,
        }
    }
}

/// A scripted op is `[kind, key]`, its kind the index of its variant here;
/// not a layout, because the variant is a number inside the array.
const HUNT_OPS: [fn(u64) -> HuntOp; 3] = [HuntOp::Read, HuntOp::Write, HuntOp::Rmw];

impl JsonLayout for HuntOp {
    fn to_json(&self) -> crate::Json {
        let kind = HUNT_OPS.iter().position(|op| op(self.key()) == *self);
        (kind.expect("every op is in HUNT_OPS"), self.key()).to_json()
    }

    fn from_json(json: &crate::Json) -> Result<Self, String> {
        let (kind, key): (usize, u64) = JsonLayout::from_json(json)?;
        HUNT_OPS.get(kind).map(|op| op(key)).ok_or_else(|| format!("unknown hunt op kind {kind}"))
    }
}

/// One scripted fault, in milliseconds of simulated time. Events are
/// normalized (clamped, wrapped, de-overlapped) when lowered into a
/// [`FaultSchedule`], so mutation can shift and retarget them freely.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultEvent {
    /// Crash a server for a window, then recover it.
    Crash {
        /// Server node id (wrapped modulo the deployment's server count).
        node: usize,
        /// Crash instant.
        at_ms: u64,
        /// Window length (clamped to ≥ 1 ms).
        dur_ms: u64,
    },
    /// Partition a region away from all others.
    Partition {
        /// Region index (wrapped modulo the deployment's region count).
        region: usize,
        /// Partition instant.
        at_ms: u64,
        /// Window length (clamped to ≥ 1 ms).
        dur_ms: u64,
    },
    /// Cut only the `from -> to` direction of a link (a grey failure).
    CutOneWay {
        /// Source region.
        from: usize,
        /// Destination region.
        to: usize,
        /// Cut instant.
        at_ms: u64,
        /// Window length (clamped to ≥ 1 ms).
        dur_ms: u64,
    },
    /// Drop every message with some probability, on all links.
    Drop {
        /// Window start.
        at_ms: u64,
        /// Window length (clamped to ≥ 1 ms).
        dur_ms: u64,
        /// Drop probability in permille (clamped to ≤ 1000).
        permille: u32,
    },
    /// Deliver every message twice with some probability, on all links.
    Duplicate {
        /// Window start.
        at_ms: u64,
        /// Window length (clamped to ≥ 1 ms).
        dur_ms: u64,
        /// Duplication probability in permille (clamped to ≤ 1000).
        permille: u32,
    },
}

impl FaultEvent {
    /// The window start in milliseconds.
    pub fn at_ms(&self) -> u64 {
        match *self {
            FaultEvent::Crash { at_ms, .. }
            | FaultEvent::Partition { at_ms, .. }
            | FaultEvent::CutOneWay { at_ms, .. }
            | FaultEvent::Drop { at_ms, .. }
            | FaultEvent::Duplicate { at_ms, .. } => at_ms,
        }
    }
}

json_layout! {
    enum FaultEvent on "f" {
        "crash" => Crash { node, at_ms, dur_ms },
        "partition" => Partition { region, at_ms, dur_ms },
        "cut_oneway" => CutOneWay { from, to, at_ms, dur_ms },
        "drop" => Drop { at_ms, dur_ms, permille },
        "duplicate" => Duplicate { at_ms, dur_ms, permille },
    }
}

/// A generated workload, and with it the deployment it drives. Sessions and
/// their key streams are drawn from the input's seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Spanner-RSS on the three-region WAN: three client nodes of four
    /// closed-loop sessions, uniform over 250 keys, half read-only.
    SpannerUniform,
    /// Gryff-RSC on the five-region WAN: one client node per region with
    /// three closed-loop sessions, a conflict-heavy YCSB mix.
    GryffYcsb,
    /// The composed two-store deployment: three app nodes whose sessions hop
    /// between Spanner-RSS and Gryff-RSC every three operations.
    ComposedRoundRobin,
    /// The composed deployment driven by the photo-sharing app, every step a
    /// fenced service switch, with cross-process causal handoffs.
    ComposedPhoto,
}

/// Stable name of a workload (its JSON form).
pub fn workload_name(workload: Workload) -> &'static str {
    match workload {
        Workload::SpannerUniform => "spanner-uniform",
        Workload::GryffYcsb => "gryff-ycsb",
        Workload::ComposedRoundRobin => "composed-round-robin",
        Workload::ComposedPhoto => "composed-photo",
    }
}

json_layout! {
    enum Workload by workload_name { SpannerUniform, GryffYcsb, ComposedRoundRobin, ComposedPhoto }
}

/// What a workload's deployment exposes to fault lowering, and how its runs
/// are timed.
struct Shape {
    /// Protocol servers, at node ids `0..servers`: what a crash wraps by.
    servers: usize,
    /// Regions of the latency matrix: what a partition or cut wraps by.
    regions: usize,
    /// Client operation timeout, armed whenever the schedule is non-empty.
    op_timeout_ms: u64,
    /// Simulated seconds after the clients stop for in-flight work to end.
    drain_s: u64,
    /// Start of the measurement window (the composed deployment measures
    /// the whole run).
    measure_from_s: u64,
}

/// The one table of deployments: scripted Gryff sessions (`None`) first,
/// then the generated workloads.
const fn shape(workload: Option<Workload>) -> Shape {
    let (servers, regions, op_timeout_ms, drain_s, measure_from_s) = match workload {
        None => (5, 5, 400, 2, 0),
        Some(Workload::SpannerUniform) => (3, 3, 1_500, 8, 1),
        Some(Workload::GryffYcsb) => (5, 5, 1_500, 8, 1),
        Some(Workload::ComposedRoundRobin) => (8, 5, 1_500, 10, 0),
        Some(Workload::ComposedPhoto) => (8, 5, 1_500, 12, 0),
    };
    Shape { servers, regions, op_timeout_ms, drain_s, measure_from_s }
}

/// One point in the explored input space.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HuntInput {
    /// Engine seed (network jitter, probabilistic fault sampling) and, for a
    /// generated workload, the seed of its sessions' key streams.
    pub seed: u64,
    /// Scripted operations, one list per session, for the scripted Gryff
    /// deployment (`workload` absent): each session becomes its own
    /// closed-loop client node in region `i % 5`, and a session that
    /// exhausts its script idles on key-0 reads until the run stops. A
    /// generated workload ignores them.
    pub sessions: Vec<Vec<HuntOp>>,
    /// Scripted faults (normalized when lowered into a [`FaultSchedule`]).
    pub faults: Vec<FaultEvent>,
    /// Delivery-order nudges: `(dispatch sequence, extra delay in µs)`.
    pub nudges: Vec<(u64, u64)>,
    /// Clients stop issuing at this instant (ms); the run then drains. The
    /// composed deployment issues in whole seconds, rounded up.
    pub stop_ms: u64,
    /// The generated workload and the deployment it fixes; absent means the
    /// scripted sessions on the Gryff-RSC WAN.
    pub workload: Option<Workload>,
    /// Every protocol node on a write-ahead log.
    pub durable: bool,
}

json_layout! {
    struct HuntInput as "kind": "hunt-input" {
        seed, stop_ms, sessions, faults, nudges; omit workload, durable
    }
}

impl HuntInput {
    /// Total scripted operations across all sessions.
    pub fn scripted_ops(&self) -> usize {
        self.sessions.iter().map(Vec::len).sum()
    }

    /// Protocol servers of the input's deployment (the range a crash's node
    /// wraps into).
    pub fn servers(&self) -> usize {
        shape(self.workload).servers
    }

    /// Regions of the input's deployment (the range a partition's or cut's
    /// region wraps into).
    pub fn regions(&self) -> usize {
        shape(self.workload).regions
    }

    /// Lowers the fault events and nudges into an engine-ready
    /// [`FaultSchedule`], normalizing everything the engine would reject:
    /// windows are clamped to ≥ 1 ms, node and region indices wrapped by the
    /// deployment's server and region counts, probabilities clamped to 1,
    /// and — because the engine refuses overlapping crash windows per node —
    /// later crash events overlapping an earlier window of the same node are
    /// dropped. Events lower in `at_ms` order, ties in script order, which
    /// is also the order equal-time message windows are consulted in.
    pub fn fault_schedule(&self) -> FaultSchedule {
        let (servers, regions) = (self.servers(), self.regions());
        let mut schedule = FaultSchedule::new();
        // (node, from, until) for the per-node crash overlap filter.
        let mut crash_windows: Vec<(usize, u64, u64)> = Vec::new();
        let mut events = self.faults.clone();
        events.sort_by_key(FaultEvent::at_ms);
        let window = |at_ms: u64, dur_ms: u64| {
            (SimTime::from_millis(at_ms), SimTime::from_millis(at_ms + dur_ms.max(1)))
        };
        let probability = |permille: u32| f64::from(permille.min(1_000)) / 1_000.0;
        for ev in events {
            schedule = match ev {
                FaultEvent::Crash { node, at_ms, dur_ms } => {
                    let node = node % servers;
                    let until = at_ms + dur_ms.max(1);
                    let overlaps = crash_windows
                        .iter()
                        .any(|&(n, from, to)| n == node && at_ms < to && until > from);
                    if overlaps {
                        continue;
                    }
                    crash_windows.push((node, at_ms, until));
                    let (at, until) = window(at_ms, dur_ms);
                    schedule.crash(node, at, until)
                }
                FaultEvent::Partition { region, at_ms, dur_ms } => {
                    let (at, until) = window(at_ms, dur_ms);
                    schedule.partition_region(Region(region % regions), at, until)
                }
                FaultEvent::CutOneWay { from, to, at_ms, dur_ms } => {
                    let (at, until) = window(at_ms, dur_ms);
                    schedule.cut_link_oneway(
                        Region(from % regions),
                        Region(to % regions),
                        at,
                        until,
                    )
                }
                FaultEvent::Drop { at_ms, dur_ms, permille } => {
                    let (at, until) = window(at_ms, dur_ms);
                    schedule.drop_window(LinkScope::All, at, until, probability(permille))
                }
                FaultEvent::Duplicate { at_ms, dur_ms, permille } => {
                    let (at, until) = window(at_ms, dur_ms);
                    schedule.duplicate_window(LinkScope::All, at, until, probability(permille))
                }
            };
        }
        for &(seq, extra_us) in &self.nudges {
            schedule = schedule.nudge_message(seq, SimDuration::from_micros(extra_us));
        }
        schedule
    }
}

/// The WAL of a durable input: deterministic in-process devices, a
/// group-commit window wide enough that fsyncs batch under load, segments
/// and checkpoints small enough that recovery exercises snapshot-plus-log-
/// tail replay within one run, and torn tails seeded from the input's seed.
fn durable_wal(seed: u64) -> Durability {
    Durability::Wal(
        WalOptions::mem(StorageRegistry::new())
            .with_group_commit_us(200)
            .with_segment_bytes(16 * 1024)
            .with_checkpoint_every(256)
            .with_torn_tail_seed(seed),
    )
}

/// What one input's run produced: its evidence, its report figures and the
/// certifier's verdict.
#[derive(Debug, Clone, Default)]
pub struct RunVerdict {
    /// Why the run failed certification; `None` when it certified.
    pub violation: Option<String>,
    /// What the certifier observed (zeroes unless it ran and accepted).
    pub stream: StreamStats,
    /// Wall-clock milliseconds of the certification step alone.
    pub cert_ms: f64,
    /// The recorded history.
    pub history: History,
    /// The assembled witness (empty when none could be assembled).
    pub witness: Vec<OpId>,
    /// Behaviour coverage of the run (empty unless the simulator recorded
    /// it: scripted Gryff sessions on the simulator).
    pub coverage: CoverageSignature,
    /// Simulated operation latency (p50, p99) in milliseconds.
    pub latency_ms: (f64, f64),
    /// Message counters, drops, duplicates and expirations included.
    pub net: MessageStats,
    /// Completions per wall-clock second on the live plane; 0 on the
    /// simulator.
    pub wall_ops_per_sec: f64,
    /// The live transport's delivery log, when the plane recorded one.
    pub deliveries: Vec<DeliveryRecord>,
    /// Aggregated write-ahead-log counters across every protocol node.
    pub storage: StorageSummary,
}

impl RunVerdict {
    /// Did certification fail?
    pub fn failed(&self) -> bool {
        self.violation.is_some()
    }

    /// Operations in the recorded history — the size a shrink minimizes.
    pub fn history_ops(&self) -> usize {
        self.history.len()
    }

    /// The failure, packaged as a replayable artifact named `scenario`: the
    /// recorded history and rejected witness (for `replay`, no simulator
    /// needed), the input in `schedule` (to re-simulate and shrink it) and
    /// the coverage of the failing run. `None` when the run certified.
    pub fn into_artifact(self, scenario: &str, input: &HuntInput) -> Option<FailureArtifact> {
        Some(FailureArtifact {
            scenario: scenario.to_string(),
            seed: input.seed,
            model: MODEL,
            violation: self.violation?,
            witness: self.witness,
            history: self.history,
            deliveries: self.deliveries,
            durability: input.durable.then(|| "wal".to_string()),
            schedule: Some(input.clone()),
            coverage: (!self.coverage.is_empty()).then_some(self.coverage),
        })
    }
}

/// The plane an input runs on: the simulator (recording coverage when the
/// deployment has a message classifier) or a live plane.
enum OnPlane<M> {
    Sim(SimPlane<M>),
    Live(LivePlane),
}

impl<M> OnPlane<M> {
    fn new(live: Option<LivePlane>, classify: Option<fn(&M) -> u16>) -> Self {
        match live {
            Some(plane) => OnPlane::Live(plane),
            None => OnPlane::Sim(SimPlane { classify, ..SimPlane::default() }),
        }
    }
}

impl<M: Wire + Clone + Send + 'static> Plane<M> for OnPlane<M> {
    fn run<N: PlaneNode<M>>(&self, deployment: Deployment<N>) -> Ran<N> {
        match self {
            OnPlane::Sim(plane) => plane.run(deployment),
            OnPlane::Live(plane) => plane.run(deployment),
        }
    }
}

/// Simulated-latency percentiles (p50, p99) in milliseconds over the
/// non-orphan, non-fence completions.
fn latency_percentiles<'a>(records: impl Iterator<Item = &'a CompletedRecord>) -> (f64, f64) {
    let mut micros: Vec<u64> = records
        .filter(|r| !r.orphan && !r.kind.is_fence())
        .map(|r| r.latency().as_micros())
        .collect();
    if micros.is_empty() {
        return (0.0, 0.0);
    }
    micros.sort_unstable();
    let at = |q: f64| {
        let idx = ((micros.len() - 1) as f64 * q).round() as usize;
        micros[idx] as f64 / 1_000.0
    };
    (at(0.50), at(0.99))
}

/// Builds the input's deployment, runs it on the simulator (`live` absent)
/// or on `live`, assembles the recorded history and witness, and certifies
/// them with [`certify_streaming`] under the Regular witness model. On the
/// simulator the verdict is a function of `(input, bug_zoo)` alone. The
/// mutants of `bug_zoo` apply to the Gryff deployments.
pub fn run_input(input: &HuntInput, live: Option<LivePlane>, bug_zoo: gryff::BugZoo) -> RunVerdict {
    let shape = shape(input.workload);
    let faults = input.fault_schedule();
    let op_timeout = SimDuration::from_millis(shape.op_timeout_ms);
    let durability = if input.durable { durable_wal(input.seed) } else { Durability::InMemory };
    let seed = input.seed;
    let stop_issuing_at = SimTime::from_millis(input.stop_ms);
    let drain = SimDuration::from_secs(shape.drain_s);
    let measure_from = SimTime::from_secs(shape.measure_from_s);

    let mut run = match input.workload {
        Some(Workload::SpannerUniform) => {
            let mut config =
                spanner::SpannerConfig::wan(spanner::Mode::SpannerRss).with_durability(durability);
            if !faults.is_empty() {
                config = config.with_faults(faults, op_timeout);
            }
            let clients = (0..3)
                .map(|i| spanner::ClientSpec {
                    region: i % 3,
                    sessions: SessionConfig::closed_loop(4, SimDuration::ZERO)
                        .with_workload_seed(seed.wrapping_mul(1_000_003).wrapping_add(i as u64)),
                    workload: Box::new(spanner::UniformWorkload {
                        num_keys: 250,
                        ro_fraction: 0.5,
                        keys_per_txn: 2,
                    }) as Box<dyn SessionWorkload>,
                })
                .collect();
            let net = LatencyMatrix::spanner_wan();
            let spec = spanner::ClusterSpec {
                config,
                net,
                seed,
                clients,
                stop_issuing_at,
                drain,
                measure_from,
            };
            let result = spanner::run_cluster_on(&OnPlane::new(live, None), spec);
            let (history, witness) = spanner::build_history(&result);
            RunVerdict {
                history,
                witness,
                latency_ms: latency_percentiles(result.completed.iter().flat_map(|(_, r)| r)),
                net: result.net_stats,
                wall_ops_per_sec: result.wall_throughput,
                deliveries: result.deliveries,
                storage: result.storage,
                ..RunVerdict::default()
            }
        }
        None | Some(Workload::GryffYcsb) => {
            let mut config = gryff::GryffConfig::wan(gryff::Mode::GryffRsc)
                .with_durability(durability)
                .with_bug_zoo(bug_zoo);
            if !faults.is_empty() {
                config = config.with_faults(faults, op_timeout);
            }
            let clients = match input.workload {
                None => input
                    .sessions
                    .iter()
                    .enumerate()
                    .map(|(i, ops)| gryff::GryffClientSpec {
                        region: i % 5,
                        sessions: SessionConfig::closed_loop(1, SimDuration::ZERO),
                        workload: Box::new(gryff::ScriptedSessionWorkload::new(
                            ops.iter().map(|op| op.to_session_op()).collect(),
                        )) as Box<dyn SessionWorkload>,
                    })
                    .collect(),
                _ => (0..5)
                    .map(|i| gryff::GryffClientSpec {
                        region: i % 5,
                        sessions: SessionConfig::closed_loop(3, SimDuration::ZERO)
                            .with_workload_seed(seed.wrapping_mul(999_983).wrapping_add(i as u64)),
                        workload: Box::new(gryff::ConflictWorkload::ycsb(
                            0.5,
                            0.25,
                            seed.wrapping_add(i as u64),
                        )) as Box<dyn SessionWorkload>,
                    })
                    .collect(),
            };
            let net = LatencyMatrix::gryff_wan();
            let spec = gryff::GryffClusterSpec {
                config,
                net,
                seed,
                clients,
                stop_issuing_at,
                drain,
                measure_from,
            };
            // The hunter scores scripted runs by coverage; the sweep does not
            // pay for recording it.
            let classify =
                input.workload.is_none().then_some(gryff::GryffMsg::class as fn(&_) -> u16);
            let plane = OnPlane::new(live, classify);
            let result = gryff::run_gryff_on(&plane, spec);
            let (history, witness) = gryff::history_and_witness(&result.completed, MODEL);
            RunVerdict {
                violation: witness.as_ref().err().cloned(),
                history,
                witness: witness.unwrap_or_default(),
                coverage: result.coverage.unwrap_or_default(),
                latency_ms: latency_percentiles(result.completed.iter().flat_map(|(_, r)| r)),
                net: result.net_stats,
                wall_ops_per_sec: result.wall_throughput,
                deliveries: result.deliveries,
                storage: result.storage,
                ..RunVerdict::default()
            }
        }
        Some(workload @ (Workload::ComposedRoundRobin | Workload::ComposedPhoto)) => {
            // The photo app hops services on every step and hands causal
            // contexts across processes; round-robin hops every third op.
            let (workload, ops_per_service, handoff_every) = match workload {
                Workload::ComposedPhoto => (ComposedWorkload::PhotoApp, 1, Some(8)),
                _ => (ComposedWorkload::RoundRobin, 3, None),
            };
            let config = ComposedRunConfig {
                num_apps: 3,
                ops_per_service,
                batch: 2,
                duration_secs: input.stop_ms.div_ceil(1_000),
                drain_secs: shape.drain_s,
                workload,
                op_timeout: (!faults.is_empty()).then_some(op_timeout),
                faults,
                handoff_every,
                durability,
            };
            let outcome = run_composed_on(&OnPlane::new(live, None), seed, &config);
            let latency_ms = latency_percentiles(
                outcome.apps.iter().flat_map(|a| a.completed.iter().map(|(_, r)| r)),
            );
            let (history, witness, violation) = match assemble_composed(&outcome) {
                Ok((history, witness)) => (history, witness, None),
                Err(v) => (v.history, v.witness, Some(v.reason)),
            };
            RunVerdict {
                violation,
                history,
                witness,
                latency_ms,
                net: outcome.net_stats,
                wall_ops_per_sec: outcome.wall_throughput,
                deliveries: outcome.deliveries,
                storage: outcome.storage,
                ..RunVerdict::default()
            }
        }
    };

    // The one certifier, and `cert_ms` times that call alone.
    if run.violation.is_none() {
        let started = Instant::now();
        match certify_streaming(&run.history, &run.witness, MODEL) {
            Ok(stream) => run.stream = stream,
            Err(v) => run.violation = Some(format!("{} violation: {v:?}", model_name(MODEL))),
        }
        run.cert_ms = started.elapsed().as_secs_f64() * 1_000.0;
    }
    run
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Json;

    fn sample() -> HuntInput {
        HuntInput {
            seed: 11,
            sessions: vec![
                vec![HuntOp::Write(0), HuntOp::Rmw(0), HuntOp::Read(3)],
                vec![HuntOp::Rmw(0); 4],
            ],
            faults: vec![
                FaultEvent::Crash { node: 1, at_ms: 500, dur_ms: 800 },
                FaultEvent::Drop { at_ms: 100, dur_ms: 300, permille: 50 },
                FaultEvent::Duplicate { at_ms: 100, dur_ms: 300, permille: 20 },
                FaultEvent::CutOneWay { from: 0, to: 2, at_ms: 50, dur_ms: 200 },
            ],
            nudges: vec![(7, 90_000), (12, 10_000)],
            stop_ms: 4_000,
            ..HuntInput::default()
        }
    }

    #[test]
    fn inputs_round_trip_through_json() {
        let composed = HuntInput {
            faults: vec![FaultEvent::Crash { node: 6, at_ms: 5_000, dur_ms: 3_000 }],
            workload: Some(Workload::ComposedPhoto),
            durable: true,
            ..sample()
        };
        for input in [sample(), composed] {
            let json = input.to_json();
            let parsed = HuntInput::from_json(&json).expect("parses");
            assert_eq!(parsed, input);
            let reparsed =
                HuntInput::from_json(&Json::parse(&json.to_pretty()).unwrap()).expect("reparses");
            assert_eq!(reparsed, input);
        }
        let text = sample().to_json().to_pretty();
        assert!(text.contains("\"f\": \"duplicate\""), "{text}");
        assert!(!text.contains("workload") && !text.contains("durable"), "absent members: {text}");
    }

    #[test]
    fn fault_schedules_normalize_hostile_events() {
        let input = HuntInput {
            faults: vec![
                // Zero-length window: clamped to 1 ms, not a panic.
                FaultEvent::Partition { region: 9, at_ms: 10, dur_ms: 0 },
                // Out-of-range node: wrapped, not a panic.
                FaultEvent::Crash { node: 7, at_ms: 100, dur_ms: 50 },
                // Overlapping crash of the same (wrapped) node: dropped.
                FaultEvent::Crash { node: 2, at_ms: 120, dur_ms: 50 },
                // Disjoint later crash of the same node: kept.
                FaultEvent::Crash { node: 2, at_ms: 300, dur_ms: 10 },
                // Over-unity probabilities: clamped.
                FaultEvent::Drop { at_ms: 0, dur_ms: 5, permille: 4_000 },
                FaultEvent::Duplicate { at_ms: 0, dur_ms: 5, permille: 20 },
            ],
            nudges: vec![(3, 1_000)],
            stop_ms: 1_000,
            ..HuntInput::default()
        };
        let schedule = input.fault_schedule();
        assert_eq!(schedule.crashes().len(), 2, "overlapping crash window dropped");
        assert_eq!(schedule.crashes()[0].node, 2, "node 7 wraps into Gryff's five replicas");
        assert_eq!(schedule.link_cuts().len(), 1);
        assert_eq!(schedule.link_cuts()[0].scope, LinkScope::Region(Region(4)));
        let windows = schedule.message_windows();
        assert_eq!(windows.len(), 2, "equal-time windows keep their script order");
        assert_eq!(windows[0].probability, 1.0);
        assert_eq!(windows[1].fault, regular_sim::fault::MessageFault::Duplicate);
        assert_eq!(windows[1].probability, 0.02, "20 permille is exactly 0.02");
        assert_eq!(schedule.message_nudges().len(), 1);

        // The composed deployment has eight servers: a Gryff replica victim
        // (node ids 3..8) is not wrapped into Gryff's 0..5 range, and a
        // Spanner deployment's three regions wrap a partition.
        let composed = HuntInput {
            faults: vec![FaultEvent::Crash { node: 6, at_ms: 100, dur_ms: 50 }],
            workload: Some(Workload::ComposedRoundRobin),
            ..HuntInput::default()
        };
        assert_eq!(composed.fault_schedule().crashes()[0].node, 6);
        let spanner = HuntInput {
            faults: vec![FaultEvent::Partition { region: 4, at_ms: 0, dur_ms: 1 }],
            workload: Some(Workload::SpannerUniform),
            ..HuntInput::default()
        };
        assert_eq!(spanner.fault_schedule().link_cuts()[0].scope, LinkScope::Region(Region(1)));
    }

    #[test]
    fn scripted_ops_counts_all_sessions() {
        assert_eq!(sample().scripted_ops(), 7);
    }

    fn benign_input() -> HuntInput {
        HuntInput {
            seed: 3,
            sessions: vec![
                vec![HuntOp::Write(0), HuntOp::Read(0), HuntOp::Rmw(1)],
                vec![HuntOp::Rmw(0), HuntOp::Write(1)],
            ],
            faults: vec![FaultEvent::Crash { node: 2, at_ms: 400, dur_ms: 300 }],
            nudges: vec![(5, 40_000)],
            stop_ms: 1_500,
            ..HuntInput::default()
        }
    }

    #[test]
    fn a_clean_run_certifies_and_records_coverage() {
        let verdict = run_input(&benign_input(), None, gryff::BugZoo::none());
        assert!(!verdict.failed(), "no mutants enabled: {:?}", verdict.violation);
        assert!(verdict.history_ops() > 0, "the scripted sessions ran");
        assert!(!verdict.coverage.is_empty(), "coverage was recorded");
        // FNV-1a of the feature ids, recorded before the phase tags moved
        // behind `Node::phase_tag` / `Service::phase_tag`: a tag that moved
        // a feature shows here.
        let digest = verdict
            .coverage
            .features()
            .iter()
            .flat_map(|f| f.to_le_bytes())
            .fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
            });
        assert_eq!((verdict.coverage.len(), digest), (32, 0x1fad_4789_124f_c985));
    }

    #[test]
    fn the_verdict_is_deterministic() {
        let input = benign_input();
        let a = run_input(&input, None, gryff::BugZoo::none());
        let b = run_input(&input, None, gryff::BugZoo::none());
        assert_eq!(a.coverage, b.coverage);
        assert_eq!(a.history, b.history);
        assert_eq!(a.witness, b.witness);
        assert_eq!(a.failed(), b.failed());
    }
}
