//! Sweepable scenarios: one seeded, certified run per call.
//!
//! A scenario is one row of a `const` table: which deployment, on which
//! plane, under which fault script, on which storage. Each run builds the
//! deployment from a seed (the plane's seed *and* the per-node workload RNG
//! streams derive from it via [`SessionConfig::with_workload_seed`]), runs
//! it — deterministically on the simulator — assembles the recorded history
//! and serialization witness, and certifies the history against the
//! scenario's consistency model through [`certify_streaming`] — one tail for
//! every scenario on either plane. A failure yields a replayable
//! [`FailureArtifact`].
//!
//! Run sizes are tuned so one seed takes on the order of a hundred
//! milliseconds: large enough that every history is far past the old 128-op
//! exact-search ceiling (thousands of operations), small enough that a
//! 32-seed × 3-scenario sweep finishes in CI minutes on one core.

use std::time::Instant;

use regular_core::{History, OpId, WitnessModel};
use regular_gryff::prelude as gryff;
use regular_live::{LivePlane, TransportKind};
use regular_session::{CompletedRecord, SessionConfig, SessionWorkload};
use regular_sim::fault::{FaultSchedule, LinkScope};
use regular_sim::metrics::{DeliveryRecord, MessageStats};
use regular_sim::net::{LatencyMatrix, Region};
use regular_sim::time::{SimDuration, SimTime};
use regular_spanner::prelude as spanner;
use regular_storage::{Durability, StorageRegistry, StorageSummary, WalOptions};

use crate::artifact::{model_name, FailureArtifact};
use crate::composed::{
    assemble_composed, run_composed, run_composed_on, ComposedRunConfig, ComposedWorkload,
};
use crate::stream::certify_streaming;

/// A sweepable scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// Spanner-RSS over the three-region WAN topology; certified RSS.
    SpannerRss,
    /// Gryff-RSC over the five-region WAN topology; certified RSC.
    GryffRsc,
    /// The composed Spanner-RSS + Gryff-RSC deployment with libRSS fences;
    /// the combined history certified RSS.
    Composed,
    /// Spanner-RSS under a seed-driven fault script: a shard-leader crash,
    /// a region partition, and lossy/duplicating windows; still certified
    /// RSS.
    SpannerFaults,
    /// Gryff-RSC under a seed-driven fault script: a replica crash (losing
    /// an rmw coordinator), a region partition, and lossy windows; still
    /// certified RSC.
    GryffFaults,
    /// The composed deployment driven by the photo-sharing app with
    /// cross-process causal handoffs, under faults fired *during* service
    /// switches; the combined history still certified RSS.
    ComposedFaults,
    /// Spanner-RSS under asymmetric (one-way) link cuts: requests keep
    /// arriving while replies vanish, then the reverse direction fails —
    /// the grey-network failure mode; still certified RSS.
    SpannerOneWay,
    /// Spanner-RSS with short shard crashes timed to land inside commit-wait
    /// windows: prepared transactions lose their coordinator exactly between
    /// timestamp choice and decision release; still certified RSS.
    SpannerCommitCrash,
    /// The `spanner-faults` script with every shard running on a write-ahead
    /// log (`Durability::Wal`): crashes wipe all volatile state, recovery
    /// replays checkpoint + log tail (seeded torn tails included), group
    /// commit batches fsyncs — and the history still certifies RSS.
    SpannerFaultsDurable,
    /// The `gryff-faults` script with every replica on a write-ahead log;
    /// still certified RSC.
    GryffFaultsDurable,
    /// The `composed-faults` script with both stores' nodes on write-ahead
    /// logs; the combined history still certified RSS.
    ComposedFaultsDurable,
    /// Spanner-RSS on the live execution plane (`regular-live`): every node
    /// an OS thread, time the scaled wall clock, the recorded completions
    /// certified RSS after the run. The sweep runs it over the in-process
    /// mpsc transport; the plane's socket backends (UDS/TCP, including
    /// multi-process deployments) are exercised by `regular-bench net`.
    /// Not bit-deterministic; the transport's delivery log rides along in
    /// failure artifacts.
    LiveSpannerRss,
    /// Gryff-RSC on the live execution plane; certified RSC.
    LiveGryffRsc,
    /// The composed two-store deployment with libRSS fences on the live
    /// execution plane; the combined history certified RSS.
    LiveComposed,
    /// Spanner-RSS on the live execution plane under the same seed-driven
    /// fault script as `spanner-faults`, the crash/partition windows
    /// reinterpreted on scaled wall-clock time; still certified RSS.
    LiveSpannerFaults,
}

/// Which node graph a scenario deploys.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Deployed {
    /// `regular_spanner::build` over [`spanner_seed_spec`].
    Spanner,
    /// `regular_gryff::build` over [`gryff_seed_spec`].
    Gryff,
    /// The two-store deployment of [`crate::composed`].
    Composed,
}

/// One scenario: a deployment, the plane it runs on, and what is done to it.
struct Row {
    scenario: Scenario,
    /// Stable name (reports, artifacts, CLI flags).
    name: &'static str,
    /// Forgiving extra spellings [`Scenario::parse`] accepts.
    aliases: &'static [&'static str],
    deployed: Deployed,
    /// `None` runs on the simulator; `Some` on that live plane.
    live: Option<LivePlane>,
    /// The seed-driven fault script, if any.
    faults: Option<fn(u64) -> FaultSchedule>,
    /// Every protocol node on a write-ahead log.
    durable: bool,
    /// Approximate completed operations per simulated second at the sweep
    /// configuration (measured over seed sweeps); translates an `--ops`
    /// target into a run duration. The WAL's group-commit window adds
    /// sub-millisecond latency and the live plane runs the same
    /// configurations, so variants track their plain sim counterparts.
    ops_per_sim_sec: f64,
}

/// Simulated microseconds per wall microsecond for the live sweep
/// scenarios: 40x compresses a 53-simulated-second Spanner run into ~1.3
/// wall seconds while keeping even the shortest WAN latency (a few hundred
/// simulated microseconds) well above the scheduler's wake-up jitter.
pub const LIVE_TIME_SCALE: u64 = 40;

/// The plane of the live sweep scenarios: the in-process mpsc transport
/// (the socket backends are exercised by `regular-bench net`), with the
/// delivery log recorded so a failure artifact carries its schedule.
const SWEEP_LIVE: LivePlane = LivePlane {
    time_scale: LIVE_TIME_SCALE,
    record_deliveries: true,
    transport: TransportKind::Mpsc,
};

impl Row {
    /// A fault-free, volatile scenario on the simulator.
    const fn sim(
        scenario: Scenario,
        name: &'static str,
        aliases: &'static [&'static str],
        deployed: Deployed,
        ops_per_sim_sec: f64,
    ) -> Row {
        let (live, faults, durable) = (None, None, false);
        Row { scenario, name, aliases, deployed, live, faults, durable, ops_per_sim_sec }
    }

    const fn faults(mut self, script: fn(u64) -> FaultSchedule) -> Row {
        self.faults = Some(script);
        self
    }

    const fn durable(mut self) -> Row {
        self.durable = true;
        self
    }

    const fn live(mut self) -> Row {
        self.live = Some(SWEEP_LIVE);
        self
    }
}

/// Every scenario, in `Scenario` declaration order: the simulator scenarios
/// in sweep order, then the live ones. A live variant of a sim scenario is
/// one more row ending in `.live()`.
const TABLE: [Row; 15] = {
    use Deployed::{Composed, Gryff, Spanner};
    use Scenario as S;
    [
        Row::sim(S::SpannerRss, "spanner-rss", &["spanner", "rss"], Spanner, 57.0),
        Row::sim(S::GryffRsc, "gryff-rsc", &["gryff", "rsc"], Gryff, 102.0),
        Row::sim(S::Composed, "composed", &["multi-service", "duo"], Composed, 62.0),
        Row::sim(S::SpannerFaults, "spanner-faults", &[], Spanner, 48.0)
            .faults(spanner_fault_schedule),
        Row::sim(S::GryffFaults, "gryff-faults", &[], Gryff, 97.0).faults(gryff_fault_schedule),
        Row::sim(S::ComposedFaults, "composed-faults", &["faults", "chaos"], Composed, 30.0)
            .faults(composed_fault_schedule),
        Row::sim(S::SpannerOneWay, "spanner-oneway", &["oneway", "grey"], Spanner, 48.0)
            .faults(spanner_oneway_schedule),
        Row::sim(S::SpannerCommitCrash, "spanner-commit-crash", &["commit-crash"], Spanner, 54.0)
            .faults(spanner_commit_crash_schedule),
        Row::sim(
            S::SpannerFaultsDurable,
            "spanner-faults-durable",
            &["spanner-durable"],
            Spanner,
            48.0,
        )
        .faults(spanner_fault_schedule)
        .durable(),
        Row::sim(S::GryffFaultsDurable, "gryff-faults-durable", &["gryff-durable"], Gryff, 97.0)
            .faults(gryff_fault_schedule)
            .durable(),
        Row::sim(
            S::ComposedFaultsDurable,
            "composed-faults-durable",
            &["composed-durable", "durable"],
            Composed,
            30.0,
        )
        .faults(composed_fault_schedule)
        .durable(),
        Row::sim(S::LiveSpannerRss, "live-spanner-rss", &["live-spanner"], Spanner, 57.0).live(),
        Row::sim(S::LiveGryffRsc, "live-gryff-rsc", &["live-gryff"], Gryff, 102.0).live(),
        Row::sim(S::LiveComposed, "live-composed", &[], Composed, 62.0).live(),
        Row::sim(S::LiveSpannerFaults, "live-spanner-faults", &["live-faults"], Spanner, 48.0)
            .faults(spanner_fault_schedule)
            .live(),
    ]
};

/// The scenarios of [`TABLE`] on the simulator (`live == false`) or on the
/// live plane, in table order.
const fn on_plane<const N: usize>(live: bool) -> [Scenario; N] {
    let mut out = [Scenario::SpannerRss; N];
    let (mut i, mut n) = (0, 0);
    while i < TABLE.len() {
        assert!(TABLE[i].scenario as usize == i, "rows are in Scenario declaration order");
        if TABLE[i].live.is_some() == live {
            out[n] = TABLE[i].scenario;
            n += 1;
        }
        i += 1;
    }
    assert!(n == N, "ALL and LIVE together list every row exactly once");
    out
}

impl Scenario {
    /// Every simulator scenario, in sweep order.
    pub const ALL: [Scenario; 11] = on_plane(false);

    /// The live-plane scenarios (not part of [`Scenario::ALL`]: live runs
    /// use real threads and scaled wall-clock time, so they are slower per
    /// seed and not bit-deterministic — sweeps opt into them explicitly).
    pub const LIVE: [Scenario; 4] = on_plane(true);

    fn row(&self) -> &'static Row {
        &TABLE[*self as usize]
    }

    /// True for scenarios that run on the live execution plane.
    pub fn is_live(&self) -> bool {
        self.row().live.is_some()
    }

    /// Stable scenario name (used in reports, artifacts, and CLI flags).
    pub fn name(&self) -> &'static str {
        self.row().name
    }

    /// Parses a scenario name (the inverse of [`Scenario::name`], with a few
    /// forgiving aliases).
    pub fn parse(name: &str) -> Option<Scenario> {
        let name = name.trim().to_ascii_lowercase();
        TABLE
            .iter()
            .find(|row| row.name == name || row.aliases.contains(&name.as_str()))
            .map(|row| row.scenario)
    }

    /// The witness model this scenario is certified against.
    pub fn model(&self) -> WitnessModel {
        WitnessModel::Regular
    }

    /// True for the `*-durable` variants, which run every protocol node on a
    /// write-ahead log ([`Durability::Wal`]) instead of volatile state.
    pub fn is_durable(&self) -> bool {
        self.row().durable
    }

    /// The storage backing this scenario runs its protocol nodes on.
    fn durability(&self, seed: u64) -> Durability {
        if self.is_durable() {
            durable_wal(seed)
        } else {
            Durability::InMemory
        }
    }
}

/// The WAL configuration of the durable fault scenarios: deterministic
/// in-process devices, a group-commit window wide enough that fsyncs batch
/// under load, segments and checkpoints small enough that recovery exercises
/// snapshot-plus-log-tail replay within one sweep run, and torn tails seeded
/// from the sweep seed so partial-write recovery differs across the corpus.
fn durable_wal(seed: u64) -> Durability {
    Durability::Wal(
        WalOptions::mem(StorageRegistry::new())
            .with_group_commit_us(200)
            .with_segment_bytes(16 * 1024)
            .with_checkpoint_every(256)
            .with_torn_tail_seed(seed),
    )
}

/// Machine-readable outcome of one seeded run.
#[derive(Debug, Clone)]
pub struct SeedReport {
    /// Scenario name.
    pub scenario: &'static str,
    /// The seed.
    pub seed: u64,
    /// True if the history certified and no log skipped a checkpoint.
    pub certified: bool,
    /// Why the seed failed, when it did.
    pub violation: Option<String>,
    /// Operations in the certified history.
    pub history_ops: usize,
    /// End-to-end operation latency p50 (milliseconds, simulated time).
    pub p50_ms: f64,
    /// End-to-end operation latency p99 (milliseconds, simulated time).
    pub p99_ms: f64,
    /// Wall-clock milliseconds for the full run (simulate + certify).
    pub wall_ms: f64,
    /// Wall-clock milliseconds of the certification step alone.
    pub cert_ms: f64,
    /// Messages dropped by the fault plane (verdicts, windows, cut links).
    pub dropped: u64,
    /// Extra message copies injected by duplicate windows.
    pub duplicated: u64,
    /// Messages that expired at a crashed node.
    pub expired: u64,
    /// Connected components of the certified history (shared keys,
    /// processes, messages); 0 when certification failed.
    pub components: usize,
    /// High-water mark of the certifier's reorder buffer — the window an
    /// online certifier fed in completion order would have needed; 0 when
    /// certification failed.
    pub peak_window: usize,
    /// Measured completions per wall-clock second on the live execution
    /// plane; 0 for simulator runs (their wall clock measures the host, not
    /// the system under test).
    pub wall_ops_per_sec: f64,
    /// Aggregated write-ahead-log counters across every protocol node (all
    /// zeroes outside the `*-durable` scenarios).
    pub storage: StorageSummary,
}

/// A seeded run: the report plus a replayable artifact when it failed.
pub struct SeedRun {
    /// The report.
    pub report: SeedReport,
    /// Present exactly when `report.certified` is false.
    pub artifact: Option<FailureArtifact>,
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

/// The client-side operation timeout every fault scenario runs with.
const FAULT_OP_TIMEOUT: SimDuration = SimDuration::from_millis(1_500);

/// Per-message probability of the lossy windows in every fault scenario.
const FAULT_LOSS_P: f64 = 0.02;

/// The shared fault-script shape of every fault scenario: crash each listed
/// victim for its `[from, until)` window, partition one region, and run a
/// drop + duplicate window — all overlapping live client load.
fn fault_script(
    crashes: &[(usize, u64, u64)],
    cut_region: Region,
    cut: (u64, u64),
    lossy: (u64, u64),
) -> FaultSchedule {
    let mut schedule = FaultSchedule::new();
    for &(node, at, recover_at) in crashes {
        schedule = schedule.crash(node, SimTime::from_secs(at), SimTime::from_secs(recover_at));
    }
    schedule
        .partition_region(cut_region, SimTime::from_secs(cut.0), SimTime::from_secs(cut.1))
        .drop_window(
            LinkScope::All,
            SimTime::from_secs(lossy.0),
            SimTime::from_secs(lossy.1),
            FAULT_LOSS_P,
        )
        .duplicate_window(
            LinkScope::All,
            SimTime::from_secs(lossy.0),
            SimTime::from_secs(lossy.1),
            FAULT_LOSS_P,
        )
}

/// The seed-driven fault script of the `spanner-faults` scenario: the victim
/// shard and partitioned region rotate with the seed.
fn spanner_fault_schedule(seed: u64) -> FaultSchedule {
    let victim_shard = (seed % 3) as usize;
    let cut_region = Region(((seed + 1) % 3) as usize);
    fault_script(&[(victim_shard, 8, 12)], cut_region, (18, 21), (25, 32))
}

/// The seed-driven fault script of the `gryff-faults` scenario: the crashed
/// replica rotates with the seed (it coordinates rmws for keys equal to its
/// index mod 5).
fn gryff_fault_schedule(seed: u64) -> FaultSchedule {
    let victim_replica = (seed % 5) as usize;
    let cut_region = Region(((seed + 2) % 5) as usize);
    fault_script(&[(victim_replica, 8, 12)], cut_region, (18, 21), (25, 32))
}

/// The seed-driven script of the `spanner-oneway` scenario: two asymmetric
/// one-way cuts (first `a -> b`, later the reverse) plus a short two-way
/// lossy window, the victim pair rotating with the seed. One-way cuts are
/// the nastiest RSS stressor short of a crash: the receiver keeps serving
/// (and advancing its safe time) while every reply it sends evaporates, so
/// clients time out and retry transactions the shard already executed.
fn spanner_oneway_schedule(seed: u64) -> FaultSchedule {
    let a = Region((seed % 3) as usize);
    let b = Region(((seed + 1) % 3) as usize);
    FaultSchedule::new()
        .cut_link_oneway(a, b, SimTime::from_secs(8), SimTime::from_secs(12))
        .cut_link_oneway(b, a, SimTime::from_secs(18), SimTime::from_secs(21))
        .drop_window(LinkScope::All, SimTime::from_secs(25), SimTime::from_secs(29), FAULT_LOSS_P)
        .duplicate_window(
            LinkScope::All,
            SimTime::from_secs(25),
            SimTime::from_secs(29),
            FAULT_LOSS_P,
        )
}

/// The seed-driven script of the `spanner-commit-crash` scenario: three
/// short (400 ms) crashes of the victim shard. Under continuous load every
/// window lands on transactions that are mid commit-wait at that shard —
/// the coordinator has chosen `t_commit` and is waiting out TrueTime
/// uncertainty when it dies — so recovery must re-drive 2PC from the
/// decision log and deferred timers without ever releasing an outcome
/// early.
fn spanner_commit_crash_schedule(seed: u64) -> FaultSchedule {
    let victim = (seed % 3) as usize;
    let mut schedule = FaultSchedule::new();
    for start_s in [9u64, 19, 29] {
        let at = SimTime::from_millis(start_s * 1_000 + (seed % 7) * 50);
        let recover = SimTime::from_millis(start_s * 1_000 + (seed % 7) * 50 + 400);
        schedule = schedule.crash(victim, at, recover);
    }
    schedule
}

/// The `composed-faults` fault script. The photo app switches services on
/// *every* step, so each window fires during live libRSS service switches:
/// a Spanner shard crash (nodes 0..3), a Gryff replica crash (nodes 3..8),
/// a region partition, and lossy/duplicating windows.
fn composed_fault_schedule(seed: u64) -> FaultSchedule {
    let victim_shard = (seed % 3) as usize;
    let victim_replica = 3 + ((seed % 5) as usize);
    let cut_region = Region(((seed + 1) % 5) as usize);
    fault_script(&[(victim_shard, 5, 8), (victim_replica, 11, 14)], cut_region, (16, 18), (20, 25))
}

/// The simulated seconds to issue load for: the scenario default, or the
/// duration expected to produce roughly `ops` operations when a target is
/// set. Clamped so fault scripts (which fire at fixed seconds) still get a
/// sane run, and so a typo cannot request a week of simulated time.
fn scaled_stop_secs(scenario: Scenario, ops: Option<u64>, default_secs: u64) -> u64 {
    match ops {
        None => default_secs,
        Some(target) => {
            let secs = (target as f64 / scenario.row().ops_per_sim_sec).ceil() as u64;
            secs.clamp(5, 20_000)
        }
    }
}

/// Runs one seed of `scenario` and certifies the resulting history. `ops`
/// scales the run duration to target roughly that many operations; `None`
/// keeps the scenario default.
pub fn run_seed(scenario: Scenario, seed: u64, ops: Option<u64>) -> SeedRun {
    let started = Instant::now();
    let row = scenario.row();
    let faults = row.faults.map(|script| script(seed));
    let durability = scenario.durability(seed);
    let Collected {
        history,
        witness,
        pre_violation,
        latency: (p50_ms, p99_ms),
        net,
        wall_ops_per_sec,
        deliveries,
        storage,
    } = match row.deployed {
        Deployed::Spanner => {
            let spec =
                spanner_seed_spec(seed, faults, durability, scaled_stop_secs(scenario, ops, 45));
            let result = match &row.live {
                None => spanner::run_cluster(spec),
                Some(plane) => spanner::run_cluster_on(plane, spec),
            };
            let (history, witness) = spanner::build_history(&result);
            Collected {
                latency: latency_percentiles(result.completed.iter().flat_map(|(_, recs)| recs)),
                history,
                witness,
                pre_violation: None,
                net: result.net_stats,
                wall_ops_per_sec: result.wall_throughput,
                deliveries: result.deliveries,
                storage: result.storage,
            }
        }
        Deployed::Gryff => {
            let spec =
                gryff_seed_spec(seed, faults, durability, scaled_stop_secs(scenario, ops, 45));
            let result = match &row.live {
                None => gryff::run_gryff(spec),
                Some(plane) => gryff::run_gryff_on(plane, spec),
            };
            let (history, witness) =
                gryff::history_and_witness(&result.completed, scenario.model());
            let (witness, pre_violation) = match witness {
                Ok(witness) => (witness, None),
                Err(reason) => (Vec::new(), Some(reason)),
            };
            Collected {
                latency: latency_percentiles(result.completed.iter().flat_map(|(_, recs)| recs)),
                history,
                witness,
                pre_violation,
                net: result.net_stats,
                wall_ops_per_sec: result.wall_throughput,
                deliveries: result.deliveries,
                storage: result.storage,
            }
        }
        Deployed::Composed => {
            let duration_secs = scaled_stop_secs(scenario, ops, 30);
            let mut config = match faults {
                Some(faults) => composed_faults_seed_config(faults, duration_secs),
                None => composed_seed_config(duration_secs),
            };
            config.durability = durability;
            let outcome = match &row.live {
                None => run_composed(seed, &config),
                Some(plane) => run_composed_on(plane, seed, &config),
            };
            let latency = latency_percentiles(
                outcome.apps.iter().flat_map(|a| a.completed.iter().map(|(_, r)| r)),
            );
            let (history, witness, pre_violation) = match assemble_composed(&outcome) {
                Ok((history, witness)) => (history, witness, None),
                Err(v) => (v.history, v.witness, Some(v.reason)),
            };
            Collected {
                latency,
                history,
                witness,
                pre_violation,
                net: outcome.net_stats,
                wall_ops_per_sec: outcome.wall_throughput,
                deliveries: outcome.deliveries,
                storage: outcome.storage,
            }
        }
    };

    // The shared tail: every scenario's verdict comes from the one certifier,
    // and `cert_ms` times that call alone. A certified history still fails
    // the seed if a log skipped a checkpoint.
    let cert_started = Instant::now();
    let verdict = match pre_violation {
        Some(reason) => Err(reason),
        None => certify_streaming(&history, &witness, scenario.model())
            .map_err(|v| format!("{} violation: {v:?}", model_name(scenario.model()))),
    };
    let cert_ms = cert_started.elapsed().as_secs_f64() * 1_000.0;
    let verdict = verdict.and_then(|stats| storage_verdict(&storage).map(|()| stats));
    let wall_ms = started.elapsed().as_secs_f64() * 1_000.0;
    let report = SeedReport {
        scenario: scenario.name(),
        seed,
        certified: verdict.is_ok(),
        violation: verdict.as_ref().err().cloned(),
        history_ops: history.len(),
        p50_ms,
        p99_ms,
        wall_ms,
        cert_ms,
        dropped: net.dropped,
        duplicated: net.duplicated,
        expired: net.expired,
        components: verdict.as_ref().map_or(0, |stats| stats.components),
        peak_window: verdict.as_ref().map_or(0, |stats| stats.peak_window),
        wall_ops_per_sec,
        storage,
    };
    let artifact = verdict.err().map(|violation| FailureArtifact {
        scenario: scenario.name().to_string(),
        seed,
        model: scenario.model(),
        violation,
        witness,
        history,
        deliveries,
        durability: scenario.is_durable().then(|| "wal".to_string()),
        schedule: None,
        coverage: None,
    });
    SeedRun { report, artifact }
}

/// The storage half of a seed's verdict. A snapshot that outgrew its area
/// is skipped, not fatal, at the log (`Wal::checkpoint`), but that log is
/// never pruned again, so a run with any skip fails here, in every build.
fn storage_verdict(storage: &StorageSummary) -> Result<(), String> {
    match storage.skipped_checkpoints {
        0 => Ok(()),
        skipped => Err(format!(
            "storage: {skipped} checkpoint(s) skipped because a snapshot outgrew its area"
        )),
    }
}

/// What a deployment's arm of [`run_seed`] hands to the shared certification
/// tail.
struct Collected {
    history: History,
    /// Empty when `pre_violation` says none could be assembled.
    witness: Vec<OpId>,
    /// A violation found while assembling, before any witness check: the
    /// combined history is malformed or the witness constraints are cyclic.
    pre_violation: Option<String>,
    /// Simulated (p50, p99) in milliseconds.
    latency: (f64, f64),
    net: MessageStats,
    wall_ops_per_sec: f64,
    /// The live transport's delivery log; rides along in failure artifacts.
    deliveries: Vec<DeliveryRecord>,
    storage: StorageSummary,
}

/// Spanner-RSS sweep configuration: WAN topology, three client nodes with
/// two closed-loop sessions each, moderately contended uniform workload.
/// With a fault schedule, clients run with the standard operation timeout.
/// The same spec deploys on either plane.
pub(crate) fn spanner_seed_spec(
    seed: u64,
    faults: Option<FaultSchedule>,
    durability: Durability,
    stop_secs: u64,
) -> spanner::ClusterSpec {
    let mut config =
        spanner::SpannerConfig::wan(spanner::Mode::SpannerRss).with_durability(durability);
    if let Some(faults) = faults {
        config = config.with_faults(faults, FAULT_OP_TIMEOUT);
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
    spanner::ClusterSpec {
        config,
        net: LatencyMatrix::spanner_wan(),
        seed,
        clients,
        stop_issuing_at: SimTime::from_secs(stop_secs),
        drain: SimDuration::from_secs(8),
        measure_from: SimTime::from_secs(1),
    }
}

/// Gryff-RSC sweep configuration: five-region WAN, one client per region
/// with two closed-loop sessions, conflict-heavy YCSB mix. With a fault
/// schedule, clients run with the standard operation timeout. The same spec
/// deploys on either plane.
pub(crate) fn gryff_seed_spec(
    seed: u64,
    faults: Option<FaultSchedule>,
    durability: Durability,
    stop_secs: u64,
) -> gryff::GryffClusterSpec {
    let mut config = gryff::GryffConfig::wan(gryff::Mode::GryffRsc).with_durability(durability);
    if let Some(faults) = faults {
        config = config.with_faults(faults, FAULT_OP_TIMEOUT);
    }
    let clients = (0..5)
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
        .collect();
    gryff::GryffClusterSpec {
        config,
        net: LatencyMatrix::gryff_wan(),
        seed,
        clients,
        stop_issuing_at: SimTime::from_secs(stop_secs),
        drain: SimDuration::from_secs(8),
        measure_from: SimTime::from_secs(1),
    }
}

/// Composed sweep configuration (smaller than the integration test's, to
/// keep per-seed cost down).
fn composed_seed_config(duration_secs: u64) -> ComposedRunConfig {
    ComposedRunConfig {
        num_apps: 3,
        ops_per_service: 3,
        batch: 2,
        duration_secs,
        drain_secs: 10,
        ..ComposedRunConfig::default()
    }
}

/// Composed-faults sweep configuration: the photo-sharing app (every step a
/// fenced service switch), periodic cross-process causal handoffs, and the
/// seed-driven fault script of [`composed_fault_schedule`].
fn composed_faults_seed_config(faults: FaultSchedule, duration_secs: u64) -> ComposedRunConfig {
    ComposedRunConfig {
        num_apps: 3,
        ops_per_service: 1,
        batch: 2,
        duration_secs,
        drain_secs: 12,
        workload: ComposedWorkload::PhotoApp,
        faults,
        op_timeout: Some(FAULT_OP_TIMEOUT),
        handoff_every: Some(8),
        ..ComposedRunConfig::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_names_round_trip() {
        for s in Scenario::ALL.into_iter().chain(Scenario::LIVE) {
            assert_eq!(Scenario::parse(s.name()), Some(s));
        }
        assert_eq!(Scenario::parse("SPANNER"), Some(Scenario::SpannerRss));
        assert_eq!(Scenario::parse("chaos"), Some(Scenario::ComposedFaults));
        assert_eq!(Scenario::parse("nope"), None);
        assert!(Scenario::LIVE.iter().all(Scenario::is_live));
        assert!(!Scenario::ALL.iter().any(Scenario::is_live));
    }

    #[test]
    fn a_skipped_checkpoint_fails_the_seed_and_names_the_count() {
        assert_eq!(storage_verdict(&StorageSummary::default()), Ok(()));
        let skipped =
            StorageSummary { checkpoints: 9, skipped_checkpoints: 1, ..Default::default() };
        let verdict = storage_verdict(&skipped).expect_err("a skipped checkpoint fails the seed");
        assert!(verdict.contains("1 checkpoint(s) skipped"), "{verdict}");
    }

    #[test]
    fn ops_target_scales_runs_and_streaming_certifies() {
        for &scenario in &[Scenario::SpannerRss, Scenario::ComposedFaults] {
            let run = run_seed(scenario, 7, Some(600));
            assert!(
                run.report.certified,
                "{} seed 7 (ops target) must certify: {:?}",
                scenario.name(),
                run.report.violation
            );
            assert!(run.report.components >= 1);
            assert!(run.report.peak_window >= 1, "the reorder buffer was exercised");
            assert!(
                run.report.history_ops < 2_000,
                "{} duration scaled down toward the 600-op target ({} ops)",
                scenario.name(),
                run.report.history_ops
            );
        }
    }

    #[test]
    fn bytes_per_checkpoint_stay_flat_as_the_run_grows() {
        // A shard checkpoints what changed, not what it holds: a run four
        // times as long writes about as many bytes per checkpoint. (When a
        // checkpoint rewrote every version chain and the decision log, they
        // grew with the run: 4x the run was ~4x the bytes.)
        let per_checkpoint = |ops| {
            let run = run_seed(Scenario::SpannerFaultsDurable, 3, Some(ops));
            assert!(run.report.certified, "{ops} ops: {:?}", run.report.violation);
            let s = run.report.storage;
            assert!(s.checkpoints >= 8 && s.recoveries > 0, "{ops} ops: {s:?}");
            s.snapshot_bytes as f64 / s.checkpoints as f64
        };
        let (short, long) = (per_checkpoint(2_500), per_checkpoint(10_000));
        assert!(
            long <= 1.5 * short,
            "{short:.0} B per checkpoint at 2 500 ops, {long:.0} at 10 000"
        );
    }

    #[test]
    fn each_scenario_certifies_one_seed() {
        for scenario in Scenario::ALL {
            let run = run_seed(scenario, 42, None);
            assert!(
                run.report.certified,
                "{} seed 42 must certify: {:?}",
                scenario.name(),
                run.report.violation
            );
            assert!(run.artifact.is_none());
            assert!(
                run.report.history_ops > 128,
                "{} histories exceed the old exact-search frontier ({} ops)",
                scenario.name(),
                run.report.history_ops
            );
            assert!(run.report.p99_ms >= run.report.p50_ms);
            match scenario {
                Scenario::SpannerFaults | Scenario::GryffFaults | Scenario::ComposedFaults => {
                    assert!(
                        run.report.dropped > 0
                            && run.report.duplicated > 0
                            && run.report.expired > 0,
                        "{} fault plane was active: {:?}/{:?}/{:?}",
                        scenario.name(),
                        run.report.dropped,
                        run.report.duplicated,
                        run.report.expired
                    );
                    assert!(
                        run.report.storage.is_empty(),
                        "{} runs volatile; no WAL traffic",
                        scenario.name()
                    );
                }
                Scenario::SpannerFaultsDurable
                | Scenario::GryffFaultsDurable
                | Scenario::ComposedFaultsDurable => {
                    assert!(
                        run.report.dropped > 0 && run.report.expired > 0,
                        "{} fault plane was active: {:?}/{:?}",
                        scenario.name(),
                        run.report.dropped,
                        run.report.expired
                    );
                    let s = run.report.storage;
                    assert!(s.records > 0 && s.bytes > 0, "{} logged mutations", scenario.name());
                    assert!(
                        s.syncs > 0 && s.syncs < s.records,
                        "{} group commit batched records per fsync ({} records, {} syncs)",
                        scenario.name(),
                        s.records,
                        s.syncs
                    );
                    assert!(
                        s.recoveries > 0 && s.replayed > 0,
                        "{} crash recovery replayed from the WAL ({} recoveries, {} replayed)",
                        scenario.name(),
                        s.recoveries,
                        s.replayed
                    );
                }
                Scenario::SpannerOneWay => {
                    assert!(
                        run.report.dropped > 0 && run.report.duplicated > 0,
                        "{} one-way cuts and the lossy window fired: {:?}/{:?}",
                        scenario.name(),
                        run.report.dropped,
                        run.report.duplicated
                    );
                    assert_eq!(run.report.expired, 0, "no node crashes in the one-way scenario");
                }
                Scenario::SpannerCommitCrash => {
                    assert!(
                        run.report.expired > 0,
                        "{} messages expired at the crashed shard: {:?}",
                        scenario.name(),
                        run.report.expired
                    );
                    assert_eq!(run.report.dropped, 0, "commit-crash cuts no links");
                }
                _ => {
                    assert_eq!(run.report.dropped, 0, "{} is fault-free", scenario.name());
                }
            }
        }
    }
}
