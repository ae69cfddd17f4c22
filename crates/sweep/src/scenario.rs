//! Sweepable scenarios: one seeded, certified run per call.
//!
//! A scenario is one row of a `const` table: which workload (and with it the
//! deployment), on which plane, under which fault script, on which storage.
//! [`Scenario::input`] describes one seed of it as a [`HuntInput`] — the
//! seed drives the plane *and* the per-node workload RNG streams, the fault
//! script is a list of seed-derived [`FaultEvent`]s — and [`run_seed`] runs
//! that input through [`run_input`], the runner the hunter uses too:
//! deterministically on the simulator, certified by `certify_streaming` on
//! either plane. A failure yields a replayable [`FailureArtifact`] that
//! carries the input, so it can be re-simulated and shrunk from the file.
//!
//! Run sizes are tuned so one seed takes on the order of a hundred
//! milliseconds: large enough that every history is far past the old 128-op
//! exact-search ceiling (thousands of operations), small enough that a
//! 32-seed sweep of all eleven simulator scenarios finishes in seconds on one
//! core.

use std::time::Instant;

use regular_gryff::prelude::BugZoo;
use regular_live::{LivePlane, TransportKind};
use regular_storage::StorageSummary;

use crate::artifact::FailureArtifact;
use crate::input::{run_input, FaultEvent, HuntInput, Workload};

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

/// One scenario: a workload, the plane it runs on, and what is done to it.
struct Row {
    scenario: Scenario,
    /// Stable name (reports, artifacts, CLI flags).
    name: &'static str,
    /// Forgiving extra spellings [`Scenario::parse`] accepts.
    aliases: &'static [&'static str],
    /// The generated workload, which fixes the deployment.
    workload: Workload,
    /// `None` runs on the simulator; `Some` on that live plane.
    live: Option<LivePlane>,
    /// The seed-driven fault script, if any.
    faults: Option<fn(u64) -> Vec<FaultEvent>>,
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
        workload: Workload,
        ops_per_sim_sec: f64,
    ) -> Row {
        let (live, faults, durable) = (None, None, false);
        Row { scenario, name, aliases, workload, live, faults, durable, ops_per_sim_sec }
    }

    const fn faults(mut self, script: fn(u64) -> Vec<FaultEvent>) -> Row {
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
    use Scenario as S;
    use Workload::SpannerUniform as Spanner;
    use Workload::{ComposedPhoto, ComposedRoundRobin as Composed, GryffYcsb as Gryff};
    [
        Row::sim(S::SpannerRss, "spanner-rss", &["spanner", "rss"], Spanner, 57.0),
        Row::sim(S::GryffRsc, "gryff-rsc", &["gryff", "rsc"], Gryff, 102.0),
        Row::sim(S::Composed, "composed", &["multi-service", "duo"], Composed, 62.0),
        Row::sim(S::SpannerFaults, "spanner-faults", &[], Spanner, 48.0).faults(spanner_faults),
        Row::sim(S::GryffFaults, "gryff-faults", &[], Gryff, 97.0).faults(gryff_faults),
        Row::sim(S::ComposedFaults, "composed-faults", &["faults", "chaos"], ComposedPhoto, 30.0)
            .faults(composed_faults),
        Row::sim(S::SpannerOneWay, "spanner-oneway", &["oneway", "grey"], Spanner, 48.0)
            .faults(spanner_oneway),
        Row::sim(S::SpannerCommitCrash, "spanner-commit-crash", &["commit-crash"], Spanner, 54.0)
            .faults(spanner_commit_crash),
        Row::sim(
            S::SpannerFaultsDurable,
            "spanner-faults-durable",
            &["spanner-durable"],
            Spanner,
            48.0,
        )
        .faults(spanner_faults)
        .durable(),
        Row::sim(S::GryffFaultsDurable, "gryff-faults-durable", &["gryff-durable"], Gryff, 97.0)
            .faults(gryff_faults)
            .durable(),
        Row::sim(
            S::ComposedFaultsDurable,
            "composed-faults-durable",
            &["composed-durable", "durable"],
            ComposedPhoto,
            30.0,
        )
        .faults(composed_faults)
        .durable(),
        Row::sim(S::LiveSpannerRss, "live-spanner-rss", &["live-spanner"], Spanner, 57.0).live(),
        Row::sim(S::LiveGryffRsc, "live-gryff-rsc", &["live-gryff"], Gryff, 102.0).live(),
        Row::sim(S::LiveComposed, "live-composed", &[], Composed, 62.0).live(),
        Row::sim(S::LiveSpannerFaults, "live-spanner-faults", &["live-faults"], Spanner, 48.0)
            .faults(spanner_faults)
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

    /// Seed `seed` of this scenario as an input: its workload, its fault
    /// script drawn from the seed, its storage, and a run length of the
    /// scenario default or, with `ops`, about that many operations.
    pub fn input(&self, seed: u64, ops: Option<u64>) -> HuntInput {
        let row = self.row();
        let default_secs = match row.workload {
            Workload::ComposedRoundRobin | Workload::ComposedPhoto => 30,
            Workload::SpannerUniform | Workload::GryffYcsb => 45,
        };
        HuntInput {
            seed,
            faults: row.faults.map_or_else(Vec::new, |script| script(seed)),
            stop_ms: scaled_stop_secs(*self, ops, default_secs) * 1_000,
            workload: Some(row.workload),
            durable: row.durable,
            ..HuntInput::default()
        }
    }
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

/// Per-message probability, in permille, of the lossy windows in every
/// fault scenario.
const LOSS_PERMILLE: u32 = 20;

/// A window from second `from` until second `until`, as `(at_ms, dur_ms)`.
fn secs(from: u64, until: u64) -> (u64, u64) {
    (from * 1_000, (until - from) * 1_000)
}

/// Crashes server `node` from second `from` until second `until`.
fn crash(node: u64, from: u64, until: u64) -> FaultEvent {
    let (at_ms, dur_ms) = secs(from, until);
    FaultEvent::Crash { node: node as usize, at_ms, dur_ms }
}

/// Partitions `region` away from second `from` until second `until`.
fn partition(region: u64, from: u64, until: u64) -> FaultEvent {
    let (at_ms, dur_ms) = secs(from, until);
    FaultEvent::Partition { region: region as usize, at_ms, dur_ms }
}

/// Cuts the `a -> b` direction from second `from` until second `until`.
fn cut_oneway(a: u64, b: u64, from: u64, until: u64) -> FaultEvent {
    let (at_ms, dur_ms) = secs(from, until);
    FaultEvent::CutOneWay { from: a as usize, to: b as usize, at_ms, dur_ms }
}

/// A lossy window on every link: each message is dropped, and failing that
/// duplicated, with probability [`LOSS_PERMILLE`] — the engine consults
/// equal-time windows in script order.
fn lossy(from: u64, until: u64) -> [FaultEvent; 2] {
    let ((at_ms, dur_ms), permille) = (secs(from, until), LOSS_PERMILLE);
    [
        FaultEvent::Drop { at_ms, dur_ms, permille },
        FaultEvent::Duplicate { at_ms, dur_ms, permille },
    ]
}

/// `spanner-faults`: a shard-leader crash, a region partition and a lossy
/// window; the victim shard and the partitioned region rotate with the
/// seed.
fn spanner_faults(seed: u64) -> Vec<FaultEvent> {
    let events = [crash(seed % 3, 8, 12), partition((seed + 1) % 3, 18, 21)];
    events.into_iter().chain(lossy(25, 32)).collect()
}

/// `gryff-faults`: the same shape on Gryff; the crashed replica (it
/// coordinates rmws for keys equal to its index mod 5) rotates with the
/// seed.
fn gryff_faults(seed: u64) -> Vec<FaultEvent> {
    let events = [crash(seed % 5, 8, 12), partition((seed + 2) % 5, 18, 21)];
    events.into_iter().chain(lossy(25, 32)).collect()
}

/// `spanner-oneway`: two asymmetric one-way cuts (first `a -> b`, later the
/// reverse) plus a short lossy window, the pair rotating with the seed.
/// One-way cuts are the nastiest RSS stressor short of a crash: the receiver
/// keeps serving (and advancing its safe time) while every reply it sends
/// evaporates, so clients time out and retry transactions the shard already
/// executed.
fn spanner_oneway(seed: u64) -> Vec<FaultEvent> {
    let (a, b) = (seed % 3, (seed + 1) % 3);
    let events = [cut_oneway(a, b, 8, 12), cut_oneway(b, a, 18, 21)];
    events.into_iter().chain(lossy(25, 29)).collect()
}

/// `spanner-commit-crash`: three short (400 ms) crashes of the victim shard.
/// Under continuous load every window lands on transactions that are mid
/// commit-wait at that shard — the coordinator has chosen `t_commit` and is
/// waiting out TrueTime uncertainty when it dies — so recovery must re-drive
/// 2PC from the decision log and deferred timers without ever releasing an
/// outcome early.
fn spanner_commit_crash(seed: u64) -> Vec<FaultEvent> {
    let node = (seed % 3) as usize;
    let at_ms = |start_s: u64| start_s * 1_000 + (seed % 7) * 50;
    [9, 19, 29].map(|s| FaultEvent::Crash { node, at_ms: at_ms(s), dur_ms: 400 }).to_vec()
}

/// `composed-faults`. The photo app switches services on *every* step, so
/// each window fires during live libRSS service switches: a Spanner shard
/// crash (nodes 0..3), a Gryff replica crash (nodes 3..8), a region
/// partition, and a lossy window.
fn composed_faults(seed: u64) -> Vec<FaultEvent> {
    let events =
        [crash(seed % 3, 5, 8), crash(3 + seed % 5, 11, 14), partition((seed + 1) % 5, 16, 18)];
    events.into_iter().chain(lossy(20, 25)).collect()
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
    let input = scenario.input(seed, ops);
    let mut run = run_input(&input, scenario.row().live, BugZoo::none());
    // A certified history still fails the seed if a log skipped a checkpoint.
    if !run.failed() {
        run.violation = storage_verdict(&run.storage).err();
    }
    let stream = if run.failed() { Default::default() } else { run.stream };
    let report = SeedReport {
        scenario: scenario.name(),
        seed,
        certified: !run.failed(),
        violation: run.violation.clone(),
        history_ops: run.history_ops(),
        p50_ms: run.latency_ms.0,
        p99_ms: run.latency_ms.1,
        wall_ms: started.elapsed().as_secs_f64() * 1_000.0,
        cert_ms: run.cert_ms,
        dropped: run.net.dropped,
        duplicated: run.net.duplicated,
        expired: run.net.expired,
        components: stream.components,
        peak_window: stream.peak_window,
        wall_ops_per_sec: run.wall_ops_per_sec,
        storage: run.storage,
    };
    SeedRun { report, artifact: run.into_artifact(scenario.name(), &input) }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Json, JsonLayout};
    use regular_core::{History, OpId};

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

    /// FNV-1a of a seed's recorded history (its artifact text) and of its
    /// witness (the op ids in order).
    fn digests(history: &History, witness: &[OpId]) -> [u64; 2] {
        let fnv = |bytes: &mut dyn Iterator<Item = u8>| {
            bytes.fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
            })
        };
        let text = history.to_json().to_pretty();
        let ids = witness.iter().flat_map(|id| id.0.to_le_bytes());
        [
            fnv(&mut text.bytes()),
            fnv(&mut (witness.len() as u64).to_le_bytes().into_iter().chain(ids)),
        ]
    }

    /// `[history, witness]` digests of every simulator scenario's seed 42,
    /// in `Scenario::ALL` order, recorded before the sweep described its
    /// runs as hunt inputs.
    const SEED_42: [[u64; 2]; 11] = [
        [0xdc36_f559_7d4b_d08e, 0x8149_6602_b79c_6393], // spanner-rss
        [0xb144_5c22_1bbd_895a, 0xb2e5_3880_ae04_5401], // gryff-rsc
        [0xc2b2_675c_5c2e_dec2, 0xe539_ecdc_0e33_f3c8], // composed
        [0x1f31_5edd_205e_6a58, 0x6f4f_7620_3dd0_4578], // spanner-faults
        [0x61a3_1715_8fc1_4bf2, 0xc4e1_b2b7_3512_3742], // gryff-faults
        [0xb20d_04c4_8234_eebf, 0xffbe_e278_6b2f_22c4], // composed-faults
        [0x26fc_4c54_d622_f7b6, 0x4177_6bd3_8a4e_2133], // spanner-oneway
        [0x2bd9_d9d6_8603_f560, 0x6e5f_2c15_c2f1_08d5], // spanner-commit-crash
        [0xafbc_a937_6a8f_0765, 0xabf0_a924_a981_d47f], // spanner-faults-durable
        [0xf950_5b12_3608_be79, 0x571e_a820_96e6_370e], // gryff-faults-durable
        [0x7151_4d5a_e639_e5e2, 0x71e9_6214_4efa_9af9], // composed-faults-durable
    ];

    #[test]
    fn each_scenario_certifies_one_seed() {
        let mut actual = [[0u64; 2]; 11];
        for (i, scenario) in Scenario::ALL.into_iter().enumerate() {
            // Every sweep seed is a file: its input survives the JSON round
            // trip, and the parsed input re-simulates to the pinned digests.
            let input = scenario.input(42, None);
            let parsed = HuntInput::from_json(&Json::parse(&input.to_json().to_pretty()).unwrap());
            assert_eq!(parsed.as_ref(), Ok(&input), "{}", scenario.name());
            let evidence = run_input(&parsed.unwrap(), None, BugZoo::none());
            actual[i] = digests(&evidence.history, &evidence.witness);
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
        assert_eq!(actual, SEED_42, "a sweep history or witness moved: {actual:#018x?}");
    }
}
