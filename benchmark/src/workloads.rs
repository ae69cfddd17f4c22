//! The four benchmark workloads and the one function that runs a unit of any
//! of them.
//!
//! A *unit* is one fixed-work run of a workload: build the deployment from
//! the seed, run it through the protocol crates' public entry points
//! (`run_cluster`, `run_gryff`, `run_cluster_live`), build the history, and
//! certify it with the streaming checker. Everything a unit needs is a pure
//! function of `(workload, variant, seeds, load)`, so a sim unit re-run
//! with the same arguments must reproduce its [`UnitResult::digest`] and
//! every sim-time number bit for bit.
//!
//! Why these four (the layer each one loads, and the layer it bypasses) is
//! recorded in `BENCHMARK.json` and `benchmark/README.md`.

use std::time::Instant;

use rand::rngs::SmallRng;
use regular_core::checker::assemble::assemble_witness;
use regular_core::checker::certificate::WitnessModel;
use regular_core::types::{Key, Value};
use regular_gryff::prelude as gryff;
use regular_live::{run_cluster_live, SpannerLiveSpec, TransportKind, WireStats};
use regular_session::{CompletedRecord, SessionConfig, SessionOp, SessionWorkload, WitnessHint};
use regular_sim::fault::FaultSchedule;
use regular_sim::{LatencyMatrix, LatencyRecorder, MessageStats, NodeId, SimDuration, SimTime};
use regular_spanner::durable::replay_store;
use regular_spanner::prelude as spanner;
use regular_spanner::shard::ShardStats;
use regular_storage::{Durability, StorageRegistry, StorageSummary, WalOptions};
use regular_sweep::{certify_streaming, StreamStats};
use regular_workloads::Retwis;

use crate::trace::Tracer;

/// A benchmark workload. The names are stable identifiers: later issues name
/// their claim as one *metric × workload* from `BENCHMARK.json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fig. 5: Spanner-RSS over the CA/VA/IR WAN, Retwis at Zipf 0.9.
    SimSpannerWan,
    /// Fig. 7: Gryff-RSC over the five-region WAN, YCSB with conflicts.
    SimGryffWan,
    /// §6.2 single data center, write-heavy, WAL-backed, with shard crashes.
    SimSpannerDcDurable,
    /// The Fig. 5 deployment on the live plane at time-scale 1 over UDS.
    LiveSpannerWan,
}

/// Every workload, in `BENCHMARK.json` order.
pub const ALL: [Workload; 4] = [
    Workload::SimSpannerWan,
    Workload::SimGryffWan,
    Workload::SimSpannerDcDurable,
    Workload::LiveSpannerWan,
];

impl Workload {
    /// The stable identifier.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SimSpannerWan => "sim_spanner_wan",
            Workload::SimGryffWan => "sim_gryff_wan",
            Workload::SimSpannerDcDurable => "sim_spanner_dc_durable",
            Workload::LiveSpannerWan => "live_spanner_wan",
        }
    }

    /// Parses a [`Workload::name`].
    pub fn parse(s: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == s)
    }

    /// True for the three simulator workloads: their sim-time metrics are a
    /// pure function of the seed and must repeat exactly.
    pub fn is_sim(self) -> bool {
        self != Workload::LiveSpannerWan
    }

    /// The measured unit (see [`Size`]): sized so a unit takes at least
    /// 0.3 s of wall time and both latency sides keep ten samples beyond the
    /// tail percentile. Raising the simulated load, never the client count,
    /// is how a unit is made longer. The live unit's 3.5 s also keeps its
    /// 1.6 MB heap clear of a table-doubling step: at 4 s one seed peaks at
    /// 1.70 MB and the next at 1.87.
    pub fn unit_size(self) -> Size {
        match self {
            Workload::SimSpannerWan => Size { load_ms: 300_000, parts: 6 },
            Workload::SimGryffWan => Size { load_ms: 1_200_000, parts: 1 },
            Workload::SimSpannerDcDurable => Size { load_ms: 800, parts: 1 },
            Workload::LiveSpannerWan => Size { load_ms: 3_500, parts: 1 },
        }
    }

    /// How many times a run sets up (build everything from the seed, run one
    /// discarded unit); `setup_s` is the fastest. Five on the simulator, where
    /// a set-up is a second of host-speed-bound work and a single one spread
    /// by 40 % of its median over ten runs. One on the live plane, where the
    /// clock paces it: 5.00–5.04 s over twenty runs.
    pub fn set_ups(self) -> usize {
        if self.is_sim() {
            5
        } else {
            1
        }
    }

    /// The tiny fixed size `--smoke` runs.
    pub fn smoke_size(self) -> Size {
        match self {
            Workload::SimSpannerWan => Size { load_ms: 60_000, parts: 2 },
            Workload::SimGryffWan => Size { load_ms: 60_000, parts: 1 },
            Workload::SimSpannerDcDurable => Size { load_ms: 200, parts: 1 },
            Workload::LiveSpannerWan => Size { load_ms: 500, parts: 1 },
        }
    }

    /// Simulated milliseconds before the measurement window opens (warm-up
    /// exclusion; on the durable workload, the crashes and their aftermath).
    pub fn lead_in_ms(self) -> u64 {
        match self {
            Workload::SimSpannerWan | Workload::SimGryffWan => 5_000,
            Workload::SimSpannerDcDurable => DURABLE_MEASURE_FROM_MS,
            Workload::LiveSpannerWan => 300,
        }
    }
}

/// How much fixed work a unit is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Size {
    /// Simulated milliseconds of measured load per part (the measurement
    /// window; each workload adds its own fixed lead-in and drain).
    pub load_ms: u64,
    /// Independent sub-runs a unit pools, on seeds derived from the run's
    /// seed (see [`part_seeds`]). Only `sim_spanner_wan` uses more than one: its partly-open
    /// sessions make every session a process of the history, and the
    /// streaming certifier's cost grows faster than linearly in them, so six
    /// 300 s parts certify in a fraction of the time one 1 800 s part would,
    /// and pool 55k samples per latency side.
    pub parts: u32,
}

/// Which deployment of a workload a unit runs: the workload itself, or one
/// of the twins the traced run compares it against (same seed, one thing
/// changed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// The workload as specified.
    Main,
    /// The strict baseline protocol (Spanner / Gryff) on the same inputs.
    Strict,
    /// `Durability::InMemory` instead of the WAL (durable workload only).
    InMemory,
    /// The mpsc transport instead of UDS (live workload only).
    Mpsc,
    /// The simulator instead of the live plane (live workload only).
    Sim,
}

/// Raw per-layer counts of one unit, straight from the public result
/// structs. Ratios are formed by the caller (see `run::layer_values`), so
/// they are measured where the work happens and divided once.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counters {
    /// Engine / router message counters.
    pub net: MessageStats,
    /// Distinct sessions that completed at least one operation.
    pub sessions: u64,
    /// Session turns: maximal runs of operations a session issued together.
    pub batches: u64,
    /// Open-loop arrivals shed over the in-flight cap (always 0 here: every
    /// workload is closed-loop or partly-open).
    pub shed: u64,
    /// Spanner shards: read-only requests answered at once.
    pub ro_immediate: u64,
    /// Spanner shards: read-only requests that blocked.
    pub ro_blocked: u64,
    /// Spanner shards: prepared transactions skipped by RSS fast replies.
    pub ro_skipped_prepared: u64,
    /// Spanner shards: prepares.
    pub prepares: u64,
    /// Spanner shards: aborts.
    pub aborts: u64,
    /// Spanner shards: commits.
    pub commits: u64,
    /// Spanner clients: completed read-write transactions.
    pub rw_completed: u64,
    /// Spanner clients: completed read-only transactions.
    pub ro_completed: u64,
    /// Spanner clients: read-only transactions that waited for a slow reply.
    pub ro_waited_slow: u64,
    /// Clients (either protocol): rounds or transactions re-issued after an
    /// operation timeout, plus Spanner's aborted commit attempts.
    pub retries: u64,
    /// Gryff clients: completed reads.
    pub reads: u64,
    /// Gryff clients: reads that needed the write-back round.
    pub slow_reads: u64,
    /// Gryff clients: dependencies piggy-backed onto later operations.
    pub deps_piggybacked: u64,
    /// Gryff replicas: piggy-backed dependencies applied.
    pub deps_applied: u64,
    /// Write-ahead-log counters summed over nodes (zero when in-memory).
    pub storage: StorageSummary,
    /// Socket traffic at the hub (zero off the socket transports).
    pub wire: WireStats,
}

impl Counters {
    /// Adds another unit's counts to these.
    pub fn absorb(&mut self, o: &Counters) {
        self.net = self.net.merged(o.net);
        self.sessions += o.sessions;
        self.batches += o.batches;
        self.shed += o.shed;
        self.ro_immediate += o.ro_immediate;
        self.ro_blocked += o.ro_blocked;
        self.ro_skipped_prepared += o.ro_skipped_prepared;
        self.prepares += o.prepares;
        self.aborts += o.aborts;
        self.commits += o.commits;
        self.rw_completed += o.rw_completed;
        self.ro_completed += o.ro_completed;
        self.ro_waited_slow += o.ro_waited_slow;
        self.retries += o.retries;
        self.reads += o.reads;
        self.slow_reads += o.slow_reads;
        self.deps_piggybacked += o.deps_piggybacked;
        self.deps_applied += o.deps_applied;
        self.storage.merge(&o.storage);
        self.wire.frames_tx += o.wire.frames_tx;
        self.wire.bytes_tx += o.wire.bytes_tx;
        self.wire.frames_rx += o.wire.frames_rx;
        self.wire.bytes_rx += o.wire.bytes_rx;
    }
}

/// Wall-clock cost of the three timed stages of a unit, in seconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct UnitWall {
    /// The protocol run itself (`run_cluster` / `run_gryff` /
    /// `run_cluster_live`).
    pub run_s: f64,
    /// `build_history` (plus witness assembly for Gryff).
    pub history_s: f64,
    /// `certify_streaming`.
    pub certify_s: f64,
}

impl UnitWall {
    /// What a sweep user waits for: run + history + certification.
    pub fn total_s(&self) -> f64 {
        self.run_s + self.history_s + self.certify_s
    }
}

/// Everything one unit produced.
#[derive(Debug, Clone)]
pub struct UnitResult {
    /// Read-only transaction (Spanner) / read (Gryff) latencies, protocol
    /// time, measurement window only.
    pub ro: LatencyRecorder,
    /// Read-write transaction (Spanner) / write + rmw (Gryff) latencies.
    pub rw: LatencyRecorder,
    /// Non-orphan, non-fence operations in the history (what was attempted
    /// and answered).
    pub ops: u64,
    /// Completed operations per second of protocol time inside the
    /// measurement window.
    pub ops_per_sim_s: f64,
    /// The streaming certifier's verdict.
    pub certified: Result<StreamStats, String>,
    /// Workload-specific correctness beyond certification (the durable
    /// workload's recovery and offline-replay checks).
    pub extra: Result<(), String>,
    /// Digest of every completion record: equal digests mean the unit
    /// replayed the same execution.
    pub digest: u64,
    /// Wall-clock cost by stage.
    pub wall: UnitWall,
    /// Per-layer raw counts.
    pub counters: Counters,
}

impl UnitResult {
    /// True when the unit certified and passed its workload's extra checks.
    pub fn correct(&self) -> bool {
        self.certified.is_ok() && self.extra.is_ok()
    }

    /// Pools another part of the same unit into this one: samples and counts
    /// add, verdicts combine, the certifier's peak window is the larger one.
    fn absorb(&mut self, other: UnitResult) {
        self.ro.merge(&other.ro);
        self.rw.merge(&other.rw);
        self.ops += other.ops;
        self.ops_per_sim_s += other.ops_per_sim_s;
        self.certified = match (self.certified.clone(), other.certified) {
            (Ok(a), Ok(b)) => Ok(StreamStats {
                ops: a.ops + b.ops,
                windows: a.windows + b.windows,
                peak_window: a.peak_window.max(b.peak_window),
                components: a.components + b.components,
            }),
            (Err(e), _) | (_, Err(e)) => Err(e),
        };
        if self.extra.is_ok() {
            self.extra = other.extra;
        }
        self.digest = self.digest.rotate_left(7) ^ other.digest;
        self.wall.run_s += other.wall.run_s;
        self.wall.history_s += other.wall.history_s;
        self.wall.certify_s += other.wall.certify_s;
        self.counters.absorb(&other.counters);
    }

    /// Why the unit is not correct, if it is not.
    pub fn failure(&self) -> Option<String> {
        match (&self.certified, &self.extra) {
            (Err(e), _) | (_, Err(e)) => Some(e.clone()),
            _ => None,
        }
    }
}

/// Stride between the candidate seeds of a unit's parts (the golden ratio).
const PART_STRIDE: u64 = 0x9E37_79B9_7F4A_7C15;

/// How many candidate seeds [`part_seeds`] may pass over before it takes
/// whatever comes and lets the run report `correct: false`.
const MAX_PASSED_OVER: usize = 3;

/// The seeds a unit's parts run on, and the candidates passed over.
///
/// A one-part unit runs on the run's seed. A pooled unit (`sim_spanner_wan`)
/// draws candidates from the run's seed onwards, a golden-ratio stride apart,
/// runs each once and keeps the first `size.parts` whose history certifies:
/// a benchmark's inputs are to be ones on which no operation fails, and on
/// about one 300 s Retwis part in 380 at Zipf 0.9 the unmodified
/// `regular-spanner` produces a history that is not RSS. Part seeds 5835,
/// 6015, 6050 and 900336 are four of them: the timestamp-ordered witness is
/// rejected, and no other order exists either — per-key commit order,
/// reads-from, anti-dependencies, process order and the model's real-time
/// edges together are cyclic (`assemble_witness`), two read-only transactions
/// having seen two concurrent writes in opposite orders. With the `t_ee` skip
/// disabled the same seeds certify. Lower skew or load makes it rarer, not
/// absent (5 parts in 9 500 at half the arrival rate). The seeds passed over
/// are returned so the run can say so and count them
/// (`benchmark.part_seeds_passed_over`); after [`MAX_PASSED_OVER`] of them the
/// rest are taken unchecked.
pub fn part_seeds(
    workload: Workload,
    seed: u64,
    size: Size,
    tracer: &mut Tracer,
) -> (Vec<u64>, Vec<u64>) {
    if size.parts == 1 {
        return (vec![seed], Vec::new());
    }
    let (mut kept, mut passed_over) = (Vec::new(), Vec::new());
    let mut candidate = seed;
    while kept.len() < size.parts as usize {
        let take = passed_over.len() >= MAX_PASSED_OVER
            || run_unit(workload, Variant::Main, &[candidate], size.load_ms, tracer).correct();
        if take {
            kept.push(candidate);
        } else {
            passed_over.push(candidate);
        }
        candidate = candidate.wrapping_add(PART_STRIDE);
    }
    (kept, passed_over)
}

/// Runs one unit of `workload` in `variant`: one part of `load_ms` of
/// measured load per seed in `seeds` (from [`part_seeds`]), pooled. Records
/// `run`, `history.build` and `certify.stream` spans around the calls into
/// the layers.
///
/// # Panics
///
/// Panics if `variant` does not apply to `workload` or `seeds` is empty
/// (benchmark bugs, not input errors).
pub fn run_unit(
    workload: Workload,
    variant: Variant,
    seeds: &[u64],
    load_ms: u64,
    tracer: &mut Tracer,
) -> UnitResult {
    let applies = match workload {
        Workload::SimSpannerWan | Workload::SimGryffWan => {
            matches!(variant, Variant::Main | Variant::Strict)
        }
        Workload::SimSpannerDcDurable => {
            matches!(variant, Variant::Main | Variant::Strict | Variant::InMemory)
        }
        Workload::LiveSpannerWan => matches!(variant, Variant::Main | Variant::Mpsc | Variant::Sim),
    };
    assert!(applies, "variant {variant:?} does not apply to {}", workload.name());
    let mut parts = seeds.iter().map(|&seed| match workload {
        Workload::SimGryffWan => gryff_part(variant, seed, load_ms, tracer),
        _ => spanner_part(workload, variant, seed, load_ms, tracer),
    });
    let mut unit = parts.next().expect("a unit has at least one part");
    for part in parts {
        unit.absorb(part);
    }
    unit.ops_per_sim_s /= seeds.len() as f64;
    unit
}

// ----- inputs -----

/// The Retwis generator behind the session layer's workload interface.
struct RetwisSessions(Retwis);

impl SessionWorkload for RetwisSessions {
    fn next_op(&mut self, rng: &mut SmallRng) -> SessionOp {
        let txn = self.0.next_txn(rng);
        let keys = txn.keys.iter().map(|&k| Key(k)).collect();
        if txn.read_only {
            SessionOp::RoTxn { keys }
        } else {
            SessionOp::RwTxn { keys }
        }
    }
}

/// The op stream of client node `i` is a pure function of the run seed.
fn workload_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_mul(1_000_003).wrapping_add(i as u64)
}

fn uniform(num_keys: u64, ro_fraction: f64, keys_per_txn: usize) -> Box<dyn SessionWorkload> {
    Box::new(spanner::UniformWorkload { num_keys, ro_fraction, keys_per_txn })
}

/// Session arrivals per second per client node on `sim_spanner_wan`. The
/// issue's 4/s is past this implementation's collapse point at Zipf 0.9: a
/// 300 s part aborts 199 894 attempts for 16 757 commits, completes 63 of the
/// 120 transactions offered per second with a read-write p99 of 19 s, and
/// takes 85 s of wall time. At 3/s the tail still grows with the run's length
/// (read-only p99 271 ms over a 150 s part, 328 ms over 300 s); at 2/s it does
/// not (213 ms over 300 s and over 600 s).
const WAN_ARRIVALS_PER_S: f64 = 2.0;

/// Closed-loop sessions per client node on `live_spanner_wan`, one node per
/// region. The live plane runs on the host's clock, so whatever the host adds
/// to a message lands in the latencies. On the single-data-center matrix
/// (150 µs round trips) a latency *was* that: across one quarter of an hour
/// the same run read a read-only median of 0.47–1.29 ms and a p99 of
/// 1.1–3.5 ms, and one run in a loud stretch completed so few operations that
/// it had no p99 to report. On the WAN matrix a latency is 60–450 ms of
/// modelled waiting plus the same 0.3–1 ms, and repeats within 1 %. The
/// session count sets how busy the hub is: every message crosses it twice,
/// and it carries ~60k frames/s on a quiet host. 96 sessions a node
/// (20k frames/s) left the read-only median at 69 ms when the host was quiet
/// and 82 ms when it was loud; 40 a node is 8k frames/s, an eighth of what
/// the hub can carry, and still gives each latency side 1 150 samples a unit.
const LIVE_SESSIONS_PER_NODE: usize = 40;

/// The durable workload's fault script. The victim shard is down for 400 ms
/// twice, each time after 100 ms of traffic, so both recoveries find a log to
/// replay with a torn tail. How much of it lies past the last checkpoint is
/// the phase of a 1 024-record cycle, anything from 0 to 1 023 records; with
/// one loaded crash one seed in a thousand replays nothing and fails the
/// gate below (seed 26 did), with two it takes one in a million.
/// Operation and commit timeouts are both 500 ms — the issue's 1.5 s left a
/// seed-dependent number of sessions running for a second between "shard
/// back" and "everyone timed out", which made a unit cost 10k or 18k
/// operations depending on the seed. With the timeout just past the crash
/// length every session stalls within 10 ms of the crash, retries once,
/// against a recovered shard, and all of them are back within 150 ms of each
/// other: the lead-in is the same ~5k operations on every seed, and the
/// measurement window opens on a cluster in steady state with two recoveries
/// behind it.
const DURABLE_CRASHES_MS: [u64; 2] = [100, 700];
const DURABLE_CRASH_LEN_MS: u64 = 400;
const DURABLE_TIMEOUT_MS: u64 = 500;
const DURABLE_MEASURE_FROM_MS: u64 = 1_400;

/// Records between checkpoints: the library's default for the memory
/// backing, not the issue's 256. At 256 a unit spent most of its wall time
/// writing checkpoints through the buffer pool (`storage.pool.
/// checkpoint_us_per_kb` is ~40 µs, i.e. ~25 MB/s), which capped a 2 s unit at
/// 6k measured operations and left both p99s spreading 13–17 % across seeds;
/// at 1 024 a 1.3 s unit measures 12k and they spread 3–4 %. Storage still
/// does most of the work (`storage.wal.wall_cost_ratio`).
const DURABLE_CHECKPOINT_EVERY: u64 = 1_024;

/// The parts of a Spanner deployment both planes consume.
struct SpannerParts {
    config: spanner::SpannerConfig,
    net: LatencyMatrix,
    clients: Vec<spanner::ClientSpec>,
    stop_issuing_at: SimTime,
    drain: SimDuration,
    measure_from: SimTime,
    /// Kept so the durable workload can replay every shard's device offline.
    registry: Option<StorageRegistry>,
}

fn spanner_parts(workload: Workload, variant: Variant, seed: u64, load_ms: u64) -> SpannerParts {
    let mode =
        if variant == Variant::Strict { spanner::Mode::Spanner } else { spanner::Mode::SpannerRss };
    let measure_from = SimTime::from_millis(workload.lead_in_ms());
    let stop_issuing_at = SimTime::from_millis(workload.lead_in_ms() + load_ms);
    match workload {
        Workload::SimSpannerWan => SpannerParts {
            config: spanner::SpannerConfig::wan(mode),
            net: LatencyMatrix::spanner_wan(),
            clients: (0..3)
                .map(|region| spanner::ClientSpec {
                    region,
                    sessions: SessionConfig::partly_open(
                        WAN_ARRIVALS_PER_S,
                        0.9,
                        SimDuration::ZERO,
                    )
                    .with_workload_seed(workload_seed(seed, region)),
                    workload: Box::new(RetwisSessions(Retwis::new(400_000, 0.9))),
                })
                .collect(),
            stop_issuing_at,
            drain: SimDuration::from_secs(20),
            measure_from,
            registry: None,
        },
        Workload::SimSpannerDcDurable => {
            let shards = 8;
            let registry = StorageRegistry::new();
            let durability = if variant == Variant::InMemory {
                Durability::InMemory
            } else {
                Durability::Wal(
                    WalOptions::mem(registry.clone())
                        .with_group_commit_us(200)
                        .with_segment_bytes(16 * 1024)
                        .with_checkpoint_every(DURABLE_CHECKPOINT_EVERY)
                        .with_torn_tail_seed(seed),
                )
            };
            let victim = (seed % shards as u64) as usize;
            let faults = DURABLE_CRASHES_MS.iter().fold(FaultSchedule::new(), |f, &at| {
                f.crash(
                    victim,
                    SimTime::from_millis(at),
                    SimTime::from_millis(at + DURABLE_CRASH_LEN_MS),
                )
            });
            let mut config = spanner::SpannerConfig::single_dc(mode, shards)
                .with_faults(faults, SimDuration::from_millis(DURABLE_TIMEOUT_MS))
                .with_durability(durability);
            config.commit_timeout = SimDuration::from_millis(DURABLE_TIMEOUT_MS);
            SpannerParts {
                config,
                net: LatencyMatrix::single_dc(),
                clients: (0..4)
                    .map(|i| spanner::ClientSpec {
                        region: 0,
                        sessions: SessionConfig::closed_loop(8, SimDuration::ZERO)
                            .with_workload_seed(workload_seed(seed, i)),
                        workload: uniform(1_000_000, 0.2, 3),
                    })
                    .collect(),
                stop_issuing_at,
                drain: SimDuration::from_secs(1),
                measure_from,
                registry: (variant != Variant::InMemory).then_some(registry),
            }
        }
        Workload::LiveSpannerWan => SpannerParts {
            config: spanner::SpannerConfig::wan(mode),
            net: LatencyMatrix::spanner_wan(),
            clients: (0..3)
                .map(|region| spanner::ClientSpec {
                    region,
                    sessions: SessionConfig::closed_loop(LIVE_SESSIONS_PER_NODE, SimDuration::ZERO)
                        .with_workload_seed(workload_seed(seed, region)),
                    workload: uniform(100_000, 0.5, 2),
                })
                .collect(),
            stop_issuing_at,
            drain: SimDuration::from_millis(1_200),
            measure_from,
            registry: None,
        },
        Workload::SimGryffWan => unreachable!("Gryff units are built by gryff_part"),
    }
}

// ----- units -----

type Store = Vec<(Key, u64, Value)>;

/// What either Spanner plane hands back, reduced to what a unit needs.
struct SpannerRun {
    ro: LatencyRecorder,
    rw: LatencyRecorder,
    completed: Vec<(NodeId, Vec<CompletedRecord>)>,
    throughput: f64,
    counters: Counters,
    shard_stores: Vec<Store>,
}

fn spanner_counters(
    clients: &spanner::ClientStats,
    shards: &[ShardStats],
    net: MessageStats,
) -> Counters {
    let mut c = Counters {
        net,
        rw_completed: clients.rw_completed,
        ro_completed: clients.ro_completed,
        ro_waited_slow: clients.ro_waited_slow,
        retries: clients.aborted_attempts + clients.timeout_retries,
        ..Counters::default()
    };
    for s in shards {
        c.ro_immediate += s.ro_immediate;
        c.ro_blocked += s.ro_blocked;
        c.ro_skipped_prepared += s.ro_skipped_prepared;
        c.prepares += s.prepares;
        c.aborts += s.aborts;
        c.commits += s.commits;
    }
    c
}

fn spanner_part(
    workload: Workload,
    variant: Variant,
    seed: u64,
    load_ms: u64,
    tracer: &mut Tracer,
) -> UnitResult {
    let transport = match (workload, variant) {
        (Workload::LiveSpannerWan, Variant::Main) => Some(TransportKind::Uds),
        (Workload::LiveSpannerWan, Variant::Mpsc) => Some(TransportKind::Mpsc),
        _ => None,
    };
    let parts = spanner_parts(workload, variant, seed, load_ms);
    let registry = parts.registry.clone();
    let model = match parts.config.mode {
        spanner::Mode::Spanner => WitnessModel::RealTime,
        spanner::Mode::SpannerRss => WitnessModel::Regular,
    };

    let span = tracer.enter("run");
    let started = Instant::now();
    let run = match transport {
        None => {
            let r = spanner::run_cluster(spanner::ClusterSpec {
                config: parts.config,
                net: parts.net,
                seed,
                clients: parts.clients,
                stop_issuing_at: parts.stop_issuing_at,
                drain: parts.drain,
                measure_from: parts.measure_from,
            });
            let mut counters = spanner_counters(&r.client_stats, &r.shard_stats, r.net_stats);
            counters.storage = r.storage;
            SpannerRun {
                ro: r.ro_latencies,
                rw: r.rw_latencies,
                completed: r.completed,
                throughput: r.throughput,
                counters,
                shard_stores: r.shard_stores,
            }
        }
        Some(transport) => {
            let r = run_cluster_live(SpannerLiveSpec {
                config: parts.config,
                net: parts.net,
                seed,
                clients: parts.clients,
                stop_issuing_at: parts.stop_issuing_at,
                drain: parts.drain,
                measure_from: parts.measure_from,
                time_scale: 1,
                record_deliveries: false,
                transport,
            });
            let mut counters = spanner_counters(&r.client_stats, &r.shard_stats, r.net_stats);
            counters.wire = r.wire;
            counters.shed = r.session_stats.shed;
            SpannerRun {
                ro: r.ro_latencies,
                rw: r.rw_latencies,
                completed: r.completed,
                throughput: r.throughput,
                counters,
                shard_stores: Vec::new(),
            }
        }
    };
    let run_s = started.elapsed().as_secs_f64();
    tracer.exit(span);

    let span = tracer.enter("history.build");
    let started = Instant::now();
    let (history, witness) = spanner::build_history_from(&run.completed);
    let history_s = started.elapsed().as_secs_f64();
    tracer.exit(span);

    let span = tracer.enter("certify.stream");
    let started = Instant::now();
    let certified = certify_streaming(&history, &witness, model)
        .map_err(|v| format!("{model:?} witness rejected (streaming): {v:?}"));
    let certify_s = started.elapsed().as_secs_f64();
    tracer.exit(span);

    let extra = match &registry {
        Some(registry) => {
            let span = tracer.enter("check.replay");
            let verdict = durable_checks(registry, &run.shard_stores, &run.counters.storage);
            tracer.exit(span);
            verdict
        }
        None => Ok(()),
    };

    let mut counters = run.counters;
    session_counts(&run.completed, &mut counters);
    UnitResult {
        ro: run.ro,
        rw: run.rw,
        ops: counted_ops(&run.completed),
        ops_per_sim_s: run.throughput,
        certified,
        extra,
        digest: digest(&run.completed),
        wall: UnitWall { run_s, history_s, certify_s },
        counters,
    }
}

/// The durable workload's gate beyond certification: a recovery really
/// replayed the log, and re-reading every shard's device offline — snapshot
/// plus surviving records, no protocol code — rebuilds exactly the store the
/// shard ended with, so no acknowledged write was lost.
fn durable_checks(
    registry: &StorageRegistry,
    stores: &[Store],
    storage: &StorageSummary,
) -> Result<(), String> {
    if storage.recoveries == 0 || storage.replayed == 0 {
        return Err(format!("no WAL recovery replayed records ({storage:?})"));
    }
    for (shard, live) in stores.iter().enumerate() {
        let mut replayed = replay_store(registry.disk(&format!("spanner-shard-{shard}"))).dump();
        replayed.sort_unstable_by_key(|(k, ts, _)| (k.0, *ts));
        if &replayed != live {
            return Err(format!(
                "offline WAL replay of shard {shard} differs from its final store \
                 ({} vs {} versions)",
                replayed.len(),
                live.len()
            ));
        }
    }
    Ok(())
}

fn gryff_part(variant: Variant, seed: u64, load_ms: u64, tracer: &mut Tracer) -> UnitResult {
    let (mode, model) = match variant {
        Variant::Strict => (gryff::Mode::Gryff, WitnessModel::RealTime),
        _ => (gryff::Mode::GryffRsc, WitnessModel::Regular),
    };
    let clients = (0..16)
        .map(|i| gryff::GryffClientSpec {
            region: i % 5,
            sessions: SessionConfig::closed_loop(1, SimDuration::ZERO)
                .with_workload_seed(workload_seed(seed, i)),
            // YCSB 50% writes / 10% conflicts, with a few read-modify-writes
            // beside them so the consensus path is on the books too.
            workload: Box::new(gryff::ConflictWorkload {
                rmw_ratio: 0.02,
                ..gryff::ConflictWorkload::ycsb(0.5, 0.10, i as u64)
            }),
        })
        .collect();

    let span = tracer.enter("run");
    let started = Instant::now();
    let r = gryff::run_gryff(gryff::GryffClusterSpec {
        config: gryff::GryffConfig::wan(mode),
        net: LatencyMatrix::gryff_wan(),
        seed,
        clients,
        stop_issuing_at: SimTime::from_millis(Workload::SimGryffWan.lead_in_ms() + load_ms),
        drain: SimDuration::from_secs(10),
        measure_from: SimTime::from_millis(Workload::SimGryffWan.lead_in_ms()),
    });
    let run_s = started.elapsed().as_secs_f64();
    tracer.exit(span);

    let span = tracer.enter("history.build");
    let started = Instant::now();
    let (history, edges) = gryff::build_history_from(&r.completed);
    let witness = assemble_witness(&history, &edges, model);
    let history_s = started.elapsed().as_secs_f64();
    tracer.exit(span);

    let span = tracer.enter("certify.stream");
    let started = Instant::now();
    let certified = match &witness {
        Ok(witness) => certify_streaming(&history, witness, model)
            .map_err(|v| format!("{model:?} witness rejected (streaming): {v:?}")),
        Err(e) => Err(format!(
            "carstamp/process-order constraints are cyclic ({} ops unordered)",
            e.unordered
        )),
    };
    let certify_s = started.elapsed().as_secs_f64();
    tracer.exit(span);

    let mut rw = r.write_latencies.clone();
    rw.merge(&r.rmw_latencies);
    let mut counters = Counters {
        net: r.net_stats,
        reads: r.client_stats.reads,
        slow_reads: r.client_stats.slow_reads,
        deps_piggybacked: r.client_stats.deps_piggybacked,
        deps_applied: r.replica_stats.iter().map(|s| s.deps_applied).sum(),
        retries: r.client_stats.timeout_retries,
        storage: r.storage,
        ..Counters::default()
    };
    session_counts(&r.completed, &mut counters);
    UnitResult {
        ro: r.read_latencies,
        rw,
        ops: counted_ops(&r.completed),
        ops_per_sim_s: r.throughput,
        certified,
        extra: Ok(()),
        digest: digest(&r.completed),
        wall: UnitWall { run_s, history_s, certify_s },
        counters,
    }
}

// ----- what the completion records say -----

fn counted(rec: &CompletedRecord) -> bool {
    !rec.orphan && !rec.kind.is_fence()
}

fn counted_ops(completed: &[(NodeId, Vec<CompletedRecord>)]) -> u64 {
    completed.iter().map(|(_, recs)| recs.iter().filter(|r| counted(r)).count() as u64).sum()
}

/// Session-layer counts the sim result structs do not carry, recovered from
/// the records: sessions that got at least one answer, and session turns
/// (operations a session had in flight together share an invocation instant).
fn session_counts(completed: &[(NodeId, Vec<CompletedRecord>)], c: &mut Counters) {
    for (_, recs) in completed {
        let mut turns: Vec<(u64, u64)> =
            recs.iter().filter(|r| counted(r)).map(|r| (r.session, r.invoke.as_micros())).collect();
        turns.sort_unstable();
        turns.dedup();
        c.batches += turns.len() as u64;
        turns.dedup_by_key(|t| t.0);
        c.sessions += turns.len() as u64;
    }
}

/// FNV-1a over the fields of every completion that a different execution
/// would change: who, when, how many attempts, and the serialization point.
fn digest(completed: &[(NodeId, Vec<CompletedRecord>)]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |v: u64| {
        for b in v.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for (node, recs) in completed {
        mix(*node as u64);
        mix(recs.len() as u64);
        for r in recs {
            mix(r.session);
            mix(u64::from(r.slot));
            mix(r.invoke.as_micros());
            mix(r.finish.as_micros());
            mix(u64::from(r.attempts));
            mix(u64::from(r.orphan));
            match r.witness {
                WitnessHint::None => mix(0),
                WitnessHint::Timestamp { ts } => mix(ts),
                WitnessHint::Carstamp { count, writer, rmwc } => {
                    mix(count);
                    mix(writer);
                    mix(rmwc);
                }
            }
        }
    }
    h
}
