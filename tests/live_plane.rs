//! Live execution plane integration tests: the protocol crates on real OS
//! threads and a scaled wall clock, certified with the same checkers as the
//! simulator.
//!
//! Four angles:
//!
//! * a differential check that a minimal zero-latency deployment — one spec
//!   function, run on both planes — certifies on both and makes comparable
//!   progress,
//! * a live run on a write-ahead log, whose WAL counters and final stores
//!   come back in the same result struct the simulator fills,
//! * the acceptance configuration — a 12-thread Spanner-RSS cluster under a
//!   30k-operation load, streaming-certified online, its progress judged
//!   against the simulator's run of the same spec,
//! * a faulted live run (crashes, partitions, drops on the wall clock) that
//!   still certifies.

use regular_seq::core::checker::certificate::WitnessModel;
use regular_seq::live::{LivePlane, TransportKind};
use regular_seq::session::{SessionConfig, SessionWorkload};
use regular_seq::sim::{LatencyMatrix, SimDuration, SimTime};
use regular_seq::spanner::durable::replay_store;
use regular_seq::spanner::prelude::*;
use regular_seq::storage::{Durability, StorageRegistry, WalOptions};
use regular_seq::sweep::{certify_streaming, run_seed, Scenario};

fn live(time_scale: u64, record_deliveries: bool) -> LivePlane {
    LivePlane { time_scale, record_deliveries, transport: TransportKind::Mpsc }
}

fn uniform_clients(
    num_clients: usize,
    sessions_per_client: usize,
    num_keys: u64,
    seed: u64,
) -> Vec<ClientSpec> {
    (0..num_clients)
        .map(|i| ClientSpec {
            region: i % 3,
            sessions: SessionConfig::closed_loop(sessions_per_client, SimDuration::ZERO)
                .with_workload_seed(seed.wrapping_mul(1_000_003).wrapping_add(i as u64)),
            workload: Box::new(UniformWorkload { num_keys, ro_fraction: 0.5, keys_per_txn: 2 })
                as Box<dyn SessionWorkload>,
        })
        .collect()
}

/// The same minimal deployment — one client, one session, a zero-latency
/// single-region network — run through the event-queue simulator and the
/// live plane. Thread scheduling makes the live interleaving nondeterministic,
/// so the differential assertions are behavioural, not bitwise: both planes
/// must certify RSS, and the live run must make progress of the same order of
/// magnitude (its only added latency is real scheduling jitter mapped onto
/// the scaled clock).
#[test]
fn live_plane_matches_simulator_on_a_zero_latency_cluster() {
    // Three regions (the wan config spreads replicas over them), zero
    // latency and zero jitter between all of them.
    let spec = || {
        let seed = 7;
        let zero = [0.0, 0.0, 0.0];
        ClusterSpec {
            config: SpannerConfig::wan(Mode::SpannerRss),
            net: LatencyMatrix::from_rtt_ms(&[&zero, &zero, &zero], SimDuration::ZERO),
            seed,
            clients: uniform_clients(1, 1, 100, seed),
            stop_issuing_at: SimTime::from_secs(10),
            drain: SimDuration::from_secs(5),
            measure_from: SimTime::from_secs(1),
        }
    };

    let sim = run_cluster(spec());
    let (sim_history, sim_witness) = build_history(&sim);
    certify_streaming(&sim_history, &sim_witness, WitnessModel::Regular)
        .expect("simulator run must certify RSS");
    assert!(sim.deliveries.is_empty() && sim.wall.is_zero(), "the simulator reports no wall");

    let live = run_cluster_on(&live(20, true), spec());
    let (live_history, live_witness) = build_history(&live);
    certify_streaming(&live_history, &live_witness, WitnessModel::Regular)
        .expect("live run must certify RSS");

    assert!(
        sim_history.len() >= 50,
        "simulator baseline too small to compare ({} ops)",
        sim_history.len()
    );
    let ratio = live_history.len() as f64 / sim_history.len() as f64;
    assert!(
        (0.2..=5.0).contains(&ratio),
        "live plane progress diverges from the simulator: {} live vs {} sim ops",
        live_history.len(),
        sim_history.len()
    );

    // The recorded delivery schedule is the replay evidence (the seeded
    // determinism escape hatch): present, and in delivery order.
    assert!(!live.deliveries.is_empty(), "live run must record its delivery schedule");
    assert!(
        live.deliveries.windows(2).all(|w| w[0].seq < w[1].seq),
        "delivery records must be sequenced in delivery order"
    );
}

/// What unifying the result struct makes observable: a live run on a
/// write-ahead log hands back non-zero WAL counters and every shard's final
/// store — and an offline replay of each shard's device rebuilds exactly that
/// store — while the history still streaming-certifies.
#[test]
fn live_spanner_on_a_wal_returns_storage_counters_and_final_stores() {
    let seed = 5;
    let registry = StorageRegistry::new();
    let config = SpannerConfig::wan(Mode::SpannerRss)
        .with_durability(Durability::Wal(WalOptions::mem(registry.clone())));
    let num_shards = config.num_shards;
    let result = run_cluster_on(
        &live(40, false),
        ClusterSpec {
            config,
            net: LatencyMatrix::spanner_wan(),
            seed,
            clients: uniform_clients(3, 2, 100, seed),
            stop_issuing_at: SimTime::from_secs(6),
            drain: SimDuration::from_secs(4),
            measure_from: SimTime::from_secs(1),
        },
    );
    let s = result.storage;
    assert!(s.records > 0 && s.bytes > 0 && s.syncs > 0, "shards logged to the WAL ({s:?})");
    assert_eq!(s.skipped_checkpoints, 0, "no snapshot outgrew its checkpoint area");
    assert_eq!(result.shard_stores.len(), num_shards);
    assert!(result.shard_stores.iter().any(|store| !store.is_empty()), "writes committed");
    for (shard, store) in result.shard_stores.iter().enumerate() {
        let mut replayed = replay_store(registry.disk(&format!("spanner-shard-{shard}"))).dump();
        replayed.sort_unstable_by_key(|(k, ts, _)| (k.0, *ts));
        assert_eq!(&replayed, store, "offline WAL replay of shard {shard} equals its final store");
    }
    let (history, witness) = build_history(&result);
    certify_streaming(&history, &witness, WitnessModel::Regular)
        .expect("durable live run must certify RSS");
}

/// The acceptance configuration of the live plane: 3 shard threads, 8 client
/// threads, and the router (12 OS threads) under 32 closed-loop sessions for
/// 280 simulated seconds, with the resulting history streaming-certified as
/// RSS. How many operations that is depends on the host — the run is paced by
/// the wall clock, and every millisecond the scheduler adds to a hop is 40 ms
/// of simulated time — so progress is judged against the simulator's run of
/// the same spec (tens of thousands of operations), not against an absolute
/// count.
#[test]
fn live_spanner_stress_run_certifies_rss_online() {
    let spec = || {
        let seed = 11;
        ClusterSpec {
            config: SpannerConfig::wan(Mode::SpannerRss),
            net: LatencyMatrix::spanner_wan(),
            seed,
            clients: uniform_clients(8, 4, 500, seed),
            stop_issuing_at: SimTime::from_secs(280),
            drain: SimDuration::from_secs(8),
            measure_from: SimTime::from_secs(1),
        }
    };

    let sim = run_cluster(spec());
    let (sim_history, sim_witness) = build_history(&sim);
    certify_streaming(&sim_history, &sim_witness, WitnessModel::Regular)
        .expect("simulator twin of the stress run must certify RSS");
    assert!(
        sim_history.len() >= 30_000,
        "the stress spec must offer at least 30k operations, the simulator completed {}",
        sim_history.len()
    );

    let result = run_cluster_on(&live(40, false), spec());
    let (history, witness) = build_history(&result);
    let stats = certify_streaming(&history, &witness, WitnessModel::Regular)
        .expect("live stress run must certify RSS through the streaming checker");
    assert!(stats.peak_window > 0, "streaming checker saw no concurrency window");
    assert!(result.wall_throughput > 0.0, "wall-clock throughput must be measured");

    let ratio = history.len() as f64 / sim_history.len() as f64;
    assert!(
        (0.2..=5.0).contains(&ratio),
        "live plane progress diverges from the simulator: {} live vs {} sim ops",
        history.len(),
        sim_history.len()
    );
}

/// Crashes, partitions, drops, and duplicates injected on the wall clock
/// (the `live-spanner-faults` sweep scenario) must leave a certifiable
/// history: lost messages cost throughput and retries, never correctness.
#[test]
fn live_spanner_run_with_faults_still_certifies() {
    let run = run_seed(Scenario::LiveSpannerFaults, 1, Some(2_000));
    assert!(
        run.report.certified,
        "faulted live run must certify, got violation: {:?}",
        run.report.violation
    );
    assert!(run.artifact.is_none(), "certified run must not emit a failure artifact");
    assert!(
        run.report.dropped > 0,
        "fault schedule must actually drop messages (dropped = {})",
        run.report.dropped
    );
    assert!(
        run.report.dropped + run.report.expired + run.report.duplicated > 10,
        "fault plane barely engaged: dropped {} expired {} duplicated {}",
        run.report.dropped,
        run.report.expired,
        run.report.duplicated
    );
    assert!(run.report.history_ops > 500, "faulted run made too little progress");
}
