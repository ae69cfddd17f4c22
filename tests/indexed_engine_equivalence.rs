//! Protocol-level pin of the PR 5 tentpole: the indexed (arena + time-wheel)
//! event queue yields **byte-identical histories** to the retained
//! heap-based reference engine for the same
//! `(engine seed, workload seed, FaultSchedule)` — including same-timestamp
//! tie-breaking — across Spanner-RSS, Gryff-RSC, and the composed
//! deployment, healthy and under faults (the new one-way-cut and
//! crash-during-commit-wait shapes included), and on the deferral-heavy
//! shape of a single-data-center Spanner-RSS run on a write-ahead log,
//! whose nodes stay busy. Histories are compared as canonical JSON text,
//! the same yardstick the sweep's failure artifacts use.

use proptest::prelude::*;
use regular_seq::gryff::prelude as gryff;
use regular_seq::session::{HistoryRecorder, SessionConfig, SessionWorkload, SimPlane};
use regular_seq::sim::fault::{FaultSchedule, LinkScope};
use regular_seq::sim::net::{LatencyMatrix, Region};
use regular_seq::sim::queue::QueueKind;
use regular_seq::sim::time::{SimDuration, SimTime};
use regular_seq::spanner::prelude as spanner;
use regular_seq::storage::{Durability, StorageRegistry, WalOptions};
use regular_seq::sweep::artifact::history_to_json;
use regular_seq::sweep::composed::{run_composed_on, ComposedRunConfig, ComposedWorkload};

/// The simulator plane on the given event queue — the queue is a property of
/// the plane, not of any protocol's configuration.
fn sim<M>(queue: QueueKind) -> SimPlane<M> {
    SimPlane { queue, ..SimPlane::default() }
}

/// A Spanner-RSS WAN run rendered as canonical history JSON.
fn spanner_history(seed: u64, kind: QueueKind, faults: Option<FaultSchedule>) -> String {
    let mut config = spanner::SpannerConfig::wan(spanner::Mode::SpannerRss);
    if let Some(faults) = faults {
        config = config.with_faults(faults, SimDuration::from_millis(1_500));
    }
    let clients = (0..3)
        .map(|i| spanner::ClientSpec {
            region: i % 3,
            sessions: SessionConfig::closed_loop(3, SimDuration::ZERO)
                .with_workload_seed(seed.wrapping_mul(1_000_003).wrapping_add(i as u64)),
            workload: Box::new(spanner::UniformWorkload {
                num_keys: 200,
                ro_fraction: 0.5,
                keys_per_txn: 2,
            }) as Box<dyn SessionWorkload>,
        })
        .collect();
    let result = spanner::run_cluster_on(
        &sim(kind),
        spanner::ClusterSpec {
            config,
            net: LatencyMatrix::spanner_wan(),
            seed,
            clients,
            stop_issuing_at: SimTime::from_secs(15),
            drain: SimDuration::from_secs(6),
            measure_from: SimTime::from_secs(1),
        },
    );
    let (history, _) = spanner::build_history(&result);
    history_to_json(&history).to_pretty()
}

/// A single-data-center Spanner-RSS run on a `MemDisk` write-ahead log
/// (group commit, checkpoints) with one shard crashed and recovered from
/// its log, rendered as canonical history JSON. Single-DC latencies are
/// the scale of service times, so shards stay busy and most events wait
/// out a busy node: the busy path and crowded wheel buckets do the work.
fn durable_spanner_history(seed: u64, kind: QueueKind) -> String {
    let wal = WalOptions::mem(StorageRegistry::new())
        .with_group_commit_us(200)
        .with_segment_bytes(16 * 1024)
        .with_checkpoint_every(256)
        .with_torn_tail_seed(seed);
    let faults =
        FaultSchedule::new().crash(3, SimTime::from_millis(300), SimTime::from_millis(700));
    let timeout = SimDuration::from_millis(500);
    let mut config = spanner::SpannerConfig::single_dc(spanner::Mode::SpannerRss, 8)
        .with_faults(faults, timeout)
        .with_durability(Durability::Wal(wal));
    config.commit_timeout = timeout;
    let clients = (0..4)
        .map(|i| spanner::ClientSpec {
            region: 0,
            sessions: SessionConfig::closed_loop(8, SimDuration::ZERO)
                .with_workload_seed(seed.wrapping_mul(1_000_003).wrapping_add(i)),
            workload: Box::new(spanner::UniformWorkload {
                num_keys: 10_000,
                ro_fraction: 0.2,
                keys_per_txn: 3,
            }) as Box<dyn SessionWorkload>,
        })
        .collect();
    let result = spanner::run_cluster_on(
        &sim(kind),
        spanner::ClusterSpec {
            config,
            net: LatencyMatrix::single_dc(),
            seed,
            clients,
            stop_issuing_at: SimTime::from_millis(1_200),
            drain: SimDuration::from_secs(1),
            measure_from: SimTime::ZERO,
        },
    );
    assert!(result.storage.recoveries >= 1, "the crashed shard recovers from its log");
    let engine = result.engine;
    assert!(engine.deferrals > engine.events, "the run is deferral-heavy: {engine:?}");
    let (history, _) = spanner::build_history(&result);
    history_to_json(&history).to_pretty()
}

/// A Gryff-RSC WAN run rendered as canonical history JSON.
fn gryff_history(seed: u64, kind: QueueKind, faults: Option<FaultSchedule>) -> String {
    let mut config = gryff::GryffConfig::wan(gryff::Mode::GryffRsc);
    if let Some(faults) = faults {
        config = config.with_faults(faults, SimDuration::from_millis(1_500));
    }
    let clients = (0..5)
        .map(|i| gryff::GryffClientSpec {
            region: i % 5,
            sessions: SessionConfig::closed_loop(2, SimDuration::ZERO)
                .with_workload_seed(seed.wrapping_mul(999_983).wrapping_add(i as u64)),
            workload: Box::new(gryff::ConflictWorkload::ycsb(
                0.5,
                0.25,
                seed.wrapping_add(i as u64),
            )) as Box<dyn SessionWorkload>,
        })
        .collect();
    let result = gryff::run_gryff_on(
        &sim(kind),
        gryff::GryffClusterSpec {
            config,
            net: LatencyMatrix::gryff_wan(),
            seed,
            clients,
            stop_issuing_at: SimTime::from_secs(15),
            drain: SimDuration::from_secs(6),
            measure_from: SimTime::from_secs(1),
        },
    );
    let (history, _) = gryff::build_history(&result);
    history_to_json(&history).to_pretty()
}

/// A composed photo-app run under faults rendered as history JSON.
fn composed_history(seed: u64, kind: QueueKind) -> String {
    let config = ComposedRunConfig {
        num_apps: 2,
        ops_per_service: 1,
        batch: 2,
        duration_secs: 12,
        drain_secs: 8,
        workload: ComposedWorkload::PhotoApp,
        faults: FaultSchedule::new()
            .crash(1, SimTime::from_secs(3), SimTime::from_secs(5))
            .drop_window(LinkScope::All, SimTime::from_secs(7), SimTime::from_secs(9), 0.03)
            .duplicate_window(LinkScope::All, SimTime::from_secs(7), SimTime::from_secs(9), 0.03),
        op_timeout: Some(SimDuration::from_millis(1_200)),
        handoff_every: Some(6),
        ..ComposedRunConfig::default()
    };
    let outcome = run_composed_on(&sim(kind), seed, &config);
    let mut recorder = HistoryRecorder::new();
    for app in &outcome.apps {
        for (_, rec) in &app.completed {
            recorder.record(app.node as u64, rec);
        }
    }
    history_to_json(recorder.history()).to_pretty()
}

/// The spanner-oneway shape: asymmetric cuts in both directions plus loss.
fn oneway_faults() -> FaultSchedule {
    FaultSchedule::new()
        .cut_link_oneway(Region(0), Region(1), SimTime::from_secs(3), SimTime::from_secs(5))
        .cut_link_oneway(Region(1), Region(0), SimTime::from_secs(7), SimTime::from_secs(8))
        .drop_window(LinkScope::All, SimTime::from_secs(9), SimTime::from_secs(11), 0.02)
        .duplicate_window(LinkScope::All, SimTime::from_secs(9), SimTime::from_secs(11), 0.02)
}

/// The spanner-commit-crash shape: short crashes landing on commit waits.
fn commit_crash_faults() -> FaultSchedule {
    FaultSchedule::new()
        .crash(0, SimTime::from_millis(3_000), SimTime::from_millis(3_400))
        .crash(0, SimTime::from_millis(6_000), SimTime::from_millis(6_400))
        .crash(0, SimTime::from_millis(9_000), SimTime::from_millis(9_400))
}

#[test]
fn spanner_histories_are_byte_identical_across_queue_kinds() {
    for (label, faults) in [
        ("healthy", None),
        ("oneway", Some(oneway_faults())),
        ("commit-crash", Some(commit_crash_faults())),
    ] {
        let indexed = spanner_history(11, QueueKind::Indexed, faults.clone());
        let heap = spanner_history(11, QueueKind::ReferenceHeap, faults);
        assert_eq!(indexed, heap, "spanner {label}: queue kinds must replay identically");
        assert!(indexed.len() > 1_000, "spanner {label}: the run produced a real history");
    }
}

#[test]
fn durable_single_dc_spanner_histories_are_byte_identical_across_queue_kinds() {
    let indexed = durable_spanner_history(3, QueueKind::Indexed);
    let heap = durable_spanner_history(3, QueueKind::ReferenceHeap);
    assert_eq!(indexed, heap, "durable spanner: queue kinds must replay identically");
    assert!(indexed.len() > 1_000, "durable spanner: the run produced a real history");
}

#[test]
fn gryff_histories_are_byte_identical_across_queue_kinds() {
    let faults = FaultSchedule::new()
        .crash(2, SimTime::from_secs(3), SimTime::from_secs(5))
        .drop_window(LinkScope::All, SimTime::from_secs(7), SimTime::from_secs(9), 0.02);
    for (label, faults) in [("healthy", None), ("faults", Some(faults))] {
        let indexed = gryff_history(5, QueueKind::Indexed, faults.clone());
        let heap = gryff_history(5, QueueKind::ReferenceHeap, faults);
        assert_eq!(indexed, heap, "gryff {label}: queue kinds must replay identically");
    }
}

#[test]
fn composed_fault_histories_are_byte_identical_across_queue_kinds() {
    let indexed = composed_history(7, QueueKind::Indexed);
    let heap = composed_history(7, QueueKind::ReferenceHeap);
    assert_eq!(indexed, heap, "composed: queue kinds must replay identically");
    // And a different seed diverges, so the pin is not vacuous.
    assert_ne!(indexed, composed_history(8, QueueKind::Indexed));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Random fault schedules: the indexed engine replays the reference
    /// heap byte-for-byte on the full Spanner protocol stack.
    #[test]
    fn random_spanner_fault_schedules_replay_identically(
        seed in 0u64..500,
        victim in 0usize..3,
        crash_at in 2u64..6,
        cut_a in 0usize..3,
        drop_permille in 0u64..50,
    ) {
        let cut_b = (cut_a + 1) % 3;
        let faults = FaultSchedule::new()
            .crash(victim, SimTime::from_secs(crash_at), SimTime::from_secs(crash_at + 2))
            .cut_link_oneway(
                Region(cut_a),
                Region(cut_b),
                SimTime::from_secs(9),
                SimTime::from_secs(10),
            )
            .drop_window(
                LinkScope::All,
                SimTime::from_secs(10),
                SimTime::from_secs(12),
                drop_permille as f64 / 1_000.0,
            );
        let indexed = spanner_history(seed, QueueKind::Indexed, Some(faults.clone()));
        let heap = spanner_history(seed, QueueKind::ReferenceHeap, Some(faults));
        prop_assert_eq!(indexed, heap);
    }
}
