//! End-to-end durability differentials over the whole stack.
//!
//! Three anchors pin the write-ahead log to the protocols' semantics:
//!
//! 1. **Healthy runs are byte-identical.** With no faults and a zero
//!    group-commit window, a run under `Durability::Wal` produces exactly
//!    the history and final store of the same run under
//!    `Durability::InMemory` — durability is observationally invisible
//!    until something crashes.
//! 2. **Offline replay equals the live state.** After a faulty run (real
//!    crashes, torn tails, in-protocol recovery), re-reading each node's
//!    device offline — snapshot plus surviving log records, no protocol
//!    code — reconstructs exactly the store the live node ended with.
//! 3. **Recovery feeds certification.** The faulty durable runs still
//!    certify their consistency model, with the storage counters proving
//!    recovery actually replayed the log.

use regular_core::types::{Key, Value};
use regular_gryff::durable::replay_registers;
use regular_gryff::prelude as gryff;
use regular_session::{ClusterNode, Plane, SessionConfig, SessionWorkload, SimPlane};
use regular_sim::fault::{FaultSchedule, LinkScope};
use regular_sim::net::LatencyMatrix;
use regular_sim::time::{SimDuration, SimTime};
use regular_spanner::durable::replay_store;
use regular_spanner::prelude as spanner;
use regular_storage::{Durability, StorageRegistry, WalOptions};

const SEED: u64 = 42;

/// A short faulty window: one node crash (wiping volatile state under WAL
/// durability) plus a lossy stretch, inside a 12-simulated-second run.
fn crash_faults(victim: usize) -> FaultSchedule {
    FaultSchedule::new().crash(victim, SimTime::from_secs(3), SimTime::from_secs(5)).drop_window(
        LinkScope::All,
        SimTime::from_secs(6),
        SimTime::from_secs(9),
        0.05,
    )
}

/// A WAL configuration sized so a short run still exercises everything:
/// segment rotation, checkpoints, group commit, and seeded torn tails.
fn wal(registry: &StorageRegistry) -> Durability {
    Durability::Wal(
        WalOptions::mem(registry.clone())
            .with_group_commit_us(200)
            .with_segment_bytes(16 * 1024)
            .with_checkpoint_every(128)
            .with_torn_tail_seed(SEED),
    )
}

fn run_spanner(durability: Durability, faults: Option<FaultSchedule>) -> spanner::RunResult {
    let mut config =
        spanner::SpannerConfig::wan(spanner::Mode::SpannerRss).with_durability(durability);
    if let Some(faults) = faults {
        config = config.with_faults(faults, SimDuration::from_millis(1_500));
    }
    let clients = (0..3)
        .map(|i| spanner::ClientSpec {
            region: i % 3,
            sessions: SessionConfig::closed_loop(3, SimDuration::ZERO)
                .with_workload_seed(SEED.wrapping_mul(1_000_003).wrapping_add(i as u64)),
            workload: Box::new(spanner::UniformWorkload {
                num_keys: 100,
                ro_fraction: 0.5,
                keys_per_txn: 2,
            }) as Box<dyn SessionWorkload>,
        })
        .collect();
    spanner::run_cluster(spanner::ClusterSpec {
        config,
        net: LatencyMatrix::spanner_wan(),
        seed: SEED,
        clients,
        stop_issuing_at: SimTime::from_secs(12),
        drain: SimDuration::from_secs(6),
        measure_from: SimTime::from_secs(1),
    })
}

/// Final register contents per replica, each sorted by key.
type Registers = Vec<Vec<(Key, Value, gryff::Carstamp)>>;

/// A Gryff-RSC run, with every replica's final registers read off the
/// deployment before its result is collected.
fn run_gryff(
    durability: Durability,
    faults: Option<FaultSchedule>,
) -> (gryff::GryffRunResult, Registers) {
    let mut config = gryff::GryffConfig::wan(gryff::Mode::GryffRsc).with_durability(durability);
    if let Some(faults) = faults {
        config = config.with_faults(faults, SimDuration::from_millis(1_500));
    }
    let clients = (0..5)
        .map(|i| gryff::GryffClientSpec {
            region: i % 5,
            sessions: SessionConfig::closed_loop(2, SimDuration::ZERO)
                .with_workload_seed(SEED.wrapping_mul(999_983).wrapping_add(i as u64)),
            workload: Box::new(gryff::ConflictWorkload::ycsb(0.5, 0.25, SEED + i as u64))
                as Box<dyn SessionWorkload>,
        })
        .collect();
    let (measure_from, stop_issuing_at) = (SimTime::from_secs(1), SimTime::from_secs(12));
    let ran = SimPlane::default().run(gryff::build(gryff::GryffClusterSpec {
        config,
        net: LatencyMatrix::gryff_wan(),
        seed: SEED,
        clients,
        stop_issuing_at,
        drain: SimDuration::from_secs(6),
        measure_from,
    }));
    let registers = ran
        .nodes
        .iter()
        .filter_map(|node| match node {
            ClusterNode::Server(replica) => Some(replica.registers()),
            ClusterNode::Client(_) => None,
        })
        .collect();
    (gryff::collect(ran, gryff::Mode::GryffRsc, measure_from, stop_issuing_at), registers)
}

#[test]
fn healthy_spanner_wal_run_is_byte_identical_to_in_memory() {
    let registry = StorageRegistry::new();
    // Group commit 0: every append syncs immediately, so the WAL never
    // defers work to a timer and the event schedule matches exactly.
    let durable = run_spanner(Durability::Wal(WalOptions::mem(registry.clone())), None);
    let volatile = run_spanner(Durability::InMemory, None);

    let (dh, dw) = spanner::build_history(&durable);
    let (vh, vw) = spanner::build_history(&volatile);
    assert_eq!(dh, vh, "healthy WAL run must replay the in-memory history byte for byte");
    assert_eq!(dw, vw, "and the serialization witness");
    assert_eq!(durable.shard_stores, volatile.shard_stores, "and the final committed stores");
    assert!(volatile.storage.is_empty(), "in-memory runs log nothing");
    assert!(durable.storage.records > 0, "the WAL run actually logged");
}

#[test]
fn healthy_gryff_wal_run_is_byte_identical_to_in_memory() {
    let registry = StorageRegistry::new();
    let (durable, durable_registers) =
        run_gryff(Durability::Wal(WalOptions::mem(registry.clone())), None);
    let (volatile, volatile_registers) = run_gryff(Durability::InMemory, None);

    let (dh, mut dc) = gryff::build_history(&durable);
    let (vh, mut vc) = gryff::build_history(&volatile);
    assert_eq!(dh, vh, "healthy WAL run must replay the in-memory history byte for byte");
    // The edge order is deterministic too (`carstamp_chain_edges` sorts its
    // rows, and process order is sorted); the check is on the edge set, so
    // it compares sorted.
    dc.sort_unstable();
    vc.sort_unstable();
    assert_eq!(dc, vc, "and the carstamp-chain constraint edges");
    assert_eq!(durable_registers, volatile_registers, "and the final registers");
    assert!(volatile.storage.is_empty());
    assert!(durable.storage.records > 0);
}

#[test]
fn spanner_crash_recovery_replays_the_log_and_still_certifies() {
    let registry = StorageRegistry::new();
    let result = run_spanner(wal(&registry), Some(crash_faults(0)));

    let s = &result.storage;
    assert!(s.recoveries > 0, "the crashed shard recovered from its log ({s:?})");
    assert!(s.replayed > 0, "recovery replayed logged records ({s:?})");
    assert!(s.checkpoints > 0, "the run checkpointed ({s:?})");
    assert!(s.syncs < s.records, "group commit batched fsyncs ({s:?})");
    assert!(result.client_stats.rw_completed > 50, "the cluster kept serving");
    spanner::verify_run(&result).expect("Spanner-RSS must satisfy RSS through durable recovery");

    // Offline differential: re-reading each shard's device without any
    // protocol code reconstructs exactly the store the live shard ended with.
    for (shard, live) in result.shard_stores.iter().enumerate() {
        let mut replayed = replay_store(registry.disk(&format!("spanner-shard-{shard}"))).dump();
        replayed.sort_unstable_by_key(|(k, ts, _)| (k.0, *ts));
        assert_eq!(
            &replayed, live,
            "offline WAL replay of shard {shard} must equal its final live store"
        );
    }
}

#[test]
fn gryff_crash_recovery_replays_the_log_and_still_certifies() {
    let registry = StorageRegistry::new();
    let (result, registers) = run_gryff(wal(&registry), Some(crash_faults(1)));

    let s = &result.storage;
    assert!(s.recoveries > 0, "the crashed replica recovered from its log ({s:?})");
    assert!(s.replayed > 0, "recovery replayed logged records ({s:?})");
    assert!(s.syncs < s.records, "group commit batched fsyncs ({s:?})");
    gryff::verify_run(&result).expect("Gryff-RSC must satisfy RSC through durable recovery");

    assert_eq!(registers.len(), 5, "every replica's registers were read");
    for (replica, live) in registers.iter().enumerate() {
        let replayed = replay_registers(registry.disk(&format!("gryff-replica-{replica}")));
        assert_eq!(
            &replayed, live,
            "offline WAL replay of replica {replica} must equal its final live registers"
        );
    }
}

#[test]
fn durable_faulty_runs_are_deterministic_for_a_seed() {
    let run = || {
        let registry = StorageRegistry::new();
        run_spanner(wal(&registry), Some(crash_faults(0)))
    };
    let a = run();
    let b = run();
    let (ha, _) = spanner::build_history(&a);
    let (hb, _) = spanner::build_history(&b);
    assert_eq!(ha, hb, "same seed, same crashes, same torn tails: identical history");
    assert_eq!(a.shard_stores, b.shard_stores);
    assert_eq!(a.storage, b.storage, "and identical storage counters");
}
