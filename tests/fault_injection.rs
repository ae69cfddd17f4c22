//! End-to-end guarantees of the fault plane: composed runs under scripted
//! partitions, crashes, and lossy windows still certify as RSS; identical
//! `(engine seed, workload seed, FaultSchedule)` triples replay to
//! byte-identical histories; and failure artifacts from fault runs re-check
//! without re-simulating.

use proptest::prelude::*;
use regular_seq::core::checker::certificate::WitnessModel;
use regular_seq::sim::fault::{FaultSchedule, LinkScope};
use regular_seq::sim::net::Region;
use regular_seq::sim::time::{SimDuration, SimTime};
use regular_seq::sweep::artifact::{history_to_json, FailureArtifact};
use regular_seq::sweep::composed::{
    certify_composed, run_composed, ComposedRunConfig, ComposedWorkload,
};
use regular_seq::sweep::Json;

/// A short composed photo-app run with a crash, a partition, and lossy
/// windows — all firing while every lane switches services on every step.
fn chaotic_config(drop_p: f64) -> ComposedRunConfig {
    ComposedRunConfig {
        num_apps: 2,
        ops_per_service: 1,
        batch: 2,
        duration_secs: 14,
        drain_secs: 8,
        workload: ComposedWorkload::PhotoApp,
        faults: FaultSchedule::new()
            .crash(1, SimTime::from_secs(3), SimTime::from_secs(5))
            .partition_region(Region(2), SimTime::from_secs(7), SimTime::from_secs(8))
            .drop_window(LinkScope::All, SimTime::from_secs(9), SimTime::from_secs(11), drop_p)
            .duplicate_window(
                LinkScope::All,
                SimTime::from_secs(9),
                SimTime::from_secs(11),
                drop_p,
            ),
        op_timeout: Some(SimDuration::from_millis(1_200)),
        handoff_every: Some(6),
        ..ComposedRunConfig::default()
    }
}

#[test]
fn composed_photo_app_with_faults_and_handoffs_satisfies_rss() {
    let outcome = run_composed(3, &chaotic_config(0.03));
    assert!(outcome.spanner_ops() > 50, "photo store served load ({})", outcome.spanner_ops());
    assert!(outcome.gryff_ops() > 50, "request queue served load ({})", outcome.gryff_ops());
    assert!(outcome.auto_fences() > 50, "every step is a fenced switch");
    assert!(outcome.handoffs() > 0, "cross-process causal handoffs happened");
    let net = outcome.net_stats;
    assert!(net.dropped > 0 && net.duplicated > 0 && net.expired > 0, "faults fired ({net:?})");
    let certified = certify_composed(&outcome)
        .unwrap_or_else(|v| panic!("chaotic composed run satisfies RSS: {}", v.reason));
    assert!(
        !certified.history.external_communications().is_empty(),
        "handoffs are recorded as external communications"
    );
}

#[test]
fn a_fault_run_artifact_replays_without_resimulating() {
    // Take a certified fault run, corrupt its witness, and dump it exactly
    // the way the sweep dumps failing seeds: the artifact must reproduce the
    // violation from the recorded history alone (no simulator involved).
    let outcome = run_composed(5, &chaotic_config(0.02));
    let certified =
        certify_composed(&outcome).unwrap_or_else(|v| panic!("seed 5 certifies: {}", v.reason));
    let mut witness = certified.witness.clone();
    let last = witness.len() - 1;
    witness.swap(0, last);
    let artifact = FailureArtifact {
        scenario: "composed-faults".to_string(),
        seed: 5,
        model: WitnessModel::Regular,
        violation: "synthetic: witness corrupted for the replay test".to_string(),
        witness,
        history: certified.history,
        deliveries: Vec::new(),
        durability: None,
        schedule: None,
        coverage: None,
    };
    let verdict = artifact.replay();
    assert!(verdict.is_err(), "the corrupted witness must be rejected");

    let dir = std::env::temp_dir().join("regular-fault-artifact-test");
    let path = artifact.save(&dir).expect("artifact saves");
    let loaded = FailureArtifact::load(&path).expect("artifact loads");
    assert_eq!(loaded.replay(), verdict, "replay from disk reproduces the exact verdict");
    assert_eq!(loaded.history, artifact.history, "the history round-trips byte-exactly");
    // And the uncorrupted witness still certifies after the round trip.
    assert_eq!(
        regular_seq::core::checker::certificate::check_witness(
            &loaded.history,
            &certified.witness,
            WitnessModel::Regular
        ),
        Ok(())
    );
    let _ = std::fs::remove_file(path);
}

/// Renders a history as canonical JSON text — the byte-identity yardstick.
fn history_bytes(config: &ComposedRunConfig, seed: u64) -> String {
    let outcome = run_composed(seed, config);
    let mut recorder = regular_seq::session::HistoryRecorder::new();
    for app in &outcome.apps {
        for (_, rec) in &app.completed {
            recorder.record(app.node as u64, rec);
        }
    }
    history_to_json(recorder.history()).to_pretty()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Fault injection must not break deterministic replay: identical
    /// (engine seed, workload seed, schedule) triples produce byte-identical
    /// histories — the property sweep failure artifacts rely on. The
    /// workload seeds derive from the engine seed inside `run_composed`, so
    /// the triple is fully pinned by `(seed, config)`.
    #[test]
    fn identical_seed_and_schedule_replay_byte_identically(
        seed in 0u64..1_000,
        crash_at in 2u64..5,
        drop_permille in 0u64..60,
    ) {
        let config = ComposedRunConfig {
            num_apps: 2,
            ops_per_service: 1,
            batch: 1,
            duration_secs: 8,
            drain_secs: 6,
            workload: ComposedWorkload::PhotoApp,
            faults: FaultSchedule::new()
                .crash(0, SimTime::from_secs(crash_at), SimTime::from_secs(crash_at + 2))
                .drop_window(
                    LinkScope::All,
                    SimTime::from_secs(5),
                    SimTime::from_secs(7),
                    drop_permille as f64 / 1_000.0,
                ),
            op_timeout: Some(SimDuration::from_millis(1_200)),
            handoff_every: Some(5),
            ..ComposedRunConfig::default()
        };
        let a = history_bytes(&config, seed);
        let b = history_bytes(&config, seed);
        prop_assert_eq!(&a, &b, "same (seed, schedule) must replay byte-identically");
        prop_assert!(Json::parse(&a).is_ok(), "the rendered history is valid JSON");
        // A different seed under the same schedule diverges (the test would
        // be vacuous if the history ignored its inputs).
        let c = history_bytes(&config, seed.wrapping_add(1));
        prop_assert_ne!(a, c, "different seeds must diverge");
    }
}
