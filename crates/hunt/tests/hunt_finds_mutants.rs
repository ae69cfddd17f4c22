//! The hunter's acceptance gate: with the PR-5 carstamp bug reintroduced
//! from the bug zoo, the guided hunt must rediscover it within a small
//! execution budget, the shrinker must reduce the trigger to a tiny
//! replayable artifact, and the whole pipeline must be deterministic.
//!
//! (These tests compile the mutants in via the crate's `bug-zoo`
//! dev-dependency feature; release builds of the protocols never contain
//! them.)

use regular_gryff::prelude::BugZoo;
use regular_hunt::{hunt, run_input, shrink, HuntConfig, HUNT_SCENARIO};
use regular_sweep::artifact::FailureArtifact;

fn mutant() -> BugZoo {
    BugZoo { two_component_carstamps: true }
}

fn small_budget() -> HuntConfig {
    HuntConfig { seed: 1, max_execs: 32, max_millis: None, bug_zoo: mutant() }
}

#[test]
fn guided_hunt_rediscovers_the_carstamp_mutant_within_32_executions() {
    let outcome = hunt(&small_budget());
    let found = outcome.found.expect("the carstamp mutant must be found within 32 executions");
    assert!(
        found.execs_to_find <= 32,
        "found only after {} executions (stage {})",
        found.execs_to_find,
        found.stage
    );
    // The bug is a certification failure of the mutated protocol, visible in
    // the violation text as a carstamp-ordering problem.
    assert!(!found.verdict.violation.as_ref().expect("the verdict failed").is_empty());
}

#[test]
fn the_shrunk_artifact_is_tiny_and_replays_without_resimulating() {
    let config = small_budget();
    let found = hunt(&config).found.expect("mutant found");
    let minimized = shrink(&found.input, config.bug_zoo);
    assert!(minimized.verdict.failed(), "shrinking preserves the failure");
    assert!(
        minimized.verdict.history_ops() <= 50,
        "minimized repro must be at most 50 ops, got {}",
        minimized.verdict.history_ops()
    );
    assert!(minimized.input.scripted_ops() <= found.input.scripted_ops());

    // The artifact replays the recorded history against the rejected witness
    // with no simulator involved, reproducing the failing verdict. The hunter
    // judges with the certifier replay uses, so the artifact records exactly
    // the violation replay reports.
    let coverage = minimized.verdict.coverage.clone();
    let artifact = minimized
        .verdict
        .into_artifact(HUNT_SCENARIO, &minimized.input)
        .expect("a failing verdict packages into an artifact");
    let verdict = artifact.replay();
    let replayed = verdict.clone().expect_err("replay reproduces the violation");
    assert_eq!(artifact.violation, format!("regular violation: {replayed:?}"));

    // ...and survives a disk round trip byte-exactly, including the new
    // schedule and coverage fields.
    let dir = std::env::temp_dir().join("regular-hunt-artifact-test");
    let path = artifact.save(&dir).expect("artifact saves");
    let loaded = FailureArtifact::load(&path).expect("artifact loads");
    assert_eq!(loaded.replay(), verdict, "replay from disk reproduces the exact verdict");
    assert_eq!(loaded.coverage, Some(coverage), "coverage round-trips");
    let recorded = loaded.schedule.as_ref().expect("hunt artifacts carry their input");
    assert_eq!(recorded, &minimized.input, "the minimized input round-trips through the artifact");
    let _ = std::fs::remove_file(path);

    // The recorded input re-simulates to the same failure, for anyone who
    // wants to watch the bug live rather than replay the evidence.
    let rerun = run_input(recorded, None, config.bug_zoo);
    assert_eq!(rerun.violation, Some(artifact.violation), "re-simulation reproduces the failure");
}

#[test]
fn the_shrinker_is_deterministic_and_idempotent() {
    let config = small_budget();
    let found = hunt(&config).found.expect("mutant found");

    let a = shrink(&found.input, config.bug_zoo);
    let b = shrink(&found.input, config.bug_zoo);
    assert_eq!(a.input, b.input, "shrinking the same input twice gives the same minimum");
    assert_eq!(a.executions, b.executions, "and spends the same executions");

    let again = shrink(&a.input, config.bug_zoo);
    assert_eq!(again.input, a.input, "re-shrinking a minimum returns it unchanged");
}

#[test]
fn the_clean_protocol_passes_the_same_budget() {
    // Control: with no mutants enabled the identical search finds nothing,
    // so the gate above is measuring the bug, not a checker false positive.
    let outcome = hunt(&HuntConfig { bug_zoo: BugZoo::none(), ..small_budget() });
    assert!(outcome.found.is_none(), "clean protocol must certify under the hunt");
}
