//! Coverage-guided schedule search and automatic failure minimization.
//!
//! The conformance sweep (`regular-sweep`) certifies runs drawn from seed
//! ranges — breadth without guidance. This crate adds the depth: a hunter
//! that treats the whole `(seed, workload, fault schedule, delivery order)`
//! tuple as a mutable input, scores each execution by a behaviour-coverage
//! signature recorded inside the simulator, and searches toward
//! interleavings nothing has exercised yet. When a run fails certification,
//! a delta-debugging shrinker reduces the input to a locally minimal
//! trigger and emits a replayable [`FailureArtifact`].
//!
//! # Crate layout
//!
//! - [`input`] — [`HuntInput`], the search genome: scripted sessions, fault
//!   events, delivery nudges, a seed, and a run length; JSON round trip and
//!   normalizing lowering into a [`regular_sim::fault::FaultSchedule`].
//! - [`run`] — [`run_input`]: simulate one input on the Gryff-RSC WAN with
//!   coverage recording, then certify the history against the Regular
//!   witness model.
//! - [`mutate`](mod@mutate) — structural mutations over every input axis.
//! - [`explore`] — the evaluator cascade (smoke → random → guided) and the
//!   coverage-ranked corpus.
//! - [`shrink`](mod@shrink) — ddmin over sessions, ops, fault events,
//!   nudges, and run length; deterministic and idempotent.
//!
//! # From found to filed
//!
//! ```text
//! hunt(config)            explore: cascade until certification fails
//!   └─ FoundFailure       the triggering input + failing verdict
//!        └─ shrink(..)    ddmin: re-simulate every candidate reduction
//!             └─ failure_artifact(..)   minimized, replayable artifact
//! ```
//!
//! The artifact's `schedule` field carries the serialized [`HuntInput`], so
//! `regular-bench replay` reproduces the verdict from the recorded
//! history without re-simulating — and anyone who wants to watch the bug
//! live can feed the schedule back through [`run_input`].

pub mod explore;
pub mod input;
pub mod mutate;
pub mod run;
pub mod shrink;

pub use explore::{hunt, seed_corpus, FoundFailure, HuntConfig, HuntOutcome};
pub use input::{FaultEvent, HuntInput, HuntOp};
pub use mutate::mutate;
pub use run::{run_input, HuntFailure, RunVerdict};
pub use shrink::{shrink, ShrinkResult};

use regular_core::checker::certificate::WitnessModel;
use regular_core::coverage::CoverageSignature;
use regular_sweep::artifact::FailureArtifact;
use regular_sweep::JsonLayout;

/// Scenario name stamped on hunter-produced artifacts.
pub const HUNT_SCENARIO: &str = "hunt-gryff-rsc";

/// Packages a failing input as a replayable artifact: the recorded history
/// and rejected witness (for `--replay`, no simulator needed), the coverage
/// signature of the failing run, and the full serialized input in the
/// `schedule` field (for re-simulating the trigger).
pub fn failure_artifact(
    input: &HuntInput,
    failure: &HuntFailure,
    coverage: &CoverageSignature,
) -> FailureArtifact {
    FailureArtifact {
        scenario: HUNT_SCENARIO.to_string(),
        seed: input.seed,
        model: WitnessModel::Regular,
        violation: failure.violation.clone(),
        witness: failure.witness.clone(),
        history: failure.history.clone(),
        deliveries: Vec::new(),
        durability: None,
        schedule: Some(input.to_json()),
        coverage: Some(coverage.clone()),
    }
}
