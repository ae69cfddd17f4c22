//! Coverage-guided schedule search and automatic failure minimization.
//!
//! The conformance sweep (`regular-sweep`) certifies runs drawn from seed
//! ranges — breadth without guidance. This crate adds the depth: a hunter
//! that treats the whole `(seed, workload, fault schedule, delivery order)`
//! tuple as a mutable input, scores each execution by a behaviour-coverage
//! signature recorded inside the simulator, and searches toward
//! interleavings nothing has exercised yet. When a run fails certification,
//! a delta-debugging shrinker reduces the input to a locally minimal
//! trigger and emits a replayable
//! [`FailureArtifact`](regular_sweep::FailureArtifact).
//!
//! The input and its runner are the sweep's: [`HuntInput`] (scripted Gryff
//! sessions or a generated workload, fault events, delivery nudges, a seed
//! and a run length) and [`run_input`], which simulates one input and
//! certifies it with the certifier every sweep seed and `replay` use. A sweep
//! seed is an input too, so the hunter's shrinker reduces a sweep failure
//! from its artifact.
//!
//! # Crate layout
//!
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
//!             └─ RunVerdict::into_artifact(..)   minimized, replayable artifact
//! ```
//!
//! The artifact's `schedule` field carries the [`HuntInput`], so
//! `regular-bench replay` reproduces the verdict from the recorded history
//! without re-simulating — and anyone who wants to watch the bug live feeds
//! the schedule back through [`run_input`]. `regular-bench hunt` is the
//! command line.

pub mod explore;
pub mod mutate;
pub mod shrink;

pub use explore::{hunt, seed_corpus, FoundFailure, HuntConfig, HuntOutcome};
pub use mutate::mutate;
pub use regular_sweep::input::{run_input, FaultEvent, HuntInput, HuntOp, RunVerdict, Workload};
pub use shrink::{shrink, ShrinkResult};

/// Scenario name stamped on hunter-produced artifacts.
pub const HUNT_SCENARIO: &str = "hunt-gryff-rsc";
