//! Parallel conformance sweeps.
//!
//! The paper's central artifact is a *checkable guarantee*: every
//! Spanner-RSS / Gryff-RSC execution must produce a history certifiable as
//! RSS / RSC. The protocol crates certify one run at a time; this crate
//! scales that to *fleets* of seeded runs, the way automated
//! consistency-violation detectors sweep many executions:
//!
//! * [`input`] — [`HuntInput`], the one description of a certified run
//!   (seed, scripted sessions or a generated [`Workload`], fault events,
//!   delivery nudges, run length, storage), and [`run_input`], the one
//!   function that builds its deployment, runs it on the simulator or a live
//!   plane, and certifies the history with [`certify_streaming`]. The sweep
//!   and the hunter (`regular-hunt`) both run through it.
//! * [`scenario`] — the scenario table: Spanner-RSS, Gryff-RSC and the
//!   composed two-store deployment, each also under a seed-driven fault
//!   script (crashes, partitions, drop/duplicate windows fired during libRSS
//!   service switches), on a WAL and on the live plane. Each seed of a
//!   scenario is an input ([`Scenario::input`]).
//! * [`composed`] — the multi-service deployment (extracted from the
//!   `multi_service` integration test): round-robin or photo-sharing-app
//!   workloads, scripted faults, and cross-process `CausalContext` handoffs.
//! * [`stream`] — the certifier of every verdict: a recorded run's witness
//!   fed in completion order through `regular_core`'s windowed checker, plus
//!   the synthetic histories used by the scale benchmarks.
//! * [`report`] — sweep orchestration: options, the fan-out of seeds across
//!   scoped worker threads (one shared job cursor, in the private `pool`
//!   module), per-seed reports and failure artifacts (`regular-bench sweep`
//!   aggregates them into `BENCH_sweep.json`).
//! * [`artifact`] — replayable failing-history dumps for CI upload, each
//!   carrying the input that produced it.
//! * [`json`] — the JSON tree backing all of the above, and
//!   [`json_layout!`], the one declaration of each JSON format.
//!
//! `regular-bench sweep` is the CLI front end; CI runs it over ≥32 seeds per
//! scenario (fault scenarios included) on every push.

pub mod artifact;
pub mod composed;
pub mod input;
pub mod json;
mod pool;
pub mod report;
pub mod scenario;
pub mod stream;

pub use artifact::FailureArtifact;
pub use input::{run_input, FaultEvent, HuntInput, HuntOp, RunVerdict, Workload};
pub use json::{Json, JsonLayout};
pub use report::{run_sweep, SweepOptions, SweepResult};
pub use scenario::{run_seed, Scenario, SeedReport, SeedRun, LIVE_TIME_SCALE};
pub use stream::{certify_streaming, synthetic_history, synthetic_session_history, StreamStats};
