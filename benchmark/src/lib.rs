//! The repo benchmark: four workloads over the unmodified protocol crates,
//! end-to-end and per-layer metrics, and the tools that keep them honest.
//!
//! See `benchmark/README.md` for the glossary and `/BENCHMARK.json` for the
//! contract; [`manifest`] is the source both are checked against.

pub mod alloc;
pub mod manifest;
pub mod probes;
pub mod repeat;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workloads;

/// Where runs leave files behind (trace files, the probes' scratch
/// directories): `benchmark/out`, wherever the run was started from.
pub const OUT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
