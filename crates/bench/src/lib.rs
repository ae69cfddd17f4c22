//! The one measuring harness beside `benchmark/`: what regenerates the
//! paper's evaluation (Fig. 4–7, §7.4 overhead, the ablations) and what CI
//! gates on.
//!
//! `regular-bench <subcommand>` (see [`cli`]) runs a sweep, a profile or a
//! set of paper experiments; every subcommand produces the same thing, a
//! [`report::Report`] — named rows of named columns, each column declared
//! once with the rule it is gated by — and `regular-bench gate CURRENT
//! REFERENCE` judges a fresh report by the rules its committed reference
//! (`ci/*_reference.json`, `BENCH_sweep.json`) carries. ARCHITECTURE.md
//! places this crate in the stack; BENCHMARKS.md records the results.

pub mod cli;
pub mod gate;
pub mod hunt;
pub mod live;
pub mod paper;
pub mod profiles;
pub mod report;
pub mod runs;
pub mod storage;
pub mod sweep;
