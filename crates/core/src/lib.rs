//! Regular Sequential Serializability (RSS) and Regular Sequential
//! Consistency (RSC): the consistency-model core.
//!
//! This crate is the reproduction of the conceptual contribution of
//! *"Regular Sequential Serializability and Regular Sequential Consistency"*
//! (SOSP 2021): the definitions of RSS and RSC, the machinery needed to check
//! them on recorded executions, the Lemma 1 transformation underlying their
//! invariant-equivalence to strict serializability and linearizability, and
//! the photo-sharing application used throughout the paper to compare models.
//!
//! A map of the whole workspace — every crate, the two execution planes
//! (deterministic simulation and live threads), the search and the two witness
//! validators, and how a sweep seed becomes a certified verdict — lives in
//! `ARCHITECTURE.md` at the repository root.
//!
//! # Layout
//!
//! * [`types`], [`op`], [`history`] — the execution model: processes issue
//!   operations (reads, writes, rmws, transactions, queue operations) on a
//!   composite service and exchange messages.
//! * [`order`] — real-time order, process order, reads-from, and the causal
//!   order (Section 3.3).
//! * [`spec`] — sequential specifications of the key-value and messaging
//!   services, and sequence replay.
//! * [`checker`] — exact search checkers for RSS, RSC, strict
//!   serializability, linearizability, PO serializability, and sequential
//!   consistency; scalable witness (certificate) checkers used on protocol
//!   runs; and checkers for the proximal models of Appendix A.
//! * [`mod@transform`] — the Lemma 1 construction turning an RSS execution into an
//!   equivalent strictly serializable one.
//! * [`invariants`] — the photo-sharing application, invariants I1/I2, and
//!   anomaly detectors A1–A3 (Table 1).
//! * [`fence`] — the real-time fence abstraction for composing RSS/RSC
//!   services (Section 4.1).
//! * [`coverage`] — behaviour-coverage signatures shared by the simulator,
//!   failure artifacts, and the coverage-guided hunter (`regular-hunt`).
//!
//! # Example: checking a history
//!
//! ```
//! use regular_core::checker::models::{satisfies, Model};
//! use regular_core::history::HistoryBuilder;
//!
//! // A write that is concurrent with two reads: the first read observes it,
//! // the later read does not. RSC allows this; linearizability does not.
//! let mut b = HistoryBuilder::new();
//! b.write(1, 1, 1, 0, 100);
//! b.read(2, 1, 1, 10, 20);
//! b.read(3, 1, 0, 30, 40);
//! let history = b.build();
//!
//! assert!(satisfies(&history, Model::RegularSequentialConsistency));
//! assert!(!satisfies(&history, Model::Linearizability));
//! ```

pub mod checker;
pub mod coverage;
pub mod fence;
pub mod hashing;
pub mod history;
pub mod invariants;
pub mod op;
pub mod opset;
pub mod order;
pub mod spec;
pub mod transform;
pub mod types;

pub use checker::certificate::{check_witness, WitnessModel, WitnessViolation};
pub use checker::decompose::ComponentSplit;
pub use checker::models::{check, satisfies, CheckOutcome, Model};
pub use checker::proximal::{check_proximal, ProximalModel};
pub use checker::window::{StreamingChecker, WindowBuffer};
pub use coverage::{CoverageBuilder, CoverageMap, CoverageSignature};
pub use fence::FencedService;
pub use history::{ByProcess, History, HistoryBuilder, HistoryIndex, MessageEdge, OpRecord};
pub use op::{OpKind, OpResult};
pub use order::CausalOrder;
pub use transform::{transform, TransformedExecution};
pub use types::{Key, OpId, ProcessId, ServiceId, Timestamp, Value};
