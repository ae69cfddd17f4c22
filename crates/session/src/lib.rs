//! The protocol-agnostic session layer.
//!
//! The paper's central claim (Sections 4–7) is that RSS and RSC are *drop-in*
//! guarantees: an application programs against one session interface and the
//! `libRSS` meta-library makes the composition of independently-correct
//! services safe. This crate is that interface for the simulated deployments:
//!
//! * [`SessionOp`] — the typed operations a session can issue (reads, writes,
//!   read-modify-writes, read-only/read-write transactions, and real-time
//!   fences), independent of which protocol serves them.
//! * [`SessionConfig`] — how sessions generate load: the closed-loop and
//!   partly-open drivers of Section 6 plus a `batch` knob that pipelines
//!   several operations per session turn.
//! * [`Service`] — the protocol side of the contract: a named store that
//!   accepts session operations and reports completions as
//!   [`CompletedRecord`]s. `regular-spanner` and `regular-gryff` implement it.
//! * [`SessionRunner`] — the one client node: it drives one service with
//!   sessions, or several, with `libRSS` fences inserted automatically
//!   whenever a lane switches services (Figure 3).
//! * [`ClusterNode`] — a one-protocol deployment's server-or-client node
//!   type, so protocol crates write no forwarding `Node` impl.
//! * [`DurableLog`] — a server node's write-ahead log behind the one rule
//!   that makes it sound: no message leaves before the records it depends
//!   on are synced (group commit, checkpoints, crash and recovery included).
//! * [`ClusterSpec`], [`measure`] and [`fold`] — a run described, measured
//!   and folded once: every harness applies one window rule and reports the
//!   same shared counters, whatever its protocol.
//! * [`HistoryRecorder`] — the single conversion from completed records to a
//!   [`regular_core::History`], shared by every harness, replacing the
//!   per-protocol extraction code.
//!
//! # Batching
//!
//! A session with `batch = k` issues `k` operations back-to-back without
//! waiting (one pipeline *slot* per operation), waits for all of them, thinks,
//! and repeats. Slots are concurrent by construction, so each
//! `(session, slot)` *lane* is recorded as its own application process — the
//! unit over which the consistency models' per-process order is defined.

pub mod config;
pub mod durable;
pub mod op;
pub mod plane;
pub mod record;
pub mod run;
pub mod runner;
pub mod scheduler;
pub mod service;

pub use config::{SessionConfig, SessionDriver};
pub use durable::DurableLog;
pub use op::{
    MultiServiceWorkload, RoundRobinWorkload, ScriptedSessionWorkload, SessionOp, SessionWorkload,
};
pub use plane::{untagged, ClusterNode, Deployment, NodeSpec, Plane, PlaneNode, Ran, SimPlane};
pub use record::{CompletedRecord, HistoryRecorder, LaneId, WitnessHint};
pub use run::{fold, fold_cluster, measure, ClientSpec, ClusterSpec, Folded, Measured, Part};
pub use runner::{HandoffRecord, SessionRunner, SessionStats};
pub use scheduler::{SessionScheduler, Wake};
pub use service::{runner_tag, service_tag, MappedService, Service};
