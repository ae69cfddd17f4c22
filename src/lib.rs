//! `regular-seq`: a reproduction of *"Regular Sequential Serializability and
//! Regular Sequential Consistency"* (SOSP 2021).
//!
//! This facade crate re-exports the workspace members so examples, integration
//! tests, and downstream users can depend on a single crate. For the map of
//! the whole stack — crate layering, the two execution planes, the durable
//! storage layer, certification, and the seed flow — see
//! [`ARCHITECTURE.md`](https://github.com/paper-repro/regular-seq/blob/main/ARCHITECTURE.md)
//! at the repository root. The members:
//!
//! * [`core`] (`regular-core`) — the consistency models themselves: histories,
//!   causal/real-time orders, checkers for RSS, RSC, and their neighbours, the
//!   Lemma 1 transformation, and the photo-sharing invariants of Table 1.
//! * [`sim`] (`regular-sim`) — the deterministic discrete-event simulator the
//!   protocol evaluations run on, including multi-protocol composition
//!   ([`sim::compose`]).
//! * [`session`] (`regular-session`) — the protocol-agnostic session layer:
//!   typed session operations, closed-loop/partly-open drivers with a
//!   batching knob, the shared history recorder, and multi-service session
//!   runners with automatic `libRSS` fencing.
//! * [`spanner`] (`regular-spanner`) — Spanner and Spanner-RSS (Section 5).
//! * [`gryff`] (`regular-gryff`) — Gryff and Gryff-RSC (Section 7).
//! * [`live`] (`regular-live`) — the live execution plane: the same protocol
//!   crates on real OS threads and a scaled wall clock instead of the event
//!   queue, with completions streamed into online certification. Messages
//!   travel over a pluggable transport — in-process channels, Unix-domain
//!   sockets, or TCP up to nodes in separate OS processes; see
//!   [`OPERATIONS.md`](https://github.com/paper-repro/regular-seq/blob/main/OPERATIONS.md)
//!   for the operator's guide to launching and reading live clusters.
//! * [`storage`] (`regular-storage`) — the durable storage stack under the
//!   protocol nodes: write-ahead log with group commit, page-based buffer
//!   pool and checkpoints, and crash recovery that replays from the log —
//!   on a deterministic in-process device in the simulator and real files
//!   on the live plane, behind the `Durability` knob both protocol configs
//!   carry.
//! * [`librss`] (`regular-librss`) — the libRSS composition meta-library
//!   (Section 4).
//! * [`workloads`] (`regular-workloads`) — Retwis and Zipfian workload
//!   generators (Section 6).
//! * [`sweep`] (`regular-sweep`) — parallel conformance sweeps: seeded
//!   certified runs of every scenario fanned across a work-stealing pool,
//!   with sharded witness checking and replayable failure artifacts.
//! * [`hunt`] (`regular-hunt`) — coverage-guided schedule search: treats the
//!   whole `(seed, workload, fault schedule, delivery order)` tuple as a
//!   mutable input, scores executions by behaviour-coverage signatures
//!   recorded inside the simulator, and delta-debugs any certification
//!   failure down to a minimal replayable artifact.
//!
//! # Quick start: checking histories
//!
//! ```
//! use regular_seq::core::checker::models::{satisfies, Model};
//! use regular_seq::core::history::HistoryBuilder;
//!
//! // A read concurrent with a write returns the new value; a later,
//! // causally unrelated read still returns the old one. RSC allows this
//! // (only causally *later* reads are constrained); linearizability does not.
//! let mut history = HistoryBuilder::new();
//! history.write(1, 1, 1, 0, 100);
//! history.read(2, 1, 1, 10, 20);
//! history.read(3, 1, 0, 30, 40);
//! let history = history.build();
//!
//! assert!(satisfies(&history, Model::RegularSequentialConsistency));
//! assert!(!satisfies(&history, Model::Linearizability));
//! ```
//!
//! # Quick start: driving a protocol through the session API
//!
//! Both protocol harnesses speak the same session interface: a
//! [`session::SessionConfig`] chooses the load model (closed-loop or
//! partly-open, with optional pipelining via `with_batch`), a
//! [`session::SessionWorkload`] produces typed operations, and the recorded
//! run is converted to a checkable history by the shared
//! [`session::HistoryRecorder`].
//!
//! ```
//! use regular_seq::session::SessionConfig;
//! use regular_seq::sim::{LatencyMatrix, SimDuration, SimTime};
//! use regular_seq::spanner::prelude::*;
//!
//! let result = run_cluster(ClusterSpec {
//!     config: SpannerConfig::wan(Mode::SpannerRss),
//!     net: LatencyMatrix::spanner_wan(),
//!     seed: 1,
//!     clients: vec![ClientSpec {
//!         region: 0,
//!         // Two sessions, each pipelining four transactions per turn.
//!         sessions: SessionConfig::closed_loop(2, SimDuration::ZERO).with_batch(4),
//!         workload: Box::new(UniformWorkload { num_keys: 100, ro_fraction: 0.5, keys_per_txn: 2 }),
//!     }],
//!     stop_issuing_at: SimTime::from_secs(5),
//!     drain: SimDuration::from_secs(2),
//!     measure_from: SimTime::from_secs(1),
//! });
//! assert!(result.client_stats.ro_completed > 0);
//! verify_run(&result).expect("the recorded execution satisfies RSS");
//! ```
//!
//! Because the session layer is protocol-agnostic, one simulation can run a
//! Spanner-RSS store and a Gryff-RSC store side by side with `libRSS`
//! inserting real-time fences on every service switch — see
//! `tests/multi_service.rs` for the end-to-end scenario and the
//! `examples/` directory for more runnable walkthroughs. The
//! `regular-bench` crate regenerates every table and figure of the paper's
//! evaluation.

pub use regular_core as core;
pub use regular_gryff as gryff;
pub use regular_hunt as hunt;
pub use regular_librss as librss;
pub use regular_live as live;
pub use regular_session as session;
pub use regular_sim as sim;
pub use regular_spanner as spanner;
pub use regular_storage as storage;
pub use regular_sweep as sweep;
pub use regular_workloads as workloads;
