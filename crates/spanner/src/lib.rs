//! Spanner and Spanner-RSS on the `regular-sim` discrete-event substrate.
//!
//! This crate reproduces Section 5 of the paper: Google Spanner's strictly
//! serializable transaction protocol (two-phase locking at prepare time,
//! two-phase commit, TrueTime commit wait, snapshot reads at `TT.now().latest`)
//! and the paper's Spanner-RSS variant, whose read-only transactions avoid
//! blocking on conflicting prepared read-write transactions by exploiting
//! regular sequential serializability (Algorithms 1 and 2).
//!
//! Clients are built on the protocol-agnostic session layer
//! (`regular-session`): the protocol core ([`client::SpannerService`])
//! implements [`regular_session::Service`], and the harness drives it with
//! [`regular_session::SessionRunner`]s configured through
//! [`regular_session::SessionConfig`] — the same interface Gryff uses, so a
//! composed deployment can run both stores in one simulation (see the
//! `multi_service` integration test).
//!
//! The cluster is simulated: each shard is represented by its leader, Paxos
//! replication is a configurable delay, and clients/load generators drive the
//! workloads of the paper's evaluation (Retwis over a wide-area topology,
//! uniform workloads in a single data center). See `ARCHITECTURE.md`
//! ("Substitutions and simplifications") at the repository root for the list.
//!
//! # Example
//!
//! ```
//! use regular_spanner::prelude::*;
//! use regular_sim::{LatencyMatrix, SimDuration, SimTime};
//!
//! let result = run_cluster(ClusterSpec {
//!     config: SpannerConfig::wan(Mode::SpannerRss),
//!     net: LatencyMatrix::spanner_wan(),
//!     seed: 1,
//!     clients: vec![ClientSpec {
//!         region: 0,
//!         sessions: SessionConfig::closed_loop(2, SimDuration::ZERO),
//!         workload: Box::new(UniformWorkload { num_keys: 100, ro_fraction: 0.5, keys_per_txn: 2 }),
//!     }],
//!     stop_issuing_at: SimTime::from_secs(5),
//!     drain: SimDuration::from_secs(2),
//!     measure_from: SimTime::from_secs(1),
//! });
//! assert!(result.client_stats.ro_completed > 0);
//! verify_run(&result).expect("the run satisfies RSS");
//! ```

pub mod client;
pub mod config;
pub mod durable;
pub mod harness;
pub mod locks;
pub mod messages;
pub mod ro;
pub mod shard;
pub mod storage;
pub mod workload;

/// Convenient re-exports for harnesses, examples, and benches.
pub mod prelude {
    pub use crate::client::{ClientConfig, ClientStats, SpannerService};
    pub use crate::config::{Mode, SpannerConfig};
    pub use crate::harness::{
        build, build_history, build_history_from, client_config, latency_class, run_cluster,
        run_cluster_on, verify_run, ClientSpec, ClusterSpec, RunResult, SpannerNode,
    };
    pub use crate::messages::{SpannerMsg, TxnId};
    pub use crate::shard::ShardNode;
    pub use crate::workload::{TxnRequest, UniformWorkload};
    pub use regular_session::{
        ScriptedSessionWorkload, SessionConfig, SessionDriver, SessionOp, SessionWorkload,
    };
}

pub use prelude::*;
