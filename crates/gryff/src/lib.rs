//! Gryff and Gryff-RSC on the `regular-sim` discrete-event substrate.
//!
//! This crate reproduces Section 7 and Appendix B of the paper: Gryff, a
//! geo-replicated key-value store combining shared registers (reads/writes)
//! with a consensus path (read-modify-writes), and Gryff-RSC, the variant
//! that relaxes linearizability to regular sequential consistency so reads
//! always complete in a single quorum round trip by piggybacking the read's
//! write-back onto the client's next operation.
//!
//! Clients are built on the protocol-agnostic session layer
//! (`regular-session`): the protocol core ([`client::GryffService`])
//! implements [`regular_session::Service`], and the harness drives it with
//! [`regular_session::SessionRunner`]s configured through
//! [`regular_session::SessionConfig`] — the same interface Spanner uses, so a
//! composed deployment can run both stores in one simulation (see the
//! `multi_service` integration test).
//!
//! # Example
//!
//! ```
//! use regular_gryff::prelude::*;
//! use regular_sim::{LatencyMatrix, SimDuration, SimTime};
//!
//! let result = run_gryff(GryffClusterSpec {
//!     config: GryffConfig::wan(Mode::GryffRsc),
//!     net: LatencyMatrix::gryff_wan(),
//!     seed: 1,
//!     clients: vec![GryffClientSpec {
//!         region: 0,
//!         sessions: SessionConfig::closed_loop(2, SimDuration::ZERO),
//!         workload: Box::new(ConflictWorkload::ycsb(0.5, 0.1, 0)),
//!     }],
//!     stop_issuing_at: SimTime::from_secs(5),
//!     drain: SimDuration::from_secs(2),
//!     measure_from: SimTime::from_secs(1),
//! });
//! assert!(result.client_stats.reads > 0);
//! verify_run(&result).expect("the run satisfies RSC");
//! ```

pub mod carstamp;
pub mod client;
pub mod config;
pub mod durable;
pub mod harness;
pub mod messages;
pub mod replica;
pub mod workload;

/// Convenient re-exports for harnesses, examples, and benches.
pub mod prelude {
    pub use crate::carstamp::Carstamp;
    pub use crate::client::{GryffClientConfig, GryffClientStats, GryffService};
    pub use crate::config::{BugZoo, GryffConfig, Mode};
    pub use crate::harness::{
        build, build_history, build_history_from, carstamp_chain_edges, client_config, collect,
        history_and_witness, run_gryff, run_gryff_on, verify_run, GryffClientSpec,
        GryffClusterSpec, GryffNode, GryffRunResult, GryffVerificationError,
    };
    pub use crate::messages::{Dep, GryffMsg, OpRef};
    pub use crate::workload::{ConflictWorkload, OpRequest};
    pub use regular_session::{
        ScriptedSessionWorkload, SessionConfig, SessionDriver, SessionOp, SessionWorkload,
    };
}

pub use prelude::*;
