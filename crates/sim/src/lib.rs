//! Deterministic discrete-event simulation substrate.
//!
//! The paper evaluates Spanner-RSS and Gryff-RSC on wide-area testbeds (EC2 and
//! CloudLab). This crate provides the substitute substrate: a deterministic
//! discrete-event simulator with
//!
//! * a simulated clock with microsecond resolution ([`SimTime`]),
//! * an event engine ([`engine::Engine`]) driving protocol nodes that exchange
//!   messages and set timers,
//! * a pluggable network model ([`net::NetworkModel`]) with per-message
//!   delivery verdicts; the default [`net::LatencyMatrix`] reproduces the
//!   round-trip times used in the paper (Section 6 and Table 2),
//! * a scripted fault plane ([`fault::FaultSchedule`]) — deterministic link
//!   partitions, drop/duplicate/delay windows, and node crash/recover —
//!   installed with [`engine::Engine::install_faults`],
//! * a TrueTime emulation with bounded uncertainty ([`truetime::TrueTime`]), and
//! * latency/throughput metrics ([`metrics`]) for regenerating the paper's
//!   figures.
//!
//! Determinism: all randomness flows through a seeded [`rand::rngs::SmallRng`]
//! owned by the engine, and simultaneous events are ordered by a monotonically
//! increasing sequence number, so a given seed always yields the same history.
//!
//! # Examples
//!
//! ```
//! use regular_sim::{
//!     engine::{Context, Engine, EngineConfig, Node},
//!     net::LatencyMatrix,
//!     time::SimDuration,
//! };
//!
//! #[derive(Clone)]
//! enum Msg {
//!     Ping,
//!     Pong,
//! }
//!
//! struct Echo {
//!     pongs: usize,
//! }
//!
//! impl Node<Msg> for Echo {
//!     fn on_start(&mut self, ctx: &mut Context<Msg>) {
//!         if ctx.node_id() == 0 {
//!             ctx.send(1, Msg::Ping);
//!         }
//!     }
//!     fn on_message(&mut self, ctx: &mut Context<Msg>, from: usize, msg: Msg) {
//!         match msg {
//!             Msg::Ping => ctx.send(from, Msg::Pong),
//!             Msg::Pong => self.pongs += 1,
//!         }
//!     }
//! }
//!
//! let cfg = EngineConfig::default();
//! let net = LatencyMatrix::single_region(SimDuration::from_millis(1));
//! let mut engine = Engine::new(cfg, net, 42);
//! engine.add_node(Echo { pongs: 0 }, 0);
//! engine.add_node(Echo { pongs: 0 }, 0);
//! engine.run();
//! assert_eq!(engine.node(0).pongs, 1);
//! ```

pub mod compose;
pub mod engine;
pub mod fault;
pub mod metrics;
pub mod net;
pub mod queue;
pub mod time;
pub mod truetime;

pub use compose::Embedded;
pub use engine::{Context, ContextParts, Engine, EngineConfig, Node, NodeId};
pub use fault::{CrashWindow, FaultSchedule, LinkScope, MessageFault};
pub use metrics::{DeliveryRecord, LatencyRecorder, MessageStats, WireStats};
pub use net::{Delivery, LatencyMatrix, NetworkModel, Region};
pub use queue::{QueueKind, SimQueue};
pub use time::{SimDuration, SimTime};
pub use truetime::{TrueTime, TtInterval};
