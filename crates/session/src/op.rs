//! Typed session operations and workload sources.

use std::collections::HashMap;

use rand::rngs::SmallRng;
use regular_core::types::Key;

use crate::record::LaneId;

/// One operation a session issues, independent of the serving protocol.
///
/// Protocols interpret the kinds they support and *adapt* the rest where a
/// faithful mapping exists (a transactional store serves `Read` as a
/// single-key read-only transaction; see each service's documentation).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionOp {
    /// Read a single key.
    Read {
        /// Key to read.
        key: Key,
    },
    /// Write a single key (the service assigns a fresh unique value, keeping
    /// runs deterministic and reads-from edges unambiguous).
    Write {
        /// Key to write.
        key: Key,
    },
    /// Atomically read-modify-write a single key.
    Rmw {
        /// Key to modify.
        key: Key,
    },
    /// A read-only transaction over a set of keys.
    RoTxn {
        /// Keys read.
        keys: Vec<Key>,
    },
    /// A read-write transaction writing the given keys.
    RwTxn {
        /// Keys written.
        keys: Vec<Key>,
    },
    /// A real-time fence at the target service (Section 4.1).
    Fence,
}

impl SessionOp {
    /// True for operations that cannot change service state.
    pub fn is_read_only(&self) -> bool {
        matches!(self, SessionOp::Read { .. } | SessionOp::RoTxn { .. })
    }

    /// True for the real-time fence.
    pub fn is_fence(&self) -> bool {
        matches!(self, SessionOp::Fence)
    }
}

/// A source of operations for sessions driving a single service. Every one
/// is a [`MultiServiceWorkload`] targeting service 0, so a
/// `Box<dyn SessionWorkload>` coerces to the `Box<dyn MultiServiceWorkload>`
/// a [`crate::SessionRunner`] takes.
pub trait SessionWorkload: MultiServiceWorkload {
    /// Produces the next operation.
    fn next_op(&mut self, rng: &mut SmallRng) -> SessionOp;
}

/// A source of `(service index, operation)` pairs for sessions hopping
/// between the services of a [`crate::SessionRunner`].
///
/// The issuing lane is passed so implementations can keep *per-lane* access
/// patterns: each lane is its own application process, and the service-switch
/// sequence (which drives `libRSS` fencing) must be a property of the
/// process, not of the node-wide interleaving.
pub trait MultiServiceWorkload: Send + 'static {
    /// Produces the next operation for `lane` and the service it targets.
    fn next_targeted_op(&mut self, rng: &mut SmallRng, lane: LaneId) -> (usize, SessionOp);
}

/// Every single-service workload is trivially a multi-service workload
/// targeting service 0.
impl<W: SessionWorkload> MultiServiceWorkload for W {
    fn next_targeted_op(&mut self, rng: &mut SmallRng, _lane: LaneId) -> (usize, SessionOp) {
        (0, SessionWorkload::next_op(self, rng))
    }
}

/// A scripted workload replaying a fixed operation list (tests, examples, and
/// the Figure 4 micro-experiment). Exhausted scripts degrade to harmless
/// single-key reads of key 0; size the run so this never happens.
#[derive(Debug, Clone)]
pub struct ScriptedSessionWorkload {
    ops: Vec<SessionOp>,
    next: usize,
}

impl ScriptedSessionWorkload {
    /// Creates a scripted workload from a fixed operation list.
    pub fn new(ops: Vec<SessionOp>) -> Self {
        ScriptedSessionWorkload { ops, next: 0 }
    }
}

impl SessionWorkload for ScriptedSessionWorkload {
    fn next_op(&mut self, _rng: &mut SmallRng) -> SessionOp {
        let op = self.ops.get(self.next).cloned().unwrap_or(SessionOp::Read { key: Key(0) });
        self.next += 1;
        op
    }
}

/// A multi-service workload where every *lane* cycles through the services,
/// hopping to the next one after `ops_per_service` of its own operations —
/// the per-process access pattern that makes `libRSS` fences load-bearing.
pub struct RoundRobinWorkload {
    services: Vec<Box<dyn SessionWorkload>>,
    ops_per_service: usize,
    /// Per-lane `(ops issued at current service, current service)` cursors.
    cursors: HashMap<LaneId, (usize, usize)>,
}

impl RoundRobinWorkload {
    /// Creates a round-robin workload over the given per-service sources.
    ///
    /// # Panics
    ///
    /// Panics if `services` is empty or `ops_per_service` is zero.
    pub fn new(services: Vec<Box<dyn SessionWorkload>>, ops_per_service: usize) -> Self {
        assert!(!services.is_empty(), "need at least one service workload");
        assert!(ops_per_service > 0, "ops_per_service must be positive");
        RoundRobinWorkload { services, ops_per_service, cursors: HashMap::new() }
    }
}

impl MultiServiceWorkload for RoundRobinWorkload {
    fn next_targeted_op(&mut self, rng: &mut SmallRng, lane: LaneId) -> (usize, SessionOp) {
        let (issued, current) = self.cursors.entry(lane).or_insert((0, 0));
        if *issued == self.ops_per_service {
            *issued = 0;
            *current = (*current + 1) % self.services.len();
        }
        *issued += 1;
        let service = *current;
        (service, self.services[service].next_op(rng))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn scripted_replays_then_degrades() {
        let mut w =
            ScriptedSessionWorkload::new(vec![SessionOp::Write { key: Key(1) }, SessionOp::Fence]);
        let mut rng = SmallRng::seed_from_u64(1);
        assert_eq!(w.next_op(&mut rng), SessionOp::Write { key: Key(1) });
        assert_eq!(w.next_op(&mut rng), SessionOp::Fence);
        assert_eq!(w.next_op(&mut rng), SessionOp::Read { key: Key(0) });
    }

    #[test]
    fn round_robin_hops_between_services_per_lane() {
        let a = ScriptedSessionWorkload::new(vec![SessionOp::Read { key: Key(1) }; 32]);
        let b = ScriptedSessionWorkload::new(vec![SessionOp::Write { key: Key(2) }; 32]);
        let mut w = RoundRobinWorkload::new(vec![Box::new(a), Box::new(b)], 2);
        let mut rng = SmallRng::seed_from_u64(1);
        let lane0 = LaneId { session: 0, slot: 0 };
        let lane1 = LaneId { session: 1, slot: 0 };
        // Interleave two lanes arbitrarily: each still hops every 2 of its
        // OWN ops, regardless of the other lane's progress.
        let mut t0 = Vec::new();
        let mut t1 = Vec::new();
        for i in 0..12 {
            if i % 3 == 0 {
                t1.push(w.next_targeted_op(&mut rng, lane1).0);
            } else {
                t0.push(w.next_targeted_op(&mut rng, lane0).0);
            }
        }
        assert_eq!(t0, vec![0, 0, 1, 1, 0, 0, 1, 1]);
        assert_eq!(t1, vec![0, 0, 1, 1]);
    }

    #[test]
    fn read_only_and_fence_predicates() {
        assert!(SessionOp::Read { key: Key(1) }.is_read_only());
        assert!(SessionOp::RoTxn { keys: vec![Key(1)] }.is_read_only());
        assert!(!SessionOp::Write { key: Key(1) }.is_read_only());
        assert!(SessionOp::Fence.is_fence());
        assert!(!SessionOp::Fence.is_read_only());
    }
}
