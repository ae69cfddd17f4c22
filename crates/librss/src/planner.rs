//! The fence *decision* logic of `libRSS` in pure form.
//!
//! [`crate::LibRss`] executes fences through synchronous callbacks, which fits
//! application threads. Inside a discrete-event simulation a fence is itself
//! an asynchronous protocol operation (a message exchange or a TrueTime wait),
//! so the driver needs the decision — *which service must be fenced before
//! this transaction, if any* — separated from the execution. [`FencePlanner`]
//! is that decision core: per session, it answers Figure 3's question ("did
//! this client switch services since its previous transaction?") and keeps the
//! executed/elided fence statistics.

use regular_core::fence::FenceStats;
use regular_core::hashing::FxHashMap;

/// Per-session service-switch tracking: the pure core of `libRSS`'s
/// `StartTransaction`, for drivers that execute fences asynchronously.
#[derive(Debug, Default)]
pub struct FencePlanner {
    /// The service index of each session's previous transaction. Only
    /// inserted, looked up and removed — never iterated — so the fast hasher
    /// cannot reach any output.
    last: FxHashMap<u64, usize>,
    stats: FenceStats,
}

impl FencePlanner {
    /// Creates an empty planner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records that `session` is about to start a transaction at `service`
    /// (a dense index chosen by the caller). Returns the service that must be
    /// fenced *first*, which is `Some(previous)` exactly when the session
    /// switches services.
    pub fn on_transaction(&mut self, session: u64, service: usize) -> Option<usize> {
        match self.last.insert(session, service) {
            Some(prev) if prev != service => {
                self.stats.record_executed();
                Some(prev)
            }
            _ => {
                self.stats.record_elided();
                None
            }
        }
    }

    /// The service of `session`'s previous transaction, if any.
    pub fn last_service(&self, session: u64) -> Option<usize> {
        self.last.get(&session).copied()
    }

    /// Exports `session`'s causal position for out-of-band propagation to
    /// another process (Section 4.2): the dense index of its last service.
    /// The caller attaches the service *name* and the causal floor when
    /// building a [`crate::CausalContext`].
    pub fn export_context(&self, session: u64) -> Option<usize> {
        self.last_service(session)
    }

    /// Imports a causal position received from another process: `session`'s
    /// next transaction fences `last_service` exactly as if the session had
    /// issued its previous transaction there (Figure 3 across processes).
    pub fn import_context(&mut self, session: u64, last_service: usize) {
        self.last.insert(session, last_service);
    }

    /// Forgets a finished session.
    pub fn end_session(&mut self, session: u64) {
        self.last.remove(&session);
    }

    /// Fence statistics across all sessions.
    pub fn stats(&self) -> FenceStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fences_exactly_on_switches() {
        let mut p = FencePlanner::new();
        assert_eq!(p.on_transaction(1, 0), None, "first transaction never fences");
        assert_eq!(p.on_transaction(1, 0), None, "same service: elided");
        assert_eq!(p.on_transaction(1, 1), Some(0), "switch: fence the previous service");
        assert_eq!(p.on_transaction(1, 0), Some(1));
        let s = p.stats();
        assert_eq!(s.executed, 2);
        assert_eq!(s.elided, 2);
    }

    #[test]
    fn imported_contexts_force_the_inherited_fence() {
        let mut sender = FencePlanner::new();
        sender.on_transaction(1, 0);
        let exported = sender.export_context(1).expect("sender has a causal past");

        let mut receiver = FencePlanner::new();
        // The receiving process's session inherits the sender's last service:
        // its first transaction at a *different* service fences it, even
        // though this session never used it.
        receiver.import_context(7, exported);
        assert_eq!(receiver.on_transaction(7, 1), Some(0));
        // Same service: nothing to fence.
        let mut receiver2 = FencePlanner::new();
        receiver2.import_context(9, exported);
        assert_eq!(receiver2.on_transaction(9, 0), None);
        assert_eq!(FencePlanner::new().export_context(5), None);
    }

    #[test]
    fn sessions_are_independent() {
        let mut p = FencePlanner::new();
        assert_eq!(p.on_transaction(1, 0), None);
        assert_eq!(p.on_transaction(2, 1), None, "another session's history is separate");
        assert_eq!(p.on_transaction(1, 1), Some(0));
        assert_eq!(p.last_service(2), Some(1));
        p.end_session(1);
        assert_eq!(p.on_transaction(1, 0), None, "a restarted session has no causal past");
    }
}
