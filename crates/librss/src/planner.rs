//! The fence *decision* of `libRSS`: the one place the composition rule
//! lives.
//!
//! Inside a discrete-event simulation a fence is itself an asynchronous
//! protocol operation (a message exchange or a TrueTime wait), so the caller
//! needs the decision — *which service must be fenced before this
//! transaction, if any* — separated from the execution. [`FencePlanner`] is
//! that decision: per process, it answers Figure 3's question ("did this
//! process switch services since its previous transaction?") and counts
//! executed and elided fences. The composed session runner executes its
//! answers as protocol operations; [`crate::LibRss`] executes them as
//! synchronous callbacks.

use std::hash::Hash;

use regular_core::hashing::FxHashMap;

/// Fence counts, for quantifying the composition overhead.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FenceStats {
    /// Transaction starts that fenced the previous service.
    pub executed: u64,
    /// Transaction starts that needed no fence (a process's first
    /// transaction, or the same service as its previous one).
    pub elided: u64,
}

/// Per-process service-switch tracking: the pure core of `libRSS`'s
/// `StartTransaction`. `P` identifies an application process in the
/// caller's own terms (a session lane, or `()` for a single process).
#[derive(Debug)]
pub struct FencePlanner<P> {
    /// The service index of each process's previous transaction. Only
    /// inserted, looked up and removed — never iterated — so the fast hasher
    /// cannot reach any output.
    last: FxHashMap<P, usize>,
    stats: FenceStats,
}

impl<P> Default for FencePlanner<P> {
    fn default() -> Self {
        FencePlanner { last: FxHashMap::default(), stats: FenceStats::default() }
    }
}

impl<P: Hash + Eq> FencePlanner<P> {
    /// Creates an empty planner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records that `process` is about to start a transaction at `service`
    /// (a dense index chosen by the caller). Returns the service that must be
    /// fenced *first*, which is `Some(previous)` exactly when the process
    /// switches services.
    pub fn on_transaction(&mut self, process: P, service: usize) -> Option<usize> {
        match self.last.insert(process, service) {
            Some(prev) if prev != service => {
                self.stats.executed += 1;
                Some(prev)
            }
            _ => {
                self.stats.elided += 1;
                None
            }
        }
    }

    /// The service of `process`'s previous transaction, if any: its causal
    /// position for out-of-band propagation (Section 4.2).
    pub fn last_service(&self, process: &P) -> Option<usize> {
        self.last.get(process).copied()
    }

    /// Imports a causal position received from another process: `process`'s
    /// next transaction fences `last_service` exactly as if it had issued its
    /// previous transaction there (Figure 3 across processes).
    pub fn import_context(&mut self, process: P, last_service: usize) {
        self.last.insert(process, last_service);
    }

    /// Forgets a finished process: its next transaction is a first one.
    pub fn end_session(&mut self, process: &P) {
        self.last.remove(process);
    }

    /// Fence counts across all processes.
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
        assert_eq!(p.stats(), FenceStats { executed: 2, elided: 2 });
    }

    #[test]
    fn imported_contexts_force_the_inherited_fence() {
        let mut sender = FencePlanner::new();
        sender.on_transaction(1, 0);
        let exported = sender.last_service(&1).expect("sender has a causal past");

        let mut receiver = FencePlanner::new();
        // The receiving process inherits the sender's last service: its first
        // transaction at a *different* service fences it, even though this
        // process never used it.
        receiver.import_context(7, exported);
        assert_eq!(receiver.on_transaction(7, 1), Some(0));
        // Same service: nothing to fence.
        let mut receiver2 = FencePlanner::new();
        receiver2.import_context(9, exported);
        assert_eq!(receiver2.on_transaction(9, 0), None);
        assert_eq!(FencePlanner::new().last_service(&5), None);
    }

    #[test]
    fn sessions_are_independent() {
        let mut p = FencePlanner::new();
        assert_eq!(p.on_transaction(1, 0), None);
        assert_eq!(p.on_transaction(2, 1), None, "another process's history is separate");
        assert_eq!(p.on_transaction(1, 1), Some(0));
        assert_eq!(p.last_service(&2), Some(1));
        p.end_session(&1);
        assert_eq!(p.on_transaction(1, 0), None, "a restarted process has no causal past");
    }
}
