//! Per-shard exclusive write locks with FIFO queuing.
//!
//! The simulated shards acquire exclusive locks on a transaction's written
//! keys at prepare time and hold them until the commit decision is applied,
//! exactly the window during which Spanner's read-only transactions may have
//! to block. Conflicting prepares queue in arrival order; cross-shard
//! deadlocks (possible with multi-shard transactions preparing in opposite
//! orders) are broken by a client-side commit timeout that aborts and retries
//! the transaction (see ARCHITECTURE.md, "Substitutions and simplifications",
//! for this simplification relative to Spanner's wound-wait).

use regular_core::hashing::FxHashMap;
use regular_core::types::Key;

use crate::messages::TxnId;

/// A pending lock request that could not be granted immediately.
#[derive(Debug, Clone)]
struct Waiter {
    txn: TxnId,
    keys: Vec<Key>,
}

/// The lock table of one shard.
///
/// Owners live in an [`FxHashMap`] (cheap fixed-width probes, iteration a
/// pure function of the insert/remove sequence) rather than a dense
/// interned map: the map only ever holds *currently locked* keys, so
/// `release`'s retain stays O(held locks) instead of growing with every key
/// the shard has ever seen.
#[derive(Debug, Clone, Default)]
pub struct LockTable {
    owners: FxHashMap<Key, TxnId>,
    queue: Vec<Waiter>,
}

impl LockTable {
    /// Creates an empty lock table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attempts to acquire exclusive locks on `keys` for `txn`.
    ///
    /// Returns `true` if all locks were granted immediately; otherwise the
    /// request is queued and will be granted by a later [`LockTable::release`]
    /// (reported through its return value). `keys` is walked more than once
    /// and copied only when the request has to wait.
    pub fn acquire<'a>(
        &mut self,
        txn: TxnId,
        keys: impl IntoIterator<Item = &'a Key> + Clone,
    ) -> bool {
        let wanted = |k: &Key| keys.clone().into_iter().any(|w| w == k);
        if keys.clone().into_iter().all(|k| self.owners.get(k).is_none_or(|o| *o == txn))
            && !self.queue.iter().any(|w| w.txn != txn && w.keys.iter().any(wanted))
        {
            for k in keys {
                self.owners.insert(*k, txn);
            }
            true
        } else {
            self.queue.push(Waiter { txn, keys: keys.into_iter().copied().collect() });
            false
        }
    }

    /// Releases all locks held by `txn` (and removes any queued request from
    /// it), then grants queued requests whose keys are now all free, in FIFO
    /// order. Returns the transactions whose queued requests were granted.
    pub fn release(&mut self, txn: TxnId) -> Vec<TxnId> {
        self.owners.retain(|_, owner| *owner != txn);
        self.queue.retain(|w| w.txn != txn);
        let mut granted = Vec::new();
        let mut i = 0;
        while i < self.queue.len() {
            let can_grant = {
                let w = &self.queue[i];
                // All keys free, and no earlier waiter wants any of them.
                w.keys.iter().all(|k| !self.owners.contains_key(k))
                    && !self.queue[..i].iter().any(|e| e.keys.iter().any(|k| w.keys.contains(k)))
            };
            if can_grant {
                let w = self.queue.remove(i);
                for k in &w.keys {
                    self.owners.insert(*k, w.txn);
                }
                granted.push(w.txn);
            } else {
                i += 1;
            }
        }
        granted
    }

    /// True if `txn` currently holds a lock on `key`.
    pub fn holds(&self, txn: TxnId, key: Key) -> bool {
        self.owners.get(&key) == Some(&txn)
    }

    /// Number of keys currently locked.
    pub fn locked_keys(&self) -> usize {
        self.owners.len()
    }

    /// Number of queued (waiting) requests.
    pub fn queued(&self) -> usize {
        self.queue.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(seq: u64) -> TxnId {
        TxnId { client: 9, seq }
    }

    #[test]
    fn grant_and_release() {
        let mut lt = LockTable::new();
        assert!(lt.acquire(t(1), &[Key(1), Key(2)]));
        assert!(lt.holds(t(1), Key(1)));
        assert_eq!(lt.locked_keys(), 2);
        let granted = lt.release(t(1));
        assert!(granted.is_empty());
        assert_eq!(lt.locked_keys(), 0);
    }

    #[test]
    fn conflicting_request_queues_and_is_granted_in_fifo_order() {
        let mut lt = LockTable::new();
        assert!(lt.acquire(t(1), &[Key(1)]));
        assert!(!lt.acquire(t(2), &[Key(1)]));
        assert!(!lt.acquire(t(3), &[Key(1)]));
        assert_eq!(lt.queued(), 2);
        let granted = lt.release(t(1));
        assert_eq!(granted, vec![t(2)]);
        assert!(lt.holds(t(2), Key(1)));
        let granted = lt.release(t(2));
        assert_eq!(granted, vec![t(3)]);
    }

    #[test]
    fn non_conflicting_waiters_can_be_granted_together() {
        let mut lt = LockTable::new();
        assert!(lt.acquire(t(1), &[Key(1), Key(2)]));
        assert!(!lt.acquire(t(2), &[Key(1)]));
        assert!(!lt.acquire(t(3), &[Key(2)]));
        let granted = lt.release(t(1));
        assert_eq!(granted, vec![t(2), t(3)]);
    }

    #[test]
    fn queued_request_blocks_later_overlapping_grant() {
        let mut lt = LockTable::new();
        assert!(lt.acquire(t(1), &[Key(1)]));
        // t2 waits for key 1 and key 2 (key 2 is free but must not be stolen).
        assert!(!lt.acquire(t(2), &[Key(1), Key(2)]));
        // t3 wants key 2 only; it must queue behind t2 to preserve fairness.
        assert!(!lt.acquire(t(3), &[Key(2)]));
        let granted = lt.release(t(1));
        assert_eq!(granted, vec![t(2)]);
        let granted = lt.release(t(2));
        assert_eq!(granted, vec![t(3)]);
    }

    #[test]
    fn reacquiring_own_lock_is_idempotent() {
        let mut lt = LockTable::new();
        assert!(lt.acquire(t(1), &[Key(1)]));
        assert!(lt.acquire(t(1), &[Key(1)]));
        assert_eq!(lt.locked_keys(), 1);
    }

    #[test]
    fn releasing_a_waiter_removes_it_from_the_queue() {
        let mut lt = LockTable::new();
        assert!(lt.acquire(t(1), &[Key(1)]));
        assert!(!lt.acquire(t(2), &[Key(1)]));
        lt.release(t(2)); // the waiter gives up (client-side abort)
        let granted = lt.release(t(1));
        assert!(granted.is_empty());
        assert_eq!(lt.locked_keys(), 0);
    }
}
