//! Transaction requests and built-in workloads for the Spanner client.
//!
//! Clients consume the protocol-agnostic
//! [`regular_session::SessionWorkload`] interface; this module defines the
//! internal [`TxnRequest`] representation the protocol core executes, plus
//! the uniform generator the protocol's own tests and the overhead
//! experiments use. The Retwis generator lives in `regular-workloads`, and
//! scripted workloads in `regular-session`.

use rand::rngs::SmallRng;
use rand::Rng;
use regular_core::types::Key;
use regular_session::{SessionOp, SessionWorkload};

/// One transaction to execute (the protocol core's internal request form).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TxnRequest {
    /// A read-write transaction writing the given keys (reads the same keys
    /// during its execute phase).
    ReadWrite {
        /// Keys written.
        keys: Vec<Key>,
    },
    /// A read-only transaction over the given keys.
    ReadOnly {
        /// Keys read.
        keys: Vec<Key>,
    },
}

impl TxnRequest {
    /// The keys accessed by the request.
    pub fn keys(&self) -> &[Key] {
        match self {
            TxnRequest::ReadWrite { keys } | TxnRequest::ReadOnly { keys } => keys,
        }
    }

    /// The keys accessed by the request, moved out.
    pub fn into_keys(self) -> Vec<Key> {
        match self {
            TxnRequest::ReadWrite { keys } | TxnRequest::ReadOnly { keys } => keys,
        }
    }

    /// True for read-only requests.
    pub fn is_read_only(&self) -> bool {
        matches!(self, TxnRequest::ReadOnly { .. })
    }
}

/// A simple uniform workload: `ro_fraction` read-only transactions over
/// `keys_per_txn` distinct uniformly random keys (every key, when there are
/// fewer), the rest read-write.
#[derive(Debug, Clone)]
pub struct UniformWorkload {
    /// Size of the key space.
    pub num_keys: u64,
    /// Fraction of read-only transactions in `[0, 1]`.
    pub ro_fraction: f64,
    /// Keys accessed per transaction.
    pub keys_per_txn: usize,
}

impl SessionWorkload for UniformWorkload {
    fn next_op(&mut self, rng: &mut SmallRng) -> SessionOp {
        let count = self.keys_per_txn.min(usize::try_from(self.num_keys).unwrap_or(usize::MAX));
        let mut keys = Vec::with_capacity(count);
        while keys.len() < count {
            let k = Key(rng.gen_range(0..self.num_keys));
            if !keys.contains(&k) {
                keys.push(k);
            }
        }
        if rng.gen_bool(self.ro_fraction) {
            SessionOp::RoTxn { keys }
        } else {
            SessionOp::RwTxn { keys }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn uniform_workload_respects_parameters() {
        let mut w = UniformWorkload { num_keys: 100, ro_fraction: 0.5, keys_per_txn: 3 };
        let mut rng = SmallRng::seed_from_u64(1);
        let mut ro = 0;
        for _ in 0..1000 {
            let (keys, read_only) = match w.next_op(&mut rng) {
                SessionOp::RoTxn { keys } => (keys, true),
                SessionOp::RwTxn { keys } => (keys, false),
                other => panic!("unexpected op {other:?}"),
            };
            assert_eq!(keys.len(), 3);
            assert!(keys.iter().all(|k| k.0 < 100));
            // Keys within a transaction are distinct.
            let mut sorted = keys.clone();
            sorted.sort();
            sorted.dedup();
            assert_eq!(sorted.len(), 3);
            if read_only {
                ro += 1;
            }
        }
        assert!((400..600).contains(&ro), "read-only fraction should be near 50%, got {ro}");
    }

    #[test]
    fn more_keys_per_txn_than_keys_takes_every_key() {
        let mut w = UniformWorkload { num_keys: 2, ro_fraction: 0.5, keys_per_txn: 3 };
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..100 {
            let (SessionOp::RoTxn { mut keys } | SessionOp::RwTxn { mut keys }) =
                w.next_op(&mut rng)
            else {
                panic!("uniform workloads issue transactions");
            };
            keys.sort();
            assert_eq!(keys, [Key(0), Key(1)]);
        }
    }
}
