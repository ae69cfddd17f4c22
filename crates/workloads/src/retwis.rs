//! The Retwis workload (Section 6): a Twitter-clone transaction mix.
//!
//! | Transaction     | Share | Kind        | Keys |
//! |-----------------|-------|-------------|------|
//! | add-user        |  5 %  | read-write  | 1    |
//! | follow/unfollow | 15 %  | read-write  | 2    |
//! | post-tweet      | 30 %  | read-write  | 3    |
//! | load-timeline   | 50 %  | read-only   | 1–10 |
//!
//! Keys are drawn from a Zipfian distribution over the configured key space
//! (ten million keys in the paper; scaled down for simulation).

use rand::rngs::SmallRng;
use rand::Rng;
use regular_core::types::Key;
use regular_session::{SessionOp, SessionWorkload};

use crate::zipf::Zipf;

/// A generated transaction: its keys and whether it is read-only.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GeneratedTxn {
    /// True for read-only transactions.
    pub read_only: bool,
    /// Distinct keys accessed.
    pub keys: Vec<u64>,
    /// Human-readable transaction type (for diagnostics).
    pub kind: RetwisKind,
}

/// The four Retwis transaction types.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetwisKind {
    /// Create a user (read-write, 1 key).
    AddUser,
    /// Follow or unfollow a user (read-write, 2 keys).
    FollowUnfollow,
    /// Post a tweet (read-write, 3 keys).
    PostTweet,
    /// Load a timeline (read-only, 1–10 keys).
    LoadTimeline,
}

/// The Retwis generator.
#[derive(Debug, Clone)]
pub struct Retwis {
    zipf: Zipf,
}

impl Retwis {
    /// Creates a generator over `num_keys` keys with the given Zipf skew.
    pub fn new(num_keys: u64, skew: f64) -> Self {
        Retwis { zipf: Zipf::new(num_keys, skew) }
    }

    /// Number of keys in the key space.
    pub fn num_keys(&self) -> u64 {
        self.zipf.n()
    }

    fn distinct_keys(&self, rng: &mut SmallRng, count: usize) -> Vec<u64> {
        let mut keys = Vec::with_capacity(count);
        let mut guard = 0;
        while keys.len() < count && guard < count * 100 {
            let k = self.zipf.sample(rng);
            if !keys.contains(&k) {
                keys.push(k);
            }
            guard += 1;
        }
        // Degenerate key spaces may not have enough distinct keys; pad
        // deterministically so the transaction is still well-formed.
        let mut next = 0;
        while keys.len() < count {
            if !keys.contains(&next) {
                keys.push(next % self.zipf.n().max(1));
            }
            next += 1;
        }
        keys
    }

    /// Generates the next transaction.
    pub fn next_txn(&self, rng: &mut SmallRng) -> GeneratedTxn {
        let roll: f64 = rng.gen();
        if roll < 0.05 {
            GeneratedTxn {
                read_only: false,
                keys: self.distinct_keys(rng, 1),
                kind: RetwisKind::AddUser,
            }
        } else if roll < 0.20 {
            GeneratedTxn {
                read_only: false,
                keys: self.distinct_keys(rng, 2),
                kind: RetwisKind::FollowUnfollow,
            }
        } else if roll < 0.50 {
            GeneratedTxn {
                read_only: false,
                keys: self.distinct_keys(rng, 3),
                kind: RetwisKind::PostTweet,
            }
        } else {
            let n = rng.gen_range(1..=10);
            GeneratedTxn {
                read_only: true,
                keys: self.distinct_keys(rng, n),
                kind: RetwisKind::LoadTimeline,
            }
        }
    }
}

/// Retwis behind the protocol-agnostic session interface: every generated
/// transaction becomes a read-only or read-write transaction over its keys.
impl SessionWorkload for Retwis {
    fn next_op(&mut self, rng: &mut SmallRng) -> SessionOp {
        let txn = self.next_txn(rng);
        let keys = txn.keys.into_iter().map(Key).collect();
        if txn.read_only {
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
    fn session_workload_produces_valid_requests() {
        let mut retwis = Retwis::new(1_000, 0.7);
        let mut rng = SmallRng::seed_from_u64(1);
        let mut ro = 0;
        for _ in 0..200 {
            let (keys, read_only) = match retwis.next_op(&mut rng) {
                SessionOp::RoTxn { keys } => (keys, true),
                SessionOp::RwTxn { keys } => (keys, false),
                other => panic!("unexpected op {other:?}"),
            };
            assert!(!keys.is_empty());
            ro += usize::from(read_only);
        }
        assert!(ro > 50, "about half the Retwis mix is read-only");
    }

    #[test]
    fn mix_matches_paper_proportions() {
        let retwis = Retwis::new(100_000, 0.7);
        let mut rng = SmallRng::seed_from_u64(1);
        let mut counts = [0u32; 4];
        let n = 20_000;
        for _ in 0..n {
            let txn = retwis.next_txn(&mut rng);
            let idx = match txn.kind {
                RetwisKind::AddUser => 0,
                RetwisKind::FollowUnfollow => 1,
                RetwisKind::PostTweet => 2,
                RetwisKind::LoadTimeline => 3,
            };
            counts[idx] += 1;
            match txn.kind {
                RetwisKind::AddUser => assert_eq!(txn.keys.len(), 1),
                RetwisKind::FollowUnfollow => assert_eq!(txn.keys.len(), 2),
                RetwisKind::PostTweet => assert_eq!(txn.keys.len(), 3),
                RetwisKind::LoadTimeline => {
                    assert!((1..=10).contains(&txn.keys.len()));
                    assert!(txn.read_only);
                }
            }
        }
        let frac = |c: u32| c as f64 / n as f64;
        assert!((0.03..0.07).contains(&frac(counts[0])), "add-user ≈ 5%");
        assert!((0.12..0.18).contains(&frac(counts[1])), "follow ≈ 15%");
        assert!((0.27..0.33).contains(&frac(counts[2])), "post-tweet ≈ 30%");
        assert!((0.47..0.53).contains(&frac(counts[3])), "load-timeline ≈ 50%");
    }

    #[test]
    fn keys_are_distinct_within_a_transaction() {
        let retwis = Retwis::new(1_000, 0.9);
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..1_000 {
            let txn = retwis.next_txn(&mut rng);
            let mut sorted = txn.keys.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), txn.keys.len());
            assert!(txn.keys.iter().all(|&k| k < 1_000));
        }
    }

    #[test]
    fn works_with_tiny_key_spaces() {
        let retwis = Retwis::new(3, 0.9);
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..200 {
            let txn = retwis.next_txn(&mut rng);
            assert!(!txn.keys.is_empty());
            assert!(txn.keys.len() <= 3 || txn.read_only);
        }
    }
}
