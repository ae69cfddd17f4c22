//! The read-only path of both protocols as pure logic. Strict Spanner and
//! Spanner-RSS differ in two places only (paper §5, arXiv version): which
//! prepared transactions a read must wait for at a shard, and which
//! timestamp it is serialized at. [`ReadPolicy`] is those two places;
//! [`RoRead`] is the client's side of the rest (Algorithm 1). Neither takes
//! a `Context`, an RNG or a clock, so `tests/ro_small_scope.rs` drives both
//! exhaustively over a small scope.

use regular_core::op::OpResult;
use regular_core::types::{Key, Value};

#[cfg(any(test, feature = "bug-zoo"))]
use crate::config::BugZoo;
use crate::config::Mode;
use crate::messages::{PreparedInfo, Ts, TxnId};

/// What a read-only transaction waits for and how it is stamped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadPolicy {
    /// Strict Spanner: wait for every conflicting prepare, stamp `t_read`.
    Strict,
    /// Spanner-RSS (Algorithms 1 and 2); `tee_skip` is off under the
    /// `disable_tee_skip` ablation.
    Rss {
        /// Whether a prepare whose `t_ee` has not passed may be skipped.
        tee_skip: bool,
    },
}

impl ReadPolicy {
    /// The policy of a cluster in `mode`.
    pub fn new(mode: Mode, disable_tee_skip: bool) -> Self {
        match mode {
            Mode::Spanner => ReadPolicy::Strict,
            Mode::SpannerRss => ReadPolicy::Rss { tee_skip: !disable_tee_skip },
        }
    }

    /// Whether a read at `t_read` with causal floor `t_min` waits at the
    /// shard for a conflicting transaction prepared at `t_p` whose client
    /// ends no earlier than `t_ee` (Algorithm 2's set `B`).
    pub fn must_observe(self, t_p: Ts, t_ee: Ts, t_read: Ts, t_min: Ts) -> bool {
        match self {
            ReadPolicy::Rss { tee_skip: true } => t_p <= t_min || t_ee <= t_read,
            _ => true,
        }
    }

    /// The timestamp of a read at `t_read` with snapshot `t_snap` and causal
    /// floor `t_min`.
    pub fn stamp(self, t_read: Ts, t_snap: Ts, t_min: Ts) -> Ts {
        match self {
            ReadPolicy::Strict => t_read,
            ReadPolicy::Rss { .. } => t_snap.max(t_min),
        }
    }
}

/// The client's side of one read-only transaction (Algorithm 1). Shards are
/// indices below 64; when [`RoRead::on_fast`] or [`RoRead::on_slow`] says a
/// decision is due, the caller asks [`RoRead::try_finish`].
#[derive(Debug, Clone)]
pub struct RoRead {
    policy: ReadPolicy,
    t_read: Ts,
    t_min: Ts,
    /// Shards still owing their fast reply, bit `s` for shard `s`.
    pending: u64,
    /// Keys read, for sizing `versions` once.
    reads: usize,
    /// Every version returned, in arrival order.
    versions: Vec<(Key, Ts, Value)>,
    /// The skipped prepares per shard, with their `t_p` until resolved. A
    /// slow reply carries one shard's writes, so it resolves that shard's
    /// entry only. Resolutions are kept per shard even before the fast reply
    /// that skips them: a late or duplicated fast reply from that shard must
    /// not resurrect a resolved transaction.
    skips: Vec<(usize, TxnId, Option<Ts>)>,
    /// Chosen at the first decision; an undecided read then waits.
    t_snap: Option<Ts>,
    /// Bug-zoo mutant knobs; only compiled-in builds have them.
    #[cfg(any(test, feature = "bug-zoo"))]
    bug_zoo: BugZoo,
}

impl RoRead {
    /// A read of `reads` keys awaiting a fast reply from every shard in
    /// `shards`.
    pub fn new(policy: ReadPolicy, t_read: Ts, t_min: Ts, shards: u64, reads: usize) -> Self {
        let (versions, skips, t_snap) = (Vec::new(), Vec::new(), None);
        RoRead {
            policy,
            t_read,
            t_min,
            pending: shards,
            reads,
            versions,
            skips,
            t_snap,
            #[cfg(any(test, feature = "bug-zoo"))]
            bug_zoo: BugZoo::none(),
        }
    }

    /// Enables the bug-zoo mutants of `bug_zoo` for this read.
    #[cfg(any(test, feature = "bug-zoo"))]
    pub fn with_bug_zoo(mut self, bug_zoo: BugZoo) -> Self {
        self.bug_zoo = bug_zoo;
        self
    }

    /// `shard`'s fast reply; true if it was the last one awaited.
    pub fn on_fast(
        &mut self,
        shard: usize,
        versions: Vec<(Key, Ts, Value)>,
        skipped: Vec<PreparedInfo>,
    ) -> bool {
        self.add_versions(versions);
        for PreparedInfo { txn, t_prepare } in skipped {
            if self.skip_mut(shard, txn).is_none() {
                self.skips.push((shard, txn, Some(t_prepare)));
            }
        }
        self.pending &= !(1 << shard);
        self.pending == 0 && self.t_snap.is_none()
    }

    /// `shard`'s slow reply about `resolved`, with its writes to the keys
    /// read if it `committed`; true if the read is waiting.
    pub fn on_slow(
        &mut self,
        shard: usize,
        resolved: TxnId,
        committed: bool,
        versions: Vec<(Key, Ts, Value)>,
    ) -> bool {
        match self.skip_mut(shard, resolved) {
            Some((.., t)) => *t = None,
            None => self.skips.push((shard, resolved, None)),
        }
        if committed {
            self.add_versions(versions);
        }
        self.t_snap.is_some()
    }

    /// `None` while a skipped prepare at or below the snapshot is unresolved;
    /// else each of `keys` with its latest version at the snapshot (the later
    /// arrival among equal timestamps), the stamp and the snapshot.
    pub fn try_finish(&mut self, keys: &[Key]) -> Option<(OpResult, Ts, Ts)> {
        let versions = &self.versions;
        let of =
            move |key: Key| versions.iter().filter(move |v| v.0 == key).map(|&(_, ts, v)| (ts, v));
        let earliest = |key: &Key| of(*key).map(|(ts, _)| ts).min().unwrap_or(0);
        let t_snap = *self.t_snap.get_or_insert_with(|| keys.iter().map(earliest).fold(0, Ts::max));
        if self.skips.iter().any(|&(.., t_p)| t_p.is_some_and(|t_p| t_p <= t_snap)) {
            return None;
        }
        let latest = |key: Key| {
            of(key).filter(|v| v.0 <= t_snap).max_by_key(|v| v.0).map_or(Value::NULL, |v| v.1)
        };
        let values = OpResult::Values(keys.iter().map(|&key| (key, latest(key))).collect());
        Some((values, self.policy.stamp(self.t_read, t_snap, self.t_min), t_snap))
    }

    fn skip_mut(&mut self, shard: usize, txn: TxnId) -> Option<&mut (usize, TxnId, Option<Ts>)> {
        // Bug-zoo mutant: the old keying by `TxnId` alone, under which one
        // shard's resolution stands for every shard's.
        #[cfg(any(test, feature = "bug-zoo"))]
        if self.bug_zoo.skips_by_txn_id {
            return self.skips.iter_mut().find(|s| s.1 == txn);
        }
        self.skips.iter_mut().find(|s| (s.0, s.1) == (shard, txn))
    }

    /// Keeps the first reply's buffer, grown once to hold every key read.
    fn add_versions(&mut self, values: Vec<(Key, Ts, Value)>) {
        if self.versions.is_empty() {
            self.versions = values;
            self.versions.reserve_exact(self.reads.saturating_sub(self.versions.len()));
        } else {
            self.versions.extend(values);
        }
    }
}
