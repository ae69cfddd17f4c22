//! The read-only path, checked exhaustively over a small scope.
//!
//! This drives `regular_spanner::ro` directly: a minimal shard model in this
//! file decides, with `ReadPolicy::must_observe`, which prepared writers a
//! read blocks on and which it skips, and the client side is the real
//! `RoRead`. Every configuration of the scope and every order in which the
//! client can receive its replies is tried, and each finished read is judged
//! against the definition of a read at a timestamp, not against `ro.rs`.
//! Nagar and Jagannathan (`PAPERS.md`) justify the bound: the anomalies of
//! interest are short dependency cycles, and a fractured read needs only one
//! writer spanning two shards and one more writer to push the snapshot up.
//!
//! Scope:
//! - shards 0 and 1: key X on shard 0, key Y on shard 1, and key Z on
//!   shard 0, which is never written; the read reads all three;
//! - two writers, each on one or both shards, writing the key there;
//! - per writer: a prepare timestamp per shard in 1..=3, a commit
//!   timestamp `t_c` from its largest `t_p` up to 3, or an abort; `t_ee` 1
//!   or 4; and, at the read's arrival at each of its shards, decided or
//!   still prepared;
//! - `t_read` 2 or 3 and `t_min` in `0..=t_read` (real `t_min`s are below
//!   `t_read`: they are commit, snapshot and fence timestamps that commit
//!   wait has put in the past);
//! - the strict policy (at `t_min` 0: it ignores `t_min`), RSS, and RSS
//!   without the `t_ee` skip (at `t_ee` 4 only, as strict);
//! - every order of the two fast replies, the slow replies, and one
//!   duplicate of either fast reply or none.
//!
//! The model asks of a configuration only what every execution satisfies
//! (`t_p ≤ t_c`, `t_min ≤ t_read`, two writers of one key commit at
//! different timestamps), not lock exclusion: it covers more states than a
//! real shard reaches.
//!
//! The oracle: the read finishes exactly once (the client drops replies to
//! a finished read), only after both fast replies have arrived, at a stamp
//! no lower than `t_min`, and each key returns the latest committed write
//! with `t_c ≤ stamp`, or the initial value.
//!
//! `cargo test -p regular-spanner --test ro_small_scope -- --nocapture`
//! prints how many schedules were enumerated.

use regular_core::op::OpResult;
use regular_core::types::{Key, Value};
use regular_spanner::messages::{PreparedInfo, Ts, TxnId};
use regular_spanner::ro::{ReadPolicy, RoRead};

const X: Key = Key(0);
const Y: Key = Key(1);
const Z: Key = Key(2);
/// The keys read, and the shard of each.
const KEYS: [Key; 3] = [X, Y, Z];
const SHARD_OF: [usize; 3] = [0, 1, 0];
/// The key a writer on shard `s` writes.
const WRITTEN: [Key; 2] = [X, Y];
const T_P: [Ts; 3] = [1, 2, 3];
const T_MAX: Ts = 3;

/// A read-write transaction, as the read finds it.
#[derive(Debug, Clone, Copy)]
struct Writer {
    id: TxnId,
    /// Bit `s` for shard `s`.
    shards: u8,
    t_p: [Ts; 2],
    /// `None` if it aborts.
    t_c: Option<Ts>,
    t_ee: Ts,
    /// Per shard: still prepared when the read arrives (else decided).
    prepared: [bool; 2],
}

impl Writer {
    fn on(&self, s: usize) -> bool {
        self.shards >> s & 1 == 1
    }

    fn value(&self, s: usize) -> Value {
        Value(self.id.seq * 10 + s as u64 + 1)
    }

    /// Its committed version at shard `s`, if it commits.
    fn version(&self, s: usize) -> Option<(Key, Ts, Value)> {
        self.t_c.map(|t_c| (WRITTEN[s], t_c, self.value(s)))
    }
}

/// Every writer shape: shards, status, timestamps, outcome and `t_ee`. A
/// shard reads a writer's `t_p` and `t_ee` only while it is prepared there,
/// so a decided shard keeps `t_p` 1 (the widest `t_c` range) and a writer
/// prepared nowhere keeps `t_ee` 4.
fn shapes() -> Vec<Writer> {
    let mut out = Vec::new();
    for shards in 1..=3u8 {
        for prepared in [[false, false], [true, false], [false, true], [true, true]] {
            if (0..2).any(|s| shards >> s & 1 == 0 && prepared[s]) {
                continue;
            }
            for t_p in T_P.iter().flat_map(|&a| T_P.map(|b| [a, b])) {
                if (0..2).any(|s| !prepared[s] && t_p[s] != T_P[0]) {
                    continue;
                }
                let max_p = (0..2).filter(|s| shards >> s & 1 == 1).map(|s| t_p[s]).max();
                for t_c in std::iter::once(None).chain((max_p.unwrap()..=T_MAX).map(Some)) {
                    for t_ee in if prepared.contains(&true) { vec![1, 4] } else { vec![4] } {
                        let id = TxnId { client: 7, seq: 0 };
                        out.push(Writer { id, shards, t_p, t_c, t_ee, prepared });
                    }
                }
            }
        }
    }
    out
}

/// A reply the client receives.
#[derive(Debug, Clone)]
enum Reply {
    Fast { shard: usize, versions: Vec<(Key, Ts, Value)>, skipped: Vec<PreparedInfo> },
    Slow { shard: usize, resolved: TxnId, committed: bool, versions: Vec<(Key, Ts, Value)> },
}

/// A read's parameters.
#[derive(Debug, Clone, Copy)]
struct Read {
    policy: ReadPolicy,
    t_read: Ts,
    t_min: Ts,
}

/// What shard `s` sends the read: its fast reply, then a slow reply per
/// writer skipped. The shard blocks on the prepared writers at or below
/// `t_read` that `must_observe` names, so by its answer they are decided
/// like the writers decided before the read arrived; it skips the other
/// prepared writers at or below `t_read`.
fn shard_replies(read: Read, writers: &[Writer; 2], s: usize) -> Vec<Reply> {
    let Read { policy, t_read, t_min } = read;
    let here = || writers.iter().filter(move |w| w.on(s));
    let conflicting = |w: &Writer| w.prepared[s] && w.t_p[s] <= t_read;
    let blocker =
        |w: &Writer| conflicting(w) && policy.must_observe(w.t_p[s], w.t_ee, t_read, t_min);
    let latest = here()
        .filter(|w| !w.prepared[s] || blocker(w))
        .filter_map(|w| w.version(s))
        .filter(|&(_, t_c, _)| t_c <= t_read)
        .max_by_key(|&(_, t_c, _)| t_c);
    let versions = (0..KEYS.len())
        .filter(|&i| SHARD_OF[i] == s)
        .map(|i| match latest {
            Some(v) if v.0 == KEYS[i] => v,
            _ => (KEYS[i], 0, Value::NULL),
        })
        .collect();
    let skipped: Vec<Writer> = here().filter(|w| conflicting(w) && !blocker(w)).copied().collect();
    let infos = skipped.iter().map(|w| PreparedInfo { txn: w.id, t_prepare: w.t_p[s] }).collect();
    let mut replies = vec![Reply::Fast { shard: s, versions, skipped: infos }];
    replies.extend(skipped.iter().map(|w| Reply::Slow {
        shard: s,
        resolved: w.id,
        committed: w.t_c.is_some(),
        versions: w.version(s).into_iter().collect(),
    }));
    replies
}

/// What the read must return at `stamp`: per key, the latest committed
/// write with `t_c ≤ stamp`, or the initial value.
fn expected(writers: &[Writer; 2], stamp: Ts) -> OpResult {
    let at = |i: usize| {
        let s = SHARD_OF[i];
        let writes = writers.iter().filter(|w| w.on(s) && KEYS[i] == WRITTEN[s]);
        let visible =
            writes.filter_map(|w| Some((w.t_c?, w.value(s)))).filter(|&(t, _)| t <= stamp);
        (KEYS[i], visible.max_by_key(|&(t, _)| t).map_or(Value::NULL, |(_, v)| v))
    };
    OpResult::Values((0..KEYS.len()).map(at).collect())
}

/// Tallies over every schedule enumerated.
#[derive(Debug, Default)]
struct Tally {
    configurations: u64,
    schedules: u64,
    waited: u64,
    zero_snapshot: u64,
    stamped_above_snapshot: u64,
    counterexamples: u64,
    /// The first few counterexamples, printed.
    shown: Vec<String>,
}

/// One delivery schedule in progress: the client's state, the fast replies
/// seen, and how many copies of each reply are still to arrive.
struct Search<'a> {
    read: Read,
    writers: &'a [Writer; 2],
    replies: &'a [Reply],
    left: Vec<u32>,
    order: Vec<usize>,
}

impl Search<'_> {
    /// Delivers every remaining reply next, in turn, from `ro`'s state.
    fn explore(&mut self, ro: &RoRead, seen: u8, tally: &mut Tally) {
        for i in 0..self.replies.len() {
            if self.left[i] == 0 {
                continue;
            }
            self.left[i] -= 1;
            self.order.push(i);
            let (mut ro, mut seen) = (ro.clone(), seen);
            let due = match self.replies[i].clone() {
                Reply::Fast { shard, versions, skipped } => {
                    seen |= 1 << shard;
                    ro.on_fast(shard, versions, skipped)
                }
                Reply::Slow { shard, resolved, committed, versions } => {
                    ro.on_slow(shard, resolved, committed, versions)
                }
            };
            match due.then(|| ro.try_finish(&KEYS)).flatten() {
                // The client drops the rest: every order of it is one schedule.
                Some(finished) => self.judge(finished, seen, tally),
                None if self.left.iter().all(|&n| n == 0) => {
                    tally.schedules += 1;
                    self.fail("never finishes", tally);
                }
                None => self.explore(&ro, seen, tally),
            }
            self.order.pop();
            self.left[i] += 1;
        }
    }

    fn judge(&self, (result, stamp, t_snap): (OpResult, Ts, Ts), seen: u8, tally: &mut Tally) {
        let schedules = orders(&self.left);
        tally.schedules += schedules;
        let last = &self.replies[*self.order.last().expect("a reply was delivered")];
        tally.waited += schedules * u64::from(matches!(last, Reply::Slow { .. }));
        tally.zero_snapshot += schedules * u64::from(t_snap == 0);
        tally.stamped_above_snapshot += schedules * u64::from(stamp > t_snap);
        let want = expected(self.writers, stamp);
        if seen != 0b11 {
            self.fail("finishes before both fast replies", tally);
        } else if stamp < self.read.t_min {
            self.fail(&format!("stamp {stamp} below t_min"), tally);
        } else if result != want {
            self.fail(&format!("at stamp {stamp} returns {result:?}, not {want:?}"), tally);
        }
    }

    fn fail(&self, what: &str, tally: &mut Tally) {
        tally.counterexamples += 1;
        if tally.shown.len() < 3 {
            let mut shown = format!("{what}\n  read: {:?}", self.read);
            for w in self.writers {
                shown += &format!("\n  writer: {w:?}");
            }
            for &i in &self.order {
                shown += &format!("\n  delivered: {:?}", self.replies[i]);
            }
            tally.shown.push(shown);
        }
    }
}

/// The number of distinct orders of a multiset with `counts` copies of each
/// element.
fn orders(counts: &[u32]) -> u64 {
    let fact = |n: u32| (1..=u64::from(n)).product::<u64>();
    fact(counts.iter().sum()) / counts.iter().map(|&n| fact(n)).product::<u64>()
}

/// Every configuration of the scope, every schedule of each.
fn enumerate() -> Tally {
    let shapes = shapes();
    let policies = [
        ReadPolicy::Strict,
        ReadPolicy::Rss { tee_skip: true },
        ReadPolicy::Rss { tee_skip: false },
    ];
    let mut tally = Tally::default();
    for policy in policies {
        for t_read in [2, 3] {
            for t_min in 0..=t_read {
                let read = Read { policy, t_read, t_min };
                if policy == ReadPolicy::Strict && t_min > 0 {
                    continue;
                }
                for (a, first) in shapes.iter().enumerate() {
                    for second in &shapes[a..] {
                        let (mut w1, mut w2) = (*first, *second);
                        w1.id.seq = 1;
                        w2.id.seq = 2;
                        let t_ee_matters = policy == ReadPolicy::Rss { tee_skip: true };
                        if !t_ee_matters && (w1.t_ee != 4 || w2.t_ee != 4) {
                            continue;
                        }
                        let share = w1.shards & w2.shards != 0;
                        if share && w1.t_c.is_some() && w1.t_c == w2.t_c {
                            continue;
                        }
                        let writers = [w1, w2];
                        let mut replies = shard_replies(read, &writers, 0);
                        let at_one = replies.len();
                        replies.extend(shard_replies(read, &writers, 1));
                        // No duplicate, or a duplicate of either fast reply.
                        for dup in [None, Some(0), Some(at_one)] {
                            let mut left = vec![1; replies.len()];
                            if let Some(d) = dup {
                                left[d] += 1;
                            }
                            tally.configurations += 1;
                            let mut search = Search {
                                read,
                                writers: &writers,
                                replies: &replies,
                                left,
                                order: Vec::new(),
                            };
                            let ro = RoRead::new(policy, t_read, t_min, 0b11, KEYS.len());
                            search.explore(&ro, 0, &mut tally);
                        }
                    }
                }
            }
        }
    }
    tally
}

#[test]
fn the_read_only_path_is_correct_over_the_small_scope() {
    let tally = enumerate();
    println!(
        "ro_small_scope: {} configurations, {} schedules enumerated ({} waited for a slow \
         reply, {} at snapshot 0, {} stamped above their snapshot); {} counterexamples",
        tally.configurations,
        tally.schedules,
        tally.waited,
        tally.zero_snapshot,
        tally.stamped_above_snapshot,
        tally.counterexamples
    );
    for c in &tally.shown {
        println!("counterexample: {c}");
    }
    assert_eq!(tally.counterexamples, 0, "counterexamples found");
    // The scope reaches what it is for: reads that wait for slow replies,
    // snapshots at 0, and stamps above the snapshot.
    assert!(tally.waited > 0 && tally.zero_snapshot > 0 && tally.stamped_above_snapshot > 0);
}
