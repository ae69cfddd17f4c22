//! Cooperative termination, pinned below the engine.
//!
//! A shard leader is driven directly through [`Context::from_parts`]: the
//! test delivers messages, keeps the timers the shard sets and fires them
//! when they are due, so every probe and re-drive is observed at its exact
//! instant and every `set_timer` is counted. The instants asserted here are
//! the ones one-timer-per-transaction termination produced (`prepare +
//! commit_timeout` and every `commit_timeout` after); what the termination
//! queues change is how many engine timers it takes to get there.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use regular_core::types::{Key, Value};
use regular_sim::engine::{Context, ContextParts, Node, NodeId};
use regular_sim::time::{SimDuration, SimTime};
use regular_sim::truetime::TrueTime;
use regular_spanner::{Mode, ShardNode, SpannerConfig, SpannerMsg, TxnId};
use regular_storage::{Durability, StorageRegistry, WalOptions};

/// The shard under test, its peer shard, and a client.
const SHARD: NodeId = 0;
const PEER: NodeId = 1;
const CLIENT: NodeId = 9;

fn ms(millis: u64) -> SimTime {
    SimTime::from_millis(millis)
}

fn txn(seq: u64) -> TxnId {
    TxnId { client: CLIENT, seq }
}

fn write(key: u64) -> Vec<(Key, Value)> {
    vec![(Key(key), Value(key + 100))]
}

/// One shard leader and the slice of an engine it needs: a clock, the
/// timers it has in flight, and a loopback for messages it sends itself.
struct Rig {
    shard: ShardNode,
    now: SimTime,
    rng: SmallRng,
    truetime: TrueTime,
    /// Engine timers in flight: `(fires at, tag)`.
    timers: Vec<(SimTime, u64)>,
    /// Every `set_timer` the shard has made.
    timers_set: usize,
}

impl Rig {
    fn new(cfg: &SpannerConfig) -> Rig {
        Rig {
            shard: ShardNode::new(cfg, 0, SimDuration::from_micros(100)),
            now: SimTime::ZERO,
            rng: SmallRng::seed_from_u64(7),
            truetime: TrueTime::new(cfg.truetime_epsilon, 7),
            timers: Vec::new(),
            timers_set: 0,
        }
    }

    /// Runs one handler at `at`; returns what it sent to other nodes, after
    /// delivering (at the same instant) what it sent to itself.
    fn turn(
        &mut self,
        at: SimTime,
        handler: impl FnOnce(&mut ShardNode, &mut Context<SpannerMsg>),
    ) -> Vec<(NodeId, SpannerMsg)> {
        assert!(at >= self.now, "the rig's clock only moves forward");
        self.now = at;
        let (mut outbox, mut timers) = (Vec::new(), Vec::new());
        let mut ctx = Context::from_parts(ContextParts {
            now: at,
            node_id: SHARD,
            rng: &mut self.rng,
            truetime: &mut self.truetime,
            outbox: &mut outbox,
            timers: &mut timers,
        });
        handler(&mut self.shard, &mut ctx);
        self.timers_set += timers.len();
        self.timers.extend(timers.into_iter().map(|(delay, tag)| (at + delay, tag)));
        let mut sent = Vec::new();
        for (to, _, msg) in outbox {
            if to == SHARD {
                sent.extend(self.deliver(at, SHARD, msg));
            } else {
                sent.push((to, msg));
            }
        }
        sent
    }

    fn deliver(&mut self, at: SimTime, from: NodeId, msg: SpannerMsg) -> Vec<(NodeId, SpannerMsg)> {
        self.turn(at, |shard, ctx| shard.on_message(ctx, from, msg))
    }

    /// Fires, in due order, every timer due by `until`; returns the instant
    /// and the messages of each firing that sent any.
    fn run_timers(&mut self, until: SimTime) -> Vec<(SimTime, Vec<(NodeId, SpannerMsg)>)> {
        let mut fired = Vec::new();
        while let Some(next) = (0..self.timers.len())
            .filter(|&i| self.timers[i].0 <= until)
            .min_by_key(|&i| self.timers[i])
        {
            let (at, tag) = self.timers.swap_remove(next);
            let sent = self.turn(at, |shard, ctx| shard.on_timer(ctx, tag));
            if !sent.is_empty() {
                fired.push((at, sent));
            }
        }
        fired
    }
}

/// The `PrepareOk` acks for `txn` among `fired`, as the instants they left.
fn acks(fired: &[(SimTime, Vec<(NodeId, SpannerMsg)>)], of: TxnId) -> Vec<SimTime> {
    let is_ack = |msg: &SpannerMsg| matches!(msg, SpannerMsg::PrepareOk { txn, .. } if *txn == of);
    fired
        .iter()
        .filter(|(_, sent)| sent.iter().any(|(to, msg)| *to == PEER && is_ack(msg)))
        .map(|(at, _)| *at)
        .collect()
}

#[test]
fn a_dropped_commit_decision_is_probed_every_commit_timeout_until_it_lands() {
    let cfg = SpannerConfig::single_dc(Mode::SpannerRss, 2);
    let timeout = cfg.commit_timeout.as_micros() / 1_000;
    let mut rig = Rig::new(&cfg);
    let prepare = |seq, key| SpannerMsg::Prepare {
        txn: txn(seq),
        writes: write(key),
        t_ee: 0,
        coordinator: PEER,
    };
    // Transaction 1 prepares and votes; its decision is lost. Transaction 2
    // wants the same key and queues behind its lock.
    let sent = rig.deliver(ms(1), PEER, prepare(1, 5));
    assert!(matches!(sent[..], [(PEER, SpannerMsg::PrepareOk { txn: t, .. })] if t == txn(1)));
    assert!(rig.deliver(ms(700), PEER, prepare(2, 5)).is_empty(), "the lock is held");

    let fired = rig.run_timers(ms(3 * timeout + 500));
    let expected: Vec<SimTime> = (1..=3).map(|k| ms(1 + k * timeout)).collect();
    assert_eq!(acks(&fired, txn(1)), expected, "probed at prepare + k * commit_timeout");
    assert_eq!(fired.len(), 3, "nothing else fires");

    // The decision lands: the write installs, the lock moves on.
    let decision = SpannerMsg::CommitDecision { txn: txn(1), commit: true, t_commit: 4_000_000 };
    let landed = ms(3 * timeout + 600);
    let sent = rig.deliver(landed, PEER, decision);
    assert!(matches!(sent[..], [(PEER, SpannerMsg::PrepareOk { txn: t, .. })] if t == txn(2)));
    assert_eq!(rig.shard.stats.commits, 1);

    // Transaction 1 is never probed again; transaction 2 is, on its own
    // schedule, while its decision is outstanding.
    let fired = rig.run_timers(landed + cfg.commit_timeout + cfg.commit_timeout);
    assert!(acks(&fired, txn(1)).is_empty());
    assert_eq!(
        acks(&fired, txn(2)),
        [landed + cfg.commit_timeout, landed + cfg.commit_timeout * 2]
    );
}

#[test]
fn a_dropped_prepare_is_re_driven_every_commit_timeout_until_the_vote_arrives() {
    let cfg = SpannerConfig::single_dc(Mode::SpannerRss, 2);
    let timeout = cfg.commit_timeout.as_micros() / 1_000;
    let mut rig = Rig::new(&cfg);
    // This shard coordinates a round over itself and its peer; the peer's
    // Prepare is lost (the rig never delivers it), this shard's own loops
    // back and votes.
    let request = SpannerMsg::CommitRequest {
        txn: txn(1),
        writes_by_shard: vec![(SHARD, write(4)), (PEER, write(5))],
        t_ee: 0,
    };
    let sent = rig.deliver(ms(1), CLIENT, request);
    assert!(matches!(sent[..], [(PEER, SpannerMsg::Prepare { .. })]));

    let prepares_to_peer = |fired: &[(SimTime, Vec<(NodeId, SpannerMsg)>)]| -> Vec<SimTime> {
        let to_peer = |(to, msg): &(NodeId, SpannerMsg)| {
            *to == PEER && matches!(msg, SpannerMsg::Prepare { txn: t, .. } if *t == txn(1))
        };
        fired.iter().filter(|(_, sent)| sent.iter().any(to_peer)).map(|(at, _)| *at).collect()
    };
    let fired = rig.run_timers(ms(2 * timeout + 500));
    assert_eq!(prepares_to_peer(&fired), [ms(1 + timeout), ms(1 + 2 * timeout)]);

    // The peer's vote arrives; commit wait runs out; the round closes.
    let vote = SpannerMsg::PrepareOk { txn: txn(1), shard: PEER, t_prepare: 10 };
    assert!(rig.deliver(ms(2 * timeout + 600), PEER, vote).is_empty(), "commit wait first");
    let fired = rig.run_timers(ms(5 * timeout));
    let decided = |(to, msg): &(NodeId, SpannerMsg)| {
        *to == CLIENT && matches!(msg, SpannerMsg::CommitReply { commit: true, .. })
    };
    assert!(fired.iter().any(|(_, sent)| sent.iter().any(decided)), "the client hears the commit");
    assert!(prepares_to_peer(&fired).is_empty(), "a closed round is not re-driven");
    assert_eq!(rig.shard.stats.commits, 1);
}

#[test]
fn a_healthy_run_arms_a_timer_per_commit_timeout_not_per_transaction() {
    let cfg = SpannerConfig::single_dc(Mode::SpannerRss, 2);
    let mut rig = Rig::new(&cfg);
    // 20 simulated seconds, a transaction a millisecond in each role: as
    // participant (prepared, decided half a millisecond later) and as
    // coordinator (a round opened, then aborted by its client).
    const TXNS: u64 = 20_000;
    for i in 0..TXNS {
        let (at, later) = (SimTime::from_micros(i * 1_000), SimTime::from_micros(i * 1_000 + 500));
        assert!(rig.run_timers(at).is_empty(), "no firing finds anything to do");
        let (prepared, coordinated) = (txn(2 * i), txn(2 * i + 1));
        let prepare =
            SpannerMsg::Prepare { txn: prepared, writes: write(i), t_ee: 0, coordinator: PEER };
        let request = SpannerMsg::CommitRequest {
            txn: coordinated,
            writes_by_shard: vec![(PEER, write(i))],
            t_ee: 0,
        };
        rig.deliver(at, PEER, prepare);
        rig.deliver(at, CLIENT, request);
        let decision = SpannerMsg::CommitDecision { txn: prepared, commit: true, t_commit: 1 };
        rig.deliver(later, PEER, decision);
        rig.deliver(later, CLIENT, SpannerMsg::AbortRequest { txn: coordinated });
    }
    assert_eq!(rig.shard.stats.commits, TXNS);
    let windows = (TXNS * 1_000 / cfg.commit_timeout.as_micros()) as usize;
    assert!(
        rig.timers_set <= 2 * (windows + 1),
        "{} timers for {TXNS} transactions over {windows} commit timeouts",
        rig.timers_set
    );
}

#[test]
fn a_wal_crash_wipes_the_queue_and_recovery_probes_every_prepared_transaction_again() {
    let wal = WalOptions::mem(StorageRegistry::new()).with_group_commit_us(0);
    let cfg = SpannerConfig::single_dc(Mode::SpannerRss, 2).with_durability(Durability::Wal(wal));
    let timeout = cfg.commit_timeout.as_micros() / 1_000;
    let mut rig = Rig::new(&cfg);
    let prepare = |seq, key| SpannerMsg::Prepare {
        txn: txn(seq),
        writes: write(key),
        t_ee: 0,
        coordinator: PEER,
    };
    rig.deliver(ms(1), PEER, prepare(1, 5));
    rig.deliver(ms(500), PEER, prepare(2, 6));
    let in_flight = rig.timers.clone();
    assert_eq!(in_flight.len(), 1, "one timer stands for both probes");

    // The machine dies and comes back: whatever the crash hook sets is
    // discarded (as the engine does), the timer armed before stays in
    // flight, and recovery re-acks both transactions from the log.
    rig.turn(ms(1_000), |shard, ctx| shard.on_crash(ctx));
    rig.timers = in_flight;
    let sent = rig.turn(ms(1_500), |shard, ctx| shard.on_recover(ctx));
    assert_eq!(sent.len(), 2, "recovery re-acks what it finds prepared: {sent:?}");

    // The stale tag fires at its old instant and does nothing; both
    // transactions are probed a commit timeout after recovery.
    let fired = rig.run_timers(ms(1_500 + 2 * timeout + 100));
    let after = |k: u64| ms(1_500 + k * timeout);
    assert_eq!(acks(&fired, txn(1)), [after(1), after(2)]);
    assert_eq!(acks(&fired, txn(2)), [after(1), after(2)]);
    assert_eq!(fired.len(), 2, "one firing probes both; the stale timer sent nothing");
}
