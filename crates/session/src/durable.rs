//! The durability policy of a server node, written once for every protocol.
//!
//! Under `Durability::Wal` a node's durable state lives in a write-ahead
//! log, made sound by one rule: **a message never reveals state the log
//! could still lose.** [`DurableLog`] is that rule's one home. Crashes land
//! between handler turns, so a torn tail only loses records whose
//! acknowledgements never left, as if the network had lost them. A durable
//! node writes only what differs between protocols: its record types, its
//! checkpoint encoders (handed to [`DurableLog::end_turn`]), and its replay.

use regular_sim::engine::{Context, NodeId};
use regular_sim::time::SimDuration;
use regular_storage::codec::{Enc, Wire};
use regular_storage::wal::{RecoveredLog, Wal, WalStats};
use regular_storage::Durability;

/// A node's write-ahead log and the messages it holds back until the log
/// is synced.
pub struct DurableLog<M> {
    /// `None` under `Durability::InMemory`: every path passes through.
    wal: Option<Wal>,
    /// Outbound `(to, extra delay, message)`s held until the records they
    /// depend on are synced, in send order.
    held: Vec<(NodeId, SimDuration, M)>,
    /// Tag of the armed group-commit flush timer, if any.
    flush_timer: Option<u64>,
}

impl<M> DurableLog<M> {
    /// Opens the log of the node `name` under `durability`, with what a
    /// pre-existing log holds (a live-plane process restart replays it; a
    /// fresh simulation run starts from an empty device). `None` in memory.
    pub fn open(durability: &Durability, name: &str) -> (Self, Option<RecoveredLog>) {
        let (wal, recovered) = match durability {
            Durability::InMemory => (None, None),
            Durability::Wal(opts) => {
                let (wal, log) = Wal::open(opts, name);
                (Some(wal), Some(log))
            }
        };
        (DurableLog { wal, held: Vec::new(), flush_timer: None }, recovered)
    }

    /// Whether the node runs on a write-ahead log.
    pub fn is_durable(&self) -> bool {
        self.wal.is_some()
    }

    /// The log's counters (zeroes in memory).
    pub fn stats(&self) -> WalStats {
        self.wal.as_ref().map(Wal::stats).unwrap_or_default()
    }

    /// Whether outbound messages are held back for a sync.
    pub fn is_holding(&self) -> bool {
        !self.held.is_empty()
    }

    /// Whether the group-commit flush timer is armed.
    pub fn flush_armed(&self) -> bool {
        self.flush_timer.is_some()
    }

    /// Appends a durable state transition (no-op in memory). Out of line:
    /// inlined, the record encoder lands in every handler and the in-memory
    /// runs, which never take this branch, pay for its size.
    #[inline(never)]
    pub fn append<R: Wire>(&mut self, ctx: &Context<M>, rec: &R) {
        if let Some(wal) = self.wal.as_mut() {
            wal.append_with(ctx.now().as_micros(), |enc| rec.encode_into(enc));
        }
    }

    /// [`DurableLog::send_after`] with no extra delay.
    #[inline]
    pub fn send(&mut self, ctx: &mut Context<M>, to: NodeId, msg: M) {
        self.send_after(ctx, to, SimDuration::ZERO, msg);
    }

    /// Sends `msg` to `to` after `extra` delay, holding it back while the
    /// log has unsynced records or earlier messages are held.
    pub fn send_after(&mut self, ctx: &mut Context<M>, to: NodeId, extra: SimDuration, msg: M) {
        if self.wal.as_ref().is_some_and(Wal::wants_sync) || !self.held.is_empty() {
            self.held.push((to, extra, msg));
        } else {
            deliver(ctx, to, extra, msg);
        }
    }

    /// The end of a handler turn: write a checkpoint if one is due (`chunk`
    /// and `whole` encode its two parts), sync now (window 0 or expired) or
    /// arm the flush timer with a tag drawn from `next_tag`, and release the
    /// held messages once nothing is unsynced. Returns whether a checkpoint
    /// was written, so the node can drop what its chunk carried.
    #[inline]
    pub fn end_turn(
        &mut self,
        ctx: &mut Context<M>,
        next_tag: &mut u64,
        chunk: impl FnOnce(&mut Enc),
        whole: impl FnOnce(&mut Enc),
    ) -> bool {
        let Some(wal) = self.wal.as_mut() else {
            debug_assert!(self.held.is_empty());
            return false;
        };
        // A whole part that outgrew its area is skipped and counted, and a
        // sweep seed with any skip fails (`StorageSummary::skipped_checkpoints`);
        // the node then keeps its chunk for the next checkpoint.
        let wrote = wal.checkpoint_due() && wal.checkpoint_with(chunk, whole);
        self.sync_or_arm(ctx, next_tag);
        wrote
    }

    #[inline(never)]
    fn sync_or_arm(&mut self, ctx: &mut Context<M>, next_tag: &mut u64) {
        let wal = self.wal.as_mut().expect("only a durable turn syncs");
        let now = ctx.now().as_micros();
        if let Some(deadline) = wal.deadline_us() {
            if wal.group_commit_us() == 0 || deadline <= now {
                wal.sync();
            } else if self.flush_timer.is_none() {
                self.flush_timer = Some(*next_tag);
                ctx.set_timer(SimDuration::from_micros(deadline - now), *next_tag);
                *next_tag += 1;
            }
        }
        if !wal.wants_sync() {
            self.release(ctx);
        }
    }

    /// Handles timer `tag` if it is the armed flush timer: the group-commit
    /// window expired, so sync the log and release every held message.
    /// Returns whether it was.
    #[inline]
    pub fn on_timer(&mut self, ctx: &mut Context<M>, tag: u64) -> bool {
        if self.flush_timer != Some(tag) {
            return false;
        }
        self.flush_timer = None;
        if let Some(wal) = self.wal.as_mut() {
            wal.sync();
        }
        self.release(ctx);
        true
    }

    fn release(&mut self, ctx: &mut Context<M>) {
        for (to, extra, msg) in std::mem::take(&mut self.held) {
            deliver(ctx, to, extra, msg);
        }
    }

    /// The node crashed. On a log, the device applies its crash semantics
    /// to unsynced bytes (truncation, possibly a torn tail), and the held
    /// messages and the flush timer die with the machine; returns true, and
    /// the node wipes its volatile state to rebuild it from the log alone.
    /// In memory nothing is lost here; returns false.
    pub fn crash(&mut self) -> bool {
        let Some(wal) = self.wal.as_mut() else { return false };
        wal.on_crash();
        self.held.clear();
        self.flush_timer = None;
        true
    }

    /// The node recovers: on a log, rescans the device (repairing a torn
    /// tail) and returns chain, whole part and surviving records to replay.
    pub fn recover(&mut self) -> Option<RecoveredLog> {
        self.wal.as_mut().map(Wal::recover)
    }
}

fn deliver<M>(ctx: &mut Context<M>, to: NodeId, extra: SimDuration, msg: M) {
    if extra == SimDuration::ZERO {
        ctx.send(to, msg);
    } else {
        ctx.send_after(to, extra, msg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use regular_sim::engine::ContextParts;
    use regular_sim::time::SimTime;
    use regular_sim::TrueTime;
    use regular_storage::{StorageRegistry, WalOptions};

    /// What one handler turn sent and armed.
    #[derive(Default)]
    struct Turn {
        sent: Vec<(NodeId, SimDuration, &'static str)>,
        timers: Vec<(SimDuration, u64)>,
    }

    /// Runs `body` as one handler turn of node 0 at `now_us`.
    fn turn<R>(now_us: u64, body: impl FnOnce(&mut Context<&'static str>) -> R) -> (R, Turn) {
        let (mut rng, mut truetime) =
            (SmallRng::seed_from_u64(1), TrueTime::new(SimDuration::ZERO, 1));
        let mut out = Turn::default();
        let mut ctx = Context::from_parts(ContextParts {
            now: SimTime::from_micros(now_us),
            node_id: 0,
            rng: &mut rng,
            truetime: &mut truetime,
            outbox: &mut out.sent,
            timers: &mut out.timers,
        });
        (body(&mut ctx), out)
    }

    fn wal(group_commit_us: u64) -> (DurableLog<&'static str>, StorageRegistry) {
        let registry = StorageRegistry::new();
        let opts = WalOptions::mem(registry.clone()).with_group_commit_us(group_commit_us);
        let (log, recovered) = DurableLog::open(&Durability::Wal(opts), "node");
        assert!(recovered.is_some_and(|r| r.is_empty()));
        (log, registry)
    }

    /// Ends a turn with no checkpoint parts; returns the timer tag counter.
    fn end(log: &mut DurableLog<&'static str>, ctx: &mut Context<&'static str>) -> u64 {
        let mut next_tag = 7;
        assert!(!log.end_turn(ctx, &mut next_tag, |_| {}, |_| {}));
        next_tag
    }

    fn sent(out: &Turn) -> Vec<&'static str> {
        out.sent.iter().map(|&(_, _, m)| m).collect()
    }

    #[test]
    fn nothing_leaves_while_the_log_holds_unsynced_records() {
        let (mut log, _) = wal(200);
        let (next_tag, out) = turn(1_000, |ctx| {
            log.append(ctx, &1u64);
            log.send(ctx, 3, "ack");
            log.send_after(ctx, 4, SimDuration::from_micros(50), "vote");
            end(&mut log, ctx)
        });
        assert!(out.sent.is_empty(), "an ack left before its record was synced");
        assert!(log.is_holding());
        assert_eq!(out.timers, vec![(SimDuration::from_micros(200), 7)]);
        assert_eq!(next_tag, 8, "the flush timer's tag comes from the node's counter");
        assert!(log.flush_armed());
        assert_eq!(log.stats().syncs, 0);
    }

    #[test]
    fn held_messages_leave_in_fifo_order_on_flush_and_on_sync() {
        let (mut log, _) = wal(200);
        let (_, _) = turn(1_000, |ctx| {
            log.append(ctx, &1u64);
            log.send(ctx, 3, "a");
            end(&mut log, ctx);
        });
        // A later turn with nothing to log still queues behind what is held.
        let (_, out) = turn(1_100, |ctx| {
            log.send(ctx, 3, "b");
            end(&mut log, ctx);
        });
        assert!(out.sent.is_empty());
        assert!(!turn(1_150, |ctx| log.on_timer(ctx, 8)).0, "not the flush timer's tag");
        let (fired, out) = turn(1_200, |ctx| log.on_timer(ctx, 7));
        assert!(fired);
        assert_eq!(sent(&out), ["a", "b"]);
        assert!(!log.is_holding() && !log.flush_armed());
        assert_eq!(log.stats().syncs, 1);

        // A turn that ends past the oldest record's window syncs on the spot,
        // and its held message follows the earlier one out, delay kept.
        let (_, out) = turn(2_000, |ctx| {
            log.append(ctx, &2u64);
            log.send(ctx, 3, "c");
            end(&mut log, ctx);
        });
        assert!(out.sent.is_empty());
        let (_, out) = turn(2_300, |ctx| {
            log.send_after(ctx, 4, SimDuration::from_micros(50), "d");
            end(&mut log, ctx);
        });
        assert_eq!(
            out.sent,
            vec![(3, SimDuration::ZERO, "c"), (4, SimDuration::from_micros(50), "d")]
        );
        assert_eq!(log.stats().syncs, 2);
    }

    #[test]
    fn a_zero_window_releases_within_the_same_turn() {
        let (mut log, _) = wal(0);
        let (_, out) = turn(1_000, |ctx| {
            log.append(ctx, &1u64);
            log.send(ctx, 3, "a");
            log.append(ctx, &2u64);
            log.send(ctx, 4, "b");
            end(&mut log, ctx);
        });
        assert_eq!(sent(&out), ["a", "b"]);
        assert!(out.timers.is_empty());
        assert!(!log.is_holding() && !log.flush_armed());
        assert_eq!((log.stats().records, log.stats().syncs), (2, 1), "one sync for the turn");
    }

    #[test]
    fn a_crash_drops_held_messages_and_the_timer_and_recovery_returns_the_surviving_log() {
        let (mut log, _) = wal(200);
        let _ = turn(1_000, |ctx| {
            log.append(ctx, &1u64);
            end(&mut log, ctx);
        });
        let _ = turn(1_200, |ctx| log.on_timer(ctx, 7));
        let _ = turn(2_000, |ctx| {
            log.append(ctx, &2u64);
            log.send(ctx, 3, "lost");
            end(&mut log, ctx);
        });
        assert!(log.is_holding() && log.flush_armed());
        assert!(log.crash());
        assert!(!log.is_holding() && !log.flush_armed());
        let recovered = log.recover().expect("a durable node recovers a log");
        let (chunks, whole, records) = recovered.decode::<u64, u64, u64>("node", 1);
        assert!(chunks.is_empty() && whole.is_none());
        assert_eq!(records, vec![1], "the synced record survives, the unsynced one does not");
        // The flush timer armed before the crash fires later as a stale tag.
        let (fired, out) = turn(2_200, |ctx| log.on_timer(ctx, 7));
        assert!(!fired && out.sent.is_empty());
    }

    #[test]
    fn a_due_checkpoint_is_written_at_the_end_of_the_turn() {
        let registry = StorageRegistry::new();
        let opts = WalOptions::mem(registry).with_group_commit_us(0).with_checkpoint_every(2);
        let (mut log, _) = DurableLog::<&'static str>::open(&Durability::Wal(opts), "node");
        let (wrote, _) = turn(1_000, |ctx| {
            log.append(ctx, &1u64);
            log.append(ctx, &2u64);
            log.end_turn(ctx, &mut 0, |e| 5u64.encode_into(e), |e| (1u32, 9u64).encode_into(e))
        });
        assert!(wrote);
        assert_eq!(log.stats().checkpoints, 1);
        assert!(log.crash());
        let (chunks, whole, records) =
            log.recover().expect("durable").decode::<u64, u64, u64>("node", 1);
        assert_eq!((chunks, whole, records), (vec![5], Some(9), vec![]));
    }

    #[test]
    fn in_memory_passes_straight_through_and_never_holds() {
        let (mut log, recovered) = DurableLog::open(&Durability::InMemory, "node");
        assert!(recovered.is_none() && !log.is_durable());
        let (_, out) = turn(1_000, |ctx| {
            log.append(ctx, &1u64);
            log.send(ctx, 3, "a");
            log.send_after(ctx, 4, SimDuration::from_micros(50), "b");
            let mut next_tag = 7;
            let wrote = log.end_turn(ctx, &mut next_tag, |_| unreachable!(), |_| unreachable!());
            assert!(!wrote && next_tag == 7);
        });
        assert_eq!(
            out.sent,
            vec![(3, SimDuration::ZERO, "a"), (4, SimDuration::from_micros(50), "b")]
        );
        assert!(out.timers.is_empty());
        assert!(!log.is_holding() && !log.flush_armed());
        assert_eq!(log.stats(), WalStats::default());
        assert!(!log.crash());
        assert!(log.recover().is_none());
    }
}
