//! Wire messages of the simulated Spanner / Spanner-RSS protocols.

use regular_core::types::{Key, Value};
use regular_sim::engine::NodeId;
use regular_storage::wire_layout;

/// Timestamps used by the protocol (TrueTime-derived, in simulated
/// microseconds).
pub type Ts = u64;

/// A globally unique transaction identifier: (client node, per-client
/// sequence number). The sequence number is also used as the wound-wait
/// priority in configurations that enable it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TxnId {
    /// The client (load generator) node that issued the transaction.
    pub client: NodeId,
    /// Per-client sequence number.
    pub seq: u64,
}

wire_layout! { struct TxnId { client, seq } }

/// A prepared-but-uncommitted read-write transaction, as tracked by a shard
/// and reported to RSS read-only transactions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PreparedInfo {
    /// The transaction's identifier.
    pub txn: TxnId,
    /// Its prepare timestamp at this shard.
    pub t_prepare: Ts,
}

wire_layout! { struct PreparedInfo { txn, t_prepare } }

/// Messages exchanged between clients and shard leaders.
#[derive(Debug, Clone, PartialEq)]
pub enum SpannerMsg {
    // ----- Read-write transactions: execute phase -----
    /// Client reads the current values of `keys` at a shard (execute phase).
    ExecRead {
        /// Issuing transaction.
        txn: TxnId,
        /// Keys to read on this shard.
        keys: Vec<Key>,
    },
    /// Shard reply to [`SpannerMsg::ExecRead`].
    ExecReadReply {
        /// Issuing transaction.
        txn: TxnId,
        /// Values read.
        values: Vec<(Key, Value)>,
    },

    // ----- Read-write transactions: two-phase commit -----
    /// Client asks `coordinator` to commit the transaction; carries the full
    /// write set partitioned by shard and the client's earliest end time.
    CommitRequest {
        /// Issuing transaction.
        txn: TxnId,
        /// Write set per shard: `(shard node, writes)`.
        writes_by_shard: Vec<(NodeId, Vec<(Key, Value)>)>,
        /// Earliest possible client-side end time (Spanner-RSS only; ignored
        /// by the baseline).
        t_ee: Ts,
    },
    /// Coordinator asks a participant to prepare.
    Prepare {
        /// Transaction being prepared.
        txn: TxnId,
        /// Writes on the participant shard.
        writes: Vec<(Key, Value)>,
        /// Earliest possible client-side end time.
        t_ee: Ts,
        /// Coordinator shard node.
        coordinator: NodeId,
    },
    /// Participant has prepared (locks held, prepare record replicated).
    PrepareOk {
        /// Transaction.
        txn: TxnId,
        /// Responding participant.
        shard: NodeId,
        /// Chosen prepare timestamp.
        t_prepare: Ts,
    },
    /// Coordinator's decision, sent to participants.
    CommitDecision {
        /// Transaction.
        txn: TxnId,
        /// True to commit, false to abort.
        commit: bool,
        /// Commit timestamp (meaningful when `commit` is true).
        t_commit: Ts,
    },
    /// Client asks the coordinator for the outcome of a transaction it gave
    /// up on (2PC cooperative termination, used by fault runs): the
    /// coordinator answers from its durable decision log with a
    /// [`SpannerMsg::CommitReply`], tombstoning the transaction as aborted
    /// if it never heard of it.
    StatusRequest {
        /// Transaction whose outcome is unknown to the client.
        txn: TxnId,
    },
    /// Coordinator's reply to the client.
    CommitReply {
        /// Transaction.
        txn: TxnId,
        /// True if the transaction committed.
        commit: bool,
        /// Commit timestamp.
        t_commit: Ts,
    },
    /// Client-initiated abort (commit timeout); releases locks and any
    /// prepared state for the transaction.
    AbortRequest {
        /// Transaction to abort.
        txn: TxnId,
    },

    // ----- Read-only transactions -----
    /// Read-only transaction request (both variants). The strict policy
    /// ignores `t_min`.
    RoCommit {
        /// Issuing transaction.
        txn: TxnId,
        /// Keys to read on this shard.
        keys: Vec<Key>,
        /// Read timestamp (`TT.now().latest` at the client).
        t_read: Ts,
        /// Minimum read timestamp capturing the client's causal past.
        t_min: Ts,
    },
    /// Fast reply (Algorithm 2, line 10), sent once the must-observe set
    /// has resolved. Under strict Spanner it skips nothing.
    RoFastReply {
        /// Transaction.
        txn: TxnId,
        /// Responding shard.
        shard: NodeId,
        /// Conflicting transactions that were skipped: still prepared, with
        /// `t_p ≤ t_read`, not required by `t_min` or `t_ee`.
        skipped: Vec<PreparedInfo>,
        /// For each requested key, the latest version at or before `t_read`.
        values: Vec<(Key, Ts, Value)>,
    },
    /// Slow reply (Algorithm 2, lines 13-17): the outcome of one previously
    /// skipped transaction. Only Spanner-RSS skips, so only it sends these.
    RoSlowReply {
        /// The read-only transaction this reply belongs to.
        txn: TxnId,
        /// Responding shard.
        shard: NodeId,
        /// The skipped read-write transaction that has now resolved.
        resolved: TxnId,
        /// True if it committed.
        committed: bool,
        /// Its commit timestamp (when committed).
        t_commit: Ts,
        /// The values it wrote to the keys requested by the read-only
        /// transaction (when committed).
        values: Vec<(Key, Ts, Value)>,
    },
}

wire_layout! {
    enum SpannerMsg {
        0 => ExecRead { txn, keys },
        1 => ExecReadReply { txn, values },
        2 => CommitRequest { txn, writes_by_shard, t_ee },
        3 => Prepare { txn, writes, t_ee, coordinator },
        4 => PrepareOk { txn, shard, t_prepare },
        5 => CommitDecision { txn, commit, t_commit },
        6 => StatusRequest { txn },
        7 => CommitReply { txn, commit, t_commit },
        8 => AbortRequest { txn },
        9 => RoCommit { txn, keys, t_read, t_min },
        // Tag 10 was strict Spanner's read-only reply; it is not reused.
        11 => RoFastReply { txn, shard, skipped, values },
        12 => RoSlowReply { txn, shard, resolved, committed, t_commit, values },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use regular_storage::codec::check_layout;

    fn txn(client: NodeId, seq: u64) -> TxnId {
        TxnId { client, seq }
    }

    #[test]
    fn every_variant_keeps_its_bytes() {
        check_layout(
            SpannerMsg::TAGS,
            &[
                (SpannerMsg::ExecRead { txn: txn(7, 42), keys: vec![Key(1), Key(2)] }, "0007000000000000002a000000000000000200000001000000000000000200000000000000"),
                (SpannerMsg::ExecReadReply { txn: txn(7, 42), values: vec![(Key(1), Value(10))] }, "0107000000000000002a000000000000000100000001000000000000000a00000000000000"),
                (
                    SpannerMsg::CommitRequest {
                        txn: txn(7, 42),
                        writes_by_shard: vec![(0, vec![(Key(1), Value(2))]), (1, vec![])],
                        t_ee: 12345,
                    },
                    "0207000000000000002a0000000000000002000000000000000000000001000000010000000000000002000000000000000100000000000000000000003930000000000000",
                ),
                (
                    SpannerMsg::Prepare {
                        txn: txn(7, 42),
                        writes: vec![(Key(1), Value(2))],
                        t_ee: 12345,
                        coordinator: 2,
                    },
                    "0307000000000000002a00000000000000010000000100000000000000020000000000000039300000000000000200000000000000",
                ),
                (SpannerMsg::PrepareOk { txn: txn(7, 42), shard: 1, t_prepare: 1200 }, "0407000000000000002a000000000000000100000000000000b004000000000000"),
                (SpannerMsg::CommitDecision { txn: txn(7, 42), commit: true, t_commit: 1500 }, "0507000000000000002a0000000000000001dc05000000000000"),
                (SpannerMsg::StatusRequest { txn: txn(0, 0) }, "0600000000000000000000000000000000"),
                (SpannerMsg::CommitReply { txn: txn(7, 43), commit: false, t_commit: 0 }, "0707000000000000002b00000000000000000000000000000000"),
                (SpannerMsg::AbortRequest { txn: txn(1, 2) }, "0801000000000000000200000000000000"),
                (SpannerMsg::RoCommit { txn: txn(3, 9), keys: vec![Key(5)], t_read: 900, t_min: 850 }, "090300000000000000090000000000000001000000050000000000000084030000000000005203000000000000"),
                (
                    SpannerMsg::RoFastReply {
                        txn: txn(3, 9),
                        shard: 2,
                        skipped: vec![PreparedInfo { txn: txn(1, 1), t_prepare: 77 }],
                        values: vec![(Key(5), 88, Value(6))],
                    },
                    "0b03000000000000000900000000000000020000000000000001000000010000000000000001000000000000004d0000000000000001000000050000000000000058000000000000000600000000000000",
                ),
                (
                    SpannerMsg::RoSlowReply {
                        txn: txn(3, 9),
                        shard: 2,
                        resolved: txn(1, 1),
                        committed: true,
                        t_commit: 91,
                        values: vec![(Key(5), 91, Value(7))],
                    },
                    "0c03000000000000000900000000000000020000000000000001000000000000000100000000000000015b000000000000000100000005000000000000005b000000000000000700000000000000",
                ),
            ],
        );
    }

    #[test]
    fn txn_id_ordering_is_by_client_then_seq() {
        let a = TxnId { client: 1, seq: 5 };
        let b = TxnId { client: 1, seq: 6 };
        let c = TxnId { client: 2, seq: 0 };
        assert!(a < b);
        assert!(b < c);
        assert_eq!(a, TxnId { client: 1, seq: 5 });
    }

    #[test]
    fn messages_are_cloneable() {
        let m = SpannerMsg::RoCommit {
            txn: TxnId { client: 3, seq: 1 },
            keys: vec![Key(1), Key(2)],
            t_read: 100,
            t_min: 50,
        };
        let m2 = m.clone();
        match m2 {
            SpannerMsg::RoCommit { keys, t_read, .. } => {
                assert_eq!(keys.len(), 2);
                assert_eq!(t_read, 100);
            }
            _ => panic!("clone changed the variant"),
        }
    }
}
