//! Wire messages of the simulated Gryff / Gryff-RSC protocols.

use regular_core::types::{Key, Value};
use regular_sim::engine::NodeId;
use regular_storage::wire_layout;

use crate::carstamp::Carstamp;

/// Identifier of an operation: the issuing node (client, or rmw coordinator
/// for its internal phases) and a per-node sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OpRef {
    /// Issuing node.
    pub node: NodeId,
    /// Per-node sequence number.
    pub seq: u64,
}

wire_layout! { struct OpRef { node, seq } }

/// A read observation that still needs to reach a quorum: the causal
/// dependency Gryff-RSC piggybacks on the client's next operation
/// (Algorithms 3–5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dep {
    /// Key of the observed value.
    pub key: Key,
    /// The observed value.
    pub value: Value,
    /// Its carstamp.
    pub cs: Carstamp,
}

wire_layout! { struct Dep { key, value, cs } }

/// Messages exchanged between clients and replicas (and among replicas for
/// read-modify-writes).
#[derive(Debug, Clone, PartialEq)]
pub enum GryffMsg {
    /// Read phase of a client read.
    Read1 {
        /// Operation reference.
        op: OpRef,
        /// Key being read.
        key: Key,
        /// Piggybacked dependency (Gryff-RSC only).
        dep: Option<Dep>,
    },
    /// Reply to [`GryffMsg::Read1`].
    Read1Reply {
        /// Operation reference.
        op: OpRef,
        /// Current value at the replica.
        value: Value,
        /// Its carstamp.
        cs: Carstamp,
    },
    /// First phase of a write: collect carstamps.
    Write1 {
        /// Operation reference.
        op: OpRef,
        /// Key being written.
        key: Key,
        /// Piggybacked dependency (Gryff-RSC only).
        dep: Option<Dep>,
    },
    /// Reply to [`GryffMsg::Write1`].
    Write1Reply {
        /// Operation reference.
        op: OpRef,
        /// The replica's current carstamp for the key.
        cs: Carstamp,
    },
    /// Second phase of a write (also used for the baseline read's write-back
    /// phase and for real-time fences): propagate a value and carstamp.
    Write2 {
        /// Operation reference.
        op: OpRef,
        /// Key being written.
        key: Key,
        /// Value to install.
        value: Value,
        /// Carstamp to install it at.
        cs: Carstamp,
    },
    /// Reply to [`GryffMsg::Write2`].
    Write2Reply {
        /// Operation reference.
        op: OpRef,
    },
    /// Client-to-coordinator read-modify-write request. The new value is
    /// chosen by the client (kept opaque here); the reply carries the prior
    /// value.
    Rmw {
        /// Operation reference (client side).
        op: OpRef,
        /// Key to modify.
        key: Key,
        /// New value to install.
        new_value: Value,
        /// Piggybacked dependency (Gryff-RSC only).
        dep: Option<Dep>,
    },
    /// Coordinator-to-client reply for a read-modify-write.
    RmwReply {
        /// Operation reference (client side).
        op: OpRef,
        /// The value the modification was applied to.
        old_value: Value,
        /// Carstamp of the installed new value.
        cs: Carstamp,
    },
}

// Each tag is the message's coverage class (`GryffMsg::class`).
wire_layout! {
    enum GryffMsg {
        0 => Read1 { op, key, dep },
        1 => Read1Reply { op, value, cs },
        2 => Write1 { op, key, dep },
        3 => Write1Reply { op, cs },
        4 => Write2 { op, key, value, cs },
        5 => Write2Reply { op },
        6 => Rmw { op, key, new_value, dep },
        7 => RmwReply { op, old_value, cs },
    }
}

impl GryffMsg {
    /// A stable small integer naming the message type, used as the message
    /// class of behaviour-coverage features
    /// (see `regular_sim::engine::Engine::install_coverage`).
    pub fn class(&self) -> u16 {
        match self {
            GryffMsg::Read1 { .. } => 0,
            GryffMsg::Read1Reply { .. } => 1,
            GryffMsg::Write1 { .. } => 2,
            GryffMsg::Write1Reply { .. } => 3,
            GryffMsg::Write2 { .. } => 4,
            GryffMsg::Write2Reply { .. } => 5,
            GryffMsg::Rmw { .. } => 6,
            GryffMsg::RmwReply { .. } => 7,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use regular_storage::codec::{check_layout, Wire};

    fn op(node: NodeId, seq: u64) -> OpRef {
        OpRef { node, seq }
    }

    fn cs(count: u64, writer: u64, rmwc: u64) -> Carstamp {
        Carstamp { count, writer, rmwc }
    }

    #[test]
    fn every_variant_keeps_its_bytes() {
        let samples = [
            (
                GryffMsg::Read1 {
                    op: op(5, 6),
                    key: Key(7),
                    dep: Some(Dep { key: Key(7), value: Value(8), cs: cs(4, 2, 1) }),
                },
                "000500000000000000060000000000000007000000000000000107000000000000000800000000000000040000000000000002000000000000000100000000000000",
            ),
            (GryffMsg::Read1Reply { op: op(5, 6), value: Value(8), cs: cs(4, 2, 1) }, "01050000000000000006000000000000000800000000000000040000000000000002000000000000000100000000000000"),
            (GryffMsg::Write1 { op: op(1, 2), key: Key(3), dep: None }, "0201000000000000000200000000000000030000000000000000"),
            (GryffMsg::Write1Reply { op: op(1, 2), cs: cs(4, 2, 0) }, "0301000000000000000200000000000000040000000000000002000000000000000000000000000000"),
            (GryffMsg::Write2 { op: op(1, 2), key: Key(3), value: Value(9), cs: cs(5, 1, 0) }, "040100000000000000020000000000000003000000000000000900000000000000050000000000000001000000000000000000000000000000"),
            (GryffMsg::Write2Reply { op: op(1, 2) }, "0501000000000000000200000000000000"),
            (GryffMsg::Rmw { op: op(9, 10), key: Key(3), new_value: Value(12), dep: None }, "0609000000000000000a0000000000000003000000000000000c0000000000000000"),
            (GryffMsg::RmwReply { op: op(9, 10), old_value: Value(11), cs: cs(4, 2, 1) }, "0709000000000000000a000000000000000b00000000000000040000000000000002000000000000000100000000000000"),
        ];
        check_layout(GryffMsg::TAGS, &samples);
        for (msg, _) in &samples {
            assert_eq!(u16::from(msg.to_bytes()[0]), msg.class(), "tag is the class: {msg:?}");
        }
    }

    #[test]
    fn op_ref_identity() {
        let a = OpRef { node: 1, seq: 2 };
        let b = OpRef { node: 1, seq: 2 };
        let c = OpRef { node: 1, seq: 3 };
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn messages_clone() {
        let m = GryffMsg::Read1 {
            op: OpRef { node: 3, seq: 1 },
            key: Key(4),
            dep: Some(Dep {
                key: Key(4),
                value: Value(9),
                cs: Carstamp { count: 2, writer: 1, rmwc: 0 },
            }),
        };
        match m.clone() {
            GryffMsg::Read1 { dep: Some(d), .. } => assert_eq!(d.value, Value(9)),
            _ => panic!("clone changed the variant"),
        }
    }
}
