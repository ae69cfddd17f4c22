//! Control frames and frame IO for the socket transports.
//!
//! The socket backends ([`crate::net`]) move protocol messages between OS
//! processes. Everything that crosses a connection is a [`Frame`] encoded
//! through [`Wire`] — the protocol crates declare their messages' layouts,
//! this module only the control envelope around them — inside the same
//! `[len][crc32]` frame as a write-ahead-log record (`regular_storage::codec`
//! holds the codec, its layout rules and the frame header).
//!
//! Decoding never panics. A truncated buffer yields `None` from [`Wire`]
//! decoders; a torn or corrupted frame yields an `io::Error` from
//! [`read_frame`] (`UnexpectedEof` for a clean cut at a frame boundary or
//! inside one, `InvalidData` for a CRC mismatch or an absurd length). The
//! framing proptests in `crates/live/tests/wire_torn.rs` pin both
//! properties: every prefix of a valid stream decodes the intact frames and
//! then fails cleanly, and no mutation of the bytes is ever accepted with a
//! different payload.

use std::io::{self, Read, Write};

use regular_session::CompletedRecord;
use regular_storage::codec::{frame_header, frame_len, frame_matches, FRAME_HEADER};
pub use regular_storage::codec::{Wire, MAX_FRAME_LEN};
use regular_storage::wire_layout;

/// One frame of the hub/worker control protocol.
///
/// Everything a socket connection ever carries is one of these, inside a
/// `[len][crc]` frame. `Hello`/`Welcome` form the handshake; `Event` flows
/// hub → worker (router deliveries and power events); `Out`, `Completion`,
/// and `NodeDone` flow worker → hub.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame<M> {
    /// Worker → hub, first frame on a connection: which nodes this worker
    /// process hosts.
    Hello {
        /// Worker index (0-based).
        worker: u64,
        /// Node ids hosted by this worker.
        nodes: Vec<u64>,
    },
    /// Hub → worker handshake reply: the shared clock anchor. Every process
    /// reconstructs the same simulated-time epoch from the wall clock (see
    /// [`crate::clock::LiveClock::from_unix_anchor`]).
    Welcome {
        /// `SystemTime` of simulated time zero, as nanoseconds since the
        /// UNIX epoch.
        epoch_unix_nanos: u64,
        /// Simulated microseconds per wall microsecond.
        time_scale: u64,
    },
    /// Hub → worker: a mailbox event for one hosted node.
    Event {
        /// Destination node.
        to: u64,
        /// The event.
        ev: WireEvent<M>,
    },
    /// Worker → hub: a node sent a message; the router applies network and
    /// fault verdicts exactly as it does for in-process senders.
    Out {
        /// Sending node.
        from: u64,
        /// Destination node.
        to: u64,
        /// Extra delay on top of network latency (`Context::send_after`).
        extra_us: u64,
        /// The message.
        msg: M,
    },
    /// Worker → hub: a session completed an operation (streams into online
    /// certification at the hub).
    Completion {
        /// The node whose session completed.
        node: u64,
        /// Service stream on multi-service nodes (0 otherwise).
        stream: u64,
        /// The completion record.
        rec: CompletedRecord,
    },
    /// Worker → hub, once per hosted node after its thread exits: the
    /// node's expired-delivery count (messages that arrived while crashed).
    NodeDone {
        /// The node.
        node: u64,
        /// Deliveries that expired at this node.
        expired: u64,
    },
}

/// The mailbox event kinds that cross a connection (the wire form of
/// [`crate::transport::LiveEvent`]).
#[derive(Debug, Clone, PartialEq)]
pub enum WireEvent<M> {
    /// Run `on_start`.
    Start,
    /// A message delivery.
    Msg {
        /// Sending node.
        from: u64,
        /// The message.
        msg: M,
    },
    /// Scripted crash.
    Crash,
    /// Recovery from a scripted crash.
    Recover,
    /// End of run.
    Stop,
}

wire_layout! {
    enum WireEvent<M> {
        0 => Start,
        1 => Msg { from, msg },
        2 => Crash,
        3 => Recover,
        4 => Stop,
    }
}

wire_layout! {
    enum Frame<M> {
        0 => Hello { worker, nodes },
        1 => Welcome { epoch_unix_nanos, time_scale },
        2 => Event { to, ev },
        3 => Out { from, to, extra_us, msg },
        4 => Completion { node, stream, rec },
        5 => NodeDone { node, expired },
    }
}

/// Writes one frame around `payload` (the WAL frame shape on a byte
/// stream). Does not flush.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    w.write_all(&frame_header(payload))?;
    w.write_all(payload)
}

/// Reads one frame's payload into `buf` (replacing its contents).
///
/// Errors: `UnexpectedEof` when the stream ends (at a frame boundary or
/// inside a frame — a torn read), `InvalidData` when the length prefix is
/// absurd or the CRC does not match (a corrupted frame).
pub fn read_frame(r: &mut impl Read, buf: &mut Vec<u8>) -> io::Result<()> {
    let mut header = [0u8; FRAME_HEADER];
    r.read_exact(&mut header)?;
    let len = frame_len(&header).ok_or_else(|| {
        let bound = format!("frame length exceeds the {MAX_FRAME_LEN}-byte bound");
        io::Error::new(io::ErrorKind::InvalidData, bound)
    })?;
    buf.clear();
    buf.resize(len, 0);
    r.read_exact(buf)?;
    if !frame_matches(&header, buf) {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "frame CRC mismatch"));
    }
    Ok(())
}

/// Encodes `frame` and writes it as one wire frame. Does not flush.
pub fn write_wire_frame<M: Wire>(w: &mut impl Write, frame: &Frame<M>) -> io::Result<()> {
    write_frame(w, &frame.to_bytes())
}

/// Reads and decodes one wire frame, using `buf` as scratch.
pub fn read_wire_frame<M: Wire>(r: &mut impl Read, buf: &mut Vec<u8>) -> io::Result<Frame<M>> {
    read_frame(r, buf)?;
    Frame::from_bytes(buf)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "undecodable frame payload"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use regular_core::op::{OpKind, OpResult};
    use regular_core::types::{Key, ServiceId, Value};
    use regular_session::WitnessHint;
    use regular_sim::SimTime;
    use regular_spanner::durable::ShardRecord;
    use regular_spanner::messages::{SpannerMsg, TxnId};
    use regular_storage::codec::check_layout;

    #[test]
    fn every_variant_keeps_its_bytes() {
        check_layout(
            WireEvent::<u64>::TAGS,
            &[
                (WireEvent::<u64>::Start, "00"),
                (WireEvent::Msg { from: 1, msg: 99 }, "0101000000000000006300000000000000"),
                (WireEvent::Crash, "02"),
                (WireEvent::Recover, "03"),
                (WireEvent::Stop, "04"),
            ],
        );
        check_layout(
            Frame::<SpannerMsg>::TAGS,
            &[
                (Frame::<SpannerMsg>::Hello { worker: 1, nodes: vec![0, 2, 4] }, "00010000000000000003000000000000000000000002000000000000000400000000000000"),
                (Frame::Welcome { epoch_unix_nanos: 1_700_000, time_scale: 40 }, "01a0f01900000000002800000000000000"),
                (
                    Frame::Event {
                        to: 2,
                        ev: WireEvent::Msg {
                            from: 1,
                            msg: SpannerMsg::AbortRequest { txn: TxnId { client: 1, seq: 2 } },
                        },
                    },
                    "0202000000000000000101000000000000000801000000000000000200000000000000",
                ),
                (
                    Frame::Out {
                        from: 3,
                        to: 0,
                        extra_us: 250,
                        msg: SpannerMsg::StatusRequest { txn: TxnId { client: 3, seq: 8 } },
                    },
                    "0303000000000000000000000000000000fa000000000000000603000000000000000800000000000000",
                ),
                (
                    Frame::Completion {
                        node: 3,
                        stream: 0,
                        rec: CompletedRecord {
                            service: ServiceId(1),
                            kind: OpKind::RwTxn { read_keys: Box::new([Key(1)]), writes: vec![(Key(2), Value(3))] },
                            result: OpResult::Values(vec![(Key(1), Value(9))]),
                            invoke: SimTime::from_micros(10),
                            finish: SimTime::from_micros(30),
                            session: 4,
                            slot: 1,
                            attempts: 2,
                            rounds: 3,
                            orphan: false,
                            witness: WitnessHint::Timestamp { ts: 25 },
                        },
                    },
                    "0403000000000000000000000000000000010000000401000000010000000000000001000000020000000000000003000000000000000101000000010000000000000009000000000000000a000000000000001e00000000000000040000000000000001000000020000000300011900000000000000",
                ),
                (Frame::NodeDone { node: 1, expired: 7 }, "0501000000000000000700000000000000"),
            ],
        );
    }

    #[test]
    fn frame_io_round_trips_and_rejects_corruption() {
        let mut stream = Vec::new();
        let frames = [
            Frame::<SpannerMsg>::Hello { worker: 0, nodes: vec![1] },
            Frame::Event { to: 1, ev: WireEvent::Start },
        ];
        for f in &frames {
            write_wire_frame(&mut stream, f).unwrap();
        }
        let mut r = &stream[..];
        let mut buf = Vec::new();
        for f in &frames {
            assert_eq!(&read_wire_frame::<SpannerMsg>(&mut r, &mut buf).unwrap(), f);
        }
        assert_eq!(
            read_wire_frame::<SpannerMsg>(&mut r, &mut buf).unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
        // Flip one payload byte: CRC must reject it.
        let mut corrupt = stream.clone();
        let last = corrupt.len() - 1;
        corrupt[last] ^= 0x01;
        let mut r = &corrupt[..];
        assert!(read_wire_frame::<SpannerMsg>(&mut r, &mut buf).is_ok());
        assert_eq!(
            read_wire_frame::<SpannerMsg>(&mut r, &mut buf).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
    }

    #[test]
    fn hostile_lengths_are_rejected_without_allocation() {
        // A count beyond the buffer is rejected: on the wire, and — the
        // same rule, since it is the same code — in a WAL record (snapshots:
        // the `durable.rs` tests, which can reach them).
        let hostile = u32::MAX.to_bytes();
        assert_eq!(Vec::<u64>::from_bytes(&hostile), None);
        let txn = TxnId { client: 1, seq: 1 }.to_bytes();
        let prepare = [&[1u8][..], &txn, &[0; 24], &hostile].concat();
        assert_eq!(ShardRecord::decode(&prepare), None);
        // A frame length prefix beyond the bound is InvalidData.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&(u32::MAX).to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        let mut r = &bytes[..];
        let mut buf = Vec::new();
        assert_eq!(read_frame(&mut r, &mut buf).unwrap_err().kind(), io::ErrorKind::InvalidData);
    }
}
