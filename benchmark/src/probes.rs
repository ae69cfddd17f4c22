//! Small fixed-work probes of the layers' public types.
//!
//! The unit counters say how much work a layer did; these say what one piece
//! of that work costs on this host: an event through the queue, a lock
//! acquire/release, a WAL append on each device, an fsync, a recovery scan, a
//! checkpoint, a record or frame through the codec, a generated transaction.
//! Each probe is a tight loop over a public type with a fixed iteration
//! count, timed as a whole; results pass through `black_box` so the work is
//! not optimised away. They are workload-independent and run once per traced
//! run, each group under its own `probe.<layer>` span.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use regular_core::types::{Key, Value};
use regular_gryff::prelude::{Carstamp, Dep, GryffMsg, OpRef};
use regular_live::wire::Frame;
use regular_live::Wire;
use regular_sim::{QueueKind, SimQueue, SimTime};
use regular_spanner::durable::ShardRecord;
use regular_spanner::locks::LockTable;
use regular_spanner::prelude::{SpannerMsg, TxnId};
use regular_storage::{StorageRegistry, Wal, WalOptions};
use regular_workloads::{Retwis, Zipf};

use crate::trace::Tracer;

/// How much work the probes do: `1.0` for a traced run, less for `--smoke`.
#[derive(Debug, Clone, Copy)]
pub struct Scale(pub f64);

impl Scale {
    fn iters(self, full: u64) -> u64 {
        ((full as f64 * self.0) as u64).max(16)
    }
}

fn ns_per(iters: u64, started: Instant) -> f64 {
    started.elapsed().as_secs_f64() * 1e9 / iters as f64
}

/// Runs every probe, appending `(metric name, value, iterations)` rows.
///
/// `scratch` is a directory the file-backed WAL probes may create, fill and
/// remove.
pub fn run_all(
    seed: u64,
    scale: Scale,
    scratch: &Path,
    tracer: &mut Tracer,
    out: &mut Vec<(&'static str, f64, u64)>,
) {
    let span = tracer.enter("probe.sim");
    queue_churn(seed, scale, out);
    tracer.exit(span);

    let span = tracer.enter("probe.spanner");
    locks(seed, scale, out);
    tracer.exit(span);

    let span = tracer.enter("probe.storage");
    codec(scale, out);
    wal_mem(scale, out);
    wal_dir(scale, scratch, out);
    tracer.exit(span);

    let span = tracer.enter("probe.live");
    let names = [
        "live.wire.encode_ns_per_frame.spanner",
        "live.wire.decode_ns_per_frame.spanner",
        "live.wire.bytes_per_frame.spanner",
    ];
    wire(names, &spanner_frame(), scale, out);
    let names = [
        "live.wire.encode_ns_per_frame.gryff",
        "live.wire.decode_ns_per_frame.gryff",
        "live.wire.bytes_per_frame.gryff",
    ];
    wire(names, &gryff_frame(), scale, out);
    tracer.exit(span);

    let span = tracer.enter("probe.workloads");
    generators(seed, scale, out);
    tracer.exit(span);
}

/// Event-queue churn: keep 4 096 events pending, then pop one and schedule
/// one, the engine's steady state.
fn queue_churn(seed: u64, scale: Scale, out: &mut Vec<(&'static str, f64, u64)>) {
    let n = scale.iters(1_000_000);
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut q: SimQueue<u64> = SimQueue::new(QueueKind::Indexed);
    let mut push = |q: &mut SimQueue<u64>, now: u64, payload: u64| {
        let id = q.alloc(payload);
        q.schedule(SimTime::from_micros(now + rng.gen_range(1..2_000u64)), id, 0, false);
    };
    for i in 0..4_096 {
        push(&mut q, 0, i);
    }
    let started = Instant::now();
    for _ in 0..n {
        let (at, payload) = q.pop().expect("the queue never drains");
        push(&mut q, at.as_micros(), black_box(payload));
    }
    out.push(("sim.queue.churn_ns_per_event", ns_per(n, started), n));
}

/// Lock table: acquire three uncontended keys, release them.
fn locks(seed: u64, scale: Scale, out: &mut Vec<(&'static str, f64, u64)>) {
    let n = scale.iters(400_000);
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut table = LockTable::new();
    let started = Instant::now();
    for seq in 0..n {
        let txn = TxnId { client: 9, seq };
        let base = rng.gen_range(0..1_000_000u64);
        let keys = [Key(base), Key(base + 1), Key(base + 2)];
        black_box(table.acquire(txn, &keys));
        black_box(table.release(txn));
    }
    out.push(("spanner.locks.acquire_release_ns", ns_per(n, started), n));
}

/// The most common durable record: a prepare carrying three writes.
fn prepare_record(seq: u64) -> ShardRecord {
    ShardRecord::Prepare {
        txn: TxnId { client: 9, seq },
        t_prepare: 1_000_000 + seq,
        t_ee: 1_000_100 + seq,
        coordinator: 2,
        writes: (0..3).map(|i| (Key(seq * 3 + i), Value(seq << 8 | i))).collect(),
    }
}

fn codec(scale: Scale, out: &mut Vec<(&'static str, f64, u64)>) {
    let n = scale.iters(500_000);
    let records: Vec<ShardRecord> = (0..256).map(prepare_record).collect();
    let started = Instant::now();
    for i in 0..n {
        black_box(records[(i % 256) as usize].encode());
    }
    out.push(("storage.codec.enc_ns_per_record", ns_per(n, started), n));

    let encoded: Vec<Vec<u8>> = records.iter().map(ShardRecord::encode).collect();
    let started = Instant::now();
    for i in 0..n {
        black_box(ShardRecord::decode(&encoded[(i % 256) as usize]).expect("decodes"));
    }
    out.push(("storage.codec.dec_ns_per_record", ns_per(n, started), n));
}

/// Appends `n` records on a simulated clock (one per 20 µs), syncing when the
/// group-commit deadline expires — the discipline the protocol nodes follow.
/// Returns seconds spent appending and seconds spent inside `sync`.
fn append_stream(wal: &mut Wal, n: u64) -> (f64, f64) {
    let payloads: Vec<Vec<u8>> = (0..256).map(|s| prepare_record(s).encode()).collect();
    let mut sync_s = 0.0;
    let started = Instant::now();
    for seq in 0..n {
        let now_us = seq * 20;
        wal.append(&payloads[(seq % 256) as usize], now_us);
        if wal.wants_sync() && wal.deadline_us().is_none_or(|d| d <= now_us) {
            let t = Instant::now();
            wal.sync();
            sync_s += t.elapsed().as_secs_f64();
        }
    }
    if wal.wants_sync() {
        let t = Instant::now();
        wal.sync();
        sync_s += t.elapsed().as_secs_f64();
    }
    (started.elapsed().as_secs_f64(), sync_s)
}

fn wal_mem(scale: Scale, out: &mut Vec<(&'static str, f64, u64)>) {
    // Append path, no checkpoints, the workload's group-commit window.
    let n = scale.iters(200_000);
    let opts =
        WalOptions::mem(StorageRegistry::new()).with_group_commit_us(200).with_checkpoint_every(0);
    let (mut wal, _) = Wal::open(&opts, "probe-append");
    let (total_s, _) = append_stream(&mut wal, n);
    out.push(("storage.wal.append_ns_per_record.mem", total_s * 1e9 / n as f64, n));

    // Recovery scan of 10 000 records after a crash.
    let (mut wal, _) = Wal::open(&opts, "probe-recover");
    append_stream(&mut wal, 10_000);
    wal.on_crash();
    let started = Instant::now();
    let log = wal.recover();
    let recover_ms = started.elapsed().as_secs_f64() * 1e3;
    assert_eq!(log.records.len(), 10_000, "every synced record survives the crash");
    out.push(("storage.wal.recover_ms_per_10k", recover_ms, 10_000));

    // Checkpoints of a 64 KiB snapshot through the buffer pool.
    let rounds = scale.iters(200);
    let snapshot = vec![0xA5u8; 64 * 1024];
    let (mut wal, _) = Wal::open(&opts, "probe-checkpoint");
    let started = Instant::now();
    for _ in 0..rounds {
        assert!(wal.checkpoint(black_box(&snapshot)), "a 64 KiB snapshot fits its area");
    }
    let us_per_kb = started.elapsed().as_secs_f64() * 1e6 / (rounds * 64) as f64;
    out.push(("storage.pool.checkpoint_us_per_kb", us_per_kb, rounds));
}

/// The same append stream on real files with real `fsync`s. The sandbox's
/// page cache makes these the sandbox's numbers, not a device's.
fn wal_dir(scale: Scale, scratch: &Path, out: &mut Vec<(&'static str, f64, u64)>) {
    let n = scale.iters(2_000);
    let _ = std::fs::remove_dir_all(scratch);
    let opts = WalOptions::dir(scratch).with_group_commit_us(200).with_checkpoint_every(0);
    let (mut wal, _) = Wal::open(&opts, "probe-append");
    let (total_s, sync_s) = append_stream(&mut wal, n);
    let syncs = wal.stats().syncs.max(1);
    drop(wal);
    let _ = std::fs::remove_dir_all(scratch);
    out.push(("storage.wal.append_ns_per_record.dir", (total_s - sync_s) * 1e9 / n as f64, n));
    out.push(("storage.wal.sync_us.dir", sync_s * 1e6 / syncs as f64, syncs));
}

fn spanner_frame() -> Frame<SpannerMsg> {
    Frame::Out {
        from: 3,
        to: 1,
        extra_us: 0,
        msg: SpannerMsg::Prepare {
            txn: TxnId { client: 3, seq: 77 },
            writes: (0..3).map(|i| (Key(1_000 + i), Value(77 << 8 | i))).collect(),
            t_ee: 1_000_100,
            coordinator: 0,
        },
    }
}

fn gryff_frame() -> Frame<GryffMsg> {
    let cs = Carstamp { count: 12, writer: 3, rmwc: 0 };
    Frame::Out {
        from: 7,
        to: 2,
        extra_us: 0,
        msg: GryffMsg::Write1 {
            op: OpRef { node: 7, seq: 77 },
            key: Key(1_000),
            dep: Some(Dep { key: Key(999), value: Value(5), cs }),
        },
    }
}

/// One protocol message inside the hub/worker control frame, through the
/// wire codec both ways, reported under the three given metric names
/// (encode, decode, bytes). Bytes include the 8-byte frame header.
fn wire<M: Wire + PartialEq + std::fmt::Debug>(
    [enc, dec, bytes]: [&'static str; 3],
    frame: &Frame<M>,
    scale: Scale,
    out: &mut Vec<(&'static str, f64, u64)>,
) {
    let n = scale.iters(500_000);
    let started = Instant::now();
    for _ in 0..n {
        black_box(black_box(frame).to_bytes());
    }
    out.push((enc, ns_per(n, started), n));

    let encoded = frame.to_bytes();
    let started = Instant::now();
    for _ in 0..n {
        black_box(Frame::<M>::from_bytes(black_box(&encoded)).expect("decodes"));
    }
    out.push((dec, ns_per(n, started), n));
    assert_eq!(Frame::<M>::from_bytes(&encoded).as_ref(), Some(frame), "round trip");
    out.push((bytes, (encoded.len() + 8) as f64, 1));
}

fn generators(seed: u64, scale: Scale, out: &mut Vec<(&'static str, f64, u64)>) {
    let n = scale.iters(20_000);
    let started = Instant::now();
    for i in 0..n {
        black_box(Zipf::new(black_box(400_000 + i % 2), 0.9));
    }
    out.push(("workloads.zipf.build_ms", started.elapsed().as_secs_f64() * 1e3 / n as f64, n));

    let n = scale.iters(400_000);
    let retwis = Retwis::new(400_000, 0.9);
    let mut rng = SmallRng::seed_from_u64(seed);
    let started = Instant::now();
    for _ in 0..n {
        black_box(retwis.next_txn(&mut rng));
    }
    out.push(("workloads.retwis.gen_ns_per_txn", ns_per(n, started), n));
}
