//! IO profile of the durable storage layer: group-commit batch size versus
//! write throughput, on both storage devices, with recovery verified after
//! every run.
//!
//! For each backend (the deterministic in-process `MemDisk` and real files
//! via `DirDisk` under `target/storage-profile`) and each group-commit
//! window, the profile appends a fixed stream of self-describing records on
//! a simulated clock (one record per `ARRIVAL_US`), syncing exactly when the
//! WAL's group-commit deadline expires — the same discipline the protocol
//! nodes use. It then crashes the log and replays it, verifying every
//! recovered record byte-for-byte against the stream.
//!
//! Because the sync schedule is driven by the *simulated* clock, `records`,
//! `syncs`, `checkpoints` and the mean batch per fsync are deterministic on
//! both backends and gated `exact`; only the wall-clock figures depend on
//! the host, and they are informational.
//!
//! The append stream's checkpoints persist an 8-byte snapshot, which hides
//! what a checkpoint costs; so a second set of rows checkpoints snapshots of
//! realistic size (64 KiB, 1 MiB) on both devices. On `MemDisk` each row
//! reports `device_bytes_per_snapshot_byte` — bytes the device copied per
//! checkpoint over the bytes checkpointed, a count that repeats exactly —
//! under a ceiling: a checkpoint must cost what it writes, not what the page
//! file holds. The `chain-mem-*` rows do the same for checkpoints that also
//! append a 4 KiB chunk to a growing chain: at 64 KiB, a checkpoint that
//! wrote the chain again instead of its new chunk would cross the ceiling
//! halfway through the row.

use std::borrow::Cow;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use regular_storage::codec::Wire;
use regular_storage::wal::Wal;
use regular_storage::{Backing, MemDisk, StorageRegistry, WalOptions};
use regular_sweep::Json;

use crate::cli::Args;
use crate::report::{emit, round2, Cell, Report, Rule};

/// Simulated microseconds between record arrivals: at 20 µs per record, a
/// 200 µs group-commit window batches ~11 records per fsync.
const ARRIVAL_US: u64 = 20;

/// The group-commit windows swept, in simulated microseconds. `0` syncs
/// every append (the durability floor the healthy-run byte-identity
/// guarantee relies on); the rest trade acknowledgement latency for batching.
const GC_WINDOWS_US: [u64; 4] = [0, 100, 500, 2_000];

/// Records appended per window on the memory device, and on real files:
/// real fsyncs are ~1000x a memcpy, so the file-backed sweep stays small
/// enough that its gc=0 row (one fsync per record) fits a CI budget.
const MEM_RECORDS: u64 = 50_000;
const DIR_RECORDS: u64 = 2_000;

const FILLER: [u8; 48] = [0xA5; 48];

/// Record payload: a self-describing frame (sequence number + filler) so
/// recovery can verify both content and order.
fn payload(seq: u64) -> Vec<u8> {
    (seq, Cow::Borrowed(&FILLER[..])).to_bytes()
}

fn parse_payload(bytes: &[u8]) -> Option<u64> {
    let (seq, filler) = <(u64, Cow<[u8]>)>::from_bytes(bytes)?;
    (*filler == FILLER).then_some(seq)
}

/// One append row: `n` records on the simulated clock, synced on the
/// group-commit deadline, checkpointed when due, then crashed, recovered and
/// verified against the stream.
fn append_row(opts: &WalOptions, name: &str, backend: &str, n: u64) -> Vec<Cell> {
    use Rule::{Exact, Info};
    let (mut wal, recovered) = Wal::open(opts, name);
    assert!(recovered.is_empty(), "profile logs start empty");
    // The snapshot a checkpoint persists: the next sequence number. Recovery
    // resumes verification from it, exactly like a protocol snapshot.
    let mut checkpoint_base = 0u64;
    let started = Instant::now();
    for seq in 0..n {
        let now_us = seq * ARRIVAL_US;
        wal.append(&payload(seq), now_us);
        if wal.wants_sync() && wal.deadline_us().is_none_or(|d| d <= now_us) {
            wal.sync();
        }
        if wal.checkpoint_due() && wal.checkpoint(&(seq + 1).to_bytes()) {
            checkpoint_base = seq + 1;
        }
    }
    if wal.wants_sync() {
        wal.sync();
    }
    let append_secs = started.elapsed().as_secs_f64();
    let stats = wal.stats();

    // Crash and replay. On the memory device unsynced bytes are torn away;
    // everything here was synced, so the full suffix must come back. The dir
    // device keeps files as the OS left them — same expectation.
    wal.on_crash();
    let recover_started = Instant::now();
    let log = wal.recover();
    let recover_ms = recover_started.elapsed().as_secs_f64() * 1_000.0;
    let base = match &log.whole {
        None => 0,
        Some(snap) => u64::from_bytes(snap).expect("snapshot carries the next sequence number"),
    };
    let in_order = log.records.iter().zip(base..).all(|(rec, seq)| parse_payload(rec) == Some(seq));
    let verified = base == checkpoint_base && in_order && base + log.records.len() as u64 == n;
    vec![
        ("backend", Info, Json::str(backend)),
        ("group_commit_us", Exact, Json::u64(wal.group_commit_us())),
        ("records", Exact, Json::u64(stats.records)),
        ("syncs", Exact, Json::u64(stats.syncs)),
        ("checkpoints", Exact, Json::u64(stats.checkpoints)),
        ("batch_mean", Exact, Json::f64(round2(stats.records as f64 / stats.syncs.max(1) as f64))),
        ("append_ops_per_sec", Info, Json::f64(round2(n as f64 / append_secs))),
        ("recovered_records", Exact, Json::u64(log.records.len() as u64)),
        ("recover_ms", Info, Json::f64(round2(recover_ms))),
        ("recovery_verified", Rule::True, Json::Bool(verified)),
    ]
}

/// Snapshot sizes the checkpoint rows use: a single-DC shard's state after a
/// second of load, and one sixteen times that.
const CHECKPOINT_SNAPSHOT_BYTES: [(&str, usize); 2] = [("64k", 64 * 1024), ("1m", 1024 * 1024)];

/// Checkpoints per row: both snapshot areas and both meta pages are reused
/// many times over.
const CHECKPOINT_ROUNDS: u64 = 20;

/// A checkpoint may make the device copy this many bytes per snapshot byte:
/// the snapshot rounded up to pages plus a meta page is under 1.07 at 64 KiB;
/// a device that copies what the page file holds instead is in the hundreds.
const MAX_DEVICE_BYTES_PER_SNAPSHOT_BYTE: f64 = 1.25;

/// Bytes of chunk each `chain-mem-*` checkpoint appends.
const CHAIN_CHUNK_BYTES: usize = 4 * 1024;

/// One checkpoint row: [`CHECKPOINT_ROUNDS`] checkpoints of a `snapshot_bytes`
/// whole part — each appending a `chunk_bytes` chunk to the chain, unless
/// that is 0 — a few records apart, then crash + recover: every chunk, the
/// last whole part and the records after it must come back. `disk` is the
/// memory device behind `opts`, when there is one (a real device does not
/// count what it copies).
fn checkpoint_row(
    opts: &WalOptions,
    disk: Option<MemDisk>,
    name: &str,
    backend: &str,
    (snapshot_bytes, chunk_bytes): (usize, usize),
) -> Vec<Cell> {
    use Rule::{Exact, Info};
    let rounds = CHECKPOINT_ROUNDS;
    let (mut wal, recovered) = Wal::open(opts, name);
    assert!(recovered.is_empty(), "profile logs start empty");
    let bytes_of = |len: usize, round: u64| -> Vec<u8> {
        (0..len).map(|i| (i as u64 ^ round) as u8).collect()
    };
    let mut in_checkpoint = 0.0;
    for round in 0..rounds {
        for seq in 0..8 {
            wal.append(&payload(round * 8 + seq), 0);
        }
        let (snapshot, chunk) = (bytes_of(snapshot_bytes, round), bytes_of(chunk_bytes, !round));
        let started = Instant::now();
        let fits = if chunk.is_empty() {
            wal.checkpoint(&snapshot)
        } else {
            wal.checkpoint_with(
                |enc| {
                    enc.raw(&chunk);
                },
                |enc| {
                    enc.raw(&snapshot);
                },
            )
        };
        in_checkpoint += started.elapsed().as_secs_f64();
        assert!(fits, "the snapshot fits its area");
    }
    let copied = disk.map(|d| d.page_bytes_copied());
    wal.append(&payload(rounds * 8), 0);
    wal.sync();
    wal.on_crash();
    let log = wal.recover();
    let chain: Vec<Vec<u8>> = (0..rounds)
        .filter(|_| chunk_bytes > 0)
        .map(|round| bytes_of(chunk_bytes, !round))
        .collect();
    let verified = log.chunks == chain
        && log.whole == Some(bytes_of(snapshot_bytes, rounds - 1))
        && log.records.len() == 1
        && parse_payload(&log.records[0]) == Some(rounds * 8);
    let checkpointed = (rounds * (snapshot_bytes + chunk_bytes) as u64) as f64;
    let copied_ratio = copied.map(|c| Json::f64((c as f64 / checkpointed * 1e4).round() / 1e4));
    vec![
        ("backend", Info, Json::str(backend)),
        ("snapshot_bytes", Exact, Json::u64(snapshot_bytes as u64)),
        ("chunk_bytes", Exact, Json::u64(chunk_bytes as u64)),
        ("rounds", Exact, Json::u64(rounds)),
        (
            "device_bytes_per_snapshot_byte",
            Rule::Ceiling(MAX_DEVICE_BYTES_PER_SNAPSHOT_BYTE),
            copied_ratio.unwrap_or(Json::Null),
        ),
        ("us_per_kb", Info, Json::f64(round2(in_checkpoint * 1e6 / (checkpointed / 1024.0)))),
        ("recovery_verified", Rule::True, Json::Bool(verified)),
    ]
}

/// The `storage` subcommand.
pub fn storage(mut args: Args) -> Result<ExitCode, String> {
    let out = args.out()?;
    args.finish()?;
    let scratch: PathBuf =
        PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/storage-profile"));
    let _ = std::fs::remove_dir_all(&scratch);

    let params =
        [("arrival_us", ARRIVAL_US), ("mem_records", MEM_RECORDS), ("dir_records", DIR_RECORDS)];
    let mut report = Report::new("storage", params.map(|(k, v)| (k, Json::u64(v))).to_vec());
    for gc in GC_WINDOWS_US {
        let opts = WalOptions::mem(StorageRegistry::new()).with_group_commit_us(gc);
        let name = format!("mem-gc{gc}");
        report.push(name.clone(), append_row(&opts, &name, "mem", MEM_RECORDS));
    }
    for gc in GC_WINDOWS_US {
        let opts = WalOptions {
            backing: Backing::Dir(scratch.join(format!("gc{gc}"))),
            ..WalOptions::dir(&scratch)
        }
        .with_group_commit_us(gc);
        let name = format!("dir-gc{gc}");
        report.push(name.clone(), append_row(&opts, &name, "dir", DIR_RECORDS));
    }
    for (label, bytes) in CHECKPOINT_SNAPSHOT_BYTES {
        let registry = StorageRegistry::new();
        let opts = WalOptions::mem(registry.clone()).with_checkpoint_every(0);
        let name = format!("ckpt-mem-{label}");
        let disk = registry.disk(&name);
        report.push(name.clone(), checkpoint_row(&opts, Some(disk), &name, "mem", (bytes, 0)));
    }
    for (label, bytes) in CHECKPOINT_SNAPSHOT_BYTES {
        let opts = WalOptions::dir(scratch.join(format!("ckpt-{label}"))).with_checkpoint_every(0);
        let name = format!("ckpt-dir-{label}");
        report.push(name.clone(), checkpoint_row(&opts, None, &name, "dir", (bytes, 0)));
    }
    for (label, bytes) in CHECKPOINT_SNAPSHOT_BYTES {
        let registry = StorageRegistry::new();
        let opts = WalOptions::mem(registry.clone()).with_checkpoint_every(0);
        let name = format!("chain-mem-{label}");
        let disk = registry.disk(&name);
        let sizes = (bytes, CHAIN_CHUNK_BYTES);
        report.push(name.clone(), checkpoint_row(&opts, Some(disk), &name, "mem", sizes));
    }
    let _ = std::fs::remove_dir_all(&scratch);

    // The IO-axis invariant this profile exists to demonstrate: widening the
    // group-commit window can only batch *more* records per fsync. This is
    // deterministic (the sync schedule runs on the simulated clock), so a
    // violation is a storage-layer bug, not host noise.
    for backend in ["mem", "dir"] {
        let rows = GC_WINDOWS_US.map(|gc| format!("{backend}-gc{gc}"));
        let batches = rows.map(|row| report.cell(&row, "batch_mean").and_then(Json::as_f64));
        assert!(
            batches.windows(2).all(|w| w[0] <= w[1]),
            "{backend}: group-commit batching must grow with the window: {batches:?}"
        );
    }
    emit(&report, out.as_deref())
}
