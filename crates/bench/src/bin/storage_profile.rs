//! IO profile of the durable storage layer: group-commit batch size versus
//! write throughput, on both storage devices, with recovery verified after
//! every run.
//!
//! For each backend (the deterministic in-process `MemDisk` and real files
//! via `DirDisk` under `target/storage_profile`) and each group-commit
//! window, the profile appends a fixed stream of self-describing records on
//! a simulated clock (one record per `ARRIVAL_US`), syncing exactly when the
//! WAL's group-commit deadline expires — the same discipline the protocol
//! nodes use. It then crashes the log and replays it, verifying every
//! recovered record byte-for-byte against the stream.
//!
//! Because the sync schedule is driven by the *simulated* clock, `records`,
//! `syncs`, and `checkpoints` are deterministic on both backends; only the
//! `*_per_sec` wall-clock figures depend on the host. `bench_gate --storage`
//! gates the deterministic observables and the recovery verdict, and treats
//! wall-clock drift as warn-only.
//!
//! The append stream's checkpoints persist an 8-byte snapshot, which hides
//! what a checkpoint costs; so a second set of rows checkpoints snapshots of
//! realistic size (64 KiB, 1 MiB) on both devices. On `MemDisk` each row
//! reports `device_bytes_per_snapshot_byte` — bytes the device copied per
//! checkpoint over the snapshot's size, a count that repeats exactly and
//! that the gate bounds at 1.25: a checkpoint must cost what it writes, not
//! what the page file holds — next to the host-dependent `us_per_kb`.
//!
//! Usage:
//!
//! ```text
//! storage_profile [--out BENCH_storage.json] [--records N]
//! ```

use std::borrow::Cow;
use std::path::PathBuf;
use std::time::Instant;

use regular_storage::codec::Wire;
use regular_storage::wal::Wal;
use regular_storage::{Backing, MemDisk, StorageRegistry, WalOptions};
use regular_sweep::{write_json, Json};

/// Simulated microseconds between record arrivals: at 20 µs per record, a
/// 200 µs group-commit window batches ~11 records per fsync.
const ARRIVAL_US: u64 = 20;

/// The group-commit windows swept, in simulated microseconds. `0` syncs
/// every append (the durability floor the healthy-run byte-identity
/// guarantee relies on); the rest trade acknowledgement latency for batching.
const GC_WINDOWS_US: [u64; 4] = [0, 100, 500, 2_000];

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

struct ProfileEntry {
    name: String,
    backend: &'static str,
    group_commit_us: u64,
    records: u64,
    syncs: u64,
    checkpoints: u64,
    batch_mean: f64,
    append_ops_per_sec: f64,
    recovered_records: u64,
    recovery_verified: bool,
    recover_ms: f64,
}

/// One profile run: append `n` records on the simulated clock, sync on the
/// group-commit deadline, checkpoint when due, then crash + recover and
/// verify the replayed stream.
fn run_profile(opts: &WalOptions, name: String, backend: &'static str, n: u64) -> ProfileEntry {
    let (mut wal, recovered) = Wal::open(opts, &name);
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
    let base = match &log.snapshot {
        None => 0,
        Some(snap) => u64::from_bytes(snap).expect("snapshot carries the next sequence number"),
    };
    let mut verified = base == checkpoint_base;
    let mut seq = base;
    for rec in &log.records {
        match parse_payload(rec) {
            Some(got) if got == seq => seq += 1,
            _ => {
                verified = false;
                break;
            }
        }
    }
    verified &= seq == n;

    ProfileEntry {
        name,
        backend,
        group_commit_us: wal.group_commit_us(),
        records: stats.records,
        syncs: stats.syncs,
        checkpoints: stats.checkpoints,
        batch_mean: stats.records as f64 / stats.syncs.max(1) as f64,
        append_ops_per_sec: if append_secs > 0.0 { n as f64 / append_secs } else { 0.0 },
        recovered_records: log.records.len() as u64,
        recovery_verified: verified,
        recover_ms,
    }
}

/// Snapshot sizes the checkpoint rows use: a single-DC shard's state after a
/// second of load, and one sixteen times that.
const CHECKPOINT_SNAPSHOT_BYTES: [(&str, usize); 2] = [("64k", 64 * 1024), ("1m", 1024 * 1024)];

/// Checkpoints per row: both snapshot areas and both meta pages are reused
/// many times over.
const CHECKPOINT_ROUNDS: u64 = 20;

struct CheckpointEntry {
    name: String,
    backend: &'static str,
    snapshot_bytes: usize,
    rounds: u64,
    /// `MemDisk` only: the real device does not count what it copies.
    device_bytes_per_snapshot_byte: Option<f64>,
    us_per_kb: f64,
    recovery_verified: bool,
}

/// [`CHECKPOINT_ROUNDS`] checkpoints of a `snapshot_bytes` snapshot, a few records apart,
/// then crash + recover: the last snapshot and the records after it must come
/// back. `disk` is the memory device behind `opts`, when there is one.
fn run_checkpoints(
    opts: &WalOptions,
    disk: Option<MemDisk>,
    name: String,
    backend: &'static str,
    snapshot_bytes: usize,
) -> CheckpointEntry {
    let rounds = CHECKPOINT_ROUNDS;
    let (mut wal, recovered) = Wal::open(opts, &name);
    assert!(recovered.is_empty(), "profile logs start empty");
    let snapshot_of =
        |round: u64| -> Vec<u8> { (0..snapshot_bytes).map(|i| (i as u64 ^ round) as u8).collect() };
    let mut in_checkpoint = 0.0;
    for round in 0..rounds {
        for seq in 0..8 {
            wal.append(&payload(round * 8 + seq), 0);
        }
        let snapshot = snapshot_of(round);
        let started = Instant::now();
        assert!(wal.checkpoint(&snapshot), "the snapshot fits its area");
        in_checkpoint += started.elapsed().as_secs_f64();
    }
    let copied = disk.map(|d| d.page_bytes_copied());
    wal.append(&payload(rounds * 8), 0);
    wal.sync();
    wal.on_crash();
    let log = wal.recover();
    let recovery_verified = log.snapshot == Some(snapshot_of(rounds - 1))
        && log.records.len() == 1
        && parse_payload(&log.records[0]) == Some(rounds * 8);
    let snapshot_total = (rounds * snapshot_bytes as u64) as f64;
    CheckpointEntry {
        name,
        backend,
        snapshot_bytes,
        rounds,
        device_bytes_per_snapshot_byte: copied.map(|c| c as f64 / snapshot_total),
        us_per_kb: in_checkpoint * 1e6 / (snapshot_total / 1024.0),
        recovery_verified,
    }
}

fn round2(v: f64) -> f64 {
    (v * 100.0).round() / 100.0
}

fn main() {
    let mut out = PathBuf::from("BENCH_storage.json");
    let mut mem_records = 50_000u64;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || args.next().expect("flag needs a value");
        match arg.as_str() {
            "--out" => out = PathBuf::from(value()),
            "--records" => mem_records = value().parse().expect("bad --records"),
            other => {
                eprintln!("unknown argument '{other}' (usage: storage_profile [--out PATH] [--records N])");
                std::process::exit(2);
            }
        }
    }
    // Real fsyncs are ~1000x a memcpy; keep the file-backed sweep small
    // enough that the gc=0 row (one fsync per record) stays in CI budget.
    let dir_records = (mem_records / 25).max(200);
    let scratch: PathBuf =
        PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/storage_profile"));
    let _ = std::fs::remove_dir_all(&scratch);

    let mut entries = Vec::new();
    for &gc in &GC_WINDOWS_US {
        let opts = WalOptions::mem(StorageRegistry::new()).with_group_commit_us(gc);
        entries.push(run_profile(&opts, format!("mem-gc{gc}"), "mem", mem_records));
    }
    for &gc in &GC_WINDOWS_US {
        let opts = WalOptions {
            backing: Backing::Dir(scratch.join(format!("gc{gc}"))),
            ..WalOptions::dir(&scratch)
        }
        .with_group_commit_us(gc);
        entries.push(run_profile(&opts, format!("dir-gc{gc}"), "dir", dir_records));
    }
    let mut checkpoints = Vec::new();
    for (label, bytes) in CHECKPOINT_SNAPSHOT_BYTES {
        let registry = StorageRegistry::new();
        let opts = WalOptions::mem(registry.clone()).with_checkpoint_every(0);
        let name = format!("ckpt-mem-{label}");
        let disk = registry.disk(&name);
        checkpoints.push(run_checkpoints(&opts, Some(disk), name, "mem", bytes));
    }
    for (label, bytes) in CHECKPOINT_SNAPSHOT_BYTES {
        let opts = WalOptions::dir(scratch.join(format!("ckpt-{label}"))).with_checkpoint_every(0);
        checkpoints.push(run_checkpoints(&opts, None, format!("ckpt-dir-{label}"), "dir", bytes));
    }
    let _ = std::fs::remove_dir_all(&scratch);

    // The IO-axis invariant this profile exists to demonstrate: widening the
    // group-commit window can only batch *more* records per fsync. This is
    // deterministic (the sync schedule runs on the simulated clock), so a
    // violation is a storage-layer bug, not host noise.
    for backend in ["mem", "dir"] {
        let batches: Vec<f64> =
            entries.iter().filter(|e| e.backend == backend).map(|e| e.batch_mean).collect();
        assert!(
            batches.windows(2).all(|w| w[0] <= w[1]),
            "{backend}: group-commit batching must grow with the window: {batches:?}"
        );
    }

    for e in &entries {
        println!(
            "{:<10} {:>7} records  {:>6} syncs  batch {:>6.1}  {:>9.0} append/s  \
             recovered {:>7} ({})  recover {:.2} ms",
            e.name,
            e.records,
            e.syncs,
            e.batch_mean,
            e.append_ops_per_sec,
            e.recovered_records,
            if e.recovery_verified { "verified" } else { "MISMATCH" },
            e.recover_ms,
        );
    }

    for c in &checkpoints {
        println!(
            "{:<13} {:>3} checkpoints of {:>7} B  device bytes/snapshot byte {}  {:>7.2} us/KB  ({})",
            c.name,
            c.rounds,
            c.snapshot_bytes,
            c.device_bytes_per_snapshot_byte.map_or("   n/a".to_string(), |r| format!("{r:>6.3}")),
            c.us_per_kb,
            if c.recovery_verified { "verified" } else { "MISMATCH" },
        );
    }

    let json = Json::obj(vec![
        ("schema", Json::str("regular-seq/storage-profile/v1")),
        ("arrival_us", Json::u64(ARRIVAL_US)),
        ("mem_records", Json::u64(mem_records)),
        ("dir_records", Json::u64(dir_records)),
        (
            "entries",
            Json::Arr(
                entries
                    .iter()
                    .map(|e| {
                        Json::obj(vec![
                            ("name", Json::str(&e.name)),
                            ("backend", Json::str(e.backend)),
                            ("group_commit_us", Json::u64(e.group_commit_us)),
                            ("records", Json::u64(e.records)),
                            ("syncs", Json::u64(e.syncs)),
                            ("checkpoints", Json::u64(e.checkpoints)),
                            ("batch_mean", Json::f64(round2(e.batch_mean))),
                            ("append_ops_per_sec", Json::f64(round2(e.append_ops_per_sec))),
                            ("recovered_records", Json::u64(e.recovered_records)),
                            ("recovery_verified", Json::Bool(e.recovery_verified)),
                            ("recover_ms", Json::f64(round2(e.recover_ms))),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "checkpoints",
            Json::Arr(
                checkpoints
                    .iter()
                    .map(|c| {
                        let mut fields = vec![
                            ("name", Json::str(&c.name)),
                            ("backend", Json::str(c.backend)),
                            ("snapshot_bytes", Json::u64(c.snapshot_bytes as u64)),
                            ("rounds", Json::u64(c.rounds)),
                        ];
                        if let Some(ratio) = c.device_bytes_per_snapshot_byte {
                            fields.push((
                                "device_bytes_per_snapshot_byte",
                                Json::f64((ratio * 1e4).round() / 1e4),
                            ));
                        }
                        fields.push(("us_per_kb", Json::f64(round2(c.us_per_kb))));
                        fields.push(("recovery_verified", Json::Bool(c.recovery_verified)));
                        Json::obj(fields)
                    })
                    .collect(),
            ),
        ),
    ]);
    write_json(&out, &json).expect("write profile");
    let failed = entries.iter().filter(|e| !e.recovery_verified).count()
        + checkpoints.iter().filter(|c| !c.recovery_verified).count();
    println!("storage profile written to {} ({} entries)", out.display(), entries.len());
    if failed > 0 {
        eprintln!("{failed} entries FAILED recovery verification");
        std::process::exit(1);
    }
}
