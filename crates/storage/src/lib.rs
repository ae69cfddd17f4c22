//! `regular-storage`: durable storage for the protocol nodes.
//!
//! Spanner's "Paxos-durable" shard state and Gryff's replicated registers are
//! in-memory structures in the simulator; this crate gives them a real
//! persistence layer so `Node::on_crash`/`on_recover` exercise an actual
//! recovery path instead of replaying from state that never left RAM.
//! (`ARCHITECTURE.md` at the repository root shows where this crate sits in
//! the workspace.)
//!
//! The stack, bottom to top:
//!
//! * [`device`] — the storage devices. [`MemDisk`] is a deterministic
//!   in-process device for the simulation plane: it models the synced/unsynced
//!   boundary explicitly, and `crash()` truncates every log segment to its
//!   synced prefix plus a *seeded torn tail* (a pseudo-random, possibly
//!   bit-flipped prefix of the unsynced bytes) so seeded sweeps exercise
//!   partial-write recovery deterministically. Its page file is a sparse page
//!   map plus the durable images of the pages written since the last sync, so
//!   a write, a sync and a crash each cost what changed, never the file.
//!   [`DirDisk`] is the live-plane device: real files, real `fsync`.
//! * [`codec`] — the binary codec every record, snapshot and socket message
//!   is declared in, and the `[len][crc32]` frame they travel inside.
//! * [`wal`] — the write-ahead log: append-only segments of frames encoded
//!   in place in one reused buffer ([`Wal::append_with`]), **group commit**
//!   (appends hit the device immediately; the fsync is deferred up to
//!   `group_commit_us` so many records share one sync), checkpoints in two
//!   parts (a chunk of what the node appended since the last one goes to the
//!   end of an append-only chain, the whole part goes straight to the
//!   inactive one of two ping-pong areas, then a crc-guarded meta page flips
//!   to both, then covered segments are pruned), and a recovery scan that
//!   replays chain, whole part and log tail and stops cleanly at a torn
//!   frame.
//! * [`Durability`] — the knob the protocol configs carry. `InMemory` is the
//!   default and leaves every existing code path untouched; `Wal` routes node
//!   state through a per-node log.
//!
//! The soundness contract with the protocols: a node that appends a record
//! during a handler turn must hold back every message it sends until that
//! record is synced (the WAL exposes [`Wal::wants_sync`]/[`Wal::deadline_us`]
//! for the group-commit window; `regular_session::DurableLog` is the one
//! node-side implementation of the rule). Crashes land between handler
//! turns, so a torn tail can only ever contain records whose
//! acknowledgements were never released — dropping them at recovery is
//! indistinguishable from the ack having been lost in the network.
//!
//! This crate has no dependencies, and every crate with a byte layout
//! depends on it: [`codec`] holds the workspace's one binary codec (the
//! `Wire` trait, the `wire_layout!` macro, the frame header, CRC-32) and the
//! reason it exists. Like the other workspace crates, nothing here tracks a
//! registry crate — there is no stub to replace.

pub mod codec;
pub mod device;
pub mod wal;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

pub use device::{DirDisk, MemDisk, NodeDisk, PAGE_SIZE};
pub use wal::{RecoveredLog, Wal, WalStats};

/// How a protocol node persists its state.
///
/// `InMemory` (the default) is the pre-existing behaviour: crash hooks keep
/// whatever the protocol declares "durable" in ordinary fields. `Wal` makes a
/// node log every durable mutation to a write-ahead log and reconstruct
/// *only* from that log on recovery.
#[derive(Clone, Debug, Default)]
pub enum Durability {
    #[default]
    InMemory,
    Wal(WalOptions),
}

impl Durability {
    /// Stable name for reports and failure artifacts.
    pub fn name(&self) -> &'static str {
        match self {
            Durability::InMemory => "in-memory",
            Durability::Wal(_) => "wal",
        }
    }
}

/// Where a node's write-ahead log lives.
#[derive(Clone)]
pub enum Backing {
    /// Deterministic in-process device, shared through a [`StorageRegistry`]
    /// so tests can inspect (and offline-replay) each node's log after a run.
    Memory(StorageRegistry),
    /// A directory on the real filesystem; each node gets a subdirectory.
    Dir(PathBuf),
}

impl std::fmt::Debug for Backing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Backing::Memory(_) => f.write_str("Memory(..)"),
            Backing::Dir(p) => write!(f, "Dir({})", p.display()),
        }
    }
}

/// Configuration for [`Durability::Wal`].
#[derive(Clone, Debug)]
pub struct WalOptions {
    pub backing: Backing,
    /// Group-commit window: how long a record may wait, unsynced, for later
    /// records to share its fsync. `0` syncs at the end of every handler turn
    /// that appended (which keeps healthy-run histories byte-identical to
    /// `InMemory` — sends are released within the same turn, in order).
    pub group_commit_us: u64,
    /// Log segment rotation threshold in bytes.
    pub segment_bytes: u64,
    /// Write a checkpoint after this many records (0 = never checkpoint).
    pub checkpoint_every: u64,
    /// Seed for torn-tail injection on crash (memory backing only): the
    /// unsynced tail of the last segment survives as a pseudo-random,
    /// possibly corrupted prefix instead of vanishing cleanly.
    pub torn_tail_seed: Option<u64>,
}

impl WalOptions {
    /// Simulation-plane options: in-process device, group commit off
    /// (sync every turn), periodic checkpoints.
    pub fn mem(registry: StorageRegistry) -> Self {
        WalOptions {
            backing: Backing::Memory(registry),
            group_commit_us: 0,
            segment_bytes: 64 * 1024,
            checkpoint_every: 1024,
            torn_tail_seed: None,
        }
    }

    /// Live-plane options: real files under `dir`, real fsyncs.
    pub fn dir(dir: impl Into<PathBuf>) -> Self {
        WalOptions {
            backing: Backing::Dir(dir.into()),
            group_commit_us: 200,
            segment_bytes: 1024 * 1024,
            checkpoint_every: 4096,
            torn_tail_seed: None,
        }
    }

    pub fn with_group_commit_us(mut self, us: u64) -> Self {
        self.group_commit_us = us;
        self
    }

    pub fn with_segment_bytes(mut self, bytes: u64) -> Self {
        self.segment_bytes = bytes;
        self
    }

    pub fn with_checkpoint_every(mut self, records: u64) -> Self {
        self.checkpoint_every = records;
        self
    }

    pub fn with_torn_tail_seed(mut self, seed: u64) -> Self {
        self.torn_tail_seed = Some(seed);
        self
    }
}

/// A shared namespace of in-process [`MemDisk`]s, keyed by node name.
///
/// Clone it before a run, hand it to `WalOptions::mem`, and every node's
/// device stays reachable afterwards for inspection and offline replay.
#[derive(Clone, Default)]
pub struct StorageRegistry {
    disks: Arc<Mutex<BTreeMap<String, MemDisk>>>,
}

impl StorageRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Get (or create) the device for `name`.
    pub fn disk(&self, name: &str) -> MemDisk {
        self.disks.lock().unwrap().entry(name.to_string()).or_default().clone()
    }

    /// Names of every device created so far, sorted.
    pub fn names(&self) -> Vec<String> {
        self.disks.lock().unwrap().keys().cloned().collect()
    }
}

/// Aggregated WAL counters for a whole run (summed across nodes).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StorageSummary {
    /// Records appended.
    pub records: u64,
    /// Bytes appended (frame headers included).
    pub bytes: u64,
    /// Group commits (each is one or more segment fsyncs).
    pub syncs: u64,
    /// Checkpoints written.
    pub checkpoints: u64,
    /// Bytes those checkpoints carried, in total: whole parts plus chunks.
    pub snapshot_bytes: u64,
    /// Checkpoints skipped because a whole part outgrew its area — each one
    /// leaves a log unpruned; a run that ends with any is misconfigured.
    pub skipped_checkpoints: u64,
    /// Crash recoveries that replayed from the log.
    pub recoveries: u64,
    /// Records replayed across all recoveries.
    pub replayed: u64,
    /// Bytes discarded as torn tails during recovery scans.
    pub torn_bytes: u64,
}

impl StorageSummary {
    pub fn add_wal(&mut self, stats: &WalStats) {
        self.records += stats.records;
        self.bytes += stats.bytes;
        self.syncs += stats.syncs;
        self.checkpoints += stats.checkpoints;
        self.snapshot_bytes += stats.snapshot_bytes;
        self.skipped_checkpoints += stats.skipped_checkpoints;
        self.recoveries += stats.recoveries;
        self.replayed += stats.replayed;
        self.torn_bytes += stats.torn_bytes;
    }

    pub fn merge(&mut self, other: &StorageSummary) {
        self.records += other.records;
        self.bytes += other.bytes;
        self.syncs += other.syncs;
        self.checkpoints += other.checkpoints;
        self.snapshot_bytes += other.snapshot_bytes;
        self.skipped_checkpoints += other.skipped_checkpoints;
        self.recoveries += other.recoveries;
        self.replayed += other.replayed;
        self.torn_bytes += other.torn_bytes;
    }

    pub fn is_empty(&self) -> bool {
        *self == StorageSummary::default()
    }
}
