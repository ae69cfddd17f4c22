//! The write-ahead log: segmented frames, group commit, checkpoints, and a
//! torn-tail-tolerant recovery scan.
//!
//! ## On-device layout
//!
//! Log records live in append-only segments (`wal-NNNNNN.seg`), each a run of
//! frames ([`crate::codec::frame_header`] then the payload). The page file
//! holds checkpoints, in three regions:
//!
//! * pages 0 and 1: ping-ponged, crc-guarded *meta* pages (the valid one with
//!   the highest epoch wins). A meta page records the epoch, the whole part's
//!   length and CRC, the chain's length in bytes, and the log position the
//!   checkpoint covers.
//! * two *whole-part* areas of 16 MiB each, from page 2, alternating by
//!   epoch.
//! * the *chain* region after them, with no fixed cap: an append-only run of
//!   chunks, each framed like a log record, packed back to back.
//!
//! A checkpoint has two parts. The *append part* is one chunk, written once
//! at the chain's recorded end: what the node appended to its state since the
//! previous checkpoint. The *whole part* is written in full to the inactive
//! area, as a snapshot of the state that changes in place. Then the log
//! syncs the pages, writes the meta page that records the new chain length
//! and points at the new area, and syncs again. Until that second sync the
//! old meta page wins, and it names the old area, untouched, and an older
//! chain length. A chunk written past the recorded length is ignored by
//! recovery and overwritten by the next checkpoint. The chain's partial last
//! page is rewritten with its old bytes in front of the new chunk, and page
//! writes are atomic, so a cut never damages a recorded chunk.
//!
//! ## Group commit
//!
//! [`Wal::append`] writes the frame to the device immediately but defers the
//! fsync: the log stays "dirty" until [`Wal::sync`], and
//! [`Wal::deadline_us`] reports when the oldest unsynced record's
//! `group_commit_us` window expires. The caller (the protocol node) holds
//! back outbound messages while [`Wal::wants_sync`] is true — see the crate
//! docs for why that makes torn tails harmless.
//!
//! ## Recovery
//!
//! The scan loads the best meta page, reads the chain's chunks and the whole
//! part it points at, then replays frames from the recorded log position. It
//! stops — without panicking — at the first incomplete or checksum-failing
//! frame, truncates the torn bytes, and discards any later segments. Data
//! appended after a lost record is unreachable by construction *because*
//! [`Wal::append`] syncs before rotating segments: unsynced frames exist only
//! in the final segment, so a crash can tear the log's tail but never its
//! middle, and the replayed records are always an exact prefix of what was
//! appended.
//!
//! ## Memory
//!
//! Between checkpoints a log holds one frame-sized buffer. Frames are
//! encoded in place into that reused buffer, so its capacity is the largest
//! frame's. [`Wal::checkpoint_with`] encodes both parts into one buffer of
//! its own, the whole part first and then the chunk, and frees it when the
//! checkpoint is written. The buffer is pre-sized to the last whole part's
//! length plus the frame bytes logged since, plus one page and a frame
//! header. The state grows only through logged records, and a record
//! (header, ids, timestamps) takes more bytes than it adds to either part
//! unless it carries many writes. The chunk is encoded behind the chain's
//! partial last page (under one page) and its frame header. So neither part
//! reallocates mid-encode in practice, and where one must, `Vec` grows as
//! usual.

use crate::codec::{crc32, frame_header, frame_len, frame_matches, Enc, Wire, FRAME_HEADER};
use crate::device::{DirDisk, NodeDisk, PAGE_SIZE};
use crate::{Backing, WalOptions};

/// Pages reserved per whole-part area (16 MiB each).
const MAX_SNAPSHOT_PAGES: u64 = 4096;
/// First page of the chain region, after the meta pages and both areas.
const CHAIN_BASE: u64 = 2 + 2 * MAX_SNAPSHOT_PAGES;
const META_MAGIC: u32 = 0x5253_574C; // "RSWL"
/// A meta page's bytes before its trailing CRC.
const META_BODY: usize = 48;

/// Per-WAL counters; aggregated across nodes into
/// [`crate::StorageSummary`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WalStats {
    pub records: u64,
    pub bytes: u64,
    pub syncs: u64,
    pub checkpoints: u64,
    /// Bytes the written checkpoints carried, in total: whole parts plus
    /// chunk payloads.
    pub snapshot_bytes: u64,
    /// Checkpoints skipped because the whole part outgrew its area.
    pub skipped_checkpoints: u64,
    pub recoveries: u64,
    pub replayed: u64,
    pub torn_bytes: u64,
}

/// What a recovery scan hands back to the protocol, in the order it is
/// applied.
pub struct RecoveredLog {
    /// The chunks every checkpoint appended to the chain, oldest first.
    pub chunks: Vec<Vec<u8>>,
    /// The last checkpoint's whole part, if one was ever written.
    pub whole: Option<Vec<u8>>,
    /// Every intact record after the checkpoint position, in append order.
    pub records: Vec<Vec<u8>>,
}

impl RecoveredLog {
    pub fn is_empty(&self) -> bool {
        self.chunks.is_empty() && self.whole.is_none() && self.records.is_empty()
    }

    /// The framed bytes of every record after the checkpoint: what the next
    /// checkpoint's buffer counts as logged since (module docs, "Memory").
    fn logged_bytes(&self) -> usize {
        self.records.iter().map(|r| FRAME_HEADER + r.len()).sum()
    }

    /// Decodes everything a recovery scan read, in the order it is applied:
    /// the chain's chunks `C`, the whole part `W` (led by its snapshot
    /// `version`), the log tail's records `R`. Every part passed its CRC, so
    /// one that does not decode is a format this build cannot read (or a
    /// bug), never a torn write. Skipping it would bring `node` back with
    /// that state missing, so this panics instead, in every build, naming the
    /// node and the part.
    pub fn decode<C: Wire, W: Wire, R: Wire>(
        self,
        node: &str,
        version: u32,
    ) -> (Vec<C>, Option<W>, Vec<R>) {
        let chunks = (self.chunks.iter().enumerate())
            .map(|(i, bytes)| {
                C::from_bytes(bytes).unwrap_or_else(|| refuse(node, &format!("chain chunk {i}")))
            })
            .collect();
        let whole = self.whole.map(|bytes| {
            let decoded = <(u32, W)>::from_bytes(&bytes).filter(|(v, _)| *v == version);
            decoded.map(|(_, whole)| whole).unwrap_or_else(|| {
                let found = bytes.first_chunk().map(|v| u32::from_le_bytes(*v));
                let found = found.map_or("unreadable".to_string(), |v| v.to_string());
                refuse(
                    node,
                    &format!(
                        "the whole part, snapshot version {found} (this build reads {version}),"
                    ),
                )
            })
        });
        let records = (self.records.iter().enumerate())
            .map(|(i, bytes)| {
                R::from_bytes(bytes)
                    .unwrap_or_else(|| refuse(node, &format!("log tail record {i}")))
            })
            .collect();
        (chunks, whole, records)
    }
}

/// Stops the recovery of `node`: `what` passed its CRC but does not decode
/// ([`RecoveredLog::decode`]).
pub fn refuse(node: &str, what: &str) -> ! {
    panic!("{node}: {what} passed its CRC but does not decode; refusing to recover without it")
}

struct Meta {
    epoch: u64,
    whole_len: u64,
    whole_crc: u32,
    chain_len: u64,
    wal_seg: u64,
    wal_off: u64,
}

struct ScanEnd {
    segment: u64,
    offset: u64,
    epoch: u64,
    chain_len: u64,
    torn_bytes: u64,
}

struct Dirty {
    first_segment: u64,
    since_us: u64,
}

pub struct Wal {
    disk: NodeDisk,
    /// Reused scratch buffer of the frame being appended: frame-sized, since
    /// a checkpoint is encoded into a buffer of its own.
    enc: Enc,
    /// The last whole part's length and the frame bytes logged since: what
    /// the next checkpoint's buffer is pre-sized from (module docs, "Memory").
    whole_hint: usize,
    logged_since: usize,
    /// Bytes of the chain the current meta page records.
    chain_len: u64,
    group_commit_us: u64,
    segment_bytes: u64,
    checkpoint_every: u64,
    torn_tail_seed: Option<u64>,
    cur_segment: u64,
    cur_len: u64,
    dirty: Option<Dirty>,
    records_since_checkpoint: u64,
    epoch: u64,
    stats: WalStats,
}

impl Wal {
    /// Open (or re-open) the log named `name` under `opts.backing`. The scan
    /// that runs here is the same one crash recovery uses, so re-opening an
    /// existing directory resumes where the last process left off.
    pub fn open(opts: &WalOptions, name: &str) -> (Wal, RecoveredLog) {
        let mut disk = match &opts.backing {
            Backing::Memory(registry) => NodeDisk::Mem(registry.disk(name)),
            Backing::Dir(dir) => {
                NodeDisk::Dir(DirDisk::open(dir.join(name)).expect("open WAL directory"))
            }
        };
        let (log, end) = scan(&mut disk, true);
        let mut wal = Wal {
            disk,
            enc: Enc::new(),
            whole_hint: log.whole.as_ref().map_or(0, Vec::len),
            logged_since: log.logged_bytes(),
            chain_len: end.chain_len,
            group_commit_us: opts.group_commit_us,
            segment_bytes: opts.segment_bytes.max(FRAME_HEADER as u64 + 1),
            checkpoint_every: opts.checkpoint_every,
            torn_tail_seed: opts.torn_tail_seed,
            cur_segment: end.segment,
            cur_len: end.offset,
            dirty: None,
            records_since_checkpoint: log.records.len() as u64,
            epoch: end.epoch,
            stats: WalStats::default(),
        };
        wal.disk.create_segment(wal.cur_segment);
        (wal, log)
    }

    pub fn stats(&self) -> WalStats {
        self.stats
    }

    pub fn group_commit_us(&self) -> u64 {
        self.group_commit_us
    }

    /// Append one record. The frame reaches the device now; its fsync is
    /// deferred to [`Wal::sync`].
    pub fn append(&mut self, payload: &[u8], now_us: u64) {
        self.append_with(now_us, |enc| {
            enc.raw(payload);
        });
    }

    /// Append the record `encode` writes, framed in place in the log's
    /// reused buffer: no allocation, one device append.
    pub fn append_with(&mut self, now_us: u64, encode: impl FnOnce(&mut Enc)) {
        self.enc.buf.clear();
        self.enc.buf.resize(FRAME_HEADER, 0);
        encode(&mut self.enc);
        let frame = &mut self.enc.buf;
        let header = frame_header(&frame[FRAME_HEADER..]);
        frame[..FRAME_HEADER].copy_from_slice(&header);
        let frame_len = frame.len() as u64;
        if self.cur_len > 0 && self.cur_len + frame_len > self.segment_bytes {
            // Sync before rotating so unsynced data only ever lives in the
            // final segment. Rotating with dirty frames behind would let a
            // crash truncate the *middle* of the log (the non-final segment
            // loses its unsynced tail at a clean frame boundary) while later
            // frames survive in the next segment's torn tail — and the
            // recovery scan would replay them, violating the prefix
            // invariant. An early fsync is always safe; it just shrinks the
            // group-commit batch at segment boundaries.
            self.sync();
            self.cur_segment += 1;
            self.cur_len = 0;
            self.disk.create_segment(self.cur_segment);
        }
        self.disk.append_segment(self.cur_segment, &self.enc.buf);
        self.cur_len += frame_len;
        self.logged_since += frame_len as usize;
        self.stats.records += 1;
        self.stats.bytes += frame_len;
        self.records_since_checkpoint += 1;
        if self.dirty.is_none() {
            self.dirty = Some(Dirty { first_segment: self.cur_segment, since_us: now_us });
        }
    }

    /// Is there appended-but-unsynced data?
    pub fn wants_sync(&self) -> bool {
        self.dirty.is_some()
    }

    /// When the group-commit window of the oldest unsynced record expires.
    pub fn deadline_us(&self) -> Option<u64> {
        self.dirty.as_ref().map(|d| d.since_us + self.group_commit_us)
    }

    /// Fsync every segment with unsynced data — one group commit.
    pub fn sync(&mut self) {
        let Some(dirty) = self.dirty.take() else { return };
        for seg in dirty.first_segment..=self.cur_segment {
            self.disk.sync_segment(seg);
        }
        self.stats.syncs += 1;
    }

    pub fn checkpoint_due(&self) -> bool {
        self.checkpoint_every > 0 && self.records_since_checkpoint >= self.checkpoint_every
    }

    /// [`Wal::checkpoint_with`] of a whole part alone: the chain does not
    /// grow. Returns false (and keeps counting) if `whole` doesn't fit its
    /// area: the log then goes unpruned, and
    /// [`WalStats::skipped_checkpoints`] is the only trace, so callers
    /// surface it.
    #[must_use]
    pub fn checkpoint(&mut self, whole: &[u8]) -> bool {
        if !self.write_whole(whole) {
            return false;
        }
        self.commit(whole.len(), crc32(whole), 0);
        true
    }

    /// Write a checkpoint: sync the log, append the chunk `chunk` writes to
    /// the chain (nothing, if it writes nothing), persist the whole part
    /// `whole` writes into the inactive area, flip the meta page, and prune
    /// fully covered segments. Both parts are encoded into one buffer that
    /// is pre-sized so it does not regrow, and freed once written: between
    /// checkpoints the log holds no checkpoint-sized allocation. Returns
    /// false, having written nothing the device keeps, where
    /// [`Wal::checkpoint`] would: the caller still holds everything the
    /// chunk would have carried.
    #[must_use]
    pub fn checkpoint_with(
        &mut self,
        chunk: impl FnOnce(&mut Enc),
        whole: impl FnOnce(&mut Enc),
    ) -> bool {
        let mut enc =
            Enc::with_capacity(self.whole_hint + self.logged_since + PAGE_SIZE + FRAME_HEADER);
        whole(&mut enc);
        if !self.write_whole(&enc.buf) {
            return false;
        }
        let (whole_len, whole_crc) = (enc.buf.len(), crc32(&enc.buf));
        // The chunk goes behind the bytes the chain's last page already
        // holds, which are written again unchanged: page writes are whole.
        let page = CHAIN_BASE + self.chain_len / PAGE_SIZE as u64;
        let held = (self.chain_len % PAGE_SIZE as u64) as usize;
        enc.buf.clear();
        enc.buf.resize(held + FRAME_HEADER, 0);
        self.disk.read_run(page, &mut enc.buf[..held]);
        chunk(&mut enc);
        let run = &mut enc.buf;
        let mut appended = 0;
        if run.len() > held + FRAME_HEADER {
            let header = frame_header(&run[held + FRAME_HEADER..]);
            run[held..held + FRAME_HEADER].copy_from_slice(&header);
            self.disk.write_run(page, run);
            appended = (run.len() - held) as u64;
        }
        self.commit(whole_len, whole_crc, appended);
        true
    }

    /// The first half of every checkpoint: refuse a whole part that outgrows
    /// its area; otherwise sync the log and write the whole part to the
    /// inactive area.
    fn write_whole(&mut self, whole: &[u8]) -> bool {
        self.whole_hint = whole.len();
        if whole.len() as u64 > MAX_SNAPSHOT_PAGES * PAGE_SIZE as u64 {
            self.stats.skipped_checkpoints += 1;
            // Back off so the caller doesn't re-encode its state every turn.
            self.records_since_checkpoint = 0;
            self.logged_since = 0;
            return false;
        }
        // The checkpoint reflects state that includes unsynced records; sync
        // first so the meta page never points past durable data... and more
        // importantly so the caller can release held-back messages.
        self.sync();
        self.disk.write_run(area_base(self.epoch + 1), whole);
        true
    }

    /// The second half: once both parts are durable, write the meta page
    /// that records them — `chunk_frame` more bytes of chain — and prune the
    /// segments the checkpoint covers.
    fn commit(&mut self, whole_len: usize, whole_crc: u32, chunk_frame: u64) {
        // Both parts must be durable before the meta page that points at
        // them: a crash before the second sync leaves the old meta page — and
        // the other area and the shorter chain, untouched — in charge.
        self.disk.sync_pages();
        let next_epoch = self.epoch + 1;
        let meta = encode_meta(&Meta {
            epoch: next_epoch,
            whole_len: whole_len as u64,
            whole_crc,
            chain_len: self.chain_len + chunk_frame,
            wal_seg: self.cur_segment,
            wal_off: self.cur_len,
        });
        self.disk.write_run(next_epoch % 2, &meta);
        self.disk.sync_pages();
        self.epoch = next_epoch;
        self.chain_len += chunk_frame;
        // Everything before the current segment is covered by the checkpoint.
        for seg in self.disk.segment_ids() {
            if seg < self.cur_segment {
                self.disk.delete_segment(seg);
            }
        }
        self.records_since_checkpoint = 0;
        self.logged_since = 0;
        self.stats.checkpoints += 1;
        let chunk_payload = chunk_frame.saturating_sub(FRAME_HEADER as u64);
        self.stats.snapshot_bytes += whole_len as u64 + chunk_payload;
    }

    /// The node crashed: apply device crash semantics (lost unsynced pages,
    /// torn log tail) and drop every volatile view of the device.
    pub fn on_crash(&mut self) {
        self.disk.crash(self.torn_tail_seed);
        self.dirty = None;
    }

    /// Rescan the device after a crash, repairing torn tails, and hand back
    /// chain + whole part + surviving records for the protocol to replay.
    pub fn recover(&mut self) -> RecoveredLog {
        let (log, end) = scan(&mut self.disk, true);
        self.cur_segment = end.segment;
        self.cur_len = end.offset;
        self.epoch = end.epoch;
        self.chain_len = end.chain_len;
        self.dirty = None;
        self.records_since_checkpoint = log.records.len() as u64;
        self.whole_hint = log.whole.as_ref().map_or(0, Vec::len);
        self.logged_since = log.logged_bytes();
        self.disk.create_segment(self.cur_segment);
        self.stats.recoveries += 1;
        self.stats.replayed += log.records.len() as u64;
        self.stats.torn_bytes += end.torn_bytes;
        log
    }

    /// Offline, read-only scan of a device (no repair, no stats) — what a
    /// differential test uses to replay a node's log after a run.
    pub fn read_log(disk: &mut NodeDisk) -> RecoveredLog {
        scan(disk, false).0
    }
}

/// First page of the whole-part area checkpoint `epoch` writes.
fn area_base(epoch: u64) -> u64 {
    2 + (epoch % 2) * MAX_SNAPSHOT_PAGES
}

fn encode_meta(meta: &Meta) -> Vec<u8> {
    let mut buf = Vec::with_capacity(META_BODY + 4);
    buf.extend_from_slice(&META_MAGIC.to_le_bytes());
    buf.extend_from_slice(&meta.epoch.to_le_bytes());
    buf.extend_from_slice(&meta.whole_len.to_le_bytes());
    buf.extend_from_slice(&meta.whole_crc.to_le_bytes());
    buf.extend_from_slice(&meta.chain_len.to_le_bytes());
    buf.extend_from_slice(&meta.wal_seg.to_le_bytes());
    buf.extend_from_slice(&meta.wal_off.to_le_bytes());
    let crc = crc32(&buf);
    buf.extend_from_slice(&crc.to_le_bytes());
    buf
}

fn decode_meta(page: &[u8]) -> Option<Meta> {
    let (body, rest) = page.split_first_chunk::<META_BODY>()?;
    let stored_crc = u32::from_le_bytes(*rest.first_chunk::<4>()?);
    let u64_at = |at: usize| u64::from_le_bytes(body[at..at + 8].try_into().unwrap());
    let u32_at = |at: usize| u32::from_le_bytes(body[at..at + 4].try_into().unwrap());
    if crc32(body) != stored_crc || u32_at(0) != META_MAGIC {
        return None;
    }
    Some(Meta {
        epoch: u64_at(4),
        whole_len: u64_at(12),
        whole_crc: u32_at(20),
        chain_len: u64_at(24),
        wal_seg: u64_at(32),
        wal_off: u64_at(40),
    })
}

fn read_best_meta(disk: &mut NodeDisk) -> Option<Meta> {
    let mut pages = vec![0u8; 2 * PAGE_SIZE];
    disk.read_run(0, &mut pages);
    pages.chunks(PAGE_SIZE).filter_map(decode_meta).max_by_key(|meta| meta.epoch)
}

fn read_whole(disk: &mut NodeDisk, meta: &Meta) -> Option<Vec<u8>> {
    if meta.whole_len > MAX_SNAPSHOT_PAGES * PAGE_SIZE as u64 {
        return None;
    }
    let mut whole = vec![0u8; meta.whole_len as usize];
    disk.read_run(area_base(meta.epoch), &mut whole);
    (crc32(&whole) == meta.whole_crc).then_some(whole)
}

/// The chain's chunks, if its recorded length is exactly a run of intact
/// frames.
fn read_chain(disk: &mut NodeDisk, meta: &Meta) -> Option<Vec<Vec<u8>>> {
    let mut chain = vec![0u8; usize::try_from(meta.chain_len).ok()?];
    disk.read_run(CHAIN_BASE, &mut chain);
    let mut chunks = Vec::new();
    (read_frames(&chain, 0, &mut chunks) == chain.len()).then_some(chunks)
}

/// Walks the frames of `data` from `off`, pushing every intact payload.
/// Returns where it stopped: `data.len()` after a clean end, the start of
/// the first incomplete or checksum-failing frame otherwise.
fn read_frames(data: &[u8], mut off: usize, records: &mut Vec<Vec<u8>>) -> usize {
    while let Some((header, rest)) =
        data.get(off..).and_then(|tail| tail.split_first_chunk::<FRAME_HEADER>())
    {
        let Some(payload) = frame_len(header).and_then(|len| rest.get(..len)) else {
            break;
        };
        if !frame_matches(header, payload) {
            break;
        }
        records.push(payload.to_vec());
        off += FRAME_HEADER + payload.len();
    }
    off
}

/// The recovery scan. With `repair` set, torn tails are truncated away, dead
/// segments deleted, and surviving data marked durable.
fn scan(disk: &mut NodeDisk, repair: bool) -> (RecoveredLog, ScanEnd) {
    let meta = read_best_meta(disk);
    let checkpoint =
        meta.as_ref().and_then(|m| Some((m, read_chain(disk, m)?, read_whole(disk, m)?)));
    let (chunks, whole, chain_len, mut start_seg, mut start_off) = match checkpoint {
        Some((m, chunks, whole)) => (chunks, Some(whole), m.chain_len, m.wal_seg, m.wal_off),
        // No checkpoint; or a valid meta with an unreadable chain or whole
        // part, which means the device is damaged beyond the crash model:
        // recover what the raw log holds.
        None => (Vec::new(), None, 0, 0, 0),
    };
    let epoch = meta.map_or(0, |m| m.epoch);
    let ids = disk.segment_ids();
    if whole.is_none() {
        if let Some(&first) = ids.first() {
            start_seg = first.max(start_seg);
            start_off = if start_seg == ids[0] { start_off } else { 0 };
        }
    }
    let mut records = Vec::new();
    let mut torn_bytes = 0u64;
    let mut end_seg = start_seg;
    let mut end_off = start_off;
    let mut stopped = false;
    for &id in ids.iter().filter(|&&id| id >= start_seg) {
        if stopped {
            // Data after a torn frame is unreachable: count and drop it.
            torn_bytes += disk.segment_len(id);
            if repair {
                disk.delete_segment(id);
            }
            continue;
        }
        let (off, len) = disk.with_segment(id, |data| {
            let start = if id == start_seg { (start_off as usize).min(data.len()) } else { 0 };
            (read_frames(data, start, &mut records), data.len())
        });
        if off < len {
            torn_bytes += (len - off) as u64;
            stopped = true;
        }
        end_seg = id;
        end_off = off as u64;
        if stopped && repair {
            disk.truncate_segment(id, end_off);
        }
    }
    if repair {
        // Segments wholly covered by the checkpoint (a crash can land between
        // the meta flush and pruning on a real filesystem) are dead weight.
        for &id in ids.iter().filter(|&&id| id < start_seg) {
            disk.delete_segment(id);
        }
        disk.mark_all_synced();
    }
    (
        RecoveredLog { chunks, whole, records },
        ScanEnd { segment: end_seg, offset: end_off, epoch, chain_len, torn_bytes },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{StorageRegistry, WalOptions};

    fn mem_opts(registry: &StorageRegistry) -> WalOptions {
        WalOptions::mem(registry.clone())
    }

    fn record(i: u64) -> Vec<u8> {
        // Variable-length payloads so frame boundaries land at odd offsets.
        let mut v = i.to_le_bytes().to_vec();
        v.extend(std::iter::repeat_n(i as u8, (i % 13) as usize));
        v
    }

    /// A checkpoint of both parts, each copied in from a slice.
    fn checkpoint_both(wal: &mut Wal, chunk: &[u8], whole: &[u8]) -> bool {
        wal.checkpoint_with(
            |enc| {
                enc.raw(chunk);
            },
            |enc| {
                enc.raw(whole);
            },
        )
    }

    #[test]
    fn append_sync_reopen_round_trip() {
        let registry = StorageRegistry::new();
        let opts = mem_opts(&registry);
        let (mut wal, log) = Wal::open(&opts, "node");
        assert!(log.is_empty());
        for i in 0..50 {
            wal.append(&record(i), i);
        }
        wal.sync();
        let (_, log) = Wal::open(&opts, "node");
        assert!(log.whole.is_none() && log.chunks.is_empty());
        assert_eq!(log.records.len(), 50);
        for (i, rec) in log.records.iter().enumerate() {
            assert_eq!(rec, &record(i as u64));
        }
    }

    #[test]
    fn group_commit_window_and_deadline() {
        let registry = StorageRegistry::new();
        let opts = mem_opts(&registry).with_group_commit_us(500);
        let (mut wal, _) = Wal::open(&opts, "node");
        assert!(!wal.wants_sync());
        assert_eq!(wal.deadline_us(), None);
        wal.append(b"a", 1000);
        wal.append(b"b", 1200);
        assert!(wal.wants_sync());
        assert_eq!(wal.deadline_us(), Some(1500), "window anchored at the oldest append");
        wal.sync();
        assert!(!wal.wants_sync());
        assert_eq!(wal.stats().syncs, 1, "two appends shared one group commit");
    }

    #[test]
    fn crash_without_sync_loses_clean_tail() {
        let registry = StorageRegistry::new();
        let opts = mem_opts(&registry);
        let (mut wal, _) = Wal::open(&opts, "node");
        wal.append(&record(0), 0);
        wal.append(&record(1), 0);
        wal.sync();
        wal.append(&record(2), 0);
        wal.on_crash();
        let log = wal.recover();
        assert_eq!(log.records.len(), 2, "unsynced record vanished cleanly");
        assert_eq!(wal.stats().recoveries, 1);
        assert_eq!(wal.stats().replayed, 2);
        // The log keeps working after recovery.
        wal.append(&record(2), 0);
        wal.sync();
        let (_, log) = Wal::open(&opts, "node");
        assert_eq!(log.records.len(), 3);
    }

    #[test]
    fn torn_tails_recover_a_prefix_for_every_seed() {
        // Both large segments (no rotation) and 64-byte segments (the
        // unsynced run spans a rotation) must recover an exact prefix.
        for segment_bytes in [64 * 1024, 64] {
            for seed in 0..128 {
                let registry = StorageRegistry::new();
                let opts =
                    mem_opts(&registry).with_torn_tail_seed(seed).with_segment_bytes(segment_bytes);
                let (mut wal, _) = Wal::open(&opts, "node");
                for i in 0..5 {
                    wal.append(&record(i), 0);
                }
                wal.sync();
                for i in 5..12 {
                    wal.append(&record(i), 0);
                }
                wal.on_crash();
                let log = wal.recover();
                assert!(
                    log.records.len() >= 5,
                    "synced records must survive (seed {seed}, seg {segment_bytes})"
                );
                assert!(log.records.len() <= 12);
                for (i, rec) in log.records.iter().enumerate() {
                    assert_eq!(
                        rec,
                        &record(i as u64),
                        "recovered prefix must be intact (seed {seed}, seg {segment_bytes})"
                    );
                }
            }
        }
    }

    #[test]
    fn unsynced_rotation_crash_never_replays_past_a_lost_record() {
        // Regression: with 64-byte segments an unsynced run of appends spans
        // a segment rotation. Before append() synced at rotation, a crash
        // truncated the non-final segment to its frame-aligned synced prefix
        // — ending the scan cleanly — and then replayed parseable frames
        // from the next segment's torn tail (e.g. seed 24 recovered records
        // [0,1,2,8], silently dropping 3..=7). Recovery must always hand
        // back an exact, gap-free prefix of the append order.
        for seed in 0..128 {
            let registry = StorageRegistry::new();
            let opts = mem_opts(&registry).with_segment_bytes(64).with_torn_tail_seed(seed);
            let (mut wal, _) = Wal::open(&opts, "node");
            for i in 0..3 {
                wal.append(&record(i), 0);
            }
            wal.sync();
            for i in 3..9 {
                wal.append(&record(i), 0);
            }
            wal.on_crash();
            let log = wal.recover();
            assert!(log.records.len() >= 3, "synced records must survive (seed {seed})");
            assert!(log.records.len() <= 9);
            for (i, rec) in log.records.iter().enumerate() {
                assert_eq!(rec, &record(i as u64), "gap-free prefix required (seed {seed})");
            }
        }
    }

    #[test]
    fn truncating_the_final_record_at_every_byte_offset_recovers_a_prefix() {
        // Build a clean multi-record log image, then replay recovery against
        // every possible truncation point of the final frame (and, while
        // we're at it, every earlier offset too).
        let registry = StorageRegistry::new();
        let opts = mem_opts(&registry);
        let (mut wal, _) = Wal::open(&opts, "node");
        let mut boundaries = vec![0u64]; // frame-aligned offsets
        for i in 0..8 {
            wal.append(&record(i), 0);
            boundaries.push(wal.cur_len);
        }
        wal.sync();
        let image = registry.disk("node").read_segment(0);
        assert_eq!(*boundaries.last().unwrap() as usize, image.len());

        for cut in 0..=image.len() {
            let truncated = StorageRegistry::new();
            let disk = truncated.disk("victim");
            disk.create_segment(0);
            disk.append_segment(0, &image[..cut]);
            disk.sync_segment(0);
            let mut node_disk = NodeDisk::Mem(disk);
            let log = Wal::read_log(&mut node_disk);
            let expect = boundaries.iter().filter(|&&b| b > 0 && b as usize <= cut).count();
            assert_eq!(
                log.records.len(),
                expect,
                "cut at byte {cut}: expected the longest complete prefix"
            );
            for (i, rec) in log.records.iter().enumerate() {
                assert_eq!(rec, &record(i as u64));
            }
        }
    }

    #[test]
    fn corrupting_any_single_byte_never_panics_and_never_misreads() {
        let registry = StorageRegistry::new();
        let opts = mem_opts(&registry);
        let (mut wal, _) = Wal::open(&opts, "node");
        for i in 0..4 {
            wal.append(&record(i), 0);
        }
        wal.sync();
        let image = registry.disk("node").read_segment(0);
        for victim in 0..image.len() {
            let mut bytes = image.clone();
            bytes[victim] ^= 0x40;
            let reg = StorageRegistry::new();
            let disk = reg.disk("v");
            disk.create_segment(0);
            disk.append_segment(0, &bytes);
            disk.sync_segment(0);
            let mut node_disk = NodeDisk::Mem(disk);
            let log = Wal::read_log(&mut node_disk);
            // Every recovered record must be one of the originals, in order
            // — corruption may shorten the prefix, never fabricate data.
            // (A flipped length byte can alias a later frame boundary only
            // with a matching crc, which the checksum makes implausible.)
            assert!(log.records.len() <= 4);
            for (i, rec) in log.records.iter().enumerate() {
                assert_eq!(rec, &record(i as u64), "corrupt byte {victim}");
            }
        }
    }

    #[test]
    fn segment_rotation_and_multi_segment_recovery() {
        let registry = StorageRegistry::new();
        let opts = mem_opts(&registry).with_segment_bytes(64);
        let (mut wal, _) = Wal::open(&opts, "node");
        for i in 0..40 {
            wal.append(&record(i), 0);
        }
        wal.sync();
        assert!(registry.disk("node").segment_ids().len() > 1, "rotation happened");
        let (_, log) = Wal::open(&opts, "node");
        assert_eq!(log.records.len(), 40);
        for (i, rec) in log.records.iter().enumerate() {
            assert_eq!(rec, &record(i as u64));
        }
    }

    #[test]
    fn checkpoint_prunes_segments_and_recovery_resumes_from_snapshot() {
        let registry = StorageRegistry::new();
        let opts = mem_opts(&registry).with_segment_bytes(64).with_checkpoint_every(10);
        let (mut wal, _) = Wal::open(&opts, "node");
        for i in 0..10 {
            wal.append(&record(i), 0);
        }
        assert!(wal.checkpoint_due());
        let snapshot = b"state-after-ten".to_vec();
        assert!(wal.checkpoint(&snapshot));
        assert!(!wal.checkpoint_due());
        let segments_after = registry.disk("node").segment_ids();
        assert_eq!(segments_after.len(), 1, "older segments pruned");
        for i in 10..14 {
            wal.append(&record(i), 0);
        }
        wal.sync();
        wal.on_crash();
        let log = wal.recover();
        assert_eq!(log.whole.as_deref(), Some(&snapshot[..]));
        assert!(log.chunks.is_empty(), "a whole-only checkpoint grows no chain");
        assert_eq!(log.records.len(), 4, "only the post-checkpoint tail replays");
        assert_eq!(log.records[0], record(10));
    }

    #[test]
    fn checkpoint_ping_pong_survives_repeated_cycles() {
        let registry = StorageRegistry::new();
        let opts = mem_opts(&registry).with_checkpoint_every(5);
        let (mut wal, _) = Wal::open(&opts, "node");
        for round in 0u64..6 {
            for i in 0..5 {
                wal.append(&record(round * 5 + i), 0);
            }
            let snap = format!("round-{round}").into_bytes();
            assert!(wal.checkpoint(&snap));
            wal.on_crash();
            let log = wal.recover();
            assert_eq!(log.whole, Some(format!("round-{round}").into_bytes()));
            assert!(log.records.is_empty());
        }
        assert_eq!(wal.stats().checkpoints, 6);
    }

    /// Round `round`'s chunk: sizes that straddle page boundaries, so chunks
    /// share pages with their neighbours.
    fn chunk(round: u64) -> Vec<u8> {
        vec![0xC0 | round as u8; 3_000 + 700 * round as usize]
    }

    #[test]
    fn chunks_chain_up_across_checkpoints_crashes_and_reopens() {
        let registry = StorageRegistry::new();
        let opts = mem_opts(&registry).with_checkpoint_every(0);
        let (mut wal, _) = Wal::open(&opts, "node");
        let mut chain = Vec::new();
        for round in 1..=6u64 {
            wal.append(&record(round), 0);
            let chunk = chunk(round);
            let whole = format!("whole-{round}").into_bytes();
            let copied_before = registry.disk("node").page_bytes_copied();
            assert!(checkpoint_both(&mut wal, &chunk, &whole));
            // The checkpoint copied its chunk (with the chain's partial last
            // page in front), one page of whole part and a meta page: never
            // the chain before it.
            let copied = registry.disk("node").page_bytes_copied() - copied_before;
            let chunk_pages = (chunk.len() + FRAME_HEADER).div_ceil(PAGE_SIZE) + 1;
            assert!(copied <= ((chunk_pages + 2) * PAGE_SIZE) as u64, "round {round}: {copied}");
            chain.push(chunk);
            // An empty chunk appends nothing.
            wal.append(&record(100 + round), 0);
            assert!(checkpoint_both(&mut wal, &[], &whole));
            wal.on_crash();
            let log = wal.recover();
            assert_eq!(log.chunks, chain, "round {round}");
            assert_eq!(log.whole, Some(whole), "round {round}");
            assert!(log.records.is_empty(), "round {round}");
        }
        let framed: usize = chain.iter().map(|c| FRAME_HEADER + c.len()).sum();
        assert_eq!(wal.chain_len, framed as u64, "chunks are packed back to back");
        let payload: usize = chain.iter().map(Vec::len).sum();
        let wholes: usize = (1..=6).map(|r| 2 * format!("whole-{r}").len()).sum();
        assert_eq!(wal.stats().snapshot_bytes, (payload + wholes) as u64);
        // A process restart reads the same chain.
        drop(wal);
        let (_, log) = Wal::open(&opts, "node");
        assert_eq!(log.chunks, chain);
    }

    #[test]
    fn a_power_cut_at_any_step_of_a_checkpoint_keeps_the_previous_one() {
        // A checkpoint is five page-file operations: write the whole part,
        // write the chunk (none when it is empty), sync, write the meta page,
        // sync. Cut the power after each of them, on each of four consecutive
        // checkpoints (both areas and both meta pages take their turn as the
        // one being overwritten, and every chunk shares a page with the one
        // before): only a cut after the last may show the new checkpoint —
        // its whole part and its chunk — and every record appended since the
        // one that is recovered must replay. A chunk the cut orphans past
        // the recorded chain is never read, and the next checkpoint's chunk
        // overwrites it.
        for with_chunk in [false, true] {
            let page_ops = if with_chunk { 5 } else { 4 };
            for victim in 1u64..=4 {
                for ops_before_cut in 0u64..=page_ops {
                    let registry = StorageRegistry::new();
                    let opts = mem_opts(&registry).with_segment_bytes(64).with_checkpoint_every(0);
                    let (mut wal, _) = Wal::open(&opts, "node");
                    let whole = |round: u64| vec![round as u8; PAGE_SIZE + 100 * round as usize];
                    let chunk = |round: u64| if with_chunk { chunk(round) } else { Vec::new() };
                    for round in 1..=victim {
                        for i in 0..6 {
                            wal.append(&record(round * 6 + i), 0);
                        }
                        if round == victim {
                            // Acknowledged records are synced ones: the cut
                            // may take the checkpoint, never these.
                            wal.sync();
                            registry.disk("node").power_cut_after_page_ops(ops_before_cut);
                        }
                        assert!(checkpoint_both(&mut wal, &chunk(round), &whole(round)));
                    }
                    wal.on_crash();
                    let log = wal.recover();
                    let case = format!(
                        "checkpoint {victim} (chunk: {with_chunk}) cut after {ops_before_cut} page ops"
                    );
                    let durable = if ops_before_cut == page_ops { victim } else { victim - 1 };
                    let chain: Vec<Vec<u8>> =
                        (1..=durable).map(chunk).filter(|c| !c.is_empty()).collect();
                    assert_eq!(log.chunks, chain, "{case}: the old chain or the new, whole");
                    assert_eq!(log.whole, (durable > 0).then(|| whole(durable)), "{case}");
                    if durable == victim {
                        // Durable, though the segments it covers were never
                        // pruned: recovery's repair deletes them.
                        assert!(log.records.is_empty(), "{case}");
                        assert_eq!(registry.disk("node").segment_ids().len(), 1, "{case}");
                    } else {
                        let first = if victim > 1 { victim * 6 } else { 6 };
                        let tail: Vec<Vec<u8>> = (first..victim * 6 + 6).map(record).collect();
                        assert_eq!(log.records, tail, "{case}: the full log tail replays");
                    }
                    // The log keeps working, and the next checkpoint lands:
                    // its chunk goes where an orphan may lie.
                    wal.append(&record(99), 0);
                    let after = vec![0xAF; 5_000];
                    assert!(checkpoint_both(&mut wal, &after, b"after"));
                    wal.on_crash();
                    let log = wal.recover();
                    let chain: Vec<Vec<u8>> = chain.into_iter().chain([after]).collect();
                    assert_eq!(log.chunks, chain, "{case}");
                    assert_eq!(log.whole.as_deref(), Some(&b"after"[..]), "{case}");
                    assert!(log.records.is_empty(), "{case}");
                }
            }
        }
    }

    #[test]
    fn the_page_file_holds_two_snapshots_and_two_meta_pages_at_most() {
        for snapshot_bytes in [1usize, 4096, 91_000, 1 << 20] {
            let registry = StorageRegistry::new();
            let (mut wal, _) = Wal::open(&mem_opts(&registry), "node");
            let snapshot = vec![0x5Au8; snapshot_bytes];
            let bound = (2 * snapshot_bytes.div_ceil(PAGE_SIZE) * PAGE_SIZE + 2 * PAGE_SIZE) as u64;
            for round in 0..5 {
                assert!(wal.checkpoint(&snapshot));
                let resident = registry.disk("node").resident_page_bytes();
                assert!(
                    resident <= bound,
                    "{snapshot_bytes}-byte snapshot, checkpoint {round}: {resident} resident > {bound}"
                );
            }
            // And the device copied each snapshot once, plus its meta page.
            let per_checkpoint = registry.disk("node").page_bytes_copied() / 5;
            assert_eq!(per_checkpoint, bound / 2);
        }
    }

    #[test]
    fn the_page_file_holds_the_chain_once() {
        // Forty 4 KiB chunks beside a small whole part: the chain's pages,
        // two whole parts and two meta pages, whatever the cuts between
        // syncs left pending.
        let registry = StorageRegistry::new();
        let (mut wal, _) = Wal::open(&mem_opts(&registry), "node");
        for round in 0..40u8 {
            assert!(checkpoint_both(&mut wal, &[round; 4096], &[round; 100]));
        }
        let chain_pages = (40 * (4096 + FRAME_HEADER)).div_ceil(PAGE_SIZE);
        let resident = registry.disk("node").resident_page_bytes();
        assert_eq!(resident, ((chain_pages + 4) * PAGE_SIZE) as u64);
    }

    #[test]
    fn append_with_frames_what_append_frames() {
        let registry = StorageRegistry::new();
        let opts = mem_opts(&registry).with_segment_bytes(64);
        let (mut plain, _) = Wal::open(&opts, "plain");
        let (mut in_place, _) = Wal::open(&opts, "in-place");
        for i in 0..40 {
            plain.append(&record(i), i);
            in_place.append_with(i, |enc| {
                enc.u64(i).raw(&record(i)[8..]);
            });
        }
        assert_eq!(plain.stats(), in_place.stats());
        let (a, b) = (registry.disk("plain"), registry.disk("in-place"));
        assert_eq!(a.segment_ids(), b.segment_ids());
        for id in a.segment_ids() {
            assert_eq!(a.read_segment(id), b.read_segment(id), "segment {id}");
        }
    }

    #[test]
    fn a_checkpoint_leaves_no_snapshot_sized_buffer_behind() {
        let registry = StorageRegistry::new();
        let (mut wal, _) = Wal::open(&mem_opts(&registry), "node");
        let largest_frame = (0..40).map(|i| FRAME_HEADER + record(i).len()).max().unwrap();
        let mut chain = Vec::new();
        for round in 0..3u64 {
            for i in 0..40 {
                wal.append(&record(i), 0);
            }
            let hint = wal.whole_hint + wal.logged_since + PAGE_SIZE + FRAME_HEADER;
            let whole = vec![round as u8; 64 * 1024 + round as usize];
            let chunk = vec![0xC0 | round as u8; 900];
            let (mut whole_capacity, mut chunk_capacity) = (0, 0);
            assert!(wal.checkpoint_with(
                |enc| {
                    enc.raw(&chunk);
                    chunk_capacity = enc.buf.capacity();
                },
                |enc| {
                    enc.raw(&whole);
                    whole_capacity = enc.buf.capacity();
                },
            ));
            if round > 0 {
                // The last whole part plus the frames since: room enough for
                // both parts.
                assert_eq!(
                    [whole_capacity, chunk_capacity],
                    [hint; 2],
                    "round {round}: the buffer regrew"
                );
            }
            assert!(
                wal.enc.buf.capacity() <= largest_frame.next_power_of_two(),
                "round {round}: the log keeps {} bytes for {largest_frame}-byte frames",
                wal.enc.buf.capacity()
            );
            chain.push(chunk);
            let log = Wal::read_log(&mut NodeDisk::Mem(registry.disk("node")));
            assert_eq!(log.whole, Some(whole), "round {round}");
            assert_eq!(log.chunks, chain, "round {round}");
        }
        assert_eq!(wal.stats().snapshot_bytes, 3 * 64 * 1024 + 3 + 3 * 900);
    }

    #[test]
    fn empty_and_fresh_devices_recover_to_empty() {
        let registry = StorageRegistry::new();
        let (mut wal, log) = Wal::open(&mem_opts(&registry), "fresh");
        assert!(log.is_empty());
        wal.on_crash();
        let log = wal.recover();
        assert!(log.is_empty());
    }

    #[test]
    fn oversized_snapshot_is_skipped_not_fatal() {
        let registry = StorageRegistry::new();
        let opts = mem_opts(&registry).with_checkpoint_every(1);
        let (mut wal, _) = Wal::open(&opts, "node");
        wal.append(&record(0), 0);
        let huge = vec![0u8; MAX_SNAPSHOT_PAGES as usize * PAGE_SIZE + 1];
        assert!(!wal.checkpoint(&huge));
        assert!(!checkpoint_both(&mut wal, b"a chunk", &huge));
        assert_eq!(wal.stats().skipped_checkpoints, 2);
        assert_eq!(wal.chain_len, 0, "a skipped checkpoint appends no chunk");
        wal.sync();
        let (_, log) = Wal::open(&opts, "node");
        assert_eq!(log.records.len(), 1, "log intact after skipped checkpoint");
        assert!(log.chunks.is_empty());
    }
}
