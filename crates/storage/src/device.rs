//! Storage devices.
//!
//! A device holds two things for one node: a set of append-only log
//! *segments* and a random-access *page file*. [`MemDisk`] is the
//! deterministic in-process device the simulation plane uses; [`DirDisk`]
//! backs the live plane with real files and real fsyncs. [`NodeDisk`] is the
//! enum the WAL drives, so protocol code never sees which one it got.
//!
//! The page file is written and read in *runs*: `write_run(first_page,
//! bytes)` covers `ceil(len / PAGE_SIZE)` whole pages starting at
//! `first_page`, zero-filling the tail of the last one, and `read_run` fills
//! a buffer from consecutive pages (never-written bytes read as zeroes).

use std::collections::BTreeMap;
use std::fs::{self, File, OpenOptions};
use std::io::{ErrorKind, Read, Seek, SeekFrom, Write};
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard};

/// Page size in bytes. Page writes are assumed atomic at this granularity
/// (the standard WAL assumption); torn *pages* are out of scope — the meta
/// pages are crc-guarded and ping-ponged instead.
pub const PAGE_SIZE: usize = 4096;

type Page = Box<[u8]>;

/// In-process device with explicit synced/unsynced boundaries.
///
/// Cloning yields another handle to the same device (the registry hands these
/// out), so a test can keep a handle across a run and inspect — or
/// offline-replay — the log the node left behind.
#[derive(Clone, Default)]
pub struct MemDisk {
    inner: Arc<Mutex<MemDiskInner>>,
}

#[derive(Default)]
struct MemDiskInner {
    segments: BTreeMap<u64, MemSegment>,
    /// Page file as last written, sparse: a page nobody wrote reads as
    /// zeroes and costs nothing.
    pages: BTreeMap<u64, Page>,
    /// For every page written since the last `sync_pages`, its durable image
    /// (`None`: the page did not exist). Page writes are assumed atomic at
    /// page granularity; a crash puts these back, so an unsynced page write
    /// is lost wholesale. A sync just forgets them — every page-file
    /// operation costs O(pages written since the last sync).
    undo: BTreeMap<u64, Option<Page>>,
    /// Bytes copied into or within the page file (observability: the
    /// storage profile's `device_bytes_per_snapshot_byte`).
    page_bytes_copied: u64,
    crashes: u64,
    /// Test-only power cut: page-file operations left before the device
    /// ignores every mutation (until `crash`).
    #[cfg(test)]
    page_ops_until_power_cut: Option<u64>,
}

#[derive(Default)]
struct MemSegment {
    data: Vec<u8>,
    synced: usize,
}

/// xorshift64* — tiny deterministic generator for torn-tail injection.
fn mix(mut x: u64) -> u64 {
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

impl MemDisk {
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> MutexGuard<'_, MemDiskInner> {
        self.inner.lock().expect("a MemDisk operation panicked mid-update")
    }

    /// Locks the device for a mutation. `None` means the mutation is to be
    /// dropped: a test cut the power (never happens outside tests).
    fn mutate(&self) -> Option<MutexGuard<'_, MemDiskInner>> {
        let inner = self.lock();
        #[cfg(test)]
        if inner.page_ops_until_power_cut == Some(0) {
            return None;
        }
        Some(inner)
    }

    pub fn segment_ids(&self) -> Vec<u64> {
        self.lock().segments.keys().copied().collect()
    }

    pub fn segment_len(&self, id: u64) -> u64 {
        self.lock().segments.get(&id).map_or(0, |s| s.data.len() as u64)
    }

    /// Runs `f` over segment `id`'s bytes (empty if absent) without copying
    /// them. The device stays locked meanwhile: `f` must not call back into
    /// this device.
    pub fn with_segment<R>(&self, id: u64, f: impl FnOnce(&[u8]) -> R) -> R {
        f(self.lock().segments.get(&id).map_or(&[][..], |s| &s.data))
    }

    pub fn read_segment(&self, id: u64) -> Vec<u8> {
        self.with_segment(id, <[u8]>::to_vec)
    }

    pub fn create_segment(&self, id: u64) {
        let Some(mut inner) = self.mutate() else { return };
        inner.segments.entry(id).or_default();
    }

    pub fn append_segment(&self, id: u64, bytes: &[u8]) {
        let Some(mut inner) = self.mutate() else { return };
        inner.segments.entry(id).or_default().data.extend_from_slice(bytes);
    }

    pub fn sync_segment(&self, id: u64) {
        let Some(mut inner) = self.mutate() else { return };
        if let Some(seg) = inner.segments.get_mut(&id) {
            seg.synced = seg.data.len();
        }
    }

    pub fn truncate_segment(&self, id: u64, len: u64) {
        let Some(mut inner) = self.mutate() else { return };
        if let Some(seg) = inner.segments.get_mut(&id) {
            seg.data.truncate(len as usize);
            seg.synced = seg.synced.min(seg.data.len());
        }
    }

    pub fn delete_segment(&self, id: u64) {
        let Some(mut inner) = self.mutate() else { return };
        inner.segments.remove(&id);
    }

    /// Mark everything currently on the device as synced (recovery does this
    /// after trimming torn tails: whatever survived the crash is durable).
    pub fn mark_all_synced(&self) {
        let Some(mut inner) = self.mutate() else { return };
        for seg in inner.segments.values_mut() {
            seg.synced = seg.data.len();
        }
        inner.undo.clear();
    }

    pub fn read_run(&self, first_page: u64, buf: &mut [u8]) {
        let inner = self.lock();
        for (page, chunk) in (first_page..).zip(buf.chunks_mut(PAGE_SIZE)) {
            match inner.pages.get(&page) {
                Some(data) => chunk.copy_from_slice(&data[..chunk.len()]),
                None => chunk.fill(0),
            }
        }
    }

    pub fn write_run(&self, first_page: u64, bytes: &[u8]) {
        let Some(mut inner) = self.mutate() else { return };
        inner.count_page_op();
        for (page, chunk) in (first_page..).zip(bytes.chunks(PAGE_SIZE)) {
            inner.write_page(page, chunk);
        }
    }

    pub fn sync_pages(&self) {
        let Some(mut inner) = self.mutate() else { return };
        inner.count_page_op();
        inner.undo.clear();
    }

    /// Apply crash semantics: unsynced page writes vanish; every segment is
    /// truncated to its synced prefix — except that, when `torn_seed` is set,
    /// the *last* segment keeps a seeded pseudo-random prefix of its unsynced
    /// tail, possibly with the final surviving byte corrupted. That models a
    /// partial write caught mid-flight and is what the recovery scan's
    /// checksum discipline exists for.
    pub fn crash(&self, torn_seed: Option<u64>) {
        let mut inner = self.lock();
        let inner = &mut *inner;
        #[cfg(test)]
        {
            inner.page_ops_until_power_cut = None;
        }
        inner.crashes += 1;
        for (page, durable) in std::mem::take(&mut inner.undo) {
            match durable {
                Some(data) => inner.pages.insert(page, data),
                None => inner.pages.remove(&page),
            };
        }
        let last = inner.segments.keys().next_back().copied();
        for (&id, seg) in inner.segments.iter_mut() {
            let tail = seg.data.len() - seg.synced;
            let torn_seed = torn_seed.filter(|_| Some(id) == last && tail > 0);
            let Some(seed) = torn_seed else {
                seg.data.truncate(seg.synced);
                continue;
            };
            let r = mix(seed ^ inner.crashes.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let keep = (r as usize) % (tail + 1);
            seg.data.truncate(seg.synced + keep);
            if keep > 0 && (r >> 33) & 3 == 0 {
                // One in four torn tails ends in a flipped bit.
                let bit = ((r >> 35) % 8) as u8;
                seg.data[seg.synced + keep - 1] ^= 1 << bit;
            }
        }
    }

    pub fn crashes(&self) -> u64 {
        self.lock().crashes
    }

    /// Bytes the page file holds in memory: resident pages plus the durable
    /// images of pages written since the last sync.
    #[cfg(test)]
    pub(crate) fn resident_page_bytes(&self) -> u64 {
        let inner = self.lock();
        let held = inner.pages.len() + inner.undo.values().flatten().count();
        (held * PAGE_SIZE) as u64
    }

    /// Bytes copied into or within the page file so far. A sync or a crash
    /// copies none (page ownership moves), so per checkpoint this is the
    /// snapshot rounded up to pages plus one meta page.
    pub fn page_bytes_copied(&self) -> u64 {
        self.lock().page_bytes_copied
    }

    /// Test hook: after `ops` more page-file operations (`write_run`,
    /// `sync_pages`) the device drops every mutation, as if the power went,
    /// until `crash` brings it back.
    #[cfg(test)]
    pub(crate) fn power_cut_after_page_ops(&self, ops: u64) {
        self.lock().page_ops_until_power_cut = Some(ops);
    }
}

impl MemDiskInner {
    fn count_page_op(&mut self) {
        #[cfg(test)]
        if let Some(left) = &mut self.page_ops_until_power_cut {
            *left -= 1;
        }
    }

    /// Writes one page (`bytes` may be shorter; the rest is zero-filled),
    /// saving its durable image first unless an earlier write since the last
    /// sync already did.
    fn write_page(&mut self, page: u64, bytes: &[u8]) {
        self.page_bytes_copied += PAGE_SIZE as u64;
        if self.undo.contains_key(&page) {
            let data =
                self.pages.get_mut(&page).expect("a page written since the sync is resident");
            data[..bytes.len()].copy_from_slice(bytes);
            data[bytes.len()..].fill(0);
        } else {
            let mut data = Vec::with_capacity(PAGE_SIZE);
            data.extend_from_slice(bytes);
            data.resize(PAGE_SIZE, 0);
            let durable = self.pages.insert(page, data.into_boxed_slice());
            self.undo.insert(page, durable);
        }
    }
}

/// Filesystem-backed device: `wal-NNNNNN.seg` files plus `pages.db` in one
/// directory per node. Syncs are real `fdatasync`s. `crash()` is a no-op —
/// the live plane cannot un-write the OS page cache; crash *semantics* are
/// exercised deterministically on [`MemDisk`].
pub struct DirDisk {
    dir: PathBuf,
    handles: BTreeMap<u64, File>,
    pages: Option<File>,
}

impl DirDisk {
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(DirDisk { dir, handles: BTreeMap::new(), pages: None })
    }

    fn segment_path(&self, id: u64) -> PathBuf {
        self.dir.join(format!("wal-{id:06}.seg"))
    }

    /// Fsync the directory itself so segment create/delete survive an OS
    /// crash — `sync_data` on a file does not persist its directory entry.
    fn sync_dir(&self) {
        let dir = File::open(&self.dir)
            .unwrap_or_else(|e| panic!("open dir {}: {e}", self.dir.display()));
        dir.sync_all().unwrap_or_else(|e| panic!("fsync dir {}: {e}", self.dir.display()));
    }

    fn segment_file(&mut self, id: u64) -> &mut File {
        let path = self.segment_path(id);
        if !self.handles.contains_key(&id) {
            let existed = path.exists();
            let file = OpenOptions::new()
                .read(true)
                .append(true)
                .create(true)
                .open(&path)
                .unwrap_or_else(|e| panic!("open {}: {e}", path.display()));
            if !existed {
                self.sync_dir();
            }
            self.handles.insert(id, file);
        }
        self.handles.get_mut(&id).unwrap()
    }

    fn pages_file(&mut self) -> &mut File {
        let path = self.dir.join("pages.db");
        self.pages.get_or_insert_with(|| {
            OpenOptions::new()
                .read(true)
                .write(true)
                .create(true)
                // An existing page file survives reopen: it IS the durable
                // state recovery reads.
                .truncate(false)
                .open(&path)
                .unwrap_or_else(|e| panic!("open {}: {e}", path.display()))
        })
    }

    pub fn segment_ids(&self) -> Vec<u64> {
        let mut ids = Vec::new();
        if let Ok(entries) = fs::read_dir(&self.dir) {
            for entry in entries.flatten() {
                let name = entry.file_name();
                let name = name.to_string_lossy();
                if let Some(num) = name.strip_prefix("wal-").and_then(|n| n.strip_suffix(".seg")) {
                    if let Ok(id) = num.parse() {
                        ids.push(id);
                    }
                }
            }
        }
        ids.sort_unstable();
        ids
    }

    pub fn segment_len(&self, id: u64) -> u64 {
        fs::metadata(self.segment_path(id)).map_or(0, |m| m.len())
    }

    pub fn read_segment(&mut self, id: u64) -> Vec<u8> {
        let mut buf = Vec::new();
        let file = self.segment_file(id);
        file.seek(SeekFrom::Start(0)).expect("seek segment");
        file.read_to_end(&mut buf).expect("read segment");
        buf
    }

    pub fn create_segment(&mut self, id: u64) {
        let _ = self.segment_file(id);
    }

    pub fn append_segment(&mut self, id: u64, bytes: &[u8]) {
        let file = self.segment_file(id);
        file.seek(SeekFrom::End(0)).expect("seek segment end");
        file.write_all(bytes).expect("append segment");
    }

    pub fn sync_segment(&mut self, id: u64) {
        self.segment_file(id).sync_data().expect("fsync segment");
    }

    pub fn truncate_segment(&mut self, id: u64, len: u64) {
        // Repair truncation must itself be durable: without the fsync an OS
        // crash after recovery could resurrect the truncated torn bytes.
        let file = self.segment_file(id);
        file.set_len(len).expect("truncate segment");
        file.sync_data().expect("fsync truncated segment");
    }

    pub fn delete_segment(&mut self, id: u64) {
        self.handles.remove(&id);
        if fs::remove_file(self.segment_path(id)).is_ok() {
            self.sync_dir();
        }
    }

    pub fn read_run(&mut self, first_page: u64, buf: &mut [u8]) {
        let file = self.pages_file();
        file.seek(SeekFrom::Start(first_page * PAGE_SIZE as u64)).expect("seek page");
        let mut filled = 0;
        while filled < buf.len() {
            match file.read(&mut buf[filled..]) {
                Ok(0) => break, // past the end of the file: never written
                Ok(n) => filled += n,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => panic!("read page file: {e}"),
            }
        }
        buf[filled..].fill(0);
    }

    pub fn write_run(&mut self, first_page: u64, bytes: &[u8]) {
        static ZEROES: [u8; PAGE_SIZE] = [0; PAGE_SIZE];
        let file = self.pages_file();
        file.seek(SeekFrom::Start(first_page * PAGE_SIZE as u64)).expect("seek page");
        file.write_all(bytes).expect("write pages");
        file.write_all(&ZEROES[..bytes.len().next_multiple_of(PAGE_SIZE) - bytes.len()])
            .expect("zero-fill the last page");
    }

    pub fn sync_pages(&mut self) {
        self.pages_file().sync_data().expect("fsync pages");
    }
}

/// The device handle a [`crate::wal::Wal`] drives.
pub enum NodeDisk {
    Mem(MemDisk),
    Dir(DirDisk),
}

impl NodeDisk {
    pub fn segment_ids(&self) -> Vec<u64> {
        match self {
            NodeDisk::Mem(d) => d.segment_ids(),
            NodeDisk::Dir(d) => d.segment_ids(),
        }
    }

    pub fn segment_len(&self, id: u64) -> u64 {
        match self {
            NodeDisk::Mem(d) => d.segment_len(id),
            NodeDisk::Dir(d) => d.segment_len(id),
        }
    }

    /// Runs `f` over segment `id`'s bytes; the memory device lends them
    /// without a copy (see [`MemDisk::with_segment`]).
    pub fn with_segment<R>(&mut self, id: u64, f: impl FnOnce(&[u8]) -> R) -> R {
        match self {
            NodeDisk::Mem(d) => d.with_segment(id, f),
            NodeDisk::Dir(d) => f(&d.read_segment(id)),
        }
    }

    pub fn create_segment(&mut self, id: u64) {
        match self {
            NodeDisk::Mem(d) => d.create_segment(id),
            NodeDisk::Dir(d) => d.create_segment(id),
        }
    }

    pub fn append_segment(&mut self, id: u64, bytes: &[u8]) {
        match self {
            NodeDisk::Mem(d) => d.append_segment(id, bytes),
            NodeDisk::Dir(d) => d.append_segment(id, bytes),
        }
    }

    pub fn sync_segment(&mut self, id: u64) {
        match self {
            NodeDisk::Mem(d) => d.sync_segment(id),
            NodeDisk::Dir(d) => d.sync_segment(id),
        }
    }

    pub fn truncate_segment(&mut self, id: u64, len: u64) {
        match self {
            NodeDisk::Mem(d) => d.truncate_segment(id, len),
            NodeDisk::Dir(d) => d.truncate_segment(id, len),
        }
    }

    pub fn delete_segment(&mut self, id: u64) {
        match self {
            NodeDisk::Mem(d) => d.delete_segment(id),
            NodeDisk::Dir(d) => d.delete_segment(id),
        }
    }

    pub fn read_run(&mut self, first_page: u64, buf: &mut [u8]) {
        match self {
            NodeDisk::Mem(d) => d.read_run(first_page, buf),
            NodeDisk::Dir(d) => d.read_run(first_page, buf),
        }
    }

    pub fn write_run(&mut self, first_page: u64, bytes: &[u8]) {
        match self {
            NodeDisk::Mem(d) => d.write_run(first_page, bytes),
            NodeDisk::Dir(d) => d.write_run(first_page, bytes),
        }
    }

    pub fn sync_pages(&mut self) {
        match self {
            NodeDisk::Mem(d) => d.sync_pages(),
            NodeDisk::Dir(d) => d.sync_pages(),
        }
    }

    /// Crash semantics (torn tails, lost unsynced pages) apply to the memory
    /// device; the live plane keeps its files as the OS left them.
    pub fn crash(&mut self, torn_seed: Option<u64>) {
        if let NodeDisk::Mem(d) = self {
            d.crash(torn_seed);
        }
    }

    /// Mark current contents durable (post-recovery baseline).
    pub fn mark_all_synced(&mut self) {
        if let NodeDisk::Mem(d) = self {
            d.mark_all_synced();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_disk_crash_truncates_to_synced_prefix() {
        let disk = MemDisk::new();
        disk.create_segment(0);
        disk.append_segment(0, b"durable");
        disk.sync_segment(0);
        disk.append_segment(0, b"-volatile");
        disk.crash(None);
        assert_eq!(disk.read_segment(0), b"durable");
        // A second handle sees the same state.
        let other = disk.clone();
        assert_eq!(other.read_segment(0), b"durable");
    }

    #[test]
    fn mem_disk_torn_tail_is_deterministic_and_bounded() {
        let run = |seed| {
            let disk = MemDisk::new();
            disk.create_segment(0);
            disk.append_segment(0, b"durable");
            disk.sync_segment(0);
            disk.append_segment(0, b"0123456789");
            disk.crash(Some(seed));
            disk.read_segment(0)
        };
        for seed in 0..64 {
            let a = run(seed);
            let b = run(seed);
            assert_eq!(a, b, "torn tail must be seed-deterministic");
            assert!(a.len() >= b"durable".len() && a.len() <= b"durable".len() + 10);
            assert_eq!(&a[..7], b"durable", "synced prefix must survive intact");
        }
        // Across seeds the surviving tail actually varies.
        let lens: std::collections::BTreeSet<usize> = (0..64).map(|s| run(s).len()).collect();
        assert!(lens.len() > 3, "expected varied torn-tail lengths, got {lens:?}");
    }

    #[test]
    fn mem_disk_pages_lose_unsynced_writes_on_crash() {
        let disk = MemDisk::new();
        let page_a = [0xAAu8; PAGE_SIZE];
        let page_b = [0xBBu8; PAGE_SIZE];
        disk.write_run(0, &page_a);
        disk.sync_pages();
        disk.write_run(0, &page_b);
        disk.write_run(1, &page_b);
        disk.crash(None);
        let mut buf = [0u8; PAGE_SIZE];
        disk.read_run(0, &mut buf);
        assert_eq!(buf, page_a);
        disk.read_run(1, &mut buf);
        assert_eq!(buf, [0u8; PAGE_SIZE]);
    }

    /// The page file this device used to be — one flat byte vector plus a
    /// whole-file copy as of the last sync — kept as the oracle for the
    /// sparse one's crash semantics.
    #[derive(Default)]
    struct FlatPageFile {
        pages: Vec<u8>,
        durable_pages: Vec<u8>,
    }

    impl FlatPageFile {
        fn read_run(&self, first_page: u64, buf: &mut [u8]) {
            buf.fill(0);
            let off = first_page as usize * PAGE_SIZE;
            if off < self.pages.len() {
                let end = (off + buf.len()).min(self.pages.len());
                buf[..end - off].copy_from_slice(&self.pages[off..end]);
            }
        }

        fn write_run(&mut self, first_page: u64, bytes: &[u8]) {
            let off = first_page as usize * PAGE_SIZE;
            let end = off + bytes.len().next_multiple_of(PAGE_SIZE);
            if self.pages.len() < end {
                self.pages.resize(end, 0);
            }
            self.pages[off..off + bytes.len()].copy_from_slice(bytes);
            self.pages[off + bytes.len()..end].fill(0);
        }

        fn sync_pages(&mut self) {
            self.durable_pages = self.pages.clone();
        }

        fn crash(&mut self) {
            self.pages = self.durable_pages.clone();
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// Random page-file histories read the same on the sparse device and
        /// on the flat-file oracle, after every step and page by page at the
        /// end.
        #[test]
        fn sparse_page_file_equals_the_flat_file_oracle(
            ops in proptest::collection::vec((0u8..10, 0u64..24, 0usize..=3 * PAGE_SIZE, proptest::any::<u8>()), 1..60),
        ) {
            let disk = MemDisk::new();
            let mut oracle = FlatPageFile::default();
            for (kind, page, len, fill) in ops {
                match kind {
                    // A whole page, a run with a ragged tail, an empty run.
                    0..=2 => {
                        let bytes = vec![fill; PAGE_SIZE];
                        disk.write_run(page, &bytes);
                        oracle.write_run(page, &bytes);
                    }
                    3..=5 => {
                        let bytes: Vec<u8> = (0..len).map(|i| fill.wrapping_add(i as u8)).collect();
                        disk.write_run(page, &bytes);
                        oracle.write_run(page, &bytes);
                    }
                    6 => {
                        disk.sync_pages();
                        oracle.sync_pages();
                    }
                    7 => {
                        disk.crash(None);
                        oracle.crash();
                    }
                    8 => {
                        disk.mark_all_synced();
                        oracle.sync_pages();
                    }
                    _ => {}
                }
                let (mut got, mut want) = (vec![1u8; len], vec![2u8; len]);
                disk.read_run(page, &mut got);
                oracle.read_run(page, &mut want);
                proptest::prop_assert_eq!(got, want, "read of {} bytes at page {}", len, page);
            }
            for page in 0..28 {
                let (mut got, mut want) = ([1u8; PAGE_SIZE], [2u8; PAGE_SIZE]);
                disk.read_run(page, &mut got);
                oracle.read_run(page, &mut want);
                proptest::prop_assert_eq!(&got[..], &want[..], "page {}", page);
            }
            // And what a crash would leave is the same too.
            disk.crash(None);
            oracle.crash();
            for page in 0..28 {
                let (mut got, mut want) = ([1u8; PAGE_SIZE], [2u8; PAGE_SIZE]);
                disk.read_run(page, &mut got);
                oracle.read_run(page, &mut want);
                proptest::prop_assert_eq!(&got[..], &want[..], "page {} after the final crash", page);
            }
        }
    }

    #[test]
    fn page_file_costs_what_was_written_not_where() {
        let disk = MemDisk::new();
        // A page far into the file costs one page, not the gap before it.
        disk.write_run(2 + 4096, &[7u8; 10]);
        assert_eq!(disk.resident_page_bytes(), PAGE_SIZE as u64);
        assert_eq!(disk.page_bytes_copied(), PAGE_SIZE as u64);
        disk.sync_pages();
        assert_eq!(disk.page_bytes_copied(), PAGE_SIZE as u64, "a sync copies nothing");
        // Overwriting a synced page holds its durable image until the sync.
        disk.write_run(2 + 4096, &[8u8; 10]);
        assert_eq!(disk.resident_page_bytes(), 2 * PAGE_SIZE as u64);
        disk.sync_pages();
        assert_eq!(disk.resident_page_bytes(), PAGE_SIZE as u64);
    }

    #[test]
    fn a_power_cut_drops_every_later_mutation_until_the_crash() {
        let disk = MemDisk::new();
        disk.power_cut_after_page_ops(1);
        disk.write_run(0, &[1u8; PAGE_SIZE]);
        disk.sync_pages(); // dropped: the power is gone
        disk.append_segment(0, b"lost");
        assert_eq!(disk.read_segment(0), b"");
        disk.crash(None);
        let mut buf = [9u8; PAGE_SIZE];
        disk.read_run(0, &mut buf);
        assert_eq!(buf, [0u8; PAGE_SIZE], "the write never got its sync");
        disk.append_segment(0, b"back");
        assert_eq!(disk.read_segment(0), b"back");
    }

    #[test]
    fn dir_disk_round_trips_segments_and_pages() {
        let dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/tmp"))
            .join(format!("storage-device-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        {
            let mut disk = DirDisk::open(&dir).unwrap();
            disk.append_segment(0, b"hello ");
            disk.append_segment(0, b"world");
            disk.sync_segment(0);
            disk.append_segment(3, b"later");
            let mut page = [0u8; PAGE_SIZE];
            page[..4].copy_from_slice(b"page");
            disk.write_run(2, &page[..4]);
            disk.sync_pages();
        }
        {
            let mut disk = DirDisk::open(&dir).unwrap();
            assert_eq!(disk.segment_ids(), vec![0, 3]);
            assert_eq!(disk.read_segment(0), b"hello world");
            assert_eq!(disk.read_segment(3), b"later");
            let mut buf = [0u8; PAGE_SIZE];
            disk.read_run(2, &mut buf);
            assert_eq!(&buf[..4], b"page");
            assert_eq!(disk.pages_file().metadata().unwrap().len(), 3 * PAGE_SIZE as u64);
            disk.read_run(7, &mut buf);
            assert_eq!(buf, [0u8; PAGE_SIZE], "unwritten pages read as zeroes");
            disk.truncate_segment(0, 5);
            assert_eq!(disk.read_segment(0), b"hello");
            disk.delete_segment(3);
            assert_eq!(disk.segment_ids(), vec![0]);
        }
        let _ = fs::remove_dir_all(&dir);
    }
}
