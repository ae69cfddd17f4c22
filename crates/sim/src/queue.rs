//! Arena-backed indexed event queues for the discrete-event engine.
//!
//! The engine's hot loop is push/pop on a priority queue keyed by
//! `(time, seq)`. The seed implementation was a `BinaryHeap` of whole
//! event entries, which memcpy'd every payload (protocol messages carry
//! `Vec`s of writes) `O(log n)` times per sift. This module rebuilds the
//! queue the way PR 1 rebuilt the checker — on dense indices:
//!
//! * **Arena** ([`EventId`]): payloads are written into a slab slot exactly
//!   once, at [`SimQueue::alloc`], and moved out exactly once, at
//!   [`SimQueue::pop`]. Nothing is cloned in between; the only cloning API
//!   is [`SimQueue::alloc_duplicate`], which the engine uses for the one
//!   path that semantically *is* a copy (`Delivery::Duplicate`).
//! * **Calendar time wheel**: near-future events (the common case — message
//!   latencies and service times are micro- to milliseconds) land in one of
//!   [`NUM_BUCKETS`] buckets of [`BUCKET_WIDTH_US`] µs. A bucket is a FIFO
//!   list of compact 24-byte `(time, seq, slot)` refs linked through one
//!   shared arena, so scheduling an event is an O(1) append. When the
//!   cursor reaches a bucket, its refs move once into the *cursor run*,
//!   sorted by `(time, seq)`, and pops take the run's front. A ref scheduled
//!   into the bucket the cursor already holds (a busy re-key, a proxy, an
//!   event due within the same 64 µs) is binary-inserted into the run; its
//!   key is most often the largest yet or, for a run queue's next front,
//!   the smallest, so it lands at or near one end.
//! * **Heap fallback for far timers**: events beyond the wheel's span
//!   (commit timeouts, crash windows seconds away) overflow into a small
//!   binary heap of refs and are folded back into the wheel as its horizon
//!   advances past them.
//!
//! # The busy path
//!
//! An event that reaches the global head while its node is still serving
//! another is re-keyed `(busy_until, fresh seq)` by [`SimQueue::defer_head`]
//! (the contract is the engine's: [`crate::engine`], "Time model"). The ref
//! does not go back into the wheel: it is *parked* in its node's run queue
//! — a `VecDeque` whose keys ascend, since a node's busy instants never move
//! backwards and seqs are fresh — and the wheel holds one *proxy* ref per
//! non-empty run queue, keyed like its front. Every head is found at the
//! same `(time, seq)` as if the parked refs were in the wheel, and a waiting
//! event costs the wheel nothing per service slot. A proxy popped (its node
//! is free, or crashed) yields the front's payload and goes back in keyed
//! like the next front. A proxy deferred (its node is busy) re-keys the
//! front and, in the same pass, every following front that shares its
//! instant and precedes the wheel's next head: each would have been the
//! next global head, of the same busy node at the same instant, and been
//! deferred likewise with the next seq before any other event could be
//! served or scheduled. The pass hands out exactly those consecutive seqs
//! and stops where another node's event comes first, so same-instant ties
//! across nodes resolve as before.
//!
//! # Capacity
//!
//! The bucket lists share one arena of links, and a drained list's links
//! are reused, so the arena never holds more links than were listed at
//! once — where 4 096 separately allocated buckets would each keep the
//! largest burst they ever held. Bursts are real: a crashed node's timers
//! are all deferred to its recovery instant, and thousands of refs land in
//! one bucket at once. They pass through the cursor run when the cursor
//! reaches them, and a run that drains with room for more than
//! `BUCKET_KEEP_REFS` refs gives the excess back, so one burst does not
//! stay allocated there for the rest of the run. Shrinking an empty run
//! moves no ref, so pop order is untouched.
//!
//! Pops are in strict global `(time, seq)` order — the exact order the seed
//! heap produced — so a fixed seed replays to a byte-identical history on
//! either implementation. That equivalence is pinned by the differential
//! tests below and in `tests/queue_determinism.rs`, against
//! [`QueueKind::ReferenceHeap`], a retained reference implementation that
//! reproduces the seed engine's heap-of-whole-entries layout (and its cost
//! profile, which is what `benches/engine_hotpath.rs` measures against).

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use crate::time::SimTime;

/// Which event-queue implementation an engine runs on.
///
/// Selected through `EngineConfig::queue`; harness configs surface it so
/// differential tests and the `engine_hotpath` bench can A/B full protocol
/// runs. Both implementations pop in identical `(time, seq)` order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueueKind {
    /// The arena + calendar-wheel queue (the default).
    #[default]
    Indexed,
    /// The seed engine's `BinaryHeap`-of-whole-entries layout, retained as
    /// the reference for differential tests and benchmarks.
    ReferenceHeap,
}

/// Handle to an event payload parked in the queue's arena.
///
/// Returned by [`SimQueue::alloc`]; the payload does nothing until the id is
/// [`SimQueue::schedule`]d. The type is `#[must_use]` so a call site cannot
/// silently allocate (or clone) a payload and drop the handle — the mistake
/// that used to reintroduce per-message clones.
#[must_use = "an allocated event does nothing until it is scheduled"]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventId(u32);

/// Bucket width of the calendar wheel, in microseconds (64 µs — the scale
/// of service times and single-DC latencies, so dense workloads spread over
/// many buckets instead of piling into one).
const BUCKET_SHIFT: u32 = 6;
/// Bucket width of the calendar wheel, in microseconds.
pub const BUCKET_WIDTH_US: u64 = 1 << BUCKET_SHIFT;
/// Number of wheel buckets; the wheel spans `NUM_BUCKETS * BUCKET_WIDTH_US`
/// µs (~0.26 s) of near future — past every WAN latency and commit wait —
/// beyond which events overflow to the heap.
pub const NUM_BUCKETS: usize = 4_096;
/// Words of the bucket-occupancy bitmap.
const OCCUPANCY_WORDS: usize = NUM_BUCKETS / 64;
/// The most refs a drained cursor run keeps room for (64 × 24 B = 1.5 KiB;
/// the most crowded buckets of a durable single-DC run load 33–64): see the
/// module docs, "Capacity".
const BUCKET_KEEP_REFS: usize = 64;

/// A compact reference to an arena slot, ordered by `(time, seq)`.
///
/// `target` packs the event's destination node and the power-event flag
/// (bit 31), so the engine can route busy-deferral decisions from the ref
/// alone — [`SimQueue::defer_head`] never touches the payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct EventRef {
    time: SimTime,
    seq: u64,
    slot: u32,
    target: u32,
}

impl EventRef {
    /// `(time, seq)` as one integer, so that sorting a loaded bucket and
    /// placing a late arrival compare without branching on the time. Every
    /// schedule and re-key draws a fresh seq, so no two refs in the wheel
    /// tie.
    fn key(&self) -> u128 {
        u128::from(self.time.as_micros()) << 64 | u128::from(self.seq)
    }
}

impl Ord for EventRef {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

impl PartialOrd for EventRef {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Bit 31 of a packed target: set for power (crash/recover) events, which
/// bypass the CPU/busy model.
const POWER_BIT: u32 = 1 << 31;

/// The `slot` of a run-queue proxy: a wheel ref with no payload of its own
/// that stands for the front of its target node's run queue, under the
/// front's key. The arena never hands this slot out.
const PROXY_SLOT: u32 = u32::MAX;

fn pack_target(node: usize, power: bool) -> u32 {
    let node = u32::try_from(node).expect("node id fits u31");
    assert!(node & POWER_BIT == 0, "node id fits u31");
    node | if power { POWER_BIT } else { 0 }
}

/// The end of a bucket list, and of the free-link chain.
const NIL: u32 = u32::MAX;

/// One listed ref and the arena index of the next link in its bucket (or,
/// for a free link, of the next free link).
#[derive(Debug, Clone, Copy)]
struct Link {
    entry: EventRef,
    next: u32,
}

/// A bucket's list: arena indices of its first and last links, `NIL` when
/// the bucket is empty.
#[derive(Debug, Clone, Copy)]
struct Bucket {
    head: u32,
    tail: u32,
}

impl Bucket {
    const EMPTY: Bucket = Bucket { head: NIL, tail: NIL };
}

/// The arena + calendar-wheel queue.
///
/// Radix bucketing does the coarse (64 µs) ordering, one sort of the bucket
/// the cursor reaches the fine ordering — and nothing ever moves a payload.
/// A saturated node's backlog never piles into a bucket: it waits in that
/// node's run queue behind one proxy ref.
struct IndexedQueue<T> {
    /// Slab of payloads; `None` slots are free.
    slots: Vec<Option<T>>,
    /// Free slot ids, reused LIFO.
    free: Vec<u32>,
    /// The wheel: bucket `abs % NUM_BUCKETS` lists, in arrival order, the
    /// refs whose absolute bucket index `abs` is in
    /// `(min_abs, min_abs + NUM_BUCKETS)`. The cursor bucket's own refs are
    /// in `cursor_run`, never in its list.
    buckets: Box<[Bucket]>,
    /// Every bucket's links; free ones are chained from `free_link`.
    links: Vec<Link>,
    /// First free link, `NIL` if none.
    free_link: u32,
    /// One bit per bucket: set iff the bucket's list is non-empty. Lets the
    /// cursor leap over empty stretches with `trailing_zeros` instead of
    /// walking them bucket by bucket.
    occupancy: [u64; OCCUPANCY_WORDS],
    /// Absolute bucket index of the wheel cursor (earliest live bucket).
    min_abs: u64,
    /// The refs of bucket `min_abs`, and of any instant before it, by
    /// `(time, seq)`: every one precedes every listed ref.
    cursor_run: VecDeque<EventRef>,
    /// Events beyond the wheel horizon, by `(time, seq)`.
    overflow: BinaryHeap<Reverse<EventRef>>,
    /// Refs in bucket lists (not the cursor run or the overflow), proxies
    /// included.
    listed: usize,
    /// Scheduled events, wherever their refs wait (proxies do not count).
    len: usize,
    /// Per-node run queues of busy-deferred refs, keys ascending. A
    /// non-empty one has exactly one proxy in the wheel or the overflow.
    runs: Vec<VecDeque<EventRef>>,
    /// Ref moves the wheel and the overflow made: see [`SimQueue::queue_ops`].
    queue_ops: u64,
}

impl<T> IndexedQueue<T> {
    fn new() -> Self {
        IndexedQueue {
            slots: Vec::new(),
            free: Vec::new(),
            buckets: vec![Bucket::EMPTY; NUM_BUCKETS].into_boxed_slice(),
            links: Vec::new(),
            free_link: NIL,
            occupancy: [0; OCCUPANCY_WORDS],
            min_abs: 0,
            cursor_run: VecDeque::new(),
            overflow: BinaryHeap::new(),
            listed: 0,
            len: 0,
            runs: Vec::new(),
            queue_ops: 0,
        }
    }

    /// The first occupied bucket after `bucket(min_abs)`, in circular
    /// order, as an offset from the cursor. Only called with `listed > 0`.
    fn next_occupied_offset(&self) -> u64 {
        let start = (self.min_abs % NUM_BUCKETS as u64) as usize;
        let (start_word, start_bit) = (start / 64, start % 64);
        // First word: mask off bits before the cursor.
        let masked = self.occupancy[start_word] & (!0u64 << start_bit);
        if masked != 0 {
            return masked.trailing_zeros() as u64 - start_bit as u64;
        }
        // Subsequent words, wrapping circularly; the final step re-reads the
        // first word, whose pre-cursor bits are buckets almost a full
        // rotation ahead (still in-span).
        for step in 1..=OCCUPANCY_WORDS {
            let word = self.occupancy[(start_word + step) % OCCUPANCY_WORDS];
            if word != 0 {
                let bit = word.trailing_zeros() as u64;
                return step as u64 * 64 - start_bit as u64 + bit;
            }
        }
        unreachable!("listed > 0 but no occupied bucket found")
    }

    fn alloc(&mut self, payload: T) -> u32 {
        match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = Some(payload);
                slot
            }
            None => {
                assert!(self.slots.len() < PROXY_SLOT as usize, "event arena exceeds u32 slots");
                self.slots.push(Some(payload));
                self.slots.len() as u32 - 1
            }
        }
    }

    /// Absolute wheel bucket of an instant.
    fn abs_bucket(time: SimTime) -> u64 {
        time.as_micros() >> BUCKET_SHIFT
    }

    /// Places a ref (an event's or a proxy's) in the cursor run, a bucket
    /// list or the overflow.
    fn insert(&mut self, entry: EventRef) {
        let abs = Self::abs_bucket(entry.time);
        self.queue_ops += 1;
        if abs >= self.min_abs + NUM_BUCKETS as u64 {
            self.overflow.push(Reverse(entry));
        } else if abs > self.min_abs {
            self.append((abs % NUM_BUCKETS as u64) as usize, entry);
        } else if self.cursor_run.back().is_none_or(|back| *back < entry) {
            // The cursor's bucket (or, never from the engine, which only
            // schedules at or after `now`, one before it): the usual late
            // arrival has the largest key yet.
            self.cursor_run.push_back(entry);
        } else if entry < self.cursor_run[0] {
            // Keyed before every loaded ref: the next front of a run queue
            // whose proxy was just popped, or an event due at the instant
            // just served.
            self.cursor_run.push_front(entry);
        } else {
            let at = self.cursor_run.partition_point(|queued| *queued < entry);
            let shifted = at.min(self.cursor_run.len() - at);
            self.queue_ops += shifted as u64;
            self.cursor_run.insert(at, entry);
        }
    }

    /// Appends a ref to a bucket's list.
    fn append(&mut self, bucket: usize, entry: EventRef) {
        let link = Link { entry, next: NIL };
        let index = if self.free_link == NIL {
            assert!(self.links.len() < NIL as usize, "wheel arena exceeds u32 links");
            self.links.push(link);
            self.links.len() as u32 - 1
        } else {
            let index = self.free_link;
            self.free_link = self.links[index as usize].next;
            self.links[index as usize] = link;
            index
        };
        let list = &mut self.buckets[bucket];
        if list.head == NIL {
            list.head = index;
            self.occupancy[bucket / 64] |= 1 << (bucket % 64);
        } else {
            self.links[list.tail as usize].next = index;
        }
        list.tail = index;
        self.listed += 1;
    }

    /// Folds overflow events that now fall inside the wheel horizon back
    /// into the wheel.
    fn drain_overflow(&mut self) {
        let horizon = self.min_abs + NUM_BUCKETS as u64;
        while let Some(&Reverse(entry)) = self.overflow.peek() {
            if Self::abs_bucket(entry.time) >= horizon {
                break;
            }
            self.overflow.pop();
            self.queue_ops += 1;
            self.insert(entry);
        }
    }

    /// Makes the cursor run hold the queue's minimum ref: once the run has
    /// drained, advances the cursor to the first occupied bucket (leaping
    /// straight to the overflow's first bucket when no bucket lists a ref)
    /// and moves that bucket's list into the run, sorted. The run stays
    /// empty only on an empty queue.
    fn load_cursor(&mut self) {
        if !self.cursor_run.is_empty() {
            return;
        }
        if self.listed == 0 {
            // Everything lives past the horizon: leap the wheel to the
            // earliest overflow event's bucket, which the fold below puts
            // in the cursor run.
            if let Some(&Reverse(first)) = self.overflow.peek() {
                self.min_abs = Self::abs_bucket(first.time);
                self.drain_overflow();
            }
            return;
        }
        self.min_abs += self.next_occupied_offset();
        let bucket = (self.min_abs % NUM_BUCKETS as u64) as usize;
        let Bucket { head, tail } = std::mem::replace(&mut self.buckets[bucket], Bucket::EMPTY);
        self.occupancy[bucket / 64] &= !(1 << (bucket % 64));
        let mut link = head;
        while link != NIL {
            let Link { entry, next } = self.links[link as usize];
            self.cursor_run.push_back(entry);
            link = next;
        }
        // The drained list joins the free chain whole.
        self.links[tail as usize].next = self.free_link;
        self.free_link = head;
        self.listed -= self.cursor_run.len();
        self.queue_ops += self.cursor_run.len() as u64;
        self.cursor_run.make_contiguous().sort_unstable();
        // Restore the overflow invariant for the advanced horizon (folded
        // events land after the new cursor, so one fold settles it).
        self.drain_overflow();
    }

    fn peek_head(&mut self) -> Option<EventRef> {
        self.load_cursor();
        self.cursor_run.front().copied()
    }

    /// Removes and returns the head ref (an event's or a proxy's).
    fn pop_head_ref(&mut self) -> Option<EventRef> {
        self.load_cursor();
        let entry = self.cursor_run.pop_front()?;
        if self.cursor_run.is_empty() && self.cursor_run.capacity() > BUCKET_KEEP_REFS {
            self.cursor_run.shrink_to(BUCKET_KEEP_REFS);
        }
        self.queue_ops += 1;
        Some(entry)
    }

    fn pop(&mut self) -> Option<(SimTime, T)> {
        let mut entry = self.pop_head_ref()?;
        if entry.slot == PROXY_SLOT {
            // The head is parked: serve it, and re-key the proxy to the next.
            let run = &mut self.runs[(entry.target & !POWER_BIT) as usize];
            entry = run.pop_front().expect("a proxy stands for a non-empty run queue");
            if let Some(&next) = run.front() {
                self.insert(EventRef { slot: PROXY_SLOT, ..next });
            }
        }
        self.len -= 1;
        let payload = self.slots[entry.slot as usize].take().expect("scheduled slot is occupied");
        self.free.push(entry.slot);
        Some((entry.time, payload))
    }

    /// [`SimQueue::defer_head`] as the module docs' "The busy path" describes
    /// it, drawing fresh seqs from `seq`.
    fn defer_head(&mut self, new_time: SimTime, seq: &mut u64) {
        let head = self.pop_head_ref().expect("defer_head on an empty queue");
        let node = (head.target & !POWER_BIT) as usize;
        if self.runs.len() <= node {
            self.runs.resize_with(node + 1, VecDeque::new);
        }
        // What keeps a run queue sorted: deferrals of one node never move
        // backwards in time, and seqs are fresh.
        let ascends = self.runs[node].back().is_none_or(|back| back.time <= new_time);
        assert!(ascends, "node {node} deferred to before an event it already parked");
        let mut rekeyed = |entry: EventRef| {
            let entry = EventRef { time: new_time, seq: *seq, ..entry };
            *seq += 1;
            entry
        };
        if head.slot != PROXY_SLOT {
            // A fresh arrival at a busy node joins the back of its run.
            self.runs[node].push_back(rekeyed(head));
            if self.runs[node].len() > 1 {
                return;
            }
        } else {
            // Keys ascend, so the fronts to re-key are a prefix (never
            // empty: the head was the front); re-keyed in place, in order,
            // it is the run queue's new tail.
            let limit = self.peek_head();
            let run = &mut self.runs[node];
            let pass = run.partition_point(|front| {
                front.time == head.time && limit.is_none_or(|limit| *front < limit)
            });
            for front in run.iter_mut().take(pass) {
                *front = rekeyed(*front);
            }
            run.rotate_left(pass);
        }
        self.insert(EventRef { slot: PROXY_SLOT, ..self.runs[node][0] });
    }
}

/// The seed engine's queue layout, retained as the differential-testing and
/// benchmarking reference: a binary heap whose entries carry the whole
/// payload (so every sift moves it).
struct HeapEntry<T> {
    time: SimTime,
    seq: u64,
    target: u32,
    payload: T,
}

impl<T> PartialEq for HeapEntry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<T> Eq for HeapEntry<T> {}
impl<T> PartialOrd for HeapEntry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for HeapEntry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// Reference queue: payloads allocated into a small pending list, moved into
/// the heap at schedule time (reproducing the seed engine's cost profile).
struct HeapQueue<T> {
    pending: Vec<(u32, T)>,
    next_pending: u32,
    heap: BinaryHeap<Reverse<HeapEntry<T>>>,
}

impl<T> HeapQueue<T> {
    fn new() -> Self {
        HeapQueue { pending: Vec::new(), next_pending: 0, heap: BinaryHeap::new() }
    }

    fn alloc(&mut self, payload: T) -> u32 {
        let id = self.next_pending;
        self.next_pending = self.next_pending.wrapping_add(1);
        self.pending.push((id, payload));
        id
    }

    fn take_pending(&mut self, id: u32) -> T {
        let pos = self
            .pending
            .iter()
            .position(|(p, _)| *p == id)
            .expect("event id was allocated and not yet scheduled");
        self.pending.swap_remove(pos).1
    }
}

/// The engine-facing event queue: one arena-id API over both implementations.
///
/// The lifecycle of every event is `alloc` (payload moves into the queue
/// exactly once) then `schedule` (the event gets its tie-breaking sequence
/// number, in call order) then `pop` (payload moves out). Sequence numbers
/// are assigned at `schedule` time, so for an identical sequence of calls
/// both [`QueueKind`]s pop in the identical global `(time, seq)` order.
pub struct SimQueue<T> {
    inner: QueueImpl<T>,
    /// Tie-breaking sequence counter, assigned at `schedule` time. It lives
    /// here (not per implementation) so both kinds share the exact
    /// assignment discipline.
    seq: u64,
    /// Events re-keyed by `defer_head`.
    deferrals: u64,
}

// One queue exists per engine, so the variants' inline-size difference (the
// wheel's occupancy bitmap lives inline) costs nothing per event.
#[allow(clippy::large_enum_variant)]
enum QueueImpl<T> {
    Indexed(IndexedQueue<T>),
    Heap(HeapQueue<T>),
}

impl<T> SimQueue<T> {
    /// Creates an empty queue of the given kind.
    pub fn new(kind: QueueKind) -> Self {
        let inner = match kind {
            QueueKind::Indexed => QueueImpl::Indexed(IndexedQueue::new()),
            QueueKind::ReferenceHeap => QueueImpl::Heap(HeapQueue::new()),
        };
        SimQueue { inner, seq: 0, deferrals: 0 }
    }

    /// The kind this queue was created with.
    pub fn kind(&self) -> QueueKind {
        match &self.inner {
            QueueImpl::Indexed(_) => QueueKind::Indexed,
            QueueImpl::Heap(_) => QueueKind::ReferenceHeap,
        }
    }

    /// Parks `payload` in the arena and returns its handle. The payload is
    /// inert until [`SimQueue::schedule`] is called with the handle.
    pub fn alloc(&mut self, payload: T) -> EventId {
        match &mut self.inner {
            QueueImpl::Indexed(q) => EventId(q.alloc(payload)),
            QueueImpl::Heap(q) => EventId(q.alloc(payload)),
        }
    }

    /// Clones the (allocated but not yet scheduled) payload behind `of` into
    /// a fresh arena slot — the only cloning path in the queue, used by the
    /// engine exclusively for `Delivery::Duplicate`.
    pub fn alloc_duplicate(&mut self, of: EventId) -> EventId
    where
        T: Clone,
    {
        match &mut self.inner {
            QueueImpl::Indexed(q) => {
                let copy =
                    q.slots[of.0 as usize].clone().expect("duplicated event must be allocated");
                EventId(q.alloc(copy))
            }
            QueueImpl::Heap(q) => {
                let copy = q
                    .pending
                    .iter()
                    .find(|(p, _)| *p == of.0)
                    .map(|(_, payload)| payload.clone())
                    .expect("duplicated event must be pending");
                EventId(q.alloc(copy))
            }
        }
    }

    /// Schedules an allocated event at `time`, assigning it the next
    /// tie-breaking sequence number (same-instant events pop in schedule
    /// order). `node` is the destination node and `power` marks
    /// crash/recover events; both ride on the queue ref so the engine can
    /// answer "who is this for?" — and defer it — without reading the
    /// payload.
    pub fn schedule(&mut self, time: SimTime, id: EventId, node: usize, power: bool) {
        let seq = self.seq;
        self.seq += 1;
        let target = pack_target(node, power);
        match &mut self.inner {
            QueueImpl::Indexed(q) => {
                q.insert(EventRef { time, seq, slot: id.0, target });
                q.len += 1;
            }
            QueueImpl::Heap(q) => {
                let payload = q.take_pending(id.0);
                q.heap.push(Reverse(HeapEntry { time, seq, target, payload }));
            }
        }
    }

    /// Number of scheduled (not yet popped) events.
    pub fn len(&self) -> usize {
        match &self.inner {
            QueueImpl::Indexed(q) => q.len,
            QueueImpl::Heap(q) => q.heap.len(),
        }
    }

    /// True if no events are scheduled.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The instant of the earliest scheduled event, without removing it.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.peek_head().map(|(time, _, _)| time)
    }

    /// The `(time, node, power)` routing header of the earliest scheduled
    /// event, without removing it.
    pub fn peek_head(&mut self) -> Option<(SimTime, usize, bool)> {
        let (time, target) = match &mut self.inner {
            QueueImpl::Indexed(q) => q.peek_head().map(|e| (e.time, e.target))?,
            QueueImpl::Heap(q) => q.heap.peek().map(|Reverse(e)| (e.time, e.target))?,
        };
        Some((time, (target & !POWER_BIT) as usize, target & POWER_BIT != 0))
    }

    /// Reschedules the earliest event at `new_time` with a fresh sequence
    /// number — the busy-deferral path: the head's node is serving another
    /// event until `new_time`, later than the head's instant. The caller
    /// promises the same call for every later head of that node at that
    /// instant that nothing else precedes (the engine's busy check depends
    /// on the head's node and instant alone); the indexed queue re-keys that
    /// whole run in this one call, with the seqs those calls would draw. The
    /// reference heap pops and re-pushes one whole entry per call, which is
    /// exactly what the seed engine's deferral did.
    ///
    /// # Panics
    ///
    /// Panics if the queue is empty, or if `new_time` precedes an earlier
    /// deferral of the same node that is still queued.
    pub fn defer_head(&mut self, new_time: SimTime) {
        let first_seq = self.seq;
        match &mut self.inner {
            QueueImpl::Indexed(q) => q.defer_head(new_time, &mut self.seq),
            QueueImpl::Heap(q) => {
                let seq = self.seq;
                self.seq += 1;
                let Reverse(entry) = q.heap.pop().expect("defer_head on an empty queue");
                q.heap.push(Reverse(HeapEntry { time: new_time, seq, ..entry }));
            }
        }
        self.deferrals += self.seq - first_seq;
    }

    /// Events re-keyed by [`SimQueue::defer_head`] so far, on either kind.
    pub fn deferrals(&self) -> u64 {
        self.deferrals
    }

    /// Ref moves the indexed queue made so far: one per ref appended to a
    /// bucket list, moved from a list into the cursor run, popped from the
    /// run, pushed on or popped off the overflow heap, or shifted aside by
    /// an insert into the middle of the run (the one sort of a loaded
    /// bucket is not counted). Zero on the reference heap, which has none
    /// of these.
    pub fn queue_ops(&self) -> u64 {
        match &self.inner {
            QueueImpl::Indexed(q) => q.queue_ops,
            QueueImpl::Heap(_) => 0,
        }
    }

    /// Removes and returns the earliest scheduled event.
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        match &mut self.inner {
            QueueImpl::Indexed(q) => q.pop(),
            QueueImpl::Heap(q) => q.heap.pop().map(|Reverse(e)| (e.time, e.payload)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn push(q: &mut SimQueue<u64>, time_us: u64, payload: u64) {
        let id = q.alloc(payload);
        q.schedule(SimTime::from_micros(time_us), id, 0, false);
    }

    fn drain(q: &mut SimQueue<u64>) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        while let Some((t, p)) = q.pop() {
            out.push((t.as_micros(), p));
        }
        out
    }

    #[test]
    fn pops_in_time_order_with_schedule_order_ties() {
        for kind in [QueueKind::Indexed, QueueKind::ReferenceHeap] {
            let mut q = SimQueue::new(kind);
            push(&mut q, 50, 1);
            push(&mut q, 10, 2);
            push(&mut q, 10, 3); // same instant: must pop after payload 2
            push(&mut q, 7, 4);
            assert_eq!(q.peek_time(), Some(SimTime::from_micros(7)));
            assert_eq!(drain(&mut q), vec![(7, 4), (10, 2), (10, 3), (50, 1)], "{kind:?}");
            assert!(q.is_empty());
        }
    }

    #[test]
    fn far_timers_overflow_and_fold_back() {
        let mut q = SimQueue::new(QueueKind::Indexed);
        // Beyond the wheel span from t=0.
        let far = NUM_BUCKETS as u64 * BUCKET_WIDTH_US * 3 + 17;
        push(&mut q, far, 1);
        push(&mut q, 5, 2);
        assert_eq!(q.pop(), Some((SimTime::from_micros(5), 2)));
        // The wheel is empty now; the pop must leap to the overflow event.
        assert_eq!(q.pop(), Some((SimTime::from_micros(far), 1)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn interleaved_push_pop_preserves_global_order() {
        let mut q = SimQueue::new(QueueKind::Indexed);
        push(&mut q, 100, 1);
        push(&mut q, 200, 2);
        assert_eq!(q.pop(), Some((SimTime::from_micros(100), 1)));
        // Push earlier than the remaining event but later than the last pop.
        push(&mut q, 150, 3);
        push(&mut q, 150, 4);
        assert_eq!(q.pop(), Some((SimTime::from_micros(150), 3)));
        push(&mut q, 150, 5); // same bucket as the cursor, after a pop
        assert_eq!(drain(&mut q), vec![(150, 4), (150, 5), (200, 2)]);
    }

    #[test]
    fn duplicate_allocates_a_clone() {
        for kind in [QueueKind::Indexed, QueueKind::ReferenceHeap] {
            let mut q: SimQueue<u64> = SimQueue::new(kind);
            let a = q.alloc(9);
            let b = q.alloc_duplicate(a);
            q.schedule(SimTime::from_micros(1), a, 0, false);
            q.schedule(SimTime::from_micros(2), b, 0, false);
            assert_eq!(drain(&mut q), vec![(1, 9), (2, 9)], "{kind:?}");
        }
    }

    /// Payloads at or above this are power events: `CRASH` or `RECOVER`.
    const CRASH: u64 = 1 << 40;
    const RECOVER: u64 = CRASH + 1;

    /// Per-node service times of [`BusyModel`], in µs: never busy, within a
    /// bucket, a few buckets, and past the wheel's whole span (so that
    /// node's deferrals, and its run queue's proxy, land in the overflow).
    const SERVICE_US: [u64; 4] = [0, 40, 900, NUM_BUCKETS as u64 * BUCKET_WIDTH_US + 5_000];

    /// The engine's busy model over a bare queue, so the busy path can be
    /// differential-tested below the engine: the head is served unless its
    /// node is still serving (then it is deferred to the busy instant), a
    /// crashed node's events are popped and lost, power events flip the
    /// crash state and skip the busy check.
    struct BusyModel {
        q: SimQueue<u64>,
        busy_until: [SimTime; 4],
        crashed: [bool; 4],
    }

    impl BusyModel {
        fn new(kind: QueueKind) -> Self {
            BusyModel {
                q: SimQueue::new(kind),
                busy_until: [SimTime::ZERO; 4],
                crashed: [false; 4],
            }
        }

        fn push(&mut self, time_us: u64, node: usize, payload: u64) {
            let id = self.q.alloc(payload);
            self.q.schedule(SimTime::from_micros(time_us), id, node, payload >= CRASH);
        }

        /// One turn of the engine's loop: defers busy heads until one can be
        /// popped, and pops it.
        fn serve(&mut self) -> Option<(SimTime, u64)> {
            loop {
                let (time, node, power) = self.q.peek_head()?;
                if !power && !self.crashed[node] && self.busy_until[node] > time {
                    self.q.defer_head(self.busy_until[node]);
                    continue;
                }
                let (time, payload) = self.q.pop().expect("peeked head exists");
                if power {
                    self.crashed[node] = payload == CRASH;
                    self.busy_until[node] = time;
                } else if !self.crashed[node] {
                    self.busy_until[node] =
                        time + crate::time::SimDuration::from_micros(SERVICE_US[node]);
                }
                return Some((time, payload));
            }
        }
    }

    /// Serves both models once and checks they agree on what was served and
    /// on everything observable about what is left.
    fn serve_both(wheel: &mut BusyModel, heap: &mut BusyModel) -> Option<(SimTime, u64)> {
        let served = wheel.serve();
        assert_eq!(served, heap.serve(), "pop order diverged");
        assert_eq!(wheel.q.len(), heap.q.len());
        assert_eq!(wheel.q.deferrals(), heap.q.deferrals());
        assert_eq!(wheel.q.peek_head(), heap.q.peek_head(), "next head diverged");
        served
    }

    /// The pin for byte-identical replay: any interleaving of schedules and
    /// engine turns — pops, busy deferrals, crashes — produces the same pop
    /// sequence on both implementations, including same-instant tie-breaks
    /// (between events, and between a parked run and other nodes' events)
    /// and wheel/overflow boundaries.
    #[test]
    fn randomized_differential_wheel_vs_reference_heap() {
        let mut deferrals = 0;
        for trial in 0..50u64 {
            let mut rng = SmallRng::seed_from_u64(trial);
            let mut wheel = BusyModel::new(QueueKind::Indexed);
            let mut heap = BusyModel::new(QueueKind::ReferenceHeap);
            let mut now = 0u64;
            let mut next_payload = 0u64;
            let mut popped = Vec::new();
            for _ in 0..600 {
                if rng.gen_bool(0.6) || wheel.q.is_empty() {
                    // Schedules are at or after the latest pop, like the
                    // engine's. Mix of near (same bucket), mid (in-span), and
                    // far (overflow) horizons, with deliberate exact ties:
                    // with the latest pop, and with the instant a busy node
                    // frees up — where its parked run is keyed.
                    let node = rng.gen_range(0..4usize);
                    let time = match rng.gen_range(0..10u32) {
                        0..=3 => now + rng.gen_range(0..BUCKET_WIDTH_US),
                        4..=5 => now + rng.gen_range(0..NUM_BUCKETS as u64 * BUCKET_WIDTH_US),
                        6 => now,
                        7..=8 => wheel.busy_until[rng.gen_range(0..4usize)].as_micros().max(now),
                        _ => now + rng.gen_range(0..4 * NUM_BUCKETS as u64 * BUCKET_WIDTH_US),
                    };
                    let payload = if rng.gen_bool(0.02) { CRASH } else { next_payload };
                    next_payload += 1;
                    for model in [&mut wheel, &mut heap] {
                        model.push(time, node, payload);
                        if payload == CRASH {
                            model.push(time + 1_500, node, RECOVER);
                        }
                    }
                } else {
                    let served = serve_both(&mut wheel, &mut heap).expect("non-empty");
                    now = served.0.as_micros();
                    popped.push(served);
                }
                assert_eq!(wheel.q.len(), heap.q.len());
                assert_eq!(wheel.q.peek_head(), heap.q.peek_head(), "trial {trial} peek diverged");
            }
            while let Some(served) = serve_both(&mut wheel, &mut heap) {
                popped.push(served);
            }
            assert!(wheel.q.is_empty() && heap.q.is_empty());
            // And the pop sequence is globally sorted by time.
            for w in popped.windows(2) {
                assert!(w[0].0 <= w[1].0);
            }
            deferrals += wheel.q.deferrals();
        }
        assert!(deferrals > 50 * 600, "the busy path was barely exercised: {deferrals} deferrals");
    }

    /// The storm shape: N same-instant arrivals at one busy node, another
    /// node's events wedged between their seqs at every busy instant, and a
    /// crash of the busy node mid-backlog. Pops follow the reference heap,
    /// and the wheel does O(1) work per event — every ref an insert shifts
    /// aside in the cursor run counted — where deferring through it costs a
    /// pop and a push per deferral, ~N²/2 of them.
    #[test]
    fn storm_at_a_busy_node_costs_the_wheel_constant_work_per_event() {
        const N: u64 = 400;
        let mut wheel = BusyModel::new(QueueKind::Indexed);
        let mut heap = BusyModel::new(QueueKind::ReferenceHeap);
        let mut events = 0;
        let mut push_both = |wheel: &mut BusyModel, heap: &mut BusyModel, time, node, payload| {
            wheel.push(time, node, payload);
            heap.push(time, node, payload);
            events += 1;
        };
        // Node 2 (900 µs a turn) takes the storm; every tenth arrival is
        // followed by one for node 0, which is never busy.
        for i in 0..N {
            push_both(&mut wheel, &mut heap, 10, 2, i);
            if i % 10 == 9 {
                push_both(&mut wheel, &mut heap, 10, 0, N + i);
            }
        }
        // It goes down with three quarters of the backlog served, loses
        // what reaches the head while it is down, and takes the rest after.
        let crash_at = 10 + 900 * (3 * N / 4) + 17;
        push_both(&mut wheel, &mut heap, crash_at, 2, CRASH);
        push_both(&mut wheel, &mut heap, crash_at + 450, 2, RECOVER);
        let mut served = 0;
        while let Some((time, payload)) = serve_both(&mut wheel, &mut heap) {
            served += 1;
            // A foreign event at the instant the busy node frees up,
            // scheduled mid-storm: its seq falls between those of the
            // parked run, which was re-keyed to that instant partly before
            // and partly after it.
            if (N..CRASH).contains(&payload) && served < 3 * N {
                let frees = wheel.busy_until[2].as_micros().max(time.as_micros());
                push_both(&mut wheel, &mut heap, frees, 0, 2 * N + payload);
            }
        }
        let (deferrals, queue_ops) = (wheel.q.deferrals(), wheel.q.queue_ops());
        assert!(deferrals > N * N / 4, "not a storm: {deferrals} deferrals");
        assert!(queue_ops <= 8 * events, "{queue_ops} wheel operations for {events} events");
    }

    fn indexed(q: &SimQueue<u64>) -> &IndexedQueue<u64> {
        match &q.inner {
            QueueImpl::Indexed(q) => q,
            QueueImpl::Heap(_) => panic!("not the indexed queue"),
        }
    }

    /// The links of one bucket's list, head to tail.
    fn listed_in(q: &IndexedQueue<u64>, bucket: usize) -> usize {
        let (mut link, mut count) = (q.buckets[bucket].head, 0);
        while link != NIL {
            (link, count) = (q.links[link as usize].next, count + 1);
        }
        count
    }

    /// The most refs one bucket holds, listed or loaded in the cursor run.
    fn most_in_one_bucket(q: &IndexedQueue<u64>) -> usize {
        let listed = (0..NUM_BUCKETS).map(|bucket| listed_in(q, bucket)).max().unwrap_or(0);
        listed.max(q.cursor_run.len())
    }

    /// Refs scheduled into the bucket the cursor has already loaded — later
    /// than every loaded ref, tied with one, at the instant just popped, and
    /// in between — join its run at their `(time, seq)` place, and one due
    /// in the next bucket waits in that bucket's list.
    #[test]
    fn late_arrivals_join_the_loaded_cursor_bucket_in_key_order() {
        for kind in [QueueKind::Indexed, QueueKind::ReferenceHeap] {
            let mut q = SimQueue::new(kind);
            // Bucket 1 is [64, 128) µs.
            push(&mut q, 100, 1);
            push(&mut q, 120, 2);
            push(&mut q, 70, 3);
            push(&mut q, 200, 4);
            assert_eq!(q.pop(), Some((SimTime::from_micros(70), 3)), "{kind:?}");
            push(&mut q, 127, 5);
            push(&mut q, 100, 6);
            push(&mut q, 70, 7);
            push(&mut q, 90, 8);
            push(&mut q, 128, 9);
            if kind == QueueKind::Indexed {
                let q = indexed(&q);
                assert_eq!(q.cursor_run.len(), 6, "five late arrivals joined the loaded bucket");
                assert_eq!((listed_in(q, 2), q.listed), (1, 2), "the next bucket's waits listed");
            }
            let order = [(70, 7), (90, 8), (100, 1), (100, 6), (120, 2), (127, 5), (128, 9)];
            assert_eq!(drain(&mut q), [&order[..], &[(200, 4)]].concat(), "{kind:?}");
        }
    }

    /// The crowded-bucket shape of a durable run: a crashed node's timers
    /// are all deferred to its recovery instant, so thousands of refs pile
    /// into one 64 µs bucket — straight into the wheel for a recovery inside
    /// its span, through the overflow heap for one past it. Pops follow the
    /// reference heap, and once both bursts drain the cursor run keeps no
    /// more than a steady-state bucket's capacity and no link is live.
    #[test]
    fn a_recovery_burst_drains_back_to_steady_state_capacity() {
        const BURST: u64 = 4_096;
        let far = 3 * NUM_BUCKETS as u64 * BUCKET_WIDTH_US + 200;
        // (victim, crash, recovery): node 2 recovers inside the wheel's span,
        // node 1 past it.
        let bursts = [(2, 400, 1_000), (1, far - 700, far)];
        let mut wheel = BusyModel::new(QueueKind::Indexed);
        let mut heap = BusyModel::new(QueueKind::ReferenceHeap);
        let mut payload = 0;
        for (victim, crash_at, recover_at) in bursts {
            for model in [&mut wheel, &mut heap] {
                model.push(crash_at, victim, CRASH);
                model.push(recover_at, victim, RECOVER);
            }
            // The victim's deferred timers, every eighth slot an event for
            // node 0 (never busy) at the same instant.
            for i in 0..BURST {
                let node = if i % 8 == 7 { 0 } else { victim };
                for model in [&mut wheel, &mut heap] {
                    model.push(recover_at, node, payload);
                }
                payload += 1;
            }
        }
        let q = indexed(&wheel.q);
        let piled = most_in_one_bucket(q);
        assert!(piled as u64 > BURST, "the first burst shares one bucket ({piled} refs)");
        assert!(q.overflow.len() as u64 > BURST, "the second waits past the horizon");
        let mut folded = 0;
        while let Some(served) = serve_both(&mut wheel, &mut heap) {
            if served == (SimTime::from_micros(far), RECOVER) {
                // The overflow burst, folded back into the wheel in one piece.
                folded = most_in_one_bucket(indexed(&wheel.q));
            }
        }
        assert!(folded as u64 >= BURST, "the second burst shares one bucket ({folded} refs)");
        let q = indexed(&wheel.q);
        let kept = q.cursor_run.capacity();
        assert!(kept <= BUCKET_KEEP_REFS, "the drained cursor run keeps {kept} refs of capacity");
        let (mut link, mut free) = (q.free_link, 0);
        while link != NIL {
            (link, free) = (q.links[link as usize].next, free + 1);
        }
        assert_eq!((q.listed, free), (0, q.links.len()), "every link is free");
    }
}
