//! Windowed streaming certification: the incremental witness validator.
//!
//! The batch certificate checker ([`check_witness`](crate::checker::check_witness))
//! needs the whole history and the whole witness up front. For records that
//! arrive one at a time, in completion order, [`StreamingChecker`] validates
//! the same three clauses *incrementally*: operations are pushed in witness
//! order (a [`WindowBuffer`] restores it from arrival order), and every
//! constraint family is folded into running state, O(keys + processes) for
//! all but the two tables named below:
//!
//! * **membership** — duplicates are caught on push, missing completed ops at
//!   [`StreamingChecker::finish`];
//! * **replay** — a [`SpecState`] replays each op as it is pushed and compares
//!   recorded results;
//! * **process order** — an op pushed before its process predecessor arms a
//!   tripwire that fires if the predecessor ever arrives;
//! * **causal edges** (Regular) — message edges arm the same way, and
//!   reads-from inverts the batch checker's writer→reader scan: the first
//!   pushed reader of each `(service, key, value)` is remembered, and a later
//!   push of a writer of that value is exactly a reads-from inversion;
//! * **real-time sweeps** — the batch checker's sort-and-sweep (max witness
//!   position among responded sources vs. each target) becomes a running
//!   maximum of invocation times: when a source is pushed, any already-pushed
//!   target it really precedes sits at a smaller witness position, so
//!   `max inv > resp(source)` is precisely a sweep violation.
//!
//! Every rule mirrors a clause of the batch checker on the *pushed prefix*;
//! a full push sequence therefore accepts iff
//! [`check_witness`](crate::checker::check_witness) accepts the
//! same witness (which violation is reported first may differ: the batch
//! checker finishes the replay before any order rule, this one interleaves
//! them).
//!
//! The two tables that grow with the history: the pushed-id bitset (one bit
//! per op) and, under [`WitnessModel::Regular`], `first_reader` (one entry
//! per distinct `(service, key, value)` observed — with unique written
//! values, one per write that was ever read).
//!
//! [`WindowBuffer`] supplies the reordering front end: out-of-order
//! `(position, item)` arrivals are buffered and released in contiguous
//! windows, so its memory is the arrival skew of the witness — one record
//! whose position is far earlier than its arrival holds back everything that
//! arrived before it.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use crate::checker::certificate::{OrderKind, WitnessModel, WitnessViolation};
use crate::hashing::FxBuildHasher;
use crate::history::{result_shape_matches, OpRecord};
use crate::spec::{SpecState, SpecViolation};
use crate::types::OpId;

/// Incremental witness checker; see the module docs for the rule-by-rule
/// correspondence with the batch checker.
#[derive(Debug)]
pub struct StreamingChecker {
    model: WitnessModel,
    /// Bitvec over op ids: pushed so far.
    pushed: Vec<u64>,
    pushed_count: usize,
    /// Unpushed process-order predecessor → the pushed successor awaiting it.
    awaited: HashMap<u32, u32, FxBuildHasher>,
    /// Unpushed message-edge source → the pushed target awaiting it.
    msg_awaited: HashMap<u32, u32, FxBuildHasher>,
    /// Message-edge target → sources (from `order::message_edges`).
    msg_preds: HashMap<u32, Vec<u32>, FxBuildHasher>,
    state: SpecState,
    /// `(service, key, value)` → first pushed op that observed it.
    first_reader: HashMap<(u32, u64, u64), u32, FxBuildHasher>,
    /// `(service, key)` → max invocation time (and op) among pushed readers.
    reader_max: HashMap<(u32, u64), (u64, u32), FxBuildHasher>,
    /// Max invocation time (and op) among pushed mutating ops.
    mut_max_inv: Option<(u64, u32)>,
    /// Max invocation time (and op) among all pushed ops.
    all_max_inv: Option<(u64, u32)>,
}

impl StreamingChecker {
    /// A checker that also enforces the given message-passing causal edges
    /// (pairs from [`crate::order::message_edges`], checked under
    /// [`WitnessModel::Regular`] only, as in the batch checker).
    pub fn with_message_edges(model: WitnessModel, edges: &[(OpId, OpId)]) -> Self {
        let mut msg_preds: HashMap<u32, Vec<u32>, FxBuildHasher> = HashMap::default();
        for &(a, b) in edges {
            msg_preds.entry(b.0).or_default().push(a.0);
        }
        StreamingChecker {
            model,
            pushed: Vec::new(),
            pushed_count: 0,
            awaited: HashMap::default(),
            msg_awaited: HashMap::default(),
            msg_preds,
            state: SpecState::new(),
            first_reader: HashMap::default(),
            reader_max: HashMap::default(),
            mut_max_inv: None,
            all_max_inv: None,
        }
    }

    /// Number of operations pushed so far.
    #[inline]
    pub fn ops_pushed(&self) -> usize {
        self.pushed_count
    }

    #[inline]
    fn is_pushed(&self, id: u32) -> bool {
        let (w, b) = ((id / 64) as usize, id % 64);
        w < self.pushed.len() && self.pushed[w] & (1 << b) != 0
    }

    #[inline]
    fn mark_pushed(&mut self, id: u32) {
        let (w, b) = ((id / 64) as usize, id % 64);
        if w >= self.pushed.len() {
            self.pushed.resize(w + 1, 0);
        }
        self.pushed[w] |= 1 << b;
        self.pushed_count += 1;
    }

    /// Pushes the next witness entry. `prev_in_process` is the op's immediate
    /// predecessor in its process's order (by invocation), if any — the same
    /// consecutive pairs the batch checker walks.
    ///
    /// # Errors
    ///
    /// The first [`WitnessViolation`] the pushed prefix exhibits. After an
    /// error the checker state is not rolled back; discard it.
    pub fn push(
        &mut self,
        op: &OpRecord,
        prev_in_process: Option<OpId>,
    ) -> Result<(), WitnessViolation> {
        let id = op.id.0;
        if self.is_pushed(id) {
            return Err(WitnessViolation::DuplicateOp(op.id));
        }
        self.mark_pushed(id);

        // Process order (all models): if someone already pushed was awaiting
        // this op as its predecessor, the witness inverted the pair.
        if let Some(&succ) = self.awaited.get(&id) {
            return Err(WitnessViolation::OrderViolation {
                kind: OrderKind::ProcessOrder,
                first: op.id,
                second: OpId(succ),
            });
        }
        if let Some(prev) = prev_in_process {
            if !self.is_pushed(prev.0) {
                self.awaited.insert(prev.0, id);
            }
        }

        // Replay (all models).
        if let Err(expected) = self.state.apply_expecting(op.service, &op.kind, op.result.as_ref())
        {
            let actual = op.result.clone().expect("only a recorded result can disagree");
            return Err(WitnessViolation::Spec(SpecViolation { op: op.id, expected, actual }));
        }

        match self.model {
            WitnessModel::ProcessOrder => {}
            WitnessModel::Regular => self.push_regular(op)?,
            WitnessModel::RealTime => {
                // Global all-pairs sweep: any already-pushed op invoked after
                // this op's response sits at a smaller witness position.
                if let Some(resp) = op.response {
                    if let Some((max_inv, other)) = self.all_max_inv {
                        if max_inv > resp.as_micros() {
                            return Err(WitnessViolation::OrderViolation {
                                kind: OrderKind::RealTime,
                                first: op.id,
                                second: OpId(other),
                            });
                        }
                    }
                }
                let inv = op.invoke.as_micros();
                if self.all_max_inv.map(|(m, _)| inv > m).unwrap_or(true) {
                    self.all_max_inv = Some((inv, id));
                }
            }
        }
        Ok(())
    }

    /// The Regular-model constraint families: message edges, reads-from, the
    /// per-key write-read sweep, and the global write-write sweep.
    fn push_regular(&mut self, op: &OpRecord) -> Result<(), WitnessViolation> {
        let id = op.id.0;

        // Message edges: the same tripwire as process order. A target pushed
        // while a source is unpushed arms the source; pushing an armed source
        // fires. A source pushed first never arms, so its targets pass.
        if let Some(&succ) = self.msg_awaited.get(&id) {
            return Err(WitnessViolation::OrderViolation {
                kind: OrderKind::Causal,
                first: op.id,
                second: OpId(succ),
            });
        }
        if let Some(preds) = self.msg_preds.get(&id) {
            for &src in preds {
                if !self.is_pushed(src) {
                    self.msg_awaited.entry(src).or_insert(id);
                }
            }
        }

        // Reads-from: a writer of `(service, key, value)` pushed after a
        // reader that observed that value inverts a reads-from edge.
        for (k, v) in op.kind.written_values_iter() {
            if v.0 == 0 {
                continue;
            }
            if let Some(&r) = self.first_reader.get(&(op.service.0, k.0, v.0)) {
                if r != id {
                    return Err(WitnessViolation::OrderViolation {
                        kind: OrderKind::Causal,
                        first: op.id,
                        second: OpId(r),
                    });
                }
            }
        }
        if let Some(result) = &op.result {
            if result_shape_matches(&op.kind, result) {
                for (k, v) in result.observed_iter(&op.kind) {
                    if v.0 != 0 {
                        self.first_reader.entry((op.service.0, k.0, v.0)).or_insert(id);
                    }
                }
            }
        }

        // Regular write constraint. Per-key half: a completed mutating op
        // must precede every conflicting read invoked after its response.
        if op.kind.is_mutating() {
            if let Some(resp) = op.response {
                let resp = resp.as_micros();
                for k in op.kind.written_keys_iter() {
                    if let Some(&(max_inv, reader)) = self.reader_max.get(&(op.service.0, k.0)) {
                        if max_inv > resp {
                            return Err(WitnessViolation::OrderViolation {
                                kind: OrderKind::RegularWrite,
                                first: op.id,
                                second: OpId(reader),
                            });
                        }
                    }
                }
                // Global half: completed mutating ops precede every mutating
                // op invoked after their response.
                if let Some((max_inv, other)) = self.mut_max_inv {
                    if max_inv > resp {
                        return Err(WitnessViolation::OrderViolation {
                            kind: OrderKind::RegularWrite,
                            first: op.id,
                            second: OpId(other),
                        });
                    }
                }
            }
            let inv = op.invoke.as_micros();
            if self.mut_max_inv.map(|(m, _)| inv > m).unwrap_or(true) {
                self.mut_max_inv = Some((inv, id));
            }
        } else if op.kind.is_read_only() {
            let inv = op.invoke.as_micros();
            for k in op.kind.read_keys_iter() {
                let e = self.reader_max.entry((op.service.0, k.0)).or_insert((inv, id));
                if inv > e.0 {
                    *e = (inv, id);
                }
            }
        }
        Ok(())
    }

    /// Ends the stream: every id in `complete_ids` must have been pushed.
    ///
    /// # Errors
    ///
    /// [`WitnessViolation::MissingCompleteOp`] for the first absent one.
    pub fn finish(self, complete_ids: &[OpId]) -> Result<(), WitnessViolation> {
        for &id in complete_ids {
            if !self.is_pushed(id.0) {
                return Err(WitnessViolation::MissingCompleteOp(id));
            }
        }
        Ok(())
    }
}

/// Reordering front end for [`StreamingChecker`]: items tagged with their
/// witness position arrive in any order; [`WindowBuffer::pop_next`] releases
/// the contiguous prefix. Memory is bounded by the arrival skew — the peak
/// buffered count is reported so drivers can size windows.
#[derive(Debug)]
pub struct WindowBuffer<T> {
    /// Min-heap on position (unique, so `T`'s order never decides).
    heap: BinaryHeap<Reverse<(u32, T)>>,
    next: u32,
    peak: usize,
}

impl<T: Ord> Default for WindowBuffer<T> {
    /// An empty buffer expecting position 0 first.
    fn default() -> Self {
        WindowBuffer { heap: BinaryHeap::new(), next: 0, peak: 0 }
    }
}

impl<T: Ord> WindowBuffer<T> {
    /// Buffers `item` arriving at witness position `pos`.
    pub fn push(&mut self, pos: u32, item: T) {
        self.heap.push(Reverse((pos, item)));
        self.peak = self.peak.max(self.heap.len());
    }

    /// Releases the item at the next expected position, if it has arrived.
    /// Calling until `None` drains the contiguous run — one window.
    pub fn pop_next(&mut self) -> Option<T> {
        if self.heap.peek()?.0 .0 != self.next {
            return None;
        }
        self.next += 1;
        self.heap.pop().map(|Reverse((_, item))| item)
    }

    /// High-water mark of items buffered (arrived, not yet released).
    pub fn peak_buffered(&self) -> usize {
        self.peak
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::certificate::check_witness;
    use crate::history::{ByProcess, History, HistoryBuilder};
    use crate::order::message_edges;

    /// Feeds `witness` through a [`StreamingChecker`] exactly as the sweep
    /// driver does: process predecessors and message edges from the
    /// history's one per-process grouping.
    fn stream_check(
        history: &History,
        witness: &[OpId],
        model: WitnessModel,
    ) -> Result<(), WitnessViolation> {
        let by_process = ByProcess::new(history);
        let prev = by_process.predecessors();
        let edges = message_edges(history, &by_process);
        let mut checker = StreamingChecker::with_message_edges(model, &edges);
        for &id in witness {
            checker.push(history.op(id), prev[id.index()])?;
        }
        let complete = history.complete_ids();
        checker.finish(&complete)
    }

    fn agree(history: &History, witness: &[OpId], model: WitnessModel) {
        let batch = check_witness(history, witness, model);
        let streamed = stream_check(history, witness, model);
        assert_eq!(
            batch.is_ok(),
            streamed.is_ok(),
            "{model:?} verdicts agree: batch={batch:?} streamed={streamed:?}"
        );
    }

    #[test]
    fn streaming_agrees_with_batch_on_basic_witnesses() {
        let mut b = HistoryBuilder::new();
        let w = b.write(1, 1, 5, 0, 10);
        let r = b.read(2, 1, 5, 20, 30);
        let h = b.build();
        for model in [WitnessModel::RealTime, WitnessModel::Regular, WitnessModel::ProcessOrder] {
            agree(&h, &[w, r], model);
            agree(&h, &[r, w], model);
            agree(&h, &[w], model); // missing op
        }
    }

    #[test]
    fn streaming_rejects_duplicates_and_missing() {
        let mut b = HistoryBuilder::new();
        let w = b.write(1, 1, 5, 0, 10);
        let r = b.read(2, 1, 5, 20, 30);
        let h = b.build();
        assert_eq!(
            stream_check(&h, &[w, w, r], WitnessModel::ProcessOrder),
            Err(WitnessViolation::DuplicateOp(w))
        );
        assert_eq!(
            stream_check(&h, &[w], WitnessModel::ProcessOrder),
            Err(WitnessViolation::MissingCompleteOp(r))
        );
    }

    #[test]
    fn streaming_detects_process_order_inversion() {
        let mut b = HistoryBuilder::new();
        let a = b.write(1, 1, 5, 0, 10);
        let c = b.write(1, 2, 6, 20, 30);
        let h = b.build();
        let err = stream_check(&h, &[c, a], WitnessModel::ProcessOrder).unwrap_err();
        assert_eq!(
            err,
            WitnessViolation::OrderViolation { kind: OrderKind::ProcessOrder, first: a, second: c }
        );
    }

    #[test]
    fn streaming_detects_message_edge_inversion() {
        let mut b = HistoryBuilder::new();
        let w = b.write(1, 1, 7, 0, 10);
        let r = b.read(2, 1, 0, 40, 50);
        b.message(1, 15, 2, 20);
        let h = b.build();
        agree(&h, &[r, w], WitnessModel::Regular);
        agree(&h, &[w, r], WitnessModel::Regular);
        let err = stream_check(&h, &[r, w], WitnessModel::Regular).unwrap_err();
        assert!(matches!(err, WitnessViolation::OrderViolation { .. }));
    }

    #[test]
    fn streaming_detects_reads_from_inversion() {
        let mut b = HistoryBuilder::new();
        let w1 = b.write(1, 1, 1, 0, 100);
        let w2 = b.write(2, 1, 2, 0, 100);
        let r = b.read(3, 1, 2, 0, 100);
        let h = b.build();
        agree(&h, &[w1, w2, r], WitnessModel::Regular);
        agree(&h, &[r, w1, w2], WitnessModel::Regular);
        agree(&h, &[w1, r, w2], WitnessModel::Regular);
    }

    #[test]
    fn streaming_matches_regular_write_sweeps() {
        // Global write-write and per-key write-read real-time constraints.
        let mut b = HistoryBuilder::new();
        let w1 = b.write(1, 1, 1, 0, 10);
        let w2 = b.write(2, 2, 2, 20, 30);
        let r = b.read(3, 1, 1, 40, 50);
        let h = b.build();
        agree(&h, &[w1, w2, r], WitnessModel::Regular);
        agree(&h, &[w2, w1, r], WitnessModel::Regular);
        agree(&h, &[w1, r, w2], WitnessModel::Regular);
        agree(&h, &[r, w1, w2], WitnessModel::Regular);
    }

    #[test]
    fn streaming_matches_real_time_sweep() {
        // Figure 2: regular accepts (r_old, w, r_new); real time rejects it.
        let mut b = HistoryBuilder::new();
        let w = b.write(2, 1, 1, 0, 100);
        let r_new = b.read(3, 1, 1, 10, 20);
        let r_old = b.read(1, 1, 0, 30, 40);
        let h = b.build();
        agree(&h, &[r_old, w, r_new], WitnessModel::Regular);
        agree(&h, &[r_old, w, r_new], WitnessModel::RealTime);
        agree(&h, &[w, r_new, r_old], WitnessModel::RealTime);
    }

    #[test]
    fn streaming_allows_incomplete_ops_in_witness() {
        let mut b = HistoryBuilder::new();
        let pw = b.pending_write(1, 1, 9, 0);
        let r = b.read(2, 1, 9, 10, 20);
        let h = b.build();
        agree(&h, &[pw, r], WitnessModel::Regular);
        agree(&h, &[r], WitnessModel::Regular);
    }

    #[test]
    fn window_buffer_releases_contiguous_runs() {
        let mut buf: WindowBuffer<&str> = WindowBuffer::default();
        let drain = |buf: &mut WindowBuffer<&'static str>| -> Vec<&str> {
            std::iter::from_fn(|| buf.pop_next()).collect()
        };
        buf.push(2, "c");
        assert!(drain(&mut buf).is_empty());
        buf.push(0, "a");
        assert_eq!(drain(&mut buf), vec!["a"]);
        buf.push(1, "b");
        assert_eq!(drain(&mut buf), vec!["b", "c"]);
        assert_eq!(buf.peak_buffered(), 2);
        buf.push(4, "e");
        assert!(drain(&mut buf).is_empty(), "position 3 has not arrived");
    }
}
