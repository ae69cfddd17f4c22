//! The reference witness (certificate) checker.
//!
//! The protocol implementations in this repository do not merely claim to
//! satisfy their consistency model — they emit a *witness*: the total order of
//! transactions/operations induced by their commit timestamps (Spanner) or
//! carstamps (Gryff), exactly as in the paper's correctness proofs
//! (Appendix D). Validating a given total order is the linear case — no
//! search — and [`check_witness`] does it over the whole history at once:
//!
//! 1. every completed operation appears in the witness exactly once,
//! 2. replaying the witness against the sequential specification reproduces
//!    every recorded result,
//! 3. the witness respects the model's order constraints, checked edge-by-edge
//!    for causal/process-order constraints and with sort-and-sweeps for the
//!    real-time constraints.
//!
//! This is what the cross-crate integration tests, `verify_run` and the
//! hunter use to establish that Spanner ⊨ strict serializability,
//! Spanner-RSS ⊨ RSS, Gryff ⊨ linearizability, and Gryff-RSC ⊨ RSC on real
//! runs, and the reference the incremental validator
//! ([`StreamingChecker`](crate::checker::window::StreamingChecker), which the
//! sweeps certify through) is differentially tested against.
//!
//! # Hot-path structure
//!
//! Everything runs over the [`HistoryIndex`] arena view: witness positions
//! live in a dense `Vec` indexed by op id, the spec replay uses the indexed
//! state (no per-op allocation, no hashing), and the per-key grouping behind
//! the sweeps uses the index's interned dense key ids instead of
//! `HashMap<(ServiceId, Key), _>`. The only remaining per-check allocations
//! are the grouped source/target vectors themselves.

use crate::history::{History, HistoryIndex};
use crate::order::message_edges;
use crate::spec::{check_sequence, IndexedSpecState, SpecViolation};
use crate::types::OpId;

/// Which constraint family the witness must respect.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WitnessModel {
    /// Real-time order between all pairs: strict serializability and
    /// linearizability.
    RealTime,
    /// Causal order plus the regular write constraint: RSS and RSC.
    Regular,
    /// Per-process order only: PO serializability and sequential consistency.
    ProcessOrder,
}

/// The kind of ordering constraint that a violation refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OrderKind {
    /// The witness reorders two operations of the same process.
    ProcessOrder,
    /// The witness contradicts a causal (reads-from or message-passing) edge.
    Causal,
    /// The witness contradicts the real-time order.
    RealTime,
    /// The witness contradicts the RSS/RSC write constraint.
    RegularWrite,
}

/// Why a witness was rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum WitnessViolation {
    /// The witness references an operation id not in the history.
    UnknownOp(OpId),
    /// The witness lists an operation more than once.
    DuplicateOp(OpId),
    /// A completed operation is missing from the witness.
    MissingCompleteOp(OpId),
    /// Replaying the witness contradicts a recorded result.
    Spec(SpecViolation),
    /// The witness violates an ordering constraint: `first` must precede
    /// `second` but does not.
    OrderViolation {
        /// Which constraint family was violated.
        kind: OrderKind,
        /// The operation that must come first.
        first: OpId,
        /// The operation that must come second.
        second: OpId,
    },
}

/// Position sentinel: the operation does not appear in the witness.
const ABSENT: u32 = u32::MAX;

/// Checks that `witness` certifies `history` under `model`.
///
/// The witness must contain every completed operation exactly once and may
/// additionally contain incomplete mutating operations whose effects became
/// visible.
pub fn check_witness(
    history: &History,
    witness: &[OpId],
    model: WitnessModel,
) -> Result<(), WitnessViolation> {
    let index = HistoryIndex::new(history);
    let positions = validate_membership(&index, witness)?;
    replay_witness(history, &index, witness)?;
    check_order_constraints(history, &index, &positions, model)
}

/// The order-constraint half of the witness check.
fn check_order_constraints(
    history: &History,
    index: &HistoryIndex,
    positions: &[u32],
    model: WitnessModel,
) -> Result<(), WitnessViolation> {
    // Process order holds for every model (it is subsumed by real time for
    // complete ops, but checking it directly also covers included incomplete
    // operations).
    for (_, ids) in index.ops_by_process().iter() {
        for w in ids.windows(2) {
            check_edge(positions, w[0], w[1], OrderKind::ProcessOrder)?;
        }
    }

    match model {
        WitnessModel::ProcessOrder => {}
        WitnessModel::Regular => {
            check_reads_from_edges(index, positions)?;
            for (a, b) in message_edges(history, index.ops_by_process()) {
                check_edge(positions, a, b, OrderKind::Causal)?;
            }
            check_regular_write_constraint(index, positions)?;
        }
        WitnessModel::RealTime => check_real_time_all(index, positions)?,
    }
    Ok(())
}

fn validate_membership(
    index: &HistoryIndex,
    witness: &[OpId],
) -> Result<Vec<u32>, WitnessViolation> {
    let mut positions = vec![ABSENT; index.len()];
    for (pos, &id) in witness.iter().enumerate() {
        if id.index() >= index.len() {
            return Err(WitnessViolation::UnknownOp(id));
        }
        if positions[id.index()] != ABSENT {
            return Err(WitnessViolation::DuplicateOp(id));
        }
        positions[id.index()] = pos as u32;
    }
    for &id in index.complete_ids() {
        if positions[id.index()] == ABSENT {
            return Err(WitnessViolation::MissingCompleteOp(id));
        }
    }
    Ok(positions)
}

/// Replays the witness against the sequential specification using the indexed
/// state (allocation-free per op). On failure, the map-based
/// [`check_sequence`] re-derives the full [`SpecViolation`] diagnostic on the
/// cold path.
fn replay_witness(
    history: &History,
    index: &HistoryIndex,
    witness: &[OpId],
) -> Result<(), WitnessViolation> {
    let mut state = IndexedSpecState::new(index.num_dense_keys());
    for &id in witness {
        if !state.apply_checked(index, id.index()) {
            let err =
                check_sequence(history, witness).expect_err("indexed replay found a violation");
            return Err(WitnessViolation::Spec(err));
        }
    }
    Ok(())
}

#[inline]
fn check_edge(
    positions: &[u32],
    a: OpId,
    b: OpId,
    kind: OrderKind,
) -> Result<(), WitnessViolation> {
    let (pa, pb) = (positions[a.index()], positions[b.index()]);
    if pa != ABSENT && pb != ABSENT && pa >= pb {
        return Err(WitnessViolation::OrderViolation { kind, first: a, second: b });
    }
    Ok(())
}

/// Checks the reads-from edges: every read of a non-null value must follow
/// (in the witness) some write of that value to the same key. Writers are
/// grouped per dense key id and sorted by value once, so each observation is
/// a binary search — no `HashMap<(service, key, value), _>` construction.
fn check_reads_from_edges(index: &HistoryIndex, positions: &[u32]) -> Result<(), WitnessViolation> {
    // (value, writer) per dense key id.
    let mut writers: Vec<Vec<(u64, u32)>> = vec![Vec::new(); index.num_dense_keys()];
    for op in 0..index.len() {
        let keys = index.write_key_ids(op);
        let vals = index.write_values(op);
        for (k, v) in keys.iter().zip(vals) {
            if *v != 0 {
                writers[*k as usize].push((*v, op as u32));
            }
        }
    }
    for list in &mut writers {
        list.sort_unstable();
    }
    for op in 0..index.len() {
        if !index.is_complete(op) || index.has_unsat_result(op) {
            continue;
        }
        let keys = index.read_key_ids(op);
        let obs = index.read_observations(op);
        for (k, v) in keys.iter().zip(obs) {
            if *v == 0 {
                continue;
            }
            let list = &writers[*k as usize];
            let start = list.partition_point(|&(val, _)| val < *v);
            for &(val, w) in &list[start..] {
                if val != *v {
                    break;
                }
                if w as usize != op {
                    check_edge(positions, OpId(w), OpId(op as u32), OrderKind::Causal)?;
                }
            }
        }
    }
    Ok(())
}

/// Checks `resp(a) < inv(b) ⇒ pos(a) < pos(b)` for all pairs, in
/// `O(n log n)` via a sweep: walk operations by invocation time while keeping
/// the maximum witness position among operations that have already responded.
fn check_real_time_all(index: &HistoryIndex, positions: &[u32]) -> Result<(), WitnessViolation> {
    let mut sources: Vec<(u64, u32, u32)> = Vec::with_capacity(index.len());
    let mut targets: Vec<(u64, u32, u32)> = Vec::with_capacity(index.len());
    for (op, &pos) in positions.iter().enumerate() {
        if pos == ABSENT {
            continue;
        }
        if let Some(resp) = index.response_us(op) {
            sources.push((resp, pos, op as u32));
        }
        targets.push((index.invoke_us(op), pos, op as u32));
    }
    sweep(&mut sources, &mut targets, OrderKind::RealTime)
}

/// Checks clause (3) of the RSS/RSC definitions:
/// * completed mutating operations precede (in the witness) every mutating
///   operation that follows them in real time (every mutating pair is
///   constrained, regardless of key), and
/// * completed mutating operations precede every conflicting read-only
///   operation that follows them in real time (grouped by dense key id).
fn check_regular_write_constraint(
    index: &HistoryIndex,
    positions: &[u32],
) -> Result<(), WitnessViolation> {
    let mut write_sources: Vec<(u64, u32, u32)> = Vec::new();
    let mut write_targets: Vec<(u64, u32, u32)> = Vec::new();
    for (op, &pos) in positions.iter().enumerate() {
        if !index.is_mutating(op) || pos == ABSENT {
            continue;
        }
        if let Some(resp) = index.response_us(op) {
            write_sources.push((resp, pos, op as u32));
        }
        write_targets.push((index.invoke_us(op), pos, op as u32));
    }
    sweep(&mut write_sources, &mut write_targets, OrderKind::RegularWrite)?;

    let num_keys = index.num_dense_keys();
    let mut writers: Vec<Vec<(u64, u32, u32)>> = vec![Vec::new(); num_keys];
    let mut readers: Vec<Vec<(u64, u32, u32)>> = vec![Vec::new(); num_keys];
    for (op, &pos) in positions.iter().enumerate() {
        if pos == ABSENT {
            continue;
        }
        if index.is_mutating(op) {
            if let Some(resp) = index.response_us(op) {
                for k in index.write_key_ids(op) {
                    writers[*k as usize].push((resp, pos, op as u32));
                }
            }
        } else if index.is_read_only(op) {
            for k in index.read_key_ids(op) {
                readers[*k as usize].push((index.invoke_us(op), pos, op as u32));
            }
        }
    }
    for (sources, targets) in writers.iter_mut().zip(readers.iter_mut()) {
        if !sources.is_empty() && !targets.is_empty() {
            sweep(sources, targets, OrderKind::RegularWrite)?;
        }
    }
    Ok(())
}

/// Core sweep: for every source `a` and target `b` with
/// `a.time < b.time` (strictly), require `pos(a) < pos(b)`. Sorts the two
/// lists in place (no clones).
fn sweep(
    sources: &mut [(u64, u32, u32)],
    targets: &mut [(u64, u32, u32)],
    kind: OrderKind,
) -> Result<(), WitnessViolation> {
    sources.sort_unstable();
    targets.sort_unstable();
    let mut max_pos: Option<(u32, u32)> = None;
    let mut si = 0;
    for &(t_inv, pos_b, id_b) in targets.iter() {
        while si < sources.len() && sources[si].0 < t_inv {
            let (_, pos_a, id_a) = sources[si];
            if max_pos.map(|(p, _)| pos_a > p).unwrap_or(true) {
                max_pos = Some((pos_a, id_a));
            }
            si += 1;
        }
        if let Some((p, id_a)) = max_pos {
            if p > pos_b && id_a != id_b {
                return Err(WitnessViolation::OrderViolation {
                    kind,
                    first: OpId(id_a),
                    second: OpId(id_b),
                });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::HistoryBuilder;

    #[test]
    fn accepts_valid_real_time_witness() {
        let mut b = HistoryBuilder::new();
        let w = b.write(1, 1, 5, 0, 10);
        let r = b.read(2, 1, 5, 20, 30);
        let h = b.build();
        assert_eq!(check_witness(&h, &[w, r], WitnessModel::RealTime), Ok(()));
        assert_eq!(check_witness(&h, &[w, r], WitnessModel::Regular), Ok(()));
    }

    #[test]
    fn rejects_real_time_inversion() {
        let mut b = HistoryBuilder::new();
        let w = b.write(1, 1, 5, 0, 10);
        let r = b.read(2, 1, 0, 20, 30); // stale read, after the write completed
        let h = b.build();
        // Ordering the read first satisfies the spec but violates real time.
        let err = check_witness(&h, &[r, w], WitnessModel::RealTime).unwrap_err();
        assert!(matches!(err, WitnessViolation::OrderViolation { kind: OrderKind::RealTime, .. }));
        // The regular model also rejects it (write-read conflict on key 1).
        let err = check_witness(&h, &[r, w], WitnessModel::Regular).unwrap_err();
        assert!(matches!(
            err,
            WitnessViolation::OrderViolation { kind: OrderKind::RegularWrite, .. }
        ));
        // Process order alone accepts it.
        assert_eq!(check_witness(&h, &[r, w], WitnessModel::ProcessOrder), Ok(()));
    }

    #[test]
    fn regular_allows_concurrent_read_reordering() {
        // Figure 2: both reads are concurrent with the write; one saw it, one
        // did not, and the one that did finished first. RSS/RSC accept the
        // order (r_old, w, r_new); strict serializability rejects it because
        // r_new completed before r_old started.
        let mut b = HistoryBuilder::new();
        let w = b.write(2, 1, 1, 0, 100);
        let r_new = b.read(3, 1, 1, 10, 20);
        let r_old = b.read(1, 1, 0, 30, 40);
        let h = b.build();
        let witness = [r_old, w, r_new];
        assert_eq!(check_witness(&h, &witness, WitnessModel::Regular), Ok(()));
        assert!(matches!(
            check_witness(&h, &witness, WitnessModel::RealTime),
            Err(WitnessViolation::OrderViolation { kind: OrderKind::RealTime, .. })
        ));
    }

    #[test]
    fn rejects_spec_violations() {
        let mut b = HistoryBuilder::new();
        let w = b.write(1, 1, 5, 0, 10);
        let r = b.read(2, 1, 7, 20, 30); // observed a value nobody wrote
        let h = b.build();
        assert!(matches!(
            check_witness(&h, &[w, r], WitnessModel::ProcessOrder),
            Err(WitnessViolation::Spec(_))
        ));
    }

    #[test]
    fn rejects_missing_and_duplicate_ops() {
        let mut b = HistoryBuilder::new();
        let w = b.write(1, 1, 5, 0, 10);
        let r = b.read(2, 1, 5, 20, 30);
        let h = b.build();
        assert_eq!(
            check_witness(&h, &[w], WitnessModel::ProcessOrder),
            Err(WitnessViolation::MissingCompleteOp(r))
        );
        assert_eq!(
            check_witness(&h, &[w, w, r], WitnessModel::ProcessOrder),
            Err(WitnessViolation::DuplicateOp(w))
        );
        assert_eq!(
            check_witness(&h, &[w, r, OpId(99)], WitnessModel::ProcessOrder),
            Err(WitnessViolation::UnknownOp(OpId(99)))
        );
    }

    #[test]
    fn rejects_process_order_inversion() {
        let mut b = HistoryBuilder::new();
        let a = b.write(1, 1, 5, 0, 10);
        let c = b.write(1, 2, 6, 20, 30);
        let h = b.build();
        assert!(matches!(
            check_witness(&h, &[c, a], WitnessModel::ProcessOrder),
            Err(WitnessViolation::OrderViolation { kind: OrderKind::ProcessOrder, .. })
        ));
    }

    #[test]
    fn rejects_causal_violation_via_message() {
        // Alice writes then messages Bob; Bob reads stale. Any witness putting
        // Bob's read before Alice's write violates the causal edge; putting it
        // after violates the spec. Either way the Regular check fails.
        let mut b = HistoryBuilder::new();
        let w = b.write(1, 1, 7, 0, 10);
        let r = b.read(2, 1, 0, 40, 50);
        b.message(1, 15, 2, 20);
        let h = b.build();
        let before = check_witness(&h, &[r, w], WitnessModel::Regular).unwrap_err();
        assert!(matches!(before, WitnessViolation::OrderViolation { .. }));
        let after = check_witness(&h, &[w, r], WitnessModel::Regular).unwrap_err();
        assert!(matches!(after, WitnessViolation::Spec(_)));
    }

    #[test]
    fn incomplete_ops_may_appear_in_witness() {
        let mut b = HistoryBuilder::new();
        let pw = b.pending_write(1, 1, 9, 0);
        let r = b.read(2, 1, 9, 10, 20);
        let h = b.build();
        assert_eq!(check_witness(&h, &[pw, r], WitnessModel::Regular), Ok(()));
        // Without the pending write the read's value is unexplained.
        assert!(matches!(
            check_witness(&h, &[r], WitnessModel::Regular),
            Err(WitnessViolation::Spec(_))
        ));
    }

    #[test]
    fn regular_write_write_real_time_enforced() {
        let mut b = HistoryBuilder::new();
        let w1 = b.write(1, 1, 1, 0, 10);
        let w2 = b.write(2, 2, 2, 20, 30); // different key, follows w1 in real time
        let h = b.build();
        assert!(matches!(
            check_witness(&h, &[w2, w1], WitnessModel::Regular),
            Err(WitnessViolation::OrderViolation { kind: OrderKind::RegularWrite, .. })
        ));
        assert_eq!(check_witness(&h, &[w1, w2], WitnessModel::Regular), Ok(()));
    }

    #[test]
    fn reads_from_reordering_rejected_without_hashmaps() {
        // Two writers of distinct values to one key; the reader saw the second
        // writer's value but the witness orders the reader first.
        let mut b = HistoryBuilder::new();
        let w1 = b.write(1, 1, 1, 0, 100);
        let w2 = b.write(2, 1, 2, 0, 100);
        let r = b.read(3, 1, 2, 0, 100);
        let h = b.build();
        assert!(matches!(
            check_witness(&h, &[r, w1, w2], WitnessModel::Regular),
            Err(WitnessViolation::OrderViolation { kind: OrderKind::Causal, .. })
                | Err(WitnessViolation::Spec(_))
        ));
        assert_eq!(check_witness(&h, &[w1, w2, r], WitnessModel::Regular), Ok(()));
    }
}
