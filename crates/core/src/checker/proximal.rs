//! Checkers for the consistency models *proximal* to RSS and RSC (Appendix A).
//!
//! The paper positions RSS between strict serializability and PO
//! serializability, and RSC between linearizability and sequential
//! consistency, and compares them against a set of neighbouring models:
//! CockroachDB's model, strong snapshot isolation, OSC(U), real-time causal,
//! Viotti–Vukolić regularity, and the Shao et al. multi-writer regularity
//! family. This module implements checkers for those models so the Appendix A
//! schedules (Figures 9–16) can be reproduced mechanically.
//!
//! Formalization notes (documented because the appendix describes some of
//! these models informally):
//!
//! * **CRDB**: a total order respecting each process's order and the real-time
//!   order between transactions that access a common key. This captures
//!   CockroachDB's "no stale reads on a key" guarantee while permitting
//!   real-time inversions between transactions on disjoint keys (Figure 9
//!   allowed, Figure 10 disallowed).
//! * **OSC(U)**: a total order respecting process order in which every
//!   operation that precedes a write in real time is ordered before that
//!   write.
//! * **VV regularity**: a total order in which every operation that follows a
//!   completed write in real time is ordered after it; no process-order or
//!   causal requirement.
//! * **Real-time causal**: per-process serializations of all writes plus the
//!   process's reads, respecting causality and the real-time order of writes.
//! * **Strong snapshot isolation**: snapshot isolation (start-timestamp
//!   snapshots, first-committer-wins) strengthened so a transaction that
//!   begins after another ends sees its effects.
//! * **MWR-Weak / WO / RF / NI**: per-read serializations of all writes plus
//!   that read, respecting real time, with the additional agreement
//!   constraints described by Shao et al.

use std::collections::HashMap;

use crate::checker::search::{find_sequence_with, Constraints, SearchError};
use crate::history::{History, HistoryIndex};
use crate::order::{real_time_precedes, CausalOrder};
use crate::types::{Key, OpId, Value};

/// The proximal models of Appendix A.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProximalModel {
    /// CockroachDB's consistency model.
    Crdb,
    /// Strong snapshot isolation (Daudjee & Salem).
    StrongSnapshotIsolation,
    /// Ordered sequential consistency OSC(U) (Lev-Ari et al.).
    OscU,
    /// Real-time causal consistency (Mahajan et al.).
    RealTimeCausal,
    /// Viotti–Vukolić multi-writer regularity.
    VvRegularity,
    /// Shao et al. MWR-Weak.
    MwrWeak,
    /// Shao et al. MWR-Write-Order.
    MwrWriteOrder,
    /// Shao et al. MWR-Reads-From.
    MwrReadsFrom,
    /// Shao et al. MWR-No-Inversion.
    MwrNoInversion,
}

impl ProximalModel {
    /// Short display name used by the Appendix A harness.
    pub fn name(&self) -> &'static str {
        match self {
            ProximalModel::Crdb => "CRDB",
            ProximalModel::StrongSnapshotIsolation => "Strong SI",
            ProximalModel::OscU => "OSC(U)",
            ProximalModel::RealTimeCausal => "Real-Time Causal",
            ProximalModel::VvRegularity => "VV Regularity",
            ProximalModel::MwrWeak => "MWR-Weak",
            ProximalModel::MwrWriteOrder => "MWR-WO",
            ProximalModel::MwrReadsFrom => "MWR-RF",
            ProximalModel::MwrNoInversion => "MWR-NI",
        }
    }
}

/// Checks whether `history` is allowed under the given proximal model.
///
/// CRDB, OSC(U), VV regularity and real-time causal are calls of the one
/// exact searcher ([`find_sequence_with`]) over the whole history; they have
/// no size ceiling but are exponential in the worst case, so they are meant
/// for the small hand-built schedules of the appendix comparisons and for
/// property tests.
///
/// # Errors
///
/// [`SearchError::TooManyPending`] from the searcher if the history has more
/// than 12 pending mutating operations.
pub fn check_proximal(history: &History, model: ProximalModel) -> Result<bool, SearchError> {
    let index = HistoryIndex::new(history);
    match model {
        ProximalModel::Crdb => check_total_order(&index, crdb_constraints(&index)),
        ProximalModel::OscU => check_total_order(&index, osc_u_constraints(&index)),
        ProximalModel::VvRegularity => check_total_order(&index, vv_constraints(&index)),
        ProximalModel::RealTimeCausal => check_real_time_causal(history, &index),
        ProximalModel::StrongSnapshotIsolation => Ok(check_strong_si(history)),
        ProximalModel::MwrWeak => Ok(check_mwr(history, MwrVariant::Weak)),
        ProximalModel::MwrWriteOrder => Ok(check_mwr(history, MwrVariant::WriteOrder)),
        ProximalModel::MwrReadsFrom => Ok(check_mwr(history, MwrVariant::ReadsFrom)),
        ProximalModel::MwrNoInversion => Ok(check_mwr(history, MwrVariant::NoInversion)),
    }
}

/// A total order over every complete operation and any subset of the pending
/// mutating ones, respecting `constraints`.
fn check_total_order(index: &HistoryIndex, constraints: Constraints) -> Result<bool, SearchError> {
    let found =
        find_sequence_with(index, index.complete_ids(), index.pending_mutations(), &constraints)?;
    Ok(found.is_some())
}

/// CRDB: process order + real-time order between operations sharing a key.
pub fn crdb_constraints(index: &HistoryIndex) -> Constraints {
    let mut edges: Vec<(OpId, OpId)> = index.ops_by_process().pairs().collect();
    let accessed = |i: usize| index.read_key_ids(i).iter().chain(index.write_key_ids(i));
    for a in 0..index.len() {
        if !index.is_complete(a) {
            continue;
        }
        for b in 0..index.len() {
            if a == b || !index.real_time_precedes(a, b) {
                continue;
            }
            // Dense key ids already encode the service, so a shared key id
            // implies a shared service.
            if accessed(a).any(|k| accessed(b).any(|k2| k2 == k)) {
                edges.push((OpId(a as u32), OpId(b as u32)));
            }
        }
    }
    Constraints::from_edges(edges)
}

/// OSC(U): process order + everything that precedes a write in real time is
/// ordered before that write.
pub fn osc_u_constraints(index: &HistoryIndex) -> Constraints {
    let mut edges: Vec<(OpId, OpId)> = index.ops_by_process().pairs().collect();
    for a in 0..index.len() {
        if !index.is_complete(a) {
            continue;
        }
        for b in 0..index.len() {
            if a != b && index.is_mutating(b) && index.real_time_precedes(a, b) {
                edges.push((OpId(a as u32), OpId(b as u32)));
            }
        }
    }
    Constraints::from_edges(edges)
}

/// VV regularity: everything that follows a completed write in real time is
/// ordered after it; no process-order requirement.
pub fn vv_constraints(index: &HistoryIndex) -> Constraints {
    let mut edges = Vec::new();
    for w in 0..index.len() {
        if !index.is_mutating(w) || !index.is_complete(w) {
            continue;
        }
        for o in 0..index.len() {
            if w != o && index.real_time_precedes(w, o) {
                edges.push((OpId(w as u32), OpId(o as u32)));
            }
        }
    }
    Constraints::from_edges(edges)
}

/// Real-time causal: for every process, a serialization of all writes plus the
/// process's own read-only operations, respecting causality and the real-time
/// order of writes.
fn check_real_time_causal(history: &History, index: &HistoryIndex) -> Result<bool, SearchError> {
    let causal = CausalOrder::new(history);
    let closure = causal.closure();
    let writes: Vec<OpId> = (0..index.len())
        .filter(|&o| index.is_mutating(o) && index.is_complete(o))
        .map(|o| OpId(o as u32))
        .collect();
    let pending = index.pending_mutations();
    for (_, process_ops) in index.ops_by_process().iter() {
        let mut included: Vec<OpId> = writes.clone();
        for &id in process_ops {
            if index.is_read_only(id.index()) && index.is_complete(id.index()) {
                included.push(id);
            }
        }
        included.sort();
        included.dedup();
        // Causal edges (transitively closed, restricted to the included set)
        // plus real-time order among writes.
        let mut edges = Vec::new();
        for &a in &included {
            for &b in &included {
                if a != b && closure[a.index()][b.index()] {
                    edges.push((a, b));
                }
            }
        }
        for &a in &writes {
            for &b in &writes {
                if a != b && index.real_time_precedes(a.index(), b.index()) {
                    edges.push((a, b));
                }
            }
        }
        let constraints = Constraints::from_edges(edges);
        if find_sequence_with(index, &included, pending, &constraints)?.is_none() {
            return Ok(false);
        }
    }
    Ok(true)
}

// ---------------------------------------------------------------------------
// Strong snapshot isolation
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TxnEvent {
    Start(usize),
    Commit(usize),
}

/// Strong snapshot isolation over the complete transactions of a history.
///
/// Non-transactional reads and writes are treated as single-operation
/// transactions. The check searches for an interleaving of per-transaction
/// start and commit events such that every transaction reads from the
/// committed state at its start, no two concurrent transactions write the same
/// key (first-committer-wins), and a transaction that begins after another
/// ends starts after it commits (the "strong" session guarantee).
fn check_strong_si(history: &History) -> bool {
    let txns: Vec<OpId> = history.complete_ids();
    let n = txns.len();
    if n == 0 {
        return true;
    }
    // rt_edges[i] holds j iff txn j must commit before txn i starts.
    let mut must_commit_before_start: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, &a) in txns.iter().enumerate() {
        for (j, &b) in txns.iter().enumerate() {
            if i != j && real_time_precedes(history, b, a) {
                must_commit_before_start[i].push(j);
            }
        }
    }
    let mut state = SiState {
        committed_values: HashMap::new(),
        last_commit_index: HashMap::new(),
        start_index: vec![None; n],
        committed: vec![false; n],
        event_count: 0,
    };
    si_search(history, &txns, &must_commit_before_start, &mut state)
}

struct SiState {
    committed_values: HashMap<(u32, Key), Value>,
    last_commit_index: HashMap<(u32, Key), usize>,
    start_index: Vec<Option<usize>>,
    committed: Vec<bool>,
    event_count: usize,
}

fn si_search(
    history: &History,
    txns: &[OpId],
    must_commit_before_start: &[Vec<usize>],
    state: &mut SiState,
) -> bool {
    let n = txns.len();
    if state.event_count == 2 * n {
        return true;
    }
    for i in 0..n {
        let candidates: Vec<TxnEvent> = if state.start_index[i].is_none() {
            vec![TxnEvent::Start(i)]
        } else if !state.committed[i] {
            vec![TxnEvent::Commit(i)]
        } else {
            vec![]
        };
        for event in candidates {
            match event {
                TxnEvent::Start(i) => {
                    // Strong constraint: all real-time predecessors committed.
                    if must_commit_before_start[i].iter().any(|&j| !state.committed[j]) {
                        continue;
                    }
                    // Snapshot reads must match the recorded values.
                    let op = history.op(txns[i]);
                    let reads_ok = op.kind.read_keys_iter().all(|k| {
                        let snapshot = state
                            .committed_values
                            .get(&(op.service.0, k))
                            .copied()
                            .unwrap_or(Value::NULL);
                        op.observed_value(k).map(|v| v == snapshot).unwrap_or(true)
                    });
                    if !reads_ok {
                        continue;
                    }
                    state.start_index[i] = Some(state.event_count);
                    state.event_count += 1;
                    if si_search(history, txns, must_commit_before_start, state) {
                        return true;
                    }
                    state.event_count -= 1;
                    state.start_index[i] = None;
                }
                TxnEvent::Commit(i) => {
                    let op = history.op(txns[i]);
                    let start = state.start_index[i].expect("started before committing");
                    // First-committer-wins: nobody committed a write to any of
                    // our written keys after we started.
                    let conflict = op.kind.written_keys_iter().any(|k| {
                        state
                            .last_commit_index
                            .get(&(op.service.0, k))
                            .map(|&idx| idx > start)
                            .unwrap_or(false)
                    });
                    if conflict {
                        continue;
                    }
                    let saved_values: Vec<((u32, Key), Option<Value>)> = op
                        .kind
                        .written_keys_iter()
                        .map(|k| {
                            (
                                (op.service.0, k),
                                state.committed_values.get(&(op.service.0, k)).copied(),
                            )
                        })
                        .collect();
                    let saved_indices: Vec<((u32, Key), Option<usize>)> = op
                        .kind
                        .written_keys_iter()
                        .map(|k| {
                            (
                                (op.service.0, k),
                                state.last_commit_index.get(&(op.service.0, k)).copied(),
                            )
                        })
                        .collect();
                    for (k, v) in op.kind.written_values_iter() {
                        state.committed_values.insert((op.service.0, k), v);
                        state.last_commit_index.insert((op.service.0, k), state.event_count);
                    }
                    state.committed[i] = true;
                    state.event_count += 1;
                    if si_search(history, txns, must_commit_before_start, state) {
                        return true;
                    }
                    state.event_count -= 1;
                    state.committed[i] = false;
                    for (key, old) in saved_values {
                        match old {
                            Some(v) => state.committed_values.insert(key, v),
                            None => state.committed_values.remove(&key),
                        };
                    }
                    for (key, old) in saved_indices {
                        match old {
                            Some(v) => state.last_commit_index.insert(key, v),
                            None => state.last_commit_index.remove(&key),
                        };
                    }
                }
            }
        }
    }
    false
}

// ---------------------------------------------------------------------------
// Shao et al. multi-writer regularity
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MwrVariant {
    Weak,
    WriteOrder,
    ReadsFrom,
    NoInversion,
}

/// A serialization for one read: a permutation of all complete writes with the
/// read inserted at some position. Represented as the write order plus the
/// read's insertion index.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ReadSerialization {
    write_order: Vec<OpId>,
    read_position: usize,
}

fn check_mwr(history: &History, variant: MwrVariant) -> bool {
    let writes: Vec<OpId> = history
        .ops()
        .iter()
        .filter(|o| o.kind.is_mutating() && o.is_complete())
        .map(|o| o.id)
        .collect();
    let reads: Vec<OpId> = history
        .ops()
        .iter()
        .filter(|o| o.kind.is_read_only() && o.is_complete())
        .map(|o| o.id)
        .collect();

    // Additional write-write precedence constraints for MWR-RF, derived from
    // the transitive closure of real-time order and the reads-from relation.
    let derived_ww: Vec<(OpId, OpId)> = if variant == MwrVariant::ReadsFrom {
        derived_write_order(history, &writes)
    } else {
        Vec::new()
    };

    // Enumerate the valid serializations of every read.
    let mut per_read: Vec<Vec<ReadSerialization>> = Vec::new();
    for &r in &reads {
        let serializations = valid_serializations(history, &writes, r, &derived_ww);
        if serializations.is_empty() {
            return false;
        }
        per_read.push(serializations);
    }
    match variant {
        MwrVariant::Weak | MwrVariant::ReadsFrom => true,
        MwrVariant::WriteOrder => choose_compatible(
            history,
            &reads,
            &per_read,
            0,
            &mut Vec::new(),
            &|h, reads, choice| write_order_agreement(h, reads, choice),
        ),
        MwrVariant::NoInversion => choose_compatible(
            history,
            &reads,
            &per_read,
            0,
            &mut Vec::new(),
            &|h, reads, choice| no_inversion_agreement(h, reads, choice),
        ),
    }
}

/// Write-write order constraints implied by paths through the combined
/// real-time and reads-from relation (used by MWR-RF).
fn derived_write_order(history: &History, writes: &[OpId]) -> Vec<(OpId, OpId)> {
    let n = history.len();
    let mut reach = vec![vec![false; n]; n];
    for a in history.ops() {
        for b in history.ops() {
            if a.id != b.id && real_time_precedes(history, a.id, b.id) {
                reach[a.id.index()][b.id.index()] = true;
            }
        }
    }
    for (w, r) in crate::order::reads_from_edges(history) {
        reach[w.index()][r.index()] = true;
    }
    for k in 0..n {
        let row_k = reach[k].clone();
        for row in reach.iter_mut() {
            if row[k] {
                for (cell, &via_k) in row.iter_mut().zip(&row_k) {
                    *cell |= via_k;
                }
            }
        }
    }
    let mut edges = Vec::new();
    for &a in writes {
        for &b in writes {
            if a != b && reach[a.index()][b.index()] {
                edges.push((a, b));
            }
        }
    }
    edges
}

/// All serializations of `writes` plus read `r` that respect real time (and
/// any extra write-write constraints) and explain `r`'s return value.
fn valid_serializations(
    history: &History,
    writes: &[OpId],
    r: OpId,
    extra_ww: &[(OpId, OpId)],
) -> Vec<ReadSerialization> {
    let mut result = Vec::new();
    let mut order = Vec::new();
    permute_writes(history, writes, extra_ww, &mut order, &mut |write_order| {
        for pos in 0..=write_order.len() {
            if serialization_is_valid(history, write_order, pos, r) {
                result.push(ReadSerialization {
                    write_order: write_order.to_vec(),
                    read_position: pos,
                });
            }
        }
    });
    result
}

fn permute_writes(
    history: &History,
    writes: &[OpId],
    extra_ww: &[(OpId, OpId)],
    order: &mut Vec<OpId>,
    visit: &mut impl FnMut(&[OpId]),
) {
    if order.len() == writes.len() {
        visit(order);
        return;
    }
    for &w in writes {
        if order.contains(&w) {
            continue;
        }
        // Real-time order among writes must be respected: every write that
        // finished before `w` started must already be placed.
        let rt_ok = writes.iter().all(|&other| {
            other == w || !real_time_precedes(history, other, w) || order.contains(&other)
        });
        let extra_ok =
            extra_ww.iter().all(|&(a, b)| b != w || order.contains(&a) || !writes.contains(&a));
        if !rt_ok || !extra_ok {
            continue;
        }
        order.push(w);
        permute_writes(history, writes, extra_ww, order, visit);
        order.pop();
    }
}

fn serialization_is_valid(
    history: &History,
    write_order: &[OpId],
    read_pos: usize,
    r: OpId,
) -> bool {
    let read = history.op(r);
    // Real-time constraints between the read and the writes.
    for (i, &w) in write_order.iter().enumerate() {
        if real_time_precedes(history, w, r) && i >= read_pos {
            return false;
        }
        if real_time_precedes(history, r, w) && i < read_pos {
            return false;
        }
    }
    // The read must return the latest preceding write to each key it reads
    // (NULL if none precedes it).
    for key in read.kind.read_keys_iter() {
        let expected = write_order[..read_pos]
            .iter()
            .rev()
            .find_map(|&w| {
                history.op(w).kind.written_values_iter().find(|(k, _)| *k == key).map(|(_, v)| v)
            })
            .unwrap_or(Value::NULL);
        if let Some(observed) = read.observed_value(key) {
            if observed != expected {
                return false;
            }
        }
    }
    true
}

/// Agreement predicate over the chosen per-read serializations.
type AgreementFn = dyn Fn(&History, &[OpId], &[ReadSerialization]) -> bool;

fn choose_compatible(
    history: &History,
    reads: &[OpId],
    per_read: &[Vec<ReadSerialization>],
    index: usize,
    chosen: &mut Vec<ReadSerialization>,
    agree: &AgreementFn,
) -> bool {
    if index == per_read.len() {
        return agree(history, reads, chosen);
    }
    for candidate in &per_read[index] {
        chosen.push(candidate.clone());
        if choose_compatible(history, reads, per_read, index + 1, chosen, agree) {
            return true;
        }
        chosen.pop();
    }
    false
}

/// MWR-WO agreement: every pair of reads orders the writes relevant to both
/// identically. A write is relevant to a read if it does not begin after the
/// read ends (i.e., it precedes or is concurrent with the read).
fn write_order_agreement(history: &History, reads: &[OpId], chosen: &[ReadSerialization]) -> bool {
    for i in 0..reads.len() {
        for j in (i + 1)..reads.len() {
            let relevant = |w: OpId, r: OpId| !real_time_precedes(history, r, w);
            let common: Vec<OpId> = chosen[i]
                .write_order
                .iter()
                .copied()
                .filter(|&w| relevant(w, reads[i]) && relevant(w, reads[j]))
                .collect();
            for a in 0..common.len() {
                for b in 0..common.len() {
                    if a == b {
                        continue;
                    }
                    let pos = |serial: &ReadSerialization, w: OpId| {
                        serial.write_order.iter().position(|&x| x == w).expect("write present")
                    };
                    let order_i = pos(&chosen[i], common[a]) < pos(&chosen[i], common[b]);
                    let order_j = pos(&chosen[j], common[a]) < pos(&chosen[j], common[b]);
                    if order_i != order_j {
                        return false;
                    }
                }
            }
        }
    }
    true
}

/// MWR-NI agreement: reads issued by the same process order all writes
/// identically (different processes may disagree).
fn no_inversion_agreement(history: &History, reads: &[OpId], chosen: &[ReadSerialization]) -> bool {
    for i in 0..reads.len() {
        for j in (i + 1)..reads.len() {
            if history.op(reads[i]).process != history.op(reads[j]).process {
                continue;
            }
            if chosen[i].write_order != chosen[j].write_order {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::models::{satisfies, Model};
    use crate::history::{History, HistoryBuilder};

    fn allowed(h: &History, m: ProximalModel) -> bool {
        check_proximal(h, m).expect("history small enough for the exact checkers")
    }

    /// Figure 9: w1(x=1) precedes w2(y=1) in real time; a read-only
    /// transaction concurrent with both sees only the later write.
    fn figure_9() -> History {
        let mut b = HistoryBuilder::new();
        b.rw_txn(2, &[], &[(1, 1)], 0, 10); // w1: x = 1
        b.rw_txn(3, &[], &[(2, 1)], 20, 30); // w2: y = 1
        b.ro_txn(1, &[(1, 0), (2, 1)], 5, 40); // r1: x = 0, y = 1
        b.build()
    }

    /// Figure 10: both reads are concurrent with the long-running write; the
    /// first (by real time) sees it, the later one does not.
    fn figure_10() -> History {
        let mut b = HistoryBuilder::new();
        b.rw_txn(2, &[], &[(1, 1)], 0, 100); // w1: x = 1
        b.ro_txn(1, &[(1, 1)], 10, 20); // r1: x = 1
        b.ro_txn(3, &[(1, 0)], 30, 40); // r2: x = 0
        b.build()
    }

    /// Figure 11: write skew between two concurrent read-write transactions.
    fn figure_11() -> History {
        let mut b = HistoryBuilder::new();
        b.rw_txn(3, &[], &[(1, 1), (2, 1)], 0, 5); // initialize x = y = 1
        b.rw_txn(1, &[(1, 1), (2, 1)], &[(1, 2)], 10, 20);
        b.rw_txn(2, &[(1, 1), (2, 1)], &[(2, 2)], 10, 20);
        b.build()
    }

    /// Figure 13: a stale read strictly after a completed write.
    fn figure_13() -> History {
        let mut b = HistoryBuilder::new();
        b.write(1, 1, 1, 0, 10);
        b.read(2, 1, 0, 20, 30);
        b.build()
    }

    /// Figure 14: r1 precedes w1 in real time; P4 then reads x=1 followed by
    /// x=2 while w2 is still in flight.
    fn figure_14() -> History {
        let mut b = HistoryBuilder::new();
        b.write(2, 1, 2, 5, 60); // w2: x = 2, long running
        b.read(3, 1, 2, 8, 15); // r1: x = 2
        b.write(1, 1, 1, 20, 30); // w1: x = 1
        b.read(4, 1, 1, 35, 45); // r2: x = 1
        b.read(4, 1, 2, 46, 55); // r3: x = 2
        b.build()
    }

    /// Figure 15: the IRIW (independent reads of independent writes) shape.
    fn figure_15() -> History {
        let mut b = HistoryBuilder::new();
        b.write(1, 1, 1, 0, 100); // w1: x = 1
        b.write(2, 2, 1, 0, 100); // w2: y = 1
        b.read(3, 1, 1, 20, 25); // r1: x = 1
        b.read(3, 2, 0, 26, 30); // r2: y = 0
        b.read(4, 2, 1, 20, 25); // r3: y = 1
        b.read(4, 1, 0, 26, 30); // r4: x = 0
        b.build()
    }

    /// Figure 16: two concurrent writes; later reads by different processes
    /// disagree on which one is newer.
    fn figure_16() -> History {
        let mut b = HistoryBuilder::new();
        b.write(1, 1, 1, 0, 10); // w1: x = 1
        b.write(3, 1, 2, 0, 10); // w2: x = 2
        b.read(2, 1, 1, 20, 30); // r1: x = 1
        b.read(4, 1, 2, 20, 30); // r2: x = 2
        b.build()
    }

    #[test]
    fn figure_9_crdb_allows_rss_disallows() {
        let h = figure_9();
        assert!(allowed(&h, ProximalModel::Crdb));
        assert!(!satisfies(&h, Model::RegularSequentialSerializability));
        // Strong SI also disallows it (real-time order of the two writes).
        assert!(!allowed(&h, ProximalModel::StrongSnapshotIsolation));
        // PO serializability allows it.
        assert!(satisfies(&h, Model::ProcessOrderedSerializability));
    }

    #[test]
    fn figure_10_rss_allows_crdb_disallows() {
        let h = figure_10();
        assert!(satisfies(&h, Model::RegularSequentialSerializability));
        assert!(!allowed(&h, ProximalModel::Crdb));
    }

    #[test]
    fn figure_11_write_skew_allowed_by_strong_si_only() {
        let h = figure_11();
        assert!(allowed(&h, ProximalModel::StrongSnapshotIsolation));
        assert!(!satisfies(&h, Model::RegularSequentialSerializability));
        assert!(!satisfies(&h, Model::ProcessOrderedSerializability));
    }

    #[test]
    fn figure_13_osc_u_allows_rsc_disallows() {
        let h = figure_13();
        assert!(allowed(&h, ProximalModel::OscU));
        assert!(!satisfies(&h, Model::RegularSequentialConsistency));
        // VV regularity also disallows the stale read.
        assert!(!allowed(&h, ProximalModel::VvRegularity));
        // Real-time causal allows it: the read is causally unrelated to the
        // write, so it may return a stale value.
        assert!(allowed(&h, ProximalModel::RealTimeCausal));
    }

    #[test]
    fn figure_14_rsc_allows_osc_u_disallows() {
        let h = figure_14();
        assert!(satisfies(&h, Model::RegularSequentialConsistency));
        assert!(!allowed(&h, ProximalModel::OscU));
        assert!(allowed(&h, ProximalModel::VvRegularity));
    }

    #[test]
    fn figure_15_mwr_allows_rsc_disallows() {
        let h = figure_15();
        assert!(!satisfies(&h, Model::RegularSequentialConsistency));
        assert!(!satisfies(&h, Model::SequentialConsistency));
        assert!(allowed(&h, ProximalModel::MwrWeak));
        assert!(allowed(&h, ProximalModel::MwrWriteOrder));
        assert!(allowed(&h, ProximalModel::MwrNoInversion));
    }

    #[test]
    fn figure_16_mwr_rf_and_ni_allow_rsc_disallows() {
        let h = figure_16();
        assert!(!satisfies(&h, Model::RegularSequentialConsistency));
        assert!(allowed(&h, ProximalModel::MwrReadsFrom));
        assert!(allowed(&h, ProximalModel::MwrNoInversion));
        assert!(allowed(&h, ProximalModel::MwrWeak));
    }

    /// Appendix A as one matrix: the schedules of Figures 9–11 and 13–16
    /// against the five core and nine proximal models (`+` allowed, `-`
    /// disallowed; printed under `--nocapture`). The paper states the cells
    /// the `figure_*` tests above assert — each figure separates one pair of
    /// models; the rest of the matrix pins what the exact checkers decide for
    /// the same seven schedules, so a verdict that moves is seen.
    #[test]
    fn appendix_matrix_matches_the_paper() {
        const EXPECTED: [(&str, &str); 14] = [
            ("Strict Serializability", "-------"),
            ("RSS", "-+--+--"),
            ("RSC", "-+--+--"),
            ("PO Serializability", "++-++-+"),
            ("Sequential Consistency", "++-++-+"),
            ("CRDB", "+------"),
            ("Strong SI", "--+----"),
            ("OSC(U)", "-+-+--+"),
            ("VV Regularity", "-+--++-"),
            ("Real-Time Causal", "-+-++++"),
            ("MWR-Weak", "-++-+++"),
            ("MWR-WO", "-++-++-"),
            ("MWR-RF", "-++--++"),
            ("MWR-NI", "-++-+++"),
        ];
        let figures = [
            figure_9(),
            figure_10(),
            figure_11(),
            figure_13(),
            figure_14(),
            figure_15(),
            figure_16(),
        ];
        let row = |allows: &dyn Fn(&History) -> bool| -> String {
            figures.iter().map(|h| if allows(h) { '+' } else { '-' }).collect()
        };
        let core = [
            Model::StrictSerializability,
            Model::RegularSequentialSerializability,
            Model::RegularSequentialConsistency,
            Model::ProcessOrderedSerializability,
            Model::SequentialConsistency,
        ];
        let proximal = [
            ProximalModel::Crdb,
            ProximalModel::StrongSnapshotIsolation,
            ProximalModel::OscU,
            ProximalModel::VvRegularity,
            ProximalModel::RealTimeCausal,
            ProximalModel::MwrWeak,
            ProximalModel::MwrWriteOrder,
            ProximalModel::MwrReadsFrom,
            ProximalModel::MwrNoInversion,
        ];
        let computed: Vec<(&str, String)> = core
            .iter()
            .map(|&m| (m.name(), row(&|h| satisfies(h, m))))
            .chain(proximal.iter().map(|&m| (m.name(), row(&|h| allowed(h, m)))))
            .collect();
        println!("{:<24} Fig 9 10 11 13 14 15 16", "model");
        for (name, verdicts) in &computed {
            let spaced: Vec<String> = verdicts.chars().map(|c| format!("{c:>2}")).collect();
            println!("{name:<24}    {}", spaced.join(" "));
        }
        let expected: Vec<(&str, String)> =
            EXPECTED.iter().map(|(name, row)| (*name, row.to_string())).collect();
        assert_eq!(computed, expected);
    }

    #[test]
    fn linearizable_history_allowed_by_all_weaker_models() {
        let mut b = HistoryBuilder::new();
        b.write(1, 1, 1, 0, 10);
        b.read(2, 1, 1, 20, 30);
        b.write(1, 1, 2, 40, 50);
        b.read(2, 1, 2, 60, 70);
        let h = b.build();
        assert!(satisfies(&h, Model::Linearizability));
        for model in [
            ProximalModel::Crdb,
            ProximalModel::StrongSnapshotIsolation,
            ProximalModel::OscU,
            ProximalModel::RealTimeCausal,
            ProximalModel::VvRegularity,
            ProximalModel::MwrWeak,
            ProximalModel::MwrWriteOrder,
            ProximalModel::MwrReadsFrom,
            ProximalModel::MwrNoInversion,
        ] {
            assert!(allowed(&h, model), "linearizable history rejected by {}", model.name());
        }
    }

    #[test]
    fn unexplainable_value_rejected_by_all_models() {
        let mut b = HistoryBuilder::new();
        b.write(1, 1, 1, 0, 10);
        b.read(2, 1, 42, 20, 30); // value nobody wrote
        let h = b.build();
        for model in [
            ProximalModel::Crdb,
            ProximalModel::OscU,
            ProximalModel::RealTimeCausal,
            ProximalModel::VvRegularity,
            ProximalModel::MwrWeak,
            ProximalModel::MwrWriteOrder,
            ProximalModel::MwrReadsFrom,
            ProximalModel::MwrNoInversion,
        ] {
            assert!(!allowed(&h, model), "impossible history accepted by {}", model.name());
        }
    }

    #[test]
    fn model_names() {
        assert_eq!(ProximalModel::Crdb.name(), "CRDB");
        assert_eq!(ProximalModel::MwrReadsFrom.name(), "MWR-RF");
    }
}
