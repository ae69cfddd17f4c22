//! Search-based checkers for the paper's consistency models.
//!
//! | Model | Constraint set on the witness sequence |
//! |---|---|
//! | Strict serializability / linearizability | real-time order between every pair of operations |
//! | RSS / RSC | causal order, plus: every completed write precedes (in `S`) every conflicting read-only operation and every write that follows it in real time |
//! | PO serializability / sequential consistency | each process's order |
//!
//! In every case the witness sequence must also be legal with respect to the
//! sequential specification (enforced by replay during the search), which is
//! the "equivalent to `complete(α₂)`" clause of the definitions.

use crate::checker::search::{find_sequence_with, Constraints, SearchError};
use crate::history::{History, HistoryIndex};
use crate::order::CausalOrder;
use crate::types::OpId;

/// A consistency model checkable by the exact search.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Model {
    /// Strict serializability (transactions) \[Papadimitriou 1979\].
    StrictSerializability,
    /// Linearizability (single operations) \[Herlihy & Wing 1990\].
    Linearizability,
    /// Regular sequential serializability — this paper.
    RegularSequentialSerializability,
    /// Regular sequential consistency — this paper.
    RegularSequentialConsistency,
    /// Process-ordered serializability \[Daudjee & Salem 2004, Lu et al. 2016\].
    ProcessOrderedSerializability,
    /// Sequential consistency \[Lamport 1979\].
    SequentialConsistency,
}

impl Model {
    /// Short display name used by the Table 1 / Appendix A harnesses.
    pub fn name(&self) -> &'static str {
        match self {
            Model::StrictSerializability => "Strict Serializability",
            Model::Linearizability => "Linearizability",
            Model::RegularSequentialSerializability => "RSS",
            Model::RegularSequentialConsistency => "RSC",
            Model::ProcessOrderedSerializability => "PO Serializability",
            Model::SequentialConsistency => "Sequential Consistency",
        }
    }

    /// True for the transactional models (the distinction is presentational:
    /// the constraint structure is shared with the non-transactional twin).
    pub fn is_transactional(&self) -> bool {
        matches!(
            self,
            Model::StrictSerializability
                | Model::RegularSequentialSerializability
                | Model::ProcessOrderedSerializability
        )
    }
}

/// The outcome of a model check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckOutcome {
    /// Whether the history satisfies the model.
    pub satisfied: bool,
    /// A witness sequence when satisfied.
    pub witness: Option<Vec<OpId>>,
}

impl CheckOutcome {
    fn satisfied(witness: Vec<OpId>) -> Self {
        CheckOutcome { satisfied: true, witness: Some(witness) }
    }

    fn violated() -> Self {
        CheckOutcome { satisfied: false, witness: None }
    }
}

fn real_time_edges_indexed(index: &HistoryIndex) -> Vec<(OpId, OpId)> {
    let n = index.len();
    let mut edges = Vec::new();
    for a in 0..n {
        if !index.is_complete(a) {
            continue;
        }
        for b in 0..n {
            if a != b && index.real_time_precedes(a, b) {
                edges.push((OpId(a as u32), OpId(b as u32)));
            }
        }
    }
    edges
}

/// The "regular" write constraint of RSS/RSC (clause 3 of the definitions):
/// for every completed mutating operation `w` and every operation `t` that is
/// either a conflicting read-only operation or itself mutating, if `w`
/// finishes before `t` starts then `w` must precede `t` in the sequence.
fn regular_write_edges_indexed(index: &HistoryIndex) -> Vec<(OpId, OpId)> {
    let n = index.len();
    let mut edges = Vec::new();
    for w in 0..n {
        if !index.is_mutating(w) || !index.is_complete(w) {
            continue;
        }
        let written = index.write_key_ids(w);
        for t in 0..n {
            if t == w || !index.real_time_precedes(w, t) {
                continue;
            }
            let conflicting_read = index.is_read_only(t)
                && index.service_raw(t) == index.service_raw(w)
                && index.read_key_ids(t).iter().any(|k| written.contains(k));
            if index.is_mutating(t) || conflicting_read {
                edges.push((OpId(w as u32), OpId(t as u32)));
            }
        }
    }
    edges
}

/// Builds the constraint set for a model over a history.
pub fn constraints_for(history: &History, model: Model) -> Constraints {
    constraints_for_with(history, &HistoryIndex::new(history), model)
}

/// [`constraints_for`] over a prebuilt index (shared with the search).
pub fn constraints_for_with(history: &History, index: &HistoryIndex, model: Model) -> Constraints {
    match model {
        Model::StrictSerializability | Model::Linearizability => {
            Constraints::from_edges(real_time_edges_indexed(index))
        }
        Model::RegularSequentialSerializability | Model::RegularSequentialConsistency => {
            let mut edges = CausalOrder::new(history).direct_edges().to_vec();
            edges.extend(regular_write_edges_indexed(index));
            Constraints::from_edges(edges)
        }
        Model::ProcessOrderedSerializability | Model::SequentialConsistency => {
            Constraints::from_edges(index.ops_by_process().pairs().collect())
        }
    }
}

/// Checks whether `history` satisfies `model`.
///
/// One call of the exact searcher ([`find_sequence_with`]) over the model's
/// constraint set: every complete operation is required, and any subset of
/// the pending mutating ones may have taken effect. There is no size
/// ceiling, but the search is exponential in the worst case — use the
/// certificate checkers for protocol-scale histories.
///
/// # Errors
///
/// [`SearchError::TooManyPending`] if the history has more than 12 pending
/// mutating operations.
pub fn check(history: &History, model: Model) -> Result<CheckOutcome, SearchError> {
    let index = HistoryIndex::new(history);
    let constraints = constraints_for_with(history, &index, model);
    let found =
        find_sequence_with(&index, index.complete_ids(), index.pending_mutations(), &constraints)?;
    Ok(found.map_or_else(CheckOutcome::violated, CheckOutcome::satisfied))
}

/// Convenience wrapper asserting satisfaction, for use in tests and examples.
///
/// # Panics
///
/// Panics, naming the [`SearchError`], where [`check`] cannot decide.
pub fn satisfies(history: &History, model: Model) -> bool {
    check(history, model).expect("models::check cannot decide this history").satisfied
}

/// Checks a history against a *composition of independently consistent
/// services*: each service's sub-history is checked on its own.
///
/// This is what an application actually gets when it uses several services
/// whose consistency model is not composable (Section 2.5): PO serializability
/// and sequential consistency only constrain each service individually, so the
/// cross-service ordering that invariant I2 relies on is lost. For composable
/// models (strict serializability) and for RSS/RSC services composed through
/// real-time fences, the composed check coincides with the composite check.
pub fn check_composed(history: &History, model: Model) -> Result<CheckOutcome, SearchError> {
    let mut witness_all = Vec::new();
    for service in history.services() {
        let sub = history.project_service(service);
        let outcome = check(&sub, model)?;
        if !outcome.satisfied {
            return Ok(CheckOutcome::violated());
        }
        if let Some(w) = outcome.witness {
            witness_all.extend(w);
        }
    }
    Ok(CheckOutcome { satisfied: true, witness: Some(witness_all) })
}

/// Convenience wrapper over [`check_composed`].
///
/// # Panics
///
/// Panics, naming the [`SearchError`], where [`check_composed`] cannot
/// decide.
pub fn satisfies_composed(history: &History, model: Model) -> bool {
    check_composed(history, model)
        .expect("models::check_composed cannot decide this history")
        .satisfied
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::HistoryBuilder;

    /// The example from Figure 2 of the paper: P2 writes x=1; P1 reads x=0
    /// concurrently with the write; P3 reads x=1 concurrently with the write.
    /// This satisfies RSS (and RSC) but not strict serializability when the
    /// read of 0 follows (in real time) the read of 1.
    fn figure_2_history() -> crate::history::History {
        let mut b = HistoryBuilder::new();
        // w1(x=1) spans [0, 100].
        b.write(2, 1, 1, 0, 100);
        // r2(x=1) happens early within the write's span.
        b.read(3, 1, 1, 10, 20);
        // r1(x=0) happens later, still concurrent with the write.
        b.read(1, 1, 0, 30, 40);
        b.build()
    }

    #[test]
    fn figure_2_rsc_but_not_linearizable() {
        let h = figure_2_history();
        assert!(satisfies(&h, Model::RegularSequentialConsistency));
        assert!(satisfies(&h, Model::SequentialConsistency));
        // Strict serializability / linearizability forbid it: r2 returned the
        // new value and finished before r1 started, so r1 must also see it.
        assert!(!satisfies(&h, Model::Linearizability));
        assert!(!satisfies(&h, Model::StrictSerializability));
    }

    #[test]
    fn stale_read_after_completed_write_violates_rsc() {
        let mut b = HistoryBuilder::new();
        b.write(1, 1, 1, 0, 10);
        b.read(2, 1, 0, 20, 30); // stale read strictly after the write completed
        let h = b.build();
        assert!(!satisfies(&h, Model::RegularSequentialConsistency));
        assert!(!satisfies(&h, Model::Linearizability));
        // Sequential consistency allows stale reads.
        assert!(satisfies(&h, Model::SequentialConsistency));
    }

    #[test]
    fn causal_violation_breaks_rsc_but_not_sequential_consistency_with_messages() {
        // Alice writes a photo, calls Bob (message), Bob reads and misses it:
        // anomaly A2. RSC forbids it; sequential consistency does not capture
        // the message so it allows it.
        let mut b = HistoryBuilder::new();
        b.write(1, 1, 7, 0, 10);
        b.read(2, 1, 0, 40, 50);
        b.message(1, 15, 2, 20);
        let h = b.build();
        assert!(!satisfies(&h, Model::RegularSequentialConsistency));
        assert!(satisfies(&h, Model::SequentialConsistency));
    }

    #[test]
    fn writes_must_respect_real_time_under_rsc() {
        // Two sequential writes by different processes, then a late read that
        // sees only the first: under RSC the second write (which follows the
        // first in real time) must be ordered after it, and the read conflicts
        // with both, so reading the older value after both completed is illegal.
        let mut b = HistoryBuilder::new();
        b.write(1, 1, 1, 0, 10);
        b.write(2, 1, 2, 20, 30);
        b.read(3, 1, 1, 40, 50);
        let h = b.build();
        assert!(!satisfies(&h, Model::RegularSequentialConsistency));
        // PO serializability is fine with it.
        assert!(satisfies(&h, Model::ProcessOrderedSerializability));
    }

    #[test]
    fn transactional_models_on_figure_4_style_history() {
        // CW commits writes to two keys; CR1 reads them during the commit;
        // CR2 reads the old values afterwards (still concurrent with CW's txn).
        let mut b = HistoryBuilder::new();
        b.rw_txn(1, &[], &[(1, 10), (2, 20)], 0, 100);
        b.ro_txn(2, &[(1, 10), (2, 20)], 10, 30);
        b.ro_txn(3, &[(1, 0), (2, 0)], 40, 60);
        let h = b.build();
        assert!(satisfies(&h, Model::RegularSequentialSerializability));
        assert!(!satisfies(&h, Model::StrictSerializability));
    }

    #[test]
    fn incomplete_write_may_or_may_not_be_visible() {
        let mut b = HistoryBuilder::new();
        b.pending_write(1, 1, 5, 0);
        b.read(2, 1, 5, 10, 20);
        b.read(3, 1, 0, 10, 20);
        let h = b.build();
        // One reader sees the pending write, the other does not; both outcomes
        // are simultaneously explainable only if the two reads can be ordered
        // around the write, which linearizability allows here because the
        // reads are concurrent with... each other? They're not: both [10,20].
        // They are concurrent, so this is linearizable.
        assert!(satisfies(&h, Model::Linearizability));
        assert!(satisfies(&h, Model::RegularSequentialConsistency));
    }

    #[test]
    fn lost_update_is_not_serializable_in_any_model() {
        // Two rmw-style rw-transactions both read 0 and write 1 and 2; a later
        // read sees only 2 — classic lost update, no sequential order explains
        // both reads of 0.
        let mut b = HistoryBuilder::new();
        b.rw_txn(1, &[(1, 0)], &[(1, 1)], 0, 10);
        b.rw_txn(2, &[(1, 0)], &[(1, 2)], 0, 10);
        b.ro_txn(3, &[(1, 2)], 20, 30);
        let h = b.build();
        assert!(!satisfies(&h, Model::ProcessOrderedSerializability));
        assert!(!satisfies(&h, Model::RegularSequentialSerializability));
        assert!(!satisfies(&h, Model::StrictSerializability));
    }

    #[test]
    fn model_metadata() {
        assert_eq!(Model::RegularSequentialSerializability.name(), "RSS");
        assert!(Model::StrictSerializability.is_transactional());
        assert!(!Model::Linearizability.is_transactional());
    }
}
