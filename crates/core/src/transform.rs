//! The Lemma 1 transformation: from an RSS (RSC) execution to an equivalent
//! strictly serializable (linearizable) one.
//!
//! The paper's central correctness argument (Section 3.5, Appendix C) is that
//! any execution satisfying RSS/RSC can be reordered — without changing any
//! process's sub-execution — into an execution in which the service
//! interactions are sequential in the witness order `S`. Since per-process
//! sub-executions are preserved, every process passes through the same states,
//! so all invariants carry over (Theorem 2).
//!
//! This module *mechanizes* the transformation: given a history and a witness
//! sequence, it produces the reordered schedule of actions and exposes checks
//! that (a) every process's action order is preserved, and (b) the service
//! interactions are sequential and follow the witness order. The property
//! tests in this crate exercise it on randomly generated RSS histories.

use std::collections::HashMap;

use crate::history::History;
use crate::order::reads_from_edges;
use crate::types::{OpId, ProcessId, Timestamp};

/// One action of the execution's schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Invocation of an operation at its process.
    Invoke(OpId),
    /// Response of an operation at its process.
    Respond(OpId),
    /// Send action of the `i`-th recorded message at the sending process.
    Send(usize),
    /// Receive action of the `i`-th recorded message at the receiving process.
    Receive(usize),
}

#[derive(Debug, Clone, Copy)]
struct ActionInfo {
    action: Action,
    process: ProcessId,
    time: Timestamp,
    /// Tie-break rank within a process at equal times: responses and receipts
    /// happen before sends and invocations.
    tie: u8,
}

/// The result of applying the Lemma 1 transformation.
#[derive(Debug, Clone)]
pub struct TransformedExecution {
    original: Vec<ActionInfo>,
    /// Indices into `original`, in the transformed (β) order.
    transformed: Vec<usize>,
}

/// Builds the action-level schedule of a history: invocations, responses,
/// sends, and receives, ordered by real time (per-process ties broken so that
/// responses precede subsequent sends/invocations).
fn action_schedule(history: &History) -> Vec<ActionInfo> {
    let mut actions = Vec::new();
    for op in history.ops() {
        actions.push(ActionInfo {
            action: Action::Invoke(op.id),
            process: op.process,
            time: op.invoke,
            tie: 2,
        });
        if let Some(resp) = op.response() {
            actions.push(ActionInfo {
                action: Action::Respond(op.id),
                process: op.process,
                time: resp,
                tie: 0,
            });
        }
    }
    for (i, m) in history.messages().iter().enumerate() {
        actions.push(ActionInfo {
            action: Action::Send(i),
            process: m.from,
            time: m.sent_at,
            tie: 1,
        });
        actions.push(ActionInfo {
            action: Action::Receive(i),
            process: m.to,
            time: m.received_at,
            tie: 0,
        });
    }
    actions.sort_by_key(|a| (a.time, a.tie));
    actions
}

/// Applies the Lemma 1 construction to `history` with witness sequence
/// `witness` (the sequence `S ∈ 𝔖` produced by an RSS/RSC checker).
///
/// Every action is ordered after the maximal (by the witness order)
/// invocation/response action that causally precedes it; causally unrelated
/// actions keep their original relative order.
pub fn transform(history: &History, witness: &[OpId]) -> TransformedExecution {
    let actions = action_schedule(history);
    let n = actions.len();

    // Rank of each operation's invocation/response in the witness order.
    let mut op_pos: HashMap<OpId, usize> = HashMap::new();
    for (i, &id) in witness.iter().enumerate() {
        op_pos.insert(id, i);
    }
    let unplaced_base = witness.len();
    let mut next_unplaced = 0usize;
    let mut rank_of_op: HashMap<OpId, usize> = HashMap::new();
    for op in history.ops() {
        let pos = match op_pos.get(&op.id) {
            Some(&p) => p,
            None => {
                let p = unplaced_base + next_unplaced;
                next_unplaced += 1;
                p
            }
        };
        rank_of_op.insert(op.id, pos);
    }
    let rank_of_action = |a: &Action| -> Option<usize> {
        match a {
            Action::Invoke(id) => Some(2 * rank_of_op[id]),
            Action::Respond(id) => Some(2 * rank_of_op[id] + 1),
            _ => None,
        }
    };

    // Causal DAG over actions: per-process order, message send -> receive,
    // reads-from (writer response -> reader invocation), then propagate the
    // maximal causally preceding invocation/response rank along edges.
    let mut adjacency: Vec<Vec<usize>> = vec![Vec::new(); n];
    // Map from action identity to its index in `actions`.
    let mut index_of: HashMap<ActionKey, usize> = HashMap::new();
    for (i, a) in actions.iter().enumerate() {
        index_of.insert(ActionKey::from(&a.action), i);
    }
    // Per-process order edges between consecutive actions.
    let mut per_process: HashMap<ProcessId, Vec<usize>> = HashMap::new();
    for (i, a) in actions.iter().enumerate() {
        per_process.entry(a.process).or_default().push(i);
    }
    for indices in per_process.values() {
        for w in indices.windows(2) {
            adjacency[w[0]].push(w[1]);
        }
    }
    // Message edges.
    for (i, _m) in history.messages().iter().enumerate() {
        if let (Some(&s), Some(&r)) =
            (index_of.get(&ActionKey::Send(i)), index_of.get(&ActionKey::Receive(i)))
        {
            adjacency[s].push(r);
        }
    }
    // Reads-from edges: writer response -> reader invocation. (Op-level
    // process-order and message edges are paths through the action-level
    // edges above.)
    for (w, r) in reads_from_edges(history) {
        if let (Some(&a), Some(&b)) =
            (index_of.get(&ActionKey::Respond(w)), index_of.get(&ActionKey::Invoke(r)))
        {
            adjacency[a].push(b);
        }
    }

    // key[i] = maximal witness rank among invocation/response actions that
    // causally precede (or are) action i. Reads-from edges can point backwards
    // in real time (a read of a concurrent write is invoked before the write
    // responds), so we relax to a fixpoint; keys only grow and are bounded by
    // the maximal rank, so the loop terminates.
    let mut key: Vec<i64> = vec![-1; n];
    for (i, a) in actions.iter().enumerate() {
        if let Some(r) = rank_of_action(&a.action) {
            key[i] = key[i].max(r as i64);
        }
    }
    let mut changed = true;
    while changed {
        changed = false;
        for i in 0..n {
            for &next in &adjacency[i] {
                if key[i] > key[next] {
                    key[next] = key[i];
                    changed = true;
                }
            }
        }
    }

    // Stable sort by key: actions with equal keys keep their original order.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| (key[i], i));

    TransformedExecution { original: actions, transformed: order }
}

/// Identity of an action, used to index the action table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum ActionKey {
    Invoke(OpId),
    Respond(OpId),
    Send(usize),
    Receive(usize),
}

impl From<&Action> for ActionKey {
    fn from(a: &Action) -> Self {
        match a {
            Action::Invoke(id) => ActionKey::Invoke(*id),
            Action::Respond(id) => ActionKey::Respond(*id),
            Action::Send(i) => ActionKey::Send(*i),
            Action::Receive(i) => ActionKey::Receive(*i),
        }
    }
}

impl TransformedExecution {
    /// The transformed schedule (β in the paper).
    pub fn schedule(&self) -> Vec<Action> {
        self.transformed.iter().map(|&i| self.original[i].action).collect()
    }

    /// The original schedule (α in the paper).
    pub fn original_schedule(&self) -> Vec<Action> {
        self.original.iter().map(|a| a.action).collect()
    }

    /// Lemma 1, equivalence clause: every process's sub-schedule is identical
    /// in α and β.
    pub fn per_process_order_preserved(&self) -> bool {
        let project = |indices: &[usize]| -> HashMap<ProcessId, Vec<Action>> {
            let mut per: HashMap<ProcessId, Vec<Action>> = HashMap::new();
            for &i in indices {
                per.entry(self.original[i].process).or_default().push(self.original[i].action);
            }
            per
        };
        let original: Vec<usize> = (0..self.original.len()).collect();
        project(&original) == project(&self.transformed)
    }

    /// Lemma 1, sequential-service clause: in β, no other invocation or
    /// response occurs between an operation's invocation and its response.
    pub fn service_interactions_sequential(&self) -> bool {
        let mut open: Option<OpId> = None;
        for &i in &self.transformed {
            match self.original[i].action {
                Action::Invoke(id) => {
                    if open.is_some() {
                        return false;
                    }
                    open = Some(id);
                }
                Action::Respond(id) => {
                    if open != Some(id) {
                        return false;
                    }
                    open = None;
                }
                _ => {}
            }
        }
        true
    }

    /// The operations' order in β matches the witness order (restricted to the
    /// operations that appear in the witness).
    pub fn respects_witness(&self, witness: &[OpId]) -> bool {
        let mut pos: HashMap<OpId, usize> = HashMap::new();
        for (i, &id) in witness.iter().enumerate() {
            pos.insert(id, i);
        }
        let mut last = None;
        for &i in &self.transformed {
            if let Action::Invoke(id) = self.original[i].action {
                if let Some(&p) = pos.get(&id) {
                    if let Some(prev) = last {
                        if p < prev {
                            return false;
                        }
                    }
                    last = Some(p);
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::models::{check, Model};
    use crate::history::HistoryBuilder;

    /// The Figure 2 example: the RSS execution is transformed into a strictly
    /// serializable one without reordering any process's actions.
    #[test]
    fn figure_2_transformation() {
        let mut b = HistoryBuilder::new();
        let w1 = b.write(2, 1, 1, 0, 100);
        let r2 = b.read(3, 1, 1, 10, 20);
        let r1 = b.read(1, 1, 0, 30, 40);
        let h = b.build();
        let outcome = check(&h, Model::RegularSequentialConsistency).unwrap();
        assert!(outcome.satisfied);
        let witness = outcome.witness.unwrap();
        // The only valid witness is r1, w1, r2.
        assert_eq!(witness, vec![r1, w1, r2]);

        let t = transform(&h, &witness);
        assert!(t.per_process_order_preserved());
        assert!(t.service_interactions_sequential());
        assert!(t.respects_witness(&witness));
        // In the transformed schedule the read of the old value comes first.
        let sched = t.schedule();
        let pos_inv_r1 = sched.iter().position(|a| *a == Action::Invoke(r1)).unwrap();
        let pos_inv_w1 = sched.iter().position(|a| *a == Action::Invoke(w1)).unwrap();
        let pos_inv_r2 = sched.iter().position(|a| *a == Action::Invoke(r2)).unwrap();
        assert!(pos_inv_r1 < pos_inv_w1 && pos_inv_w1 < pos_inv_r2);
    }

    #[test]
    fn transformation_with_messages_preserves_process_order() {
        let mut b = HistoryBuilder::new();
        let w = b.write(1, 1, 7, 0, 10);
        let r = b.read(2, 1, 7, 40, 50);
        b.message(1, 15, 2, 20);
        let h = b.build();
        let outcome = check(&h, Model::RegularSequentialConsistency).unwrap();
        let witness = outcome.witness.unwrap();
        assert_eq!(witness, vec![w, r]);
        let t = transform(&h, &witness);
        assert!(t.per_process_order_preserved());
        assert!(t.service_interactions_sequential());
        assert!(t.respects_witness(&witness));
        // The send still happens after the write's response and before the
        // receive in the transformed schedule.
        let sched = t.schedule();
        let send = sched.iter().position(|a| *a == Action::Send(0)).unwrap();
        let recv = sched.iter().position(|a| *a == Action::Receive(0)).unwrap();
        let resp_w = sched.iter().position(|a| *a == Action::Respond(w)).unwrap();
        assert!(resp_w < send && send < recv);
    }

    #[test]
    fn already_sequential_execution_is_unchanged() {
        let mut b = HistoryBuilder::new();
        let w = b.write(1, 1, 1, 0, 10);
        let r = b.read(2, 1, 1, 20, 30);
        let h = b.build();
        let witness = vec![w, r];
        let t = transform(&h, &witness);
        assert_eq!(t.schedule(), t.original_schedule());
        assert!(t.per_process_order_preserved());
        assert!(t.service_interactions_sequential());
    }

    #[test]
    fn incomplete_operations_are_kept_at_their_process() {
        let mut b = HistoryBuilder::new();
        let w = b.write(1, 1, 1, 0, 10);
        let pending = b.pending_write(3, 2, 9, 5);
        let r = b.read(2, 1, 1, 20, 30);
        let h = b.build();
        let witness = vec![w, r];
        let t = transform(&h, &witness);
        assert!(t.per_process_order_preserved());
        // The pending write has an invocation but no response; sequentiality
        // only applies to matched pairs, so we check the witness order instead.
        assert!(t.respects_witness(&witness));
        let sched = t.schedule();
        assert!(sched.contains(&Action::Invoke(pending)));
    }
}
