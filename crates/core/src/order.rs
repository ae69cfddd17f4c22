//! Orders over operations: real-time, process, reads-from, and causal order.
//!
//! These relations are the building blocks of the paper's consistency
//! definitions (Section 3.3):
//!
//! * **Real-time order** `→`: operation `a` precedes `b` if `a`'s response
//!   occurs before `b`'s invocation.
//! * **Process order**: the order of operations within a single process.
//! * **Reads-from**: `b` reads a value written by `a`.
//! * **Causal order** `⇝`: the transitive closure of process order,
//!   message passing, and reads-from.
//!
//! The reads-from relation requires written values to be distinguishable. The
//! simulator harnesses and test generators in this repository write a unique
//! value per (key, writer) pair; when the same `(key, value)` pair is written
//! by several operations, all of them are conservatively treated as potential
//! sources (adding, never removing, causal edges).

use std::collections::HashMap;

use crate::history::{ByProcess, History};
use crate::types::{Key, OpId, Value};

/// True if `a` precedes `b` in real time: `a` has a response and it occurs
/// before `b`'s invocation.
pub fn real_time_precedes(history: &History, a: OpId, b: OpId) -> bool {
    let (ra, rb) = (history.op(a), history.op(b));
    match ra.response() {
        Some(resp) => resp < rb.invoke,
        None => false,
    }
}

/// The reads-from relation: `(writer, reader)` pairs where the reader observed
/// a non-null value written by the writer on the same service and key.
pub fn reads_from_edges(history: &History) -> Vec<(OpId, OpId)> {
    // Index written (service, key, value) -> writers.
    let mut writers: HashMap<(u32, Key, Value), Vec<OpId>> = HashMap::new();
    for op in history.ops() {
        for (k, v) in op.kind.written_values_iter() {
            if !v.is_null() {
                writers.entry((op.service.0, k, v)).or_default().push(op.id);
            }
        }
    }
    let mut edges = Vec::new();
    for op in history.ops() {
        let Some(result) = op.result() else { continue };
        for (k, v) in result.observed_iter(&op.kind) {
            if v.is_null() {
                continue;
            }
            if let Some(ws) = writers.get(&(op.service.0, k, v)) {
                for w in ws {
                    if *w != op.id {
                        edges.push((*w, op.id));
                    }
                }
            }
        }
    }
    edges
}

/// Message-passing edges lifted to operations: for each out-of-band message,
/// an edge from the last operation the sender completed before the send to the
/// first operation the receiver invoked after the receipt.
///
/// Together with process order and transitivity this captures every
/// operation-level causal dependency induced by the message.
pub fn message_edges(history: &History, by_process: &ByProcess) -> Vec<(OpId, OpId)> {
    let mut edges = Vec::new();
    for m in history.messages() {
        // Both lists are sorted by invocation. Only an op invoked by the send
        // can have responded by it, so the sender's candidates are a prefix.
        let sender_ops = by_process.ops_of(m.from);
        let invoked_by_send = sender_ops.partition_point(|id| history.op(*id).invoke <= m.sent_at);
        let last_before = sender_ops[..invoked_by_send]
            .iter()
            .rev()
            .find(|id| history.op(**id).response().is_some_and(|r| r <= m.sent_at));
        let receiver_ops = by_process.ops_of(m.to);
        let first_after = receiver_ops
            .get(receiver_ops.partition_point(|id| history.op(*id).invoke < m.received_at));
        if let (Some(a), Some(b)) = (last_before, first_after) {
            if a != b {
                edges.push((*a, *b));
            }
        }
    }
    edges
}

/// The causal order over operations: direct edges and (on demand) reachability.
#[derive(Debug, Clone)]
pub struct CausalOrder {
    n: usize,
    /// Direct edges (process order, reads-from, message passing), deduplicated.
    edges: Vec<(OpId, OpId)>,
    adjacency: Vec<Vec<usize>>,
}

impl CausalOrder {
    /// Builds the causal order of a history.
    pub fn new(history: &History) -> Self {
        let n = history.len();
        let by_process = ByProcess::new(history);
        let mut edges: Vec<(OpId, OpId)> = by_process.pairs().collect();
        edges.extend(reads_from_edges(history));
        edges.extend(message_edges(history, &by_process));
        edges.sort();
        edges.dedup();
        // Drop self-loops defensively (possible only with degenerate input).
        edges.retain(|(a, b)| a != b);
        let mut adjacency = vec![Vec::new(); n];
        for (a, b) in &edges {
            adjacency[a.index()].push(b.index());
        }
        CausalOrder { n, edges, adjacency }
    }

    /// The direct causal edges (not transitively closed).
    pub fn direct_edges(&self) -> &[(OpId, OpId)] {
        &self.edges
    }

    /// True if `a` causally precedes `b` (`a ⇝ b`), computed by reachability.
    pub fn precedes(&self, a: OpId, b: OpId) -> bool {
        if a == b {
            return false;
        }
        // Iterative DFS over the direct-edge graph.
        let target = b.index();
        let mut visited = vec![false; self.n];
        let mut stack = vec![a.index()];
        visited[a.index()] = true;
        while let Some(cur) = stack.pop() {
            for &next in &self.adjacency[cur] {
                if next == target {
                    return true;
                }
                if !visited[next] {
                    visited[next] = true;
                    stack.push(next);
                }
            }
        }
        false
    }

    /// All pairs `(a, b)` with `a ⇝ b`, as a boolean matrix indexed by op ids.
    ///
    /// Intended for small histories (the search-based checkers); the
    /// certificate checkers only use [`CausalOrder::direct_edges`].
    pub fn closure(&self) -> Vec<Vec<bool>> {
        let mut reach = vec![vec![false; self.n]; self.n];
        for (a, b) in &self.edges {
            reach[a.index()][b.index()] = true;
        }
        // Floyd–Warshall style closure; n is small here.
        for k in 0..self.n {
            let row_k = reach[k].clone();
            for row in reach.iter_mut() {
                if row[k] {
                    for (cell, &via_k) in row.iter_mut().zip(&row_k) {
                        *cell |= via_k;
                    }
                }
            }
        }
        reach
    }

    /// True if the causal order is acyclic (it always should be for histories
    /// recorded from real executions; cycles indicate a malformed history).
    pub fn is_acyclic(&self) -> bool {
        let closure = self.closure();
        (0..self.n).all(|i| !closure[i][i])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::HistoryBuilder;

    #[test]
    fn real_time_order_basic() {
        let mut b = HistoryBuilder::new();
        let w = b.write(1, 1, 10, 0, 5);
        let r = b.read(2, 1, 10, 6, 8);
        let concurrent = b.read(3, 1, 0, 3, 9);
        let h = b.build();
        assert!(real_time_precedes(&h, w, r));
        assert!(!real_time_precedes(&h, r, w));
        assert!(!real_time_precedes(&h, w, concurrent));
        assert!(!real_time_precedes(&h, concurrent, w));
    }

    #[test]
    fn incomplete_op_has_no_rt_successors() {
        let mut b = HistoryBuilder::new();
        let pw = b.pending_write(1, 1, 10, 0);
        let r = b.read(2, 1, 0, 100, 110);
        let h = b.build();
        assert!(!real_time_precedes(&h, pw, r));
    }

    #[test]
    fn process_order_chains_per_process() {
        let mut b = HistoryBuilder::new();
        let a1 = b.write(1, 1, 10, 0, 5);
        let a2 = b.read(1, 1, 10, 6, 8);
        let a3 = b.read(1, 2, 0, 9, 12);
        let b1 = b.write(2, 2, 5, 0, 4);
        let h = b.build();
        let edges: Vec<_> = ByProcess::new(&h).pairs().collect();
        assert!(edges.contains(&(a1, a2)));
        assert!(edges.contains(&(a2, a3)));
        assert!(!edges.contains(&(a1, a3)), "only consecutive pairs are direct edges");
        assert!(!edges.iter().any(|(x, y)| *x == b1 || *y == b1));
    }

    #[test]
    fn reads_from_links_writer_to_reader() {
        let mut b = HistoryBuilder::new();
        let w = b.write(1, 1, 42, 0, 5);
        let r_hit = b.read(2, 1, 42, 6, 8);
        let r_miss = b.read(3, 1, 0, 6, 8);
        let h = b.build();
        let edges = reads_from_edges(&h);
        assert!(edges.contains(&(w, r_hit)));
        assert!(!edges.iter().any(|(_, r)| *r == r_miss), "null reads have no source");
    }

    #[test]
    fn reads_from_covers_transactions() {
        let mut b = HistoryBuilder::new();
        let w = b.rw_txn(1, &[], &[(1, 7), (2, 8)], 0, 5);
        let r = b.ro_txn(2, &[(1, 7), (2, 8)], 6, 9);
        let h = b.build();
        let edges = reads_from_edges(&h);
        // Both observed keys come from the same writer: one deduplicated edge per pair.
        assert!(edges.contains(&(w, r)));
    }

    #[test]
    fn message_edges_connect_surrounding_ops() {
        let mut b = HistoryBuilder::new();
        let alice_write = b.write(1, 1, 9, 0, 5);
        let bob_read = b.read(2, 1, 9, 20, 25);
        let bob_earlier = b.read(2, 2, 0, 1, 2);
        b.message(1, 6, 2, 10);
        let h = b.build();
        let edges = message_edges(&h, &ByProcess::new(&h));
        assert_eq!(edges, vec![(alice_write, bob_read)]);
        assert!(!edges.contains(&(alice_write, bob_earlier)));
    }

    #[test]
    fn causal_order_includes_transitivity() {
        let mut b = HistoryBuilder::new();
        // P1 writes, P2 reads it (reads-from), later P2 writes y, P3 reads y.
        let w_x = b.write(1, 1, 5, 0, 2);
        let r_x = b.read(2, 1, 5, 3, 4);
        let w_y = b.write(2, 2, 6, 5, 7);
        let r_y = b.read(3, 2, 6, 8, 9);
        let h = b.build();
        let causal = CausalOrder::new(&h);
        assert!(causal.precedes(w_x, r_x));
        assert!(causal.precedes(r_x, w_y), "process order");
        assert!(causal.precedes(w_x, r_y), "transitive through reads-from and process order");
        assert!(!causal.precedes(r_y, w_x));
        assert!(causal.is_acyclic());
        let closure = causal.closure();
        assert!(closure[w_x.index()][r_y.index()]);
        assert!(!closure[r_y.index()][w_x.index()]);
    }

    #[test]
    fn causally_unrelated_ops() {
        let mut b = HistoryBuilder::new();
        let w1 = b.write(1, 1, 5, 0, 2);
        let w2 = b.write(2, 2, 6, 0, 2);
        let h = b.build();
        let causal = CausalOrder::new(&h);
        assert!(!causal.precedes(w1, w2));
        assert!(!causal.precedes(w2, w1));
        assert!(causal.direct_edges().is_empty());
    }

    #[test]
    fn same_process_message_does_not_self_loop() {
        let mut b = HistoryBuilder::new();
        let w = b.write(1, 1, 5, 0, 2);
        // A process "messaging itself" around a single op must not create an edge.
        b.message(1, 3, 1, 4);
        let r = b.read(1, 1, 5, 5, 6);
        let h = b.build();
        let causal = CausalOrder::new(&h);
        assert!(causal.is_acyclic());
        assert!(causal.precedes(w, r));
    }
}
