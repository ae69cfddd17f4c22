//! Witness assembly: building a serialization order from protocol metadata.
//!
//! The certificate checkers ([`crate::checker::certificate`]) validate a given
//! total order. Protocols whose timestamps directly induce a global order
//! (Spanner's commit timestamps) can produce that order by sorting; protocols
//! whose ordering metadata is *per object* (Gryff's carstamps) instead provide
//! per-key chains, and the global witness must be assembled as a linear
//! extension of
//!
//! * the supplied explicit edges (per-key carstamp chains, process order,
//!   reads-from), and
//! * the model's real-time constraints (all pairs for linearizability/strict
//!   serializability; completed writes before later writes and conflicting
//!   reads for RSS/RSC),
//!
//! exactly the relation `<ψ` whose acyclicity the paper proves in
//! Appendix D.2. Real-time constraints are encoded sparsely with *barrier*
//! nodes (one per relevant response event) so the construction stays
//! `O(n log n)` in the number of operations.

use std::collections::{BinaryHeap, HashMap};

use crate::checker::certificate::WitnessModel;
use crate::history::History;
use crate::types::{Key, OpId, ServiceId, Timestamp};

/// Failure to assemble a witness: the combined constraints contain a cycle,
/// which means the history violates the model (or the supplied edges are
/// inconsistent).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AssembleError {
    /// Number of operations that could not be ordered.
    pub unordered: usize,
}

/// Node index space: operations first, then barrier nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NodeKind {
    Op(OpId),
    Barrier,
}

struct Graph {
    nodes: Vec<NodeKind>,
    /// Priority used to break ties deterministically (invocation time for
    /// operations, event time for barriers).
    priority: Vec<u64>,
    adjacency: Vec<Vec<usize>>,
    indegree: Vec<usize>,
}

impl Graph {
    fn new() -> Self {
        Graph {
            nodes: Vec::new(),
            priority: Vec::new(),
            adjacency: Vec::new(),
            indegree: Vec::new(),
        }
    }

    fn add_node(&mut self, kind: NodeKind, priority: u64) -> usize {
        self.nodes.push(kind);
        self.priority.push(priority);
        self.adjacency.push(Vec::new());
        self.indegree.push(0);
        self.nodes.len() - 1
    }

    fn add_edge(&mut self, from: usize, to: usize) {
        if from == to {
            return;
        }
        self.adjacency[from].push(to);
        self.indegree[to] += 1;
    }
}

/// Builds a barrier chain over the given `(time, node)` response events and
/// connects each target `(time, node)` to the latest barrier strictly before
/// its time. Returns nothing; edges are added to the graph.
fn add_interval_constraints(
    graph: &mut Graph,
    mut sources: Vec<(Timestamp, usize)>,
    mut targets: Vec<(Timestamp, usize)>,
) {
    if sources.is_empty() || targets.is_empty() {
        return;
    }
    sources.sort_unstable_by_key(|&(t, n)| (t, n));
    targets.sort_unstable_by_key(|&(t, n)| (t, n));
    // One barrier per source event.
    let mut barriers = Vec::with_capacity(sources.len());
    let mut prev: Option<usize> = None;
    for &(t, source) in &sources {
        let b = graph.add_node(NodeKind::Barrier, t.as_micros());
        graph.add_edge(source, b);
        if let Some(p) = prev {
            graph.add_edge(p, b);
        }
        prev = Some(b);
        barriers.push((t, b));
    }
    // Each target depends on the latest barrier with time strictly before its
    // invocation.
    let mut bi = 0usize;
    let mut latest: Option<usize> = None;
    for &(t, target) in &targets {
        while bi < barriers.len() && barriers[bi].0 < t {
            latest = Some(barriers[bi].1);
            bi += 1;
        }
        if let Some(b) = latest {
            graph.add_edge(b, target);
        }
    }
}

/// Assembles a serialization witness for `history` under `model`.
///
/// `extra_edges` supplies the protocol-derived precedence constraints (per-key
/// version orders, process order, reads-from). The assembled order contains
/// every complete operation plus any incomplete operation appearing in
/// `extra_edges` (their effects were observed). Returns an error when the
/// combined constraints are cyclic.
pub fn assemble_witness(
    history: &History,
    extra_edges: &[(OpId, OpId)],
    model: WitnessModel,
) -> Result<Vec<OpId>, AssembleError> {
    // Operations to include: complete ones plus incomplete ones referenced by
    // the explicit edges (an orphan on several edges is pushed once per
    // endpoint; the dedup below folds them).
    let mut include: Vec<OpId> = history.complete_ids();
    for &(a, b) in extra_edges {
        include.extend([a, b].into_iter().filter(|id| !history.op(*id).is_complete()));
    }
    include.sort_unstable();
    include.dedup();

    let mut graph = Graph::new();
    let mut node_of: HashMap<OpId, usize> = HashMap::new();
    for &id in &include {
        let op = history.op(id);
        let n = graph.add_node(NodeKind::Op(id), op.invoke.as_micros());
        node_of.insert(id, n);
    }
    for &(a, b) in extra_edges {
        if let (Some(&na), Some(&nb)) = (node_of.get(&a), node_of.get(&b)) {
            graph.add_edge(na, nb);
        }
    }

    match model {
        WitnessModel::ProcessOrder => {}
        WitnessModel::RealTime => {
            // Every completed operation's response constrains every later
            // invocation.
            let sources: Vec<(Timestamp, usize)> = include
                .iter()
                .filter_map(|id| {
                    let op = history.op(*id);
                    op.response.map(|r| (r, node_of[id]))
                })
                .collect();
            let targets: Vec<(Timestamp, usize)> =
                include.iter().map(|id| (history.op(*id).invoke, node_of[id])).collect();
            add_interval_constraints(&mut graph, sources, targets);
        }
        WitnessModel::Regular => {
            // Completed mutating operations constrain later mutating
            // operations (globally) ...
            let write_sources: Vec<(Timestamp, usize)> = include
                .iter()
                .filter_map(|id| {
                    let op = history.op(*id);
                    if op.kind.is_mutating() {
                        op.response.map(|r| (r, node_of[id]))
                    } else {
                        None
                    }
                })
                .collect();
            let write_targets: Vec<(Timestamp, usize)> = include
                .iter()
                .filter(|id| history.op(**id).kind.is_mutating())
                .map(|id| (history.op(*id).invoke, node_of[id]))
                .collect();
            add_interval_constraints(&mut graph, write_sources, write_targets);
            // ... and later conflicting read-only operations (per service/key).
            let mut writers: HashMap<(ServiceId, Key), Vec<(Timestamp, usize)>> = HashMap::new();
            let mut readers: HashMap<(ServiceId, Key), Vec<(Timestamp, usize)>> = HashMap::new();
            for &id in &include {
                let op = history.op(id);
                if op.kind.is_mutating() {
                    if let Some(r) = op.response {
                        for k in op.kind.written_keys() {
                            writers.entry((op.service, k)).or_default().push((r, node_of[&id]));
                        }
                    }
                } else if op.kind.is_read_only() {
                    for k in op.kind.read_keys() {
                        readers.entry((op.service, k)).or_default().push((op.invoke, node_of[&id]));
                    }
                }
            }
            for (key, sources) in writers {
                if let Some(targets) = readers.get(&key) {
                    add_interval_constraints(&mut graph, sources, targets.clone());
                }
            }
        }
    }

    // Kahn's algorithm with a deterministic priority (smallest priority first).
    let n = graph.nodes.len();
    let mut indegree = graph.indegree.clone();
    let mut heap: BinaryHeap<std::cmp::Reverse<(u64, usize)>> = BinaryHeap::new();
    for (i, &degree) in indegree.iter().enumerate() {
        if degree == 0 {
            heap.push(std::cmp::Reverse((graph.priority[i], i)));
        }
    }
    let mut order = Vec::with_capacity(include.len());
    let mut emitted = 0usize;
    while let Some(std::cmp::Reverse((_, i))) = heap.pop() {
        emitted += 1;
        if let NodeKind::Op(id) = graph.nodes[i] {
            order.push(id);
        }
        for &next in &graph.adjacency[i] {
            indegree[next] -= 1;
            if indegree[next] == 0 {
                heap.push(std::cmp::Reverse((graph.priority[next], next)));
            }
        }
    }
    if emitted != n {
        return Err(AssembleError { unordered: n - emitted });
    }
    Ok(order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::certificate::check_witness;
    use crate::history::HistoryBuilder;

    #[test]
    fn assembles_linearizable_order_across_keys() {
        // Per-key metadata alone would allow inverting the cross-key real-time
        // order; the assembler must respect it.
        let mut b = HistoryBuilder::new();
        let w_x = b.write(1, 1, 10, 0, 5);
        let r_x = b.read(2, 1, 10, 6, 8);
        let w_y = b.write(3, 2, 20, 10, 15);
        let r_y = b.read(4, 2, 20, 16, 18);
        let h = b.build();
        let edges = vec![(w_x, r_x), (w_y, r_y)];
        let witness = assemble_witness(&h, &edges, WitnessModel::RealTime).unwrap();
        assert_eq!(witness.len(), 4);
        assert!(check_witness(&h, &witness, WitnessModel::RealTime).is_ok());
        let pos = |id| witness.iter().position(|x| *x == id).unwrap();
        assert!(pos(r_x) < pos(w_y), "real-time order across keys is preserved");
    }

    #[test]
    fn assembles_regular_order_allowing_read_reordering() {
        // Figure 2: the stale read must be ordered before the write even
        // though another read already returned the new value.
        let mut b = HistoryBuilder::new();
        let w = b.write(2, 1, 1, 0, 100);
        let r_new = b.read(3, 1, 1, 10, 20);
        let r_old = b.read(1, 1, 0, 30, 40);
        let h = b.build();
        // Per-key chain: the stale read precedes the write; the fresh read
        // follows it.
        let edges = vec![(r_old, w), (w, r_new)];
        let witness = assemble_witness(&h, &edges, WitnessModel::Regular).unwrap();
        assert!(check_witness(&h, &witness, WitnessModel::Regular).is_ok());
        // The same constraints under the real-time model are cyclic.
        assert!(assemble_witness(&h, &edges, WitnessModel::RealTime).is_err());
    }

    #[test]
    fn regular_model_orders_writes_by_real_time_across_keys() {
        let mut b = HistoryBuilder::new();
        let w1 = b.write(1, 1, 1, 0, 10);
        let w2 = b.write(2, 2, 2, 20, 30);
        let h = b.build();
        let witness = assemble_witness(&h, &[], WitnessModel::Regular).unwrap();
        let pos = |id| witness.iter().position(|x| *x == id).unwrap();
        assert!(pos(w1) < pos(w2));
        assert!(check_witness(&h, &witness, WitnessModel::Regular).is_ok());
    }

    #[test]
    fn includes_incomplete_ops_referenced_by_edges() {
        let mut b = HistoryBuilder::new();
        let pending = b.pending_write(1, 1, 9, 0);
        let r = b.read(2, 1, 9, 10, 20);
        let h = b.build();
        let witness = assemble_witness(&h, &[(pending, r)], WitnessModel::Regular).unwrap();
        assert_eq!(witness.len(), 2);
        assert!(check_witness(&h, &witness, WitnessModel::Regular).is_ok());
    }

    #[test]
    fn detects_cyclic_constraints() {
        let mut b = HistoryBuilder::new();
        let a = b.write(1, 1, 1, 0, 10);
        let c = b.write(2, 1, 2, 20, 30);
        let h = b.build();
        // Explicit edge contradicting real time.
        let err = assemble_witness(&h, &[(c, a)], WitnessModel::RealTime).unwrap_err();
        assert!(err.unordered >= 2);
    }

    #[test]
    fn process_order_model_uses_only_explicit_edges() {
        let mut b = HistoryBuilder::new();
        let w = b.write(1, 1, 1, 0, 10);
        let r = b.read(2, 1, 0, 20, 30); // stale read after the write
        let h = b.build();
        // With only per-key constraints (read before write, since the read
        // observed the initial value), assembly succeeds for process order.
        let witness = assemble_witness(&h, &[(r, w)], WitnessModel::ProcessOrder).unwrap();
        assert!(check_witness(&h, &witness, WitnessModel::ProcessOrder).is_ok());
    }
}
