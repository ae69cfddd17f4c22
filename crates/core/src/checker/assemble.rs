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
//! Appendix D.2. A cycle in it *is* the violation report.
//!
//! **Nodes.** The included operations are nodes `0..n` in ascending id order,
//! and they are the only nodes: the explicit edges are counting-sorted into
//! CSR `offsets` / `succ`, and the Kahn heap holds operations alone.
//!
//! **Real-time constraints as prefix counters.** "Every source (response)
//! before `t` precedes every target (invocation) at `t`" holds per group —
//! one per `(service, key)`, or the one global group — and is as many
//! constraints as sources times targets. A group instead keeps its sources
//! sorted by response time, a cursor over the prefix of them already
//! emitted, and its targets sorted by invocation time, each with the prefix
//! length it waits for (the sources that responded strictly before it was
//! invoked). A group waits on the source at its cursor; when that source is
//! emitted, the cursor advances over every emitted source and releases the
//! targets whose prefix it reached. That is `O(sources + targets)` memory
//! and work where the explicit relation is their product.
//!
//! **Memory.** Beside the output, 4 bytes a node each for `indegree`,
//! `offsets` and the head of the node's list of waiting groups, 4 an
//! explicit edge, 4 a group source, 8 a group target and 20 a group; targets
//! that wait for nothing, and the sources after the last one some target
//! waits for, are not kept. The per-key groups come from `(service, key,
//! time, node)` rows sorted once and dropped before the graph is built. The
//! global group sorts only its sources, as 16-byte `(time, node)` rows; each
//! target binary-searches its prefix length among them, and the 8-byte
//! `(threshold, node)` pairs are what is sorted.
//!
//! **Determinism.** Kahn's loop pops a min-heap keyed `(invoke, node)`. That
//! key is a total order, so the pop sequence depends only on *which* nodes
//! are ready — never on the order edges were supplied or stored, nor on the
//! order groups are numbered in. Releasing a group's targets the moment its
//! cursor moves pops the same operations as a chain of barrier nodes would
//! (one per response, popped at its response time): a released target was
//! invoked strictly after the response that released it, so no operation
//! a barrier would still hold back can be the heap's minimum.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

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

/// A response (source) or invocation (target) event of node `.3` at `.2`,
/// grouped by `(service, key)`.
type Row = (ServiceId, Key, Timestamp, u32);

/// The end of a list of waiting groups.
const NONE: u32 = u32::MAX;

/// The indegree of an emitted node: no edge or group releases it again.
const EMITTED: u32 = u32::MAX;

/// The included operations, numbered as nodes `0..len` in ascending id
/// order. When every operation is complete — every run that drained — node
/// `i` is op `i` and no map is built.
enum Nodes {
    All(usize),
    Listed { ids: Vec<OpId>, node_of: Vec<u32> },
}

impl Nodes {
    /// Complete operations plus incomplete ones referenced by `extra_edges`.
    fn new(history: &History, extra_edges: &[(OpId, OpId)]) -> Self {
        if history.ops().iter().all(|op| op.is_complete()) {
            return Nodes::All(history.len());
        }
        // An orphan on several edges is pushed once per endpoint; the dedup
        // folds them.
        let mut ids: Vec<OpId> = history.complete_ids();
        for &(a, b) in extra_edges {
            ids.extend([a, b].into_iter().filter(|id| !history.op(*id).is_complete()));
        }
        ids.sort_unstable();
        ids.dedup();
        // Every edge endpoint is included, so its slot is always filled.
        let mut node_of = vec![0u32; history.len()];
        for (n, id) in ids.iter().enumerate() {
            node_of[id.index()] = n as u32;
        }
        Nodes::Listed { ids, node_of }
    }

    fn len(&self) -> usize {
        match self {
            Nodes::All(n) => *n,
            Nodes::Listed { ids, .. } => ids.len(),
        }
    }

    /// The operation at node `n`.
    fn op(&self, n: u32) -> OpId {
        match self {
            Nodes::All(_) => OpId(n),
            Nodes::Listed { ids, .. } => ids[n as usize],
        }
    }

    /// The node of an included operation.
    fn node(&self, id: OpId) -> u32 {
        match self {
            Nodes::All(_) => id.0,
            Nodes::Listed { node_of, .. } => node_of[id.index()],
        }
    }
}

/// Collects `rows`, which yields exactly `len` items, into a vector of
/// exactly that capacity (a filtered iterator's `collect` grows by doubling,
/// up to twice the rows the step needs at its heap peak).
fn exact<T>(len: usize, rows: impl Iterator<Item = T>) -> Vec<T> {
    let mut out = Vec::with_capacity(len);
    out.extend(rows);
    debug_assert_eq!(out.len(), len);
    out
}

/// One group's prefix counter: its sources are `sources[source..
/// sources_end]` in response order, and its unreleased targets
/// `targets[target..targets_end]` in invocation order.
struct Group {
    /// The cursor: every source before it has been emitted.
    source: u32,
    sources_end: u32,
    target: u32,
    targets_end: u32,
    /// The next group waiting on the same node, or [`NONE`].
    next_waiting: u32,
}

/// The model's real-time constraints, as prefix counters over every group.
#[derive(Default)]
struct Groups {
    groups: Vec<Group>,
    /// Every group's sources, as nodes.
    sources: Vec<u32>,
    /// Every group's targets as `(threshold, node)`: the node is released
    /// once its group's cursor reaches index `threshold` of `sources`.
    targets: Vec<(u32, u32)>,
}

impl Groups {
    /// Adds the one group that is not per key: each of the `count` targets,
    /// `(invoke, node)` in any order, waits for the sources, `(response,
    /// node)`, that responded strictly before it was invoked. Only the
    /// sources are sorted; each target finds its prefix by binary search,
    /// and the `(threshold, node)` pairs are sorted instead of the targets,
    /// so that the step holds 16 bytes a source and 8 a target.
    fn add_global(
        &mut self,
        mut sources: Vec<(Timestamp, u32)>,
        targets: impl Iterator<Item = (Timestamp, u32)>,
        count: usize,
    ) {
        sources.sort_unstable();
        let (first, target) = (self.sources.len() as u32, self.targets.len());
        self.targets.reserve_exact(count);
        self.targets.extend(targets.filter_map(|(invoked, node)| {
            let passed = sources.partition_point(|s| s.0 < invoked) as u32;
            (passed > 0).then_some((first + passed, node))
        }));
        // Released together whenever the cursor moves, targets of one
        // threshold may sit in any order: the heap pops by `(invoke, node)`.
        self.targets[target..].sort_unstable();
        // Sources past the last threshold hold no target back.
        if let Some(&(last, _)) = self.targets[target..].last() {
            self.sources.extend(sources[..(last - first) as usize].iter().map(|s| s.1));
            self.groups.push(Group {
                source: first,
                sources_end: last,
                target: target as u32,
                targets_end: self.targets.len() as u32,
                next_waiting: NONE,
            });
        }
    }

    /// Adds a group per `(service, key)` present on both sides, in which
    /// every target waits for the sources that responded strictly before it
    /// was invoked.
    fn add(&mut self, mut sources: Vec<Row>, mut targets: Vec<Row>) {
        sources.sort_unstable();
        targets.sort_unstable();
        self.sources.reserve_exact(sources.len());
        self.targets.reserve_exact(targets.len());
        let mut rest = &targets[..];
        for group in sources.chunk_by(|a, b| (a.0, a.1) == (b.0, b.1)) {
            let key = (group[0].0, group[0].1);
            rest = &rest[rest.partition_point(|t| (t.0, t.1) < key)..];
            let (readers, later) = rest.split_at(rest.partition_point(|t| (t.0, t.1) == key));
            rest = later;
            let (first, target) = (self.sources.len() as u32, self.targets.len() as u32);
            let mut passed = 0;
            for &(_, _, t, node) in readers {
                passed += group[passed..].partition_point(|s| s.2 < t);
                if passed > 0 {
                    self.targets.push((first + passed as u32, node));
                }
            }
            // Sources past the last threshold hold no target back.
            if passed > 0 {
                self.sources.extend(group[..passed].iter().map(|s| s.3));
                self.groups.push(Group {
                    source: first,
                    sources_end: self.sources.len() as u32,
                    target,
                    targets_end: self.targets.len() as u32,
                    next_waiting: NONE,
                });
            }
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
    let include = Nodes::new(history, extra_edges);
    let n = include.len();
    assert!(n.max(extra_edges.len()) < u32::MAX as usize, "node and edge indices are u32");
    let nodes = || (0..n as u32).map(|n| (history.op(include.op(n)), n));

    let mut groups = Groups::default();
    match model {
        WitnessModel::ProcessOrder => {}
        WitnessModel::RealTime => {
            // Every completed operation's response constrains every later
            // invocation.
            let completed = nodes().filter(|(op, _)| op.response().is_some()).count();
            let sources = nodes().filter_map(|(op, n)| Some((op.response()?, n)));
            let targets = nodes().map(|(op, n)| (op.invoke, n));
            groups.add_global(exact(completed, sources), targets, n);
        }
        WitnessModel::Regular => {
            // Completed mutating operations constrain later mutating
            // operations (globally) ...
            let writes = || nodes().filter(|(op, _)| op.kind.is_mutating());
            let (mut completed, mut mutating, mut written, mut read) = (0, 0, 0, 0);
            for (op, _) in nodes() {
                if op.kind.is_mutating() {
                    mutating += 1;
                    if op.response().is_some() {
                        completed += 1;
                        written += op.kind.written_keys_iter().count();
                    }
                } else if op.kind.is_read_only() {
                    read += op.kind.read_keys_iter().count();
                }
            }
            let sources = writes().filter_map(|(op, n)| Some((op.response()?, n)));
            let targets = writes().map(|(op, n)| (op.invoke, n));
            groups.add_global(exact(completed, sources), targets, mutating);
            // ... and later conflicting read-only operations (per service/key).
            let (mut writers, mut readers) =
                (Vec::with_capacity(written), Vec::with_capacity(read));
            for (op, n) in nodes() {
                if let (true, Some(r)) = (op.kind.is_mutating(), op.response()) {
                    writers.extend(op.kind.written_keys_iter().map(|k| (op.service, k, r, n)));
                } else if op.kind.is_read_only() {
                    readers.extend(op.kind.read_keys_iter().map(|k| (op.service, k, op.invoke, n)));
                }
            }
            groups.add(writers, readers);
        }
    }
    let Groups { mut groups, sources, targets } = groups;

    // CSR by counting sort over the explicit edges (self-edges dropped):
    // `offsets[i]` ends up the start of node `i`'s successors in `succ`
    // (filled back to front), `offsets[n]` their total. A node's indegree
    // counts its explicit predecessors and the groups it waits in.
    let explicit = extra_edges
        .iter()
        .map(|&(a, b)| (include.node(a), include.node(b)))
        .filter(|(from, to)| from != to);
    let (mut offsets, mut indegree) = (vec![0u32; n + 1], vec![0u32; n]);
    for (from, to) in explicit.clone() {
        offsets[from as usize] += 1;
        indegree[to as usize] += 1;
    }
    for &(_, to) in &targets {
        indegree[to as usize] += 1;
    }
    let mut end = 0;
    for slot in &mut offsets {
        end += *slot;
        *slot = end;
    }
    let mut succ = vec![0u32; end as usize];
    for (from, to) in explicit {
        offsets[from as usize] -= 1;
        succ[offsets[from as usize] as usize] = to;
    }

    // Every group waits on its first source; `waiting[i]` heads the list of
    // the groups waiting on node `i`.
    let mut waiting = vec![NONE; n];
    for (g, group) in groups.iter_mut().enumerate() {
        let first = &mut waiting[sources[group.source as usize] as usize];
        group.next_waiting = std::mem::replace(first, g as u32);
    }

    // Kahn's algorithm with a deterministic priority (earliest invocation
    // first, ties by node).
    let ready = |i: u32| Reverse((history.op(include.op(i)).invoke.as_micros(), i));
    let mut heap: BinaryHeap<Reverse<(u64, u32)>> = BinaryHeap::new();
    heap.extend((0..n as u32).filter(|&i| indegree[i as usize] == 0).map(ready));
    let release = |node: u32, indegree: &mut [u32], heap: &mut BinaryHeap<_>| {
        indegree[node as usize] -= 1;
        if indegree[node as usize] == 0 {
            heap.push(ready(node));
        }
    };
    let mut order = Vec::with_capacity(n);
    while let Some(Reverse((_, i))) = heap.pop() {
        order.push(include.op(i));
        indegree[i as usize] = EMITTED;
        for &next in &succ[offsets[i as usize] as usize..offsets[i as usize + 1] as usize] {
            release(next, &mut indegree, &mut heap);
        }
        let mut g = std::mem::replace(&mut waiting[i as usize], NONE);
        while g != NONE {
            let group = &mut groups[g as usize];
            let next = group.next_waiting;
            while group.source < group.sources_end
                && indegree[sources[group.source as usize] as usize] == EMITTED
            {
                group.source += 1;
            }
            while group.target < group.targets_end
                && targets[group.target as usize].0 <= group.source
            {
                release(targets[group.target as usize].1, &mut indegree, &mut heap);
                group.target += 1;
            }
            if group.source < group.sources_end {
                let first = &mut waiting[sources[group.source as usize] as usize];
                group.next_waiting = std::mem::replace(first, g);
            }
            g = next;
        }
    }
    if order.len() != n {
        return Err(AssembleError { unordered: n - order.len() });
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
        // Explicit edge contradicting real time: both writes are held, and
        // only operations are counted.
        let err = assemble_witness(&h, &[(c, a)], WitnessModel::RealTime).unwrap_err();
        assert_eq!(err.unordered, 2);
        // Under the regular model, a read held behind the write it
        // contradicts; a read of another key is ordered all the same.
        let mut b = HistoryBuilder::new();
        let w = b.write(1, 1, 1, 0, 10);
        let r = b.read(2, 1, 1, 20, 30);
        let other = b.read(3, 2, 0, 5, 6);
        let h = b.build();
        let err = assemble_witness(&h, &[(r, w)], WitnessModel::Regular).unwrap_err();
        assert_eq!(err.unordered, 2);
        assert_eq!(assemble_witness(&h, &[(w, r)], WitnessModel::Regular).unwrap(), [w, other, r]);
    }

    #[test]
    fn a_target_waits_for_the_whole_prefix_before_it() {
        // `c` waits for both earlier responses. With `a` held behind `c`,
        // emitting `b` must not release `c`: both are left unordered.
        let mut b = HistoryBuilder::new();
        let a = b.write(1, 1, 1, 0, 10);
        let w = b.write(2, 2, 2, 5, 20);
        let c = b.read(3, 3, 0, 30, 40);
        let h = b.build();
        assert_eq!(assemble_witness(&h, &[], WitnessModel::RealTime).unwrap(), [a, w, c]);
        let err = assemble_witness(&h, &[(c, a)], WitnessModel::RealTime).unwrap_err();
        assert_eq!(err.unordered, 2);
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

    #[test]
    fn self_edges_are_ignored() {
        let mut b = HistoryBuilder::new();
        let w = b.write(1, 1, 1, 0, 10);
        let r = b.read(2, 1, 1, 20, 30);
        let h = b.build();
        for model in [WitnessModel::ProcessOrder, WitnessModel::Regular, WitnessModel::RealTime] {
            assert_eq!(assemble_witness(&h, &[(w, w), (w, r), (r, r)], model).unwrap(), [w, r]);
        }
    }

    #[test]
    fn duplicate_edges_are_counted_on_both_ends() {
        // A duplicate counted into the indegree but released once would leave
        // `r` waiting forever; released twice but counted once, emitted twice.
        let mut b = HistoryBuilder::new();
        let w = b.write(1, 1, 1, 0, 10);
        let r = b.read(2, 1, 1, 5, 30);
        let h = b.build();
        let edges = [(w, r), (w, r), (w, r)];
        assert_eq!(assemble_witness(&h, &edges, WitnessModel::Regular).unwrap(), [w, r]);
        let cyclic = [(w, r), (w, r), (r, w)];
        assert_eq!(
            assemble_witness(&h, &cyclic, WitnessModel::ProcessOrder).unwrap_err().unordered,
            2
        );
    }

    #[test]
    fn incomplete_op_on_several_edges_is_included_once() {
        let mut b = HistoryBuilder::new();
        let w = b.write(1, 1, 1, 0, 10);
        let pending = b.pending_write(2, 1, 2, 12);
        let unobserved = b.pending_write(3, 1, 3, 14);
        let r1 = b.read(4, 1, 2, 20, 30);
        let r2 = b.read(5, 1, 2, 40, 50);
        let h = b.build();
        let edges = [(w, pending), (pending, r1), (pending, r2), (r1, r2)];
        let witness = assemble_witness(&h, &edges, WitnessModel::Regular).unwrap();
        assert_eq!(witness, [w, pending, r1, r2]);
        assert!(!witness.contains(&unobserved));
        assert!(check_witness(&h, &witness, WitnessModel::Regular).is_ok());
    }

    #[test]
    fn groups_missing_a_side_add_no_constraints() {
        // Reads only: no source events at all, under either real-time model.
        let mut b = HistoryBuilder::new();
        let r1 = b.read(1, 1, 0, 0, 10);
        let r2 = b.read(2, 2, 0, 20, 30);
        let h = b.build();
        assert_eq!(assemble_witness(&h, &[(r2, r1)], WitnessModel::Regular).unwrap(), [r2, r1]);
        assert!(assemble_witness(&h, &[(r2, r1)], WitnessModel::RealTime).is_err());
        // Incomplete writes only: targets without a single response.
        let mut b = HistoryBuilder::new();
        let p1 = b.pending_write(1, 1, 1, 0);
        let p2 = b.pending_write(2, 1, 2, 5);
        let h = b.build();
        assert_eq!(assemble_witness(&h, &[(p2, p1)], WitnessModel::Regular).unwrap(), [p2, p1]);
        // A writer of one key and a later reader of another share no group:
        // only the strict model orders them.
        let mut b = HistoryBuilder::new();
        let w_x = b.write(1, 1, 1, 0, 10);
        let r_y = b.read(2, 2, 0, 20, 30);
        let r_x = b.read(3, 1, 0, 40, 50);
        let h = b.build();
        assert_eq!(assemble_witness(&h, &[(r_y, w_x)], WitnessModel::Regular).unwrap().len(), 3);
        assert!(assemble_witness(&h, &[(r_y, w_x)], WitnessModel::RealTime).is_err());
        // ... while the same key's later reader is held behind the write.
        assert!(assemble_witness(&h, &[(r_x, w_x)], WitnessModel::Regular).is_err());
    }

    #[test]
    fn witness_does_not_depend_on_edge_order() {
        // Sixty sequential operations over four keys and five processes; the
        // edges are the per-key chains followed by process order.
        let mut b = HistoryBuilder::new();
        let ids: Vec<OpId> = (0..60u64)
            .map(|i| {
                let (p, key, at) = ((i * 7 % 5) as u32 + 1, i * 11 % 4 + 1, i * 10);
                if i % 3 == 0 {
                    b.write(p, key, 100 + i, at, at + 5)
                } else {
                    let last_write = (0..i).rev().find(|j| j % 3 == 0 && j * 11 % 4 + 1 == key);
                    b.read(p, key, last_write.map_or(0, |j| 100 + j), at, at + 5)
                }
            })
            .collect();
        let h = b.build();
        let chain = |same: &dyn Fn(u64) -> u64| {
            let mut edges = Vec::new();
            for (i, a) in ids.iter().enumerate() {
                let next = (i + 1..60).find(|j| same(*j as u64) == same(i as u64));
                edges.extend(next.map(|j| (*a, ids[j])));
            }
            edges
        };
        let mut edges = chain(&|i| i * 11 % 4);
        edges.extend(chain(&|i| i * 7 % 5));
        for model in [WitnessModel::ProcessOrder, WitnessModel::Regular, WitnessModel::RealTime] {
            let witness = assemble_witness(&h, &edges, model).unwrap();
            assert!(check_witness(&h, &witness, model).is_ok());
            assert_eq!(assemble_witness(&h, &edges, model).unwrap(), witness);
            let mut shuffled = edges.clone();
            shuffled.reverse();
            shuffled.rotate_left(17);
            shuffled.swap(3, 40);
            assert_eq!(assemble_witness(&h, &shuffled, model).unwrap(), witness);
        }
    }
}
