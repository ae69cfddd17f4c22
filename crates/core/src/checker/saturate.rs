//! Saturation prefilter: the polynomial stage in front of the witness search.
//!
//! Before the exponential sequence search runs, this module *saturates* the
//! constraint set the way polynomial consistency-checking algorithms do
//! (dbcop's saturation over the visibility relation; Biswas & Enea): it
//! derives every order edge that must hold in *any* legal sequence and closes
//! the set transitively to a fixed point. Three things fall out:
//!
//! 1. **Early counterexamples.** A cycle among the required operations means
//!    no legal sequence exists for *any* subset of the optional operations —
//!    the checker reports unsatisfiable without entering the search at all.
//! 2. **A smaller branching set.** Every derived edge becomes a hard
//!    predecessor constraint in the compiled
//!    [`ConstraintGraph`](crate::checker::search::ConstraintGraph) rows, so the
//!    backtracking search only enumerates orders saturation left genuinely
//!    free.
//! 3. **Soundness by construction.** Edges are derived only between
//!    *required* (always-present) operations, so transitive composition is
//!    valid for every optional subset; the derived set never excludes a legal
//!    witness.
//!
//! Two inference rules run on top of the base (model) constraints:
//!
//! * **Unique-writer reads-from**: if a required operation observes a
//!   non-null value that exactly one operation in the whole history writes to
//!   that `(service, key)`, the writer must precede the reader. (Register
//!   reads match register writers; dequeues match enqueuers.)
//! * **Inferred write-write order**: with `w → r` known by the rule above,
//!   any other required register write `w2` to the same key satisfies
//!   `w2 < r ⇒ w2 < w` (otherwise `r` would observe `w2`'s value) and
//!   `w < w2 ⇒ r < w2` (otherwise `w2` would overwrite what `r` observed).
//!
//! Both rules mirror the sequential specification's last-writer-wins register
//! semantics ([`crate::spec`]), so they are exact implications, not
//! heuristics; the differential property tests assert verdict equivalence
//! with [`crate::checker::search::find_sequence_reference`].

use crate::checker::search::{find_sequence_with, Constraints, SearchError};
use crate::hashing::FxBuildHasher;
use crate::history::{HistoryIndex, KindTag};
use crate::opset::OpSet;
use crate::types::OpId;
use std::collections::HashMap;

/// Required-set size above which [`find_sequence_saturated`] skips saturation
/// entirely: the closure rows are `n²` bits and the Floyd–Warshall sweep is
/// `O(n³/64)`, which stops being a *pre*filter well before protocol scale
/// (those histories go through the witness checkers instead).
const MAX_SATURATION_OPS: usize = 4096;

/// Required-set size up to which the full transitive closure is materialized
/// into the search constraints (denser predecessor rows prune harder);
/// beyond it only the directly inferred edges are added.
const MAX_CLOSURE_MATERIALIZE_OPS: usize = 1024;

/// The result of saturating a constraint set over one required-op universe.
#[derive(Debug, Clone)]
pub struct Saturation {
    /// The required ops, in the caller's order (local index space).
    ids: Vec<OpId>,
    /// Transitively closed predecessor rows over local indices.
    preds: Vec<OpSet>,
    /// Direct edges (base ∪ inferred), local indices, for cycle extraction.
    direct: Vec<(u32, u32)>,
    /// Number of edges added by the inference rules (not in the base set).
    inferred: usize,
    /// Closure/inference rounds until the fixed point.
    rounds: usize,
    /// True if the saturated graph has a cycle: unsatisfiable, no search
    /// needed.
    cyclic: bool,
}

impl Saturation {
    /// True if saturation proved the required set unsatisfiable (a cycle in
    /// edges that must hold in every legal sequence).
    pub fn is_cyclic(&self) -> bool {
        self.cyclic
    }

    /// Number of edges the inference rules added beyond the base constraints.
    pub fn inferred_edges(&self) -> usize {
        self.inferred
    }

    /// Closure/inference rounds run until the fixed point.
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// A concrete constraint cycle when [`Saturation::is_cyclic`], as a
    /// sequence of ops each of which must precede the next (and the last must
    /// precede the first) — the "immediate counterexample" the prefilter
    /// reports instead of searching.
    pub fn cycle(&self) -> Option<Vec<OpId>> {
        if !self.cyclic {
            return None;
        }
        let n = self.ids.len();
        let start = (0..n).find(|&i| self.preds[i].contains(i))?;
        // DFS over the direct edges from `start` back to itself; a path must
        // exist because the closure says `start` reaches itself.
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
        for &(a, b) in &self.direct {
            adj[a as usize].push(b);
        }
        let mut path = vec![start as u32];
        let mut visited = vec![false; n];
        if self.cycle_dfs(start as u32, start as u32, &adj, &mut visited, &mut path) {
            Some(path.iter().map(|&i| self.ids[i as usize]).collect())
        } else {
            None
        }
    }

    fn cycle_dfs(
        &self,
        at: u32,
        target: u32,
        adj: &[Vec<u32>],
        visited: &mut [bool],
        path: &mut Vec<u32>,
    ) -> bool {
        for &next in &adj[at as usize] {
            if next == target {
                return true;
            }
            if !visited[next as usize] {
                visited[next as usize] = true;
                path.push(next);
                if self.cycle_dfs(next, target, adj, visited, path) {
                    return true;
                }
                path.pop();
            }
        }
        false
    }

    /// The base constraints augmented with every saturated edge, ready to
    /// compile into the search's [`ConstraintGraph`]. Edges involving
    /// optional ops in `base` are preserved untouched.
    ///
    /// [`ConstraintGraph`]: crate::checker::search::ConstraintGraph
    pub fn augmented_constraints(&self, base: &Constraints) -> Constraints {
        let n = self.ids.len();
        let mut edges = Vec::new();
        if n <= MAX_CLOSURE_MATERIALIZE_OPS {
            for (i, row) in self.preds.iter().enumerate() {
                for j in row.iter() {
                    if j != i {
                        edges.push((self.ids[j], self.ids[i]));
                    }
                }
            }
        } else {
            edges.extend(
                self.direct.iter().map(|&(a, b)| (self.ids[a as usize], self.ids[b as usize])),
            );
        }
        let mut augmented = base.clone();
        augmented.extend(&Constraints::from_edges(edges));
        augmented
    }
}

/// How many writers of one `(dense key, value)` pair the history contains.
#[derive(Clone, Copy)]
enum WriterCount {
    One(u32),
    Many,
}

/// Register-like kinds: ops whose reads/writes go through the last-writer-wins
/// key-value half of the specification. Queue ops (FIFO semantics) and fences
/// are excluded from register inference.
fn is_register_read(tag: KindTag) -> bool {
    matches!(tag, KindTag::Read | KindTag::Rmw | KindTag::RoTxn | KindTag::RwTxn)
}

fn is_register_write(tag: KindTag) -> bool {
    matches!(tag, KindTag::Write | KindTag::Rmw | KindTag::RwTxn)
}

/// Saturates `base` over the `required` ops of `index` (see the module docs
/// for the derivation rules). The required ops must be distinct; ops outside
/// `required` participate only as evidence (writer uniqueness is judged over
/// the *whole* history, so a pending write to the same key suppresses the
/// unique-writer rule rather than unsoundly firing it).
pub fn saturate(index: &HistoryIndex, required: &[OpId], base: &Constraints) -> Saturation {
    let n = required.len();
    let mut local = vec![u32::MAX; index.len()];
    for (li, id) in required.iter().enumerate() {
        local[id.index()] = li as u32;
    }

    let mut preds: Vec<OpSet> = vec![OpSet::empty(n); n];
    let mut direct: Vec<(u32, u32)> = Vec::new();
    for &(a, b) in base.edges() {
        let (la, lb) = (
            local.get(a.index()).copied().unwrap_or(u32::MAX),
            local.get(b.index()).copied().unwrap_or(u32::MAX),
        );
        if la != u32::MAX && lb != u32::MAX {
            preds[lb as usize].insert(la as usize);
            direct.push((la, lb));
        }
    }

    // Writer-uniqueness maps over the WHOLE history (required or not):
    // (dense key, value) -> the single writing op, or Many.
    let mut register_writers: HashMap<(u32, u64), WriterCount, FxBuildHasher> = HashMap::default();
    let mut queue_writers: HashMap<(u32, u64), WriterCount, FxBuildHasher> = HashMap::default();
    // Required register writers per dense key, for the write-write rule.
    let mut key_writers: HashMap<u32, Vec<u32>, FxBuildHasher> = HashMap::default();
    for (op, &op_local) in local.iter().enumerate() {
        let tag = index.kind_tag(op);
        let is_reg = is_register_write(tag);
        let is_q = tag == KindTag::Enqueue;
        if !is_reg && !is_q {
            continue;
        }
        for (k, v) in index.write_key_ids(op).iter().zip(index.write_values(op)) {
            if *v == 0 {
                continue;
            }
            let map = if is_reg { &mut register_writers } else { &mut queue_writers };
            map.entry((*k, *v))
                .and_modify(|c| *c = WriterCount::Many)
                .or_insert(WriterCount::One(op as u32));
        }
        if is_reg && op_local != u32::MAX {
            for k in index.write_key_ids(op) {
                key_writers.entry(*k).or_default().push(op_local);
            }
        }
    }

    // Unique-writer reads-from edges, kept around for the write-write rule:
    // (reader local, writer local, dense key).
    let mut rf: Vec<(u32, u32, u32)> = Vec::new();
    let mut inferred = 0usize;
    for &r in required {
        let op = r.index();
        if !index.has_result(op) || index.has_unsat_result(op) {
            continue;
        }
        let tag = index.kind_tag(op);
        let map = if is_register_read(tag) {
            &register_writers
        } else if tag == KindTag::Dequeue {
            &queue_writers
        } else {
            continue;
        };
        let lr = local[op];
        for (k, v) in index.read_key_ids(op).iter().zip(index.read_observations(op)) {
            if *v == 0 {
                continue;
            }
            if let Some(WriterCount::One(w)) = map.get(&(*k, *v)) {
                let lw = local[*w as usize];
                if lw != u32::MAX && lw != lr {
                    if !preds[lr as usize].contains(lw as usize) {
                        preds[lr as usize].insert(lw as usize);
                        direct.push((lw, lr));
                        inferred += 1;
                    }
                    if is_register_read(tag) {
                        rf.push((lr, lw, *k));
                    }
                }
            }
        }
    }

    // Fixed point: transitively close, infer write-write edges from the
    // closure, repeat until inference adds nothing.
    let mut rounds = 0usize;
    loop {
        rounds += 1;
        close(&mut preds);
        let mut added = false;
        for &(lr, lw, key) in &rf {
            let Some(writers) = key_writers.get(&key) else { continue };
            for &w2 in writers {
                if w2 == lw || w2 == lr {
                    continue;
                }
                // w2 < r forces w2 < w: the reader must observe w last.
                if preds[lr as usize].contains(w2 as usize)
                    && !preds[lw as usize].contains(w2 as usize)
                {
                    preds[lw as usize].insert(w2 as usize);
                    direct.push((w2, lw));
                    inferred += 1;
                    added = true;
                }
                // w < w2 forces r < w2: w2 must not overwrite before r reads.
                if preds[w2 as usize].contains(lw as usize)
                    && !preds[w2 as usize].contains(lr as usize)
                {
                    preds[w2 as usize].insert(lr as usize);
                    direct.push((lr, w2));
                    inferred += 1;
                    added = true;
                }
            }
        }
        if !added {
            break;
        }
    }

    let cyclic = (0..n).any(|i| preds[i].contains(i));
    Saturation { ids: required.to_vec(), preds, direct, inferred, rounds, cyclic }
}

/// Transitive closure of the predecessor rows in place: one Floyd–Warshall
/// sweep over intermediate nodes (`preds[i] ⊇ preds[k]` whenever `k ∈
/// preds[i]`), `O(n³/64)` word operations.
fn close(preds: &mut [OpSet]) {
    let n = preds.len();
    for k in 0..n {
        let row_k = preds[k].clone();
        for (i, row) in preds.iter_mut().enumerate() {
            if i != k && row.contains(k) {
                row.union_with(&row_k);
            }
        }
    }
}

/// [`find_sequence_with`] behind the saturation prefilter: saturate the
/// constraints over `required`, return unsatisfiable immediately on a
/// saturation cycle, and otherwise run the search with the (strictly
/// stronger, verdict-preserving) augmented constraint set.
///
/// # Errors
///
/// Propagates [`SearchError`] from the underlying search (kept for signature
/// stability; the optimized search has no size ceiling).
pub fn find_sequence_saturated(
    index: &HistoryIndex,
    required: &[OpId],
    optional: &[OpId],
    constraints: &Constraints,
) -> Result<Option<Vec<OpId>>, SearchError> {
    if required.len() > MAX_SATURATION_OPS {
        return find_sequence_with(index, required, optional, constraints);
    }
    let sat = saturate(index, required, constraints);
    if sat.is_cyclic() {
        return Ok(None);
    }
    let augmented = sat.augmented_constraints(constraints);
    find_sequence_with(index, required, optional, &augmented)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::models::{constraints_for_with, Model};
    use crate::history::{History, HistoryBuilder, HistoryIndex};

    fn saturated(h: &History, model: Model) -> (HistoryIndex, Constraints, Saturation) {
        let index = HistoryIndex::new(h);
        let cons = constraints_for_with(h, &index, model);
        let sat = saturate(&index, &h.complete_ids(), &cons);
        (index, cons, sat)
    }

    #[test]
    fn infers_reads_from_edge_for_unique_writer() {
        // Writer and reader fully concurrent: no base edge orders them, but
        // the reader observes the unique writer's value.
        let mut b = HistoryBuilder::new();
        let w = b.write(1, 1, 7, 0, 100);
        let r = b.read(2, 1, 7, 0, 100);
        let h = b.build();
        let (_, _, sat) = saturated(&h, Model::SequentialConsistency);
        assert!(!sat.is_cyclic());
        assert!(sat.inferred_edges() >= 1);
        let aug = sat.augmented_constraints(&Constraints::new());
        assert!(aug.edges().contains(&(w, r)), "w -> r inferred: {:?}", aug.edges());
    }

    #[test]
    fn duplicate_writers_suppress_the_unique_writer_rule() {
        let mut b = HistoryBuilder::new();
        b.write(1, 1, 7, 0, 100);
        b.write(3, 1, 7, 0, 100); // second writer of the same value
        b.read(2, 1, 7, 0, 100);
        let h = b.build();
        let (_, _, sat) = saturated(&h, Model::SequentialConsistency);
        assert_eq!(sat.inferred_edges(), 0, "ambiguous writer must not fire the rule");
    }

    #[test]
    fn pending_writer_of_same_value_suppresses_uniqueness() {
        let mut b = HistoryBuilder::new();
        b.write(1, 1, 7, 0, 100);
        b.pending_write(3, 1, 7, 0); // pending write of the same (key, value)
        b.read(2, 1, 7, 0, 100);
        let h = b.build();
        let (_, _, sat) = saturated(&h, Model::SequentialConsistency);
        assert_eq!(sat.inferred_edges(), 0);
    }

    #[test]
    fn saturation_cycle_detected_without_search() {
        // P1: w(x=1); r(y=2)   P2: w(y=2); r(x=1)
        // Process order + inferred unique-writer edges form a cycle under
        // sequential consistency only if each read precedes the other's
        // write; here each process reads the OTHER's value before... build
        // an explicit cycle: r_a observes w_b's value with r_a before w_a in
        // process order, and symmetrically, forcing w_b < r_a < w_a (PO),
        // w_a < r_b < w_b (PO) — a cycle.
        let mut b = HistoryBuilder::new();
        let r_a = b.read(1, 2, 20, 0, 5); // P1 reads y=20 (written only by P2's write)
        let w_a = b.write(1, 1, 10, 10, 15); // P1 writes x=10
        let r_b = b.read(2, 1, 10, 0, 5); // P2 reads x=10
        let w_b = b.write(2, 2, 20, 10, 15); // P2 writes y=20
        let h = b.build();
        let (_, _, sat) = saturated(&h, Model::SequentialConsistency);
        assert!(sat.is_cyclic(), "w_b < r_a < w_a and w_a < r_b < w_b is cyclic");
        let cycle = sat.cycle().expect("counterexample cycle");
        assert!(cycle.len() >= 2);
        let _ = (r_a, w_a, r_b, w_b);
        // And the saturated search agrees with the plain search's verdict.
        let index = HistoryIndex::new(&h);
        let cons = constraints_for_with(&h, &index, Model::SequentialConsistency);
        assert_eq!(find_sequence_saturated(&index, &h.complete_ids(), &[], &cons).unwrap(), None);
        assert!(find_sequence_with(&index, &h.complete_ids(), &[], &cons).unwrap().is_none());
    }

    #[test]
    fn write_write_inference_orders_overwriter_after_reader() {
        // w1(x=1) -> r(x=1) by unique writer; w2(x=2) ordered before r by
        // process order of... instead: w1 < w2 via real time, so the rule
        // forces r < w2.
        let mut b = HistoryBuilder::new();
        let w1 = b.write(1, 1, 1, 0, 10);
        let w2 = b.write(2, 1, 2, 20, 30); // strictly after w1
        let r = b.read(3, 1, 1, 0, 100); // concurrent with both, observes w1
        let h = b.build();
        let index = HistoryIndex::new(&h);
        let base = Constraints::from_edges(vec![(w1, w2)]);
        let sat = saturate(&index, &h.complete_ids(), &base);
        assert!(!sat.is_cyclic());
        let aug = sat.augmented_constraints(&base);
        assert!(aug.edges().contains(&(w1, r)), "reads-from edge");
        assert!(aug.edges().contains(&(r, w2)), "w1 < w2 forces r < w2: {:?}", aug.edges());
    }

    #[test]
    fn saturated_search_agrees_on_satisfiable_histories() {
        let mut b = HistoryBuilder::new();
        b.write(2, 1, 1, 0, 100);
        b.read(3, 1, 1, 10, 20);
        b.read(1, 1, 0, 30, 40);
        let h = b.build();
        let index = HistoryIndex::new(&h);
        for model in [
            Model::RegularSequentialConsistency,
            Model::SequentialConsistency,
            Model::Linearizability,
        ] {
            let cons = constraints_for_with(&h, &index, model);
            let plain = find_sequence_with(&index, &h.complete_ids(), &[], &cons).unwrap();
            let sat = find_sequence_saturated(&index, &h.complete_ids(), &[], &cons).unwrap();
            assert_eq!(plain.is_some(), sat.is_some(), "{model:?}");
            if let Some(seq) = &sat {
                assert!(crate::spec::check_sequence(&h, seq).is_ok());
            }
        }
    }

    #[test]
    fn queue_inference_matches_fifo_uniqueness() {
        use crate::op::{OpKind, OpResult};
        use crate::types::{Key, ProcessId, ServiceId, Timestamp, Value};
        let mut h = History::new();
        let e = h.add_complete(
            ProcessId(1),
            ServiceId::QUEUE,
            OpKind::Enqueue { queue: Key(1), value: Value(10) },
            Timestamp(0),
            Timestamp(100),
            OpResult::Ack,
        );
        let d = h.add_complete(
            ProcessId(2),
            ServiceId::QUEUE,
            OpKind::Dequeue { queue: Key(1) },
            Timestamp(0),
            Timestamp(100),
            OpResult::Value(Value(10)),
        );
        let index = HistoryIndex::new(&h);
        let sat = saturate(&index, &h.complete_ids(), &Constraints::new());
        let aug = sat.augmented_constraints(&Constraints::new());
        assert!(aug.edges().contains(&(e, d)), "unique enqueuer precedes dequeuer");
    }
}
