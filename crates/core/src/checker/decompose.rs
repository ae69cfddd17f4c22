//! Communication-component decomposition for the witness *search*.
//!
//! Two operations must be ordered *relative to each other* by a checker only
//! if some chain of constraints connects them. [`ComponentSplit`] computes
//! the connected components of the communication graph — union-find over
//! shared `(service, key)` accesses, process membership, and message /
//! external-communication endpoints (fences and causal-context handoffs ride
//! along through their process) — so the NP-hard question *does a witness
//! exist* is asked per component ([`find_sequence_decomposed`]): each
//! component is searched independently (through the saturation prefilter of
//! [`crate::checker::saturate`](mod@crate::checker::saturate)) and the
//! per-component witnesses are merged into one global witness. Since
//! components share no keys, the merged sequence replays exactly as the
//! components did; the only global constraints a model imposes *across*
//! components are real-time edges, which [`CrossEdges`] characterizes per
//! model and the merge enforces by interleaving on invocation/response
//! times. If the greedy merge cannot honor them (per-component witnesses
//! over-committed an internal order), the checker falls back to the
//! whole-history search, so the verdict is always exact.
//!
//! The decomposition is sound in both directions: a violation inside a
//! component is a violation of the whole history (the component's ops are
//! constrained only among themselves plus cross real-time edges, which the
//! merge handles), and per-component witnesses concatenate into a legal
//! global witness because components are key-disjoint.
//!
//! Validating a *given* witness is never decomposed: it is the linear case,
//! and splitting a protocol history (always one component) only adds the
//! split's cost. [`ComponentSplit`] is still what the certifiers report as a
//! history's `components`.

use std::collections::HashMap;

use crate::checker::models::Model;
use crate::checker::saturate::find_sequence_saturated;
use crate::checker::search::{Constraints, SearchError};
use crate::hashing::FxBuildHasher;
use crate::history::{History, HistoryIndex};
use crate::types::OpId;

/// Union-find with path halving; elements are op ids.
struct UnionFind {
    parent: Vec<u32>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind { parent: (0..n as u32).collect() }
    }

    fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            let grandparent = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = grandparent;
            x = grandparent;
        }
        x
    }

    fn union(&mut self, a: u32, b: u32) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra as usize] = rb;
        }
    }
}

/// The communication components of a history.
#[derive(Debug, Clone)]
pub struct ComponentSplit {
    comp_of: Vec<u32>,
    components: Vec<Vec<OpId>>,
}

impl ComponentSplit {
    /// Computes the components: ops are connected if they share a process, a
    /// `(service, key)`, or their processes exchanged a message (application
    /// or external). Over-unioning is always sound — it only costs
    /// parallelism, never correctness.
    pub fn split(history: &History) -> Self {
        let n = history.len();
        let mut uf = UnionFind::new(n);
        let mut proc_rep: HashMap<u32, u32, FxBuildHasher> = HashMap::default();
        let mut key_rep: HashMap<(u32, u64), u32, FxBuildHasher> = HashMap::default();
        for op in history.ops() {
            let id = op.id.0;
            match proc_rep.entry(op.process.0) {
                std::collections::hash_map::Entry::Occupied(e) => uf.union(*e.get(), id),
                std::collections::hash_map::Entry::Vacant(v) => {
                    v.insert(id);
                }
            }
            for k in op.kind.accessed_keys() {
                match key_rep.entry((op.service.0, k.0)) {
                    std::collections::hash_map::Entry::Occupied(e) => uf.union(*e.get(), id),
                    std::collections::hash_map::Entry::Vacant(v) => {
                        v.insert(id);
                    }
                }
            }
        }
        for m in history.messages().iter().chain(history.external_communications()) {
            if let (Some(&a), Some(&b)) = (proc_rep.get(&m.from.0), proc_rep.get(&m.to.0)) {
                uf.union(a, b);
            }
        }
        let mut comp_of = vec![0u32; n];
        let mut components: Vec<Vec<OpId>> = Vec::new();
        let mut root_comp: HashMap<u32, u32, FxBuildHasher> = HashMap::default();
        for i in 0..n as u32 {
            let root = uf.find(i);
            let c = *root_comp.entry(root).or_insert_with(|| {
                components.push(Vec::new());
                (components.len() - 1) as u32
            });
            comp_of[i as usize] = c;
            components[c as usize].push(OpId(i));
        }
        ComponentSplit { comp_of, components }
    }

    /// The component index of an operation.
    #[inline]
    pub fn comp_of(&self, id: OpId) -> usize {
        self.comp_of[id.index()] as usize
    }

    /// The components, each a list of op ids in ascending order. Numbered by
    /// first appearance in the history.
    #[inline]
    pub fn components(&self) -> &[Vec<OpId>] {
        &self.components
    }

    /// Number of components.
    #[inline]
    pub fn len(&self) -> usize {
        self.components.len()
    }

    /// True if the history had no operations.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.components.is_empty()
    }
}

/// Which real-time edges a model imposes *across* components.
///
/// Every other constraint family is intra-component by construction: process
/// order stays inside one process (one component), reads-from and per-key
/// conflicts share a key, and message edges connect processes the split
/// unioned. Real-time edges are the exception — they hold between concurrent
/// processes that never communicate — and each model draws them between a
/// specific source/target class:
///
/// | variant | source (must respond) | target | model |
/// |---|---|---|---|
/// | `None` | — | — | PO ser. / SC / CRDB (CRDB's real-time edges require a shared key) |
/// | `AllPairs` | any complete | any | strict ser. / linearizability |
/// | `WriteWrite` | complete mutating | mutating | RSS / RSC (cross-component conflicting reads can't exist) |
/// | `CompleteToWrite` | any complete | mutating | OSC(U) |
/// | `WriteToAll` | complete mutating | any | VV regularity |
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrossEdges {
    /// No cross-component constraints: concatenation is a legal merge.
    None,
    /// `resp(a) < inv(b)` constrains every pair.
    AllPairs,
    /// Completed mutating ops precede mutating ops they really precede.
    WriteWrite,
    /// Every completed op precedes mutating ops it really precedes.
    CompleteToWrite,
    /// Completed mutating ops precede every op they really precede.
    WriteToAll,
}

impl CrossEdges {
    /// The cross-component edge class of a search [`Model`].
    pub fn for_model(model: Model) -> CrossEdges {
        match model {
            Model::StrictSerializability | Model::Linearizability => CrossEdges::AllPairs,
            Model::RegularSequentialSerializability | Model::RegularSequentialConsistency => {
                CrossEdges::WriteWrite
            }
            Model::ProcessOrderedSerializability | Model::SequentialConsistency => CrossEdges::None,
        }
    }

    /// True if `op` can be the source of a cross-component edge (sources must
    /// have responded — real-time edges need a response instant).
    #[inline]
    fn is_source(self, index: &HistoryIndex, op: usize) -> bool {
        if index.response_us(op).is_none() {
            return false;
        }
        match self {
            CrossEdges::None => false,
            CrossEdges::AllPairs | CrossEdges::CompleteToWrite => true,
            CrossEdges::WriteWrite | CrossEdges::WriteToAll => index.is_mutating(op),
        }
    }

    /// True if `op` can be the target of a cross-component edge.
    #[inline]
    fn is_target(self, index: &HistoryIndex, op: usize) -> bool {
        match self {
            CrossEdges::None => false,
            CrossEdges::AllPairs | CrossEdges::WriteToAll => true,
            CrossEdges::WriteWrite | CrossEdges::CompleteToWrite => index.is_mutating(op),
        }
    }
}

/// The saturated search run per communication component, with per-component
/// witnesses merged into one global witness.
///
/// Verdict-equivalent to
/// [`find_sequence_with`](crate::checker::search::find_sequence_with) on the
/// same inputs, provided `cross` matches the model that produced
/// `constraints` (see [`CrossEdges::for_model`]): an unsatisfiable component
/// is unsatisfiable globally (its ops are constrained only among themselves
/// and by cross real-time edges, which only *further* restrict), and a
/// successful merge yields a sequence respecting every constraint. When the
/// greedy merge cannot interleave the component witnesses (possible when a
/// component's internal order over-commits), the whole-history saturated
/// search decides — so no verdict is ever lost to decomposition.
///
/// # Errors
///
/// Propagates [`SearchError`] from the underlying searches.
pub fn find_sequence_decomposed(
    history: &History,
    index: &HistoryIndex,
    required: &[OpId],
    optional: &[OpId],
    constraints: &Constraints,
    cross: CrossEdges,
) -> Result<Option<Vec<OpId>>, SearchError> {
    let split = ComponentSplit::split(history);
    if split.len() <= 1 {
        return find_sequence_saturated(index, required, optional, constraints);
    }
    let k = split.len();
    let mut req_by: Vec<Vec<OpId>> = vec![Vec::new(); k];
    let mut opt_by: Vec<Vec<OpId>> = vec![Vec::new(); k];
    for &id in required {
        req_by[split.comp_of(id)].push(id);
    }
    for &id in optional {
        opt_by[split.comp_of(id)].push(id);
    }
    let mut edges_by: Vec<Vec<(OpId, OpId)>> = vec![Vec::new(); k];
    for &(a, b) in constraints.edges() {
        let (ca, cb) = (split.comp_of(a), split.comp_of(b));
        if ca == cb {
            edges_by[ca].push((a, b));
        }
        // Cross-component edges are dropped here and re-imposed by the merge
        // (they are always of the `cross` time-edge class for a well-formed
        // model constraint set).
    }
    let mut witnesses: Vec<Vec<OpId>> = Vec::with_capacity(k);
    for c in 0..k {
        if req_by[c].is_empty() && opt_by[c].is_empty() {
            witnesses.push(Vec::new());
            continue;
        }
        let comp_constraints = Constraints::from_edges(std::mem::take(&mut edges_by[c]));
        match find_sequence_saturated(index, &req_by[c], &opt_by[c], &comp_constraints)? {
            Some(w) => witnesses.push(w),
            None => return Ok(None),
        }
    }
    if cross == CrossEdges::None {
        return Ok(Some(witnesses.concat()));
    }
    match merge_witnesses(index, &witnesses, cross) {
        Some(merged) => Ok(Some(merged)),
        None => find_sequence_saturated(index, required, optional, constraints),
    }
}

/// Greedily interleaves per-component witnesses so that every cross-component
/// time edge (`resp(source) < inv(target)`, source/target per `cross`) is
/// respected. Returns `None` if stuck — the caller falls back to the
/// whole-history search.
///
/// Greedy is safe here: emitting an op only advances component pointers, and
/// the per-component suffix-minimum of unemitted source response times is
/// non-decreasing as the pointer advances — so an emittable head can never
/// become unemittable. If the loop stalls, no interleaving of *these*
/// witnesses exists.
fn merge_witnesses(
    index: &HistoryIndex,
    witnesses: &[Vec<OpId>],
    cross: CrossEdges,
) -> Option<Vec<OpId>> {
    const INF: u64 = u64::MAX;
    // suffix_min[c][p]: the minimum response time among source-class ops at
    // positions >= p of component c's witness.
    let suffix_min: Vec<Vec<u64>> = witnesses
        .iter()
        .map(|w| {
            let mut v = vec![INF; w.len() + 1];
            for p in (0..w.len()).rev() {
                let op = w[p].index();
                let s = if cross.is_source(index, op) {
                    index.response_us(op).unwrap_or(INF)
                } else {
                    INF
                };
                v[p] = v[p + 1].min(s);
            }
            v
        })
        .collect();
    let total: usize = witnesses.iter().map(Vec::len).sum();
    let mut ptr = vec![0usize; witnesses.len()];
    let mut out = Vec::with_capacity(total);
    while out.len() < total {
        let mut emitted = false;
        for (c, w) in witnesses.iter().enumerate() {
            let p = ptr[c];
            if p >= w.len() {
                continue;
            }
            let head = w[p].index();
            let emittable = if !cross.is_target(index, head) {
                true
            } else {
                let inv = index.invoke_us(head);
                // No other component may still hold an unemitted source that
                // really precedes this head (strictly: resp < inv).
                suffix_min.iter().enumerate().all(|(d, sm)| d == c || sm[ptr[d]] >= inv)
            };
            if emittable {
                out.push(w[p]);
                ptr[c] += 1;
                emitted = true;
                break;
            }
        }
        if !emitted {
            return None;
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::certificate::{check_witness, WitnessModel};
    use crate::checker::models::{constraints_for_with, satisfies};
    use crate::history::HistoryBuilder;
    use crate::spec::check_sequence;

    /// Two groups: processes 1-2 on keys 1-2, processes 3-4 on keys 11-12.
    /// No messages — two components.
    fn two_group_history() -> History {
        let mut b = HistoryBuilder::new();
        b.write(1, 1, 10, 0, 5);
        b.read(2, 1, 10, 6, 9);
        b.write(2, 2, 20, 10, 15);
        b.read(1, 2, 20, 16, 19);
        b.write(3, 11, 30, 2, 7);
        b.read(4, 11, 30, 8, 11);
        b.write(4, 12, 40, 12, 17);
        b.read(3, 12, 40, 18, 21);
        b.build()
    }

    #[test]
    fn split_finds_independent_groups() {
        let h = two_group_history();
        let split = ComponentSplit::split(&h);
        assert_eq!(split.len(), 2);
        assert_eq!(split.comp_of(OpId(0)), split.comp_of(OpId(3)));
        assert_ne!(split.comp_of(OpId(0)), split.comp_of(OpId(4)));
        assert_eq!(split.components()[0].len(), 4);
        assert_eq!(split.components()[1].len(), 4);
    }

    #[test]
    fn messages_union_components() {
        let mut b = HistoryBuilder::new();
        b.write(1, 1, 10, 0, 5);
        b.write(2, 2, 20, 0, 5);
        b.message(1, 6, 2, 7);
        let h = b.build();
        assert_eq!(ComponentSplit::split(&h).len(), 1);
    }

    #[test]
    fn shared_key_unions_components() {
        let mut b = HistoryBuilder::new();
        b.write(1, 1, 10, 0, 5);
        b.read(2, 1, 10, 6, 9);
        b.write(3, 2, 30, 0, 5);
        let h = b.build();
        let split = ComponentSplit::split(&h);
        assert_eq!(split.len(), 2);
        assert_eq!(split.comp_of(OpId(0)), split.comp_of(OpId(1)));
    }

    #[test]
    fn decomposed_search_agrees_across_models() {
        let h = two_group_history();
        let index = HistoryIndex::new(&h);
        for model in [
            Model::StrictSerializability,
            Model::Linearizability,
            Model::RegularSequentialSerializability,
            Model::RegularSequentialConsistency,
            Model::ProcessOrderedSerializability,
            Model::SequentialConsistency,
        ] {
            let constraints = constraints_for_with(&h, &index, model);
            let plain = crate::checker::search::find_sequence_with(
                &index,
                index.complete_ids(),
                index.pending_mutations(),
                &constraints,
            )
            .unwrap();
            let decomposed = find_sequence_decomposed(
                &h,
                &index,
                index.complete_ids(),
                index.pending_mutations(),
                &constraints,
                CrossEdges::for_model(model),
            )
            .unwrap();
            assert_eq!(plain.is_some(), decomposed.is_some(), "{model:?}");
            if let Some(seq) = &decomposed {
                assert!(check_sequence(&h, seq).is_ok(), "{model:?} witness replays");
            }
        }
    }

    #[test]
    fn merged_witness_respects_cross_component_real_time() {
        // Component A finishes entirely before component B starts; the merged
        // linearizability witness must order A's ops before B's, which the
        // real-time witness checker verifies end-to-end.
        let mut b = HistoryBuilder::new();
        b.write(1, 1, 10, 0, 5);
        b.read(1, 1, 10, 6, 9);
        b.write(2, 2, 20, 100, 105);
        b.read(2, 2, 20, 106, 109);
        let h = b.build();
        let index = HistoryIndex::new(&h);
        assert_eq!(ComponentSplit::split(&h).len(), 2);
        let constraints = constraints_for_with(&h, &index, Model::Linearizability);
        let witness = find_sequence_decomposed(
            &h,
            &index,
            index.complete_ids(),
            index.pending_mutations(),
            &constraints,
            CrossEdges::AllPairs,
        )
        .unwrap()
        .expect("linearizable history");
        assert_eq!(check_witness(&h, &witness, WitnessModel::RealTime), Ok(()));
    }

    #[test]
    fn unsatisfiable_component_fails_the_whole_history() {
        let mut b = HistoryBuilder::new();
        b.write(1, 1, 10, 0, 5); // healthy component
        b.write(3, 11, 30, 0, 5); // stale-read component
        b.read(4, 11, 0, 20, 30);
        let h = b.build();
        let index = HistoryIndex::new(&h);
        assert_eq!(ComponentSplit::split(&h).len(), 2);
        let constraints = constraints_for_with(&h, &index, Model::Linearizability);
        let verdict = find_sequence_decomposed(
            &h,
            &index,
            index.complete_ids(),
            index.pending_mutations(),
            &constraints,
            CrossEdges::AllPairs,
        )
        .unwrap();
        assert!(verdict.is_none());
        assert!(!satisfies(&h, Model::Linearizability));
    }
}
