//! The communication components of a history.
//!
//! [`ComponentSplit`] computes the connected components of a history's
//! communication graph — union-find over shared `(service, key)` accesses,
//! process membership, and message / external-communication endpoints
//! (fences and causal-context handoffs ride along through their process).
//! Two operations in different components share no key and no process, and
//! no message connects them.
//!
//! No checker splits its work this way: the witness search runs over the
//! whole history, and validating a given witness is the linear case, where a
//! protocol history is always one component. The split has three callers
//! left: `regular_sweep::certify_streaming`, which reports a history's
//! `components`, the `large_history_certify` example and the `checker_scale`
//! criterion bench.

use std::collections::HashMap;

use crate::hashing::FxBuildHasher;
use crate::history::History;
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
    /// or external).
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
            for k in op.kind.accessed_keys_iter() {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::HistoryBuilder;

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
}
