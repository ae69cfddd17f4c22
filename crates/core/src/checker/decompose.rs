//! The communication components of a history.
//!
//! [`count_components`] counts the connected components of a history's
//! communication graph — union-find over shared `(service, key)` accesses,
//! process membership, and message / external-communication endpoints
//! (fences and causal-context handoffs ride along through their process).
//! Two operations in different components share no key and no process, and
//! no message connects them.
//!
//! No checker splits its work this way: the witness search runs over the
//! whole history, and validating a given witness is the linear case, where a
//! protocol history is always one component. The count has one caller:
//! `regular_sweep::certify_streaming`, which reports a history's
//! `components`.

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use crate::hashing::FxBuildHasher;
use crate::history::History;

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

/// The number of communication components of `history`: ops are connected
/// if they share a process, a `(service, key)`, or their processes exchanged
/// a message (application or external). Zero for an empty history.
pub fn count_components(history: &History) -> usize {
    let mut uf = UnionFind::new(history.len());
    let mut proc_rep: HashMap<u32, u32, FxBuildHasher> = HashMap::default();
    let mut key_rep: HashMap<(u32, u64), u32, FxBuildHasher> = HashMap::default();
    for op in history.ops() {
        let id = op.id.0;
        match proc_rep.entry(op.process.0) {
            Entry::Occupied(e) => uf.union(*e.get(), id),
            Entry::Vacant(v) => {
                v.insert(id);
            }
        }
        for k in op.kind.accessed_keys_iter() {
            match key_rep.entry((op.service.0, k.0)) {
                Entry::Occupied(e) => uf.union(*e.get(), id),
                Entry::Vacant(v) => {
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
    // Every component has exactly one root, its own parent.
    uf.parent.iter().enumerate().filter(|&(i, &parent)| parent == i as u32).count()
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
        assert_eq!(count_components(&two_group_history()), 2);
        assert_eq!(count_components(&HistoryBuilder::new().build()), 0);
    }

    #[test]
    fn messages_union_components() {
        let mut b = HistoryBuilder::new();
        b.write(1, 1, 10, 0, 5);
        b.write(2, 2, 20, 0, 5);
        b.message(1, 6, 2, 7);
        let h = b.build();
        assert_eq!(count_components(&h), 1);
    }

    #[test]
    fn shared_key_unions_components() {
        let mut b = HistoryBuilder::new();
        b.write(1, 1, 10, 0, 5);
        b.read(2, 1, 10, 6, 9);
        b.write(3, 2, 30, 0, 5);
        let h = b.build();
        assert_eq!(count_components(&h), 2);
    }
}
