//! The Δ forest: all spanning trees plus the vertex → trees reverse
//! index.

use super::snapshot::{SnapshotExt, TreeSnap};
use super::tree::SLOT_BYTES;
use super::{NodeId, Tree, TreeSemantics};
use srpq_common::{
    table_bytes, FxHashMap, Label, Pool, StateId, Timestamp, VertexId, POOL_MAX_ENTRY_BYTES,
};

/// One vertex's reverse-index entry: `root → number of (vertex, ·)
/// nodes in that tree`.
type Roots = FxHashMap<VertexId, u32>;

/// Heap bytes of a [`Roots`] table of capacity `cap`.
fn roots_bytes(cap: usize) -> usize {
    table_bytes::<VertexId, u32>(cap)
}

/// The reverse index of Δ: which trees contain a given vertex, plus the
/// global node count (Figure 5's "# of nodes") and the arena slot
/// ledger. Shared verbatim by both engines — it only counts
/// `(vertex, tree)` incidences and arena slots, and never looks at
/// states or occurrence multiplicity.
///
/// The engines grow and compact a tree through [`Self::add_child`] and
/// [`Self::maybe_compact`], and the [`Forest`] creates, re-roots, pools
/// and restores trees; each notes what it moved, so both counts are
/// field reads.
///
/// A vertex has an entry exactly while some tree holds a node for it,
/// so the index is sized by Δ, not by every vertex the stream has
/// touched. An entry's map order is a function of its history (a
/// recycled entry iterates differently from a never-freed one, a
/// recovered one differently from the one it was checkpointed from), so
/// the index hands out roots sorted: the order in which one tuple
/// visits its trees — and with it the order of results within one
/// timestamp — is a function of Δ's content alone.
#[derive(Debug, Default)]
pub struct RevIndex {
    /// `vertex → roots`; no entry is empty.
    occurrence: FxHashMap<VertexId, Roots>,
    /// Emptied entries awaiting a vertex; one of more than
    /// [`POOL_MAX_ENTRY_BYTES`] (about fifty roots) is freed instead.
    pool: Pool<Roots, POOL_MAX_ENTRY_BYTES>,
    /// `roots_bytes(capacity)` summed over every entry, in `occurrence`
    /// or pooled: updated wherever a capacity can move, so
    /// [`Self::heap_bytes`] is O(1).
    roots_bytes: usize,
    total_nodes: usize,
    /// Arena slots (live + free-listed) summed over every tree of the
    /// forest, pooled ones included: updated wherever a tree's capacity
    /// moves, so [`Forest::n_slots`] is O(1).
    slots: usize,
}

impl RevIndex {
    /// Roots of all trees containing at least one `(v, ·)` node,
    /// ascending.
    pub fn trees_containing(&self, v: VertexId) -> Vec<VertexId> {
        let mut out = Vec::new();
        self.collect_trees_containing(v, &mut out);
        out
    }

    /// Clears `out` and fills it with the roots of all trees containing
    /// at least one `(v, ·)` node, ascending — the allocation-free
    /// variant for the per-tuple hot path.
    pub fn collect_trees_containing(&self, v: VertexId, out: &mut Vec<VertexId>) {
        out.clear();
        if let Some(m) = self.occurrence.get(&v) {
            out.extend(m.keys().copied());
            if out.len() > 1 {
                out.sort_unstable();
            }
        }
    }

    /// Total node count over all trees (roots included).
    pub fn n_nodes(&self) -> usize {
        self.total_nodes
    }

    /// Heap bytes held: the vertex table and every entry's table, pooled
    /// ones included, estimated from their capacities. O(1).
    pub fn heap_bytes(&self) -> usize {
        table_bytes::<VertexId, Roots>(self.occurrence.capacity())
            + self.roots_bytes
            + self.pool.heap_bytes()
    }

    /// Adds a child under `parent` in `tree` ([`Tree::add_child`]) and
    /// notes it: the vertex's incidence in the tree, and a new arena
    /// slot when no free-listed one was reused.
    pub fn add_child<X: TreeSemantics>(
        &mut self,
        tree: &mut Tree<X>,
        parent: NodeId,
        vertex: VertexId,
        state: StateId,
        via_label: Label,
        ts: Timestamp,
    ) -> NodeId {
        let cap = tree.capacity();
        let id = tree.add_child(parent, vertex, state, via_label, ts);
        self.slots += tree.capacity() - cap;
        self.note_added(tree.root(), vertex);
        id
    }

    /// Compacts `tree` when fragmentation warrants it
    /// ([`Tree::maybe_compact`]) and notes the slots the compaction
    /// released. Returns whether a compaction ran.
    pub fn maybe_compact<X: TreeSemantics>(
        &mut self,
        tree: &mut Tree<X>,
        remap_scratch: &mut Vec<NodeId>,
    ) -> bool {
        let cap = tree.capacity();
        let ran = tree.maybe_compact(remap_scratch);
        self.slots -= cap - tree.capacity();
        ran
    }

    /// Bookkeeping: a node for `vertex` was added to tree `root`. A
    /// vertex without an entry takes a pooled one when there is one.
    fn note_added(&mut self, root: VertexId, vertex: VertexId) {
        let pool = &mut self.pool;
        let roots = self
            .occurrence
            .entry(vertex)
            .or_insert_with(|| pool.take().unwrap_or_default());
        let cap = roots.capacity();
        *roots.entry(root).or_insert(0) += 1;
        if roots.capacity() != cap {
            self.roots_bytes = self.roots_bytes + roots_bytes(roots.capacity()) - roots_bytes(cap);
        }
        self.total_nodes += 1;
    }

    /// Bookkeeping: a node for `vertex` was removed from tree `root`.
    /// When the vertex's last incidence goes, its entry leaves the index:
    /// into the pool if small (window churn re-adds vertices, and a warm
    /// entry makes the re-add allocation-free), freed otherwise.
    pub fn note_removed(&mut self, root: VertexId, vertex: VertexId) {
        self.total_nodes -= 1;
        let Some(roots) = self.occurrence.get_mut(&vertex) else {
            return;
        };
        let Some(c) = roots.get_mut(&root) else {
            return;
        };
        *c -= 1;
        if *c > 0 {
            return;
        }
        let cap = roots.capacity();
        roots.remove(&root);
        if roots.capacity() != cap {
            // The removal left a tombstone, which lowers the capacity.
            self.roots_bytes = self.roots_bytes + roots_bytes(roots.capacity()) - roots_bytes(cap);
        }
        if roots.is_empty() {
            let emptied = self.occurrence.remove(&vertex).expect("entry just emptied");
            let bytes = roots_bytes(emptied.capacity());
            if !self.pool.put(emptied, bytes) {
                self.roots_bytes -= bytes;
            }
        }
    }

    fn counts(&self, vertex: VertexId, root: VertexId) -> u32 {
        self.occurrence
            .get(&vertex)
            .and_then(|m| m.get(&root))
            .copied()
            .unwrap_or(0)
    }

    /// Checks what the index keeps about itself: no empty entry and no
    /// zero count, the node count against the per-tree counts, and the
    /// tracked table bytes against a recount.
    fn validate(&self) -> Result<(), String> {
        let mut incidences = 0usize;
        for (&v, roots) in &self.occurrence {
            if roots.is_empty() {
                return Err(format!("reverse index keeps an empty entry for {v}"));
            }
            for (&root, &n) in roots {
                if n == 0 {
                    return Err(format!(
                        "reverse index counts 0 nodes of {v} in tree {root}"
                    ));
                }
                incidences += n as usize;
            }
        }
        if incidences != self.total_nodes {
            return Err(format!(
                "reverse index counts {incidences} incidences for {} nodes",
                self.total_nodes
            ));
        }
        let recount: usize = self
            .occurrence
            .values()
            .chain(self.pool.iter())
            .map(|m| roots_bytes(m.capacity()))
            .sum();
        if recount != self.roots_bytes {
            return Err(format!(
                "reverse index tracks {} table bytes, holds {recount}",
                self.roots_bytes
            ));
        }
        Ok(())
    }
}

/// The Δ index: all spanning trees plus a reverse index from vertices
/// to the trees containing them — the reverse index is what bounds
/// per-tuple work by the number of *relevant* trees instead of all n
/// of them.
#[derive(Debug, Default)]
pub struct Forest<X: TreeSemantics> {
    trees: FxHashMap<VertexId, Tree<X>>,
    index: RevIndex,
    /// Recycled trees awaiting a new root. Window churn destroys and
    /// recreates trees constantly; re-rooting a pooled tree reuses its
    /// arena columns and occurrence map at their high-water capacity,
    /// keeping the steady-state slide path allocation-free.
    pool: Pool<Tree<X>, POOL_MAX_SLOTS>,
}

/// Trees whose arenas grew beyond this many slots are dropped instead
/// of pooled — one pathological burst must not pin its high-water
/// memory for the rest of the stream.
const POOL_MAX_SLOTS: usize = 4096;

impl<X: TreeSemantics> Forest<X> {
    /// Creates an empty index.
    pub fn new() -> Forest<X> {
        Forest {
            trees: FxHashMap::default(),
            index: RevIndex::default(),
            pool: Pool::default(),
        }
    }

    /// Number of trees.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }

    /// Total node count over all trees (roots included).
    pub fn n_nodes(&self) -> usize {
        self.index.n_nodes()
    }

    /// Ensures a tree rooted at `x` exists, creating `(x, s0)` if not
    /// (re-rooting a pooled tree when one is available).
    pub fn ensure_tree(&mut self, x: VertexId, s0: StateId) -> &mut Tree<X> {
        let (pool, index) = (&mut self.pool, &mut self.index);
        if let std::collections::hash_map::Entry::Vacant(e) = self.trees.entry(x) {
            let tree = match pool.take() {
                Some(mut t) => {
                    // Re-rooting keeps the root's slot and drops the rest.
                    index.slots -= t.capacity();
                    t.reset_root(x, s0);
                    t
                }
                None => Tree::new(x, s0),
            };
            index.slots += tree.capacity();
            e.insert(tree);
            index.note_added(x, x);
        }
        self.trees.get_mut(&x).expect("just inserted")
    }

    /// The tree rooted at `x`.
    pub fn tree(&self, x: VertexId) -> Option<&Tree<X>> {
        self.trees.get(&x)
    }

    /// Mutable access to the tree rooted at `x`.
    pub fn tree_mut(&mut self, x: VertexId) -> Option<&mut Tree<X>> {
        self.trees.get_mut(&x)
    }

    /// Simultaneous mutable access to one tree and the reverse index
    /// (they are disjoint, but the borrow checker needs the split made
    /// explicit).
    pub fn tree_with_index(&mut self, x: VertexId) -> Option<(&mut Tree<X>, &mut RevIndex)> {
        let index = &mut self.index;
        self.trees.get_mut(&x).map(|t| (t, index))
    }

    /// Roots of all trees containing at least one `(v, ·)` node,
    /// ascending.
    pub fn trees_containing(&self, v: VertexId) -> Vec<VertexId> {
        self.index.trees_containing(v)
    }

    /// Clears `out` and fills it with the roots of all trees containing
    /// at least one `(v, ·)` node (allocation-free hot-path variant).
    pub fn collect_trees_containing(&self, v: VertexId, out: &mut Vec<VertexId>) {
        self.index.collect_trees_containing(v, out);
    }

    /// Roots of all trees.
    pub fn roots(&self) -> Vec<VertexId> {
        self.trees.keys().copied().collect()
    }

    /// Clears `out` and fills it with the roots of the trees an expiry
    /// sweep at `watermark` must visit, ascending (the map's order is a
    /// function of its history, see [`RevIndex`]): those whose
    /// [`Tree::min_ts`] bound is at or below it (anything else would
    /// scan its timestamp column and find nothing) and the root-only
    /// ones ([`Forest::drop_if_trivial`] drops them). Allocation-free
    /// once `out` has warmed.
    pub fn collect_due_roots(&self, watermark: Timestamp, out: &mut Vec<VertexId>) {
        out.clear();
        out.extend(
            self.trees
                .iter()
                .filter(|(_, t)| t.min_ts() <= watermark || t.is_trivial())
                .map(|(&root, _)| root),
        );
        out.sort_unstable();
    }

    /// Total arena slots (live + free-listed) over all trees, pooled
    /// recycled trees included. O(1): a field read of the slot ledger.
    pub fn n_slots(&self) -> usize {
        self.index.slots
    }

    /// Total bytes held by the column arrays over all trees, pooled
    /// recycled trees included (their arenas stay resident). O(1): the
    /// slot ledger times the fixed bytes per slot, as in
    /// [`Tree::arena_bytes`].
    pub fn arena_bytes(&self) -> usize {
        self.index.slots * SLOT_BYTES
    }

    /// Drops the tree rooted at `x` if only its root remains, updating
    /// the reverse index. Modest trees go to the recycling pool instead
    /// of being freed. Returns true if dropped.
    pub fn drop_if_trivial(&mut self, x: VertexId) -> bool {
        let trivial = self.trees.get(&x).map(|t| t.is_trivial()).unwrap_or(false);
        if trivial {
            if let Some(t) = self.trees.remove(&x) {
                let slots = t.capacity();
                if !self.pool.put(t, slots) {
                    self.index.slots -= slots;
                }
            }
            self.index.note_removed(x, x);
            true
        } else {
            false
        }
    }

    /// Arena slots and column bytes recounted tree by tree over live
    /// and pooled trees: what [`Self::n_slots`] and
    /// [`Self::arena_bytes`] must equal. O(trees) — validation and
    /// tests only.
    pub(crate) fn recount_arena(&self) -> (usize, usize) {
        self.trees
            .values()
            .chain(self.pool.iter())
            .fold((0, 0), |(n, b), t| (n + t.capacity(), b + t.arena_bytes()))
    }

    /// Heap bytes of the reverse index, in O(1) (see
    /// [`RevIndex::heap_bytes`]).
    pub fn index_bytes(&self) -> usize {
        self.index.heap_bytes()
    }

    /// Debug validation of every tree plus reverse-index consistency,
    /// and the slot ledger against a recount over live and pooled trees.
    pub fn validate(&self) -> Result<(), String> {
        self.index.validate()?;
        let (slots, _) = self.recount_arena();
        if slots != self.index.slots {
            return Err(format!(
                "slot ledger counts {} arena slots, trees hold {slots}",
                self.index.slots
            ));
        }
        let mut counted = 0usize;
        for (&root, tree) in &self.trees {
            tree.validate().map_err(|e| format!("tree {root}: {e}"))?;
            counted += tree.len();
            // Every vertex with nodes in this tree must be covered by
            // the reverse index with an exact per-tree count.
            let mut per_vertex: FxHashMap<VertexId, u32> = FxHashMap::default();
            for (_, n) in tree.iter() {
                *per_vertex.entry(n.vertex).or_insert(0) += 1;
            }
            for (&v, &n) in &per_vertex {
                let cached = self.index.counts(v, root);
                if cached != n {
                    return Err(format!(
                        "reverse index counts {cached} nodes of {v} in tree {root}, tree has {n}"
                    ));
                }
            }
        }
        if counted != self.index.total_nodes {
            return Err(format!(
                "node count drift: counted {counted}, cached {}",
                self.index.total_nodes
            ));
        }
        Ok(())
    }
}

impl<X: SnapshotExt> Forest<X> {
    /// Captures a faithful snapshot of every tree (`Full` checkpoints),
    /// sorted by root vertex for deterministic encoding.
    pub fn to_snapshot(&self) -> Vec<TreeSnap> {
        let mut snaps: Vec<TreeSnap> = self.trees.values().map(Tree::to_snapshot).collect();
        snaps.sort_unstable_by_key(|s| s.root);
        snaps
    }

    /// Rebuilds a forest from tree snapshots; the reverse index is
    /// recomputed from the restored trees.
    pub fn from_snapshot(snaps: Vec<TreeSnap>) -> Result<Forest<X>, String> {
        let mut forest = Forest::new();
        for snap in snaps {
            let root = snap.root;
            let tree = Tree::from_snapshot(snap).map_err(|e| format!("tree {root}: {e}"))?;
            for (_, n) in tree.iter() {
                forest.index.note_added(root, n.vertex);
            }
            forest.index.slots += tree.capacity();
            if forest.trees.insert(root, tree).is_some() {
                return Err(format!("duplicate tree root {root}"));
            }
        }
        forest.validate()?;
        Ok(forest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delta::Unique;
    use srpq_common::POOL_MAX_ENTRIES;

    #[test]
    fn validate_rejects_an_empty_reverse_index_entry() {
        let mut f: Forest<Unique> = Forest::new();
        f.ensure_tree(VertexId(0), StateId(0));
        f.validate().unwrap();
        f.index.occurrence.insert(VertexId(9), Roots::default());
        let err = f.validate().unwrap_err();
        assert!(err.contains("empty entry for v9"), "{err}");
    }

    #[test]
    fn reverse_index_entries_leave_with_their_last_incidence() {
        // More vertices than the pool holds each join two trees and leave
        // them; a hub in 200 trees leaves too. The index ends empty, the
        // pool full of small entries, and the tracked bytes exact.
        const N: u32 = POOL_MAX_ENTRIES as u32 + 1000;
        let mut idx = RevIndex::default();
        for v in 1..=N {
            for root in [VertexId(0), VertexId(v)] {
                idx.note_added(root, VertexId(v));
            }
        }
        for root in 0..200 {
            idx.note_added(VertexId(root), VertexId(N + 1));
        }
        idx.validate().unwrap();
        for v in 1..=N {
            for root in [VertexId(0), VertexId(v)] {
                idx.note_removed(root, VertexId(v));
            }
        }
        for root in 0..200 {
            idx.note_removed(VertexId(root), VertexId(N + 1));
        }
        assert!(idx.occurrence.is_empty());
        assert_eq!(idx.pool.iter().count(), POOL_MAX_ENTRIES);
        assert!(idx
            .pool
            .iter()
            .all(|m| roots_bytes(m.capacity()) <= POOL_MAX_ENTRY_BYTES));
        idx.validate().unwrap();
    }
}
