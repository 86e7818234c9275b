//! The Δ forest: all spanning trees plus the vertex → trees reverse
//! index.

use super::snapshot::{SnapshotExt, TreeSnap};
use super::{Tree, TreeSemantics};
use srpq_common::{FxHashMap, StateId, Timestamp, VertexId};

/// The reverse index of Δ: which trees contain a given vertex, plus the
/// global node count (Figure 5's "# of nodes"). Shared verbatim by both
/// engines — it only counts `(vertex, tree)` incidences and never looks
/// at states or occurrence multiplicity.
#[derive(Debug, Default)]
pub struct RevIndex {
    /// `vertex → (root → number of (vertex, ·) nodes in that tree)`.
    occurrence: FxHashMap<VertexId, FxHashMap<VertexId, u32>>,
    total_nodes: usize,
}

impl RevIndex {
    /// Roots of all trees containing at least one `(v, ·)` node.
    pub fn trees_containing(&self, v: VertexId) -> Vec<VertexId> {
        let mut out = Vec::new();
        self.collect_trees_containing(v, &mut out);
        out
    }

    /// Clears `out` and fills it with the roots of all trees containing
    /// at least one `(v, ·)` node — the allocation-free variant for the
    /// per-tuple hot path (same order as [`RevIndex::trees_containing`]).
    pub fn collect_trees_containing(&self, v: VertexId, out: &mut Vec<VertexId>) {
        out.clear();
        if let Some(m) = self.occurrence.get(&v) {
            out.extend(m.keys().copied());
        }
    }

    /// Total node count over all trees (roots included).
    pub fn n_nodes(&self) -> usize {
        self.total_nodes
    }

    /// Bookkeeping: a node for `vertex` was added to tree `root`.
    pub fn note_added(&mut self, root: VertexId, vertex: VertexId) {
        *self
            .occurrence
            .entry(vertex)
            .or_default()
            .entry(root)
            .or_insert(0) += 1;
        self.total_nodes += 1;
    }

    /// Bookkeeping: a node for `vertex` was removed from tree `root`.
    /// A vertex's outer entry is retained even when its last incidence
    /// goes — window churn re-adds the same vertices, and an empty
    /// inner map with warm capacity makes the re-add allocation-free.
    pub fn note_removed(&mut self, root: VertexId, vertex: VertexId) {
        if let Some(m) = self.occurrence.get_mut(&vertex) {
            if let Some(c) = m.get_mut(&root) {
                *c -= 1;
                if *c == 0 {
                    m.remove(&root);
                }
            }
        }
        self.total_nodes -= 1;
    }

    fn counts(&self, vertex: VertexId, root: VertexId) -> u32 {
        self.occurrence
            .get(&vertex)
            .and_then(|m| m.get(&root))
            .copied()
            .unwrap_or(0)
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
    pool: Vec<Tree<X>>,
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
            pool: Vec::new(),
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
        let pool = &mut self.pool;
        if let std::collections::hash_map::Entry::Vacant(e) = self.trees.entry(x) {
            let tree = match pool.pop() {
                Some(mut t) => {
                    t.reset_root(x, s0);
                    t
                }
                None => Tree::new(x, s0),
            };
            e.insert(tree);
            self.index.note_added(x, x);
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

    /// Roots of all trees containing at least one `(v, ·)` node.
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
    /// sweep at `watermark` must visit, in map order: those whose
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
    }

    /// Total arena slots (live + free-listed) over all trees.
    pub fn n_slots(&self) -> usize {
        let live: usize = self.trees.values().map(Tree::capacity).sum();
        live + self.pool.iter().map(|t| t.capacity()).sum::<usize>()
    }

    /// Total bytes held by the column arrays over all trees, pooled
    /// recycled trees included (their arenas stay resident).
    pub fn arena_bytes(&self) -> usize {
        let live: usize = self.trees.values().map(Tree::arena_bytes).sum();
        live + self.pool.iter().map(|t| t.arena_bytes()).sum::<usize>()
    }

    /// Drops the tree rooted at `x` if only its root remains, updating
    /// the reverse index. Modest trees go to the recycling pool instead
    /// of being freed. Returns true if dropped.
    pub fn drop_if_trivial(&mut self, x: VertexId) -> bool {
        let trivial = self.trees.get(&x).map(|t| t.is_trivial()).unwrap_or(false);
        if trivial {
            if let Some(t) = self.trees.remove(&x) {
                if t.capacity() <= POOL_MAX_SLOTS {
                    self.pool.push(t);
                }
            }
            self.index.note_removed(x, x);
            true
        } else {
            false
        }
    }

    /// Debug validation of every tree plus reverse-index consistency.
    pub fn validate(&self) -> Result<(), String> {
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
            if forest.trees.insert(root, tree).is_some() {
                return Err(format!("duplicate tree root {root}"));
            }
        }
        forest.validate()?;
        Ok(forest)
    }
}
