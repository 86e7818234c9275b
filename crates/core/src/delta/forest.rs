//! The Δ forest: all spanning trees plus the vertex → trees reverse
//! index.

use super::snapshot::{SnapshotExt, TreeSnap};
use super::tree::SLOT_BYTES;
use super::{NodeId, Tree, TreeSemantics};
use srpq_common::{
    table_bytes, FxHashMap, Label, Pool, StateId, Timestamp, VertexId, POOL_MAX_ENTRY_BYTES,
};
use std::collections::hash_map::Entry;

/// One vertex's reverse-index row: the trees holding a node for it,
/// each with its number of `(vertex, ·)` nodes there. A vertex in a
/// single tree — nearly every vertex of a sparse window — keeps that
/// tree inline in the index's own table, and a vertex in up to
/// [`ROW_MAX`] trees a heap row ascending by root. Past that, a sorted
/// insert or removal moves more bytes than a hash probe costs, and the
/// row becomes an unordered hub table, sorted when handed out.
#[derive(Debug)]
enum Row {
    /// Exactly one tree: `(root, count)`.
    One((VertexId, u32)),
    /// Two to [`ROW_MAX`] trees, strictly ascending by root.
    Many(Vec<(VertexId, u32)>),
    /// More than [`HUB_MIN`] trees, unordered.
    Hub(FxHashMap<VertexId, u32>),
}

/// The most roots a heap row holds; one more turns it into a hub table.
const ROW_MAX: usize = 64;

/// A hub table that shrinks to this many roots turns back into a heap
/// row. Half of [`ROW_MAX`], so that a vertex hovering at the bound does
/// not convert back and forth.
const HUB_MIN: usize = ROW_MAX / 2;

/// A pool of emptied heap rows.
type RowPool = Pool<Vec<(VertexId, u32)>, POOL_MAX_ENTRY_BYTES>;

impl Row {
    /// Heap bytes the row holds, estimated from its capacity.
    fn heap_bytes(&self) -> usize {
        match self {
            Row::One(_) => 0,
            Row::Many(v) => roots_bytes(v.capacity()),
            Row::Hub(m) => table_bytes::<VertexId, u32>(m.capacity()),
        }
    }

    /// The node count of `root`'s tree (0 if the vertex is not in it).
    fn count(&self, root: VertexId) -> u32 {
        match self {
            Row::One((r, n)) => {
                if *r == root {
                    *n
                } else {
                    0
                }
            }
            Row::Many(v) => v
                .binary_search_by_key(&root, |&(r, _)| r)
                .map_or(0, |i| v[i].1),
            Row::Hub(m) => m.get(&root).copied().unwrap_or(0),
        }
    }
}

/// Heap bytes of a heap row of capacity `cap`.
fn roots_bytes(cap: usize) -> usize {
    cap * std::mem::size_of::<(VertexId, u32)>()
}

/// Takes an empty heap row from `pool` (or a new one), moving its bytes
/// out of the pooled share of the `ledger`.
fn take_row(pool: &mut RowPool, ledger: &mut usize) -> Vec<(VertexId, u32)> {
    let v = pool.take().unwrap_or_default();
    *ledger -= roots_bytes(v.capacity());
    v
}

/// Empties a heap row into `pool` if small and the pool has room
/// (window churn moves vertices in and out of trees, and a warm row
/// makes the next one allocation-free); frees it otherwise.
fn put_row(pool: &mut RowPool, ledger: &mut usize, mut v: Vec<(VertexId, u32)>) {
    v.clear();
    let bytes = roots_bytes(v.capacity());
    if pool.put(v, bytes) {
        *ledger += bytes;
    }
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
/// A vertex has a row exactly while some tree holds a node for it, so
/// the index is sized by Δ, not by every vertex the stream has touched.
/// Noting an incidence is one probe of the vertex table plus an edit of
/// the row in place. Roots are handed out ascending — a copy of the row,
/// or a sorted copy of a hub table — so the order in which one tuple
/// visits its trees, and with it the order of results within one
/// timestamp, is a function of Δ's content alone.
#[derive(Debug, Default)]
pub struct RevIndex {
    /// `vertex → row`; no row is empty.
    occurrence: FxHashMap<VertexId, Row>,
    /// Emptied heap rows awaiting a vertex in several trees.
    pool: RowPool,
    /// Heap bytes of every heap row and hub table, in `occurrence` or
    /// pooled: updated wherever a capacity can move, so
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
        match self.occurrence.get(&v) {
            None => {}
            Some(Row::One((root, _))) => out.push(*root),
            Some(Row::Many(row)) => out.extend(row.iter().map(|&(root, _)| root)),
            Some(Row::Hub(m)) => {
                out.extend(m.keys().copied());
                out.sort_unstable();
            }
        }
    }

    /// Total node count over all trees (roots included).
    pub fn n_nodes(&self) -> usize {
        self.total_nodes
    }

    /// Heap bytes held: the vertex table and every heap row, pooled ones
    /// included, estimated from their capacities. O(1).
    pub fn heap_bytes(&self) -> usize {
        table_bytes::<VertexId, Row>(self.occurrence.capacity())
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
    /// vertex entering a second tree takes a pooled heap row when there
    /// is one.
    fn note_added(&mut self, root: VertexId, vertex: VertexId) {
        self.total_nodes += 1;
        let row = match self.occurrence.entry(vertex) {
            Entry::Vacant(e) => {
                e.insert(Row::One((root, 1)));
                return;
            }
            Entry::Occupied(e) => e.into_mut(),
        };
        let before = row.heap_bytes();
        match row {
            Row::One((r, n)) if *r == root => *n += 1,
            Row::One(first) => {
                let first = *first;
                let mut v = take_row(&mut self.pool, &mut self.roots_bytes);
                if first.0 < root {
                    v.extend([first, (root, 1)]);
                } else {
                    v.extend([(root, 1), first]);
                }
                *row = Row::Many(v);
            }
            Row::Many(v) => match v.binary_search_by_key(&root, |&(r, _)| r) {
                Ok(i) => v[i].1 += 1,
                Err(i) if v.len() < ROW_MAX => v.insert(i, (root, 1)),
                Err(_) => {
                    let mut hub = FxHashMap::default();
                    hub.extend(v.iter().copied());
                    hub.insert(root, 1);
                    if let Row::Many(v) = std::mem::replace(row, Row::Hub(hub)) {
                        put_row(&mut self.pool, &mut self.roots_bytes, v);
                    }
                }
            },
            Row::Hub(m) => *m.entry(root).or_insert(0) += 1,
        }
        self.roots_bytes = self.roots_bytes + row.heap_bytes() - before;
    }

    /// Bookkeeping: a node for `vertex` was removed from tree `root`.
    /// When the vertex's last incidence goes, its row leaves the index;
    /// a heap row shrinking to one tree moves it inline, and a hub
    /// table shrinking to half the most roots a heap row holds becomes a
    /// heap row again.
    pub fn note_removed(&mut self, root: VertexId, vertex: VertexId) {
        self.total_nodes -= 1;
        let Entry::Occupied(mut e) = self.occurrence.entry(vertex) else {
            return;
        };
        let row = e.get_mut();
        let before = row.heap_bytes();
        match row {
            Row::One((r, n)) => {
                if *r == root {
                    *n -= 1;
                    if *n == 0 {
                        e.remove();
                    }
                }
                return;
            }
            Row::Many(v) => {
                let Ok(i) = v.binary_search_by_key(&root, |&(r, _)| r) else {
                    return;
                };
                v[i].1 -= 1;
                if v[i].1 > 0 {
                    return;
                }
                v.remove(i);
                if v.len() == 1 {
                    let last = v[0];
                    if let Row::Many(v) = std::mem::replace(row, Row::One(last)) {
                        put_row(&mut self.pool, &mut self.roots_bytes, v);
                    }
                }
            }
            Row::Hub(m) => {
                let Some(n) = m.get_mut(&root) else {
                    return;
                };
                *n -= 1;
                if *n > 0 {
                    return;
                }
                m.remove(&root);
                if m.len() == HUB_MIN {
                    let mut v = take_row(&mut self.pool, &mut self.roots_bytes);
                    v.extend(m.iter().map(|(&r, &n)| (r, n)));
                    v.sort_unstable();
                    *row = Row::Many(v);
                }
            }
        }
        // A hash-table removal leaves a tombstone, which lowers the
        // table's capacity.
        self.roots_bytes = self.roots_bytes + row.heap_bytes() - before;
    }

    fn counts(&self, vertex: VertexId, root: VertexId) -> u32 {
        self.occurrence
            .get(&vertex)
            .map_or(0, |row| row.count(root))
    }

    /// Checks what the index keeps about itself: no empty row and no
    /// zero count, every row of a size its kind holds and every heap row
    /// strictly ascending by root, the node count against the per-tree
    /// counts, and the tracked row bytes against a recount.
    fn validate(&self) -> Result<(), String> {
        let mut incidences = 0usize;
        let mut bytes = 0usize;
        for (&v, row) in &self.occurrence {
            bytes += row.heap_bytes();
            let counts: Vec<(VertexId, u32)> = match row {
                Row::One(pair) => vec![*pair],
                Row::Many(pairs) => {
                    if let Some(w) = pairs.windows(2).find(|w| w[0].0 >= w[1].0) {
                        return Err(format!(
                            "reverse index row of {v} lists tree {} before tree {}",
                            w[0].0, w[1].0
                        ));
                    }
                    pairs.clone()
                }
                Row::Hub(m) => m.iter().map(|(&r, &n)| (r, n)).collect(),
            };
            let fits = match row {
                Row::One(_) => true,
                Row::Many(_) => (2..=ROW_MAX).contains(&counts.len()),
                Row::Hub(_) => counts.len() > HUB_MIN,
            };
            if counts.is_empty() {
                return Err(format!("reverse index keeps an empty entry for {v}"));
            }
            if !fits {
                return Err(format!(
                    "reverse index keeps {} trees of {v} in a row of the wrong kind",
                    counts.len()
                ));
            }
            for (root, n) in counts {
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
        if let Some(v) = self.pool.iter().find(|v| !v.is_empty()) {
            return Err(format!("reverse index pools a row of {} trees", v.len()));
        }
        let recount = bytes
            + self
                .pool
                .iter()
                .map(|v| roots_bytes(v.capacity()))
                .sum::<usize>();
        if recount != self.roots_bytes {
            return Err(format!(
                "reverse index tracks {} row bytes, holds {recount}",
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
    /// arena vectors and occurrence map at their high-water capacity,
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
        let e = match self.trees.entry(x) {
            Entry::Occupied(e) => return e.into_mut(),
            Entry::Vacant(e) => e,
        };
        let index = &mut self.index;
        let tree = match self.pool.take() {
            Some(mut t) => {
                // Re-rooting keeps the root's slot and drops the rest.
                index.slots -= t.capacity();
                t.reset_root(x, s0);
                t
            }
            None => Tree::new(x, s0),
        };
        index.slots += tree.capacity();
        index.note_added(x, x);
        e.insert(tree)
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
    /// sweep at `watermark` must visit, ascending (the tree table's
    /// order is a function of its history, and a recycled or recovered
    /// table iterates differently from the one it replaces): those whose
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

    /// Total bytes held by the arenas over all trees, pooled
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
        let e = match self.trees.entry(x) {
            Entry::Occupied(e) if e.get().is_trivial() => e,
            _ => return false,
        };
        let t = e.remove();
        let slots = t.capacity();
        if !self.pool.put(t, slots) {
            self.index.slots -= slots;
        }
        self.index.note_removed(x, x);
        true
    }

    /// Arena slots and bytes recounted tree by tree over live
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
        f.index
            .occurrence
            .insert(VertexId(9), Row::Many(Vec::new()));
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

    type Model = std::collections::BTreeMap<VertexId, std::collections::BTreeMap<VertexId, u32>>;

    /// Notes one incidence in both the index and the reference model.
    fn add(
        idx: &mut RevIndex,
        model: &mut Model,
        live: &mut Vec<(VertexId, VertexId)>,
        root: VertexId,
        v: VertexId,
    ) {
        idx.note_added(root, v);
        *model.entry(v).or_default().entry(root).or_insert(0) += 1;
        live.push((root, v));
    }

    /// Removes the `i`-th live incidence from both.
    fn remove(
        idx: &mut RevIndex,
        model: &mut Model,
        live: &mut Vec<(VertexId, VertexId)>,
        i: usize,
    ) {
        let (root, v) = live.swap_remove(i);
        idx.note_removed(root, v);
        let roots = model.get_mut(&v).unwrap();
        let n = roots.get_mut(&root).unwrap();
        *n -= 1;
        if *n == 0 {
            roots.remove(&root);
            if roots.is_empty() {
                model.remove(&v);
            }
        }
    }

    /// The index against the model: the same vertices, each row's roots
    /// handed out ascending with exact counts, the node count, and the
    /// O(1) heap bytes against a recount over live and pooled rows.
    fn check(idx: &RevIndex, model: &Model, at: &str) {
        idx.validate().unwrap_or_else(|e| panic!("{at}: {e}"));
        assert_eq!(idx.occurrence.len(), model.len(), "{at}");
        let mut out = Vec::new();
        for (&v, roots) in model {
            idx.collect_trees_containing(v, &mut out);
            assert!(out.windows(2).all(|w| w[0] < w[1]), "{at}: {v} {out:?}");
            assert_eq!(out, roots.keys().copied().collect::<Vec<_>>(), "{at}: {v}");
            for (&root, &n) in roots {
                assert_eq!(idx.counts(v, root), n, "{at}: {v} in {root}");
            }
        }
        let nodes: u32 = model.values().flat_map(|r| r.values()).sum();
        assert_eq!(idx.n_nodes(), nodes as usize, "{at}");
        let pair = std::mem::size_of::<(VertexId, u32)>();
        let rows: usize = idx
            .occurrence
            .values()
            .map(|row| match row {
                Row::One(_) => 0,
                Row::Many(v) => v.capacity() * pair,
                Row::Hub(m) => table_bytes::<VertexId, u32>(m.capacity()),
            })
            .chain(idx.pool.iter().map(|v| v.capacity() * pair))
            .sum();
        let recount =
            table_bytes::<VertexId, Row>(idx.occurrence.capacity()) + rows + idx.pool.heap_bytes();
        assert_eq!(idx.heap_bytes(), recount, "{at}");
    }

    #[test]
    fn reverse_index_rows_match_a_btreemap_model() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        // A hub in more trees than a row the pool keeps may hold, so in a
        // hub table.
        let hub = VertexId(1_000);
        let hub_trees = (POOL_MAX_ENTRY_BYTES / roots_bytes(1)) as u32 + 8;
        for seed in 0..6u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let (mut idx, mut model, mut live) = (RevIndex::default(), Model::new(), Vec::new());
            // Churn: vertices 0..40 in up to twelve trees each, with
            // repeated incidences, and vertices 100..140 only ever in
            // their own tree, as a root is.
            for step in 0..3_000 {
                if live.is_empty() || rng.gen_bool(0.55) {
                    let (root, v) = if rng.gen_bool(0.3) {
                        let v = VertexId(rng.gen_range(100..140));
                        (v, v)
                    } else {
                        (
                            VertexId(rng.gen_range(0..12)),
                            VertexId(rng.gen_range(0..40)),
                        )
                    };
                    add(&mut idx, &mut model, &mut live, root, v);
                } else {
                    let i = rng.gen_range(0..live.len());
                    remove(&mut idx, &mut model, &mut live, i);
                }
                if step % 97 == 0 {
                    check(&idx, &model, &format!("seed {seed}, churn step {step}"));
                }
            }
            check(&idx, &model, &format!("seed {seed}, after churn"));
            // The hub joins its trees in random order, twice in some, then
            // leaves all but one: its hub table turns back into a heap
            // row, and that row into an inline one.
            let mut roots: Vec<u32> = (0..hub_trees).collect();
            for i in (1..roots.len()).rev() {
                roots.swap(i, rng.gen_range(0..=i));
            }
            for &r in &roots {
                for _ in 0..rng.gen_range(1..3) {
                    add(&mut idx, &mut model, &mut live, VertexId(r), hub);
                }
            }
            assert!(matches!(idx.occurrence[&hub], Row::Hub(_)));
            check(
                &idx,
                &model,
                &format!("seed {seed}, hub in {hub_trees} trees"),
            );
            let keep = VertexId(roots[0]);
            while let Some(i) = live.iter().position(|&(r, v)| v == hub && r != keep) {
                remove(&mut idx, &mut model, &mut live, i);
            }
            assert!(matches!(idx.occurrence[&hub], Row::One((r, _)) if r == keep));
            assert!(idx
                .pool
                .iter()
                .all(|v| roots_bytes(v.capacity()) <= POOL_MAX_ENTRY_BYTES));
            check(&idx, &model, &format!("seed {seed}, hub back in one tree"));
            // Drain in random order: rows shrink back to one root, then go.
            while !live.is_empty() {
                let i = rng.gen_range(0..live.len());
                remove(&mut idx, &mut model, &mut live, i);
            }
            check(&idx, &model, &format!("seed {seed}, drained"));
            assert_eq!(idx.n_nodes(), 0);
        }
        // An unsorted or a duplicated row is rejected.
        for pairs in [
            vec![(VertexId(2), 1), (VertexId(1), 1)],
            vec![(VertexId(1), 1), (VertexId(1), 1)],
        ] {
            let mut idx = RevIndex::default();
            idx.occurrence.insert(VertexId(7), Row::Many(pairs));
            idx.total_nodes = 2;
            let err = idx.validate().unwrap_err();
            assert!(err.contains("row of v7 lists tree v"), "{err}");
        }
    }
}
