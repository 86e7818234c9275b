//! The arena-backed spanning tree shared by both path semantics.
//!
//! Nodes live in an arena indexed by [`NodeId`], split in two parallel
//! vectors: a contiguous `ts` column, so expiry candidate collection is
//! a branch-free threshold scan over one cache-friendly array, and one
//! 28-byte [`Slot`] record per node holding everything else — the
//! `(vertex, state)` pair, parent link, via-label, and the intrusive
//! `first_child`/`next_sib`/`prev_sib` links that keep the tree's shape.
//! Attaching, re-parenting or unlinking a node edits one record (plus
//! its neighbours' records), never a per-node heap `Vec<NodeId>`
//! children list, so node attachment and detachment never allocate.
//!
//! Slots are recycled through a free list; a dead slot is marked by
//! the sentinel [`DEAD`] in its parent link and carries
//! `Timestamp::INFINITY` in the `ts` column so the expiry scan skips
//! it without a liveness branch (the root is immortal for the same
//! reason: its timestamp is `INFINITY` per Definition 9, under which a
//! node's timestamp is the minimum edge timestamp along its root
//! path). Beside the column, each tree keeps [`Tree::min_ts`], a lower
//! bound on every live non-root timestamp: writes lower it, the fused
//! expiry sweeps recompute it exactly, so an expiry pass can skip a
//! tree whose bound lies above the watermark without scanning it.
//! Long-running windows are defragmented by [`Tree::maybe_compact`],
//! which packs live slots to the front (preserving relative slot
//! order), remaps every link and the occurrence index, and hands the
//! remap table to the semantics extension.

use super::snapshot::{NodeSnap, SnapshotExt, TreeSnap};
use super::{NodeId, PairKey, TreeSemantics};
use srpq_common::{FxHashMap, Label, StateId, Timestamp, VertexId};

/// "No link" sentinel: absent sibling/child links and the root's
/// parent.
const NIL: NodeId = u32::MAX;

/// Parent-link sentinel marking a dead (free-listed) slot.
const DEAD: NodeId = u32::MAX - 1;

/// One arena slot's record: every per-node field but the timestamp,
/// which lives in the tree's separate `ts` column.
#[derive(Debug, Clone, Copy)]
struct Slot {
    vertex: VertexId,
    state: StateId,
    /// Parent link; `NIL` for the root, `DEAD` marks a free slot.
    parent: NodeId,
    via_label: Label,
    // Intrusive tree links (children = singly-walked doubly-linked
    // sibling chain; `prev_sib` buys O(1) unlink).
    first_child: NodeId,
    next_sib: NodeId,
    prev_sib: NodeId,
}

impl Slot {
    /// A free-listed slot.
    const DEAD: Slot = Slot {
        vertex: VertexId(0),
        state: StateId(0),
        parent: DEAD,
        via_label: Label(0),
        first_child: NIL,
        next_sib: NIL,
        prev_sib: NIL,
    };

    /// A childless node with the given pair, parent and via-label.
    fn leaf(vertex: VertexId, state: StateId, parent: NodeId, via_label: Label) -> Slot {
        Slot {
            vertex,
            state,
            parent,
            via_label,
            first_child: NIL,
            next_sib: NIL,
            prev_sib: NIL,
        }
    }

    /// The root record of a tree rooted at `(root, s0)`.
    fn root(root: VertexId, s0: StateId) -> Slot {
        Slot::leaf(root, s0, NIL, Label(u32::MAX))
    }

    #[inline]
    fn key(&self) -> PairKey {
        (self.vertex, self.state)
    }
}

/// Bytes one arena slot holds — its [`Slot`] record and its timestamp —
/// so an arena of `n` slots holds `n * SLOT_BYTES` (excludes the
/// occurrence index and the free list).
pub(super) const SLOT_BYTES: usize = std::mem::size_of::<Slot>() + std::mem::size_of::<Timestamp>();

const _: () = assert!(std::mem::size_of::<Slot>() == 28 && SLOT_BYTES == 36);

/// A by-value view of one spanning-tree node: its product-graph pair,
/// parent link, and the minimum edge timestamp along its root path
/// (Definition 9). Materialized on demand from the slot record and
/// the timestamp column;
/// child links are walked through [`Tree::children`] instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Node {
    /// Graph vertex.
    pub vertex: VertexId,
    /// Automaton state.
    pub state: StateId,
    /// Parent node, `None` for the root.
    pub parent: Option<NodeId>,
    /// Label of the graph edge connecting the parent to this node
    /// (meaningless for the root). Needed by `Delete` to match
    /// tree-edges (Definition 13).
    pub via_label: Label,
    /// Minimum edge timestamp along the root path;
    /// `Timestamp::INFINITY` for the root.
    pub ts: Timestamp,
}

impl Node {
    /// The node's `(vertex, state)` pair.
    #[inline]
    pub fn key(&self) -> PairKey {
        (self.vertex, self.state)
    }
}

/// Occurrence list with the single-occurrence case stored inline:
/// RAPQ ([`super::Unique`]) trees never heap-allocate here, and RSPQ
/// trees only do on a genuine duplicate pair — node attachment is
/// otherwise allocation-free.
#[derive(Debug)]
enum OccSet {
    /// Exactly one occurrence (the overwhelmingly common case).
    One(NodeId),
    /// Two or more occurrences, attachment order. Invariant: never
    /// empty and never a singleton (downgraded on removal).
    Many(Vec<NodeId>),
}

impl OccSet {
    #[inline]
    fn as_slice(&self) -> &[NodeId] {
        match self {
            OccSet::One(id) => std::slice::from_ref(id),
            OccSet::Many(v) => v.as_slice(),
        }
    }

    #[inline]
    fn first(&self) -> NodeId {
        match self {
            OccSet::One(id) => *id,
            OccSet::Many(v) => v[0],
        }
    }

    fn push(&mut self, id: NodeId) {
        match self {
            OccSet::One(a) => *self = OccSet::Many(vec![*a, id]),
            OccSet::Many(v) => v.push(id),
        }
    }

    /// Removes `id`; returns `true` when the set became empty (the
    /// caller then drops the map entry).
    fn remove(&mut self, id: NodeId) -> bool {
        let downgrade = match self {
            OccSet::One(a) => return *a == id,
            OccSet::Many(v) => {
                v.retain(|&o| o != id);
                match v.len() {
                    0 => return true,
                    1 => v[0],
                    _ => return false,
                }
            }
        };
        *self = OccSet::One(downgrade);
        false
    }

    /// Remaps every occurrence through a compaction table.
    fn remap(&mut self, remap: &[NodeId]) {
        match self {
            OccSet::One(id) => *id = remap[*id as usize],
            OccSet::Many(v) => {
                for id in v.iter_mut() {
                    *id = remap[*id as usize];
                }
            }
        }
    }
}

/// A spanning tree `T_x` rooted at `(x, s0)`, with semantics extension
/// `X` observing every mutation.
///
/// Nodes are identified by arena index ([`NodeId`]); the
/// `occurrences` side index lists all live slots holding a given pair,
/// in attachment order (so the first entry is the oldest — the
/// *canonical* — occurrence, and for [`super::Unique`] trees the only
/// one).
#[derive(Debug)]
pub struct Tree<X: TreeSemantics> {
    root: VertexId,
    root_key: PairKey,
    root_id: NodeId,
    // Node storage, both vectors indexed by NodeId and always of equal
    // length: one record per slot, and the timestamps apart.
    slots: Vec<Slot>,
    /// Contiguous timestamp column — the expiry scan reads only this.
    /// Dead slots hold `Timestamp::INFINITY` so the scan needs no
    /// liveness branch.
    ts: Vec<Timestamp>,
    /// Lower bound on `ts` over every live non-root node (`INFINITY`
    /// when there is none). Lowered by every timestamp write
    /// (`add_child`, `reparent`, `set_subtree_ts`), recomputed
    /// exactly by the fused sweeps, set by `new` / `reset_root` /
    /// `from_snapshot`; removals and compaction leave it a valid bound.
    min_ts: Timestamp,
    free: Vec<NodeId>,
    occurrences: FxHashMap<PairKey, OccSet>,
    len: usize,
    ext: X,
}

impl<X: TreeSemantics> Tree<X> {
    /// Creates a tree containing only its root `(x, s0)`.
    pub fn new(root: VertexId, s0: StateId) -> Tree<X> {
        let root_key = (root, s0);
        let mut occurrences: FxHashMap<PairKey, OccSet> = FxHashMap::default();
        occurrences.insert(root_key, OccSet::One(0));
        let mut ext = X::default();
        ext.on_add(root_key, 0, true);
        Tree {
            root,
            root_key,
            root_id: 0,
            slots: vec![Slot::root(root, s0)],
            ts: vec![Timestamp::INFINITY],
            min_ts: Timestamp::INFINITY,
            free: Vec::new(),
            occurrences,
            len: 1,
            ext,
        }
    }

    /// Resets a recycled tree to a fresh single-root state rooted at
    /// `(root, s0)`. The slot records, the timestamp column, the free
    /// list and the occurrence map are cleared *in place* — capacity is
    /// retained — so forest-level tree pooling re-roots without heap
    /// allocation.
    pub fn reset_root(&mut self, root: VertexId, s0: StateId) {
        self.root = root;
        self.root_key = (root, s0);
        self.root_id = 0;
        self.slots.clear();
        self.ts.clear();
        self.min_ts = Timestamp::INFINITY;
        self.free.clear();
        self.occurrences.clear();
        self.len = 1;
        self.slots.push(Slot::root(root, s0));
        self.ts.push(Timestamp::INFINITY);
        self.occurrences.insert(self.root_key, OccSet::One(0));
        self.ext.reset();
        self.ext.on_add(self.root_key, 0, true);
    }

    /// The root vertex `x`.
    #[inline]
    pub fn root(&self) -> VertexId {
        self.root
    }

    /// The root key `(x, s0)`.
    #[inline]
    pub fn root_key(&self) -> PairKey {
        self.root_key
    }

    /// The root node id.
    #[inline]
    pub fn root_id(&self) -> NodeId {
        self.root_id
    }

    /// Number of live nodes including the root.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// A tree always holds at least its root.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Whether only the root remains.
    pub fn is_trivial(&self) -> bool {
        self.len == 1
    }

    /// A lower bound on the timestamp of every live non-root node
    /// (`Timestamp::INFINITY` for a fresh tree). Exact right after an
    /// expiry sweep; an expiry pass at a watermark below it would
    /// remove nothing.
    #[inline]
    pub fn min_ts(&self) -> Timestamp {
        self.min_ts
    }

    /// Number of arena slots (live + free-listed).
    #[inline]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Bytes held by the slot records and the timestamp column for the
    /// current capacity (excludes the occurrence index and the free
    /// list).
    pub fn arena_bytes(&self) -> usize {
        self.capacity() * SLOT_BYTES
    }

    /// The semantics extension.
    #[inline]
    pub fn ext(&self) -> &X {
        &self.ext
    }

    /// Mutable access to the semantics extension.
    #[inline]
    pub fn ext_mut(&mut self) -> &mut X {
        &mut self.ext
    }

    #[inline]
    fn live(&self, i: usize) -> bool {
        i < self.slots.len() && self.slots[i].parent != DEAD
    }

    #[inline]
    fn view(&self, i: usize) -> Node {
        let slot = &self.slots[i];
        Node {
            vertex: slot.vertex,
            state: slot.state,
            parent: match slot.parent {
                NIL => None,
                p => Some(p),
            },
            via_label: slot.via_label,
            ts: self.ts[i],
        }
    }

    /// The node at `id`, if alive.
    #[inline]
    pub fn node(&self, id: NodeId) -> Option<Node> {
        let i = id as usize;
        if self.live(i) {
            Some(self.view(i))
        } else {
            None
        }
    }

    /// The timestamp of the live node `id` — one array read, no view
    /// materialization.
    #[inline]
    pub fn ts_of(&self, id: NodeId) -> Option<Timestamp> {
        let i = id as usize;
        if self.live(i) {
            Some(self.ts[i])
        } else {
            None
        }
    }

    /// Lean upward-walk step: `(vertex, state, parent)` of the live
    /// node `id` from its slot record alone. The engines' per-item path
    /// walks are the hottest loops over the arena; this keeps them off
    /// the full [`Node`] view (which also reads the `ts` column).
    #[inline]
    pub fn step_up(&self, id: NodeId) -> Option<(VertexId, StateId, Option<NodeId>)> {
        let i = id as usize;
        if !self.live(i) {
            return None;
        }
        let slot = &self.slots[i];
        let parent = match slot.parent {
            NIL => None,
            p => Some(p),
        };
        Some((slot.vertex, slot.state, parent))
    }

    /// Iterates the child ids of `id` by walking its intrusive sibling
    /// chain (newest attachment first). Empty for a dead id.
    pub fn children(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        let mut cur = if self.live(id as usize) {
            self.slots[id as usize].first_child
        } else {
            NIL
        };
        std::iter::from_fn(move || {
            if cur == NIL {
                return None;
            }
            let c = cur;
            cur = self.slots[c as usize].next_sib;
            Some(c)
        })
    }

    /// All live occurrences of `key`, oldest first.
    #[inline]
    pub fn occurrences(&self, key: PairKey) -> &[NodeId] {
        self.occurrences
            .get(&key)
            .map(OccSet::as_slice)
            .unwrap_or(&[])
    }

    /// Whether any occurrence of `key` is present ("(v, t) ∈ T_x").
    #[inline]
    pub fn has_pair(&self, key: PairKey) -> bool {
        self.occurrences.contains_key(&key)
    }

    /// The oldest (canonical) occurrence of `key`.
    #[inline]
    pub fn first_occurrence(&self, key: PairKey) -> Option<NodeId> {
        self.occurrences.get(&key).map(OccSet::first)
    }

    /// The `(vertex, state)` pair held at `id`, if alive.
    #[inline]
    pub fn key_of(&self, id: NodeId) -> Option<PairKey> {
        let i = id as usize;
        if self.live(i) {
            Some(self.slots[i].key())
        } else {
            None
        }
    }

    /// The parent's pair of the node at `id` (`None` for the root or a
    /// dead id).
    pub fn parent_key_of(&self, id: NodeId) -> Option<PairKey> {
        let i = id as usize;
        if !self.live(i) || self.slots[i].parent == NIL {
            return None;
        }
        self.key_of(self.slots[i].parent)
    }

    /// Prepends `id` to `parent`'s sibling chain.
    fn link_under(&mut self, parent: NodeId, id: NodeId) {
        let fc = std::mem::replace(&mut self.slots[parent as usize].first_child, id);
        let slot = &mut self.slots[id as usize];
        slot.next_sib = fc;
        slot.prev_sib = NIL;
        if fc != NIL {
            self.slots[fc as usize].prev_sib = id;
        }
    }

    /// Detaches the live node `id` from its (live) parent's sibling
    /// chain in O(1).
    fn unlink(&mut self, id: NodeId) {
        let Slot {
            parent,
            prev_sib: prev,
            next_sib: next,
            ..
        } = self.slots[id as usize];
        if prev == NIL {
            self.slots[parent as usize].first_child = next;
        } else {
            self.slots[prev as usize].next_sib = next;
        }
        if next != NIL {
            self.slots[next as usize].prev_sib = prev;
        }
    }

    /// Adds a child node under `parent`. Returns the new id. Never
    /// heap-allocates once the arena has warmed up (free-listed
    /// slots are reused, the sibling chain is intrusive). Panics if
    /// `parent` is dead. A tree inside a [`super::Forest`] grows through
    /// [`super::RevIndex::add_child`], which also notes the node and any
    /// new slot.
    pub fn add_child(
        &mut self,
        parent: NodeId,
        vertex: VertexId,
        state: StateId,
        via_label: Label,
        ts: Timestamp,
    ) -> NodeId {
        assert!(self.live(parent as usize), "parent must be alive");
        let slot = Slot::leaf(vertex, state, parent, via_label);
        let id = match self.free.pop() {
            Some(id) => {
                self.slots[id as usize] = slot;
                self.ts[id as usize] = ts;
                id
            }
            None => {
                let id = self.slots.len() as NodeId;
                debug_assert!(id < DEAD, "arena overflow");
                self.slots.push(slot);
                self.ts.push(ts);
                id
            }
        };
        self.link_under(parent, id);
        self.min_ts = self.min_ts.min(ts);
        let first = match self.occurrences.entry((vertex, state)) {
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(OccSet::One(id));
                true
            }
            std::collections::hash_map::Entry::Occupied(mut e) => {
                e.get_mut().push(id);
                false
            }
        };
        self.len += 1;
        self.ext.on_add((vertex, state), id, first);
        id
    }

    /// Re-parents the live node `id` under `new_parent` (timestamp
    /// refresh, Algorithm RAPQ line 7 / Insert lines 2–3). The subtree
    /// stays attached. Panics if either node is dead.
    pub fn reparent(&mut self, id: NodeId, new_parent: NodeId, via_label: Label, ts: Timestamp) {
        let i = id as usize;
        assert!(self.live(i), "node must be alive");
        assert!(self.live(new_parent as usize), "new parent must be alive");
        self.slots[i].via_label = via_label;
        self.ts[i] = ts;
        self.min_ts = self.min_ts.min(ts);
        let old = self.slots[i].parent;
        if old == new_parent || old == NIL {
            return;
        }
        self.unlink(id);
        self.slots[i].parent = new_parent;
        self.link_under(new_parent, id);
    }

    /// Removes the node at `id`, if alive. Cleans the occurrence index,
    /// detaches it from a surviving parent's sibling chain (a parent
    /// dying in the same batch needs no unlink), and reports the
    /// removal to the semantics extension. Returns whether a node was
    /// removed.
    pub fn remove(&mut self, id: NodeId) -> bool {
        let i = id as usize;
        if !self.live(i) {
            return false;
        }
        let p = self.slots[i].parent;
        if p != NIL && self.slots[p as usize].parent != DEAD {
            self.unlink(id);
        }
        self.kill(id);
        true
    }

    /// Removes a set of node ids wholesale. The caller guarantees the
    /// set is downward-closed (whole subtrees) — which holds for expiry
    /// candidates thanks to the timestamp monotonicity invariant.
    pub fn remove_all(&mut self, ids: &[NodeId]) {
        for &id in ids {
            self.remove(id);
        }
    }

    /// Node ids of the subtree rooted at `id` (inclusive), preorder.
    pub fn subtree_ids(&self, id: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        self.collect_subtree(id, &mut out);
        out
    }

    /// Clears `out` and fills it with the subtree under `id`
    /// (inclusive, preorder) by walking the intrusive links — no
    /// auxiliary queue.
    pub fn collect_subtree(&self, id: NodeId, out: &mut Vec<NodeId>) {
        out.clear();
        if !self.live(id as usize) {
            return;
        }
        let mut cur = id;
        loop {
            out.push(cur);
            let fc = self.slots[cur as usize].first_child;
            if fc != NIL {
                cur = fc;
                continue;
            }
            loop {
                if cur == id {
                    return;
                }
                let slot = &self.slots[cur as usize];
                if slot.next_sib != NIL {
                    cur = slot.next_sib;
                    break;
                }
                cur = slot.parent;
            }
        }
    }

    /// Sets the timestamp of the whole subtree under `id` (inclusive).
    /// Used by `Delete` to mark victims with `-∞` (§3.2).
    /// Allocation-free: traverses via the intrusive links.
    pub fn set_subtree_ts(&mut self, id: NodeId, ts: Timestamp) {
        if !self.live(id as usize) {
            return;
        }
        self.min_ts = self.min_ts.min(ts);
        let mut cur = id;
        loop {
            self.ts[cur as usize] = ts;
            let fc = self.slots[cur as usize].first_child;
            if fc != NIL {
                cur = fc;
                continue;
            }
            loop {
                if cur == id {
                    return;
                }
                let slot = &self.slots[cur as usize];
                if slot.next_sib != NIL {
                    cur = slot.next_sib;
                    break;
                }
                cur = slot.parent;
            }
        }
    }

    /// Clears `out` and fills it with the live node ids whose
    /// `ts <= watermark` (the expiry candidate set P, downward-closed
    /// by timestamp monotonicity), ascending slot order. One branch-free
    /// threshold scan over the contiguous `ts` column; dead slots and
    /// the root hold `Timestamp::INFINITY` and never match a (finite)
    /// watermark.
    pub fn collect_expired(&self, watermark: Timestamp, out: &mut Vec<NodeId>) {
        out.clear();
        for (i, &ts) in self.ts.iter().enumerate() {
            if ts <= watermark {
                out.push(i as NodeId);
            }
        }
    }

    /// Like [`Tree::collect_expired`] but yields `(vertex, state)`
    /// pairs — the keyed variant for [`super::Unique`] trees, where a
    /// pair identifies its node.
    pub fn collect_expired_keys(&self, watermark: Timestamp, out: &mut Vec<PairKey>) {
        out.clear();
        for (i, &ts) in self.ts.iter().enumerate() {
            if ts <= watermark {
                out.push(self.slots[i].key());
            }
        }
    }

    /// Fused expiry sweep (`ExpiryRAPQ` lines 2–3 in one pass): removes
    /// every node with `ts <= watermark`, recording its pair key in
    /// `out` in ascending slot order. Equivalent to
    /// [`Tree::collect_expired_keys`] followed by per-key removal, but
    /// one threshold scan over the contiguous `ts` column — no
    /// occurrence-map probe to resolve each key back to its id, and no
    /// sibling unlinking inside subtrees that die wholesale. The same
    /// pass leaves [`Tree::min_ts`] exact: the minimum over survivors.
    pub fn remove_expired_keys(&mut self, watermark: Timestamp, out: &mut Vec<PairKey>) {
        out.clear();
        let mut min_ts = Timestamp::INFINITY;
        for i in 0..self.ts.len() {
            let ts = self.ts[i];
            if ts <= watermark {
                out.push(self.slots[i].key());
                self.remove_swept(i as NodeId, watermark);
            } else {
                min_ts = min_ts.min(ts);
            }
        }
        self.min_ts = min_ts;
    }

    /// Like [`Tree::remove_expired_keys`] but records, per removed
    /// node, its parent id when that parent **survives** the sweep
    /// (`None` when the parent is swept away too) — exactly the
    /// information Algorithm RSPQ's re-marking pass needs, captured
    /// here so the engine needs no pre-removal snapshot pass. Leaves
    /// [`Tree::min_ts`] exact, as that sweep does.
    pub fn remove_expired_with_parents(
        &mut self,
        watermark: Timestamp,
        out: &mut Vec<(PairKey, Option<NodeId>)>,
    ) {
        out.clear();
        let mut min_ts = Timestamp::INFINITY;
        for i in 0..self.ts.len() {
            let ts = self.ts[i];
            if ts > watermark {
                min_ts = min_ts.min(ts);
                continue;
            }
            let p = self.slots[i].parent;
            let parent = (p != NIL && self.survives(p, watermark)).then_some(p);
            out.push((self.slots[i].key(), parent));
            self.remove_swept(i as NodeId, watermark);
        }
        self.min_ts = min_ts;
    }

    /// Whether the node in slot `id` outlives a sweep at `watermark`:
    /// live (a slot already swept this pass is `DEAD` with its `ts`
    /// reset to `INFINITY`, hence the explicit check) and not itself
    /// below the threshold.
    #[inline]
    fn survives(&self, id: NodeId, watermark: Timestamp) -> bool {
        let i = id as usize;
        self.slots[i].parent != DEAD && self.ts[i] > watermark
    }

    /// Removes one slot during a fused expiry sweep: as [`Tree::remove`]
    /// but the parent's child chain is only repaired when the parent
    /// survives the sweep — dying parents take their chains with them.
    fn remove_swept(&mut self, id: NodeId, watermark: Timestamp) {
        let i = id as usize;
        let p = self.slots[i].parent;
        if p != NIL && self.survives(p, watermark) {
            self.unlink(id);
        }
        self.kill(id);
    }

    /// Frees the live, already unlinked slot `id`: marks it dead, puts
    /// it on the free list, cleans the occurrence index and reports the
    /// removal to the semantics extension.
    fn kill(&mut self, id: NodeId) {
        let i = id as usize;
        let key = self.slots[i].key();
        self.slots[i] = Slot::DEAD;
        self.ts[i] = Timestamp::INFINITY;
        self.len -= 1;
        self.free.push(id);
        if let Some(occ) = self.occurrences.get_mut(&key) {
            if occ.remove(id) {
                self.occurrences.remove(&key);
            }
        }
        self.ext.on_remove(key, id);
    }

    /// The state of the **first** (closest to root) occurrence of
    /// `vertex` on the root path of `id` — `FIRST(p[v])` in Algorithm
    /// Extend. Walks upward, so the first-from-root is the last found.
    pub fn first_state_on_path(&self, id: NodeId, vertex: VertexId) -> Option<StateId> {
        let mut found = None;
        let mut cur = id;
        loop {
            let i = cur as usize;
            if !self.live(i) {
                return None;
            }
            let slot = &self.slots[i];
            if slot.vertex == vertex {
                found = Some(slot.state);
            }
            if slot.parent == NIL {
                return found;
            }
            cur = slot.parent;
        }
    }

    /// Whether `(vertex, state)` occurs on the root path of `id` —
    /// `t ∈ p[v]` in Algorithm RSPQ/Extend.
    pub fn path_has(&self, id: NodeId, vertex: VertexId, state: StateId) -> bool {
        let mut cur = id;
        loop {
            let i = cur as usize;
            if !self.live(i) {
                return false;
            }
            let slot = &self.slots[i];
            if slot.key() == (vertex, state) {
                return true;
            }
            if slot.parent == NIL {
                return false;
            }
            cur = slot.parent;
        }
    }

    /// The root path of `id` as pair keys, root first.
    pub fn path_keys(&self, id: NodeId) -> Vec<PairKey> {
        let mut out = Vec::new();
        let mut cur = id;
        while let Some(key) = self.key_of(cur) {
            out.push(key);
            match self.slots[cur as usize].parent {
                NIL => break,
                p => cur = p,
            }
        }
        out.reverse();
        out
    }

    /// The root path of `id` as node ids, root first.
    pub fn path_ids(&self, id: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        let mut cur = id;
        while self.live(cur as usize) {
            out.push(cur);
            match self.slots[cur as usize].parent {
                NIL => break,
                p => cur = p,
            }
        }
        out.reverse();
        out
    }

    /// The parent id of the live node `id` (`None` for the root or a
    /// dead id).
    #[inline]
    pub fn parent_id_of(&self, id: NodeId) -> Option<NodeId> {
        let i = id as usize;
        if !self.live(i) || self.slots[i].parent == NIL {
            return None;
        }
        Some(self.slots[i].parent)
    }

    /// Iterates `(id, node)` over live nodes in ascending slot order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, Node)> + '_ {
        (0..self.slots.len()).filter_map(move |i| {
            if self.slots[i].parent == DEAD {
                None
            } else {
                Some((i as NodeId, self.view(i)))
            }
        })
    }

    /// Compacts the arena when fragmentation warrants it: capacity of
    /// at least 64 slots with live occupancy at or below half. Live
    /// slots are packed to the front preserving relative order, every
    /// link and occurrence is remapped, and the semantics extension is
    /// handed the remap table (old id → new id, the dead-slot sentinel
    /// for freed
    /// slots). `remap_scratch` is caller-owned so per-slide compaction
    /// allocates nothing once warmed. Returns whether a compaction
    /// ran. Deterministic: the outcome depends only on slot liveness,
    /// so recovered engines re-compact identically. A tree inside a
    /// [`super::Forest`] compacts through [`super::RevIndex::maybe_compact`],
    /// which notes the released slots.
    pub fn maybe_compact(&mut self, remap_scratch: &mut Vec<NodeId>) -> bool {
        let cap = self.slots.len();
        if cap < 64 || self.len * 2 > cap {
            return false;
        }
        self.compact(remap_scratch);
        true
    }

    fn compact(&mut self, remap: &mut Vec<NodeId>) {
        let cap = self.slots.len();
        remap.clear();
        remap.resize(cap, DEAD);
        let mut rank: NodeId = 0;
        for (r, slot) in remap.iter_mut().zip(&self.slots) {
            if slot.parent != DEAD {
                *r = rank;
                rank += 1;
            }
        }
        #[inline]
        fn map_link(x: NodeId, remap: &[NodeId]) -> NodeId {
            if x == NIL {
                NIL
            } else {
                remap[x as usize]
            }
        }
        // In-place forward moves: rank(i) <= i, and any live slot being
        // overwritten was itself already moved further forward.
        for i in 0..cap {
            let r = remap[i];
            if r == DEAD {
                continue;
            }
            let ri = r as usize;
            let slot = self.slots[i];
            self.slots[ri] = Slot {
                parent: map_link(slot.parent, remap),
                first_child: map_link(slot.first_child, remap),
                next_sib: map_link(slot.next_sib, remap),
                prev_sib: map_link(slot.prev_sib, remap),
                ..slot
            };
            self.ts[ri] = self.ts[i];
        }
        let live = rank as usize;
        debug_assert_eq!(live, self.len);
        // Vec::truncate keeps heap capacity, so regrowth after
        // compaction does not reallocate.
        self.slots.truncate(live);
        self.ts.truncate(live);
        self.free.clear();
        for occ in self.occurrences.values_mut() {
            occ.remap(remap);
        }
        self.root_id = remap[self.root_id as usize];
        self.ext.on_compact(remap);
    }

    /// Debug validation: arena/occurrence-index/link consistency,
    /// timestamp monotonicity, acyclicity, free-list hygiene, and the
    /// semantics extension's own checks.
    pub fn validate(&self) -> Result<(), String> {
        let cap = self.slots.len();
        if self.ts.len() != cap {
            return Err("column length drift".into());
        }
        let slot = |id: NodeId| &self.slots[id as usize];
        if !self.live(self.root_id as usize) {
            return Err("root missing".into());
        }
        let mut live = 0usize;
        for i in 0..cap {
            if self.slots[i].parent == DEAD {
                if self.ts[i] != Timestamp::INFINITY {
                    return Err(format!("dead slot {i} has a finite timestamp"));
                }
                continue;
            }
            live += 1;
            let id = i as NodeId;
            let Slot {
                parent: p,
                first_child,
                next_sib: next,
                prev_sib: prev,
                ..
            } = self.slots[i];
            if p == NIL {
                if id != self.root_id {
                    return Err(format!("non-root {id} parentless"));
                }
            } else {
                if !self.live(p as usize) {
                    return Err(format!("{id} has dead parent {p}"));
                }
                if self.ts[p as usize] < self.ts[i] {
                    return Err(format!(
                        "timestamp inversion: parent {p}@{} < child {id}@{}",
                        self.ts[p as usize], self.ts[i]
                    ));
                }
                if self.ts[i] < self.min_ts {
                    return Err(format!(
                        "timestamp bound {} above node {id}@{}",
                        self.min_ts, self.ts[i]
                    ));
                }
                if prev == NIL {
                    if slot(p).first_child != id {
                        return Err(format!("{p} does not list child {id}"));
                    }
                } else if !self.live(prev as usize)
                    || slot(prev).next_sib != id
                    || slot(prev).parent != p
                {
                    return Err(format!("broken sibling link into {id}"));
                }
                if next != NIL
                    && (!self.live(next as usize)
                        || slot(next).prev_sib != id
                        || slot(next).parent != p)
                {
                    return Err(format!("broken sibling link out of {id}"));
                }
            }
            let occ = self.occurrences(self.slots[i].key());
            if !occ.contains(&id) {
                return Err(format!("occurrence index misses {id}"));
            }
            let mut c = first_child;
            let mut steps = 0usize;
            while c != NIL {
                if !self.live(c as usize) || slot(c).parent != id {
                    return Err(format!("stale child {c} of {id}"));
                }
                steps += 1;
                if steps > self.len {
                    return Err(format!("sibling cycle under {id}"));
                }
                c = slot(c).next_sib;
            }
        }
        if live != self.len {
            return Err(format!("len drift: {live} vs {}", self.len));
        }
        if self.free.len() != cap - self.len {
            return Err(format!(
                "free-list drift: {} free vs {} dead slots",
                self.free.len(),
                cap - self.len
            ));
        }
        let mut seen_free = std::collections::HashSet::new();
        for &f in &self.free {
            if (f as usize) >= cap || slot(f).parent != DEAD {
                return Err(format!("free slot {f} is live or out of bounds"));
            }
            if !seen_free.insert(f) {
                return Err(format!("free slot {f} listed twice"));
            }
        }
        for (key, occ) in &self.occurrences {
            if occ.as_slice().is_empty() {
                return Err(format!("empty occurrence list for {key:?}"));
            }
            for &id in occ.as_slice() {
                match self.node(id) {
                    Some(n) if n.key() == *key => {}
                    _ => return Err(format!("occurrence {id} of {key:?} dead or mismatched")),
                }
            }
        }
        // Cycle check: every node must reach the root.
        for i in 0..cap {
            if self.slots[i].parent == DEAD {
                continue;
            }
            let mut cur = i;
            let mut steps = 0usize;
            loop {
                match self.slots[cur].parent {
                    NIL => break,
                    p => {
                        cur = p as usize;
                        steps += 1;
                        if steps > self.len {
                            return Err(format!("cycle through {i}"));
                        }
                    }
                }
            }
        }
        self.ext.validate(self)
    }
}

impl<X: SnapshotExt> Tree<X> {
    /// Captures a faithful structural snapshot of this tree (`Full`
    /// checkpoints) in the canonical children-list form: arena slot
    /// assignment, free list, occurrence order, sibling-chain order
    /// (recorded as an explicit child list per node), and extension
    /// state all survive the round trip.
    pub fn to_snapshot(&self) -> TreeSnap {
        let nodes = self
            .iter()
            .map(|(id, n)| NodeSnap {
                id,
                vertex: n.vertex,
                state: n.state,
                parent: n.parent,
                via_label: n.via_label,
                ts: n.ts,
                children: self.children(id).collect(),
            })
            .collect();
        let mut occurrences: Vec<(PairKey, Vec<NodeId>)> = self
            .occurrences
            .iter()
            .map(|(&k, occ)| (k, occ.as_slice().to_vec()))
            .collect();
        occurrences.sort_unstable_by_key(|&(k, _)| k);
        let (marks, dead_marks) = self.ext.export();
        TreeSnap {
            root: self.root,
            root_state: self.root_key.1,
            root_id: self.root_id,
            arena_len: self.capacity() as u32,
            free: self.free.clone(),
            nodes,
            occurrences,
            marks,
            dead_marks,
        }
    }

    /// Rebuilds a tree from a snapshot, validating structural
    /// consistency (a corrupt snapshot is reported, never trusted).
    /// The recorded child lists are rewired into the intrusive sibling
    /// chains in order, so a snapshot of the restored tree is
    /// byte-identical to the original's.
    pub fn from_snapshot(snap: TreeSnap) -> Result<Tree<X>, String> {
        if snap.arena_len >= DEAD {
            return Err(format!("arena length {} out of range", snap.arena_len));
        }
        let cap = snap.arena_len as usize;
        let mut slots = vec![Slot::DEAD; cap];
        let mut ts = vec![Timestamp::INFINITY; cap];
        for n in &snap.nodes {
            let i = n.id as usize;
            if i >= cap {
                return Err(format!("node id {} out of arena bounds", n.id));
            }
            if slots[i].parent != DEAD {
                return Err(format!("duplicate node id {}", n.id));
            }
            let parent = match n.parent {
                None => NIL,
                Some(p) if (p as usize) < cap => p,
                Some(p) => return Err(format!("{} has dead parent {p}", n.id)),
            };
            slots[i] = Slot::leaf(n.vertex, n.state, parent, n.via_label);
            ts[i] = n.ts;
        }
        for n in &snap.nodes {
            let mut prev = NIL;
            for &c in &n.children {
                if (c as usize) >= cap {
                    return Err(format!("stale child {c} of {}", n.id));
                }
                if prev == NIL {
                    slots[n.id as usize].first_child = c;
                } else {
                    slots[prev as usize].next_sib = c;
                }
                slots[c as usize].prev_sib = prev;
                prev = c;
            }
        }
        let mut seen_free = std::collections::HashSet::new();
        for &f in &snap.free {
            match slots.get(f as usize).map(|slot| slot.parent) {
                Some(DEAD) if seen_free.insert(f) => {}
                Some(DEAD) => return Err(format!("free slot {f} listed twice")),
                _ => return Err(format!("free slot {f} is live or out of bounds")),
            }
        }
        if snap.nodes.len() + snap.free.len() != cap {
            return Err(format!(
                "arena accounting drift: {} live + {} free != {} slots",
                snap.nodes.len(),
                snap.free.len(),
                snap.arena_len
            ));
        }
        let mut occurrences: FxHashMap<PairKey, OccSet> = FxHashMap::default();
        for (key, ids) in snap.occurrences {
            let occ = match ids.as_slice() {
                [] => return Err(format!("empty occurrence list for {key:?}")),
                [one] => OccSet::One(*one),
                _ => OccSet::Many(ids),
            };
            occurrences.insert(key, occ);
        }
        let tree = Tree {
            root: snap.root,
            root_key: (snap.root, snap.root_state),
            root_id: snap.root_id,
            len: snap.nodes.len(),
            slots,
            // The root and dead slots hold `INFINITY`, so the column
            // minimum is the exact bound of a well-formed snapshot.
            min_ts: ts.iter().copied().min().unwrap_or(Timestamp::INFINITY),
            ts,
            free: snap.free,
            occurrences,
            ext: X::import(snap.marks, snap.dead_marks),
        };
        tree.validate()?;
        Ok(tree)
    }
}
