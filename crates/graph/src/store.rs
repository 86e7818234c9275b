//! The windowed adjacency store, label-partitioned.
//!
//! Semantics: the window content is a set of labeled edges, each carrying
//! the timestamp of its **most recent** insertion. Re-inserting an edge
//! refreshes its timestamp (it is the same edge of the snapshot graph,
//! now expiring later); an explicit deletion removes it regardless of how
//! many times it was inserted. Expiry is *lazy*: stale entries linger
//! until [`WindowGraph::purge_expired`] runs at a slide boundary, so all
//! traversal APIs take a validity watermark and filter on it — exactly
//! the discipline Algorithms RAPQ/RSPQ apply with their
//! `(u, s).ts > τ − |W|` guards.
//!
//! # Layout
//!
//! Adjacency is **partitioned by label**: `out[u][l]` is a contiguous
//! posting list of `(v, ts)` pairs (and `inc[v][l]` symmetrically), so
//! the engines' inner loops — "which edges out of `u` carry label `l`
//! and are still in the window?" — iterate exactly the matching edges,
//! never scanning or filtering the rest of `u`'s neighborhood. The
//! traversal APIs ([`WindowGraph::out_edges`], [`WindowGraph::in_edges`])
//! are borrowing iterators over those lists: no allocation per call.
//!
//! Each edge additionally owns a *slot* in a stable arena recording its
//! `(src, dst, label)`, a generation counter, and the positions of its
//! two postings. Slots buy O(1) maintenance everywhere:
//! refresh rewrites both postings through the stored positions,
//! removal `swap_remove`s them (fixing up the displaced edge's slot),
//! and the arrival-ordered expiry queue stores `(ts, slot, gen)` so a
//! queue entry made stale by a refresh or deletion is recognized by a
//! single indexed load and generation compare — no hash lookups at all
//! for skipped entries, keeping [`WindowGraph::purge_expired`] amortized
//! O(#expired) even under refresh-heavy streams.
//!
//! Per-vertex state is bounded by the window, not by the stream: a
//! vertex's adjacency entry in one direction exists exactly while it
//! holds a stored posting there, so the vertex maps hold the live
//! vertices only; a bounded [`Pool`] keeps emptied entries for reuse.

use srpq_common::{table_bytes, FxHashMap, Label, Pool, Timestamp, VertexId, POOL_MAX_ENTRY_BYTES};
use std::collections::hash_map::Entry;
use std::collections::VecDeque;
use std::mem::size_of;

/// A per-micro-batch visibility horizon for shared-graph traversal.
///
/// The multi-query coordinator applies a whole micro-batch of graph
/// inserts up front (single-threaded), stamping each *newly created*
/// edge with its batch position via [`WindowGraph::insert_visible_from`].
/// The evaluating threads — workers, or the calling thread itself —
/// then traverse the graph read-only, passing the position of the tuple
/// they are evaluating: an edge stamped later in the batch is
/// invisible, exactly as it would not yet exist in a sequential
/// per-tuple run. Stamps are transient — [`WindowGraph::clear_stamps`]
/// resets them after the batch — so a default-constructed slot
/// (`vis_from == 0`) is always visible. Only [`Visibility::ALL`] skips
/// loading a posting's slot; the callers outside a micro-batch's
/// evaluation pass it: a mutating singleton's pre-mutation advance,
/// backfill replay, and the eager `expire_now` pass.
///
/// `horizon` counts visible stamped positions: an edge stamped with
/// `vis_from = pos + 1` (batch position `pos`) is visible iff
/// `vis_from <= horizon`. [`Visibility::ALL`] sees everything.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Visibility {
    horizon: u32,
}

impl Visibility {
    /// Everything in the graph is visible (work outside a micro-batch's
    /// evaluation, which runs while no new edge is stamped).
    pub const ALL: Visibility = Visibility { horizon: u32::MAX };

    /// Visibility for *extending* on the tuple at batch position `pos`:
    /// the tuple's own edge (stamped `pos + 1`) and everything before
    /// it are visible; later in-batch edges are not.
    #[inline]
    pub fn upto(pos: usize) -> Visibility {
        Visibility {
            horizon: pos as u32 + 1,
        }
    }

    /// Visibility for work that sequentially precedes the current
    /// tuple's graph mutation (the slide-boundary Δ-expiry pass runs
    /// before the tuple's edge exists): one position earlier.
    #[inline]
    pub fn before(self) -> Visibility {
        Visibility {
            horizon: self.horizon.saturating_sub(1),
        }
    }

    /// Whether a slot stamped `vis_from` is visible under this horizon.
    #[inline]
    fn admits(self, vis_from: u32) -> bool {
        vis_from <= self.horizon
    }
}

/// A labeled, timestamped half-edge as seen from one endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeRef {
    /// The other endpoint (target for out-edges, source for in-edges).
    pub other: VertexId,
    /// The edge label.
    pub label: Label,
    /// Timestamp of the most recent insertion of this edge.
    pub ts: Timestamp,
}

/// One adjacency posting: the far endpoint, the edge's current
/// timestamp (kept inline for cache-friendly traversal), and the owning
/// slot (for swap-remove fix-ups).
#[derive(Debug, Clone, Copy)]
struct Posting {
    other: VertexId,
    ts: Timestamp,
    slot: u32,
}

/// Per-edge bookkeeping record; the arena index is stable for the
/// edge's lifetime. Deliberately 24 bytes: the slot is a random-access
/// structure (the postings carry the timestamp), so density matters.
#[derive(Debug, Clone, Copy)]
struct Slot {
    src: VertexId,
    dst: VertexId,
    label: Label,
    /// Bumped on every refresh and removal: queue entries carrying an
    /// older generation are stale and skipped without any map lookup.
    /// (Also covers liveness — a freed slot's generation was bumped, so
    /// no stale queue entry can match it, even across slot reuse.)
    gen: u32,
    /// Position of this edge's posting in `out[src][label]`.
    out_pos: u32,
    /// Position of this edge's posting in `inc[dst][label]`.
    inc_pos: u32,
    /// Micro-batch visibility stamp (see [`Visibility`]): `0` = visible
    /// at every horizon; `pos + 1` = created at batch position `pos`.
    /// Reset by [`WindowGraph::clear_stamps`] after every batch.
    vis_from: u32,
}

/// A borrowed view of one vertex's label-partitioned adjacency (one
/// direction). Obtained from [`WindowGraph::out_view`] /
/// [`WindowGraph::in_view`]; serves per-label posting-list scans
/// without re-hashing the vertex.
#[derive(Debug, Clone, Copy)]
pub struct AdjView<'g> {
    map: Option<&'g FxHashMap<Label, Vec<Posting>>>,
    slots: &'g [Slot],
    vis: Visibility,
}

impl<'g> AdjView<'g> {
    /// Edges carrying `label` with timestamps `> watermark`: a
    /// borrowing, allocation-free iterator over the posting list.
    /// Under a restricted [`Visibility`], edges stamped later in the
    /// current micro-batch are skipped; under [`Visibility::ALL`] the
    /// stamp is never even loaded.
    pub fn edges(&self, label: Label, watermark: Timestamp) -> impl Iterator<Item = EdgeRef> + 'g {
        let vis = self.vis;
        let all = vis == Visibility::ALL;
        let slots = self.slots;
        self.map
            .and_then(|m| m.get(&label))
            .into_iter()
            .flat_map(|list| list.iter())
            .filter(move |p| {
                p.ts > watermark && (all || vis.admits(slots[p.slot as usize].vis_from))
            })
            .map(move |p| EdgeRef {
                other: p.other,
                label,
                ts: p.ts,
            })
    }

    /// Whether the vertex has no stored edges in this direction at all
    /// (a vertex's entry leaves the graph with its last posting).
    pub fn is_empty(&self) -> bool {
        self.map.is_none()
    }
}

/// An arrival-ordered expiry queue entry.
#[derive(Debug, Clone, Copy)]
struct QueueEntry {
    ts: Timestamp,
    slot: u32,
    gen: u32,
}

/// One direction of a vertex's label-partitioned adjacency. It is in
/// [`WindowGraph`]'s map exactly while `len`, the stored posting count
/// across all labels, is non-zero: when the last posting goes, the entry
/// leaves the map. An entry of at most [`POOL_MAX_ENTRY_BYTES`] (about
/// fifty postings) then goes to the graph's [`Pool`] with its emptied lists and label keys, so a
/// vertex that comes back — sliding-window churn re-adds vertices over
/// and over — reuses warm capacity and the steady-state insert path
/// stays allocation-free; a larger one (a hub's) is freed. A label's
/// list that empties while the vertex keeps other postings is retained.
#[derive(Debug, Default)]
struct Adj {
    by_label: FxHashMap<Label, Vec<Posting>>,
    len: usize,
}

impl Adj {
    /// Heap bytes held: the label table and every posting buffer.
    fn heap_bytes(&self) -> usize {
        let lists: usize = self.by_label.values().map(Vec::capacity).sum();
        table_bytes::<Label, Vec<Posting>>(self.by_label.capacity()) + lists * size_of::<Posting>()
    }

    /// Heap bytes the label table grew by since its capacity was
    /// `before`.
    #[inline]
    fn table_growth(&self, before: usize) -> usize {
        let table = |cap| table_bytes::<Label, Vec<Posting>>(cap);
        match self.by_label.capacity() {
            now if now == before => 0,
            now => table(now) - table(before),
        }
    }
}

/// Appends `posting` to `list`; returns the heap bytes that grew it by.
#[inline]
fn push_posting(list: &mut Vec<Posting>, posting: Posting) -> usize {
    let before = list.capacity();
    list.push(posting);
    (list.capacity() - before) * size_of::<Posting>()
}

/// The snapshot graph `G_{W,τ}` of a sliding window over a streaming
/// graph, stored as label-partitioned adjacency in both directions.
#[derive(Debug, Default)]
pub struct WindowGraph {
    /// `out[u][l]` → posting list of `(v, ts)`.
    out: FxHashMap<VertexId, Adj>,
    /// `inc[v][l]` → posting list of `(u, ts)`.
    inc: FxHashMap<VertexId, Adj>,
    /// Emptied adjacency entries awaiting a vertex (both directions).
    adj_pool: Pool<Adj, POOL_MAX_ENTRY_BYTES>,
    /// Heap bytes every [`Adj`] holds, in the maps or pooled: kept up to
    /// date where an entry grows or is freed, so [`Self::heap_bytes`]
    /// is O(1).
    adj_bytes: usize,
    slots: Vec<Slot>,
    free: Vec<u32>,
    /// Slots stamped with a batch position this micro-batch (drained by
    /// [`Self::clear_stamps`]).
    stamped: Vec<u32>,
    /// Arrival-ordered queue driving O(#expired) purge.
    queue: VecDeque<QueueEntry>,
    n_edges: usize,
    n_vertices: usize,
    purge_pops: u64,
    purge_stale_skips: u64,
}

impl WindowGraph {
    /// Creates an empty window graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct labeled edges currently stored (including
    /// not-yet-purged expired ones).
    pub fn n_edges(&self) -> usize {
        self.n_edges
    }

    /// Number of vertices with at least one incident stored edge.
    /// Maintained incrementally — O(1).
    pub fn n_vertices(&self) -> usize {
        self.n_vertices
    }

    /// Expiry-queue entries popped so far (instrumentation: each pop is
    /// O(1) and every entry is popped at most once).
    pub fn purge_pops(&self) -> u64 {
        self.purge_pops
    }

    /// Popped entries that were skipped as stale (refreshed or deleted
    /// edges) by the generation check, without any map lookup.
    pub fn purge_stale_skips(&self) -> u64 {
        self.purge_stale_skips
    }

    /// Current expiry-queue length (instrumentation).
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Adjacency entries stored as `(out, inc)`: exactly the vertices
    /// with a stored (possibly expired, not yet purged) out-edge and
    /// in-edge respectively.
    pub fn adjacency_entries(&self) -> (usize, usize) {
        (self.out.len(), self.inc.len())
    }

    /// Heap bytes the graph holds: both vertex maps, every adjacency
    /// entry (pooled ones included), the slot arena, its free and stamp
    /// lists, and the expiry queue. O(1); the hash tables are estimated
    /// from their capacities.
    pub fn heap_bytes(&self) -> usize {
        table_bytes::<VertexId, Adj>(self.out.capacity())
            + table_bytes::<VertexId, Adj>(self.inc.capacity())
            + self.adj_bytes
            + self.adj_pool.heap_bytes()
            + self.slots.capacity() * size_of::<Slot>()
            + (self.free.capacity() + self.stamped.capacity()) * size_of::<u32>()
            + self.queue.capacity() * size_of::<QueueEntry>()
    }

    /// Inserts (or refreshes) edge `u →l v` at time `ts`. Returns `true`
    /// if the edge was not present before.
    ///
    /// Existence is resolved by scanning the `(u, l)` posting list —
    /// for streaming graphs the per-source-per-label degree is small,
    /// and the scan beats a separate edge→slot hash map (whose every
    /// probe is a cache miss) by a wide margin.
    pub fn insert(&mut self, u: VertexId, v: VertexId, label: Label, ts: Timestamp) -> bool {
        self.insert_inner(u, v, label, ts, 0)
    }

    /// [`Self::insert`] with a micro-batch visibility stamp: a *newly
    /// created* edge becomes visible only to [`Visibility`] horizons
    /// covering batch position `pos` (a refresh of an existing edge
    /// keeps its stamp — the edge already existed at every horizon).
    /// The coordinator of a shared-graph batch applies all inserts
    /// through this, then calls [`Self::clear_stamps`] once the batch's
    /// workers are done.
    pub fn insert_visible_from(
        &mut self,
        u: VertexId,
        v: VertexId,
        label: Label,
        ts: Timestamp,
        pos: usize,
    ) -> bool {
        self.insert_inner(u, v, label, ts, pos as u32 + 1)
    }

    /// Resets every stamp written since the last call, making all edges
    /// visible at every horizon again. O(#stamped).
    pub fn clear_stamps(&mut self) {
        while let Some(id) = self.stamped.pop() {
            self.slots[id as usize].vis_from = 0;
        }
    }

    fn insert_inner(
        &mut self,
        u: VertexId,
        v: VertexId,
        label: Label,
        ts: Timestamp,
        vis_from: u32,
    ) -> bool {
        let pool = &mut self.adj_pool;
        let out_outer = self
            .out
            .entry(u)
            .or_insert_with(|| pool.take().unwrap_or_default());
        let u_first_out = out_outer.len == 0;
        let out_table = out_outer.by_label.capacity();
        let out_list = out_outer.by_label.entry(label).or_default();
        if let Some(pos) = out_list.iter().position(|p| p.other == v) {
            // Refresh: rewrite the timestamp in both postings through
            // the stored positions — O(1).
            let id = out_list[pos].slot;
            out_list[pos].ts = ts;
            let slot = &mut self.slots[id as usize];
            slot.gen = slot.gen.wrapping_add(1);
            let (inc_pos, gen) = (slot.inc_pos, slot.gen);
            self.inc
                .get_mut(&v)
                .expect("live edge has inc postings")
                .by_label
                .get_mut(&label)
                .expect("live edge has inc postings")[inc_pos as usize]
                .ts = ts;
            self.queue.push_back(QueueEntry { ts, slot: id, gen });
            return false;
        }
        let out_pos = out_list.len() as u32;
        // Slot arena write (inc_pos patched below — same cache line,
        // effectively free). Reuse a freed slot or append.
        let (id, gen) = match self.free.pop() {
            Some(id) => {
                let slot = &mut self.slots[id as usize];
                *slot = Slot {
                    src: u,
                    dst: v,
                    label,
                    gen: slot.gen,
                    out_pos,
                    inc_pos: 0,
                    vis_from,
                };
                (id, slot.gen)
            }
            None => {
                self.slots.push(Slot {
                    src: u,
                    dst: v,
                    label,
                    gen: 0,
                    out_pos,
                    inc_pos: 0,
                    vis_from,
                });
                ((self.slots.len() - 1) as u32, 0)
            }
        };
        if vis_from != 0 {
            self.stamped.push(id);
        }
        let mut grown = push_posting(
            out_list,
            Posting {
                other: v,
                ts,
                slot: id,
            },
        );
        out_outer.len += 1;
        grown += out_outer.table_growth(out_table);
        // Presence transitions: a vertex joins the graph exactly when
        // neither direction has an entry. The outer entries are touched
        // here anyway, so the maintained vertex count costs at most one
        // extra lookup per *first* edge.
        if u_first_out && !self.inc.contains_key(&u) {
            self.n_vertices += 1;
        }
        let pool = &mut self.adj_pool;
        let inc_outer = self
            .inc
            .entry(v)
            .or_insert_with(|| pool.take().unwrap_or_default());
        let v_first_inc = inc_outer.len == 0;
        let inc_table = inc_outer.by_label.capacity();
        let inc_list = inc_outer.by_label.entry(label).or_default();
        let inc_pos = inc_list.len() as u32;
        grown += push_posting(
            inc_list,
            Posting {
                other: u,
                ts,
                slot: id,
            },
        );
        inc_outer.len += 1;
        grown += inc_outer.table_growth(inc_table);
        if v_first_inc && !self.out.contains_key(&v) {
            self.n_vertices += 1;
        }
        self.adj_bytes += grown;
        self.slots[id as usize].inc_pos = inc_pos;
        self.queue.push_back(QueueEntry { ts, slot: id, gen });
        self.n_edges += 1;
        true
    }

    /// Removes edge `u →l v` (explicit deletion). Returns its timestamp
    /// if it was present.
    pub fn remove(&mut self, u: VertexId, v: VertexId, label: Label) -> Option<Timestamp> {
        let list = self.out.get(&u)?.by_label.get(&label)?;
        let pos = list.iter().position(|p| p.other == v)?;
        let id = list[pos].slot;
        Some(self.remove_slot(id))
    }

    /// Removes the edge owning `id` through its stored posting
    /// positions — no scans, no edge-key hashing. The slot must be live.
    fn remove_slot(&mut self, id: u32) -> Timestamp {
        let slot = self.slots[id as usize];
        let (u_out_gone, ts) = self.detach_posting(slot.src, slot.label, slot.out_pos, false);
        let (v_inc_gone, _) = self.detach_posting(slot.dst, slot.label, slot.inc_pos, true);
        self.slots[id as usize].gen = slot.gen.wrapping_add(1);
        self.free.push(id);
        self.n_edges -= 1;
        // Presence transitions (see `insert`): a vertex leaves the graph
        // when its entry in one direction goes and the opposite
        // direction has none either.
        if u_out_gone && !self.inc.contains_key(&slot.src) {
            self.n_vertices -= 1;
        }
        if slot.dst != slot.src && v_inc_gone && !self.out.contains_key(&slot.dst) {
            self.n_vertices -= 1;
        }
        ts
    }

    /// Swap-removes the posting at `pos` from `out[vertex][label]` (or
    /// `inc[…]`), repairing the displaced edge's stored position. The
    /// vertex's last posting in this direction takes its entry out of
    /// the map, into the pool or freed (see [`Adj`]). Returns whether it
    /// was the last, and the removed posting's timestamp.
    fn detach_posting(
        &mut self,
        vertex: VertexId,
        label: Label,
        pos: u32,
        inc_side: bool,
    ) -> (bool, Timestamp) {
        let adj = if inc_side {
            &mut self.inc
        } else {
            &mut self.out
        };
        let Entry::Occupied(mut entry) = adj.entry(vertex) else {
            panic!("posting parent exists");
        };
        let outer = entry.get_mut();
        let list = outer.by_label.get_mut(&label).expect("posting list exists");
        let removed = list.swap_remove(pos as usize);
        if let Some(moved) = list.get(pos as usize) {
            let ms = &mut self.slots[moved.slot as usize];
            if inc_side {
                ms.inc_pos = pos;
            } else {
                ms.out_pos = pos;
            }
        }
        outer.len -= 1;
        let gone = outer.len == 0;
        if gone {
            let emptied = entry.remove();
            let bytes = emptied.heap_bytes();
            if !self.adj_pool.put(emptied, bytes) {
                self.adj_bytes -= bytes;
            }
        }
        (gone, removed.ts)
    }

    /// The current timestamp of edge `u →l v`, if present.
    pub fn edge_ts(&self, u: VertexId, v: VertexId, label: Label) -> Option<Timestamp> {
        self.out
            .get(&u)?
            .by_label
            .get(&label)?
            .iter()
            .find(|p| p.other == v)
            .map(|p| p.ts)
    }

    /// Whether edge `u →l v` is present and valid after `watermark`.
    pub fn contains_valid(
        &self,
        u: VertexId,
        v: VertexId,
        label: Label,
        watermark: Timestamp,
    ) -> bool {
        self.edge_ts(u, v, label).map(|ts| ts > watermark) == Some(true)
    }

    /// Purges every edge whose timestamp is `<= watermark`. Returns the
    /// number of edges removed. Amortized O(#expired) thanks to the
    /// arrival-ordered queue; entries stale-ified by refreshes or
    /// deletions are skipped on a generation compare alone.
    pub fn purge_expired(&mut self, watermark: Timestamp) -> usize {
        let mut removed = 0;
        while let Some(&QueueEntry { ts, slot, gen }) = self.queue.front() {
            if ts > watermark {
                break;
            }
            self.queue.pop_front();
            self.purge_pops += 1;
            // A refresh or removal bumped the generation: the queued
            // entry no longer describes the stored edge (freed slots
            // bump too, so this also covers liveness and slot reuse).
            // Skip before touching any map.
            if self.slots[slot as usize].gen != gen {
                self.purge_stale_skips += 1;
                continue;
            }
            self.remove_slot(slot);
            removed += 1;
        }
        removed
    }

    /// Out-edges of `u` labeled `label` with timestamps `> watermark`.
    /// Borrowing iterator over the posting list: zero allocation,
    /// O(matching edges).
    pub fn out_edges(
        &self,
        u: VertexId,
        label: Label,
        watermark: Timestamp,
    ) -> impl Iterator<Item = EdgeRef> + '_ {
        self.out_view(u).edges(label, watermark)
    }

    /// In-edges of `v` labeled `label` with timestamps `> watermark`.
    pub fn in_edges(
        &self,
        v: VertexId,
        label: Label,
        watermark: Timestamp,
    ) -> impl Iterator<Item = EdgeRef> + '_ {
        self.in_view(v).edges(label, watermark)
    }

    /// A borrowed view of `u`'s out-adjacency: hashes `u` once, then
    /// serves any number of per-label edge scans. The engines hoist
    /// this out of their per-DFA-transition loops.
    #[inline]
    pub fn out_view(&self, u: VertexId) -> AdjView<'_> {
        self.out_view_at(u, Visibility::ALL)
    }

    /// A borrowed view of `v`'s in-adjacency.
    #[inline]
    pub fn in_view(&self, v: VertexId) -> AdjView<'_> {
        self.in_view_at(v, Visibility::ALL)
    }

    /// [`Self::out_view`] restricted to a micro-batch [`Visibility`]
    /// horizon (the batch schedule's traversal).
    #[inline]
    pub fn out_view_at(&self, u: VertexId, vis: Visibility) -> AdjView<'_> {
        AdjView {
            map: self.out.get(&u).map(|a| &a.by_label),
            slots: &self.slots,
            vis,
        }
    }

    /// [`Self::in_view`] restricted to a micro-batch [`Visibility`]
    /// horizon.
    #[inline]
    pub fn in_view_at(&self, v: VertexId, vis: Visibility) -> AdjView<'_> {
        AdjView {
            map: self.inc.get(&v).map(|a| &a.by_label),
            slots: &self.slots,
            vis,
        }
    }

    /// Out-edges of `u` across **all** labels with timestamps
    /// `> watermark` (baselines and snapshot exports; the engines use
    /// the label-partitioned [`Self::out_edges`]).
    pub fn out_edges_any(
        &self,
        u: VertexId,
        watermark: Timestamp,
    ) -> impl Iterator<Item = EdgeRef> + '_ {
        self.out
            .get(&u)
            .into_iter()
            .flat_map(|a| a.by_label.iter())
            .flat_map(|(&label, list)| list.iter().map(move |p| (label, p)))
            .filter(move |(_, p)| p.ts > watermark)
            .map(|(label, p)| EdgeRef {
                other: p.other,
                label,
                ts: p.ts,
            })
    }

    /// All vertices with at least one valid out- or in-edge after
    /// `watermark`.
    pub fn vertices(&self, watermark: Timestamp) -> Vec<VertexId> {
        let mut out: Vec<VertexId> = Vec::new();
        for (&u, a) in &self.out {
            if a.by_label.values().flatten().any(|p| p.ts > watermark) {
                out.push(u);
            }
        }
        for (&v, a) in &self.inc {
            if a.by_label.values().flatten().any(|p| p.ts > watermark) {
                out.push(v);
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// All valid edges `(u, v, label, ts)` after `watermark` (snapshot
    /// export for the batch baselines).
    pub fn edges(&self, watermark: Timestamp) -> Vec<(VertexId, VertexId, Label, Timestamp)> {
        let mut out = Vec::with_capacity(self.n_edges);
        for (&u, a) in &self.out {
            for (&l, list) in &a.by_label {
                for p in list {
                    if p.ts > watermark {
                        out.push((u, p.other, l, p.ts));
                    }
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// Every stored edge (not-yet-purged expired ones included) in
    /// expiry-queue order, each with its positions in its source's and
    /// its target's posting lists. The order of a posting list is the
    /// order traversals visit its edges, and swap-removals make it a
    /// function of history rather than of the edge set; this is what
    /// [`Self::restore_layout`] needs to rebuild a graph that traverses
    /// and purges exactly as this one does.
    pub fn layout(&self) -> Vec<(VertexId, VertexId, Label, Timestamp, u32, u32)> {
        let live = self
            .queue
            .iter()
            .filter(|e| self.slots[e.slot as usize].gen == e.gen);
        live.map(|e| {
            let s = self.slots[e.slot as usize];
            (s.src, s.dst, s.label, e.ts, s.out_pos, s.inc_pos)
        })
        .collect()
    }

    /// Fills an empty graph with the edges of a [`Self::layout`]:
    /// inserted in queue order, then each posting moved to its recorded
    /// position. Refuses a duplicate edge or positions that do not
    /// number each posting list `0..len`.
    pub fn restore_layout(
        &mut self,
        layout: &[(VertexId, VertexId, Label, Timestamp, u32, u32)],
    ) -> Result<(), String> {
        assert!(self.slots.is_empty(), "restore_layout needs an empty graph");
        for &(u, v, label, ts, _, _) in layout {
            if !self.insert(u, v, label, ts) {
                return Err(format!("edge {u} -{label:?}-> {v} appears twice"));
            }
        }
        // Slot `i` holds the `i`-th edge: the arena was empty.
        for (inc_side, adj) in [(false, &mut self.out), (true, &mut self.inc)] {
            let wanted = |slot: u32| {
                let (.., out_pos, inc_pos) = layout[slot as usize];
                if inc_side {
                    inc_pos
                } else {
                    out_pos
                }
            };
            for list in adj.values_mut().flat_map(|a| a.by_label.values_mut()) {
                list.sort_unstable_by_key(|p| wanted(p.slot));
                for (pos, p) in list.iter().enumerate() {
                    if wanted(p.slot) != pos as u32 {
                        return Err("posting positions are not a permutation".into());
                    }
                    let slot = &mut self.slots[p.slot as usize];
                    if inc_side {
                        slot.inc_pos = pos as u32;
                    } else {
                        slot.out_pos = pos as u32;
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use srpq_common::POOL_MAX_ENTRIES;

    const NEG: Timestamp = Timestamp(i64::MIN);

    fn v(i: u32) -> VertexId {
        VertexId(i)
    }

    fn l(i: u32) -> Label {
        Label(i)
    }

    #[test]
    fn insert_and_lookup() {
        let mut g = WindowGraph::new();
        assert!(g.insert(v(0), v(1), l(0), Timestamp(5)));
        assert_eq!(g.n_edges(), 1);
        assert_eq!(g.n_vertices(), 2);
        assert_eq!(g.edge_ts(v(0), v(1), l(0)), Some(Timestamp(5)));
        assert_eq!(g.edge_ts(v(1), v(0), l(0)), None);
        assert_eq!(g.edge_ts(v(0), v(1), l(1)), None);
    }

    #[test]
    fn reinsert_refreshes_timestamp() {
        let mut g = WindowGraph::new();
        assert!(g.insert(v(0), v(1), l(0), Timestamp(5)));
        assert!(!g.insert(v(0), v(1), l(0), Timestamp(9)));
        assert_eq!(g.n_edges(), 1);
        assert_eq!(g.edge_ts(v(0), v(1), l(0)), Some(Timestamp(9)));
        // Both traversal directions see the refreshed timestamp.
        assert_eq!(
            g.out_edges(v(0), l(0), NEG).next().map(|e| e.ts),
            Some(Timestamp(9))
        );
        assert_eq!(
            g.in_edges(v(1), l(0), NEG).next().map(|e| e.ts),
            Some(Timestamp(9))
        );
    }

    #[test]
    fn parallel_edges_with_distinct_labels() {
        let mut g = WindowGraph::new();
        g.insert(v(0), v(1), l(0), Timestamp(1));
        g.insert(v(0), v(1), l(1), Timestamp(2));
        assert_eq!(g.n_edges(), 2);
        assert_eq!(g.out_edges(v(0), l(0), NEG).count(), 1);
        assert_eq!(g.out_edges(v(0), l(1), NEG).count(), 1);
        assert_eq!(g.out_edges_any(v(0), NEG).count(), 2);
    }

    #[test]
    fn label_partition_iterates_only_matching_edges() {
        let mut g = WindowGraph::new();
        for i in 1..=10 {
            g.insert(v(0), v(i), l(i % 3), Timestamp(i as i64));
        }
        let only_l0: Vec<_> = g.out_edges(v(0), l(0), NEG).collect();
        assert_eq!(only_l0.len(), 3); // i = 3, 6, 9
        assert!(only_l0.iter().all(|e| e.label == l(0)));
        assert_eq!(g.out_edges_any(v(0), NEG).count(), 10);
    }

    #[test]
    fn remove_cleans_both_directions() {
        let mut g = WindowGraph::new();
        g.insert(v(0), v(1), l(0), Timestamp(1));
        assert_eq!(g.remove(v(0), v(1), l(0)), Some(Timestamp(1)));
        assert_eq!(g.n_edges(), 0);
        assert_eq!(g.out_edges(v(0), l(0), NEG).count(), 0);
        assert_eq!(g.in_edges(v(1), l(0), NEG).count(), 0);
        assert_eq!(g.n_vertices(), 0);
        // Double delete is a no-op.
        assert_eq!(g.remove(v(0), v(1), l(0)), None);
    }

    #[test]
    fn swap_remove_repairs_displaced_positions() {
        // Three same-label edges out of one vertex; removing the first
        // swap-moves the last into its place, and that edge must remain
        // fully maintainable (refresh + remove) afterwards.
        let mut g = WindowGraph::new();
        g.insert(v(0), v(1), l(0), Timestamp(1));
        g.insert(v(0), v(2), l(0), Timestamp(2));
        g.insert(v(0), v(3), l(0), Timestamp(3));
        g.remove(v(0), v(1), l(0));
        assert!(!g.insert(v(0), v(3), l(0), Timestamp(9))); // refresh
        assert_eq!(g.edge_ts(v(0), v(3), l(0)), Some(Timestamp(9)));
        let mut seen: Vec<_> = g.out_edges(v(0), l(0), NEG).map(|e| e.other).collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![v(2), v(3)]);
        assert_eq!(g.remove(v(0), v(3), l(0)), Some(Timestamp(9)));
        assert_eq!(g.remove(v(0), v(2), l(0)), Some(Timestamp(2)));
        assert_eq!(g.n_edges(), 0);
    }

    #[test]
    fn watermark_filters_traversal() {
        let mut g = WindowGraph::new();
        g.insert(v(0), v(1), l(0), Timestamp(5));
        g.insert(v(0), v(2), l(0), Timestamp(15));
        let visible: Vec<_> = g.out_edges(v(0), l(0), Timestamp(10)).collect();
        assert_eq!(visible.len(), 1);
        assert_eq!(visible[0].other, v(2));
        assert!(g.contains_valid(v(0), v(2), l(0), Timestamp(10)));
        assert!(!g.contains_valid(v(0), v(1), l(0), Timestamp(10)));
    }

    #[test]
    fn purge_removes_only_expired() {
        let mut g = WindowGraph::new();
        for i in 0..10 {
            g.insert(v(i), v(i + 1), l(0), Timestamp(i as i64));
        }
        let removed = g.purge_expired(Timestamp(4));
        assert_eq!(removed, 5);
        assert_eq!(g.n_edges(), 5);
        assert_eq!(g.edge_ts(v(4), v(5), l(0)), None);
        assert_eq!(g.edge_ts(v(5), v(6), l(0)), Some(Timestamp(5)));
    }

    #[test]
    fn purge_skips_refreshed_edges() {
        let mut g = WindowGraph::new();
        g.insert(v(0), v(1), l(0), Timestamp(1));
        g.insert(v(0), v(1), l(0), Timestamp(10)); // refresh
        let removed = g.purge_expired(Timestamp(5));
        assert_eq!(removed, 0);
        assert_eq!(g.purge_stale_skips(), 1);
        assert_eq!(g.edge_ts(v(0), v(1), l(0)), Some(Timestamp(10)));
        // Later purge removes it exactly once.
        let removed = g.purge_expired(Timestamp(10));
        assert_eq!(removed, 1);
        assert_eq!(g.n_edges(), 0);
    }

    #[test]
    fn purge_work_is_bounded_by_stream_length_under_refresh() {
        // O(expired) pin: a refresh-heavy stream (every edge refreshed
        // `refreshes` times) must cost at most one queue pop per queued
        // entry over the whole run, with every stale entry skipped by
        // the generation check (no per-skip map work to count — the
        // counters expose exactly how many pops and skips happened).
        let n = 50u32;
        let refreshes = 9i64;
        let mut g = WindowGraph::new();
        let mut queued = 0u64;
        for round in 0..=refreshes {
            for i in 0..n {
                g.insert(v(i), v(i + 1), l(0), Timestamp(round * 100 + i as i64));
                queued += 1;
            }
        }
        // Purge below every *current* timestamp: only the stale
        // (superseded) entries leave the queue; nothing is removed.
        let removed = g.purge_expired(Timestamp(refreshes * 100 - 1));
        assert_eq!(removed, 0);
        assert_eq!(g.n_edges(), n as usize);
        assert_eq!(g.purge_stale_skips(), queued - n as u64);
        assert_eq!(g.purge_pops(), queued - n as u64);
        assert_eq!(g.queue_len(), n as usize);
        // Final purge pops each live entry exactly once: total pops over
        // the graph's lifetime equal total queued entries — O(stream),
        // i.e. amortized O(1) per tuple, O(#expired) per purge call.
        let removed = g.purge_expired(Timestamp(i64::MAX - 1));
        assert_eq!(removed, n as usize);
        assert_eq!(g.purge_pops(), queued);
        assert_eq!(g.queue_len(), 0);
        // Idempotent afterwards: no queue, no pops.
        assert_eq!(g.purge_expired(Timestamp(i64::MAX - 1)), 0);
        assert_eq!(g.purge_pops(), queued);
    }

    #[test]
    fn purge_is_idempotent() {
        let mut g = WindowGraph::new();
        g.insert(v(0), v(1), l(0), Timestamp(1));
        assert_eq!(g.purge_expired(Timestamp(1)), 1);
        assert_eq!(g.purge_expired(Timestamp(1)), 0);
        assert_eq!(g.purge_expired(Timestamp(100)), 0);
    }

    #[test]
    fn explicit_delete_then_purge_does_not_double_count() {
        let mut g = WindowGraph::new();
        g.insert(v(0), v(1), l(0), Timestamp(1));
        g.remove(v(0), v(1), l(0));
        // The queue entry is stale; purge must skip it gracefully.
        assert_eq!(g.purge_expired(Timestamp(5)), 0);
        assert_eq!(g.purge_stale_skips(), 1);
        assert_eq!(g.n_edges(), 0);
    }

    #[test]
    fn slot_reuse_does_not_confuse_purge() {
        // Remove an edge, insert a different edge (reusing the slot) at
        // a timestamp equal to the dead edge's: the dead edge's queue
        // entry must not purge the new edge.
        let mut g = WindowGraph::new();
        g.insert(v(0), v(1), l(0), Timestamp(5));
        g.remove(v(0), v(1), l(0));
        g.insert(v(2), v(3), l(0), Timestamp(200));
        assert_eq!(g.purge_expired(Timestamp(5)), 0);
        assert_eq!(g.edge_ts(v(2), v(3), l(0)), Some(Timestamp(200)));
        assert_eq!(g.n_edges(), 1);
    }

    #[test]
    fn vertices_and_edges_snapshots() {
        let mut g = WindowGraph::new();
        g.insert(v(3), v(1), l(0), Timestamp(5));
        g.insert(v(1), v(2), l(1), Timestamp(6));
        assert_eq!(g.vertices(NEG), vec![v(1), v(2), v(3)]);
        assert_eq!(g.vertices(Timestamp(5)), vec![v(1), v(2)]);
        let edges = g.edges(NEG);
        assert_eq!(edges.len(), 2);
        assert_eq!(g.edges(Timestamp(5)).len(), 1);
    }

    #[test]
    fn layout_restores_posting_order_and_purge_order() {
        // Swap-removals leave `out[0][a]` as [9, 2, 3] and `inc[9][a]`
        // as [0, 4]; a graph rebuilt from the layout visits and purges
        // in the same order.
        let mut g = WindowGraph::new();
        for (t, u, w) in [
            (1, 0, 1),
            (2, 0, 2),
            (3, 0, 3),
            (4, 1, 9),
            (5, 4, 9),
            (6, 0, 4),
        ] {
            g.insert(v(u), v(w), l(0), Timestamp(t));
        }
        g.insert(v(0), v(9), l(0), Timestamp(7));
        g.remove(v(0), v(1), l(0));
        g.remove(v(0), v(4), l(0));
        g.remove(v(1), v(9), l(0));
        let mut h = WindowGraph::new();
        h.restore_layout(&g.layout()).unwrap();
        let order = |g: &WindowGraph| {
            let out: Vec<_> = g.out_edges(v(0), l(0), NEG).map(|e| e.other).collect();
            let inc: Vec<_> = g.in_edges(v(9), l(0), NEG).map(|e| e.other).collect();
            (out, inc)
        };
        assert_eq!(order(&g), (vec![v(9), v(2), v(3)], vec![v(0), v(4)]));
        assert_eq!(order(&h), order(&g));
        assert_eq!(h.layout(), g.layout());
        g.purge_expired(Timestamp(2));
        h.purge_expired(Timestamp(2));
        assert_eq!(order(&h), order(&g));
        assert_eq!(h.edges(NEG), g.edges(NEG));
    }

    #[test]
    fn self_loops_are_supported() {
        let mut g = WindowGraph::new();
        g.insert(v(0), v(0), l(0), Timestamp(1));
        assert_eq!(g.n_vertices(), 1);
        assert_eq!(g.out_edges(v(0), l(0), NEG).count(), 1);
        assert_eq!(g.in_edges(v(0), l(0), NEG).count(), 1);
        g.remove(v(0), v(0), l(0));
        assert_eq!(g.n_vertices(), 0);
    }

    #[test]
    fn visibility_hides_later_batch_positions() {
        let mut g = WindowGraph::new();
        g.insert(v(0), v(1), l(0), Timestamp(1)); // pre-batch
        g.insert_visible_from(v(0), v(2), l(0), Timestamp(2), 0);
        g.insert_visible_from(v(0), v(3), l(0), Timestamp(3), 2);

        fn others(g: &WindowGraph, vis: Visibility) -> Vec<VertexId> {
            let mut o: Vec<_> = g
                .out_view_at(v(0), vis)
                .edges(l(0), NEG)
                .map(|e| e.other)
                .collect();
            o.sort_unstable();
            o
        }
        // Expiry before position 0 sees only the pre-batch edge.
        assert_eq!(others(&g, Visibility::upto(0).before()), vec![v(1)]);
        // Extending on position 0 sees its own edge.
        assert_eq!(others(&g, Visibility::upto(0)), vec![v(1), v(2)]);
        // Position 1 does not yet see the edge stamped at position 2.
        assert_eq!(others(&g, Visibility::upto(1)), vec![v(1), v(2)]);
        assert_eq!(others(&g, Visibility::upto(2)), vec![v(1), v(2), v(3)]);
        assert_eq!(others(&g, Visibility::ALL), vec![v(1), v(2), v(3)]);
        // The in-direction applies the same filter.
        assert_eq!(
            g.in_view_at(v(3), Visibility::upto(1))
                .edges(l(0), NEG)
                .count(),
            0
        );
        assert_eq!(
            g.in_view_at(v(3), Visibility::upto(2))
                .edges(l(0), NEG)
                .count(),
            1
        );

        // A refresh keeps the edge visible at every horizon (it already
        // existed), and clear_stamps makes everything visible again.
        assert!(!g.insert_visible_from(v(0), v(1), l(0), Timestamp(9), 3));
        assert_eq!(others(&g, Visibility::upto(0).before()), vec![v(1)]);
        g.clear_stamps();
        assert_eq!(
            others(&g, Visibility::upto(0).before()),
            vec![v(1), v(2), v(3)]
        );
        // Stamps from the next batch start clean (freed + reused slots
        // included).
        g.remove(v(0), v(2), l(0));
        g.insert(v(5), v(6), l(0), Timestamp(10));
        assert_eq!(
            g.out_view_at(v(5), Visibility::upto(0).before())
                .edges(l(0), NEG)
                .count(),
            1
        );
    }

    /// The heap bytes `adj_bytes` maintains, recounted.
    fn recount_adj_bytes(g: &WindowGraph) -> usize {
        g.out
            .values()
            .chain(g.inc.values())
            .chain(g.adj_pool.iter())
            .map(Adj::heap_bytes)
            .sum()
    }

    #[test]
    fn adjacency_is_bounded_by_the_live_window() {
        // K disjoint batches of B fresh vertices, each a three-label
        // chain, each batch expiring as the next arrives: the vertex maps
        // hold the live batch only, the pool recycles what the previous
        // batch emptied, and the heap stays within an eighth of its size
        // after three batches however many vertices the stream touches
        // (a recycled entry keeps the label keys of every vertex it
        // served, at most one per label).
        const K: u32 = 40;
        const B: u32 = 200;
        let mut g = WindowGraph::new();
        let mut warm_bytes = 0;
        for k in 0..K {
            for i in 0..B - 1 {
                let (src, dst) = (v(k * B + i), v(k * B + i + 1));
                g.insert(src, dst, l(i % 3), Timestamp(i64::from(k)));
            }
            g.purge_expired(Timestamp(i64::from(k) - 1));
            let (out, inc) = g.adjacency_entries();
            assert_eq!(g.n_vertices(), B as usize, "batch {k}");
            assert_eq!((out, inc), (B as usize - 1, B as usize - 1), "batch {k}");
            assert!(out + inc + g.adj_pool.iter().count() <= 2 * g.n_vertices() + POOL_MAX_ENTRIES);
            assert_eq!(g.adj_bytes, recount_adj_bytes(&g), "batch {k}");
            if k == 2 {
                warm_bytes = g.heap_bytes();
            }
        }
        assert!(
            g.heap_bytes() <= warm_bytes * 9 / 8,
            "{} B after {K} batches, {warm_bytes} B after 3",
            g.heap_bytes()
        );
        g.purge_expired(Timestamp(i64::from(K)));
        assert_eq!(g.adjacency_entries(), (0, 0));
        assert_eq!(g.adj_bytes, recount_adj_bytes(&g));
    }

    #[test]
    fn large_emptied_entries_are_freed_not_pooled() {
        // A hub's out-entry holds more than the pool's size cap when it
        // empties, so its buffers go back to the allocator; its leaves'
        // one-posting in-entries are pooled.
        let mut g = WindowGraph::new();
        for i in 1..=100 {
            g.insert(v(0), v(i), l(0), Timestamp(1));
        }
        assert!(g.out[&v(0)].heap_bytes() > POOL_MAX_ENTRY_BYTES);
        g.purge_expired(Timestamp(1));
        assert_eq!(g.adjacency_entries(), (0, 0));
        assert_eq!(g.adj_pool.iter().count(), 100);
        assert!(g
            .adj_pool
            .iter()
            .all(|a| a.heap_bytes() <= POOL_MAX_ENTRY_BYTES));
        assert_eq!(g.adj_bytes, recount_adj_bytes(&g));
        // A returning vertex takes a pooled entry back.
        g.insert(v(7), v(8), l(1), Timestamp(2));
        assert_eq!(g.adj_pool.iter().count(), 98);
        assert_eq!(g.adj_bytes, recount_adj_bytes(&g));
    }

    #[test]
    fn n_vertices_tracks_mixed_churn() {
        let mut g = WindowGraph::new();
        g.insert(v(0), v(1), l(0), Timestamp(1));
        g.insert(v(1), v(2), l(0), Timestamp(2));
        g.insert(v(0), v(1), l(1), Timestamp(3));
        assert_eq!(g.n_vertices(), 3);
        g.remove(v(0), v(1), l(0));
        assert_eq!(g.n_vertices(), 3); // 0—1 still linked via l(1)
        g.remove(v(0), v(1), l(1));
        assert_eq!(g.n_vertices(), 2); // v0 gone
        g.purge_expired(Timestamp(100));
        assert_eq!(g.n_vertices(), 0);
    }
}
