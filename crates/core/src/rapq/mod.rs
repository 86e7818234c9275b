//! Algorithm RAPQ: streaming RPQ evaluation under arbitrary path
//! semantics (§3 of the paper).
//!
//! For each incoming tuple `(τ, (u,v), l, +)` the engine simultaneously
//! traverses the snapshot graph and the query DFA — emulating a traversal
//! of the product graph — and extends every spanning tree `T_x ∈ Δ` that
//! contains a live node `(u, s)` with `δ(s, l)` defined (Algorithm RAPQ).
//! Window expiry (`ExpiryRAPQ`) runs lazily at slide boundaries and
//! reconnects orphaned product-graph nodes through surviving window
//! edges; explicit deletions (`Delete`) mark the severed subtree with
//! `-∞` timestamps and reuse the very same expiry machinery (§3.2).

use crate::config::{EngineConfig, RefreshPolicy};
use crate::delta::{Forest, NodeId, RevIndex, Unique};
use crate::sink::ResultSink;
use crate::stats::{EngineStats, IndexSize};
use srpq_automata::{CompiledQuery, Dfa};
use srpq_common::{FxHashSet, Label, ResultPair, StreamTuple, Timestamp, VertexId};
use srpq_graph::{Visibility, WindowGraph};

/// A tree node key: `(vertex, automaton state)`. With RAPQ's
/// one-occurrence invariant the pair identifies the node.
pub type NodeKey = crate::delta::PairKey;

/// An RAPQ spanning tree: the shared arena instantiated with the
/// [`Unique`] (one occurrence per pair) semantics.
pub type Tree = crate::delta::Tree<Unique>;

/// The RAPQ Δ index (Definition 12): the shared forest under [`Unique`]
/// semantics.
pub type Delta = Forest<Unique>;

/// A unit of deferred `Insert` work: attach the node for `child` under
/// the live node at `parent_id` via a graph edge labeled `via` with
/// timestamp `edge_ts`. The parent is addressed by arena id — resolved
/// once at push time — so the drain loop re-validates it with one
/// column read instead of a hash lookup.
#[derive(Debug, Clone, Copy)]
struct WorkItem {
    parent_id: NodeId,
    child: NodeKey,
    via: Label,
    edge_ts: Timestamp,
}

/// The streaming RAPQ engine (Algorithm RAPQ + Insert + ExpiryRAPQ +
/// Delete).
pub struct RapqEngine {
    query: CompiledQuery,
    config: EngineConfig,
    graph: WindowGraph,
    delta: Delta,
    /// Deduplication set: pairs currently reported as results.
    emitted: FxHashSet<ResultPair>,
    now: Timestamp,
    stats: EngineStats,
    /// Reusable work stack (avoids reallocating per tuple).
    work: Vec<WorkItem>,
    /// Per-tuple scratch: roots of the trees a tuple can extend.
    roots_scratch: Vec<VertexId>,
    /// Per-slide scratch: all tree roots during an expiry sweep.
    expire_roots_scratch: Vec<VertexId>,
    /// Per-slide scratch: the expiry candidate set of one tree.
    expired_scratch: Vec<NodeKey>,
    /// Per-slide scratch: the compaction remap table.
    compact_scratch: Vec<NodeId>,
}

impl RapqEngine {
    /// Creates an engine for a registered query.
    pub fn new(query: CompiledQuery, config: EngineConfig) -> RapqEngine {
        RapqEngine {
            query,
            config,
            graph: WindowGraph::new(),
            delta: Delta::new(),
            emitted: FxHashSet::default(),
            now: Timestamp::NEG_INFINITY,
            stats: EngineStats::default(),
            work: Vec::new(),
            roots_scratch: Vec::new(),
            expire_roots_scratch: Vec::new(),
            expired_scratch: Vec::new(),
            compact_scratch: Vec::new(),
        }
    }

    /// The registered query.
    pub fn query(&self) -> &CompiledQuery {
        &self.query
    }

    /// Engine statistics.
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// Current Δ index size (Figure 5 / Figure 9).
    pub fn index_size(&self) -> IndexSize {
        IndexSize {
            trees: self.delta.n_trees(),
            nodes: self.delta.n_nodes(),
            arena_bytes: self.delta.arena_bytes(),
        }
    }

    /// The window graph (snapshot `G_{W,τ}` plus not-yet-purged tuples).
    pub fn graph(&self) -> &WindowGraph {
        &self.graph
    }

    /// Direct access to the Δ index (tests, Figure 5 instrumentation).
    pub fn delta(&self) -> &Delta {
        &self.delta
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Mutable statistics (a multi-query host attributes routing hits
    /// and evaluation time here).
    pub fn stats_mut(&mut self) -> &mut EngineStats {
        &mut self.stats
    }

    /// The currently reported result pairs, sorted (persistence support:
    /// checkpoints serialize the deduplication set).
    pub fn emitted_pairs(&self) -> Vec<ResultPair> {
        let mut out: Vec<ResultPair> = self.emitted.iter().copied().collect();
        out.sort_unstable();
        out
    }

    /// Overwrites the engine cursor — clock, result-deduplication set,
    /// and statistics — with checkpointed values (persistence support;
    /// called after the recovery replay rebuilt graph and Δ).
    pub fn restore_cursor(
        &mut self,
        now: Timestamp,
        emitted: impl IntoIterator<Item = ResultPair>,
        stats: EngineStats,
    ) {
        self.now = now;
        self.emitted = emitted.into_iter().collect();
        self.stats = stats;
    }

    /// Replaces the Δ index wholesale (persistence support: `Full`
    /// recovery restores the exact checkpointed forest).
    pub fn set_delta(&mut self, delta: Delta) {
        self.delta = delta;
    }

    /// Stream time of the last processed tuple.
    pub fn now(&self) -> Timestamp {
        self.now
    }

    /// Number of distinct result pairs currently reported.
    pub fn result_count(&self) -> usize {
        self.emitted.len()
    }

    /// Whether `pair` has been reported (and not invalidated).
    pub fn has_result(&self, pair: ResultPair) -> bool {
        self.emitted.contains(&pair)
    }

    /// Processes one streaming graph tuple, pushing any new results (and
    /// invalidations) into `sink`. Tuples must arrive in non-decreasing
    /// timestamp order.
    pub fn process<S: ResultSink>(&mut self, tuple: StreamTuple, sink: &mut S) {
        let prev = self.now;
        if tuple.ts > self.now {
            self.now = tuple.ts;
        }
        // Lazy expiry: fire once per crossed slide boundary (§3.1).
        if prev != Timestamp::NEG_INFINITY && self.config.window.crosses_slide(prev, self.now) {
            let wm = self.config.window.lazy_watermark(self.now);
            self.run_expiry(wm, false, sink);
        }
        self.apply_and_dispatch(tuple, sink);
    }

    /// Owned-graph tuple handling: mutate the graph, then run the
    /// read-only Δ traversal against it (the same split a shared-graph
    /// coordinator performs once per micro-batch).
    fn apply_and_dispatch<S: ResultSink>(&mut self, tuple: StreamTuple, sink: &mut S) {
        if self.query.dfa().knows_label(tuple.label) {
            match tuple.op {
                srpq_common::Op::Insert => {
                    self.graph
                        .insert(tuple.edge.src, tuple.edge.dst, tuple.label, tuple.ts);
                }
                srpq_common::Op::Delete => {
                    self.graph
                        .remove(tuple.edge.src, tuple.edge.dst, tuple.label);
                }
            }
        }
        let graph = std::mem::take(&mut self.graph);
        self.dispatch(&graph, Visibility::ALL, tuple, sink);
        self.graph = graph;
    }

    /// Processes a slide's worth of tuples at once: the batch is grouped
    /// by slide interval, so the boundary check and the (at most one)
    /// expiry pass run once per group instead of once per tuple. The
    /// result stream is byte-identical to feeding the same tuples
    /// through [`Self::process`] one at a time.
    pub fn process_batch<S: ResultSink>(&mut self, batch: &[StreamTuple], sink: &mut S) {
        let window = self.config.window;
        let mut i = 0;
        while i < batch.len() {
            let (len, group_now) = window.slide_group(self.now, &batch[i..], |t| t.ts);
            if self.now != Timestamp::NEG_INFINITY && window.crosses_slide(self.now, group_now) {
                self.now = group_now;
                let wm = window.lazy_watermark(group_now);
                self.run_expiry(wm, false, sink);
            }
            for &t in &batch[i..i + len] {
                if t.ts > self.now {
                    self.now = t.ts;
                }
                self.apply_and_dispatch(t, sink);
            }
            i += len;
        }
    }

    /// Forces an expiry pass at the current eager watermark (harness
    /// hook; normally expiry is driven by slide crossings).
    pub fn expire_now<S: ResultSink>(&mut self, sink: &mut S) {
        let wm = self.config.window.watermark(self.now);
        self.run_expiry(wm, false, sink);
    }

    /// The **read-only traversal path**: extends/expires Δ for one
    /// tuple against an external shared graph that has *already*
    /// absorbed this tuple's mutation (and possibly the whole
    /// micro-batch's — `vis` hides in-batch edges a sequential run
    /// would not have seen yet). The shared graph's slide-boundary
    /// purge is the coordinator's job; this path only maintains Δ.
    /// Convenience over [`Self::advance_with_graph`] (expiry hidden one
    /// position earlier, as for a *first* routing target) followed by
    /// [`Self::dispatch_with_graph`].
    pub fn extend_with_graph<S: ResultSink>(
        &mut self,
        graph: &WindowGraph,
        vis: Visibility,
        tuple: StreamTuple,
        sink: &mut S,
    ) {
        self.advance_with_graph(graph, vis.before(), tuple.ts, sink);
        self.dispatch_with_graph(graph, vis, tuple, sink);
    }

    /// Advances the clock to `ts` and, on a slide-boundary crossing,
    /// runs the lazy Δ-expiry pass against the shared graph at
    /// visibility `vis`. Split from [`Self::dispatch_with_graph`] so a
    /// multi-query coordinator can reproduce the sequential order
    /// exactly: the *first* routing target of a tuple expires before
    /// the tuple's graph mutation is visible, later targets after it.
    pub fn advance_with_graph<S: ResultSink>(
        &mut self,
        graph: &WindowGraph,
        vis: Visibility,
        ts: Timestamp,
        sink: &mut S,
    ) {
        let prev = self.now;
        if ts > self.now {
            self.now = ts;
        }
        if prev != Timestamp::NEG_INFINITY && self.config.window.crosses_slide(prev, self.now) {
            let t0 = std::time::Instant::now();
            self.stats.expiry_runs += 1;
            let wm = self.config.window.lazy_watermark(self.now);
            self.expire_delta(graph, vis, wm, false, sink);
            self.stats.expiry_nanos += t0.elapsed().as_nanos() as u64;
        }
    }

    /// Δ-side handling of one tuple against the shared graph (no clock
    /// movement — call [`Self::advance_with_graph`] first).
    pub fn dispatch_with_graph<S: ResultSink>(
        &mut self,
        graph: &WindowGraph,
        vis: Visibility,
        tuple: StreamTuple,
        sink: &mut S,
    ) {
        self.dispatch(graph, vis, tuple, sink);
    }

    /// Read-only eager expiry against an external shared graph (the
    /// shared counterpart of [`Self::expire_now`]; the caller purges
    /// the graph itself).
    pub fn expire_delta_with_graph<S: ResultSink>(
        &mut self,
        graph: &WindowGraph,
        vis: Visibility,
        sink: &mut S,
    ) {
        let t0 = std::time::Instant::now();
        self.stats.expiry_runs += 1;
        let wm = self.config.window.watermark(self.now);
        self.expire_delta(graph, vis, wm, false, sink);
        self.stats.expiry_nanos += t0.elapsed().as_nanos() as u64;
    }

    /// Δ-side handling of one tuple: tree extension for inserts,
    /// subtree severing + reconnection for deletions. The graph
    /// mutation has already happened (owned path or coordinator).
    fn dispatch<S: ResultSink>(
        &mut self,
        graph: &WindowGraph,
        vis: Visibility,
        tuple: StreamTuple,
        sink: &mut S,
    ) {
        if !self.query.dfa().knows_label(tuple.label) {
            self.stats.tuples_discarded += 1;
            return;
        }
        match tuple.op {
            srpq_common::Op::Insert => self.dispatch_insert(graph, vis, tuple, sink),
            srpq_common::Op::Delete => self.dispatch_delete(graph, vis, tuple, sink),
        }
    }

    /// Processes a tuple against an **external, shared** window graph
    /// (multi-query evaluation: one graph, many Δ indexes). The engine's
    /// own graph must stay untouched between shared calls — do not mix
    /// [`Self::process`] and this method on one engine.
    pub fn process_with_graph<S: ResultSink>(
        &mut self,
        graph: &mut WindowGraph,
        tuple: StreamTuple,
        sink: &mut S,
    ) {
        std::mem::swap(&mut self.graph, graph);
        self.process(tuple, sink);
        std::mem::swap(&mut self.graph, graph);
    }

    /// [`Self::expire_now`] against an external shared graph.
    pub fn expire_now_with_graph<S: ResultSink>(&mut self, graph: &mut WindowGraph, sink: &mut S) {
        std::mem::swap(&mut self.graph, graph);
        self.expire_now(sink);
        std::mem::swap(&mut self.graph, graph);
    }

    fn dispatch_insert<S: ResultSink>(
        &mut self,
        graph: &WindowGraph,
        vis: Visibility,
        tuple: StreamTuple,
        sink: &mut S,
    ) {
        let label = tuple.label;
        self.stats.tuples_processed += 1;
        let (u, v) = (tuple.edge.src, tuple.edge.dst);
        let wm = self.config.window.watermark(self.now);

        // Materialize T_u lazily: only a tuple with δ(s0, l) defined can
        // seed a tree rooted at its source vertex.
        let s0 = self.query.dfa().start();
        if self
            .query
            .dfa()
            .transitions_for(label)
            .iter()
            .any(|&(s, _)| s == s0)
        {
            self.delta.ensure_tree(u, s0);
        }

        // Lines 4–12 of Algorithm RAPQ, restricted to trees that can
        // actually extend (reverse index).
        let mut roots = std::mem::take(&mut self.roots_scratch);
        self.delta.collect_trees_containing(u, &mut roots);
        for &root in &roots {
            self.extend_tree_with_edge(graph, vis, root, u, v, label, tuple.ts, wm, sink);
        }
        self.roots_scratch = roots;
    }

    /// For one tree: try every DFA transition `(s, t)` on `label` with
    /// parent `(u, s)` and child `(v, t)`.
    #[allow(clippy::too_many_arguments)]
    fn extend_tree_with_edge<S: ResultSink>(
        &mut self,
        graph: &WindowGraph,
        vis: Visibility,
        root: VertexId,
        u: VertexId,
        v: VertexId,
        label: Label,
        edge_ts: Timestamp,
        wm: Timestamp,
        sink: &mut S,
    ) {
        let mut work = std::mem::take(&mut self.work);
        work.clear();
        {
            let Some(tree) = self.delta.tree(root) else {
                self.work = work;
                return;
            };
            for &(s, t) in self.query.dfa().transitions_for(label) {
                let child = (v, t);
                let Some(pid) = tree.first_occurrence((u, s)) else {
                    continue;
                };
                let Some(pts) = tree.ts_of(pid) else { continue };
                if pts <= wm {
                    continue; // parent expired (line 6 guard)
                }
                if Self::should_insert(tree, child, pts, edge_ts) {
                    work.push(WorkItem {
                        parent_id: pid,
                        child,
                        via: label,
                        edge_ts,
                    });
                }
            }
        }
        if !work.is_empty() {
            let (tree, idx) = self
                .delta
                .tree_with_index(root)
                .expect("tree checked above");
            run_insert(
                tree,
                idx,
                &mut work,
                self.query.dfa(),
                graph,
                vis,
                self.config.refresh,
                self.config.dedup_results,
                wm,
                self.now,
                &mut self.emitted,
                &mut self.stats,
                sink,
            );
        }
        self.work = work;
    }

    /// The line-7 condition of Algorithm RAPQ: insert if the child is
    /// absent or its timestamp can be improved.
    #[inline]
    fn should_insert(
        tree: &Tree,
        child: NodeKey,
        parent_ts: Timestamp,
        edge_ts: Timestamp,
    ) -> bool {
        match tree.ts(child) {
            None => true,
            Some(cts) => cts < parent_ts.min(edge_ts),
        }
    }

    fn dispatch_delete<S: ResultSink>(
        &mut self,
        graph: &WindowGraph,
        vis: Visibility,
        tuple: StreamTuple,
        sink: &mut S,
    ) {
        let label = tuple.label;
        self.stats.tuples_processed += 1;
        self.stats.deletions_processed += 1;
        let (u, v) = (tuple.edge.src, tuple.edge.dst);
        let wm = self.config.window.watermark(self.now);

        // Algorithm Delete: find trees where (u,s) → (v,t) is a
        // tree-edge (Definition 13), mark the severed subtree with -∞,
        // then run the expiry machinery to prune/reconnect.
        let mut roots = std::mem::take(&mut self.roots_scratch);
        self.delta.collect_trees_containing(v, &mut roots);
        for &root in &roots {
            let mut dirty = false;
            if let Some(tree) = self.delta.tree_mut(root) {
                for &(s, t) in self.query.dfa().transitions_for(label) {
                    let key = (v, t);
                    if let Some(node) = tree.get(key) {
                        if node.via_label == label && tree.parent_key(key) == Some((u, s)) {
                            tree.set_subtree_ts_key(key, Timestamp::NEG_INFINITY);
                            dirty = true;
                        }
                    }
                }
            }
            if dirty {
                self.expire_tree(graph, vis, root, wm, true, sink);
                self.delta.drop_if_trivial(root);
            }
        }
        self.roots_scratch = roots;
        self.refresh_delta_gauges();
    }

    /// Runs `ExpiryRAPQ` over every tree (owned-graph path): purge the
    /// graph, prune expired nodes, attempt reconnection via surviving
    /// window edges, optionally invalidate results that lost their last
    /// witness.
    fn run_expiry<S: ResultSink>(&mut self, wm: Timestamp, invalidate: bool, sink: &mut S) {
        let t0 = std::time::Instant::now();
        self.stats.expiry_runs += 1;
        self.graph.purge_expired(wm);
        let graph = std::mem::take(&mut self.graph);
        self.expire_delta(&graph, Visibility::ALL, wm, invalidate, sink);
        self.graph = graph;
        self.stats.expiry_nanos += t0.elapsed().as_nanos() as u64;
    }

    /// The Δ-only part of `ExpiryRAPQ`, over a borrowed (possibly
    /// shared) graph.
    fn expire_delta<S: ResultSink>(
        &mut self,
        graph: &WindowGraph,
        vis: Visibility,
        wm: Timestamp,
        invalidate: bool,
        sink: &mut S,
    ) {
        let mut roots = std::mem::take(&mut self.expire_roots_scratch);
        self.delta.collect_roots(&mut roots);
        for &root in &roots {
            self.expire_tree(graph, vis, root, wm, invalidate, sink);
            self.delta.drop_if_trivial(root);
        }
        self.expire_roots_scratch = roots;
        self.refresh_delta_gauges();
    }

    /// Refreshes the arena-occupancy gauges, sampled once per expiry
    /// sweep / deletion (the natural per-slide observation points).
    fn refresh_delta_gauges(&mut self) {
        self.stats.delta_nodes_live = self.delta.n_nodes() as u64;
        self.stats.delta_capacity = self.delta.n_slots() as u64;
    }

    /// `ExpiryRAPQ` for a single tree.
    #[allow(clippy::too_many_arguments)]
    fn expire_tree<S: ResultSink>(
        &mut self,
        graph: &WindowGraph,
        vis: Visibility,
        root: VertexId,
        wm: Timestamp,
        invalidate: bool,
        sink: &mut S,
    ) {
        let mut work = std::mem::take(&mut self.work);
        work.clear();
        let mut expired = std::mem::take(&mut self.expired_scratch);

        let Some((tree, idx)) = self.delta.tree_with_index(root) else {
            self.work = work;
            self.expired_scratch = expired;
            return;
        };
        // Lines 2–3: candidate set P (downward-closed by the timestamp
        // monotonicity invariant) and prune, fused into one threshold
        // scan over the contiguous timestamp column (the keys land in a
        // reusable scratch buffer for the reconnection pass below).
        tree.remove_expired_keys(wm, &mut expired);
        if expired.is_empty() {
            self.work = work;
            self.expired_scratch = expired;
            return;
        }
        for &(ev, _) in &expired {
            idx.note_removed(root, ev);
        }

        // Lines 4–10: reconnection. A candidate (v, t) reattaches if some
        // valid in-edge (u, v) comes from a live (u, s) with δ(s,l) = t;
        // Insert then re-expands its former subtree from graph edges.
        // `transitions_into` × the label-partitioned in-lists visit only
        // the in-edges whose label can actually reach state `et`.
        for &(ev, et) in &expired {
            let adj = graph.in_view_at(ev, vis);
            for &(s, label) in self.query.dfa().transitions_into(et) {
                for e in adj.edges(label, wm) {
                    let Some(pid) = tree.first_occurrence((e.other, s)) else {
                        continue;
                    };
                    let Some(pts) = tree.ts_of(pid) else { continue };
                    if pts <= wm {
                        continue;
                    }
                    if Self::should_insert(tree, (ev, et), pts, e.ts) {
                        work.push(WorkItem {
                            parent_id: pid,
                            child: (ev, et),
                            via: label,
                            edge_ts: e.ts,
                        });
                        run_insert(
                            tree,
                            idx,
                            &mut work,
                            self.query.dfa(),
                            graph,
                            vis,
                            self.config.refresh,
                            self.config.dedup_results,
                            wm,
                            self.now,
                            &mut self.emitted,
                            &mut self.stats,
                            sink,
                        );
                    }
                }
            }
        }

        // Lines 11–15: permanently removed accepting nodes may
        // invalidate results (only meaningful for explicit deletions;
        // window expiry keeps implicit-window monotonicity).
        let mut permanently_removed = 0u64;
        for &(ev, et) in &expired {
            if !tree.contains((ev, et)) {
                permanently_removed += 1;
                if invalidate
                    && self.config.report_invalidations
                    && self.query.dfa().is_accepting(et)
                {
                    // Another accepting occurrence of `ev` may survive.
                    let witnessed = self
                        .query
                        .dfa()
                        .accepting_states()
                        .any(|f| tree.contains((ev, f)));
                    if !witnessed {
                        let pair = ResultPair::new(root, ev);
                        if self.emitted.remove(&pair) {
                            self.stats.results_invalidated += 1;
                            sink.invalidate(pair, self.now);
                        }
                    }
                }
            }
        }
        self.stats.nodes_expired += permanently_removed;

        // Per-slide compaction: defragment the arena once occupancy
        // drops to half, so long-running windows keep the timestamp
        // scan dense.
        let mut remap = std::mem::take(&mut self.compact_scratch);
        if tree.maybe_compact(&mut remap) {
            self.stats.compactions += 1;
        }
        self.compact_scratch = remap;
        self.work = work;
        self.expired_scratch = expired;
    }
}

/// The iterative core of Algorithm Insert: drains `work`, attaching or
/// refreshing nodes and expanding fresh nodes through valid window edges.
///
/// Free function (rather than a method) so the engine can hold disjoint
/// borrows of the tree, the reverse index, and the graph.
#[allow(clippy::too_many_arguments)]
fn run_insert<S: ResultSink>(
    tree: &mut Tree,
    idx: &mut RevIndex,
    work: &mut Vec<WorkItem>,
    dfa: &Dfa,
    graph: &WindowGraph,
    vis: Visibility,
    refresh: RefreshPolicy,
    dedup: bool,
    wm: Timestamp,
    now: Timestamp,
    emitted: &mut FxHashSet<ResultPair>,
    stats: &mut EngineStats,
    sink: &mut S,
) {
    let root = tree.root();
    while let Some(WorkItem {
        parent_id,
        child,
        via,
        edge_ts,
    }) = work.pop()
    {
        stats.insert_calls += 1;
        // Re-validate: the tree may have changed since this item was
        // pushed (conditions are monotone, so re-checking is safe).
        // Nothing is removed while work drains, so the parent id is
        // stable and this is a single column read.
        let Some(pts) = tree.ts_of(parent_id) else {
            continue;
        };
        if pts <= wm {
            continue;
        }
        let new_ts = edge_ts.min(pts);
        if new_ts <= wm {
            continue; // the connecting edge itself has expired
        }
        match tree.first_occurrence(child) {
            Some(cid) => {
                // Timestamp refresh (Algorithm RAPQ line 7 / Insert
                // lines 2–3). The paper re-points the parent without
                // re-expanding; `RefreshPolicy` exposes the variants.
                let Some(cts) = tree.ts_of(cid) else { continue };
                if cts >= new_ts {
                    continue;
                }
                match refresh {
                    RefreshPolicy::None => {}
                    RefreshPolicy::Node => {
                        tree.reparent(cid, parent_id, via, new_ts);
                    }
                    RefreshPolicy::Subtree => {
                        tree.reparent(cid, parent_id, via, new_ts);
                        // Propagate the improvement: any neighbour whose
                        // timestamp can now improve through this node is
                        // re-examined — both current children and nodes
                        // that would re-parent under the fresher path.
                        // Timestamps only ever increase, so this
                        // fixpoint terminates.
                        let (cv, cs) = child;
                        let adj = graph.out_view_at(cv, vis);
                        for &(label, q) in dfa.transitions_from(cs) {
                            for e in adj.edges(label, wm) {
                                let target = (e.other, q);
                                // Absent targets matter too: an edge that
                                // arrived while this node looked expired
                                // was never expanded through.
                                let improvable = match tree.ts(target) {
                                    None => true,
                                    Some(ts0) => ts0 < new_ts.min(e.ts),
                                };
                                if improvable {
                                    work.push(WorkItem {
                                        parent_id: cid,
                                        child: target,
                                        via: label,
                                        edge_ts: e.ts,
                                    });
                                }
                            }
                        }
                    }
                }
            }
            None => {
                let id = tree.add_child(parent_id, child.0, child.1, via, new_ts);
                idx.note_added(root, child.0);
                let (cv, cs) = child;
                if dfa.is_accepting(cs) {
                    let pair = ResultPair::new(root, cv);
                    let fresh = emitted.insert(pair);
                    if fresh || !dedup {
                        stats.results_emitted += 1;
                        sink.emit(pair, now);
                    }
                }
                // Lines 8–11 of Insert: expand through valid window
                // edges out of the new node. The DFA's per-state
                // transition list × the label-partitioned adjacency
                // touches exactly the matching edges, allocation-free.
                let adj = graph.out_view_at(cv, vis);
                for &(label, q) in dfa.transitions_from(cs) {
                    for e in adj.edges(label, wm) {
                        let target = (e.other, q);
                        let cond = match tree.ts(target) {
                            None => true,
                            Some(ts0) => ts0 < new_ts.min(e.ts),
                        };
                        if cond {
                            work.push(WorkItem {
                                parent_id: id,
                                child: target,
                                via: label,
                                edge_ts: e.ts,
                            });
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::CollectSink;
    use srpq_common::{LabelInterner, VertexInterner};
    use srpq_graph::WindowPolicy;

    /// Builds the Figure 1(a) stream: Q1 = (follows ◦ mentions)+,
    /// |W| = 15. Returns (engine, sink-ready vertex ids, labels).
    struct Fixture {
        engine: RapqEngine,
        verts: VertexInterner,
        labels: LabelInterner,
    }

    fn fig1_engine(refresh: RefreshPolicy, slide: i64) -> Fixture {
        let mut labels = LabelInterner::new();
        let query = CompiledQuery::compile("(follows mentions)+", &mut labels).unwrap();
        let mut config = EngineConfig::with_window(WindowPolicy::new(15, slide));
        config.refresh = refresh;
        let engine = RapqEngine::new(query, config);
        let mut verts = VertexInterner::new();
        for name in ["x", "y", "z", "u", "v", "w"] {
            verts.intern(name);
        }
        Fixture {
            engine,
            verts,
            labels,
        }
    }

    /// The Figure 1(a) tuple stream up to (and including) time `until`.
    fn fig1_stream(f: &Fixture, until: i64) -> Vec<StreamTuple> {
        let v = |n: &str| f.verts.get(n).unwrap();
        let l = |n: &str| f.labels.get(n).unwrap();
        let raw = [
            (4, "y", "u", "mentions"),
            (6, "x", "z", "follows"),
            (9, "u", "v", "follows"),
            (11, "z", "w", "mentions"),
            (13, "x", "y", "follows"),
            (14, "z", "u", "mentions"),
            (15, "u", "x", "mentions"),
            (18, "v", "y", "mentions"),
            (19, "w", "u", "follows"),
        ];
        raw.iter()
            .filter(|&&(ts, ..)| ts <= until)
            .map(|&(ts, a, b, lab)| StreamTuple::insert(Timestamp(ts), v(a), v(b), l(lab)))
            .collect()
    }

    fn node(
        f: &Fixture,
        root: &str,
        vertex: &str,
        state: u32,
    ) -> Option<(Option<NodeKey>, Timestamp)> {
        let tree = f.engine.delta.tree(f.verts.get(root).unwrap())?;
        let key = (f.verts.get(vertex).unwrap(), srpq_common::StateId(state));
        tree.get(key).map(|n| (tree.parent_key(key), n.ts))
    }

    #[test]
    fn figure_2a_tree_shape_without_refresh() {
        // RefreshPolicy::None reproduces Figure 2(a) exactly: slide large
        // enough that no expiry pass runs before t=18.
        let mut f = fig1_engine(RefreshPolicy::None, 1000);
        let mut sink = CollectSink::default();
        for t in fig1_stream(&f, 18) {
            f.engine.process(t, &mut sink);
        }
        let v = |n: &str| f.verts.get(n).unwrap();
        let s = |i: u32| srpq_common::StateId(i);

        // T_x nodes with parents and timestamps as drawn.
        assert_eq!(
            node(&f, "x", "y", 1),
            Some((Some((v("x"), s(0))), Timestamp(13)))
        );
        assert_eq!(
            node(&f, "x", "z", 1),
            Some((Some((v("x"), s(0))), Timestamp(6)))
        );
        assert_eq!(
            node(&f, "x", "u", 2),
            Some((Some((v("y"), s(1))), Timestamp(4)))
        );
        assert_eq!(
            node(&f, "x", "v", 1),
            Some((Some((v("u"), s(2))), Timestamp(4)))
        );
        assert_eq!(
            node(&f, "x", "y", 2),
            Some((Some((v("v"), s(1))), Timestamp(4)))
        );
        assert_eq!(
            node(&f, "x", "w", 2),
            Some((Some((v("z"), s(1))), Timestamp(6)))
        );
        // Result (x, y) reported at t=18 (Example in §1).
        assert!(f.engine.has_result(ResultPair::new(v("x"), v("y"))));
        f.engine.delta.validate().unwrap();
    }

    #[test]
    fn pseudocode_refresh_reparents_at_t14() {
        // With the paper's pseudocode condition (RefreshPolicy::Node),
        // the arrival of (z → u, mentions) at t=14 refreshes (u, 2) under
        // (z, 1) with timestamp 6 — see DESIGN.md on the Figure 2(a)
        // discrepancy.
        let mut f = fig1_engine(RefreshPolicy::Node, 1000);
        let mut sink = CollectSink::default();
        for t in fig1_stream(&f, 18) {
            f.engine.process(t, &mut sink);
        }
        let v = |n: &str| f.verts.get(n).unwrap();
        let s = |i: u32| srpq_common::StateId(i);
        assert_eq!(
            node(&f, "x", "u", 2),
            Some((Some((v("z"), s(1))), Timestamp(6)))
        );
        // Descendants keep their stale (smaller) timestamps.
        assert_eq!(
            node(&f, "x", "v", 1),
            Some((Some((v("u"), s(2))), Timestamp(4)))
        );
        f.engine.delta.validate().unwrap();
    }

    #[test]
    fn figure_2b_after_expiry_at_t19() {
        // With slide = 1 the expiry pass at t=19 prunes the ts=4 chain
        // and reconnects (u,2) through the valid edge (z → u, 14),
        // yielding the Figure 2(b) tree.
        let mut f = fig1_engine(RefreshPolicy::None, 1);
        let mut sink = CollectSink::default();
        for t in fig1_stream(&f, 19) {
            f.engine.process(t, &mut sink);
        }
        let v = |n: &str| f.verts.get(n).unwrap();
        let s = |i: u32| srpq_common::StateId(i);

        assert_eq!(
            node(&f, "x", "y", 1),
            Some((Some((v("x"), s(0))), Timestamp(13)))
        );
        // Reconnected chain, all at ts 6.
        assert_eq!(
            node(&f, "x", "u", 2),
            Some((Some((v("z"), s(1))), Timestamp(6)))
        );
        assert_eq!(
            node(&f, "x", "v", 1),
            Some((Some((v("u"), s(2))), Timestamp(6)))
        );
        assert_eq!(
            node(&f, "x", "y", 2),
            Some((Some((v("v"), s(1))), Timestamp(6)))
        );
        // New nodes from the t=19 edge (w → u, follows).
        assert_eq!(
            node(&f, "x", "u", 1),
            Some((Some((v("w"), s(2))), Timestamp(6)))
        );
        assert_eq!(
            node(&f, "x", "x", 2),
            Some((Some((v("u"), s(1))), Timestamp(6)))
        );
        assert_eq!(
            node(&f, "x", "w", 2),
            Some((Some((v("z"), s(1))), Timestamp(6)))
        );
        f.engine.delta.validate().unwrap();
    }

    #[test]
    fn emits_pair_for_even_alternating_path() {
        let mut f = fig1_engine(RefreshPolicy::Node, 1);
        let mut sink = CollectSink::default();
        for t in fig1_stream(&f, 19) {
            f.engine.process(t, &mut sink);
        }
        let v = |n: &str| f.verts.get(n).unwrap();
        let pairs = sink.pairs();
        // (x, y) via x→y→u→v→y at t=18 and (x, x) via the cycle at 19.
        assert!(pairs.contains(&ResultPair::new(v("x"), v("y"))));
        assert!(pairs.contains(&ResultPair::new(v("x"), v("x"))));
    }

    #[test]
    fn foreign_labels_are_discarded() {
        let mut f = fig1_engine(RefreshPolicy::Node, 1);
        let mut labels = f.labels.clone();
        let likes = labels.intern("likes");
        let mut sink = CollectSink::default();
        let x = f.verts.get("x").unwrap();
        let y = f.verts.get("y").unwrap();
        f.engine
            .process(StreamTuple::insert(Timestamp(1), x, y, likes), &mut sink);
        assert_eq!(f.engine.stats().tuples_discarded, 1);
        assert_eq!(f.engine.stats().tuples_processed, 0);
        assert_eq!(f.engine.graph().n_edges(), 0);
    }

    #[test]
    fn window_separates_old_and_new_edges() {
        // a ◦ b with |W| = 5: edges 10 apart never form a result.
        let mut labels = LabelInterner::new();
        let query = CompiledQuery::compile("a b", &mut labels).unwrap();
        let config = EngineConfig::with_window(WindowPolicy::new(5, 1));
        let mut engine = RapqEngine::new(query, config);
        let a = labels.get("a").unwrap();
        let b = labels.get("b").unwrap();
        let (v0, v1, v2) = (VertexId(0), VertexId(1), VertexId(2));
        let mut sink = CollectSink::default();
        engine.process(StreamTuple::insert(Timestamp(1), v0, v1, a), &mut sink);
        engine.process(StreamTuple::insert(Timestamp(11), v1, v2, b), &mut sink);
        assert!(sink.pairs().is_empty());

        // Within the window it does.
        engine.process(StreamTuple::insert(Timestamp(12), v0, v1, a), &mut sink);
        assert_eq!(sink.pairs().len(), 1);
        assert!(engine.has_result(ResultPair::new(v0, v2)));
    }

    #[test]
    fn results_require_all_edges_in_one_window() {
        // Definition 9: all edges of a witness path must be < |W| apart.
        let mut labels = LabelInterner::new();
        let query = CompiledQuery::compile("a+", &mut labels).unwrap();
        let config = EngineConfig::with_window(WindowPolicy::new(10, 1));
        let mut engine = RapqEngine::new(query, config);
        let a = labels.get("a").unwrap();
        let mut sink = CollectSink::default();
        // Chain 0→1→2 with a gap: 0→1 at t=1, 1→2 at t=20.
        engine.process(
            StreamTuple::insert(Timestamp(1), VertexId(0), VertexId(1), a),
            &mut sink,
        );
        engine.process(
            StreamTuple::insert(Timestamp(20), VertexId(1), VertexId(2), a),
            &mut sink,
        );
        let pairs = sink.pairs();
        assert!(pairs.contains(&ResultPair::new(VertexId(0), VertexId(1))));
        assert!(pairs.contains(&ResultPair::new(VertexId(1), VertexId(2))));
        assert!(!pairs.contains(&ResultPair::new(VertexId(0), VertexId(2))));
    }

    #[test]
    fn explicit_delete_invalidates_results() {
        let mut labels = LabelInterner::new();
        let query = CompiledQuery::compile("a b", &mut labels).unwrap();
        let config = EngineConfig::with_window(WindowPolicy::new(100, 1));
        let mut engine = RapqEngine::new(query, config);
        let a = labels.get("a").unwrap();
        let b = labels.get("b").unwrap();
        let (v0, v1, v2) = (VertexId(0), VertexId(1), VertexId(2));
        let mut sink = CollectSink::default();
        engine.process(StreamTuple::insert(Timestamp(1), v0, v1, a), &mut sink);
        engine.process(StreamTuple::insert(Timestamp(2), v1, v2, b), &mut sink);
        assert!(engine.has_result(ResultPair::new(v0, v2)));

        engine.process(StreamTuple::delete(Timestamp(3), v0, v1, a), &mut sink);
        assert!(!engine.has_result(ResultPair::new(v0, v2)));
        assert_eq!(sink.invalidated().len(), 1);
        assert_eq!(engine.stats().deletions_processed, 1);
        engine.delta.validate().unwrap();
    }

    #[test]
    fn delete_with_alternative_witness_keeps_result() {
        // Two parallel a-edges from 0 to 1: deleting one leaves the
        // result derivable... but they are the same (src,dst,label) edge,
        // so use two distinct intermediate vertices instead.
        let mut labels = LabelInterner::new();
        let query = CompiledQuery::compile("a b", &mut labels).unwrap();
        let config = EngineConfig::with_window(WindowPolicy::new(100, 1));
        let mut engine = RapqEngine::new(query, config);
        let a = labels.get("a").unwrap();
        let b = labels.get("b").unwrap();
        let (v0, v1, v2, v3) = (VertexId(0), VertexId(1), VertexId(2), VertexId(3));
        let mut sink = CollectSink::default();
        // 0 →a 1 →b 3 and 0 →a 2 →b 3.
        engine.process(StreamTuple::insert(Timestamp(1), v0, v1, a), &mut sink);
        engine.process(StreamTuple::insert(Timestamp(2), v1, v3, b), &mut sink);
        engine.process(StreamTuple::insert(Timestamp(3), v0, v2, a), &mut sink);
        engine.process(StreamTuple::insert(Timestamp(4), v2, v3, b), &mut sink);
        assert!(engine.has_result(ResultPair::new(v0, v3)));

        // Deleting the first witness keeps the result via the second.
        engine.process(StreamTuple::delete(Timestamp(5), v0, v1, a), &mut sink);
        assert!(engine.has_result(ResultPair::new(v0, v3)));
        assert!(sink.invalidated().is_empty());

        // Deleting the second witness finally invalidates.
        engine.process(StreamTuple::delete(Timestamp(6), v0, v2, a), &mut sink);
        assert!(!engine.has_result(ResultPair::new(v0, v3)));
        assert_eq!(sink.invalidated().len(), 1);
    }

    #[test]
    fn delete_of_nontree_edge_is_cheap() {
        let mut labels = LabelInterner::new();
        let query = CompiledQuery::compile("a+", &mut labels).unwrap();
        let config = EngineConfig::with_window(WindowPolicy::new(100, 1));
        let mut engine = RapqEngine::new(query, config);
        let a = labels.get("a").unwrap();
        let (v0, v1) = (VertexId(0), VertexId(1));
        let mut sink = CollectSink::default();
        engine.process(StreamTuple::insert(Timestamp(1), v0, v1, a), &mut sink);
        // (1 → 0) creates the cycle; both (0,1) and (1,0) are results.
        engine.process(StreamTuple::insert(Timestamp(2), v1, v0, a), &mut sink);
        assert!(engine.has_result(ResultPair::new(v0, v0)));

        // Delete an edge that is a tree edge in T_1 but not in T_0's
        // subtree rooted deeper — either way the engine stays consistent.
        engine.process(StreamTuple::delete(Timestamp(3), v1, v0, a), &mut sink);
        assert!(engine.has_result(ResultPair::new(v0, v1)));
        assert!(!engine.has_result(ResultPair::new(v0, v0)));
        engine.delta.validate().unwrap();
    }

    #[test]
    fn expiry_reduces_index_size() {
        let mut labels = LabelInterner::new();
        let query = CompiledQuery::compile("a+", &mut labels).unwrap();
        let config = EngineConfig::with_window(WindowPolicy::new(10, 5));
        let mut engine = RapqEngine::new(query, config);
        let a = labels.get("a").unwrap();
        let mut sink = CollectSink::default();
        for i in 0..20u32 {
            engine.process(
                StreamTuple::insert(Timestamp(i as i64), VertexId(i), VertexId(i + 1), a),
                &mut sink,
            );
        }
        // Old chain prefixes must have been expired.
        let size = engine.index_size();
        assert!(size.nodes < 20 * 20, "index did not shrink: {size:?}");
        // Process far-future tuple: everything old expires.
        engine.process(
            StreamTuple::insert(Timestamp(1000), VertexId(100), VertexId(101), a),
            &mut sink,
        );
        engine.expire_now(&mut sink);
        let size = engine.index_size();
        assert!(size.nodes <= 3, "stale nodes linger: {size:?}");
        engine.delta.validate().unwrap();
    }

    #[test]
    fn duplicate_results_are_deduplicated() {
        let mut labels = LabelInterner::new();
        let query = CompiledQuery::compile("a", &mut labels).unwrap();
        let config = EngineConfig::with_window(WindowPolicy::new(100, 1));
        let mut engine = RapqEngine::new(query, config);
        let a = labels.get("a").unwrap();
        let mut sink = CollectSink::default();
        let t = StreamTuple::insert(Timestamp(1), VertexId(0), VertexId(1), a);
        engine.process(t, &mut sink);
        let t2 = StreamTuple::insert(Timestamp(2), VertexId(0), VertexId(1), a);
        engine.process(t2, &mut sink);
        assert_eq!(sink.emitted().len(), 1);
        assert_eq!(engine.stats().results_emitted, 1);
    }

    #[test]
    fn refresh_policies_agree_on_results() {
        // All three refresh policies must produce the same result set on
        // the Figure 1 stream (they only differ in tree bookkeeping).
        let mut all_pairs = Vec::new();
        for policy in [
            RefreshPolicy::None,
            RefreshPolicy::Node,
            RefreshPolicy::Subtree,
        ] {
            let mut f = fig1_engine(policy, 1);
            let mut sink = CollectSink::default();
            for t in fig1_stream(&f, 19) {
                f.engine.process(t, &mut sink);
            }
            f.engine.delta.validate().unwrap();
            let mut pairs: Vec<_> = sink.pairs().into_iter().collect();
            pairs.sort_unstable();
            all_pairs.push(pairs);
        }
        assert_eq!(all_pairs[0], all_pairs[1]);
        assert_eq!(all_pairs[1], all_pairs[2]);
    }

    #[test]
    fn self_loop_accepting_path() {
        let mut labels = LabelInterner::new();
        let query = CompiledQuery::compile("a+", &mut labels).unwrap();
        let config = EngineConfig::with_window(WindowPolicy::new(100, 1));
        let mut engine = RapqEngine::new(query, config);
        let a = labels.get("a").unwrap();
        let mut sink = CollectSink::default();
        engine.process(
            StreamTuple::insert(Timestamp(1), VertexId(0), VertexId(0), a),
            &mut sink,
        );
        assert!(engine.has_result(ResultPair::new(VertexId(0), VertexId(0))));
    }
}
