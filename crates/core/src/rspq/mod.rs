//! Algorithm RSPQ: streaming RPQ evaluation under simple path semantics
//! (§4 of the paper).
//!
//! RSPQ evaluation is NP-hard in general (Mendelzon & Wood), but
//! tractable in the absence of *conflicts* — situations where a product
//! graph traversal revisits a vertex in two states whose suffix
//! languages are not contained (Definition 16). The streaming algorithm
//! mirrors Algorithm RAPQ but:
//!
//! * a traversal may revisit a vertex when suffix-language containment
//!   proves a simple witness path exists (Theorem 4);
//! * each tree keeps a set of **markings** `M_x` — pairs with no
//!   conflict-predecessor descendants — that prune redundant traversal;
//! * when a late-arriving edge reveals a conflict, `Unmark` removes the
//!   ancestors of the conflict predecessor from `M_x` and replays the
//!   traversals that were previously pruned because of those marks.

pub mod markings;

use crate::bitset::GenBitSet;
use crate::config::EngineConfig;
use crate::delta::{Forest, NodeId, PairKey, RevIndex};
use crate::sink::ResultSink;
use crate::stats::{EngineStats, IndexSize};
use markings::Markings;
use srpq_automata::{CompiledQuery, ContainmentTable, Dfa};
use srpq_common::{FxHashSet, Label, ResultPair, StateId, StreamTuple, Timestamp, VertexId};
use srpq_graph::{Visibility, WindowGraph};

/// An RSPQ spanning tree `T_x` with markings `M_x`: the shared arena
/// instantiated with the [`Markings`] semantics.
pub type SpTree = crate::delta::Tree<Markings>;

/// The Δ index for simple path semantics: the shared forest under
/// [`Markings`] semantics.
pub type SpDelta = Forest<Markings>;

/// A deferred `Extend` invocation: try to attach `(vertex, state)` under
/// arena node `parent_id` via an edge labeled `via`.
#[derive(Debug, Clone, Copy)]
struct ExtendItem {
    parent_id: NodeId,
    vertex: VertexId,
    state: StateId,
    via: Label,
    edge_ts: Timestamp,
}

/// The `(vertex, state)` product-pair bit for the generation-stamped
/// frontier bitsets: vertex slots are dense (interned), the DFA state
/// count (`stride`) is a small per-query constant.
#[inline]
fn pair_bit(v: VertexId, s: StateId, stride: u64) -> u64 {
    v.0 as u64 * stride + s.0 as u64
}

/// The streaming RSPQ engine (Algorithm RSPQ + Extend + Unmark +
/// ExpiryRSPQ).
pub struct RspqEngine {
    query: CompiledQuery,
    config: EngineConfig,
    graph: WindowGraph,
    delta: SpDelta,
    emitted: FxHashSet<ResultPair>,
    now: Timestamp,
    stats: EngineStats,
    work: Vec<ExtendItem>,
    /// Per-tuple scratch: roots of the trees a tuple can extend.
    roots_scratch: Vec<VertexId>,
    /// Per-slide scratch: all tree roots during an expiry sweep.
    expire_roots_scratch: Vec<VertexId>,
    /// Per-slide scratch: `(pair, surviving parent)` of removed nodes.
    removed_scratch: Vec<(PairKey, Option<NodeId>)>,
    /// Per-reconnection scratch: occurrence-list copy (the list may
    /// shift while `run_extend` mutates the tree).
    occs_scratch: Vec<NodeId>,
    /// Per-delete scratch: tree-edge victims of one deletion.
    victims_scratch: Vec<NodeId>,
    /// Per-slide scratch: the compaction remap table.
    compact_scratch: Vec<NodeId>,
    /// Root-path membership bitset, rebuilt per extend item.
    path_bits: GenBitSet,
    /// Dead-mark membership bitset (pair domain).
    dead_mark_bits: GenBitSet,
    /// Invalidation dedup bitset (vertex domain).
    seen_bits: GenBitSet,
}

impl RspqEngine {
    /// Creates an engine for a registered query.
    pub fn new(query: CompiledQuery, config: EngineConfig) -> RspqEngine {
        RspqEngine {
            query,
            config,
            graph: WindowGraph::new(),
            delta: SpDelta::new(),
            emitted: FxHashSet::default(),
            now: Timestamp::NEG_INFINITY,
            stats: EngineStats::default(),
            work: Vec::new(),
            roots_scratch: Vec::new(),
            expire_roots_scratch: Vec::new(),
            removed_scratch: Vec::new(),
            occs_scratch: Vec::new(),
            victims_scratch: Vec::new(),
            compact_scratch: Vec::new(),
            path_bits: GenBitSet::new(),
            dead_mark_bits: GenBitSet::new(),
            seen_bits: GenBitSet::new(),
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

    /// Current Δ index size.
    pub fn index_size(&self) -> IndexSize {
        IndexSize {
            trees: self.delta.n_trees(),
            nodes: self.delta.n_nodes(),
            arena_bytes: self.delta.arena_bytes(),
        }
    }

    /// The window graph.
    pub fn graph(&self) -> &WindowGraph {
        &self.graph
    }

    /// Direct access to the Δ index (tests/instrumentation).
    pub fn delta(&self) -> &SpDelta {
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
    pub fn set_delta(&mut self, delta: SpDelta) {
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

    /// Processes one streaming graph tuple (non-decreasing timestamps).
    pub fn process<S: ResultSink>(&mut self, tuple: StreamTuple, sink: &mut S) {
        let prev = self.now;
        if tuple.ts > self.now {
            self.now = tuple.ts;
        }
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

    /// The **read-only traversal path**: extends/expires Δ for one
    /// tuple against an external shared graph that has already absorbed
    /// this tuple's mutation; `vis` hides in-batch edges a sequential
    /// run would not have seen yet (see `RapqEngine::extend_with_graph`).
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
    /// runs the lazy Δ-expiry pass at visibility `vis` (see
    /// `RapqEngine::advance_with_graph`).
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

    /// Δ-side handling of one tuple; the graph mutation has already
    /// happened (owned path or coordinator).
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

    /// Forces an expiry pass at the current eager watermark.
    pub fn expire_now<S: ResultSink>(&mut self, sink: &mut S) {
        let wm = self.config.window.watermark(self.now);
        self.run_expiry(wm, false, sink);
    }

    /// Processes a tuple against an **external, shared** window graph
    /// (multi-query evaluation). Do not mix with [`Self::process`] on
    /// the same engine.
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

        let mut budget = self.config.rspq_extend_budget.unwrap_or(u64::MAX);
        let stride = self.query.dfa().n_states() as u64;
        let mut roots = std::mem::take(&mut self.roots_scratch);
        self.delta.collect_trees_containing(u, &mut roots);
        for &root in &roots {
            let mut work = std::mem::take(&mut self.work);
            work.clear();
            {
                let Some(tree) = self.delta.tree(root) else {
                    self.work = work;
                    continue;
                };
                // Lines 4–12 of Algorithm RSPQ: each live occurrence of
                // (u, s) may extend with (v, t) unless pruned by the
                // path-cycle or marking guards.
                for &(s, t) in self.query.dfa().transitions_for(label) {
                    for &occ in tree.occurrences((u, s)) {
                        let Some(occ_ts) = tree.ts_of(occ) else {
                            continue;
                        };
                        if occ_ts <= wm {
                            continue;
                        }
                        if tree.path_has(occ, v, t) || tree.is_marked((v, t)) {
                            continue;
                        }
                        work.push(ExtendItem {
                            parent_id: occ,
                            vertex: v,
                            state: t,
                            via: label,
                            edge_ts: tuple.ts,
                        });
                    }
                }
            }
            if !work.is_empty() {
                let (tree, idx) = self.delta.tree_with_index(root).expect("tree exists");
                run_extend(
                    tree,
                    idx,
                    &mut work,
                    self.query.dfa(),
                    self.query.containment(),
                    graph,
                    vis,
                    self.config.dedup_results,
                    wm,
                    self.now,
                    &mut self.emitted,
                    &mut self.stats,
                    sink,
                    &mut budget,
                    &mut self.path_bits,
                    stride,
                );
            }
            self.work = work;
        }
        self.roots_scratch = roots;
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

        let mut roots = std::mem::take(&mut self.roots_scratch);
        self.delta.collect_trees_containing(v, &mut roots);
        let mut victims = std::mem::take(&mut self.victims_scratch);
        for &root in &roots {
            let mut dirty = false;
            if let Some(tree) = self.delta.tree_mut(root) {
                for &(s, t) in self.query.dfa().transitions_for(label) {
                    // Every occurrence of (v, t) whose tree edge is the
                    // deleted edge loses its subtree (Definition 13).
                    victims.clear();
                    victims.extend(tree.occurrences((v, t)).iter().copied().filter(|&id| {
                        tree.node(id)
                            .and_then(|n| {
                                let p = n.parent?;
                                let pn = tree.node(p)?;
                                Some(pn.vertex == u && pn.state == s && n.via_label == label)
                            })
                            .unwrap_or(false)
                    }));
                    for &id in &victims {
                        tree.set_subtree_ts(id, Timestamp::NEG_INFINITY);
                        dirty = true;
                    }
                }
            }
            if dirty {
                self.expire_tree(graph, vis, root, wm, true, sink);
                self.delta.drop_if_trivial(root);
            }
        }
        self.victims_scratch = victims;
        self.roots_scratch = roots;
        self.refresh_delta_gauges();
    }

    fn run_expiry<S: ResultSink>(&mut self, wm: Timestamp, invalidate: bool, sink: &mut S) {
        let t0 = std::time::Instant::now();
        self.stats.expiry_runs += 1;
        self.graph.purge_expired(wm);
        let graph = std::mem::take(&mut self.graph);
        self.expire_delta(&graph, Visibility::ALL, wm, invalidate, sink);
        self.graph = graph;
        self.stats.expiry_nanos += t0.elapsed().as_nanos() as u64;
    }

    /// The Δ-only part of `ExpiryRSPQ`, over a borrowed (possibly
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

    /// Refreshes the Δ occupancy gauges (live nodes vs arena slots)
    /// after structural churn.
    fn refresh_delta_gauges(&mut self) {
        self.stats.delta_nodes_live = self.delta.n_nodes() as u64;
        self.stats.delta_capacity = self.delta.n_slots() as u64;
    }

    /// `ExpiryRSPQ` for a single tree: prune expired nodes, reattempt
    /// extension for expired *marked* pairs (unmarked copies were
    /// already replayed by `Unmark` when their mark was removed), then
    /// restore markings that are no longer blocked and report
    /// invalidations.
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
        let stride = self.query.dfa().n_states() as u64;
        let Some((tree, idx)) = self.delta.tree_with_index(root) else {
            self.work = work;
            return;
        };
        // Lines 2–3 fused: one threshold scan over the contiguous
        // timestamp column removes the candidate set P and records, per
        // node, its pair and its parent when that parent survives the
        // sweep (the re-marking pass below needs exactly this).
        let mut removed_pairs = std::mem::take(&mut self.removed_scratch);
        tree.remove_expired_with_parents(wm, &mut removed_pairs);
        if removed_pairs.is_empty() {
            self.work = work;
            self.removed_scratch = removed_pairs;
            return;
        }
        let dead_marks = tree.take_dead_marks();
        for &((v, _), _) in &removed_pairs {
            idx.note_removed(root, v);
        }
        self.stats.nodes_expired += removed_pairs.len() as u64;

        // Reconnection for expired marked pairs (lines 6–11), visiting
        // only in-edges whose label can reach state `t`. The occurrence
        // list is copied into engine scratch because `run_extend`
        // mutates the tree while we iterate.
        let mut budget = self.config.rspq_extend_budget.unwrap_or(u64::MAX);
        let mut occs = std::mem::take(&mut self.occs_scratch);
        for &(v, t) in &dead_marks {
            if tree.is_marked((v, t)) {
                continue; // reconnected by an earlier candidate's replay
            }
            let adj = graph.in_view_at(v, vis);
            for &(s, label) in self.query.dfa().transitions_into(t) {
                for e in adj.edges(label, wm) {
                    occs.clear();
                    occs.extend_from_slice(tree.occurrences((e.other, s)));
                    for &occ in &occs {
                        let Some(occ_ts) = tree.ts_of(occ) else {
                            continue;
                        };
                        if occ_ts <= wm {
                            continue;
                        }
                        if tree.path_has(occ, v, t) || tree.is_marked((v, t)) {
                            continue;
                        }
                        work.push(ExtendItem {
                            parent_id: occ,
                            vertex: v,
                            state: t,
                            via: label,
                            edge_ts: e.ts,
                        });
                        run_extend(
                            tree,
                            idx,
                            &mut work,
                            self.query.dfa(),
                            self.query.containment(),
                            graph,
                            vis,
                            self.config.dedup_results,
                            wm,
                            self.now,
                            &mut self.emitted,
                            &mut self.stats,
                            sink,
                            &mut budget,
                            &mut self.path_bits,
                            stride,
                        );
                    }
                }
            }
        }
        self.occs_scratch = occs;

        // Lines 12–15: a permanently removed marked node may unblock its
        // parent's marking ("all siblings are in M_x" ⇒ the parent is no
        // longer a conflict predecessor).
        let dead_mark_bits = &mut self.dead_mark_bits;
        dead_mark_bits.reset();
        for &(v, t) in &dead_marks {
            dead_mark_bits.insert(pair_bit(v, t, stride));
        }
        for &(key, parent) in &removed_pairs {
            if !dead_mark_bits.contains(pair_bit(key.0, key.1, stride)) || tree.is_marked(key) {
                continue;
            }
            let Some(pid) = parent else { continue };
            let Some(pn) = tree.node(pid) else { continue };
            let pkey = (pn.vertex, pn.state);
            if tree.is_marked(pkey) {
                continue;
            }
            // Conservative guard: only re-mark when the pair has this
            // single occurrence, so the mark's canonical node is
            // unambiguous.
            if tree.occurrences(pkey).len() != 1 {
                continue;
            }
            let all_marked = tree.children(pid).all(|c| {
                tree.node(c)
                    .map(|cn| tree.is_marked((cn.vertex, cn.state)))
                    .unwrap_or(true)
            });
            if all_marked {
                tree.mark(pkey, pid);
            }
        }

        // Invalidations for accepting pairs that lost all witnesses.
        if invalidate && self.config.report_invalidations {
            let seen = &mut self.seen_bits;
            seen.reset();
            for &((v, t), _) in &removed_pairs {
                if !self.query.dfa().is_accepting(t) || !seen.insert(v.0 as u64) {
                    continue;
                }
                let witnessed = self
                    .query
                    .dfa()
                    .accepting_states()
                    .any(|f| tree.has_pair((v, f)));
                if !witnessed {
                    let pair = ResultPair::new(root, v);
                    if self.emitted.remove(&pair) {
                        self.stats.results_invalidated += 1;
                        sink.invalidate(pair, self.now);
                    }
                }
            }
        }

        // Per-slide compaction: once the batch removal leaves the arena
        // mostly dead, squeeze it (marks are remapped via the semantics
        // hook) so the next timestamp scan touches only live slots.
        let mut remap = std::mem::take(&mut self.compact_scratch);
        if tree.maybe_compact(&mut remap) {
            self.stats.compactions += 1;
        }
        self.compact_scratch = remap;
        tree.recycle_dead_marks(dead_marks);
        self.work = work;
        self.removed_scratch = removed_pairs;
    }
}

/// The iterative core of Algorithm Extend (+ Unmark as a sub-procedure):
/// drains `work`, attaching nodes, detecting conflicts, and replaying
/// pruned traversals after unmarking.
///
/// Per popped item the root path is walked **once** into `path_bits`
/// (generation-stamped, so clearing is O(1)); every subsequent on-path
/// test — the re-checked caller guard, the conflict probe, and the
/// per-out-edge cycle guard — is then a single bit read instead of a
/// pointer chase up the path.
#[allow(clippy::too_many_arguments)]
fn run_extend<S: ResultSink>(
    tree: &mut SpTree,
    idx: &mut RevIndex,
    work: &mut Vec<ExtendItem>,
    dfa: &Dfa,
    containment: &ContainmentTable,
    graph: &WindowGraph,
    vis: Visibility,
    dedup: bool,
    wm: Timestamp,
    now: Timestamp,
    emitted: &mut FxHashSet<ResultPair>,
    stats: &mut EngineStats,
    sink: &mut S,
    budget: &mut u64,
    path_bits: &mut GenBitSet,
    stride: u64,
) {
    let root = tree.root();
    while let Some(ExtendItem {
        parent_id,
        vertex,
        state,
        via,
        edge_ts,
    }) = work.pop()
    {
        if *budget == 0 {
            // Safety valve (EngineConfig::rspq_extend_budget): abandon
            // the remaining traversal of this tuple.
            work.clear();
            stats.budget_exhausted += 1;
            return;
        }
        *budget -= 1;
        stats.insert_calls += 1;
        let Some(p_ts) = tree.ts_of(parent_id) else {
            continue;
        };
        if p_ts <= wm {
            continue;
        }
        // One upward walk serves every on-path test for this item: set
        // the pair bit of each ancestor, and remember the state of the
        // occurrence of `vertex` closest to the root (the "first"
        // occurrence in path order) for the conflict probe below.
        path_bits.reset();
        let mut first_state = None;
        let mut cur = parent_id;
        while let Some((v, s, parent)) = tree.step_up(cur) {
            path_bits.insert(pair_bit(v, s, stride));
            if v == vertex {
                first_state = Some(s);
            }
            match parent {
                Some(p) => cur = p,
                None => break,
            }
        }
        // Re-check the caller guards — earlier items may have changed
        // the tree.
        if path_bits.contains(pair_bit(vertex, state, stride)) || tree.is_marked((vertex, state)) {
            continue;
        }
        // Conflict detection (Extend line 2): the first occurrence of
        // `vertex` on the prefix path must suffix-contain the new state.
        if let Some(q) = first_state {
            if !containment.contains(q, state) {
                stats.conflicts_detected += 1;
                unmark_and_replay(tree, parent_id, dfa, graph, vis, wm, work, stats);
                continue;
            }
        }
        // Re-visiting the tree root: containment held (checked above —
        // the root is on every prefix path), so every continuation from
        // (root, state) is mirrored by one from (root, s0) that the
        // root's own traversal explores, and the pair (root, root)
        // itself would only be witnessed by the empty path, which the
        // result semantics excludes. Prune.
        if vertex == root {
            continue;
        }
        let new_ts = edge_ts.min(p_ts);
        if new_ts <= wm {
            continue;
        }
        // Lines 5–13 of Extend: report, mark if first occurrence, attach.
        if dfa.is_accepting(state) {
            let pair = ResultPair::new(root, vertex);
            let fresh = emitted.insert(pair);
            if fresh || !dedup {
                stats.results_emitted += 1;
                sink.emit(pair, now);
            }
        }
        // Extend line 11: `add_child` marks first occurrences through
        // the `Markings` semantics hook.
        let id = tree.add_child(parent_id, vertex, state, via, new_ts);
        idx.note_added(root, vertex);
        // The new node's root path is its parent's plus itself — extend
        // the bitset so each out-edge's cycle guard is one bit read.
        path_bits.insert(pair_bit(vertex, state, stride));
        // Lines 14–18: expand through valid window edges (per-state DFA
        // transitions × label-partitioned adjacency: only matching
        // edges are visited, with no per-step allocation).
        let adj = graph.out_view_at(vertex, vis);
        for &(label, r) in dfa.transitions_from(state) {
            for e in adj.edges(label, wm) {
                if !path_bits.contains(pair_bit(e.other, r, stride))
                    && !tree.is_marked((e.other, r))
                {
                    work.push(ExtendItem {
                        parent_id: id,
                        vertex: e.other,
                        state: r,
                        via: label,
                        edge_ts: e.ts,
                    });
                }
            }
        }
    }
}

/// Algorithm Unmark: walk up from the conflict predecessor, removing
/// marks while present; then replay, for every unmarked pair, the
/// traversals that were previously pruned by that mark (all valid
/// in-edges landing in the pair from live occurrences).
#[allow(clippy::too_many_arguments)]
fn unmark_and_replay(
    tree: &mut SpTree,
    conflict_pred: NodeId,
    dfa: &Dfa,
    graph: &WindowGraph,
    vis: Visibility,
    wm: Timestamp,
    work: &mut Vec<ExtendItem>,
    stats: &mut EngineStats,
) {
    // Phase 1 (Unmark): walk up from the conflict predecessor along the
    // parent links, removing marks while present. No path
    // materialization — the deepest-first order of the old explicit
    // path vector is exactly the upward walk.
    let mut unmarked = 0usize;
    let mut cur = conflict_pred;
    while let Some((v, s, parent)) = tree.step_up(cur) {
        if !tree.unmark((v, s)) {
            break;
        }
        stats.nodes_unmarked += 1;
        unmarked += 1;
        match parent {
            Some(p) => cur = p,
            None => break,
        }
    }
    // Phase 2 (replay): revisit the same first `unmarked` ancestors.
    // The tree is only read here (pushes go to `work`), so the
    // occurrence slice is iterated in place.
    let mut cur = conflict_pred;
    for _ in 0..unmarked {
        let Some((v, t, parent)) = tree.step_up(cur) else {
            break;
        };
        let adj = graph.in_view_at(v, vis);
        for &(s, label) in dfa.transitions_into(t) {
            for e in adj.edges(label, wm) {
                for &occ in tree.occurrences((e.other, s)) {
                    let Some(occ_ts) = tree.ts_of(occ) else {
                        continue;
                    };
                    if occ_ts <= wm {
                        continue;
                    }
                    if tree.path_has(occ, v, t) {
                        continue;
                    }
                    work.push(ExtendItem {
                        parent_id: occ,
                        vertex: v,
                        state: t,
                        via: label,
                        edge_ts: e.ts,
                    });
                }
            }
        }
        match parent {
            Some(p) => cur = p,
            None => break,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::CollectSink;
    use srpq_common::{LabelInterner, VertexInterner};
    use srpq_graph::WindowPolicy;

    struct Fixture {
        engine: RspqEngine,
        verts: VertexInterner,
        labels: LabelInterner,
    }

    fn engine_for(query: &str, window: i64, slide: i64) -> Fixture {
        let mut labels = LabelInterner::new();
        let query = CompiledQuery::compile(query, &mut labels).unwrap();
        let config = EngineConfig::with_window(WindowPolicy::new(window, slide));
        Fixture {
            engine: RspqEngine::new(query, config),
            verts: VertexInterner::new(),
            labels,
        }
    }

    fn feed(f: &mut Fixture, sink: &mut CollectSink, ts: i64, a: &str, b: &str, l: &str) {
        let (va, vb) = (f.verts.intern(a), f.verts.intern(b));
        let label = f.labels.get(l).unwrap_or_else(|| panic!("label {l}"));
        f.engine
            .process(StreamTuple::insert(Timestamp(ts), va, vb, label), sink);
    }

    fn pair(f: &Fixture, a: &str, b: &str) -> ResultPair {
        ResultPair::new(f.verts.get(a).unwrap(), f.verts.get(b).unwrap())
    }

    #[test]
    fn example_4_2_conflict_discovers_simple_path() {
        // Figure 1 stream with Q1 = (follows mentions)+: the conflict at
        // vertex v must trigger Unmark so the simple path x→z→u→v→y is
        // discovered and (x, y) reported.
        let mut f = engine_for("(follows mentions)+", 1_000, 1_000);
        let mut sink = CollectSink::default();
        for (ts, a, b, l) in [
            (4, "y", "u", "mentions"),
            (6, "x", "z", "follows"),
            (9, "u", "v", "follows"),
            (11, "z", "w", "mentions"),
            (13, "x", "y", "follows"),
            (14, "z", "u", "mentions"),
            (15, "u", "x", "mentions"),
            (18, "v", "y", "mentions"),
        ] {
            feed(&mut f, &mut sink, ts, a, b, l);
        }
        assert!(
            f.engine.has_result(pair(&f, "x", "y")),
            "simple path x→z→u→v→y missed"
        );
        assert!(f.engine.stats().conflicts_detected >= 1);
        assert!(f.engine.stats().nodes_unmarked >= 1);
        f.engine.delta().validate().unwrap();
    }

    #[test]
    fn non_simple_only_witness_is_rejected() {
        // Only witness for (x, y) is x→y→u→v→y which repeats y: simple
        // path semantics must NOT report it (arbitrary semantics would).
        let mut f = engine_for("(follows mentions)+", 1_000, 1_000);
        let mut sink = CollectSink::default();
        for (ts, a, b, l) in [
            (1, "x", "y", "follows"),
            (2, "y", "u", "mentions"),
            (3, "u", "v", "follows"),
            (4, "v", "y", "mentions"),
        ] {
            feed(&mut f, &mut sink, ts, a, b, l);
        }
        assert!(f.engine.has_result(pair(&f, "x", "u")));
        assert!(
            !f.engine.has_result(pair(&f, "x", "y")),
            "non-simple witness wrongly accepted"
        );
        f.engine.delta().validate().unwrap();
    }

    #[test]
    fn simple_chain_matches() {
        let mut f = engine_for("a b c", 1_000, 1_000);
        let mut sink = CollectSink::default();
        for (ts, x, y, l) in [(1, "p", "q", "a"), (2, "q", "r", "b"), (3, "r", "s", "c")] {
            feed(&mut f, &mut sink, ts, x, y, l);
        }
        assert!(f.engine.has_result(pair(&f, "p", "s")));
        assert_eq!(sink.pairs().len(), 1);
    }

    #[test]
    fn star_query_on_cycle_reports_all_simple_pairs() {
        // a+ on a 3-cycle: all ordered pairs of *distinct* vertices are
        // connected by simple paths. The cyclic closures (p,p) repeat
        // their endpoint vertex, so simple path semantics excludes them
        // (arbitrary semantics would report them).
        let mut f = engine_for("a+", 1_000, 1_000);
        let mut sink = CollectSink::default();
        feed(&mut f, &mut sink, 1, "p", "q", "a");
        feed(&mut f, &mut sink, 2, "q", "r", "a");
        feed(&mut f, &mut sink, 3, "r", "p", "a");
        for (a, b) in [
            ("p", "q"),
            ("q", "r"),
            ("r", "p"),
            ("p", "r"),
            ("q", "p"),
            ("r", "q"),
        ] {
            assert!(f.engine.has_result(pair(&f, a, b)), "missing ({a},{b})");
        }
        for v in ["p", "q", "r"] {
            assert!(
                !f.engine.has_result(pair(&f, v, v)),
                "cyclic closure ({v},{v}) is not a simple path"
            );
        }
        f.engine.delta().validate().unwrap();
    }

    #[test]
    fn window_expiry_prunes_trees() {
        let mut f = engine_for("a+", 10, 5);
        let mut sink = CollectSink::default();
        for i in 0..30u32 {
            let a = f.verts.intern(&format!("v{i}"));
            let b = f.verts.intern(&format!("v{}", i + 1));
            let label = f.labels.get("a").unwrap();
            f.engine.process(
                StreamTuple::insert(Timestamp(i as i64), a, b, label),
                &mut sink,
            );
        }
        f.engine.expire_now(&mut sink);
        let size = f.engine.index_size();
        assert!(size.nodes < 200, "index too large: {size:?}");
        f.engine.delta().validate().unwrap();
    }

    #[test]
    fn explicit_delete_invalidates() {
        let mut f = engine_for("a b", 1_000, 1_000);
        let mut sink = CollectSink::default();
        feed(&mut f, &mut sink, 1, "p", "q", "a");
        feed(&mut f, &mut sink, 2, "q", "r", "b");
        assert!(f.engine.has_result(pair(&f, "p", "r")));
        let (p, q) = (f.verts.get("p").unwrap(), f.verts.get("q").unwrap());
        let a = f.labels.get("a").unwrap();
        f.engine
            .process(StreamTuple::delete(Timestamp(3), p, q, a), &mut sink);
        assert!(!f.engine.has_result(pair(&f, "p", "r")));
        assert_eq!(sink.invalidated().len(), 1);
        f.engine.delta().validate().unwrap();
    }

    #[test]
    fn foreign_labels_discarded() {
        let mut f = engine_for("a+", 1_000, 1_000);
        let mut sink = CollectSink::default();
        let x = f.verts.intern("x");
        let y = f.verts.intern("y");
        let mut labels = f.labels.clone();
        let z = labels.intern("zz");
        f.engine
            .process(StreamTuple::insert(Timestamp(1), x, y, z), &mut sink);
        assert_eq!(f.engine.stats().tuples_discarded, 1);
        assert_eq!(f.engine.index_size().nodes, 0);
    }

    #[test]
    fn extend_budget_aborts_conflict_blowup() {
        // A dense cyclic graph with (a b)+ generates heavy conflict
        // churn; a tiny per-tuple budget must keep processing bounded
        // and be reported in the stats.
        let mut labels = LabelInterner::new();
        let query = CompiledQuery::compile("(a b)+", &mut labels).unwrap();
        let mut config = crate::EngineConfig::with_window(WindowPolicy::new(100_000, 100_000));
        config.rspq_extend_budget = Some(50);
        let mut engine = RspqEngine::new(query, config);
        let a = labels.get("a").unwrap();
        let b = labels.get("b").unwrap();
        let mut sink = CollectSink::default();
        let n = 12u32;
        let mut ts = 0;
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    ts += 1;
                    let l = if (i + j) % 2 == 0 { a } else { b };
                    engine.process(
                        StreamTuple::insert(
                            Timestamp(ts),
                            srpq_common::VertexId(i),
                            srpq_common::VertexId(j),
                            l,
                        ),
                        &mut sink,
                    );
                }
            }
        }
        assert!(engine.stats().budget_exhausted > 0, "budget never tripped");
        // Bounded work: with 132 tuples and a 50-extend budget, the
        // total extend count stays in the thousands.
        assert!(engine.stats().insert_calls < 132 * 60);
        engine.delta().validate().unwrap();
    }

    #[test]
    fn conflict_free_query_keeps_single_occurrences() {
        // With the containment property, every pair appears at most once
        // per tree (the markings never come off).
        let mut f = engine_for("(a | b)*", 1_000, 1_000);
        let mut sink = CollectSink::default();
        let names = ["p", "q", "r", "s"];
        let mut ts = 0;
        for &x in &names {
            for &y in &names {
                if x != y {
                    ts += 1;
                    feed(
                        &mut f,
                        &mut sink,
                        ts,
                        x,
                        y,
                        if ts % 2 == 0 { "a" } else { "b" },
                    );
                }
            }
        }
        assert_eq!(f.engine.stats().conflicts_detected, 0);
        for root in f.engine.delta().roots() {
            let tree = f.engine.delta().tree(root).unwrap();
            for (_, n) in tree.iter() {
                assert_eq!(
                    tree.occurrences((n.vertex, n.state)).len(),
                    1,
                    "duplicated pair in conflict-free tree"
                );
            }
        }
        f.engine.delta().validate().unwrap();
    }
}
