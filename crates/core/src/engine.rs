//! The one Δ-engine shell.
//!
//! The paper evaluates arbitrary- and simple-path RPQs "in a uniform
//! manner": both keep a Δ spanning forest over a sliding-window graph,
//! extend it eagerly per tuple, expire it lazily per slide, and turn an
//! explicit deletion into the expiry of a `-∞`-stamped subtree.
//! [`Engine`] holds everything that does not depend on the path
//! semantics exactly once — the registered query, the configuration,
//! the reported-result set, the stream clock, the statistics, the
//! slide-crossing check, the expiry metering and the *for each due
//! tree: expire, drop if trivial, refresh the gauges* loop. It owns no
//! graph: it is one evaluation group of a
//! [`MultiQueryEngine`](crate::multi::MultiQueryEngine), which owns the
//! window graph, applies every mutation to it once and purges it at
//! slide crossings; the engine only reads that graph, borrowed per
//! call. What the paper actually varies is reached through three
//! per-tree procedures, implemented in `rapq/` (§3) and `rspq/` (§4):
//!
//! | procedure | arbitrary paths (§3) | simple paths (§4) |
//! |---|---|---|
//! | `extend_tree` — extend one tree with an inserted edge | Algorithm RAPQ lines 4–12 (line 6 parent-liveness guard, line 7 insert-or-improve test), draining into Algorithm Insert: lines 2–3 timestamp refresh (the re-reached node is re-pointed, its subtree is not re-expanded), lines 8–11 expansion through valid window edges | Algorithm RSPQ lines 4–12 (line 8 cycle and marking guards), draining into Algorithm Extend: line 2 conflict detection by suffix containment, lines 5–13 report / mark (line 11) / attach, lines 14–18 expansion (line 15 marking guard); a conflict runs Algorithm Unmark and replays the traversals the removed marks had pruned |
//! | `sever_edge` — stamp a deleted edge's tree-edge victims | Algorithm Delete: where the edge is a tree edge (Definition 13), the child's subtree is stamped `-∞` | the same, for every occurrence of the child pair |
//! | `expire_tree` — expire one tree at a watermark | ExpiryRAPQ: lines 2–3 candidate set and prune, lines 4–10 reconnection through surviving in-edges, lines 11–15 invalidation of results that lost their last witness | ExpiryRSPQ: lines 2–3 prune, lines 6–11 reconnection of expired *marked* pairs, lines 12–15 re-marking of unblocked parents, then invalidations |
//!
//! The shell calls `expire_tree` right after a `sever_edge` that found
//! a victim (§3.2: deletions reuse the expiry machinery, invalidations
//! on) and, when a slide boundary is crossed, for every tree whose
//! timestamp bound is at or below the watermark (invalidations off —
//! implicit windows keep results monotone); the other trees have
//! nothing to expire and are not visited. The semantics are matched on
//! once per tuple and once per expiry pass; everything below those two
//! points is monomorphic.
//!
//! The second dimension of the paper's design space — append-only vs
//! explicit deletions — needs no dispatch at all: both semantics handle
//! negative tuples natively.

use crate::config::EngineConfig;
use crate::delta::{Forest, NodeId, TreeSemantics, TreeSnap};
use crate::rapq::Rapq;
use crate::results::ResultSet;
use crate::rspq::Rspq;
use crate::schedule::EvSink;
use crate::stats::{DeltaProfile, EngineStats, IndexSize};
use srpq_automata::{CompiledQuery, Dfa};
use srpq_common::{Op, ResultPair, StreamTuple, Timestamp, VertexId};
use srpq_graph::{Visibility, WindowGraph};

/// Which path semantics a registered query evaluates under (§1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathSemantics {
    /// Paths may repeat vertices (§3, Algorithm RAPQ).
    Arbitrary,
    /// Paths may not repeat vertices (§4, Algorithm RSPQ). NP-hard in
    /// the presence of conflicts; efficient when conflict-free.
    Simple,
}

/// The evaluator of one shared evaluation group: one registered query,
/// its Δ index, its reported-result set, its clock and its statistics.
/// Only [`MultiQueryEngine`](crate::multi::MultiQueryEngine) drives it;
/// elsewhere an engine is read
/// ([`MultiQueryEngine::engine`](crate::multi::MultiQueryEngine::engine))
/// or restored (persistence).
pub struct Engine {
    query: CompiledQuery,
    config: EngineConfig,
    /// Deduplication set: pairs ever reported, minus invalidations.
    /// Window expiry removes none, so it grows with the distinct pairs
    /// seen since the stream began.
    emitted: ResultSet,
    now: Timestamp,
    stats: EngineStats,
    /// Scratch: roots of the trees one tuple or one expiry pass visits.
    roots_scratch: Vec<VertexId>,
    /// Scratch: the per-tree compaction remap table.
    compact_scratch: Vec<NodeId>,
    delta: Delta,
    /// Every root an expiry sweep ran `expire_tree` on, in visit order
    /// (tests count sweep work with it; never persisted).
    #[cfg(test)]
    swept: Vec<VertexId>,
}

/// The Δ index under either semantics — the forest plus the scratch
/// only that semantics needs.
// The simple-path side is larger (three bitsets), but one long-lived
// engine exists per query, so boxing it would buy nothing and cost a
// pointer chase per tuple.
#[allow(clippy::large_enum_variant)]
enum Delta {
    Arbitrary(Rapq),
    Simple(Rspq),
}

/// What a per-tree procedure borrows from the shell for the duration of
/// one tuple or one expiry pass.
pub(crate) struct TreeCx<'a> {
    pub query: &'a CompiledQuery,
    pub config: &'a EngineConfig,
    /// The graph to traverse: it has already absorbed the tuple's
    /// mutation, and its whole micro-batch's inserts (`vis` hides the
    /// later ones).
    pub graph: &'a WindowGraph,
    /// Hides in-batch edges a sequential run would not have seen yet.
    pub vis: Visibility,
    /// Validity watermark: nodes and edges at or below it are expired.
    pub wm: Timestamp,
    pub now: Timestamp,
    pub emitted: &'a mut ResultSet,
    pub stats: &'a mut EngineStats,
    pub sink: EvSink<'a>,
    pub compact_scratch: &'a mut Vec<NodeId>,
    /// `Extend` invocations left before the traversal is abandoned
    /// ([`EngineConfig::rspq_extend_budget`]); one allowance per tuple
    /// and per expired tree. Arbitrary-path evaluation ignores it.
    pub budget: u64,
}

/// The per-tree plug: the three procedures of the module-level table,
/// over a forest the shell can walk.
pub(crate) trait PerTree {
    /// The forest's semantics hook type.
    type Sem: TreeSemantics;

    fn forest(&self) -> &Forest<Self::Sem>;

    fn forest_mut(&mut self) -> &mut Forest<Self::Sem>;

    /// Extends the tree rooted at `root` with the inserted `edge`.
    fn extend_tree(&mut self, cx: &mut TreeCx<'_>, root: VertexId, edge: StreamTuple);

    /// Stamps `-∞` on every subtree of the tree rooted at `root` that
    /// hangs off the deleted `edge`. Returns whether there was one.
    fn sever_edge(&mut self, dfa: &Dfa, root: VertexId, edge: StreamTuple) -> bool;

    /// Expires the tree rooted at `root` at `cx.wm`, reporting
    /// invalidations only if `invalidate`.
    fn expire_tree(&mut self, cx: &mut TreeCx<'_>, root: VertexId, invalidate: bool);
}

impl Engine {
    /// Registers `query` under the given semantics.
    pub(crate) fn new(
        query: CompiledQuery,
        config: EngineConfig,
        semantics: PathSemantics,
    ) -> Engine {
        Engine {
            query,
            config,
            emitted: ResultSet::default(),
            now: Timestamp::NEG_INFINITY,
            stats: EngineStats::default(),
            roots_scratch: Vec::new(),
            compact_scratch: Vec::new(),
            delta: match semantics {
                PathSemantics::Arbitrary => Delta::Arbitrary(Rapq::new()),
                PathSemantics::Simple => Delta::Simple(Rspq::new()),
            },
            #[cfg(test)]
            swept: Vec::new(),
        }
    }

    /// The registered query.
    pub fn query(&self) -> &CompiledQuery {
        &self.query
    }

    /// The path semantics this engine evaluates under.
    pub fn semantics(&self) -> PathSemantics {
        match self.delta {
            Delta::Arbitrary(_) => PathSemantics::Arbitrary,
            Delta::Simple(_) => PathSemantics::Simple,
        }
    }

    /// Engine statistics.
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// Mutable statistics (a multi-query host attributes routing hits
    /// and evaluation time here).
    pub fn stats_mut(&mut self) -> &mut EngineStats {
        &mut self.stats
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Stream time of the last tuple routed to this engine.
    pub fn now(&self) -> Timestamp {
        self.now
    }

    /// Number of distinct result pairs currently reported.
    pub fn result_count(&self) -> usize {
        self.emitted.len()
    }

    /// Whether `pair` has been reported (and not invalidated).
    pub fn has_result(&self, pair: ResultPair) -> bool {
        self.emitted.contains(pair)
    }

    /// The currently reported result pairs, sorted (persistence support:
    /// checkpoints serialize the deduplication set).
    pub fn emitted_pairs(&self) -> Vec<ResultPair> {
        self.emitted.sorted_pairs()
    }

    /// Heap bytes of the result-deduplication set, in O(1) (the
    /// [`IndexSize::result_bytes`] of [`Self::index_size`]).
    pub fn result_bytes(&self) -> usize {
        self.emitted.heap_bytes()
    }

    /// Heap bytes of the Δ reverse index, in O(1) (the
    /// [`IndexSize::reverse_index_bytes`] of [`Self::index_size`]).
    pub fn reverse_index_bytes(&self) -> usize {
        match &self.delta {
            Delta::Arbitrary(p) => p.forest().index_bytes(),
            Delta::Simple(p) => p.forest().index_bytes(),
        }
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

    /// Current Δ index size (Figure 5 / Figure 9) and result-set size.
    /// O(1): every figure is a tracked count or ledger, so samplers may
    /// call it on the tuple path.
    pub fn index_size(&self) -> IndexSize {
        fn size<X: TreeSemantics>(forest: &Forest<X>, result_bytes: usize) -> IndexSize {
            IndexSize {
                trees: forest.n_trees(),
                nodes: forest.n_nodes(),
                arena_bytes: forest.arena_bytes(),
                result_bytes,
                reverse_index_bytes: forest.index_bytes(),
            }
        }
        let result_bytes = self.result_bytes();
        match &self.delta {
            Delta::Arbitrary(p) => size(p.forest(), result_bytes),
            Delta::Simple(p) => size(p.forest(), result_bytes),
        }
    }

    /// A structural profile of the Δ forest (live nodes per DFA state,
    /// depth histogram, arena occupancy) for introspection surfaces
    /// like `ctl explain`. O(|Δ|) — do not call on the tuple path.
    pub fn delta_profile(&self) -> DeltaProfile {
        match &self.delta {
            Delta::Arbitrary(p) => profile_forest(p.forest()),
            Delta::Simple(p) => profile_forest(p.forest()),
        }
    }

    /// Checks every structural invariant of the Δ index: tree shape,
    /// the semantics' own (occurrence uniqueness or markings), and the
    /// reverse index. O(|Δ|) — tests and debugging only.
    pub fn validate_delta(&self) -> Result<(), String> {
        match &self.delta {
            Delta::Arbitrary(p) => p.forest().validate(),
            Delta::Simple(p) => p.forest().validate(),
        }
    }

    /// A faithful snapshot of every Δ tree, sorted by root (persistence
    /// support: `Full` checkpoints).
    pub fn delta_snapshot(&self) -> Vec<TreeSnap> {
        match &self.delta {
            Delta::Arbitrary(p) => p.forest().to_snapshot(),
            Delta::Simple(p) => p.forest().to_snapshot(),
        }
    }

    /// Replaces the Δ index wholesale with a validated
    /// [`Self::delta_snapshot`] (persistence support: `Full` recovery
    /// restores the exact checkpointed forest).
    pub fn restore_delta(&mut self, snaps: Vec<TreeSnap>) -> Result<(), String> {
        match &mut self.delta {
            Delta::Arbitrary(p) => *p.forest_mut() = Forest::from_snapshot(snaps)?,
            Delta::Simple(p) => *p.forest_mut() = Forest::from_snapshot(snaps)?,
        }
        Ok(())
    }

    /// Extends Δ by one routed tuple against the host's graph, which has
    /// already absorbed the tuple's whole micro-batch — `vis` hides the
    /// in-batch edges a sequential run would not have seen yet.
    /// [`Self::advance`] with expiry hidden one position earlier, before
    /// the tuple's own edge, followed by [`Self::dispatch`]: what the
    /// batch schedule runs per position and routed group, on a worker
    /// or on the calling thread, while other threads may read the same
    /// graph.
    pub(crate) fn extend(
        &mut self,
        graph: &WindowGraph,
        vis: Visibility,
        tuple: StreamTuple,
        sink: &mut EvSink<'_>,
    ) {
        self.advance(graph, vis.before(), tuple.ts, sink);
        self.dispatch(graph, vis, tuple, sink);
    }

    /// Advances the clock to `ts` and, on a slide-boundary crossing,
    /// runs the lazy Δ-expiry pass against `graph` at visibility `vis`.
    /// Split from [`Self::dispatch`] for the callers that mutate the
    /// graph, or replay it, in between: a deletion or refresh, which
    /// every routed group must see expire against the graph before the
    /// mutation (at [`Visibility::ALL`]), and backfill replay.
    pub(crate) fn advance(
        &mut self,
        graph: &WindowGraph,
        vis: Visibility,
        ts: Timestamp,
        sink: &mut EvSink<'_>,
    ) {
        if let Some(wm) = self.advance_clock(ts) {
            self.metered(|e| e.expire_at(graph, vis, wm, sink));
        }
    }

    /// Δ-side handling of one tuple against a graph that has already
    /// absorbed its mutation: tree extension for an insert, subtree
    /// severing + expiry for a deletion. No clock movement — call
    /// [`Self::advance`] first. Outside [`Self::extend`], only backfill
    /// replay calls it, at [`Visibility::ALL`].
    pub(crate) fn dispatch(
        &mut self,
        graph: &WindowGraph,
        vis: Visibility,
        tuple: StreamTuple,
        sink: &mut EvSink<'_>,
    ) {
        // The host routes only Σ_Q labels here, but a backfill replay
        // feeds every window edge.
        if !self.query.dfa().knows_label(tuple.label) {
            return;
        }
        self.stats.tuples_processed += 1;
        let wm = self.config.window.watermark(self.now);
        let (delta, roots, mut cx) = self.split(graph, vis, wm, sink);
        match delta {
            Delta::Arbitrary(p) => dispatch_tuple(p, &mut cx, roots, tuple),
            Delta::Simple(p) => dispatch_tuple(p, &mut cx, roots, tuple),
        }
    }

    /// An expiry pass at the current eager watermark (the host's
    /// `expire_now`, which purges the graph itself).
    pub(crate) fn expire_delta(&mut self, graph: &WindowGraph, sink: &mut EvSink<'_>) {
        let wm = self.config.window.watermark(self.now);
        self.metered(|e| e.expire_at(graph, Visibility::ALL, wm, sink));
    }

    /// Moves the clock to `ts` (late tuples never regress it). Returns
    /// the lazy watermark to expire at if the move crossed a slide
    /// boundary (§3.1: expiry fires once per crossed boundary).
    fn advance_clock(&mut self, ts: Timestamp) -> Option<Timestamp> {
        let prev = self.now;
        if ts > self.now {
            self.now = ts;
        }
        let window = &self.config.window;
        (prev != Timestamp::NEG_INFINITY && window.crosses_slide(prev, self.now))
            .then(|| window.lazy_watermark(self.now))
    }

    /// Counts and times one expiry pass (window-management time,
    /// Figure 6b).
    fn metered(&mut self, pass: impl FnOnce(&mut Engine)) {
        let t0 = std::time::Instant::now();
        self.stats.expiry_runs += 1;
        pass(self);
        self.stats.expiry_nanos += t0.elapsed().as_nanos() as u64;
    }

    /// The Δ-only part of a window-expiry pass over the borrowed graph:
    /// every tree whose timestamp bound is at or below `wm` is expired,
    /// reconnecting what surviving window edges still reach; trees
    /// reduced to their root — and trees that never grew past it — are
    /// dropped. Any other tree is skipped: its expiry would remove
    /// nothing and return before reconnection and compaction, so the
    /// pass is unchanged but for the work.
    fn expire_at(
        &mut self,
        graph: &WindowGraph,
        vis: Visibility,
        wm: Timestamp,
        sink: &mut EvSink<'_>,
    ) {
        fn sweep<P: PerTree>(plug: &mut P, cx: &mut TreeCx<'_>, roots: &mut Vec<VertexId>) {
            plug.forest().collect_due_roots(cx.wm, roots);
            for &root in roots.iter() {
                plug.expire_tree(cx, root, false);
                plug.forest_mut().drop_if_trivial(root);
            }
            refresh_delta_gauges(plug.forest(), cx.stats);
        }
        let (delta, roots, mut cx) = self.split(graph, vis, wm, sink);
        match delta {
            Delta::Arbitrary(p) => sweep(p, &mut cx, roots),
            Delta::Simple(p) => sweep(p, &mut cx, roots),
        }
        #[cfg(test)]
        self.swept.extend_from_slice(&self.roots_scratch);
    }

    /// Splits the shell into the Δ index, the roots scratch, and the
    /// context the per-tree procedures borrow.
    fn split<'a>(
        &'a mut self,
        graph: &'a WindowGraph,
        vis: Visibility,
        wm: Timestamp,
        sink: &'a mut EvSink<'_>,
    ) -> (&'a mut Delta, &'a mut Vec<VertexId>, TreeCx<'a>) {
        let cx = TreeCx {
            query: &self.query,
            config: &self.config,
            graph,
            vis,
            wm,
            now: self.now,
            emitted: &mut self.emitted,
            stats: &mut self.stats,
            sink: sink.reborrow(),
            compact_scratch: &mut self.compact_scratch,
            budget: self.config.rspq_extend_budget.unwrap_or(u64::MAX),
        };
        (&mut self.delta, &mut self.roots_scratch, cx)
    }

    /// The arbitrary-path forest (unit-test fixtures inspect tree
    /// shapes through the keyed [`crate::delta::Unique`] API).
    #[cfg(test)]
    pub(crate) fn rapq_forest(&self) -> &Forest<crate::delta::Unique> {
        match &self.delta {
            Delta::Arbitrary(p) => p.forest(),
            Delta::Simple(_) => panic!("not an arbitrary-path engine"),
        }
    }

    /// The simple-path forest (unit-test fixtures inspect occurrences
    /// and markings).
    #[cfg(test)]
    pub(crate) fn rspq_forest(&self) -> &Forest<crate::rspq::markings::Markings> {
        match &self.delta {
            Delta::Simple(p) => p.forest(),
            Delta::Arbitrary(_) => panic!("not a simple-path engine"),
        }
    }
}

/// Δ-side handling of one in-alphabet tuple, over the trees the reverse
/// index says it can touch.
fn dispatch_tuple<P: PerTree>(
    plug: &mut P,
    cx: &mut TreeCx<'_>,
    roots: &mut Vec<VertexId>,
    tuple: StreamTuple,
) {
    let dfa = cx.query.dfa();
    match tuple.op {
        Op::Insert => {
            // Materialize T_u lazily: only a tuple with δ(s0, l) defined
            // can seed a tree rooted at its source vertex.
            let (u, s0) = (tuple.edge.src, dfa.start());
            if dfa
                .transitions_for(tuple.label)
                .iter()
                .any(|&(s, _)| s == s0)
            {
                plug.forest_mut().ensure_tree(u, s0);
            }
            plug.forest().collect_trees_containing(u, roots);
            for &root in roots.iter() {
                plug.extend_tree(cx, root, tuple);
            }
        }
        Op::Delete => {
            // Algorithm Delete: where the edge is a tree edge, stamp the
            // severed subtree -∞, then let the expiry machinery prune
            // and reconnect it (§3.2).
            cx.stats.deletions_processed += 1;
            plug.forest()
                .collect_trees_containing(tuple.edge.dst, roots);
            for &root in roots.iter() {
                if plug.sever_edge(dfa, root, tuple) {
                    plug.expire_tree(cx, root, true);
                    plug.forest_mut().drop_if_trivial(root);
                }
            }
            refresh_delta_gauges(plug.forest(), cx.stats);
        }
    }
}

/// Refreshes the arena-occupancy gauges, sampled once per expiry sweep
/// / deletion (the natural per-slide observation points). O(1): both
/// are field reads of the forest's node count and slot ledger, so a
/// deletion costs what it touches, not the size of the forest.
fn refresh_delta_gauges<X: TreeSemantics>(forest: &Forest<X>, stats: &mut EngineStats) {
    stats.delta_nodes_live = forest.n_nodes() as u64;
    stats.delta_capacity = forest.n_slots() as u64;
}

/// Walks every live node of `forest` into a [`DeltaProfile`]. Depths
/// come from parent-chain walks per node — quadratic in the worst
/// case, fine for an on-demand introspection verb.
fn profile_forest<X: TreeSemantics>(forest: &Forest<X>) -> DeltaProfile {
    let mut per_state: srpq_common::FxHashMap<u32, u64> = srpq_common::FxHashMap::default();
    let mut depth_histogram = vec![0u64; DeltaProfile::DEPTH_BUCKETS];
    let mut nodes = 0usize;
    for root in forest.roots() {
        let Some(tree) = forest.tree(root) else {
            continue;
        };
        for (id, node) in tree.iter() {
            nodes += 1;
            *per_state.entry(node.state.0).or_insert(0) += 1;
            let mut depth = 0usize;
            let mut cursor = id;
            while let Some(parent) = tree.parent_id_of(cursor) {
                depth += 1;
                cursor = parent;
                if depth >= DeltaProfile::DEPTH_BUCKETS - 1 {
                    break;
                }
            }
            depth_histogram[depth.min(DeltaProfile::DEPTH_BUCKETS - 1)] += 1;
        }
    }
    let mut nodes_per_state: Vec<(u32, u64)> = per_state.into_iter().collect();
    nodes_per_state.sort_unstable();
    DeltaProfile {
        trees: forest.n_trees(),
        nodes,
        slots: forest.n_slots(),
        arena_bytes: forest.arena_bytes(),
        nodes_per_state,
        depth_histogram,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multi::solo::Solo;
    use crate::sink::CollectSink;
    use srpq_common::{LabelInterner, StreamTuple, VertexInterner, POOL_MAX_ENTRIES};
    use srpq_graph::WindowPolicy;

    /// `expr` compiled against `labels`, alone on a host with `window`.
    fn solo(
        expr: &str,
        labels: &mut LabelInterner,
        window: WindowPolicy,
        semantics: PathSemantics,
    ) -> Solo {
        let query = CompiledQuery::compile(expr, labels).unwrap();
        Solo::new(query, EngineConfig::with_window(window), semantics)
    }

    #[test]
    fn both_semantics_run_through_the_facade() {
        for semantics in [PathSemantics::Arbitrary, PathSemantics::Simple] {
            let mut labels = LabelInterner::new();
            let mut verts = VertexInterner::new();
            let mut engine = solo("a b", &mut labels, WindowPolicy::new(100, 10), semantics);
            assert_eq!(engine.semantics(), semantics);
            let a = labels.get("a").unwrap();
            let b = labels.get("b").unwrap();
            let (x, y, z) = (verts.intern("x"), verts.intern("y"), verts.intern("z"));
            let mut sink = CollectSink::default();
            engine.process(StreamTuple::insert(Timestamp(1), x, y, a), &mut sink);
            engine.process(StreamTuple::insert(Timestamp(2), y, z, b), &mut sink);
            assert_eq!(engine.result_count(), 1);
            assert!(engine.has_result(ResultPair::new(x, z)));
            assert_eq!(engine.stats().tuples_processed, 2);
            assert!(engine.index_size().nodes >= 2);
            assert_eq!(engine.now(), Timestamp(2));
            engine.expire_now(&mut sink);
            engine.validate_delta().unwrap();
        }
    }

    #[test]
    fn delta_profile_reflects_forest_shape() {
        for semantics in [PathSemantics::Arbitrary, PathSemantics::Simple] {
            let mut labels = LabelInterner::new();
            let mut verts = VertexInterner::new();
            let mut engine = solo("a b", &mut labels, WindowPolicy::new(100, 10), semantics);
            let a = labels.get("a").unwrap();
            let b = labels.get("b").unwrap();
            let (x, y, z) = (verts.intern("x"), verts.intern("y"), verts.intern("z"));
            let mut sink = CollectSink::default();
            let empty = engine.delta_profile();
            assert_eq!((empty.trees, empty.nodes), (0, 0));
            assert!(empty.nodes_per_state.is_empty());
            assert_eq!(empty.max_depth(), 0);
            engine.process(StreamTuple::insert(Timestamp(1), x, y, a), &mut sink);
            engine.process(StreamTuple::insert(Timestamp(2), y, z, b), &mut sink);
            let p = engine.delta_profile();
            let size = engine.index_size();
            assert_eq!(p.nodes, size.nodes);
            assert_eq!(p.trees, size.trees);
            assert_eq!(p.arena_bytes, size.arena_bytes);
            assert!(p.nodes >= 2);
            assert!(p.slots >= p.nodes);
            // Per-state counts and the depth histogram both partition
            // the node set; roots sit at depth 0, one per tree.
            assert_eq!(
                p.nodes_per_state.iter().map(|(_, n)| *n).sum::<u64>(),
                p.nodes as u64
            );
            assert_eq!(p.depth_histogram.iter().sum::<u64>(), p.nodes as u64);
            assert_eq!(p.depth_histogram[0], p.trees as u64);
            assert!(p.max_depth() >= 1);
        }
    }

    #[test]
    fn dense_results_cost_under_a_byte_each() {
        // `(a|b)+` over an `a`-ring of N vertices with `b`-chords: every
        // vertex reaches every vertex, so N² results in N rows of N
        // destinations. Bitset rows hold them in under a byte per
        // result; a hash set of pairs needs at least nine.
        const N: u32 = 300;
        let mut labels = LabelInterner::new();
        let window = WindowPolicy::new(1_000, 1_000);
        let mut engine = solo("(a|b)+", &mut labels, window, PathSemantics::Arbitrary);
        let (a, b) = (labels.get("a").unwrap(), labels.get("b").unwrap());
        let batch: Vec<StreamTuple> = (0..N)
            .flat_map(|i| [(i, (i + 1) % N, a), (i, (i * 7 + 3) % N, b)])
            .map(|(src, dst, l)| StreamTuple::insert(Timestamp(1), VertexId(src), VertexId(dst), l))
            .collect();
        let mut sink = CollectSink::default();
        engine.process_batch(&batch, &mut sink);
        let reference = sink.pairs();
        assert_eq!(reference.len(), (N * N) as usize);
        assert_eq!(engine.result_count(), reference.len());
        assert!(reference.iter().all(|&p| engine.has_result(p)));
        assert!(!engine.has_result(ResultPair::new(VertexId(0), VertexId(N))));
        let bytes = engine.index_size().result_bytes;
        assert!(
            bytes < engine.result_count(),
            "{bytes} B for {} results",
            engine.result_count()
        );
    }

    #[test]
    fn graph_and_reverse_index_stay_window_sized() {
        // Ten windows (|W| = 100, β = 10) of fresh vertices, one `a`/`b`
        // chain per window. A vertex's adjacency and reverse-index
        // entries leave with its last edge and last Δ node, so the bytes
        // both hold after the tenth window stay within a quarter of those
        // after the second; entries kept for every vertex ever seen would
        // hold all ten windows' vertices.
        const WINDOWS: u32 = 10;
        const PER_WINDOW: u32 = 100;
        for semantics in [PathSemantics::Arbitrary, PathSemantics::Simple] {
            let mut labels = LabelInterner::new();
            let window = WindowPolicy::new(i64::from(PER_WINDOW), 10);
            let mut engine = solo("a b*", &mut labels, window, semantics);
            let (a, b) = (labels.get("a").unwrap(), labels.get("b").unwrap());
            let bytes = |e: &Solo| e.graph().heap_bytes() + e.reverse_index_bytes();
            let mut sink = CollectSink::default();
            let mut after_two = 0;
            for w in 0..WINDOWS {
                for i in 0..PER_WINDOW {
                    let (src, dst) = (VertexId(w * 1000 + i), VertexId(w * 1000 + i + 1));
                    let label = if i % 4 == 0 { a } else { b };
                    let ts = Timestamp(i64::from(w * PER_WINDOW + i));
                    engine.process(StreamTuple::insert(ts, src, dst, label), &mut sink);
                }
                if w == 1 {
                    after_two = bytes(&engine);
                }
            }
            engine.validate_delta().unwrap();
            let after_ten = bytes(&engine);
            assert!(
                after_ten <= after_two * 5 / 4,
                "{semantics:?}: {after_ten} B after {WINDOWS} windows, {after_two} B after 2"
            );
        }
    }

    #[test]
    fn the_slot_ledger_matches_a_recount_at_every_step() {
        // Every place a tree's arena capacity moves, under both
        // semantics: tree creation and slot pushes (a hub with 100
        // children), deletions that sever a subtree and drop a trivial
        // tree into the pool, a slide whose sweep compacts the hub and
        // pools two trees, a new tree re-rooted from the pool, more
        // trivial trees than the pool keeps, and a `Full` snapshot
        // restore. After each step the O(1) figures equal a
        // tree-by-tree recount.
        const WIDE: u32 = 4200;
        for semantics in [PathSemantics::Arbitrary, PathSemantics::Simple] {
            let mut labels = LabelInterner::new();
            let mut engine = solo("a+", &mut labels, WindowPolicy::new(100, 10), semantics);
            let a = labels.get("a").unwrap();
            let mut sink = CollectSink::default();
            let slots = |e: &Solo| match semantics {
                PathSemantics::Arbitrary => e.rapq_forest().n_slots(),
                PathSemantics::Simple => e.rspq_forest().n_slots(),
            };
            let check = |e: &Solo, step: &str| {
                let (recount, bytes) = match semantics {
                    PathSemantics::Arbitrary => e.rapq_forest().recount_arena(),
                    PathSemantics::Simple => e.rspq_forest().recount_arena(),
                };
                assert_eq!(slots(e), recount, "{semantics:?}, {step}: n_slots");
                let arena_bytes = e.index_size().arena_bytes;
                assert_eq!(arena_bytes, bytes, "{semantics:?}, {step}: arena_bytes");
                e.validate_delta().unwrap();
            };
            let (h, p, q) = (VertexId(0), VertexId(1), VertexId(2));
            let child = |i: u32| VertexId(100 + i);
            let mut feed = |e: &mut Solo, t: StreamTuple| e.process(t, &mut sink);
            let ins = |ts: i64, src, dst| StreamTuple::insert(Timestamp(ts), src, dst, a);
            let del = |ts: i64, src, dst| StreamTuple::delete(Timestamp(ts), src, dst, a);

            for src in [3, 5] {
                // Dropped by the compacting sweep, pooled for re-rooting.
                feed(&mut engine, ins(1, VertexId(src), VertexId(src + 1)));
            }
            for i in 0..100 {
                feed(&mut engine, ins(if i < 80 { 1 } else { 60 }, h, child(i)));
            }
            feed(&mut engine, ins(60, child(81), VertexId(300)));
            feed(&mut engine, ins(60, p, q));
            check(&engine, "inserts");

            let trees = engine.index_size().trees;
            feed(&mut engine, del(61, h, child(81)));
            check(&engine, "a severed subtree");
            feed(&mut engine, del(61, p, q));
            assert_eq!(engine.index_size().trees, trees - 1, "{semantics:?}");
            check(&engine, "a dropped tree");

            let compactions = engine.stats().compactions;
            feed(&mut engine, ins(130, VertexId(400), VertexId(401)));
            assert!(engine.stats().compactions > compactions, "{semantics:?}");
            check(&engine, "a compacting sweep");

            let before = slots(&engine);
            feed(&mut engine, ins(131, VertexId(500), VertexId(501)));
            assert_eq!(
                slots(&engine),
                before,
                "{semantics:?}: a pooled tree re-rooted"
            );
            check(&engine, "a re-rooted tree");

            for i in 0..WIDE {
                feed(
                    &mut engine,
                    ins(140, VertexId(10_000 + 2 * i), VertexId(10_001 + 2 * i)),
                );
            }
            check(&engine, "wide inserts");
            let trees = engine.index_size().trees;
            feed(&mut engine, ins(260, VertexId(600), VertexId(601)));
            let dropped = trees + 1 - engine.index_size().trees;
            assert!(
                dropped > POOL_MAX_ENTRIES,
                "{semantics:?}: {dropped} dropped"
            );
            check(&engine, "trees the pool refuses");

            let snaps = engine.delta_snapshot();
            engine.restore_delta(snaps).unwrap();
            check(&engine, "a Full restore");
            feed(&mut engine, ins(261, VertexId(601), VertexId(602)));
            feed(&mut engine, del(262, VertexId(600), VertexId(601)));
            check(&engine, "after the restore");
        }
    }

    #[test]
    fn parse_errors_surface() {
        let mut labels = LabelInterner::new();
        assert!(CompiledQuery::compile("(a", &mut labels).is_err());
    }

    #[test]
    fn nodes_expired_excludes_reconnected_nodes() {
        // a+ (conflict-free) over an acyclic stream, |W| = 10, slide 1.
        // T_r holds (v, s1) via r→v@1, its child (x, s1) via v→x@4 and
        // (q, s1) via r→q@1; the later path r→w@5, w→v@6 reaches v
        // again. RAPQ re-points v under (w, s1) at ts 5 and leaves its
        // descendant x stale at ts 1; RSPQ prunes the re-reach on v's
        // marking, so v and x both keep ts 1. The t = 12 expiry removes
        // every ts-1 node; reconnection re-attaches what v→x@4 (and,
        // under RSPQ, w→v@6) still supports, so only q is "removed by
        // expiry (not reconnected)" — under both semantics.
        for semantics in [PathSemantics::Arbitrary, PathSemantics::Simple] {
            let mut labels = LabelInterner::new();
            let query = CompiledQuery::compile("a+", &mut labels).unwrap();
            let a = labels.get("a").unwrap();
            let config = EngineConfig::with_window(WindowPolicy::new(10, 1));
            let mut engine = Solo::new(query, config, semantics);
            let [r, v, q, w, x, far, away] = [0, 1, 2, 3, 4, 5, 6].map(VertexId);
            let mut sink = CollectSink::default();
            for (ts, src, dst) in [(1, r, v), (1, r, q), (4, v, x), (5, r, w), (6, w, v)] {
                engine.process(StreamTuple::insert(Timestamp(ts), src, dst, a), &mut sink);
            }
            assert_eq!(engine.stats().nodes_expired, 0, "{semantics:?}");
            assert_eq!(engine.stats().conflicts_detected, 0, "{semantics:?}");
            let t_r_ts = |engine: &Solo, y: VertexId| {
                let t_r = engine.delta_snapshot().into_iter().find(|t| t.root == r);
                let t_r = t_r.expect("T_r survives");
                t_r.nodes.iter().find(|n| n.vertex == y).map(|n| n.ts)
            };
            assert_eq!(
                t_r_ts(&engine, x),
                Some(Timestamp(1)),
                "{semantics:?}: x stale"
            );
            let before = engine.index_size().nodes;
            // Crossing to t = 12 expires everything stamped ≤ 2.
            engine.process(StreamTuple::insert(Timestamp(12), far, away, a), &mut sink);
            engine.validate_delta().unwrap();
            assert_eq!(
                t_r_ts(&engine, v),
                Some(Timestamp(5)),
                "{semantics:?}: v live"
            );
            assert_eq!(
                t_r_ts(&engine, x),
                Some(Timestamp(4)),
                "{semantics:?}: x reconnected"
            );
            assert_eq!(
                t_r_ts(&engine, q),
                None,
                "{semantics:?}: q expired for good"
            );
            // T_far adds two nodes, q's removal takes one away.
            assert_eq!(engine.index_size().nodes, before + 2 - 1, "{semantics:?}");
            assert_eq!(engine.stats().nodes_expired, 1, "{semantics:?}");
        }
    }

    #[test]
    fn sweeps_visit_only_trees_with_an_expired_node() {
        // K disjoint two-node `a+` trees r_i →a c_i, edge timestamps
        // spread over the window (|W| = 128, β = 32). The slides crossed
        // while the trees are built expire nothing, so they visit no
        // tree; the slide at t = 160 (lazy watermark 32) visits exactly
        // the trees holding a node at or below 32 — not all K.
        const K: u32 = 64;
        for semantics in [PathSemantics::Arbitrary, PathSemantics::Simple] {
            let mut labels = LabelInterner::new();
            let mut engine = solo("a+", &mut labels, WindowPolicy::new(128, 32), semantics);
            let a = labels.get("a").unwrap();
            let mut sink = CollectSink::default();
            for i in 0..K {
                let (r, c) = (VertexId(2 * i), VertexId(2 * i + 1));
                let t = StreamTuple::insert(Timestamp(i64::from(2 * i)), r, c, a);
                engine.process(t, &mut sink);
            }
            assert_eq!(engine.index_size().trees, K as usize, "{semantics:?}");
            assert!(engine.stats().expiry_runs >= 3, "{semantics:?}");
            assert_eq!(engine.swept, [], "{semantics:?}: nothing was due");

            let now = Timestamp(160);
            let wm = engine.config().window.lazy_watermark(now);
            let mut due: Vec<VertexId> = engine
                .delta_snapshot()
                .into_iter()
                .filter(|t| t.nodes.iter().any(|n| n.ts <= wm))
                .map(|t| t.root)
                .collect();
            assert_eq!(due.len(), 17, "{semantics:?}: edges at ts 0, 2, …, 32");
            let far = StreamTuple::insert(now, VertexId(1000), VertexId(1001), a);
            engine.process(far, &mut sink);
            engine.swept.sort_unstable();
            due.sort_unstable();
            assert_eq!(engine.swept, due, "{semantics:?}");
            assert_eq!(engine.stats().nodes_expired, 17, "{semantics:?}");
            let trees = engine.index_size().trees;
            assert_eq!(trees, (K - 17 + 1) as usize, "{semantics:?}");
            engine.validate_delta().unwrap();
        }
    }

    #[test]
    fn trivial_trees_are_dropped_at_the_next_sweep() {
        // Two ways a tree stays root-only, both under `a*` (|W| = 10,
        // β = 5): a self-loop x →a x, whose child key is the root key,
        // and a late tuple u →a v at or below the eager watermark, whose
        // child is already expired. Neither tree holds a node the sweep
        // could expire, yet the next slide must drop both exactly as a
        // full sweep would: the engine then matches a fresh one fed the
        // stream without them. Also across a `Full` snapshot restore
        // taken between the seeding and the slide.
        let [p, q, r, s, x, u, v, y, z] = [0, 1, 2, 3, 4, 5, 6, 7, 8].map(VertexId);
        let base = [(1, p, q), (2, q, r), (12, r, s)];
        let seeds = [(13, x, x), (3, u, v)];
        let slide = (16, y, z);
        for semantics in [PathSemantics::Arbitrary, PathSemantics::Simple] {
            for restore in [false, true] {
                let mut labels = LabelInterner::new();
                let window = WindowPolicy::new(10, 5);
                let mut fresh = solo("a*", &mut labels, window, semantics);
                let mut engine = solo("a*", &mut labels, window, semantics);
                let a = labels.get("a").unwrap();
                let mut sink = CollectSink::default();
                let mut feed = |e: &mut Solo, (ts, src, dst): (i64, VertexId, VertexId)| {
                    e.process(StreamTuple::insert(Timestamp(ts), src, dst, a), &mut sink);
                };
                for t in base {
                    feed(&mut fresh, t);
                    feed(&mut engine, t);
                }
                for t in seeds {
                    feed(&mut engine, t);
                }
                let label = format!("{semantics:?}, restore {restore}");
                let seeded = engine.index_size().trees;
                assert_eq!(seeded, fresh.index_size().trees + 2, "{label}");
                if restore {
                    let snaps = engine.delta_snapshot();
                    engine.restore_delta(snaps).unwrap();
                }
                feed(&mut fresh, slide);
                feed(&mut engine, slide);
                assert_eq!(
                    engine.index_size().trees,
                    fresh.index_size().trees,
                    "{label}"
                );
                assert_eq!(engine.delta_snapshot(), fresh.delta_snapshot(), "{label}");
                engine.validate_delta().unwrap();
            }
        }
    }
}
