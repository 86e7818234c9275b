//! A uniform front-end over the RAPQ and RSPQ engines.
//!
//! The paper studies the design space along two dimensions — path
//! semantics (arbitrary vs simple) and result semantics (append-only vs
//! explicit deletions). [`Engine`] selects the path semantics at query
//! registration; both engines handle negative tuples natively, covering
//! the second dimension without further dispatch.

use crate::config::EngineConfig;
use crate::delta::{Forest, TreeSemantics};
use crate::rapq::RapqEngine;
use crate::rspq::RspqEngine;
use crate::sink::ResultSink;
use crate::stats::{DeltaProfile, EngineStats, IndexSize};
use srpq_automata::{CompiledQuery, ParseError};
use srpq_common::{LabelInterner, ResultPair, StreamTuple, Timestamp};
use srpq_graph::{Visibility, WindowGraph, WindowPolicy};

/// Which path semantics a registered query evaluates under (§1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathSemantics {
    /// Paths may repeat vertices (§3, Algorithm RAPQ).
    Arbitrary,
    /// Paths may not repeat vertices (§4, Algorithm RSPQ). NP-hard in
    /// the presence of conflicts; efficient when conflict-free.
    Simple,
}

/// A persistent streaming RPQ evaluator.
// The variants differ in size (the RSPQ engine carries marking state
// and several bitsets), but one long-lived engine exists per query, so
// boxing would buy nothing and cost a pointer chase per tuple.
#[allow(clippy::large_enum_variant)]
pub enum Engine {
    /// Arbitrary path semantics.
    Arbitrary(RapqEngine),
    /// Simple path semantics.
    Simple(RspqEngine),
}

impl Engine {
    /// Registers `query` under the given semantics.
    pub fn new(query: CompiledQuery, config: EngineConfig, semantics: PathSemantics) -> Engine {
        match semantics {
            PathSemantics::Arbitrary => Engine::Arbitrary(RapqEngine::new(query, config)),
            PathSemantics::Simple => Engine::Simple(RspqEngine::new(query, config)),
        }
    }

    /// Parses, compiles, and registers a query in one step.
    pub fn from_str(
        expr: &str,
        labels: &mut LabelInterner,
        window: WindowPolicy,
        semantics: PathSemantics,
    ) -> Result<Engine, ParseError> {
        let query = CompiledQuery::compile(expr, labels)?;
        Ok(Engine::new(
            query,
            EngineConfig::with_window(window),
            semantics,
        ))
    }

    /// Processes one tuple (non-decreasing timestamps), pushing results
    /// into `sink`.
    pub fn process<S: ResultSink>(&mut self, tuple: StreamTuple, sink: &mut S) {
        match self {
            Engine::Arbitrary(e) => e.process(tuple, sink),
            Engine::Simple(e) => e.process(tuple, sink),
        }
    }

    /// Processes a batch of tuples (non-decreasing timestamps) with one
    /// slide-boundary check and at most one expiry pass per slide
    /// interval covered, instead of per tuple. Produces a result stream
    /// byte-identical to per-tuple [`Self::process`].
    pub fn process_batch<S: ResultSink>(&mut self, batch: &[StreamTuple], sink: &mut S) {
        match self {
            Engine::Arbitrary(e) => e.process_batch(batch, sink),
            Engine::Simple(e) => e.process_batch(batch, sink),
        }
    }

    /// Forces an expiry pass at the current eager watermark.
    pub fn expire_now<S: ResultSink>(&mut self, sink: &mut S) {
        match self {
            Engine::Arbitrary(e) => e.expire_now(sink),
            Engine::Simple(e) => e.expire_now(sink),
        }
    }

    /// Processes a tuple against an external shared window graph (see
    /// [`crate::multi::MultiQueryEngine`]). Do not mix with
    /// [`Self::process`] on the same engine.
    pub fn process_with_graph<S: ResultSink>(
        &mut self,
        graph: &mut WindowGraph,
        tuple: StreamTuple,
        sink: &mut S,
    ) {
        match self {
            Engine::Arbitrary(e) => e.process_with_graph(graph, tuple, sink),
            Engine::Simple(e) => e.process_with_graph(graph, tuple, sink),
        }
    }

    /// [`Self::expire_now`] against an external shared graph.
    pub fn expire_now_with_graph<S: ResultSink>(&mut self, graph: &mut WindowGraph, sink: &mut S) {
        match self {
            Engine::Arbitrary(e) => e.expire_now_with_graph(graph, sink),
            Engine::Simple(e) => e.expire_now_with_graph(graph, sink),
        }
    }

    /// The **read-only traversal path** over a shared graph whose
    /// mutations (for this tuple, and possibly its whole micro-batch)
    /// were already applied by a coordinator: extends/expires this
    /// engine's Δ without touching the graph. `vis` hides in-batch
    /// edges a sequential per-tuple run would not have seen yet — the
    /// pooled schedule's workers of [`crate::multi::MultiQueryEngine`]
    /// traverse one `&WindowGraph` concurrently through this.
    pub fn extend_with_graph<S: ResultSink>(
        &mut self,
        graph: &WindowGraph,
        vis: Visibility,
        tuple: StreamTuple,
        sink: &mut S,
    ) {
        match self {
            Engine::Arbitrary(e) => e.extend_with_graph(graph, vis, tuple, sink),
            Engine::Simple(e) => e.extend_with_graph(graph, vis, tuple, sink),
        }
    }

    /// Advances the clock to `ts` and, on a slide-boundary crossing,
    /// runs the lazy Δ-expiry pass against the shared graph at
    /// visibility `vis`. A multi-query coordinator uses this (with
    /// [`Self::dispatch_with_graph`]) to reproduce the sequential
    /// order: every routed group expires against the pre-mutation
    /// graph, then the coordinator applies the mutation once, then
    /// every routed group dispatches the tuple.
    pub fn advance_with_graph<S: ResultSink>(
        &mut self,
        graph: &WindowGraph,
        vis: Visibility,
        ts: Timestamp,
        sink: &mut S,
    ) {
        match self {
            Engine::Arbitrary(e) => e.advance_with_graph(graph, vis, ts, sink),
            Engine::Simple(e) => e.advance_with_graph(graph, vis, ts, sink),
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
        match self {
            Engine::Arbitrary(e) => e.dispatch_with_graph(graph, vis, tuple, sink),
            Engine::Simple(e) => e.dispatch_with_graph(graph, vis, tuple, sink),
        }
    }

    /// Read-only eager Δ-expiry against a shared graph the caller has
    /// already purged (the shared counterpart of [`Self::expire_now`]).
    pub fn expire_delta_with_graph<S: ResultSink>(
        &mut self,
        graph: &WindowGraph,
        vis: Visibility,
        sink: &mut S,
    ) {
        match self {
            Engine::Arbitrary(e) => e.expire_delta_with_graph(graph, vis, sink),
            Engine::Simple(e) => e.expire_delta_with_graph(graph, vis, sink),
        }
    }

    /// The registered query.
    pub fn query(&self) -> &CompiledQuery {
        match self {
            Engine::Arbitrary(e) => e.query(),
            Engine::Simple(e) => e.query(),
        }
    }

    /// The path semantics this engine evaluates under.
    pub fn semantics(&self) -> PathSemantics {
        match self {
            Engine::Arbitrary(_) => PathSemantics::Arbitrary,
            Engine::Simple(_) => PathSemantics::Simple,
        }
    }

    /// Engine statistics.
    pub fn stats(&self) -> &EngineStats {
        match self {
            Engine::Arbitrary(e) => e.stats(),
            Engine::Simple(e) => e.stats(),
        }
    }

    /// Mutable statistics (a multi-query host attributes routing hits
    /// and evaluation time here).
    pub fn stats_mut(&mut self) -> &mut EngineStats {
        match self {
            Engine::Arbitrary(e) => e.stats_mut(),
            Engine::Simple(e) => e.stats_mut(),
        }
    }

    /// The engine configuration.
    pub fn config(&self) -> &crate::config::EngineConfig {
        match self {
            Engine::Arbitrary(e) => e.config(),
            Engine::Simple(e) => e.config(),
        }
    }

    /// The currently reported result pairs, sorted (persistence support).
    pub fn emitted_pairs(&self) -> Vec<ResultPair> {
        match self {
            Engine::Arbitrary(e) => e.emitted_pairs(),
            Engine::Simple(e) => e.emitted_pairs(),
        }
    }

    /// Overwrites the engine cursor with checkpointed values
    /// (persistence support; see `RapqEngine::restore_cursor`).
    pub fn restore_cursor(
        &mut self,
        now: Timestamp,
        emitted: impl IntoIterator<Item = ResultPair>,
        stats: EngineStats,
    ) {
        match self {
            Engine::Arbitrary(e) => e.restore_cursor(now, emitted, stats),
            Engine::Simple(e) => e.restore_cursor(now, emitted, stats),
        }
    }

    /// Current Δ index size.
    pub fn index_size(&self) -> IndexSize {
        match self {
            Engine::Arbitrary(e) => e.index_size(),
            Engine::Simple(e) => e.index_size(),
        }
    }

    /// A structural profile of the Δ forest (live nodes per DFA state,
    /// depth histogram, arena occupancy) for introspection surfaces
    /// like `ctl explain`. O(|Δ|) — do not call on the tuple path.
    pub fn delta_profile(&self) -> DeltaProfile {
        match self {
            Engine::Arbitrary(e) => profile_forest(e.delta()),
            Engine::Simple(e) => profile_forest(e.delta()),
        }
    }

    /// The window graph.
    pub fn graph(&self) -> &WindowGraph {
        match self {
            Engine::Arbitrary(e) => e.graph(),
            Engine::Simple(e) => e.graph(),
        }
    }

    /// Stream time of the last processed tuple.
    pub fn now(&self) -> Timestamp {
        match self {
            Engine::Arbitrary(e) => e.now(),
            Engine::Simple(e) => e.now(),
        }
    }

    /// Number of distinct result pairs currently reported.
    pub fn result_count(&self) -> usize {
        match self {
            Engine::Arbitrary(e) => e.result_count(),
            Engine::Simple(e) => e.result_count(),
        }
    }

    /// Whether `pair` is currently reported.
    pub fn has_result(&self, pair: ResultPair) -> bool {
        match self {
            Engine::Arbitrary(e) => e.has_result(pair),
            Engine::Simple(e) => e.has_result(pair),
        }
    }
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
    use crate::sink::CollectSink;
    use srpq_common::{StreamTuple, VertexInterner};

    #[test]
    fn both_semantics_run_through_the_facade() {
        for semantics in [PathSemantics::Arbitrary, PathSemantics::Simple] {
            let mut labels = LabelInterner::new();
            let mut verts = VertexInterner::new();
            let mut engine =
                Engine::from_str("a b", &mut labels, WindowPolicy::new(100, 10), semantics)
                    .unwrap();
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
        }
    }

    #[test]
    fn delta_profile_reflects_forest_shape() {
        for semantics in [PathSemantics::Arbitrary, PathSemantics::Simple] {
            let mut labels = LabelInterner::new();
            let mut verts = VertexInterner::new();
            let mut engine =
                Engine::from_str("a b", &mut labels, WindowPolicy::new(100, 10), semantics)
                    .unwrap();
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
    fn parse_errors_surface() {
        let mut labels = LabelInterner::new();
        assert!(Engine::from_str(
            "(a",
            &mut labels,
            WindowPolicy::new(10, 1),
            PathSemantics::Arbitrary
        )
        .is_err());
    }
}
