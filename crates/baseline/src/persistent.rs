//! The Virtuoso emulation (§5.6): persistent query evaluation by
//! per-tuple batch re-evaluation.
//!
//! The paper builds a middle layer over Virtuoso that inserts each
//! incoming tuple and re-evaluates the RPQ over the RDF graph built from
//! the current window content. [`ReevalEngine`] reproduces that
//! architecture with our own batch evaluator as the "RDF system": no
//! state is carried between tuples, so each tuple costs a full
//! `O(n·m·k²)` evaluation — the gap to the incremental engines is what
//! Figure 11 measures.

use crate::batch;
use srpq_automata::CompiledQuery;
use srpq_common::{FxHashSet, ResultPair, StreamTuple, Timestamp};
use srpq_core::multi::{MultiSink, QueryId};
use srpq_graph::{WindowGraph, WindowPolicy};

/// A persistent-query engine that re-runs the batch algorithm on the
/// window snapshot for every arriving tuple.
pub struct ReevalEngine {
    query: CompiledQuery,
    window: WindowPolicy,
    graph: WindowGraph,
    emitted: FxHashSet<ResultPair>,
    now: Timestamp,
    tuples_processed: u64,
}

impl ReevalEngine {
    /// Creates the engine.
    pub fn new(query: CompiledQuery, window: WindowPolicy) -> ReevalEngine {
        ReevalEngine {
            query,
            window,
            graph: WindowGraph::new(),
            emitted: FxHashSet::default(),
            now: Timestamp::NEG_INFINITY,
            tuples_processed: 0,
        }
    }

    /// The window graph.
    pub fn graph(&self) -> &WindowGraph {
        &self.graph
    }

    /// Number of distinct pairs reported so far.
    pub fn result_count(&self) -> usize {
        self.emitted.len()
    }

    /// Whether `pair` has been reported.
    pub fn has_result(&self, pair: ResultPair) -> bool {
        self.emitted.contains(&pair)
    }

    /// Tuples processed (label-relevant only).
    pub fn tuples_processed(&self) -> u64 {
        self.tuples_processed
    }

    /// Processes one tuple: update the window, then re-evaluate the
    /// query from scratch on the snapshot, emitting newly appearing
    /// pairs (implicit window semantics) under `QueryId(0)`, the id a
    /// lone registration gets.
    pub fn process<S: MultiSink>(&mut self, tuple: StreamTuple, sink: &mut S) {
        let prev = self.now;
        if tuple.ts > self.now {
            self.now = tuple.ts;
        }
        if prev != Timestamp::NEG_INFINITY && self.window.crosses_slide(prev, self.now) {
            self.graph
                .purge_expired(self.window.lazy_watermark(self.now));
        }
        if !self.query.dfa().knows_label(tuple.label) {
            return;
        }
        self.tuples_processed += 1;
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
        // Full re-evaluation over the current snapshot — the emulated
        // system cannot reuse previous computation.
        let wm = self.window.watermark(self.now);
        let results = batch::evaluate_arbitrary(&self.graph, wm, self.query.dfa());
        for pair in results {
            if self.emitted.insert(pair) {
                sink.emit(QueryId(0), pair, self.now);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use srpq_common::{LabelInterner, VertexId};
    use srpq_core::sink::CollectSink;

    #[test]
    fn matches_incremental_engine_results() {
        let mut labels = LabelInterner::new();
        let query = CompiledQuery::compile("a b*", &mut labels).unwrap();
        let a = labels.get("a").unwrap();
        let b = labels.get("b").unwrap();
        let window = WindowPolicy::new(100, 10);

        let mut reeval = ReevalEngine::new(query.clone(), window);
        let mut incremental = srpq_core::MultiQueryEngine::new(window);
        incremental
            .register("q", query, srpq_core::PathSemantics::Arbitrary)
            .unwrap();

        let stream = [
            StreamTuple::insert(Timestamp(1), VertexId(0), VertexId(1), a),
            StreamTuple::insert(Timestamp(2), VertexId(1), VertexId(2), b),
            StreamTuple::insert(Timestamp(3), VertexId(2), VertexId(3), b),
            StreamTuple::insert(Timestamp(4), VertexId(3), VertexId(1), b),
            StreamTuple::insert(Timestamp(5), VertexId(2), VertexId(0), a),
        ];
        let mut s1 = CollectSink::default();
        let mut s2 = CollectSink::default();
        for t in stream {
            reeval.process(t, &mut s1);
            incremental.process(t, &mut s2);
        }
        assert_eq!(s1.pairs(), s2.pairs());
        assert!(reeval.result_count() > 0);
    }

    #[test]
    fn window_expiry_limits_results() {
        let mut labels = LabelInterner::new();
        let query = CompiledQuery::compile("a a", &mut labels).unwrap();
        let a = labels.get("a").unwrap();
        let mut engine = ReevalEngine::new(query, WindowPolicy::new(5, 1));
        let mut sink = CollectSink::default();
        engine.process(
            StreamTuple::insert(Timestamp(1), VertexId(0), VertexId(1), a),
            &mut sink,
        );
        engine.process(
            StreamTuple::insert(Timestamp(20), VertexId(1), VertexId(2), a),
            &mut sink,
        );
        assert_eq!(engine.result_count(), 0);
    }

    #[test]
    fn deletions_shrink_window() {
        let mut labels = LabelInterner::new();
        let query = CompiledQuery::compile("a", &mut labels).unwrap();
        let a = labels.get("a").unwrap();
        let mut engine = ReevalEngine::new(query, WindowPolicy::new(100, 10));
        let mut sink = CollectSink::default();
        engine.process(
            StreamTuple::insert(Timestamp(1), VertexId(0), VertexId(1), a),
            &mut sink,
        );
        assert_eq!(engine.graph().n_edges(), 1);
        engine.process(
            StreamTuple::delete(Timestamp(2), VertexId(0), VertexId(1), a),
            &mut sink,
        );
        assert_eq!(engine.graph().n_edges(), 0);
        // Implicit window semantics: the earlier emission stands.
        assert_eq!(engine.result_count(), 1);
    }
}
