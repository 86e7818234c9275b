//! Workspace harness: shared helpers for the examples under
//! `examples/` and the integration tests under `tests/`.
//!
//! The substantive code lives in the other crates; this crate exists so
//! that workspace-level `examples/` and `tests/` directories compile
//! against all of them, plus a couple of tiny helpers shared by the
//! oracle-comparison tests: the independent [`Oracle`], and [`solo`],
//! the one-query engine the tests hold up against it.

#![warn(missing_docs)]
#![warn(clippy::all)]

use srpq_automata::CompiledQuery;
use srpq_baseline::{batch, simple};
use srpq_common::{FxHashSet, ResultPair, StreamTuple, Timestamp};
use srpq_core::{EngineConfig, MultiQueryEngine, PathSemantics, QueryId};
use srpq_graph::{WindowGraph, WindowPolicy};

/// A lone query as every host evaluates it: `query` registered on a
/// fresh [`MultiQueryEngine`], returned with its id. Feed it into a
/// sink that ignores the tag ([`CollectSink`](srpq_core::CollectSink))
/// for the query's plain result stream; read its engine through
/// [`MultiQueryEngine::engine`].
pub fn solo(
    query: CompiledQuery,
    config: EngineConfig,
    semantics: PathSemantics,
) -> (MultiQueryEngine, QueryId) {
    let mut engine = MultiQueryEngine::with_config(config);
    let id = engine
        .register("q", query, semantics)
        .expect("a fresh engine has no name to clash with");
    (engine, id)
}

/// An eager-window oracle: after each tuple it recomputes the batch
/// result set over the current snapshot (watermark `τ − |W|`) and
/// accumulates the union — the implicit-window reference result stream
/// of Definition 9.
pub struct Oracle {
    graph: WindowGraph,
    window: WindowPolicy,
    now: Timestamp,
    cumulative: FxHashSet<ResultPair>,
}

/// Which ground-truth evaluator the oracle runs per snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OracleMode {
    /// Product-graph BFS (arbitrary path semantics).
    Arbitrary,
    /// Exhaustive simple-path DFS (simple path semantics).
    Simple,
}

impl Oracle {
    /// Creates an oracle over the given window.
    pub fn new(window: WindowPolicy) -> Oracle {
        Oracle {
            graph: WindowGraph::new(),
            window,
            now: Timestamp::NEG_INFINITY,
            cumulative: FxHashSet::default(),
        }
    }

    /// Applies one tuple and recomputes; returns the cumulative result
    /// set after this tuple.
    pub fn step(
        &mut self,
        t: StreamTuple,
        dfa: &srpq_automata::Dfa,
        mode: OracleMode,
    ) -> &FxHashSet<ResultPair> {
        if t.ts > self.now {
            self.now = t.ts;
        }
        match t.op {
            srpq_common::Op::Insert => {
                self.graph.insert(t.edge.src, t.edge.dst, t.label, t.ts);
            }
            srpq_common::Op::Delete => {
                self.graph.remove(t.edge.src, t.edge.dst, t.label);
            }
        }
        self.graph.purge_expired(self.window.watermark(self.now));
        let wm = self.window.watermark(self.now);
        let snapshot = match mode {
            OracleMode::Arbitrary => batch::evaluate_arbitrary(&self.graph, wm, dfa),
            OracleMode::Simple => simple::evaluate_simple_bruteforce(&self.graph, wm, dfa),
        };
        self.cumulative.extend(snapshot);
        &self.cumulative
    }

    /// The cumulative (implicit-window) result set so far.
    pub fn cumulative(&self) -> &FxHashSet<ResultPair> {
        &self.cumulative
    }
}
