//! The workspace's one equivalence harness, plus the examples under
//! `examples/` and the integration tests under `tests/` that run on it.
//!
//! The substantive code lives in the other crates; this crate holds
//! what the suites share:
//!
//! * [`random_stream`]: the one seeded stream generator ([`StreamSpec`]);
//! * [`Scenario`]: a config, a stream and a [`Step`] script, run under
//!   any [`Schedule`] — per tuple or in batches, at any worker count, in
//!   memory or durable with crashes — into a [`Run`], plus the
//!   comparators that hold two runs against each other;
//! * the reference semantics: the independent [`Oracle`],
//!   [`check_oracle`] and [`solo`], the one-query engine every test holds
//!   up against it.

#![warn(missing_docs)]
#![warn(clippy::all)]

mod scenario;
mod stream;

pub use scenario::{
    assert_identical, assert_logical_contract, assert_private_matches, assert_same_end,
    assert_sorted_identical, durability, Backfill, Chunks, EndState, Event, Group, Run, Scenario,
    Schedule, Step, TempDir, REST,
};
pub use stream::{random_stream, StreamSpec};

use srpq_automata::CompiledQuery;
use srpq_baseline::{batch, simple};
use srpq_common::{FxHashSet, LabelInterner, ResultPair, StreamTuple, Timestamp};
use srpq_core::{CollectSink, EngineConfig, MultiQueryEngine, PathSemantics, QueryId};
use srpq_graph::{WindowGraph, WindowPolicy};

/// An interner holding the labels `a`, `b`, … (`n` of them), ids
/// `0..n` in that order: the labels [`random_stream`] draws.
pub fn labels(n: u32) -> LabelInterner {
    let mut labels = LabelInterner::new();
    for i in 0..n {
        labels.intern(&char::from(b'a' + i as u8).to_string());
    }
    labels
}

/// A lone query as every host evaluates it: `query` registered on a
/// fresh [`MultiQueryEngine`] and fed `stream` per tuple into a sink
/// that ignores the tag. Returns the engine (read the query's through
/// [`MultiQueryEngine::engine`]), the query's id and its plain result
/// stream, which further tuples can extend.
pub fn solo(
    query: CompiledQuery,
    config: EngineConfig,
    semantics: PathSemantics,
    stream: &[StreamTuple],
) -> (MultiQueryEngine, QueryId, CollectSink) {
    let mut engine = MultiQueryEngine::with_config(config);
    let id = engine
        .register("q", query, semantics)
        .expect("a fresh engine has no name to clash with");
    let mut sink = CollectSink::default();
    stream.iter().for_each(|&t| engine.process(t, &mut sink));
    (engine, id, sink)
}

/// How [`check_oracle`] holds an engine's cumulative result set to the
/// oracle's after every tuple.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// Equal.
    Exact,
    /// A subset (nothing unsound).
    Sound,
    /// Sound always, and equal while the engine has detected no RSPQ
    /// conflict: on conflicted instances the prefix-contextual markings
    /// can hide a simple witness (the paper's Theorem 5 condition; see
    /// `rspq_incompleteness_counterexample` in `tests/end_to_end.rs`).
    ExactUnlessConflicted,
}

/// Feeds `stream` per tuple to `query` alone under `window` and, after
/// every tuple, holds the distinct pairs it has emitted to an
/// [`Oracle`] over `oracle_window` evaluating the same semantics.
/// Failure messages start with `ctx`.
pub fn check_oracle(
    query: &CompiledQuery,
    semantics: PathSemantics,
    (window, oracle_window): (WindowPolicy, WindowPolicy),
    stream: &[StreamTuple],
    expect: Expect,
    ctx: &str,
) {
    let config = EngineConfig::with_window(window);
    let (mut engine, id, mut sink) = solo(query.clone(), config, semantics, &[]);
    let mut oracle = Oracle::new(oracle_window);
    for (i, &t) in stream.iter().enumerate() {
        engine.process(t, &mut sink);
        let expected = oracle.step(t, query.dfa(), semantics);
        let got = sink.pairs();
        for p in &got {
            assert!(expected.contains(p), "{ctx}, tuple {i}: unsound result {p}");
        }
        let conflicted = engine.stats(id).unwrap().conflicts_detected > 0;
        if expect == Expect::Exact || (expect == Expect::ExactUnlessConflicted && !conflicted) {
            assert_eq!(&got, expected, "{ctx}, tuple {i}: {t}");
        }
    }
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

    /// Applies one tuple and recomputes under `semantics` — product-graph
    /// BFS for arbitrary paths, exhaustive simple-path DFS for simple
    /// ones; returns the cumulative result set after this tuple.
    pub fn step(
        &mut self,
        t: StreamTuple,
        dfa: &srpq_automata::Dfa,
        semantics: PathSemantics,
    ) -> &FxHashSet<ResultPair> {
        self.now = self.now.max(t.ts);
        if t.is_insert() {
            self.graph.insert(t.edge.src, t.edge.dst, t.label, t.ts);
        } else {
            self.graph.remove(t.edge.src, t.edge.dst, t.label);
        }
        self.graph.purge_expired(self.window.watermark(self.now));
        let wm = self.window.watermark(self.now);
        let snapshot = match semantics {
            PathSemantics::Arbitrary => batch::evaluate_arbitrary(&self.graph, wm, dfa),
            PathSemantics::Simple => simple::evaluate_simple_bruteforce(&self.graph, wm, dfa),
        };
        self.cumulative.extend(snapshot);
        &self.cumulative
    }

    /// The cumulative (implicit-window) result set so far.
    pub fn cumulative(&self) -> &FxHashSet<ResultPair> {
        &self.cumulative
    }
}
