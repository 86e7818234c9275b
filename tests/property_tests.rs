//! Randomized property tests: random streams, windows, and queries
//! against the batch oracles and the structural invariants of Lemma 1.
//! Seeded and deterministic; each property sweeps a fixed seed range
//! and failure messages carry the seed for replay.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use srpq_automata::CompiledQuery;
use srpq_common::{Label, LabelInterner, Op, StreamTuple, Timestamp, VertexId};
use srpq_core::sink::CollectSink;
use srpq_core::{EngineConfig, PathSemantics};
use srpq_graph::{WindowGraph, WindowPolicy};
use srpq_harness::{solo, Oracle, OracleMode};

const QUERY_POOL: &[&str] = &[
    "a", "a*", "a b", "a b*", "(a b)+", "(a | b)*", "a b* a", "a? b+",
];

#[derive(Debug, Clone)]
struct StreamSpec {
    ops: Vec<(u8, u8, u8, bool, u8)>, // (src, dst, label, is_insert, dt)
    query: usize,
    window: i64,
    slide: i64,
}

fn random_spec(seed: u64, max_len: usize) -> StreamSpec {
    let mut rng = SmallRng::seed_from_u64(seed);
    let len = rng.gen_range(1..max_len);
    let ops = (0..len)
        .map(|_| {
            (
                rng.gen_range(0..6u8),
                rng.gen_range(0..6u8),
                rng.gen_range(0..2u8),
                rng.gen_bool(0.85),
                rng.gen_range(0..3u8),
            )
        })
        .collect();
    StreamSpec {
        ops,
        query: rng.gen_range(0..QUERY_POOL.len()),
        window: rng.gen_range(4i64..25),
        slide: rng.gen_range(1i64..8),
    }
}

fn materialize(spec: &StreamSpec) -> (Vec<StreamTuple>, CompiledQuery) {
    let mut ts = 0i64;
    let mut inserted: Vec<(VertexId, VertexId, Label)> = Vec::new();
    let mut tuples = Vec::with_capacity(spec.ops.len());
    for &(src, dst, label, is_insert, dt) in &spec.ops {
        ts += dt as i64;
        let (src, dst) = (VertexId(src as u32), VertexId(dst as u32));
        let src = if src == dst {
            VertexId((src.0 + 1) % 6)
        } else {
            src
        };
        let label = Label(label as u32);
        if is_insert || inserted.is_empty() {
            inserted.push((src, dst, label));
            tuples.push(StreamTuple::insert(Timestamp(ts), src, dst, label));
        } else {
            // Delete an arbitrary previously inserted edge
            // (deterministic pick: index derived from the op fields).
            let idx = (src.0 as usize + dst.0 as usize * 7) % inserted.len();
            let (s, d, l) = inserted[idx];
            tuples.push(StreamTuple::delete(Timestamp(ts), s, d, l));
        }
    }
    let mut labels = LabelInterner::new();
    labels.intern("a");
    labels.intern("b");
    let query = CompiledQuery::compile(QUERY_POOL[spec.query], &mut labels).unwrap();
    (tuples, query)
}

/// RAPQ with eager expiry (β=1) reproduces the implicit-window
/// reference semantics exactly, on any stream, window, and query.
#[test]
fn rapq_eager_equals_oracle() {
    for seed in 0..64u64 {
        let spec = random_spec(seed, 60);
        let (tuples, query) = materialize(&spec);
        let window = WindowPolicy::new(spec.window, 1);
        let (mut engine, _) = solo(
            query.clone(),
            EngineConfig::with_window(window),
            PathSemantics::Arbitrary,
        );
        let mut oracle = Oracle::new(window);
        let mut sink = CollectSink::default();
        for &t in &tuples {
            engine.process(t, &mut sink);
            let expected = oracle.step(t, query.dfa(), OracleMode::Arbitrary);
            assert_eq!(&sink.pairs(), expected, "seed {seed}, spec {spec:?}");
        }
    }
}

/// RSPQ with eager expiry is sound w.r.t. the exhaustive simple-path
/// oracle, and complete on conflict-free runs (the condition of the
/// paper's Theorem 5; on conflicted instances the prefix-contextual
/// markings can hide witnesses — see DESIGN.md §8).
#[test]
fn rspq_eager_equals_bruteforce() {
    for seed in 0..64u64 {
        let spec = random_spec(seed, 40);
        let (tuples, query) = materialize(&spec);
        let window = WindowPolicy::new(spec.window, 1);
        let (mut engine, id) = solo(
            query.clone(),
            EngineConfig::with_window(window),
            PathSemantics::Simple,
        );
        let mut oracle = Oracle::new(window);
        let mut sink = CollectSink::default();
        for &t in &tuples {
            engine.process(t, &mut sink);
            let expected = oracle.step(t, query.dfa(), OracleMode::Simple);
            let got = sink.pairs();
            for p in &got {
                assert!(expected.contains(p), "seed {seed}: unsound result {p}");
            }
            if engine.stats(id).unwrap().conflicts_detected == 0 {
                assert_eq!(&got, expected, "seed {seed}, spec {spec:?}");
            }
        }
    }
}

/// The Δ index validates after every tuple, under both semantics:
/// occurrence index, markings and reverse index stay consistent through
/// every extend, refresh, unmark, delete and expiry.
#[test]
fn delta_validates_after_every_tuple() {
    for seed in 0..64u64 {
        let spec = random_spec(seed, 50);
        let (tuples, query) = materialize(&spec);
        let config = EngineConfig::with_window(WindowPolicy::new(spec.window, spec.slide));
        for semantics in [PathSemantics::Arbitrary, PathSemantics::Simple] {
            let (mut engine, id) = solo(query.clone(), config, semantics);
            let mut sink = CollectSink::default();
            for &t in &tuples {
                engine.process(t, &mut sink);
                engine
                    .engine(id)
                    .unwrap()
                    .validate_delta()
                    .unwrap_or_else(|e| panic!("seed {seed}, {semantics:?}: {e}"));
            }
        }
    }
}

/// The Δ timestamps always lie within the window (Lemma 1 invariant 1)
/// right after an eager expiry pass, under both semantics.
#[test]
fn delta_timestamps_within_window_after_expiry() {
    for seed in 0..64u64 {
        let spec = random_spec(seed, 50);
        let (tuples, query) = materialize(&spec);
        let window = WindowPolicy::new(spec.window, 1);
        for semantics in [PathSemantics::Arbitrary, PathSemantics::Simple] {
            let config = EngineConfig::with_window(window);
            let (mut engine, id) = solo(query.clone(), config, semantics);
            let mut sink = CollectSink::default();
            for &t in &tuples {
                engine.process(t, &mut sink);
                let group = engine.engine(id).unwrap();
                let wm = window.watermark(group.now());
                for tree in group.delta_snapshot() {
                    for node in tree.nodes.iter().filter(|n| n.id != tree.root_id) {
                        assert!(
                            node.ts > wm,
                            "seed {seed}, {semantics:?}: stale node ({}, {:?})@{} survives \
                             eager expiry (wm {wm})",
                            node.vertex,
                            node.state,
                            node.ts
                        );
                    }
                }
            }
        }
    }
}

/// The window graph agrees with a straightforward replay of the
/// operations (store-level soundness).
#[test]
fn window_graph_replay() {
    for seed in 0..64u64 {
        let spec = random_spec(seed, 80);
        let (tuples, _) = materialize(&spec);
        let mut g = WindowGraph::new();
        let mut reference: std::collections::HashMap<(VertexId, VertexId, Label), Timestamp> =
            std::collections::HashMap::new();
        for t in &tuples {
            match t.op {
                Op::Insert => {
                    g.insert(t.edge.src, t.edge.dst, t.label, t.ts);
                    reference.insert((t.edge.src, t.edge.dst, t.label), t.ts);
                }
                Op::Delete => {
                    g.remove(t.edge.src, t.edge.dst, t.label);
                    reference.remove(&(t.edge.src, t.edge.dst, t.label));
                }
            }
        }
        assert_eq!(g.n_edges(), reference.len(), "seed {seed}");
        for (&(s, d, l), &ts) in &reference {
            assert_eq!(g.edge_ts(s, d, l), Some(ts), "seed {seed}");
        }
    }
}

/// Dedup on: each pair is emitted at most once per "life" (emission
/// count ≤ invalidation count + 1 per pair).
#[test]
fn dedup_emission_bound() {
    for seed in 0..64u64 {
        let spec = random_spec(seed, 60);
        let (tuples, query) = materialize(&spec);
        let window = WindowPolicy::new(spec.window, spec.slide);
        let (mut engine, _) = solo(
            query,
            EngineConfig::with_window(window),
            PathSemantics::Arbitrary,
        );
        let mut sink = CollectSink::default();
        for &t in &tuples {
            engine.process(t, &mut sink);
        }
        let mut emitted_counts: std::collections::HashMap<_, usize> =
            std::collections::HashMap::new();
        for (p, _) in sink.emitted() {
            *emitted_counts.entry(*p).or_default() += 1;
        }
        let mut invalidated_counts: std::collections::HashMap<_, usize> =
            std::collections::HashMap::new();
        for (p, _) in sink.invalidated() {
            *invalidated_counts.entry(*p).or_default() += 1;
        }
        for (p, &n) in &emitted_counts {
            let inv = invalidated_counts.get(p).copied().unwrap_or(0);
            assert!(
                n <= inv + 1,
                "seed {seed}: pair {p} emitted {n} times with {inv} invalidations"
            );
        }
    }
}
