//! Cross-crate oracle tests: the streaming engines must agree with
//! per-snapshot batch evaluation (the implicit-window reference
//! semantics of Definition 9).
//!
//! With slide β = 1 (eager expiry) the engines are compared for *exact
//! per-tuple equality* of the cumulative result set; with lazy slides
//! the engine must stay sound (⊆ the lazy-watermark oracle) and catch
//! up after a forced expiry pass.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use srpq_automata::CompiledQuery;
use srpq_common::{Label, LabelInterner, StreamTuple, Timestamp, VertexId};
use srpq_core::sink::CollectSink;
use srpq_core::{EngineConfig, PathSemantics};
use srpq_graph::WindowPolicy;
use srpq_harness::{solo, Oracle, OracleMode};

/// Random stream: `n` tuples over `n_vertices` vertices and `n_labels`
/// labels, timestamps advancing by 0–2 per tuple.
fn random_stream(n: usize, n_vertices: u32, n_labels: u32, seed: u64) -> Vec<StreamTuple> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut ts = 0i64;
    (0..n)
        .map(|_| {
            ts += rng.gen_range(0..=2i64);
            let src = VertexId(rng.gen_range(0..n_vertices));
            let mut dst = VertexId(rng.gen_range(0..n_vertices));
            if dst == src {
                dst = VertexId((dst.0 + 1) % n_vertices);
            }
            StreamTuple::insert(Timestamp(ts), src, dst, Label(rng.gen_range(0..n_labels)))
        })
        .collect()
}

fn interner_for(n_labels: u32) -> LabelInterner {
    let mut labels = LabelInterner::new();
    // Names a, b, c... so the test queries can reference them.
    for i in 0..n_labels {
        labels.intern(&((b'a' + i as u8) as char).to_string());
    }
    labels
}

const QUERIES: &[&str] = &[
    "a", "a*", "a b", "a b*", "(a b)+", "(a | b)*", "a b* a", "a? b+", "a* b*",
];

#[test]
fn rapq_matches_oracle_exactly_with_eager_expiry() {
    for &expr in QUERIES {
        for seed in 0..5u64 {
            let stream = random_stream(120, 6, 2, seed);
            let mut labels = interner_for(2);
            let query = CompiledQuery::compile(expr, &mut labels).unwrap();
            let window = WindowPolicy::new(12, 1);
            let (mut engine, _) = solo(
                query.clone(),
                EngineConfig::with_window(window),
                PathSemantics::Arbitrary,
            );
            let mut oracle = Oracle::new(window);
            let mut sink = CollectSink::default();
            for (i, &t) in stream.iter().enumerate() {
                engine.process(t, &mut sink);
                let expected = oracle.step(t, query.dfa(), OracleMode::Arbitrary);
                let got = sink.pairs();
                assert_eq!(&got, expected, "query {expr}, seed {seed}, tuple {i}: {t}");
            }
        }
    }
}

#[test]
fn rspq_matches_bruteforce_oracle_with_eager_expiry() {
    for &expr in QUERIES {
        for seed in 0..5u64 {
            // Smaller streams: the brute-force oracle enumerates all
            // simple paths per snapshot.
            let stream = random_stream(60, 5, 2, seed);
            let mut labels = interner_for(2);
            let query = CompiledQuery::compile(expr, &mut labels).unwrap();
            let window = WindowPolicy::new(10, 1);
            let (mut engine, id) = solo(
                query.clone(),
                EngineConfig::with_window(window),
                PathSemantics::Simple,
            );
            let mut oracle = Oracle::new(window);
            let mut sink = CollectSink::default();
            for (i, &t) in stream.iter().enumerate() {
                engine.process(t, &mut sink);
                let expected = oracle.step(t, query.dfa(), OracleMode::Simple);
                let got = sink.pairs();
                // Soundness holds unconditionally. Completeness is only
                // guaranteed on conflict-free runs: Algorithm RSPQ's
                // markings are prefix-contextual, and on conflicted
                // instances a marked node reached from a new prefix can
                // hide a simple witness (see `rspq_incompleteness_
                // counterexample` in end_to_end.rs and DESIGN.md §8).
                for p in &got {
                    assert!(
                        expected.contains(p),
                        "unsound {p} for {expr}, seed {seed}, tuple {i}"
                    );
                }
                if engine.stats(id).unwrap().conflicts_detected == 0 {
                    assert_eq!(&got, expected, "query {expr}, seed {seed}, tuple {i}: {t}");
                }
            }
        }
    }
}

#[test]
fn rapq_is_sound_under_lazy_expiry() {
    for &expr in QUERIES {
        for seed in 0..3u64 {
            let stream = random_stream(150, 6, 2, seed);
            let mut labels = interner_for(2);
            let query = CompiledQuery::compile(expr, &mut labels).unwrap();
            // Lazy: slide 7, so several tuples share an expiry pass.
            let window = WindowPolicy::new(12, 7);
            let (mut engine, _) = solo(
                query.clone(),
                EngineConfig::with_window(window),
                PathSemantics::Arbitrary,
            );
            // The lazy oracle admits anything valid w.r.t. the *lazy*
            // watermark (window as of the last slide boundary).
            let mut oracle = Oracle::new(WindowPolicy::new(12 + 7, 1));
            let mut sink = CollectSink::default();
            for (i, &t) in stream.iter().enumerate() {
                engine.process(t, &mut sink);
                let relaxed = oracle.step(t, query.dfa(), OracleMode::Arbitrary);
                for p in sink.pairs() {
                    assert!(
                        relaxed.contains(&p),
                        "unsound result {p} for {expr}, seed {seed}, tuple {i}"
                    );
                }
            }
        }
    }
}

#[test]
fn rapq_with_deletions_matches_oracle() {
    for &expr in &["a b", "a+", "(a | b)*", "a b*"] {
        for seed in 10..14u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let inserts = random_stream(100, 5, 2, seed);
            // Mix in deletions of previously inserted edges.
            let mut stream = Vec::new();
            let mut seen: Vec<StreamTuple> = Vec::new();
            for t in inserts {
                stream.push(t);
                seen.push(t);
                if rng.gen_bool(0.15) {
                    let v = seen[rng.gen_range(0..seen.len())];
                    stream.push(StreamTuple::delete(t.ts, v.edge.src, v.edge.dst, v.label));
                }
            }
            let mut labels = interner_for(2);
            let query = CompiledQuery::compile(expr, &mut labels).unwrap();
            let window = WindowPolicy::new(15, 1);
            let (mut engine, _) = solo(
                query.clone(),
                EngineConfig::with_window(window),
                PathSemantics::Arbitrary,
            );
            let mut oracle = Oracle::new(window);
            let mut sink = CollectSink::default();
            for (i, &t) in stream.iter().enumerate() {
                engine.process(t, &mut sink);
                let expected = oracle.step(t, query.dfa(), OracleMode::Arbitrary);
                // Emission stream (distinct pairs ever emitted) must
                // equal the cumulative oracle: deletions never remove
                // already-reported pairs from the append-only stream.
                let got = sink.pairs();
                assert_eq!(&got, expected, "query {expr}, seed {seed}, tuple {i}");
            }
        }
    }
}

#[test]
fn rspq_with_deletions_matches_oracle() {
    for &expr in &["a b", "(a b)+", "a+"] {
        for seed in 20..23u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let inserts = random_stream(60, 5, 2, seed);
            let mut stream = Vec::new();
            let mut seen: Vec<StreamTuple> = Vec::new();
            for t in inserts {
                stream.push(t);
                seen.push(t);
                if rng.gen_bool(0.15) {
                    let v = seen[rng.gen_range(0..seen.len())];
                    stream.push(StreamTuple::delete(t.ts, v.edge.src, v.edge.dst, v.label));
                }
            }
            let mut labels = interner_for(2);
            let query = CompiledQuery::compile(expr, &mut labels).unwrap();
            let window = WindowPolicy::new(12, 1);
            let (mut engine, id) = solo(
                query.clone(),
                EngineConfig::with_window(window),
                PathSemantics::Simple,
            );
            let mut oracle = Oracle::new(window);
            let mut sink = CollectSink::default();
            for (i, &t) in stream.iter().enumerate() {
                engine.process(t, &mut sink);
                let expected = oracle.step(t, query.dfa(), OracleMode::Simple);
                let got = sink.pairs();
                for p in &got {
                    assert!(
                        expected.contains(p),
                        "unsound {p} for {expr}, seed {seed}, tuple {i}"
                    );
                }
                if engine.stats(id).unwrap().conflicts_detected == 0 {
                    assert_eq!(&got, expected, "query {expr}, seed {seed}, tuple {i}");
                }
            }
        }
    }
}

#[test]
fn simple_results_subset_of_arbitrary() {
    for seed in 0..5u64 {
        let stream = random_stream(80, 6, 2, seed);
        for &expr in &["(a b)+", "a b* a", "(a | b)+"] {
            let mut labels = interner_for(2);
            let query = CompiledQuery::compile(expr, &mut labels).unwrap();
            let window = WindowPolicy::new(15, 1);
            let config = EngineConfig::with_window(window);
            let (mut rapq, _) = solo(query.clone(), config, PathSemantics::Arbitrary);
            let (mut rspq, _) = solo(query, config, PathSemantics::Simple);
            let mut sa = CollectSink::default();
            let mut ss = CollectSink::default();
            for &t in &stream {
                rapq.process(t, &mut sa);
                rspq.process(t, &mut ss);
            }
            let arbitrary = sa.pairs();
            for p in ss.pairs() {
                assert!(
                    arbitrary.contains(&p),
                    "{expr}, seed {seed}: {p} simple-only"
                );
            }
        }
    }
}
