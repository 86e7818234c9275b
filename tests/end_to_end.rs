//! End-to-end integration tests: generated datasets through the full
//! engine stack, plus the re-evaluation baseline as a cross-check.

use srpq_automata::CompiledQuery;
use srpq_baseline::ReevalEngine;
use srpq_common::Op;
use srpq_core::sink::CollectSink;
use srpq_core::{EngineConfig, PathSemantics};
use srpq_datagen::{gmark, inject_deletions, ldbc, queries_for, so, yago, DatasetKind};
use srpq_graph::WindowPolicy;
use srpq_harness::solo;

fn window_for(ds: &srpq_datagen::Dataset, frac: i64, slide_frac: i64) -> WindowPolicy {
    let span = ds.time_span().map(|(a, b)| (b - a).max(1)).unwrap_or(1);
    WindowPolicy::new((span / frac).max(2), (span / slide_frac).max(1))
}

#[test]
fn rapq_agrees_with_reeval_on_yago_sample() {
    let ds = yago::generate(&yago::YagoConfig {
        n_edges: 3_000,
        n_vertices: 600,
        n_labels: 30,
        label_skew: 1.0,
        vertex_skew: 0.5,
        seed: 5,
    });
    let window = window_for(&ds, 6, 60);
    for (name, expr) in queries_for(DatasetKind::Yago) {
        let mut labels = ds.labels.clone();
        let query = CompiledQuery::compile(&expr, &mut labels).unwrap();
        let config = EngineConfig::with_window(window);
        let (mut incremental, _, mut s1) =
            solo(query.clone(), config, PathSemantics::Arbitrary, &ds.tuples);
        let mut reeval = ReevalEngine::new(query, window);
        let mut s2 = CollectSink::default();
        for &t in &ds.tuples {
            reeval.process(t, &mut s2);
        }
        // The incremental engine may discover some results only at the
        // next expiry pass (lazy slides); force one before comparing.
        incremental.expire_now(&mut s1);
        assert_eq!(s1.pairs(), s2.pairs(), "query {name}");
    }
}

#[test]
fn so_stream_all_queries_run_clean() {
    let ds = so::generate(&so::SoConfig {
        n_users: 300,
        n_edges: 8_000,
        duration: 20_000,
        seed: 1,
        preferential: 0.7,
    });
    let window = window_for(&ds, 25, 750);
    for (name, expr) in queries_for(DatasetKind::So) {
        let mut labels = ds.labels.clone();
        let query = CompiledQuery::compile(&expr, &mut labels).unwrap();
        let config = EngineConfig::with_window(window);
        let (engine, id, sink) = solo(query, config, PathSemantics::Arbitrary, &ds.tuples);
        // Every tuple is either evaluated or dropped by the label router.
        let (seen, routed) = engine.routing_stats();
        assert_eq!(
            engine.stats(id).unwrap().tuples_processed + (seen - routed),
            ds.len() as u64,
            "query {name}"
        );
        // Recursive queries on a dense 3-label graph must produce hits.
        if name != "Q11" {
            assert!(!sink.emitted().is_empty(), "query {name} found nothing");
        }
    }
}

#[test]
fn ldbc_stream_produces_results_on_recursive_relations() {
    let ds = ldbc::generate(&ldbc::LdbcConfig {
        n_events: 6_000,
        seed_persons: 120,
        duration: 30_000,
        seed: 2,
    });
    let window = window_for(&ds, 10, 100);
    for (name, expr) in queries_for(DatasetKind::Ldbc) {
        let mut labels = ds.labels.clone();
        let query = CompiledQuery::compile(&expr, &mut labels).unwrap();
        let config = EngineConfig::with_window(window);
        let (_, _, sink) = solo(query, config, PathSemantics::Arbitrary, &ds.tuples);
        if name == "Q1" {
            // knows* on a social graph: plenty of pairs.
            let n = sink.emitted().len();
            assert!(n > 100, "knows* produced {n}");
        }
    }
}

#[test]
fn deletion_injection_round_trip() {
    let ds = yago::generate(&yago::YagoConfig {
        n_edges: 4_000,
        n_vertices: 800,
        n_labels: 20,
        label_skew: 1.0,
        vertex_skew: 0.5,
        seed: 8,
    });
    let stream = inject_deletions(&ds.tuples, 0.08, 42);
    assert!(stream.iter().any(|t| t.op == Op::Delete));
    let window = window_for(&ds, 6, 60);
    let mut labels = ds.labels.clone();
    let query = CompiledQuery::compile("happenedIn hasCapital*", &mut labels).unwrap();
    let config = EngineConfig::with_window(window);
    let (engine, id, sink) = solo(query, config, PathSemantics::Arbitrary, &stream);
    assert!(engine.stats(id).unwrap().deletions_processed > 0);
    // Invalidations only reference previously emitted pairs.
    let emitted: std::collections::HashSet<_> = sink.emitted().iter().map(|&(p, _)| p).collect();
    for (p, _) in sink.invalidated() {
        assert!(emitted.contains(p), "invalidated never-emitted {p}");
    }
}

#[test]
fn gmark_workload_runs_both_semantics() {
    let schema = gmark::GmarkSchema::ldbc_like(1);
    let ds = gmark::generate(&schema, 3);
    let window = window_for(&ds, 4, 40);
    let labels_vec = schema.labels();
    let queries = gmark::generate_queries(&labels_vec, 8, 2, 8, 3);
    for q in &queries {
        let mut labels = ds.labels.clone();
        let query = CompiledQuery::compile(&q.expr, &mut labels).unwrap();
        for semantics in [PathSemantics::Arbitrary, PathSemantics::Simple] {
            let mut config = EngineConfig::with_window(window);
            if semantics == PathSemantics::Simple {
                // RSPQ is worst-case exponential on conflicted
                // instances (§4 — NP-hard in general); random workloads
                // can hit such instances, so bound the traversal with
                // the engine's safety valve. The budget trip is
                // reported in stats, not an error.
                config.rspq_extend_budget = Some(1_000);
            }
            let (engine, id, _) = solo(query.clone(), config, semantics, &ds.tuples);
            assert!(
                engine.stats(id).unwrap().tuples_processed <= ds.len() as u64,
                "query {}",
                q.expr
            );
        }
    }
}

/// A reproduction finding (DESIGN.md §8): Algorithm RSPQ as specified
/// in the paper is *incomplete on conflicted instances*. Markings are
/// created under one prefix path, and case-1 cycle pruning inside the
/// marked node's exploration depends on that prefix; reaching the
/// marked node later from a different prefix (case-2 prune) can
/// therefore hide a simple witness that only exists under the new
/// prefix. Query `a b* a` ([s1] ⊉ [s2]); after the conflict at tuple 5
/// unmarks the ancestors of (1,s1), the node (3,s1) — a *descendant* —
/// stays marked, and the late edge 0→3 is pruned at it, missing the
/// simple path 0→3→1→2.
///
/// This test documents the behaviour: the engine is sound but reports
/// one pair fewer than the brute-force oracle.
#[test]
fn rspq_incompleteness_counterexample() {
    use srpq_baseline::evaluate_simple_bruteforce;
    use srpq_common::{Label, ResultPair, StreamTuple, Timestamp, VertexId};
    use srpq_graph::WindowGraph;

    let query = CompiledQuery::compile("a b* a", &mut srpq_harness::labels(2)).unwrap();
    let (a, b) = (Label(0), Label(1));
    let v = VertexId;
    let stream = [
        StreamTuple::insert(Timestamp(1), v(0), v(2), a),
        StreamTuple::insert(Timestamp(2), v(2), v(1), b),
        StreamTuple::insert(Timestamp(3), v(1), v(3), b),
        StreamTuple::insert(Timestamp(4), v(3), v(1), b),
        // Triggers the conflict at vertex 2 ([s1] ⊉ [s2]) and unmarks
        // the ancestors of (1, s1) — but not the descendant (3, s1).
        StreamTuple::insert(Timestamp(5), v(1), v(2), a),
        // New prefix reaching the still-marked (3, s1): pruned, hiding
        // the simple witness 0→3→1→2.
        StreamTuple::insert(Timestamp(6), v(0), v(3), a),
    ];
    let window = WindowPolicy::new(1_000, 1);
    let config = EngineConfig::with_window(window);
    let (engine, id, sink) = solo(query.clone(), config, PathSemantics::Simple, &stream);
    let mut graph = WindowGraph::new();
    for &t in &stream {
        graph.insert(t.edge.src, t.edge.dst, t.label, t.ts);
    }
    let expected = evaluate_simple_bruteforce(&graph, Timestamp(i64::MIN), query.dfa());
    let got = sink.pairs();
    // Sound: everything reported is a true simple-path result.
    for p in &got {
        assert!(expected.contains(p), "unsound {p}");
    }
    // The documented gap: (0, 2) is a true result the algorithm misses.
    let missing = ResultPair::new(v(0), v(2));
    assert!(expected.contains(&missing));
    assert!(
        !got.contains(&missing),
        "algorithm now finds (0,2) — the paper-faithful incompleteness \
         has been fixed; update DESIGN.md §8 and this test"
    );
    assert!(engine.stats(id).unwrap().conflicts_detected >= 1);
}

#[test]
fn rspq_subset_of_rapq_on_so_sample() {
    let ds = so::generate(&so::SoConfig {
        n_users: 60,
        n_edges: 1_200,
        duration: 5_000,
        seed: 12,
        preferential: 0.6,
    });
    let window = window_for(&ds, 25, 750);
    // Conflict-heavy query on a cyclic graph.
    for expr in ["(a2q c2a)+", "a2q c2a* c2q"] {
        let mut labels = ds.labels.clone();
        let query = CompiledQuery::compile(expr, &mut labels).unwrap();
        let config = EngineConfig::with_window(window);
        let (_, _, sa) = solo(query.clone(), config, PathSemantics::Arbitrary, &ds.tuples);
        let (_, _, ss) = solo(query, config, PathSemantics::Simple, &ds.tuples);
        let arbitrary = sa.pairs();
        for p in ss.pairs() {
            assert!(arbitrary.contains(&p), "{expr}: {p} reported only by RSPQ");
        }
    }
}
