//! Batch-ingestion equivalence: `process_batch` must produce streams
//! identical to per-tuple `process` on the same input.
//!
//! * One RAPQ or RSPQ query: the emission and invalidation streams
//!   (pairs *and* timestamps, in order) are required to be
//!   byte-identical across arbitrary chunkings, and the Δ index and
//!   window graph must end in the same state.
//! * Several queries: the tagged result stream is compared exactly.
//! * One query on the worker pool (what `srpq run --workers N` hosts):
//!   micro-batch hand-off must not show — the untagged stream is
//!   per-tuple processing's, byte for byte.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use srpq_automata::CompiledQuery;
use srpq_common::{Label, LabelInterner, StreamTuple, Timestamp, VertexId};
use srpq_core::multi::{MultiCollectSink, MultiQueryEngine};
use srpq_core::sink::CollectSink;
use srpq_core::{EngineConfig, PathSemantics};
use srpq_graph::WindowPolicy;
use srpq_harness::solo;

/// Random stream with refreshes (duplicate edges) and explicit
/// deletions over a small vertex/label universe.
fn random_stream(n: usize, n_vertices: u32, n_labels: u32, seed: u64) -> Vec<StreamTuple> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut ts = 0i64;
    let mut live: Vec<StreamTuple> = Vec::new();
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        ts += rng.gen_range(0..=2i64);
        if !live.is_empty() && rng.gen_bool(0.12) {
            // Explicit deletion of a previously inserted edge.
            let e = live[rng.gen_range(0..live.len())];
            out.push(StreamTuple::delete(
                Timestamp(ts),
                e.edge.src,
                e.edge.dst,
                e.label,
            ));
            continue;
        }
        if !live.is_empty() && rng.gen_bool(0.2) {
            // Refresh: re-insert an existing edge at the current time.
            let e = live[rng.gen_range(0..live.len())];
            out.push(StreamTuple::insert(
                Timestamp(ts),
                e.edge.src,
                e.edge.dst,
                e.label,
            ));
            continue;
        }
        let src = VertexId(rng.gen_range(0..n_vertices));
        let mut dst = VertexId(rng.gen_range(0..n_vertices));
        if dst == src {
            dst = VertexId((dst.0 + 1) % n_vertices);
        }
        let t = StreamTuple::insert(Timestamp(ts), src, dst, Label(rng.gen_range(0..n_labels)));
        live.push(t);
        out.push(t);
    }
    out
}

fn interner_for(n_labels: u32) -> LabelInterner {
    let mut labels = LabelInterner::new();
    for i in 0..n_labels {
        labels.intern(&((b'a' + i as u8) as char).to_string());
    }
    labels
}

/// Deterministic irregular chunking (sizes cycle through a seed-chosen
/// pattern, including chunks that span and chunks that split slides).
fn chunkings(seed: u64) -> Vec<usize> {
    match seed % 4 {
        0 => vec![1],
        1 => vec![3, 1, 7],
        2 => vec![16],
        _ => vec![64, 5],
    }
}

fn drive_batched(
    engine: &mut MultiQueryEngine,
    stream: &[StreamTuple],
    sizes: &[usize],
) -> CollectSink {
    let mut sink = CollectSink::default();
    let mut i = 0;
    let mut si = 0;
    while i < stream.len() {
        let take = sizes[si % sizes.len()].min(stream.len() - i);
        engine.process_batch(&stream[i..i + take], &mut sink);
        i += take;
        si += 1;
    }
    sink
}

fn engines_agree(expr: &str, semantics: PathSemantics, window: WindowPolicy, seed: u64) {
    let stream = random_stream(220, 8, 2, seed);
    let mut labels = interner_for(2);
    let query = CompiledQuery::compile(expr, &mut labels).unwrap();
    let config = EngineConfig::with_window(window);

    let (mut single, id) = solo(query.clone(), config, semantics);
    let mut s_sink = CollectSink::default();
    for &t in &stream {
        single.process(t, &mut s_sink);
    }

    let (mut batched, _) = solo(query, config, semantics);
    let b_sink = drive_batched(&mut batched, &stream, &chunkings(seed));

    let ctx = format!("query {expr}, {semantics:?}, seed {seed}");
    assert_eq!(
        s_sink.emitted(),
        b_sink.emitted(),
        "emissions differ: {ctx}"
    );
    assert_eq!(
        s_sink.invalidated(),
        b_sink.invalidated(),
        "invalidations differ: {ctx}"
    );
    assert_eq!(
        single.index_size(id),
        batched.index_size(id),
        "index sizes differ: {ctx}"
    );
    assert_eq!(
        single.graph().n_edges(),
        batched.graph().n_edges(),
        "graphs differ: {ctx}"
    );
    assert_eq!(
        single.graph().n_vertices(),
        batched.graph().n_vertices(),
        "graphs differ: {ctx}"
    );
    assert_eq!(single.now(), batched.now(), "clocks differ: {ctx}");

    // And after a forced expiry pass both still agree.
    let mut s2 = CollectSink::default();
    let mut b2 = CollectSink::default();
    single.expire_now(&mut s2);
    batched.expire_now(&mut b2);
    assert_eq!(s2.emitted(), b2.emitted(), "post-expiry differs: {ctx}");
    assert_eq!(
        single.index_size(id),
        batched.index_size(id),
        "post-expiry index differs: {ctx}"
    );
}

#[test]
fn rapq_batch_stream_is_byte_identical() {
    for &expr in &["a", "a b", "(a b)+", "(a | b)*", "a b* a"] {
        for seed in 0..6u64 {
            for window in [WindowPolicy::new(12, 1), WindowPolicy::new(20, 5)] {
                engines_agree(expr, PathSemantics::Arbitrary, window, seed);
            }
        }
    }
}

#[test]
fn rspq_batch_stream_is_byte_identical() {
    for &expr in &["a b", "(a b)+", "a b* a"] {
        for seed in 0..4u64 {
            for window in [WindowPolicy::new(10, 1), WindowPolicy::new(16, 4)] {
                engines_agree(expr, PathSemantics::Simple, window, seed);
            }
        }
    }
}

#[test]
fn multi_query_batch_stream_is_byte_identical() {
    for seed in 0..4u64 {
        let stream = random_stream(200, 8, 2, seed);
        let mut labels = interner_for(2);
        let q1 = CompiledQuery::compile("a b*", &mut labels).unwrap();
        let q2 = CompiledQuery::compile("(a | b)+", &mut labels).unwrap();
        let window = WindowPolicy::new(18, 4);

        let mut single = MultiQueryEngine::new(window);
        single
            .register("q1", q1.clone(), PathSemantics::Arbitrary)
            .unwrap();
        single
            .register("q2", q2.clone(), PathSemantics::Arbitrary)
            .unwrap();
        let mut s_sink = MultiCollectSink::default();
        for &t in &stream {
            single.process(t, &mut s_sink);
        }

        let mut batched = MultiQueryEngine::new(window);
        batched
            .register("q1", q1, PathSemantics::Arbitrary)
            .unwrap();
        batched
            .register("q2", q2, PathSemantics::Arbitrary)
            .unwrap();
        let mut b_sink = MultiCollectSink::default();
        let sizes = chunkings(seed);
        let mut i = 0;
        let mut si = 0;
        while i < stream.len() {
            let take = sizes[si % sizes.len()].min(stream.len() - i);
            batched.process_batch(&stream[i..i + take], &mut b_sink);
            i += take;
            si += 1;
        }

        assert_eq!(s_sink.emitted, b_sink.emitted, "seed {seed}");
        assert_eq!(s_sink.invalidated, b_sink.invalidated, "seed {seed}");
        assert_eq!(single.graph().n_edges(), batched.graph().n_edges());
        assert_eq!(single.routing_stats(), batched.routing_stats());
    }
}

#[test]
fn parallel_batch_matches_sequential_result_set() {
    for seed in 0..3u64 {
        let stream = random_stream(260, 10, 2, seed);
        let mut labels = interner_for(2);
        let query = CompiledQuery::compile("a b*", &mut labels).unwrap();
        let config = EngineConfig::with_window(WindowPolicy::new(20, 5));

        let (mut sequential, seq_id) = solo(query.clone(), config, PathSemantics::Arbitrary);
        let mut ss = CollectSink::default();
        for &t in &stream {
            sequential.process(t, &mut ss);
        }
        sequential.expire_now(&mut ss);

        let mut parallel = MultiQueryEngine::with_config(config);
        parallel.set_workers(4);
        let id = parallel
            .register("q", query, PathSemantics::Arbitrary)
            .unwrap();
        let mut sp = CollectSink::default();
        for chunk in stream.chunks(48) {
            parallel.process_batch(chunk, &mut sp);
        }
        parallel.expire_now(&mut sp);

        assert_eq!(ss.emitted(), sp.emitted(), "seed {seed}");
        assert_eq!(ss.invalidated(), sp.invalidated(), "seed {seed}");
        assert_eq!(
            sequential.index_size(seq_id),
            parallel.index_size(id),
            "seed {seed}"
        );
        assert_eq!(
            sequential.graph().n_edges(),
            parallel.graph().n_edges(),
            "seed {seed}"
        );
    }
}
