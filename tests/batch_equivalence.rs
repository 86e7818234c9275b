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

use srpq_core::{EngineConfig, PathSemantics, QueryId};
use srpq_graph::WindowPolicy;
use srpq_harness::{
    assert_identical, assert_same_end, Chunks, Run, Scenario, Schedule, Step, StreamSpec, REST,
};

/// `queries` registered at stream start, over a random stream with
/// refreshes (duplicate edges) and explicit deletions on a small
/// vertex/label universe, fed whole; then `tail`.
fn scenario(
    queries: &[(&str, &str, PathSemantics)],
    window: WindowPolicy,
    (len, vertices, seed): (usize, u32, u64),
    tail: &[Step],
) -> Scenario {
    let stream = StreamSpec::new(len, vertices, 2, seed)
        .deletes(0.12)
        .refreshes(0.2);
    let script = [&[REST], tail].concat();
    Scenario::new(EngineConfig::with_window(window), &stream, queries, &script)
}

/// Deterministic irregular chunking (sizes cycle through a seed-chosen
/// pattern, including chunks that span and chunks that split slides).
fn chunkings(seed: u64) -> Schedule {
    Schedule::chunks(Chunks::Sizes(match seed % 4 {
        0 => vec![1],
        1 => vec![3, 1, 7],
        2 => vec![16],
        _ => vec![64, 5],
    }))
}

/// Index sizes, window graphs and clocks agree.
fn same_index_and_graph(single: &Run, batched: &Run, ctx: &str) {
    let state = |run: &Run| {
        let (e, id) = (run.engine(), QueryId(0));
        let graph = (e.graph().n_edges(), e.graph().n_vertices());
        (e.index_size(id), graph, e.now())
    };
    let (s, b) = (state(single), state(batched));
    assert_eq!(s, b, "index, graph or clock differ: {ctx}");
}

fn engines_agree(expr: &str, semantics: PathSemantics, window: WindowPolicy, seed: u64) {
    let expire = [Step::ExpireNow];
    let sc = scenario(&[("q", expr, semantics)], window, (220, 8, seed), &expire);
    let mut single = sc.run_to(&Schedule::per_tuple(), 2);
    let mut batched = sc.run_to(&chunkings(seed), 2);
    let ctx = format!("query {expr}, {semantics:?}, seed {seed}");
    assert_identical(&batched, &single, &ctx);
    same_index_and_graph(&single, &batched, &ctx);

    // And after a forced expiry pass both still agree.
    single.steps(1);
    batched.steps(1);
    assert_identical(&batched, &single, &format!("post-expiry: {ctx}"));
    same_index_and_graph(&single, &batched, &format!("post-expiry: {ctx}"));
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
        let queries = [
            ("q1", "a b*", PathSemantics::Arbitrary),
            ("q2", "(a | b)+", PathSemantics::Arbitrary),
        ];
        let sc = scenario(&queries, WindowPolicy::new(18, 4), (200, 8, seed), &[]);
        let single = sc.run(&Schedule::per_tuple());
        let batched = sc.run(&chunkings(seed));
        assert_identical(&batched, &single, &format!("seed {seed}"));
        // Graph edges and routing stats included.
        assert_same_end(&batched, &single, &format!("seed {seed}"));
    }
}

#[test]
fn parallel_batch_matches_sequential_result_set() {
    for seed in 0..3u64 {
        let query = [("q", "a b*", PathSemantics::Arbitrary)];
        let expire = [Step::ExpireNow];
        let sc = scenario(&query, WindowPolicy::new(20, 5), (260, 10, seed), &expire);
        let sequential = sc.run(&Schedule::per_tuple());
        let parallel = sc.run(&Schedule::batches(48).workers(4));
        let ctx = format!("seed {seed}");
        assert_identical(&parallel, &sequential, &ctx);
        same_index_and_graph(&sequential, &parallel, &ctx);
    }
}
