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
use srpq_common::StreamTuple;
use srpq_core::{EngineConfig, PathSemantics};
use srpq_graph::WindowPolicy;
use srpq_harness::{check_oracle, labels, random_stream, solo, Expect, StreamSpec};

/// Insert-only random stream: `len` tuples over `vertices` vertices
/// and the labels `a`, `b`, timestamps advancing by 0–2 per tuple.
fn stream(len: usize, vertices: u32, seed: u64) -> Vec<StreamTuple> {
    random_stream(&StreamSpec::new(len, vertices, 2, seed))
}

/// [`stream`] with deletions of previously inserted edges mixed in:
/// after each insert, with chance 0.15, one of the edges inserted so
/// far is deleted at the same timestamp.
fn with_deletions(len: usize, seed: u64) -> Vec<StreamTuple> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut out = Vec::new();
    let mut seen: Vec<StreamTuple> = Vec::new();
    for t in stream(len, 5, seed) {
        out.push(t);
        seen.push(t);
        if rng.gen_bool(0.15) {
            let v = seen[rng.gen_range(0..seen.len())];
            out.push(StreamTuple::delete(t.ts, v.edge.src, v.edge.dst, v.label));
        }
    }
    out
}

fn compile(expr: &str) -> CompiledQuery {
    CompiledQuery::compile(expr, &mut labels(2)).unwrap()
}

/// [`check_oracle`] over every `expr` × seed, the engine running under
/// the first window and the oracle under the second.
fn sweep(
    exprs: &[&str],
    seeds: std::ops::Range<u64>,
    (semantics, expect): (PathSemantics, Expect),
    windows: (WindowPolicy, WindowPolicy),
    stream: impl Fn(u64) -> Vec<StreamTuple>,
) {
    for &expr in exprs {
        for seed in seeds.clone() {
            let ctx = format!("query {expr}, seed {seed}");
            check_oracle(
                &compile(expr),
                semantics,
                windows,
                &stream(seed),
                expect,
                &ctx,
            );
        }
    }
}

const QUERIES: &[&str] = &[
    "a", "a*", "a b", "a b*", "(a b)+", "(a | b)*", "a b* a", "a? b+", "a* b*",
];
const RAPQ_EXACT: (PathSemantics, Expect) = (PathSemantics::Arbitrary, Expect::Exact);
/// Completeness is only guaranteed on conflict-free runs (see `Expect`).
const RSPQ: (PathSemantics, Expect) = (PathSemantics::Simple, Expect::ExactUnlessConflicted);

/// `w` for the engine and the oracle alike, with eager expiry.
fn eager(w: i64) -> (WindowPolicy, WindowPolicy) {
    (WindowPolicy::new(w, 1), WindowPolicy::new(w, 1))
}

#[test]
fn rapq_matches_oracle_exactly_with_eager_expiry() {
    sweep(QUERIES, 0..5, RAPQ_EXACT, eager(12), |seed| {
        stream(120, 6, seed)
    });
}

#[test]
fn rspq_matches_bruteforce_oracle_with_eager_expiry() {
    // Smaller streams: the brute-force oracle enumerates all simple
    // paths per snapshot.
    sweep(QUERIES, 0..5, RSPQ, eager(10), |seed| stream(60, 5, seed));
}

#[test]
fn rapq_is_sound_under_lazy_expiry() {
    // Lazy: slide 7, so several tuples share an expiry pass. The lazy
    // oracle admits anything valid w.r.t. the *lazy* watermark (window
    // as of the last slide boundary).
    let windows = (WindowPolicy::new(12, 7), WindowPolicy::new(12 + 7, 1));
    let rapq_sound = (PathSemantics::Arbitrary, Expect::Sound);
    sweep(QUERIES, 0..3, rapq_sound, windows, |seed| {
        stream(150, 6, seed)
    });
}

#[test]
fn rapq_with_deletions_matches_oracle() {
    // Emission stream (distinct pairs ever emitted) must equal the
    // cumulative oracle: deletions never remove already-reported pairs
    // from the append-only stream.
    let exprs = ["a b", "a+", "(a | b)*", "a b*"];
    sweep(&exprs, 10..14, RAPQ_EXACT, eager(15), |seed| {
        with_deletions(100, seed)
    });
}

#[test]
fn rspq_with_deletions_matches_oracle() {
    let exprs = ["a b", "(a b)+", "a+"];
    sweep(&exprs, 20..23, RSPQ, eager(12), |seed| {
        with_deletions(60, seed)
    });
}

#[test]
fn simple_results_subset_of_arbitrary() {
    for seed in 0..5u64 {
        let stream = stream(80, 6, seed);
        for &expr in &["(a b)+", "a b* a", "(a | b)+"] {
            let query = compile(expr);
            let config = EngineConfig::with_window(WindowPolicy::new(15, 1));
            let (_, _, sa) = solo(query.clone(), config, PathSemantics::Arbitrary, &stream);
            let (_, _, ss) = solo(query, config, PathSemantics::Simple, &stream);
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
