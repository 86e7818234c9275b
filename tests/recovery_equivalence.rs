//! Crash-injection matrix: for each shape of the one durable host (a
//! single RAPQ query, a single RSPQ query, several queries, a single
//! query on the worker pool) × each checkpoint strategy (logical,
//! full), cut the run at randomized tuple indexes, recover from the
//! durable directory, finish the stream, and assert the combined result
//! stream and the engine statistics match an uninterrupted run. The
//! single-query shapes are what `srpq run` hosts — a one-query
//! `MultiQueryEngine` feeding a `CollectSink` — and their reference is
//! the same host run without workers or a crash.
//!
//! The engines run the default configuration (`srpq run`'s and
//! `serve`'s). Equality contract: the same results and invalidations at
//! the same stream timestamps (within-timestamp ordering is
//! hash-iteration private across an engine rebuild and not pinned).
//! `Full` recovery meets it on every stream. `Logical` recovery meets it
//! on the matrix seeds; on the few streams where it does not (the
//! rebuilt Δ carries fresher timestamps than the crashed one did),
//! `logical_divergent_seeds_keep_the_logical_contract` pins the weaker
//! contract `srpq_persist::durable` documents.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use srpq_automata::CompiledQuery;
use srpq_common::{Label, LabelInterner, ResultPair, StreamTuple, Timestamp, VertexId};
use srpq_core::multi::{MultiCollectSink, MultiQueryEngine};
use srpq_core::sink::CollectSink;
use srpq_core::{EngineStats, PathSemantics, QueryId};
use srpq_graph::WindowPolicy;
use srpq_harness::{Oracle, OracleMode};
use srpq_persist::{CheckpointStrategy, DurabilityConfig, Durable, SyncPolicy};
use std::path::PathBuf;

const BATCH: usize = 23;

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("srpq-recovery-eq-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A random insert/delete stream over two labels with non-negative,
/// non-decreasing timestamps (the WAL boundary rejects negative ts).
fn random_stream(n: usize, n_vertices: u32, seed: u64) -> Vec<StreamTuple> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut ts = 0i64;
    let mut inserted: Vec<StreamTuple> = Vec::new();
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        ts += rng.gen_range(0..=2i64);
        if !inserted.is_empty() && rng.gen_bool(0.08) {
            let v = inserted[rng.gen_range(0..inserted.len())];
            out.push(StreamTuple::delete(
                Timestamp(ts),
                v.edge.src,
                v.edge.dst,
                v.label,
            ));
            continue;
        }
        let src = VertexId(rng.gen_range(0..n_vertices));
        let mut dst = VertexId(rng.gen_range(0..n_vertices));
        if dst == src {
            dst = VertexId((dst.0 + 1) % n_vertices);
        }
        let t = StreamTuple::insert(Timestamp(ts), src, dst, Label(rng.gen_range(0..2)));
        inserted.push(t);
        out.push(t);
    }
    out
}

fn labels_ab() -> LabelInterner {
    let mut labels = LabelInterner::new();
    labels.intern("a");
    labels.intern("b");
    labels
}

/// A registered query and the window it runs under.
#[derive(Clone, Copy)]
struct Case {
    expr: &'static str,
    window: WindowPolicy,
}

/// The matrix's query.
const MATRIX: Case = Case {
    expr: "a b* a?",
    window: WindowPolicy {
        window_size: 30,
        slide: 6,
    },
};

fn durability(strategy: CheckpointStrategy) -> DurabilityConfig {
    DurabilityConfig {
        sync: SyncPolicy::Batch,
        strategy,
        checkpoint_every: 3,
        segment_bytes: 2 << 10,
    }
}

fn sorted_stream(parts: &[&[(ResultPair, Timestamp)]]) -> Vec<(ResultPair, Timestamp)> {
    let mut out: Vec<(ResultPair, Timestamp)> = parts.concat();
    out.sort_unstable_by_key(|&(p, ts)| (ts, p));
    out
}

fn assert_safe_stats_eq(got: &EngineStats, expect: &EngineStats, ctx: &str) {
    // Deterministic counters only: expiry timing/traversal-order
    // dependent counters (expiry_nanos, insert_calls) legitimately
    // differ across an engine rebuild.
    assert_eq!(
        got.tuples_processed, expect.tuples_processed,
        "{ctx}: tuples_processed"
    );
    assert_eq!(
        got.deletions_processed, expect.deletions_processed,
        "{ctx}: deletions_processed"
    );
    assert_eq!(
        got.results_emitted, expect.results_emitted,
        "{ctx}: results_emitted"
    );
    assert_eq!(
        got.results_invalidated, expect.results_invalidated,
        "{ctx}: results_invalidated"
    );
}

/// The one-query host `srpq run` drives: `case` registered alone on a
/// fresh engine with `workers` pool threads (0 = the calling thread).
fn one_query_host(
    case: Case,
    labels: &mut LabelInterner,
    semantics: PathSemantics,
    workers: usize,
) -> (MultiQueryEngine, QueryId) {
    let query = CompiledQuery::compile(case.expr, labels).unwrap();
    let mut multi = MultiQueryEngine::new(case.window);
    multi.set_workers(workers);
    let id = multi.register("q", query, semantics).unwrap();
    (multi, id)
}

/// What one crashed-and-recovered single-query run produced.
struct Crashed {
    pre: CollectSink,
    post: CollectSink,
    recovered: Durable,
    id: QueryId,
}

impl Crashed {
    /// The matrix contract against the uninterrupted `reference` run.
    fn assert_matches(&self, name: &str, reference: &MultiQueryEngine, ref_sink: &CollectSink) {
        let recovered = self.recovered.inner();
        let engine = recovered.engine(self.id).unwrap();
        let reference_engine = reference.engine(self.id).unwrap();
        assert_eq!(
            sorted_stream(&[ref_sink.emitted()]),
            sorted_stream(&[self.pre.emitted(), self.post.emitted()]),
            "{name}: emissions diverge"
        );
        assert_eq!(
            sorted_stream(&[ref_sink.invalidated()]),
            sorted_stream(&[self.pre.invalidated(), self.post.invalidated()]),
            "{name}: invalidations diverge"
        );
        assert_eq!(
            engine.result_count(),
            reference_engine.result_count(),
            "{name}: live result counts diverge"
        );
        for &(pair, _) in ref_sink.emitted() {
            assert_eq!(
                engine.has_result(pair),
                reference_engine.has_result(pair),
                "{name}: liveness of {pair} diverges"
            );
        }
        assert_safe_stats_eq(engine.stats(), reference_engine.stats(), name);
        assert_eq!(
            recovered.routing_stats(),
            reference.routing_stats(),
            "{name}: routing stats"
        );
    }
}

/// Writes `tuples[..cut]` durably at `write_workers`, crashes, recovers
/// at `recover_workers`, and finishes the stream.
fn crash_and_recover(
    name: &str,
    case: Case,
    semantics: PathSemantics,
    strategy: CheckpointStrategy,
    tuples: &[StreamTuple],
    cut: usize,
    (write_workers, recover_workers): (usize, usize),
) -> Crashed {
    let dir = tmpdir(name);
    let labels = labels_ab();
    let (multi, id) = one_query_host(case, &mut labels.clone(), semantics, write_workers);
    let mut durable = Durable::create(multi, &dir, durability(strategy)).unwrap();
    let mut pre = CollectSink::default();
    for chunk in tuples[..cut].chunks(BATCH) {
        durable.process_batch(chunk, &mut pre).unwrap();
    }
    drop(durable); // crash at `cut`

    let (mut recovered, report) =
        Durable::recover(&dir, &mut labels.clone(), durability(strategy)).unwrap();
    assert_eq!(
        report.resume_seq, cut as u64,
        "{name}: prefix not fully recovered"
    );
    assert_eq!(recovered.inner().query_ids(), [id], "{name}: registration");
    recovered.inner_mut().set_workers(recover_workers);
    let mut post = CollectSink::default();
    for chunk in tuples[cut..].chunks(BATCH) {
        recovered.process_batch(chunk, &mut post).unwrap();
    }
    std::fs::remove_dir_all(&dir).ok();
    Crashed {
        pre,
        post,
        recovered,
        id,
    }
}

/// The uninterrupted reference: the same host, without workers, never
/// crashed.
fn reference_run(
    case: Case,
    semantics: PathSemantics,
    tuples: &[StreamTuple],
) -> (MultiQueryEngine, CollectSink) {
    let (mut reference, _) = one_query_host(case, &mut labels_ab(), semantics, 0);
    let mut sink = CollectSink::default();
    for chunk in tuples.chunks(BATCH) {
        reference.process_batch(chunk, &mut sink);
    }
    (reference, sink)
}

/// RAPQ / RSPQ as the single query of the host without workers.
fn single_engine_case(semantics: PathSemantics, strategy: CheckpointStrategy, seed: u64) {
    let name = format!(
        "{}-{strategy}-{seed}",
        match semantics {
            PathSemantics::Arbitrary => "rapq",
            PathSemantics::Simple => "rspq",
        }
    );
    let tuples = random_stream(450, 12, seed);
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xC0FFEE);
    let cut = rng.gen_range(60..tuples.len() - 60);

    let (reference, ref_sink) = reference_run(MATRIX, semantics, &tuples);
    crash_and_recover(&name, MATRIX, semantics, strategy, &tuples, cut, (0, 0))
        .assert_matches(&name, &reference, &ref_sink);
}

#[test]
fn rapq_crash_matrix() {
    for strategy in [CheckpointStrategy::Logical, CheckpointStrategy::Full] {
        for seed in 0..3 {
            single_engine_case(PathSemantics::Arbitrary, strategy, seed);
        }
    }
}

#[test]
fn rspq_crash_matrix() {
    for strategy in [CheckpointStrategy::Logical, CheckpointStrategy::Full] {
        for seed in 0..3 {
            single_engine_case(PathSemantics::Simple, strategy, seed);
        }
    }
}

/// Multi-query engine over a shared graph.
fn multi_case(strategy: CheckpointStrategy, seed: u64) {
    let name = format!("multi-{strategy}-{seed}");
    let dir = tmpdir(&name);
    let labels = labels_ab();
    let tuples = random_stream(450, 12, seed);
    let window = WindowPolicy::new(30, 6);
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xBEEF);
    let cut = rng.gen_range(60..tuples.len() - 60);

    let make = |labels: &mut LabelInterner| {
        let mut multi = MultiQueryEngine::new(window);
        let q1 = CompiledQuery::compile("a b*", labels).unwrap();
        let q2 = CompiledQuery::compile("(a | b)+", labels).unwrap();
        let q3 = CompiledQuery::compile("b a", labels).unwrap();
        multi
            .register("ab_star", q1, PathSemantics::Arbitrary)
            .unwrap();
        multi
            .register("alt_plus", q2, PathSemantics::Arbitrary)
            .unwrap();
        multi
            .register("ba_simple", q3, PathSemantics::Simple)
            .unwrap();
        multi
    };

    let mut reference = make(&mut labels.clone());
    let mut ref_sink = MultiCollectSink::default();
    for chunk in tuples.chunks(BATCH) {
        reference.process_batch(chunk, &mut ref_sink);
    }

    let mut durable =
        Durable::create(make(&mut labels.clone()), &dir, durability(strategy)).unwrap();
    let mut pre = MultiCollectSink::default();
    for chunk in tuples[..cut].chunks(BATCH) {
        durable.process_batch(chunk, &mut pre).unwrap();
    }
    drop(durable);

    let (mut recovered, report) =
        Durable::<MultiQueryEngine>::recover(&dir, &mut labels.clone(), durability(strategy))
            .unwrap();
    assert_eq!(report.resume_seq, cut as u64, "{name}");
    let mut post = MultiCollectSink::default();
    for chunk in tuples[cut..].chunks(BATCH) {
        recovered.process_batch(chunk, &mut post).unwrap();
    }

    let sort = |parts: &[&MultiCollectSink]| {
        let mut emitted: Vec<_> = parts.iter().flat_map(|s| s.emitted.clone()).collect();
        emitted.sort_unstable_by_key(|&(id, p, ts)| (ts, id, p));
        let mut invalidated: Vec<_> = parts.iter().flat_map(|s| s.invalidated.clone()).collect();
        invalidated.sort_unstable_by_key(|&(id, p, ts)| (ts, id, p));
        (emitted, invalidated)
    };
    assert_eq!(
        sort(&[&ref_sink]),
        sort(&[&pre, &post]),
        "{name}: tagged streams diverge"
    );
    for qi in 0..reference.n_queries() as u32 {
        let id = srpq_core::QueryId(qi);
        assert_eq!(
            recovered.inner().name(id),
            reference.name(id),
            "{name}: registration order"
        );
        assert_safe_stats_eq(
            recovered.inner().stats(id).unwrap(),
            reference.stats(id).unwrap(),
            &format!("{name} q{qi}"),
        );
    }
    let (seen, routed) = reference.routing_stats();
    assert_eq!(
        recovered.inner().routing_stats(),
        (seen, routed),
        "{name}: routing stats"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn multi_crash_matrix() {
    for strategy in [CheckpointStrategy::Logical, CheckpointStrategy::Full] {
        for seed in 0..3 {
            multi_case(strategy, seed);
        }
    }
}

/// The single query on the worker pool: written at 2 workers, crashed,
/// recovered onto 1 and onto 4. The pool's stream is the sequential
/// one, so besides the matrix contract against the reference run the
/// two recoveries must agree with each other byte for byte (both
/// rebuild the same state from the same directory contents).
fn parallel_case(strategy: CheckpointStrategy, seed: u64) {
    let name = format!("parallel-{strategy}-{seed}");
    let tuples = random_stream(450, 12, seed);
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xFACE);
    let cut = rng.gen_range(60..tuples.len() - 60);
    let semantics = PathSemantics::Arbitrary;

    let (reference, ref_sink) = reference_run(MATRIX, semantics, &tuples);
    let runs = [1, 4].map(|workers| {
        let name = format!("{name}-onto-{workers}");
        crash_and_recover(
            &name,
            MATRIX,
            semantics,
            strategy,
            &tuples,
            cut,
            (2, workers),
        )
    });
    for (run, workers) in runs.iter().zip([1, 4]) {
        let name = format!("{name} onto {workers} workers");
        run.assert_matches(&name, &reference, &ref_sink);
    }
    // Before the crash nothing was rebuilt: the pooled writer's stream
    // is the sequential engine's, in order.
    let [onto_1, onto_4] = &runs;
    assert_eq!(
        onto_1.pre.emitted(),
        &ref_sink.emitted()[..onto_1.pre.emitted().len()],
        "{name}: pooled pre-crash stream is not the sequential prefix"
    );
    assert_eq!(onto_1.pre.emitted(), onto_4.pre.emitted(), "{name}");
    assert_eq!(
        onto_1.post.emitted(),
        onto_4.post.emitted(),
        "{name}: worker count changed the recovered stream"
    );
    assert_eq!(
        onto_1.post.invalidated(),
        onto_4.post.invalidated(),
        "{name}: worker count changed the recovered invalidations"
    );
}

#[test]
fn parallel_crash_matrix() {
    for strategy in [CheckpointStrategy::Logical, CheckpointStrategy::Full] {
        for seed in 0..3 {
            parallel_case(strategy, seed);
        }
    }
}

/// A wide window over a dense stream: which of a vertex's edges a
/// traversal meets first decides Δ's timestamps under the paper's
/// refresh rule, and swap-removals make that order a function of
/// history. `Full` recovery must restore it — the graph's posting lists
/// and expiry queue, not only its edge set.
#[test]
fn full_recovery_restores_traversal_order() {
    const DENSE: Case = Case {
        expr: "(a | b)+ a",
        window: WindowPolicy {
            window_size: 200,
            slide: 40,
        },
    };
    let semantics = PathSemantics::Arbitrary;
    let tuples = random_stream(1_500, 30, 0);
    let (reference, ref_sink) = reference_run(DENSE, semantics, &tuples);
    let strategy = CheckpointStrategy::Full;
    crash_and_recover("dense", DENSE, semantics, strategy, &tuples, 750, (0, 2))
        .assert_matches("dense", &reference, &ref_sink);
}

/// Seeds of the single-query RAPQ case (`single_engine_case`) whose
/// `Logical` recovery does not reproduce the uninterrupted stream
/// exactly, found by sweeping seeds 0..200.
const LOGICAL_DIVERGENT_SEEDS: [u64; 4] = [70, 157, 176, 183];

/// Whether `pair` is live at `at` in an emission/invalidation stream:
/// it was emitted at or before `at` and not invalidated since.
fn live_at(
    emitted: &[(ResultPair, Timestamp)],
    invalidated: &[(ResultPair, Timestamp)],
    pair: ResultPair,
    at: Timestamp,
) -> bool {
    let last = |events: &[(ResultPair, Timestamp)]| {
        events
            .iter()
            .filter(|&&(p, ts)| p == pair && ts <= at)
            .map(|&(_, ts)| ts)
            .max()
    };
    match (last(emitted), last(invalidated)) {
        (Some(e), Some(i)) => e >= i,
        (e, _) => e.is_some(),
    }
}

/// The `Logical` contract where exact equality fails: every result the
/// uninterrupted run reports at `t` is live in the recovered run at some
/// point of `[t, t + slide]`, every recovered emission is a result of
/// some window up to its timestamp (checked against the batch oracle),
/// and the recovered run invalidates nothing the uninterrupted run does
/// not.
#[test]
fn logical_divergent_seeds_keep_the_logical_contract() {
    let semantics = PathSemantics::Arbitrary;
    for seed in LOGICAL_DIVERGENT_SEEDS {
        let name = format!("rapq-logical-{seed}");
        let tuples = random_stream(450, 12, seed);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xC0FFEE);
        let cut = rng.gen_range(60..tuples.len() - 60);
        let (_, ref_sink) = reference_run(MATRIX, semantics, &tuples);
        let run = crash_and_recover(
            &name,
            MATRIX,
            semantics,
            CheckpointStrategy::Logical,
            &tuples,
            cut,
            (0, 0),
        );
        let emitted = sorted_stream(&[run.pre.emitted(), run.post.emitted()]);
        let invalidated = sorted_stream(&[run.pre.invalidated(), run.post.invalidated()]);

        for &(pair, ts) in ref_sink.emitted() {
            let by = Timestamp(ts.0 + MATRIX.window.slide);
            let surfaces = live_at(&emitted, &invalidated, pair, ts)
                || emitted.iter().any(|&(p, t)| p == pair && ts < t && t <= by);
            assert!(
                surfaces,
                "{name}: {pair}, reported at {ts:?}, is not live after recovery by {by:?}"
            );
        }
        let expected = sorted_stream(&[ref_sink.invalidated()]);
        for event in &invalidated {
            assert!(
                expected.contains(event),
                "{name}: recovery invalidated {event:?}, the uninterrupted run did not"
            );
        }
        let query = CompiledQuery::compile(MATRIX.expr, &mut labels_ab()).unwrap();
        let mut oracle = Oracle::new(MATRIX.window);
        let mut next = 0;
        for &(pair, ts) in &emitted {
            while next < tuples.len() && tuples[next].ts <= ts {
                oracle.step(tuples[next], query.dfa(), OracleMode::Arbitrary);
                next += 1;
            }
            assert!(
                oracle.cumulative().contains(&pair),
                "{name}: recovery reported {pair} at {ts:?}, which no window up to then holds"
            );
        }
    }
}

/// Crashing exactly at a checkpoint boundary (empty WAL suffix) and
/// immediately after `create` (manifest-only) must both recover.
#[test]
fn edge_cuts_recover() {
    let dir = tmpdir("edge-manifest");
    let labels = labels_ab();
    // Manifest-only: no tuple ever processed.
    let case = Case {
        expr: "a b*",
        ..MATRIX
    };
    let (multi, id) = one_query_host(case, &mut labels.clone(), PathSemantics::Arbitrary, 0);
    let durable = Durable::create(multi, &dir, durability(CheckpointStrategy::Logical)).unwrap();
    drop(durable);
    let (mut recovered, report) = Durable::recover(
        &dir,
        &mut labels.clone(),
        durability(CheckpointStrategy::Logical),
    )
    .unwrap();
    assert_eq!(report.resume_seq, 0);
    assert_eq!(report.replayed_tuples, 0);
    let tuples = random_stream(80, 8, 11);
    let mut sink = CollectSink::default();
    for chunk in tuples.chunks(BATCH) {
        recovered.process_batch(chunk, &mut sink).unwrap();
    }
    // Checkpoint boundary: checkpoint manually, crash, recover — the
    // suffix replay is empty.
    recovered.checkpoint().unwrap();
    let count_before = recovered.inner().engine(id).unwrap().result_count();
    drop(recovered);
    let (recovered, report) = Durable::recover(
        &dir,
        &mut labels.clone(),
        durability(CheckpointStrategy::Logical),
    )
    .unwrap();
    assert_eq!(report.replayed_tuples, 0, "checkpoint covers the whole log");
    assert_eq!(
        recovered.inner().engine(id).unwrap().result_count(),
        count_before
    );
    std::fs::remove_dir_all(&dir).ok();
}
