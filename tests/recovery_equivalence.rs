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
//! the same stream timestamps, and the same end state. `Full` recovery
//! meets it on every stream; `Logical` recovery on the matrix seeds,
//! and where it does not (the rebuilt Δ carries fresher timestamps),
//! `logical_divergent_seeds_keep_the_logical_contract` pins the weaker
//! contract `srpq_persist::durable` documents.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use srpq_automata::CompiledQuery;
use srpq_core::sink::CollectSink;
use srpq_core::{EngineConfig, PathSemantics};
use srpq_graph::WindowPolicy;
use srpq_harness::{
    assert_identical, assert_logical_contract, assert_same_end, assert_sorted_identical,
    durability, labels, random_stream, solo, Run, Scenario, Schedule, Step, StreamSpec, TempDir,
    REST,
};
use srpq_persist::{CheckpointStrategy, Durable};

const BATCH: usize = 23;

/// The matrix's query.
const MATRIX: &str = "a b* a?";

const STRATEGIES: [CheckpointStrategy; 2] = [CheckpointStrategy::Logical, CheckpointStrategy::Full];

/// `queries` registered over a random insert/delete stream on two
/// labels, cut at `cut`: the run crashes there, recovers onto `onto`
/// worker threads and finishes the stream.
fn crash_at(
    queries: &[(&str, &str, PathSemantics)],
    window: WindowPolicy,
    (len, vertices, seed): (usize, u32, u64),
    (cut, onto): (usize, usize),
) -> Scenario {
    let stream = StreamSpec::new(len, vertices, 2, seed).deletes(0.08);
    let script = [Step::Ingest(cut), Step::Crash, Step::SetWorkers(onto), REST];
    Scenario::new(EngineConfig::with_window(window), &stream, queries, &script)
}

/// A cut in the stream's middle, drawn from `seed ^ salt`.
fn random_cut(seed: u64, salt: u64) -> usize {
    SmallRng::seed_from_u64(seed ^ salt).gen_range(60..450 - 60)
}

/// [`MATRIX`] alone under `semantics` on the matrix's stream `seed`, cut
/// at a random point drawn with `salt` and recovered onto `onto`
/// workers.
fn matrix(semantics: PathSemantics, seed: u64, salt: u64, onto: usize) -> Scenario {
    let (window, cut) = (WindowPolicy::new(30, 6), random_cut(seed, salt));
    crash_at(
        &[("q", MATRIX, semantics)],
        window,
        (450, 12, seed),
        (cut, onto),
    )
}

/// The matrix contract against the uninterrupted `reference`: the same
/// sorted streams, live results and deterministic counters.
fn assert_matches(run: &Run, reference: &Run, name: &str) {
    assert_sorted_identical(run, reference, &format!("{name}: streams diverge"));
    assert_same_end(run, reference, name);
}

/// The uninterrupted reference: `sc`'s host without workers or crash.
fn reference(sequential: &Scenario) -> Run<'_> {
    sequential.run(&Schedule::batches(BATCH))
}

/// Crashed at `sc`'s cut after writing at `workers`.
fn crashed(sc: &Scenario, strategy: CheckpointStrategy, workers: usize) -> Run<'_> {
    sc.run(&Schedule::batches(BATCH).workers(workers).durable(strategy))
}

/// RAPQ / RSPQ as the single query of the host without workers.
fn single_engine_matrix(semantics: PathSemantics) {
    for strategy in STRATEGIES {
        for seed in 0..3 {
            let name = format!("{semantics:?}-{strategy}-{seed}");
            let sc = matrix(semantics, seed, 0xC0FFEE, 0);
            let run = crashed(&sc, strategy, 0);
            assert_matches(&run, &reference(&sc.sequential()), &name);
        }
    }
}

#[test]
fn rapq_crash_matrix() {
    single_engine_matrix(PathSemantics::Arbitrary);
}

#[test]
fn rspq_crash_matrix() {
    single_engine_matrix(PathSemantics::Simple);
}

/// Multi-query engine over a shared graph.
#[test]
fn multi_crash_matrix() {
    let queries = [
        ("ab_star", "a b*", PathSemantics::Arbitrary),
        ("alt_plus", "(a | b)+", PathSemantics::Arbitrary),
        ("ba_simple", "b a", PathSemantics::Simple),
    ];
    for strategy in STRATEGIES {
        for seed in 0..3 {
            let name = format!("multi-{strategy}-{seed}");
            let cut = (random_cut(seed, 0xBEEF), 0);
            let sc = crash_at(&queries, WindowPolicy::new(30, 6), (450, 12, seed), cut);
            let run = crashed(&sc, strategy, 0);
            assert_matches(&run, &reference(&sc.sequential()), &name);
        }
    }
}

/// The single query on the worker pool: written at 2 workers, crashed,
/// recovered onto 1 and onto 4. The pool's stream is the sequential
/// one, so besides the matrix contract against the reference run the
/// two recoveries must agree with each other byte for byte (both
/// rebuild the same state from the same directory contents).
#[test]
fn parallel_crash_matrix() {
    for strategy in STRATEGIES {
        for seed in 0..3 {
            let name = format!("parallel-{strategy}-{seed}");
            let [sc_1, sc_4] =
                [1, 4].map(|onto| matrix(PathSemantics::Arbitrary, seed, 0xFACE, onto));
            let sequential = sc_1.sequential();
            let ref_run = reference(&sequential);
            let [onto_1, onto_4] = [&sc_1, &sc_4].map(|sc| crashed(sc, strategy, 2));
            assert_matches(&onto_1, &ref_run, &format!("{name} onto 1 workers"));
            assert_matches(&onto_4, &ref_run, &format!("{name} onto 4 workers"));
            // Before the crash nothing was rebuilt: the pooled writer's
            // stream is the sequential engine's, in order.
            let e = onto_1.marks[1].0;
            let msg = "pooled pre-crash stream is not the sequential prefix";
            assert_eq!(
                onto_1.emitted()[..e],
                ref_run.emitted()[..e],
                "{name}: {msg}"
            );
            let msg = "worker count changed the recovered stream";
            assert_identical(&onto_1, &onto_4, &format!("{name}: {msg}"));
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
    let query = [("q", "(a | b)+ a", PathSemantics::Arbitrary)];
    let sc = crash_at(&query, WindowPolicy::new(200, 40), (1_500, 30, 0), (750, 2));
    let run = crashed(&sc, CheckpointStrategy::Full, 0);
    assert_matches(&run, &reference(&sc.sequential()), "dense");
}

/// Seeds of the single-query RAPQ case (`single_engine_case`) whose
/// `Logical` recovery does not reproduce the uninterrupted stream
/// exactly, found by sweeping seeds 0..200.
const LOGICAL_DIVERGENT_SEEDS: [u64; 4] = [70, 157, 176, 183];

/// The `Logical` contract where exact equality fails (see
/// [`assert_logical_contract`]).
#[test]
fn logical_divergent_seeds_keep_the_logical_contract() {
    for seed in LOGICAL_DIVERGENT_SEEDS {
        let name = format!("rapq-logical-{seed}");
        let sc = matrix(PathSemantics::Arbitrary, seed, 0xC0FFEE, 0);
        let run = crashed(&sc, CheckpointStrategy::Logical, 0);
        assert_logical_contract(&run, &reference(&sc.sequential()), MATRIX, &name);
    }
}

/// Crashing exactly at a checkpoint boundary (empty WAL suffix) and
/// immediately after `create` (manifest-only) must both recover.
#[test]
fn edge_cuts_recover() {
    let dir = TempDir::new("edge-manifest");
    let labels = labels(2);
    let cfg = durability(CheckpointStrategy::Logical);
    // Manifest-only: no tuple ever processed.
    let query = CompiledQuery::compile("a b*", &mut labels.clone()).unwrap();
    let config = EngineConfig::with_window(WindowPolicy::new(30, 6));
    let (multi, id, _) = solo(query, config, PathSemantics::Arbitrary, &[]);
    drop(Durable::create(multi, dir.path(), cfg).unwrap());
    let (mut recovered, report) = Durable::recover(dir.path(), &mut labels.clone(), cfg).unwrap();
    assert_eq!(report.resume_seq, 0);
    assert_eq!(report.replayed_tuples, 0);
    let spec = StreamSpec::new(80, 8, 2, 11).deletes(0.08);
    let mut sink = CollectSink::default();
    for chunk in random_stream(&spec).chunks(BATCH) {
        recovered.process_batch(chunk, &mut sink).unwrap();
    }
    // Checkpoint boundary: checkpoint manually, crash, recover — the
    // suffix replay is empty.
    recovered.checkpoint().unwrap();
    let count_before = recovered.inner().engine(id).unwrap().result_count();
    drop(recovered);
    let (recovered, report) = Durable::recover(dir.path(), &mut labels.clone(), cfg).unwrap();
    assert_eq!(report.replayed_tuples, 0, "checkpoint covers the whole log");
    assert_eq!(
        recovered.inner().engine(id).unwrap().result_count(),
        count_before
    );
}
