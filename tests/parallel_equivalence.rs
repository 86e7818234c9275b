//! Worker-count equivalence suite for `MultiQueryEngine`.
//!
//! The guarantee: the batch schedule's **tagged event stream** — every
//! `(QueryId, pair, ts)` emission and invalidation, in order — is
//! byte-identical to per-tuple processing, at any worker count
//! (including none), under deletions, window churn, and mid-stream
//! registration changes (`register_backfilled` / `deregister`, which
//! also rebalance the group partition). Plus the panic-safety contract
//! every worker count shares: a batch that panics poisons the engine,
//! and a poisoned engine refuses reuse — processing and registry calls
//! alike — loudly.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use srpq_automata::CompiledQuery;
use srpq_common::{Label, LabelInterner, ResultPair, StreamTuple, Timestamp, VertexId};
use srpq_core::engine::PathSemantics;
use srpq_core::multi::{MultiCollectSink, MultiQueryEngine, MultiSink, QueryId};
use srpq_core::EngineConfig;
use srpq_graph::WindowPolicy;

/// A random stream over `n_labels` labels with ~10% explicit deletions
/// and slowly advancing timestamps (several window slides).
fn random_stream(n: usize, n_vertices: u32, n_labels: u32, seed: u64) -> Vec<StreamTuple> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut ts = 0i64;
    let mut inserted: Vec<StreamTuple> = Vec::new();
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        ts += rng.gen_range(0..=2i64);
        if !inserted.is_empty() && rng.gen_bool(0.1) {
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
        let t = StreamTuple::insert(Timestamp(ts), src, dst, Label(rng.gen_range(0..n_labels)));
        inserted.push(t);
        out.push(t);
    }
    out
}

fn labels_abcd() -> LabelInterner {
    let mut labels = LabelInterner::new();
    for l in ["a", "b", "c", "d"] {
        labels.intern(l);
    }
    labels
}

const QUERIES: &[(&str, &str, PathSemantics)] = &[
    ("q_ab", "a b*", PathSemantics::Arbitrary),
    ("q_alt", "(a | b)+", PathSemantics::Arbitrary),
    ("q_chain", "a b a", PathSemantics::Arbitrary),
    ("q_c", "c+", PathSemantics::Arbitrary),
    ("q_cd", "c d", PathSemantics::Arbitrary),
    ("q_simple", "(a | c)*", PathSemantics::Simple),
    ("q_bd", "b d*", PathSemantics::Arbitrary),
    ("q_any", "(a | b | c | d)+", PathSemantics::Arbitrary),
];

/// How a run feeds its engine.
#[derive(Clone, Copy, Debug)]
enum Feed {
    /// The sequential reference of every sweep below: per-tuple
    /// `process` without workers. Every micro-batch then holds one
    /// tuple, so no visibility stamp can hide anything.
    PerTuple,
    /// `process_batch` on this many worker threads (`0` = the calling
    /// thread).
    Batches(usize),
}

impl Feed {
    fn workers(self) -> usize {
        match self {
            Feed::PerTuple => 0,
            Feed::Batches(n) => n,
        }
    }

    fn process<S: MultiSink>(
        self,
        engine: &mut MultiQueryEngine,
        chunk: &[StreamTuple],
        sink: &mut S,
    ) {
        match self {
            Feed::PerTuple => chunk.iter().for_each(|&t| engine.process(t, sink)),
            Feed::Batches(_) => engine.process_batch(chunk, sink),
        }
    }
}

/// An engine over `config` fed as `feed` says, with [`QUERIES`]
/// registered.
fn engine_with_queries(
    config: EngineConfig,
    feed: Feed,
    labels: &mut LabelInterner,
) -> MultiQueryEngine {
    let mut engine = MultiQueryEngine::with_config(config);
    engine.set_workers(feed.workers());
    for &(name, expr, sem) in QUERIES {
        let q = CompiledQuery::compile(expr, labels).unwrap();
        engine.register(name, q, sem).unwrap();
    }
    engine
}

/// Drives one engine through the scripted session: chunked batches with
/// a backfilled registration, a deregistration, and a name-reusing
/// re-registration at fixed chunk positions, then a final expiry pass.
struct Script<'a> {
    stream: &'a [StreamTuple],
    chunk: usize,
    labels: LabelInterner,
}

impl Script<'_> {
    /// A backfilled query joins after chunk 3, `q_c` leaves after chunk
    /// 6, and after chunk 8 the vacated name "q_c" is re-registered
    /// (fresh slot id, rebalanced partition).
    fn run(&self, config: EngineConfig, feed: Feed) -> MultiCollectSink {
        let mut labels = self.labels.clone();
        let mut engine = engine_with_queries(config, feed, &mut labels);
        let mut sink = MultiCollectSink::default();
        for (i, chunk) in self.stream.chunks(self.chunk).enumerate() {
            feed.process(&mut engine, chunk, &mut sink);
            if i == 3 {
                let q = CompiledQuery::compile("b (c | d)", &mut labels).unwrap();
                engine
                    .register_backfilled("late", q, PathSemantics::Arbitrary, &mut sink)
                    .unwrap();
            }
            if i == 8 {
                let q = CompiledQuery::compile("c a*", &mut labels).unwrap();
                engine
                    .register_backfilled("q_c", q, PathSemantics::Arbitrary, &mut sink)
                    .unwrap();
            }
            if i == 6 {
                let id = engine.query_id("q_c").expect("q_c is live");
                engine.deregister(id).unwrap();
            }
        }
        engine.expire_now(&mut sink);
        sink
    }
}

#[test]
fn byte_identical_stream_under_midstream_registration_changes() {
    let labels = labels_abcd();
    let stream = random_stream(1_500, 24, 4, 0xbeef);
    let script = Script {
        stream: &stream,
        chunk: 96,
        labels,
    };
    let window = WindowPolicy::new(120, 20);
    let mut config = EngineConfig::with_window(window);
    config.rspq_extend_budget = Some(20_000);
    let reference = script.run(config, Feed::PerTuple);
    assert!(
        !reference.emitted.is_empty(),
        "vacuous fixture: no results emitted"
    );
    assert!(
        reference.emitted.iter().any(|&(id, ..)| id == QueryId(8)),
        "the backfilled query never emitted"
    );
    for workers in [0usize, 1, 2, 4, 8] {
        let got = script.run(config, Feed::Batches(workers));
        assert_eq!(
            got.emitted, reference.emitted,
            "{workers} workers: emission stream diverged"
        );
        assert_eq!(
            got.invalidated, reference.invalidated,
            "{workers} workers: invalidation stream diverged"
        );
    }
}

#[test]
fn seeded_sweep_workers() {
    // {0, 1, 2, 4, 8} workers × seeds, exact stream equality against
    // per-tuple processing (no registration churn — this sweep
    // isolates the evaluation path itself).
    for seed in 0..2u64 {
        let stream = random_stream(700, 16, 4, 0xA0 + seed);
        let window = WindowPolicy::new(60, 10);
        let mut config = EngineConfig::with_window(window);
        config.rspq_extend_budget = Some(20_000);

        let mut seq = engine_with_queries(config, Feed::PerTuple, &mut labels_abcd());
        let mut seq_sink = MultiCollectSink::default();
        for chunk in stream.chunks(64) {
            Feed::PerTuple.process(&mut seq, chunk, &mut seq_sink);
        }
        seq.expire_now(&mut seq_sink);

        for workers in [0usize, 1, 2, 4, 8] {
            let mut par = engine_with_queries(config, Feed::Batches(workers), &mut labels_abcd());
            let mut par_sink = MultiCollectSink::default();
            for chunk in stream.chunks(64) {
                par.process_batch(chunk, &mut par_sink);
            }
            par.expire_now(&mut par_sink);
            assert_eq!(
                par_sink.emitted, seq_sink.emitted,
                "seed {seed}, {workers} workers: emitted"
            );
            assert_eq!(
                par_sink.invalidated, seq_sink.invalidated,
                "seed {seed}, {workers} workers: invalidated"
            );
            // Shared-graph state also agrees (purges + stamps reset),
            // and so does label routing: tuples seen and logical
            // per-subscriber dispatches.
            assert_eq!(par.graph().n_edges(), seq.graph().n_edges());
            assert_eq!(par.routing_stats(), seq.routing_stats());
            for id in seq.query_ids() {
                assert_eq!(
                    par.engine(id).unwrap().emitted_pairs(),
                    seq.engine(id).unwrap().emitted_pairs(),
                    "seed {seed}, {workers} workers: {id}"
                );
            }
        }
    }
}

/// A sink that panics after `n` emissions — drives the poisoning path.
struct FuseSink {
    left: u32,
}

impl MultiSink for FuseSink {
    fn emit(&mut self, _: QueryId, _: ResultPair, _: Timestamp) {
        if self.left == 0 {
            panic!("fuse blown");
        }
        self.left -= 1;
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("<non-string panic payload>")
}

/// The poison contract, identical at every worker count (documented in
/// the `srpq_core::multi` module docs): a panic mid-batch leaves
/// half-applied state, so the engine poisons itself and refuses reuse —
/// processing and registry mutation alike — instead of silently
/// computing on, or mutating, that state.
fn poisoned_by_midbatch_panic_refuses_reuse(workers: usize) {
    let mut labels = labels_abcd();
    let q = CompiledQuery::compile("a+", &mut labels).unwrap();
    let mut engine = MultiQueryEngine::new(WindowPolicy::new(100, 10));
    engine.set_workers(workers);
    let id = engine
        .register("q", q.clone(), PathSemantics::Arbitrary)
        .unwrap();
    let a = labels.get("a").unwrap();
    let batch: Vec<StreamTuple> = (0..8)
        .map(|i| StreamTuple::insert(Timestamp(i), VertexId(i as u32), VertexId(i as u32 + 1), a))
        .collect();

    let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        engine.process_batch(&batch, &mut FuseSink { left: 2 });
    }));
    assert!(unwound.is_err(), "the sink panic must propagate");

    let reuse = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        engine.process_batch(&batch, &mut MultiCollectSink::default());
    }));
    let payload = reuse.expect_err("poisoned engine must refuse reuse");
    assert!(
        panic_message(payload.as_ref()).contains("poisoned"),
        "expected a poisoned-engine refusal"
    );
    // Per-tuple processing is refused too.
    let reuse = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        engine.process(batch[0], &mut MultiCollectSink::default());
    }));
    assert!(panic_message(reuse.expect_err("refuse").as_ref()).contains("poisoned"));
    // And so is every registry mutation: none may touch the
    // half-applied state.
    let slots = engine.n_slots();
    type RegistryCall<'a> = (&'a str, &'a dyn Fn(&mut MultiQueryEngine));
    let registry_calls: [RegistryCall; 4] = [
        ("register", &|e| {
            let _ = e.register("r", q.clone(), PathSemantics::Arbitrary);
        }),
        ("register_backfilled", &|e| {
            let mut sink = MultiCollectSink::default();
            let _ = e.register_backfilled("rb", q.clone(), PathSemantics::Arbitrary, &mut sink);
        }),
        ("deregister", &|e| {
            let _ = e.deregister(id);
        }),
        ("set_workers", &|e| e.set_workers(1)),
    ];
    for (what, call) in registry_calls {
        let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| call(&mut engine)));
        assert!(
            panic_message(refused.expect_err(what).as_ref()).contains("poisoned"),
            "{workers} workers: {what} on a poisoned engine must refuse"
        );
    }
    assert_eq!(engine.n_slots(), slots);
    assert_eq!(engine.query_id("q"), Some(id));
    assert_eq!(engine.n_workers(), workers);
}

#[test]
fn sequential_multi_poisoned_by_midbatch_panic_refuses_reuse() {
    poisoned_by_midbatch_panic_refuses_reuse(0);
}

#[test]
fn parallel_multi_poisoned_by_midbatch_panic_refuses_reuse() {
    poisoned_by_midbatch_panic_refuses_reuse(2);
}
