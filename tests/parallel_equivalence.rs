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

use srpq_automata::CompiledQuery;
use srpq_common::{ResultPair, StreamTuple, Timestamp, VertexId};
use srpq_core::engine::PathSemantics;
use srpq_core::multi::{MultiCollectSink, MultiQueryEngine, MultiSink, QueryId};
use srpq_core::EngineConfig;
use srpq_graph::WindowPolicy;
use srpq_harness::{
    assert_identical, assert_same_end, labels, Scenario, Schedule, Step, StreamSpec, REST,
};

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

/// [`QUERIES`] registered over a random stream on labels `a`–`d` with
/// ~10% explicit deletions and slowly advancing timestamps (several
/// window slides), then `script`.
fn scenario(
    window: WindowPolicy,
    (len, vertices, seed): (usize, u32, u64),
    script: &[Step],
) -> Scenario {
    let mut config = EngineConfig::with_window(window);
    config.rspq_extend_budget = Some(20_000);
    let stream = StreamSpec::new(len, vertices, 4, seed).deletes(0.1);
    Scenario::new(config, &stream, QUERIES, script)
}

/// The scripted session, in 96-tuple batches: a backfilled query joins
/// after chunk 3, `q_c` leaves after chunk 6, and after chunk 8 the
/// vacated name "q_c" is re-registered (fresh slot id, rebalanced
/// partition); then a final expiry pass. The sequential reference is
/// per-tuple `process` without workers: every micro-batch then holds
/// one tuple, so no visibility stamp can hide anything.
#[test]
fn byte_identical_stream_under_midstream_registration_changes() {
    let script = [
        Step::Ingest(4 * 96),
        Step::backfill("late", "b (c | d)", PathSemantics::Arbitrary),
        Step::Ingest(3 * 96),
        Step::Deregister("q_c".into()),
        Step::Ingest(2 * 96),
        Step::backfill("q_c", "c a*", PathSemantics::Arbitrary),
        REST,
        Step::ExpireNow,
    ];
    let sc = scenario(WindowPolicy::new(120, 20), (1_500, 24, 0xbeef), &script);
    let reference = sc.run(&Schedule::per_tuple());
    assert!(
        !reference.emitted().is_empty(),
        "vacuous fixture: no results emitted"
    );
    assert!(
        reference.emitted().iter().any(|&(id, ..)| id == QueryId(8)),
        "the backfilled query never emitted"
    );
    for workers in [0usize, 1, 2, 4, 8] {
        let got = sc.run(&Schedule::batches(96).workers(workers));
        assert_identical(&got, &reference, &format!("{workers} workers"));
    }
}

#[test]
fn seeded_sweep_workers() {
    // {0, 1, 2, 4, 8} workers × seeds, exact stream equality against
    // per-tuple processing (no registration churn — this sweep
    // isolates the evaluation path itself).
    for seed in 0..2u64 {
        let tail = [REST, Step::ExpireNow];
        let sc = scenario(WindowPolicy::new(60, 10), (700, 16, 0xA0 + seed), &tail);
        let seq = sc.run(&Schedule::per_tuple());
        for workers in [0usize, 1, 2, 4, 8] {
            let par = sc.run(&Schedule::batches(64).workers(workers));
            let ctx = format!("seed {seed}, {workers} workers");
            assert_identical(&par, &seq, &ctx);
            // Shared-graph state also agrees (purges + stamps reset),
            // and so do label routing (tuples seen and logical
            // per-subscriber dispatches) and every query's result set.
            assert_same_end(&par, &seq, &ctx);
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
    let mut labels = labels(4);
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

    // Processing, batched or per tuple, is refused, and so is every
    // registry mutation: none may touch the half-applied state.
    let slots = engine.n_slots();
    type Call<'a> = (&'a str, &'a dyn Fn(&mut MultiQueryEngine));
    let sink = || MultiCollectSink::default();
    let calls: [Call; 6] = [
        ("process_batch", &|e| e.process_batch(&batch, &mut sink())),
        ("process", &|e| e.process(batch[0], &mut sink())),
        ("register", &|e| {
            let _ = e.register("r", q.clone(), PathSemantics::Arbitrary);
        }),
        ("register_backfilled", &|e| {
            let _ = e.register_backfilled("rb", q.clone(), PathSemantics::Arbitrary, &mut sink());
        }),
        ("deregister", &|e| {
            let _ = e.deregister(id);
        }),
        ("set_workers", &|e| e.set_workers(1)),
    ];
    for (what, call) in calls {
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
