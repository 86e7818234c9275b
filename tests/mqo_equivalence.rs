//! Shared-evaluation (MQO) equivalence suite.
//!
//! The tentpole guarantee of canonical-signature grouping: sharing
//! changes *what is computed* (one Δ forest per distinct language
//! instead of one per registration) but not *what any subscriber
//! observes*. Every test here compares tagged per-subscriber event
//! streams — `(QueryId, pair, ts)` emissions and invalidations in
//! order — between an unshared reference (every registration spelled
//! with a no-op alternative of its own, see [`spell`], so no two share
//! a group) and shared engines, fed per tuple and in batches at several
//! worker counts, over mixed duplicate/unique query sets, mid-stream
//! registration churn, and durable kill/recover.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use srpq_automata::CompiledQuery;
use srpq_common::{Label, LabelInterner, StreamTuple, Timestamp, VertexId};
use srpq_core::engine::PathSemantics;
use srpq_core::multi::{MultiCollectSink, MultiQueryEngine, MultiSink, QueryId};
use srpq_core::EngineConfig;
use srpq_graph::WindowPolicy;
use srpq_persist::{CheckpointStrategy, DurabilityConfig, Durable, SyncPolicy};
use std::path::PathBuf;

/// A mixed registration set: three spellings of one language, two
/// verbatim duplicates of another, two unique queries, and a
/// same-language-different-semantics pair (which must NOT share).
/// Shared evaluation collapses these 8 registrations to 5 groups.
const QUERIES: &[(&str, &str, PathSemantics)] = &[
    ("alert_0", "(a | b)+", PathSemantics::Arbitrary),
    ("alert_1", "(b | a)+", PathSemantics::Arbitrary),
    ("board_0", "a b", PathSemantics::Arbitrary),
    ("board_1", "a b", PathSemantics::Arbitrary),
    ("uniq_c", "c+", PathSemantics::Arbitrary),
    ("alert_2", "(a | b) (a | b)*", PathSemantics::Arbitrary),
    ("uniq_cd", "c d", PathSemantics::Arbitrary),
    ("simple_alert", "(a | b)+", PathSemantics::Simple),
];
const DISTINCT_GROUPS: usize = 5;

/// Registrations the churn test makes mid-stream, after [`QUERIES`].
const LATE: usize = 2;

/// The stream's labels `a`–`d`, then the no-op labels `z0, z1, …` of
/// [`spell`], one per registration. They are interned here, once: a
/// label first interned while compiling against a clone would get the
/// same id in every clone, and the copies would share again.
fn interner() -> LabelInterner {
    let mut labels = LabelInterner::new();
    for l in ["a", "b", "c", "d"] {
        labels.intern(l);
    }
    for i in 0..QUERIES.len() + LATE {
        labels.intern(&format!("z{i}"));
    }
    labels
}

/// Registration `i`'s expression as a run spells it. The unshared
/// reference adds the alternative `| z{i}`, on a label of its own that
/// never occurs in the stream: no two languages are then equal, so each
/// registration founds its own group, and each still reports exactly
/// what `expr` does.
fn spell(expr: &str, i: usize, unshared: bool) -> String {
    if unshared {
        format!("({expr}) | z{i}")
    } else {
        expr.to_string()
    }
}

/// A random stream with ~10% deletions and non-negative, non-decreasing
/// timestamps (WAL-admissible) spanning several window slides.
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

fn register_all(
    engine: &mut dyn FnMut(&str, CompiledQuery, PathSemantics),
    labels: &LabelInterner,
    unshared: bool,
) {
    let mut labels = labels.clone();
    for (i, &(name, expr, sem)) in QUERIES.iter().enumerate() {
        let q = CompiledQuery::compile(&spell(expr, i, unshared), &mut labels).unwrap();
        engine(name, q, sem);
    }
}

fn budgeted_config(window: WindowPolicy) -> EngineConfig {
    let mut c = EngineConfig::with_window(window);
    c.rspq_extend_budget = Some(20_000);
    c
}

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

/// Runs the whole stream through an engine fed as `feed` says.
fn run(
    unshared: bool,
    window: WindowPolicy,
    feed: Feed,
    stream: &[StreamTuple],
) -> (MultiQueryEngine, MultiCollectSink) {
    let labels = interner();
    let mut engine = MultiQueryEngine::with_config(budgeted_config(window));
    engine.set_workers(feed.workers());
    register_all(
        &mut |name, q, sem| {
            engine.register(name, q, sem).unwrap();
        },
        &labels,
        unshared,
    );
    let mut sink = MultiCollectSink::default();
    for chunk in stream.chunks(64) {
        feed.process(&mut engine, chunk, &mut sink);
    }
    engine.expire_now(&mut sink);
    (engine, sink)
}

/// Byte-identical per-subscriber streams: the unshared per-tuple run is
/// the reference; shared and unshared batch runs at {0, 1, 2, 4}
/// workers must reproduce it event-for-event — while the shared engines
/// actually collapse 8 registrations to 5 forests.
#[test]
fn shared_collapses_registrations_and_streams_match_unshared() {
    for seed in 0..2u64 {
        let stream = random_stream(1_200, 20, 4, 0x51A5 + seed);
        let window = WindowPolicy::new(100, 20);

        let (unshared, reference) = run(true, window, Feed::PerTuple, &stream);
        assert!(!reference.emitted.is_empty(), "vacuous fixture");
        assert_eq!(
            unshared.groups_live(),
            QUERIES.len(),
            "the unshared reference must keep one forest per registration"
        );

        let (shared, got) = run(false, window, Feed::PerTuple, &stream);
        assert_eq!(shared.n_queries(), QUERIES.len());
        assert_eq!(
            shared.groups_live(),
            DISTINCT_GROUPS,
            "equal languages must collapse onto one group"
        );
        // Verbatim duplicates and alternate spellings share one group;
        // the same language under different path semantics must not.
        let g = |name: &str| shared.group_of(shared.query_id(name).unwrap()).unwrap();
        assert_eq!(g("alert_0"), g("alert_1"));
        assert_eq!(g("alert_0"), g("alert_2"));
        assert_eq!(g("board_0"), g("board_1"));
        assert_ne!(g("alert_0"), g("simple_alert"));
        assert_eq!(
            got.emitted, reference.emitted,
            "seed {seed}: shared sequential emitted"
        );
        assert_eq!(
            got.invalidated, reference.invalidated,
            "seed {seed}: shared sequential invalidated"
        );
        // Co-subscribers of one group report the group's shared stats.
        let a0 = shared.stats(shared.query_id("alert_0").unwrap()).unwrap();
        let a1 = shared.stats(shared.query_id("alert_1").unwrap()).unwrap();
        assert_eq!(
            (a0.tuples_routed, a0.eval_ns),
            (a1.tuples_routed, a1.eval_ns),
            "co-subscribers must alias one group's stats"
        );

        for workers in [0usize, 1, 2, 4] {
            for (unshared, mode) in [(false, "shared"), (true, "unshared")] {
                let (par, got) = run(unshared, window, Feed::Batches(workers), &stream);
                if !unshared {
                    assert_eq!(par.groups_live(), DISTINCT_GROUPS);
                }
                assert_eq!(
                    got.emitted, reference.emitted,
                    "seed {seed}, {workers} workers, {mode}: emitted"
                );
                assert_eq!(
                    got.invalidated, reference.invalidated,
                    "seed {seed}, {workers} workers, {mode}: invalidated"
                );
            }
        }
    }
}

/// Mid-stream churn: a backfilled duplicate attaches to a live group, a
/// co-subscriber leaves (the group survives), a backfilled unique query
/// founds a fresh group, and a private query's last subscriber leaves
/// (the group is freed).
///
/// The contract under churn (see the `multi` module docs) has three
/// parts, asserted separately:
///
/// 1. Every *other* subscriber is untouched: filtering the attached
///    query out, shared and unshared streams are byte-identical — the
///    unique backfill replays identically in both modes.
/// 2. The attached query's *backfill segment* is byte-identical to the
///    unshared replay (the scratch engine runs the very same replay).
/// 3. After attaching, the subscriber "rides the shared stream": its
///    post-backfill events equal its group co-subscriber's, event for
///    event. (An unshared mid-stream replay forest is *not* that
///    reference: replaying a window snapshot discovers results on a
///    different trajectory than the group forest's true incremental
///    history, so post-attach streams are compared within shared mode.)
///
/// Batch runs at every worker count must match the shared per-tuple
/// run on the *whole* stream, attached query included.
#[test]
fn midstream_attach_and_deregister_churn() {
    let stream = random_stream(1_000, 18, 4, 0xC0DE);
    let window = WindowPolicy::new(90, 15);
    let config = budgeted_config(window);

    // The scripted session, identical at every worker count: a
    // backfilled duplicate at chunk 3, a departure from the shared
    // group at 5, a backfilled unique at 7, a private-group free at 9.
    // Returns the engine, the sink, and the index ranges (emitted,
    // invalidated) covering the duplicate's backfill events.
    let run_churn = |unshared: bool, feed: Feed| {
        let mut labels = interner();
        let mut engine = MultiQueryEngine::with_config(config);
        engine.set_workers(feed.workers());
        register_all(
            &mut |name, q, sem| {
                engine.register(name, q, sem).unwrap();
            },
            &labels,
            unshared,
        );
        let mut sink = MultiCollectSink::default();
        let mut dup_mark = (0usize..0usize, 0usize..0usize);
        for (i, chunk) in stream.chunks(80).enumerate() {
            feed.process(&mut engine, chunk, &mut sink);
            if i == 3 || i == 7 {
                let expr = if i == 3 { "(a | b)+" } else { "b (c | d)" };
                let name = if i == 3 { "late_dup" } else { "late_uniq" };
                let copy = QUERIES.len() + usize::from(i == 7);
                let q = CompiledQuery::compile(&spell(expr, copy, unshared), &mut labels).unwrap();
                let before = (sink.emitted.len(), sink.invalidated.len());
                engine
                    .register_backfilled(name, q, PathSemantics::Arbitrary, &mut sink)
                    .unwrap();
                if i == 3 {
                    dup_mark = (
                        before.0..sink.emitted.len(),
                        before.1..sink.invalidated.len(),
                    );
                }
            }
            if i == 5 || i == 9 {
                let name = if i == 5 { "alert_1" } else { "uniq_c" };
                let id = engine.query_id(name).unwrap();
                engine.deregister(id).unwrap();
            }
        }
        engine.expire_now(&mut sink);
        (engine, sink, dup_mark)
    };

    let (unshared, reference, ref_mark) = run_churn(true, Feed::PerTuple);
    assert!(!reference.emitted.is_empty(), "vacuous fixture");
    // 8 initial + 2 late − 2 departed registrations, a forest each.
    assert_eq!(unshared.groups_live(), QUERIES.len());

    let (shared, got, got_mark) = run_churn(false, Feed::PerTuple);
    // The backfilled duplicate attached to the live alert group...
    let g = |name: &str| shared.group_of(shared.query_id(name).unwrap()).unwrap();
    assert_eq!(
        g("late_dup"),
        g("alert_0"),
        "backfilled duplicate must attach"
    );
    // ...and survived alert_1's departure; the freed uniq_c group is
    // gone: 8 initial groups - alert dup - board dup - uniq_c + late_uniq.
    assert_eq!(shared.groups_live(), DISTINCT_GROUPS);

    // (1) Everyone but the attached query: byte-identical streams.
    let dup = shared.query_id("late_dup").unwrap();
    let without_dup = |s: &MultiCollectSink| {
        (
            s.emitted
                .iter()
                .filter(|e| e.0 != dup)
                .cloned()
                .collect::<Vec<_>>(),
            s.invalidated
                .iter()
                .filter(|e| e.0 != dup)
                .cloned()
                .collect::<Vec<_>>(),
        )
    };
    assert_eq!(
        without_dup(&got),
        without_dup(&reference),
        "sharing must not perturb other subscribers under churn"
    );

    // (2) The backfill segment itself replays identically.
    assert_eq!(
        &got.emitted[got_mark.0.clone()],
        &reference.emitted[ref_mark.0.clone()],
        "scratch-engine backfill must equal the unshared replay"
    );
    assert_eq!(
        &got.invalidated[got_mark.1.clone()],
        &reference.invalidated[ref_mark.1.clone()],
        "scratch-engine backfill invalidations must equal the unshared replay"
    );

    // (3) Post-attach, late_dup rides the group stream: its events are
    // its co-subscriber alert_0's, re-tagged.
    let q0 = shared.query_id("alert_0").unwrap();
    let tail = |evs: &[(QueryId, srpq_common::ResultPair, srpq_common::Timestamp)],
                id: QueryId,
                from: usize| {
        evs[from..]
            .iter()
            .filter(|e| e.0 == id)
            .map(|e| (e.1, e.2))
            .collect::<Vec<_>>()
    };
    let post = tail(&got.emitted, dup, got_mark.0.end);
    assert!(!post.is_empty(), "vacuous post-attach fixture");
    assert_eq!(
        post,
        tail(&got.emitted, q0, got_mark.0.end),
        "attached subscriber must ride the shared stream (emitted)"
    );
    assert_eq!(
        tail(&got.invalidated, dup, got_mark.1.end),
        tail(&got.invalidated, q0, got_mark.1.end),
        "attached subscriber must ride the shared stream (invalidated)"
    );

    // Batches at every worker count reproduce the shared per-tuple
    // stream in full — attach, departures, and backfills included.
    for workers in [0usize, 1, 2, 4] {
        let (engine, par, par_mark) = run_churn(false, Feed::Batches(workers));
        assert_eq!(engine.groups_live(), DISTINCT_GROUPS);
        assert_eq!(par_mark, got_mark, "{workers} workers: backfill extent");
        assert_eq!(par.emitted, got.emitted, "{workers} workers: emitted");
        assert_eq!(
            par.invalidated, got.invalidated,
            "{workers} workers: invalidated"
        );
    }
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("srpq-mqo-eq-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn durability(strategy: CheckpointStrategy) -> DurabilityConfig {
    DurabilityConfig {
        sync: SyncPolicy::Batch,
        strategy,
        checkpoint_every: 3,
        segment_bytes: 2 << 10,
    }
}

/// Kill/recover with shared groups live: the recovered engine must come
/// back with the same slot → group mapping, co-subscriber sets, and
/// signatures (membership is *encoded*, not re-derived by signature
/// matching), and the combined pre-cut + post-cut stream must equal an
/// uninterrupted run's.
#[test]
fn durable_kill_recover_preserves_group_membership() {
    for strategy in [CheckpointStrategy::Logical, CheckpointStrategy::Full] {
        for seed in 0..2u64 {
            let name = format!("groups-{strategy}-{seed}");
            let dir = tmpdir(&name);
            let stream = random_stream(450, 12, 4, seed);
            let window = WindowPolicy::new(40, 8);
            let config = budgeted_config(window);
            let mut rng = SmallRng::seed_from_u64(seed ^ 0xD00D);
            let cut = rng.gen_range(60..stream.len() - 60);

            let make = || {
                let labels = interner();
                let mut engine = MultiQueryEngine::with_config(config);
                register_all(
                    &mut |name, q, sem| {
                        engine.register(name, q, sem).unwrap();
                    },
                    &labels,
                    false,
                );
                engine
            };

            let mut reference = make();
            let mut ref_sink = MultiCollectSink::default();
            for chunk in stream.chunks(23) {
                reference.process_batch(chunk, &mut ref_sink);
            }

            let mut durable = Durable::create(make(), &dir, durability(strategy)).unwrap();
            let mut pre = MultiCollectSink::default();
            for chunk in stream[..cut].chunks(23) {
                durable.process_batch(chunk, &mut pre).unwrap();
            }
            drop(durable);

            let mut labels = interner();
            let (mut recovered, report) =
                Durable::<MultiQueryEngine>::recover(&dir, &mut labels, durability(strategy))
                    .unwrap();
            assert_eq!(report.resume_seq, cut as u64, "{name}");
            // Group membership survived verbatim.
            let r = recovered.inner();
            assert_eq!(r.groups_live(), DISTINCT_GROUPS, "{name}");
            for &(qname, ..) in QUERIES {
                let want = reference.query_id(qname).unwrap();
                let got = r.query_id(qname).unwrap();
                assert_eq!(got, want, "{name}: slot of {qname}");
                assert_eq!(
                    r.group_of(got),
                    reference.group_of(want),
                    "{name}: group of {qname}"
                );
            }
            for g in reference.group_ids() {
                assert_eq!(
                    r.group_subscribers(g),
                    reference.group_subscribers(g),
                    "{name}: subscribers of group {g}"
                );
                assert_eq!(
                    r.group_signature(g).map(|s| s.hash64()),
                    reference.group_signature(g).map(|s| s.hash64()),
                    "{name}: signature of group {g}"
                );
            }

            let mut post = MultiCollectSink::default();
            for chunk in stream[cut..].chunks(23) {
                recovered.process_batch(chunk, &mut post).unwrap();
            }
            let sort = |parts: &[&MultiCollectSink]| {
                let mut emitted: Vec<_> = parts.iter().flat_map(|s| s.emitted.clone()).collect();
                emitted.sort_unstable_by_key(|&(id, p, ts)| (ts, id, p));
                let mut inv: Vec<_> = parts.iter().flat_map(|s| s.invalidated.clone()).collect();
                inv.sort_unstable_by_key(|&(id, p, ts)| (ts, id, p));
                (emitted, inv)
            };
            assert_eq!(
                sort(&[&ref_sink]),
                sort(&[&pre, &post]),
                "{name}: tagged streams diverge across the cut"
            );
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

/// The checkpoint layout is worker-count-agnostic: state written
/// without workers recovers onto a worker pool (a restart may change
/// `--workers` freely) with groups intact.
#[test]
fn recovery_switches_engine_shape_with_groups_intact() {
    let dir = tmpdir("engine-switch");
    let stream = random_stream(400, 12, 4, 0xAB);
    let window = WindowPolicy::new(40, 8);
    let config = budgeted_config(window);
    let cut = 220usize;

    let labels = interner();
    let mut seq = MultiQueryEngine::with_config(config);
    register_all(
        &mut |name, q, sem| {
            seq.register(name, q, sem).unwrap();
        },
        &labels,
        false,
    );
    let mut reference = MultiCollectSink::default();
    let mut durable = Durable::create(seq, &dir, durability(CheckpointStrategy::Full)).unwrap();
    for chunk in stream[..cut].chunks(23) {
        durable.process_batch(chunk, &mut reference).unwrap();
    }
    let expected_groups: Vec<(u32, Vec<u32>)> = durable
        .inner()
        .group_ids()
        .into_iter()
        .map(|g| (g, durable.inner().group_subscribers(g).unwrap().to_vec()))
        .collect();
    drop(durable);

    let mut labels = interner();
    let (mut recovered, report) = Durable::<MultiQueryEngine>::recover(
        &dir,
        &mut labels,
        durability(CheckpointStrategy::Full),
    )
    .unwrap();
    recovered.inner_mut().set_workers(3);
    assert_eq!(report.resume_seq, cut as u64);
    let r = recovered.inner();
    assert_eq!(r.groups_live(), DISTINCT_GROUPS);
    for (g, subs) in &expected_groups {
        assert_eq!(
            r.group_subscribers(*g).map(|s| s.to_vec()).as_ref(),
            Some(subs),
            "group {g} membership after engine switch"
        );
    }
    // The switched engine keeps serving: byte-exact against a fresh
    // sequential run over the full stream (Full checkpoints make
    // recovery exact).
    let labels = interner();
    let mut fresh = MultiQueryEngine::with_config(config);
    register_all(
        &mut |name, q, sem| {
            fresh.register(name, q, sem).unwrap();
        },
        &labels,
        false,
    );
    let mut want = MultiCollectSink::default();
    for chunk in stream.chunks(23) {
        fresh.process_batch(chunk, &mut want);
    }
    let mut post = MultiCollectSink::default();
    for chunk in stream[cut..].chunks(23) {
        recovered.process_batch(chunk, &mut post).unwrap();
    }
    let sort = |parts: &[&MultiCollectSink]| {
        let mut emitted: Vec<(QueryId, _, _)> =
            parts.iter().flat_map(|s| s.emitted.clone()).collect();
        emitted.sort_unstable_by_key(|&(id, p, ts)| (ts, id, p));
        emitted
    };
    assert_eq!(
        sort(&[&want]),
        sort(&[&reference, &post]),
        "streams diverge across the engine switch"
    );
    std::fs::remove_dir_all(&dir).ok();
}
