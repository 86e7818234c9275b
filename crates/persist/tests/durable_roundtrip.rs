//! Durable-engine lifecycle: create → ingest → checkpoint → crash →
//! recover → continue, for both checkpoint strategies. The single-query
//! cases run the host `srpq run` runs — a one-query `MultiQueryEngine`
//! feeding a `CollectSink` — against the same host run without a crash.

use srpq_automata::CompiledQuery;
use srpq_common::{LabelInterner, StreamTuple, Timestamp, VertexId};
use srpq_core::multi::MultiQueryEngine;
use srpq_core::sink::CollectSink;
use srpq_core::{EngineConfig, PathSemantics, QueryId};
use srpq_graph::WindowPolicy;
use srpq_persist::{CheckpointStrategy, DurabilityConfig, Durable, SyncPolicy};
use std::path::PathBuf;

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("srpq-durable-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn make_labels() -> LabelInterner {
    let mut labels = LabelInterner::new();
    labels.intern("a");
    labels.intern("b");
    labels
}

fn make_query(labels: &mut LabelInterner) -> (CompiledQuery, EngineConfig) {
    let query = CompiledQuery::compile("a b*", labels).unwrap();
    let config = EngineConfig::with_window(WindowPolicy::new(40, SLIDE));
    (query, config)
}

const SLIDE: i64 = 5;

/// [`make_query`]'s query as the only registration of a host engine;
/// its id is [`ONLY`].
fn make_host(labels: &mut LabelInterner) -> MultiQueryEngine {
    let (query, config) = make_query(labels);
    let mut multi = MultiQueryEngine::with_config(config);
    let id = multi
        .register("q", query, PathSemantics::Arbitrary)
        .unwrap();
    assert_eq!(id, ONLY);
    multi
}

const ONLY: QueryId = QueryId(0);

fn stream(n: usize) -> Vec<StreamTuple> {
    let mut out = Vec::new();
    for i in 0..n as u32 {
        let label = srpq_common::Label(i % 2);
        out.push(StreamTuple::insert(
            Timestamp(i as i64),
            VertexId(i % 11),
            VertexId((i * 7 + 1) % 11),
            label,
        ));
        if i % 13 == 12 {
            let old = &out[out.len() - 5];
            out.push(StreamTuple::delete(
                Timestamp(i as i64),
                old.edge.src,
                old.edge.dst,
                old.label,
            ));
        }
    }
    out
}

fn run_strategy(strategy: CheckpointStrategy, name: &str) {
    let dir = tmpdir(name);
    let labels = make_labels();
    let tuples = stream(300);
    let cut = 201;

    // Uninterrupted reference.
    let mut reference = make_host(&mut labels.clone());
    let mut ref_sink = CollectSink::default();
    for chunk in tuples.chunks(32) {
        reference.process_batch(chunk, &mut ref_sink);
    }
    let reference = reference.engine(ONLY).unwrap();

    // Durable run, crashed at `cut`.
    let cfg = DurabilityConfig {
        sync: SyncPolicy::Batch,
        strategy,
        checkpoint_every: 2,
        segment_bytes: 1 << 12,
    };
    let host = make_host(&mut labels.clone());
    let mut durable = Durable::create(host, &dir, cfg).unwrap();
    let mut pre_sink = CollectSink::default();
    for chunk in tuples[..cut].chunks(32) {
        durable.process_batch(chunk, &mut pre_sink).unwrap();
    }
    let stats = durable.counters();
    assert!(stats.wal_appends > 0);
    assert!(stats.fsyncs > 0);
    assert!(
        stats.checkpoints_written >= 2,
        "cadence produced no checkpoints"
    );
    drop(durable); // crash

    let mut recovery_labels = labels.clone();
    let (mut recovered, report) = Durable::recover(&dir, &mut recovery_labels, cfg).unwrap();
    assert_eq!(
        report.resume_seq, cut as u64,
        "WAL must cover the full prefix"
    );
    let mut post_sink = CollectSink::default();
    for chunk in tuples[cut..].chunks(32) {
        recovered.process_batch(chunk, &mut post_sink).unwrap();
    }

    // The combined crashed run must match the uninterrupted one. Under
    // `Full`: identical results at identical stream timestamps (the order
    // within one timestamp is pinned by `srpq_harness`'s property tests,
    // not here). Under `Logical` the rebuilt Δ
    // carries fresher timestamps than the crashed one did: here the same
    // results, each surfacing at most one slide from the reference.
    let mut expect: Vec<_> = ref_sink.emitted().to_vec();
    let mut got: Vec<_> = pre_sink.emitted().to_vec();
    got.extend_from_slice(post_sink.emitted());
    if strategy == CheckpointStrategy::Full {
        expect.sort_unstable_by_key(|&(p, ts)| (ts, p));
        got.sort_unstable_by_key(|&(p, ts)| (ts, p));
        assert_eq!(expect, got, "{name}: emission streams diverge");
    } else {
        expect.sort_unstable();
        got.sort_unstable();
        assert_eq!(expect.len(), got.len(), "{name}: emission counts diverge");
        for (&(p, t), &(q, u)) in expect.iter().zip(&got) {
            assert!(
                p == q && (t.0 - u.0).abs() <= SLIDE,
                "{name}: {p} at {t:?} recovered as {q} at {u:?}"
            );
        }
    }

    let mut expect_inv: Vec<_> = ref_sink.invalidated().to_vec();
    let mut got_inv: Vec<_> = pre_sink.invalidated().to_vec();
    got_inv.extend_from_slice(post_sink.invalidated());
    expect_inv.sort_unstable_by_key(|&(p, ts)| (ts, p));
    got_inv.sort_unstable_by_key(|&(p, ts)| (ts, p));
    assert_eq!(expect_inv, got_inv, "{name}: invalidation streams diverge");

    let engine = recovered.inner().engine(ONLY).unwrap();
    assert_eq!(engine.result_count(), reference.result_count());
    let (r, e) = (engine.stats(), reference.stats());
    assert_eq!(r.tuples_processed, e.tuples_processed);
    assert_eq!(r.results_emitted, e.results_emitted);
    assert_eq!(r.results_invalidated, e.results_invalidated);
    assert_eq!(r.deletions_processed, e.deletions_processed);
    assert!(recovered.counters().last_recovery_ms < 60_000);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn logical_checkpoint_round_trip() {
    run_strategy(CheckpointStrategy::Logical, "logical");
}

#[test]
fn full_checkpoint_round_trip() {
    run_strategy(CheckpointStrategy::Full, "full");
}

#[test]
fn create_refuses_existing_state() {
    let dir = tmpdir("refuse");
    let mut labels = make_labels();
    let host = make_host(&mut labels);
    let durable = Durable::create(host, &dir, DurabilityConfig::default()).unwrap();
    drop(durable);
    let host = make_host(&mut labels);
    assert!(Durable::create(host, &dir, DurabilityConfig::default()).is_err());

    // A *corrupt* checkpoint must also refuse creation (not read as a
    // fresh directory and get silently pruned).
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) == Some("ck") {
            let mut bytes = std::fs::read(&path).unwrap();
            bytes[20] ^= 1;
            std::fs::write(&path, &bytes).unwrap();
        }
    }
    let host = make_host(&mut labels);
    assert!(Durable::create(host, &dir, DurabilityConfig::default()).is_err());
    assert!(
        std::fs::read_dir(&dir).unwrap().any(|e| e
            .unwrap()
            .path()
            .extension()
            .and_then(|x| x.to_str())
            == Some("ck")),
        "corrupt checkpoint must survive for forensics"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn recover_without_state_is_an_error() {
    let dir = tmpdir("nostate");
    let mut labels = make_labels();
    assert!(Durable::recover(&dir, &mut labels, DurabilityConfig::default()).is_err());
}

#[test]
fn truncation_keeps_recovery_sound() {
    // Long stream + aggressive checkpointing + tiny segments: old
    // segments get truncated, and recovery must still reproduce the
    // reference run from checkpoint + surviving suffix.
    let dir = tmpdir("truncate");
    let labels = make_labels();
    let tuples = stream(600);
    let cut = 557;

    let mut reference = make_host(&mut labels.clone());
    let mut ref_sink = CollectSink::default();
    for chunk in tuples.chunks(16) {
        reference.process_batch(chunk, &mut ref_sink);
    }

    let cfg = DurabilityConfig {
        sync: SyncPolicy::None,
        strategy: CheckpointStrategy::Logical,
        checkpoint_every: 1,
        segment_bytes: 512,
    };
    let host = make_host(&mut labels.clone());
    let mut durable = Durable::create(host, &dir, cfg).unwrap();
    let mut pre_sink = CollectSink::default();
    for chunk in tuples[..cut].chunks(16) {
        durable.process_batch(chunk, &mut pre_sink).unwrap();
    }
    let info = durable.wal_info();
    assert!(
        info.seq_range.0 > 0,
        "truncation never fired: log still starts at 0 ({info:?})"
    );
    drop(durable);

    let (mut recovered, _) = Durable::recover(&dir, &mut labels.clone(), cfg).unwrap();
    let mut post_sink = CollectSink::default();
    for chunk in tuples[cut..].chunks(16) {
        recovered.process_batch(chunk, &mut post_sink).unwrap();
    }
    let mut expect: Vec<_> = ref_sink.emitted().to_vec();
    let mut got: Vec<_> = pre_sink.emitted().to_vec();
    got.extend_from_slice(post_sink.emitted());
    expect.sort_unstable_by_key(|&(p, ts)| (ts, p));
    got.sort_unstable_by_key(|&(p, ts)| (ts, p));
    assert_eq!(expect, got);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn durability_counters_survive_restart() {
    // `set_obs` promises "a recovered instance reports its pre-crash
    // history": the lifetime totals ride at the head of the checkpoint
    // payload, so a restart continues them instead of starting at zero
    // — for a multi-query host (what `serve` runs) at either schedule,
    // under either fsync policy. `Always` appends and fsyncs once per
    // tuple, so its slice of the stream is kept small.
    let all = stream(200);
    for (sync, tuples, cut) in [
        (SyncPolicy::Batch, &all[..], 150),
        (SyncPolicy::Always, &all[..64], 48),
    ] {
        let dir = tmpdir(&format!("counters-{sync:?}"));
        let mut labels = make_labels();
        let qa = srpq_automata::CompiledQuery::compile("a b*", &mut labels).unwrap();
        let qb = srpq_automata::CompiledQuery::compile("(a | b)+", &mut labels).unwrap();
        let mut multi =
            MultiQueryEngine::with_config(EngineConfig::with_window(WindowPolicy::new(40, 5)));
        multi.register("qa", qa, PathSemantics::Arbitrary).unwrap();
        multi.register("qb", qb, PathSemantics::Arbitrary).unwrap();
        let cfg = DurabilityConfig {
            sync,
            strategy: CheckpointStrategy::Logical,
            checkpoint_every: 2,
            segment_bytes: 4 << 20,
        };
        let mut durable = Durable::create(multi, &dir, cfg).unwrap();
        let mut sink = srpq_core::multi::NullMultiSink;
        for chunk in tuples[..cut].chunks(16) {
            durable.process_batch(chunk, &mut sink).unwrap();
        }
        durable.checkpoint().unwrap();
        let before = durable.counters();
        assert!(before.wal_bytes > 0 && before.wal_appends > 0 && before.fsyncs > 0);
        assert!(
            before.checkpoints_written >= 3,
            "manifest + cadence + manual ({sync:?})"
        );
        if sync == SyncPolicy::Always {
            assert_eq!(before.wal_appends, cut as u64, "one append per tuple");
            assert!(before.fsyncs >= before.wal_appends, "one fsync per append");
        }
        drop(durable); // crash

        let (mut recovered, _) = Durable::recover(&dir, &mut labels.clone(), cfg).unwrap();
        let after = recovered.counters();
        assert_eq!(after.wal_bytes, before.wal_bytes);
        assert_eq!(after.wal_appends, before.wal_appends);
        assert_eq!(after.fsyncs, before.fsyncs);
        assert_eq!(after.checkpoints_written, before.checkpoints_written);

        // And they keep counting from there, on the other schedule too.
        recovered.inner_mut().set_workers(2);
        for chunk in tuples[cut..].chunks(16) {
            recovered.process_batch(chunk, &mut sink).unwrap();
        }
        let later = recovered.counters();
        assert!(later.wal_bytes > before.wal_bytes);
        assert!(later.wal_appends > before.wal_appends);
        assert!(later.fsyncs > before.fsyncs);
        if sync == SyncPolicy::Always {
            assert_eq!(later.wal_appends, tuples.len() as u64);
            assert!(later.fsyncs >= later.wal_appends);
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn deregistered_slots_survive_recovery() {
    // A multi-query engine with a vacated slot must checkpoint a
    // tombstone and recover with the same query ids, the same live set,
    // and the hole still burnt (no id reuse after restart).
    use srpq_core::multi::{MultiCollectSink, MultiQueryEngine};
    use srpq_core::QueryId;

    let dir = tmpdir("dereg-slots");
    let mut labels = make_labels();
    let c = labels.intern("c");
    let tuples = stream(120);

    let q_keep = srpq_automata::CompiledQuery::compile("a b*", &mut labels).unwrap();
    let q_gone = srpq_automata::CompiledQuery::compile("b c", &mut labels).unwrap();
    let q_late = srpq_automata::CompiledQuery::compile("(a | b)+", &mut labels).unwrap();
    let mut multi =
        MultiQueryEngine::with_config(EngineConfig::with_window(WindowPolicy::new(40, 5)));
    let keep = multi
        .register("keep", q_keep, PathSemantics::Arbitrary)
        .unwrap();
    let gone = multi
        .register("gone", q_gone, PathSemantics::Arbitrary)
        .unwrap();

    let cfg = DurabilityConfig {
        sync: SyncPolicy::None,
        strategy: CheckpointStrategy::Logical,
        checkpoint_every: 1,
        segment_bytes: 4 << 20,
    };
    let mut durable = Durable::create(multi, &dir, cfg).unwrap();
    let mut sink = MultiCollectSink::default();
    for chunk in tuples[..60].chunks(8) {
        durable.process_batch(chunk, &mut sink).unwrap();
    }
    durable.inner_mut().deregister(gone).unwrap();
    let late = durable
        .inner_mut()
        .register("late", q_late, PathSemantics::Arbitrary)
        .unwrap();
    assert_eq!(late, QueryId(2), "vacated slot must not be reused");
    for chunk in tuples[60..].chunks(8) {
        durable.process_batch(chunk, &mut sink).unwrap();
    }
    durable.checkpoint().unwrap();
    let live_before = durable.inner().query_ids();
    let results_before: usize = durable.inner().n_queries();
    drop(durable);

    let (recovered, report) =
        Durable::<MultiQueryEngine>::recover(&dir, &mut labels.clone(), cfg).unwrap();
    assert_eq!(report.resume_seq, tuples.len() as u64);
    let multi = recovered.inner();
    assert_eq!(multi.n_slots(), 3);
    assert_eq!(multi.n_queries(), results_before);
    assert_eq!(multi.query_ids(), live_before);
    assert_eq!(multi.name(keep), Some("keep"));
    assert_eq!(multi.name(gone), None);
    assert_eq!(multi.name(late), Some("late"));
    assert_eq!(multi.query_id("gone"), None);
    // The recovered engine burnt the tombstoned id: the next
    // registration continues after it.
    let mut multi2 = recovered.into_inner();
    let q_new = srpq_automata::CompiledQuery::compile("c", &mut labels.clone()).unwrap();
    let next = multi2
        .register("next", q_new, PathSemantics::Arbitrary)
        .unwrap();
    assert_eq!(next, QueryId(3));
    let _ = c;
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn parallel_multi_host_shares_checkpoint_format() {
    // A durable directory written on a worker pool must recover onto
    // (a) a worker pool again and (b) no workers
    // — worker count is runtime configuration, not logical state, so
    // checkpoints store none and hosts are interchangeable across
    // restarts.
    use srpq_core::multi::{MultiCollectSink, MultiQueryEngine};

    let dir = tmpdir("parallel-multi");
    let mut labels = make_labels();
    let tuples = stream(160);

    let qa = srpq_automata::CompiledQuery::compile("a b*", &mut labels).unwrap();
    let qb = srpq_automata::CompiledQuery::compile("(a | b)+", &mut labels).unwrap();
    let mut par =
        MultiQueryEngine::with_config(EngineConfig::with_window(WindowPolicy::new(40, 5)));
    par.set_workers(3);
    let ida = par.register("qa", qa, PathSemantics::Arbitrary).unwrap();
    let idb = par.register("qb", qb, PathSemantics::Arbitrary).unwrap();

    let cfg = DurabilityConfig {
        sync: SyncPolicy::None,
        strategy: CheckpointStrategy::Logical,
        // Only the initial manifest checkpoint: recovery must replay
        // the whole WAL suffix.
        checkpoint_every: 0,
        segment_bytes: 4 << 20,
    };
    let mut durable = Durable::create(par, &dir, cfg).unwrap();
    let mut sink = MultiCollectSink::default();
    for chunk in tuples.chunks(16) {
        durable.process_batch(chunk, &mut sink).unwrap();
    }
    let pairs_a: Vec<_> = sink
        .emitted
        .iter()
        .filter(|&&(id, ..)| id == ida)
        .map(|&(_, p, _)| p)
        .collect();
    let n_edges = durable.inner().graph().n_edges();
    let (seen, routed) = durable.inner().routing_stats();
    drop(durable);

    // (a) Recover for a pooled host: recovery itself spawns no
    // threads — the engine comes back without workers and the host
    // sizes the pool once, afterwards.
    let (mut rec_par, report) =
        Durable::<MultiQueryEngine>::recover(&dir, &mut labels.clone(), cfg).unwrap();
    assert_eq!(report.resume_seq, tuples.len() as u64);
    assert!(report.replayed_tuples > 0, "suffix replay expected");
    assert_eq!(rec_par.inner().n_workers(), 0);
    rec_par.inner_mut().set_workers(3);
    assert_eq!(rec_par.inner().n_workers(), 3);
    assert_eq!(rec_par.inner().graph().n_edges(), n_edges);
    assert_eq!(rec_par.inner().routing_stats(), (seen, routed));
    let _ = pairs_a;

    // (b) Recover the same directory and stay without workers.
    let (rec_seq, _) =
        Durable::<MultiQueryEngine>::recover(&dir, &mut labels.clone(), cfg).unwrap();
    assert_eq!(rec_seq.inner().n_slots(), 2);
    assert_eq!(rec_seq.inner().graph().n_edges(), n_edges);
    // Both recoveries agree on every per-query result set.
    for id in [ida, idb] {
        assert_eq!(
            rec_par.inner().engine(id).unwrap().emitted_pairs(),
            rec_seq.inner().engine(id).unwrap().emitted_pairs(),
            "hosts disagree on {id}"
        );
        assert_eq!(
            rec_par.inner().index_size(id).unwrap(),
            rec_seq.inner().index_size(id).unwrap()
        );
    }

    // Every later `set_workers` — across, and back to none — folds
    // the outgoing pool's eval/expiry ledger into the coordinator's:
    // attributed time is conserved while the stream continues.
    let ledger = |e: &MultiQueryEngine| {
        let (eval, expiry) = e.coord_totals();
        let workers = e.worker_totals();
        (
            eval + workers.iter().map(|w| w.0).sum::<u64>(),
            expiry + workers.iter().map(|w| w.1).sum::<u64>(),
        )
    };
    let more = stream(200);
    let mut post = MultiCollectSink::default();
    for (chunk, next) in more[tuples.len()..].chunks(16).zip([2usize, 0, 4]) {
        let before = ledger(rec_par.inner());
        rec_par.process_batch(chunk, &mut post).unwrap();
        let busy = ledger(rec_par.inner());
        assert!(busy.0 > before.0, "the outgoing pool has time on its books");
        rec_par.inner_mut().set_workers(next);
        assert_eq!(rec_par.inner().n_workers(), next);
        assert_eq!(rec_par.inner().worker_totals(), vec![(0, 0); next]);
        assert_eq!(
            rec_par.inner().coord_totals(),
            busy,
            "ledger across → {next}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
