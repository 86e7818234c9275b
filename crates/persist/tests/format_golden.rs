//! Formats pinned by bytes: one WAL segment (header + two records),
//! generated by the commit *before* the codecs moved onto
//! `srpq_common::wire`, and one checkpoint of a two-query host under
//! each strategy, regenerated when `CKPT_VERSION` became 7 — all
//! committed under `tests/data/`. Writing must reproduce the files
//! exactly; reading them must return what was written. A deliberate
//! format change regenerates the files (and bumps the version the
//! format carries). A checkpoint is a function of the stream alone:
//! rewriting it, at any worker count, reproduces its bytes.

use srpq_automata::CompiledQuery;
use srpq_common::{Label, LabelInterner, StreamTuple, Timestamp, VertexId};
use srpq_core::multi::{MultiQueryEngine, NullMultiSink};
use srpq_core::{EngineConfig, EngineStats, PathSemantics, QueryId};
use srpq_graph::WindowPolicy;
use srpq_persist::{
    checkpoint, CheckpointStrategy, DurabilityConfig, Durable, PersistError, SyncPolicy, Wal,
};
use std::path::{Path, PathBuf};

fn golden(name: &str) -> Vec<u8> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/data")
        .join(name);
    std::fs::read(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("srpq-golden-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn only_file(dir: &Path, ext: &str) -> PathBuf {
    let mut found: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().and_then(|e| e.to_str()) == Some(ext))
        .collect();
    assert_eq!(found.len(), 1, "expected one .{ext} file under {dir:?}");
    found.pop().unwrap()
}

const SEGMENT: &str = "wal-0000000000000000.seg";

fn wal_batches() -> [Vec<StreamTuple>; 2] {
    [
        vec![
            StreamTuple::insert(Timestamp(4), VertexId(7), VertexId(1), Label(2)),
            StreamTuple::delete(Timestamp(9), VertexId(3), VertexId(8), Label(1)),
        ],
        vec![StreamTuple::insert(
            Timestamp(11),
            VertexId(5),
            VertexId(6),
            Label(3),
        )],
    ]
}

#[test]
fn wal_segment_matches_its_golden_file() {
    let bytes = golden(SEGMENT);
    let batches = wal_batches();

    let dir = tmpdir("wal-write");
    let (mut wal, recovered) = Wal::open(&dir, 1 << 20).unwrap();
    assert!(recovered.is_empty());
    let mut appended = 0;
    for b in &batches {
        appended += wal.append(b).unwrap();
    }
    wal.sync().unwrap();
    drop(wal);
    assert!(
        std::fs::read(dir.join(SEGMENT)).unwrap() == bytes,
        "Wal::append drifted from the golden segment"
    );
    // Segment header (version 1) + two record headers + three tuples.
    assert_eq!(bytes.len() as u64, 24 + appended);
    assert_eq!(appended, 2 * 16 + 3 * 21);
    std::fs::remove_dir_all(&dir).ok();

    let dir = tmpdir("wal-read");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join(SEGMENT), &bytes).unwrap();
    let (info, inspected) = Wal::inspect(&dir).unwrap();
    assert_eq!((info.segments, info.records, info.tuples), (1, 2, 3));
    assert_eq!(info.bytes, bytes.len() as u64);
    assert_eq!(info.seq_range, (0, 3));
    assert_eq!(info.ts_range, Some((Timestamp(4), Timestamp(11))));
    let (wal, recovered) = Wal::open(&dir, 1 << 20).unwrap();
    assert_eq!(wal.next_seq(), 3);
    for got in [&inspected, &recovered] {
        assert_eq!(got.len(), 2);
        assert_eq!((got[0].seq, &got[0].tuples), (0, &batches[0]));
        assert_eq!((got[1].seq, &got[1].tuples), (2, &batches[1]));
    }
    std::fs::remove_dir_all(&dir).ok();
}

fn labels() -> LabelInterner {
    let mut labels = LabelInterner::new();
    labels.intern("a");
    labels.intern("b");
    labels
}

fn stream(n: u32) -> Vec<StreamTuple> {
    let mut out = Vec::new();
    for i in 0..n {
        out.push(StreamTuple::insert(
            Timestamp(i as i64),
            VertexId(i % 7),
            VertexId((i * 3 + 1) % 7),
            Label(i % 2),
        ));
        if i % 13 == 12 {
            let old = out[out.len() - 5];
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

/// Every counter distinct and non-zero, so the golden files pin the
/// field order.
fn pinned_stats(base: u64) -> EngineStats {
    EngineStats {
        tuples_processed: base + 1,
        deletions_processed: base + 2,
        insert_calls: base + 3,
        results_emitted: base + 4,
        results_invalidated: base + 5,
        expiry_runs: base + 6,
        nodes_expired: base + 7,
        expiry_nanos: base + 8,
        conflicts_detected: base + 9,
        nodes_unmarked: base + 10,
        budget_exhausted: base + 11,
        tuples_routed: base + 12,
        eval_ns: base + 13,
        delta_nodes_live: base + 14,
        delta_capacity: base + 15,
        compactions: base + 16,
    }
}

/// What [`pinned_stats`] reads back as after recovery: the wall-clock
/// counters are not persisted and restart at 0.
fn recovered_stats(base: u64) -> EngineStats {
    EngineStats {
        expiry_nanos: 0,
        eval_ns: 0,
        ..pinned_stats(base)
    }
}

/// A two-query host (one arbitrary, one simple) with every config field
/// off its default on `workers` pool threads, 60-odd tuples in.
fn fed_host(
    dir: &Path,
    strategy: CheckpointStrategy,
    workers: usize,
) -> (Durable, DurabilityConfig) {
    let mut labels = labels();
    let config = EngineConfig {
        window: WindowPolicy::new(40, 5),
        rspq_extend_budget: Some(100_000),
    };
    let mut engine = MultiQueryEngine::with_config(config);
    engine.set_workers(workers);
    for (name, regex, semantics) in [
        ("arb", "a b*", PathSemantics::Arbitrary),
        ("simp", "(a b)+", PathSemantics::Simple),
    ] {
        let query = CompiledQuery::compile(regex, &mut labels).unwrap();
        engine.register(name, query, semantics).unwrap();
    }
    let cfg = DurabilityConfig {
        sync: SyncPolicy::Batch,
        strategy,
        checkpoint_every: 0,
        segment_bytes: 1 << 20,
    };
    let mut durable = Durable::create(engine, dir, cfg).unwrap();
    for chunk in stream(60).chunks(16) {
        durable.process_batch(chunk, &mut NullMultiSink).unwrap();
    }
    (durable, cfg)
}

/// [`fed_host`] without workers, with [`pinned_stats`] and a checkpoint
/// on top.
fn build(dir: &Path, strategy: CheckpointStrategy) -> (Durable, DurabilityConfig) {
    let (mut durable, cfg) = fed_host(dir, strategy, 0);
    for (g, base) in [(0, 100), (1, 200)] {
        let group = durable.inner_mut().group_engine_mut(g).unwrap();
        assert!(group.result_count() > 0, "group {g} reports nothing");
        *group.stats_mut() = pinned_stats(base);
    }
    durable.checkpoint().unwrap();
    (durable, cfg)
}

/// Header: magic, version, strategy, seq. Then `Durable`'s four
/// lifetime totals, which a re-checkpoint legitimately advances.
const CKPT_HEADER: usize = 8 + 4 + 1 + 8;
const COUNTERS: usize = 4 * 8;

fn check_checkpoint(strategy: CheckpointStrategy, file: &str) {
    let bytes = golden(file);
    let dir = tmpdir(file);
    let (durable, cfg) = build(&dir, strategy);
    let seq = durable.last_checkpoint_seq();
    let now = durable.inner().now();
    let emitted: Vec<_> = (0..2)
        .map(|g| durable.inner().group_engine(g).unwrap().emitted_pairs())
        .collect();
    drop(durable);
    let path = only_file(&dir, "ck");
    assert!(
        std::fs::read(&path).unwrap() == bytes,
        "{strategy}: the checkpoint writer drifted from the golden file"
    );
    assert_eq!(&bytes[8..12], &7u32.to_le_bytes(), "CKPT_VERSION");

    // Read the committed bytes back: header, payload, and — through a
    // full recovery — the engine state they describe.
    std::fs::write(&path, &bytes).unwrap();
    let (header, payload) = checkpoint::load_latest(&dir).unwrap().unwrap();
    assert_eq!((header.seq, header.strategy), (seq, strategy));
    assert_eq!(payload, &bytes[CKPT_HEADER..bytes.len() - 4]);
    let (mut recovered, report) = Durable::recover(&dir, &mut labels(), cfg).unwrap();
    assert_eq!((report.checkpoint_seq, report.replayed_tuples), (seq, 0));
    let engine = recovered.inner();
    assert_eq!(engine.now(), now);
    assert_eq!(engine.n_queries(), 2);
    assert_eq!(engine.name(QueryId(0)), Some("arb"));
    assert_eq!(engine.name(QueryId(1)), Some("simp"));
    assert_eq!(engine.config().rspq_extend_budget, Some(100_000));
    for (g, base) in [(0u32, 100), (1, 200)] {
        let group = engine.group_engine(g).unwrap();
        assert_eq!(group.emitted_pairs(), emitted[g as usize]);
        assert_eq!(
            format!("{:?}", group.stats()),
            format!("{:?}", recovered_stats(base))
        );
    }
    // Decode then encode is the identity on the engine section.
    recovered.checkpoint().unwrap();
    let again = std::fs::read(only_file(&dir, "ck")).unwrap();
    assert_eq!(again.len(), bytes.len());
    assert!(
        again[CKPT_HEADER + COUNTERS..again.len() - 4]
            == bytes[CKPT_HEADER + COUNTERS..bytes.len() - 4],
        "{strategy}: re-encoding the recovered engine changed its bytes"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn logical_checkpoint_matches_its_golden_file() {
    check_checkpoint(CheckpointStrategy::Logical, "ckpt-logical.ck");
}

#[test]
fn full_checkpoint_matches_its_golden_file() {
    check_checkpoint(CheckpointStrategy::Full, "ckpt-full.ck");
}

/// Two runs of one stream write byte-identical checkpoints, and so do
/// runs at 0 and 2 workers: no checkpoint byte depends on the wall
/// clock or the worker count.
#[test]
fn checkpoints_are_a_function_of_the_stream() {
    for strategy in [CheckpointStrategy::Logical, CheckpointStrategy::Full] {
        let runs = [0, 0, 2].map(|workers| {
            let dir = tmpdir(&format!("deterministic-{strategy}-{workers}"));
            let (mut durable, _) = fed_host(&dir, strategy, workers);
            durable.checkpoint().unwrap();
            drop(durable);
            let bytes = std::fs::read(only_file(&dir, "ck")).unwrap();
            std::fs::remove_dir_all(&dir).ok();
            bytes
        });
        assert!(runs[0] == runs[1], "{strategy}: two 0-worker runs differ");
        assert!(runs[0] == runs[2], "{strategy}: 0 and 2 workers differ");
    }
}

/// A checkpoint of another format version — here the previous one,
/// with an intact CRC — is refused, and recovery fails rather than
/// starting over from an empty engine.
#[test]
fn checkpoint_of_another_version_is_refused() {
    let dir = tmpdir("old-version");
    let (durable, cfg) = build(&dir, CheckpointStrategy::Logical);
    drop(durable);
    let path = only_file(&dir, "ck");
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[8..12].copy_from_slice(&6u32.to_le_bytes());
    let body = bytes.len() - 4;
    let crc = srpq_common::crc32(&bytes[..body]);
    bytes[body..].copy_from_slice(&crc.to_le_bytes());
    std::fs::write(&path, &bytes).unwrap();
    assert!(matches!(
        checkpoint::load_latest(&dir),
        Err(PersistError::Incompatible(_))
    ));
    assert!(Durable::recover(&dir, &mut labels(), cfg).is_err());
    std::fs::remove_dir_all(&dir).ok();
}
