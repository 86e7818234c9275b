//! The one counter→journal diff, `Host::observe`: in memory and
//! durable, at any worker count, a host journals the same slide and
//! compaction events; a recovered host journals its recovery once and
//! then only deltas; a re-registered name reports from zero.

use srpq_automata::CompiledQuery;
use srpq_common::{Label, LabelInterner, StreamTuple, Timestamp, VertexId};
use srpq_core::multi::{MultiQueryEngine, NullMultiSink};
use srpq_core::{EngineConfig, PathSemantics};
use srpq_graph::WindowPolicy;
use srpq_obs::{Event, EventKind, Journal, Obs};
use srpq_persist::{DurabilityConfig, Durable, Host};
use std::path::PathBuf;

const CHUNK: usize = 16;

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("srpq-host-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn labels() -> LabelInterner {
    let mut labels = LabelInterner::new();
    labels.intern("a");
    labels.intern("b");
    labels
}

/// A pseudo-random `a`/`b` stream over 48 vertices whose rate swings
/// every 60 ticks between 8 tuples a tick and one: Δ trees grow in the
/// dense phases and shrink past half their arena in the sparse ones, so
/// expiry compacts them.
fn stream(n: usize) -> Vec<StreamTuple> {
    let mut x = 0x2545_f491_u64;
    let mut next = move || {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (x >> 33) as u32
    };
    let mut out = Vec::with_capacity(n);
    for tick in 0.. {
        let rate = if (tick / 60) % 2 == 0 { 8 } else { 1 };
        for _ in 0..rate {
            if out.len() == n {
                return out;
            }
            let (u, v, l) = (next() % 48, next() % 48, next() % 2);
            out.push(StreamTuple::insert(
                Timestamp(tick),
                VertexId(u),
                VertexId(v),
                Label(l),
            ));
        }
    }
    out
}

fn compile(regex: &str, labels: &mut LabelInterner) -> CompiledQuery {
    CompiledQuery::compile(regex, labels).unwrap()
}

/// Three registrations, two of them sharing one evaluation group.
fn engine(labels: &mut LabelInterner) -> MultiQueryEngine {
    let mut multi =
        MultiQueryEngine::with_config(EngineConfig::with_window(WindowPolicy::new(60, 6)));
    for (name, regex) in [("reach", "(a b)+"), ("twin", "(a b)+"), ("star", "a+ b")] {
        multi
            .register(name, compile(regex, labels), PathSemantics::Arbitrary)
            .unwrap();
    }
    multi
}

/// Feeds `tuples` in chunks, observing after each one.
fn drive(host: &mut Host, tuples: &[StreamTuple], start: usize, journal: &Journal) {
    let mut pos = start;
    for chunk in tuples.chunks(CHUNK) {
        host.process_batch(chunk, &mut NullMultiSink).unwrap();
        pos += chunk.len();
        host.observe(journal, format_args!("pos={pos}"));
    }
}

/// The slide and compaction events, as `(kind, detail)`.
fn diff_events(events: &[Event]) -> Vec<(EventKind, String)> {
    events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::SlideBoundary | EventKind::Compaction))
        .map(|e| (e.kind, e.detail.clone()))
        .collect()
}

/// The number after `key` in an event detail.
fn field(detail: &str, key: &str) -> u64 {
    let at = detail
        .find(key)
        .unwrap_or_else(|| panic!("{key} in {detail}"))
        + key.len();
    let digits: String = detail[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().unwrap()
}

fn expiry_runs(engine: &MultiQueryEngine) -> u64 {
    engine
        .group_ids()
        .iter()
        .filter_map(|&g| engine.group_engine(g))
        .map(|e| e.stats().expiry_runs)
        .sum()
}

#[test]
fn memory_and_durable_hosts_journal_the_same_diff() {
    let tuples = stream(1200);
    let mut reference = None;
    for workers in [0, 2] {
        let mut memory = Host::from(engine(&mut labels()));
        memory.engine_mut().set_workers(workers);
        let journal = Journal::default();
        drive(&mut memory, &tuples, 0, &journal);
        let from_memory = diff_events(&journal.since(0));

        let dir = tmpdir(&format!("same-{workers}"));
        let cfg = DurabilityConfig {
            checkpoint_every: 4,
            ..DurabilityConfig::default()
        };
        let mut durable = Host::from(Durable::create(engine(&mut labels()), &dir, cfg).unwrap());
        durable.engine_mut().set_workers(workers);
        let obs = Obs::new();
        durable.set_obs(obs.clone());
        drive(&mut durable, &tuples, 0, obs.journal());
        let events = obs.journal().since(0);
        assert_eq!(diff_events(&events), from_memory, "--workers {workers}");
        // Checkpoints come from `Durable`'s hooks, with its detail.
        let checkpoints: Vec<&Event> = events
            .iter()
            .filter(|e| e.kind == EventKind::Checkpoint)
            .collect();
        assert!(!checkpoints.is_empty());
        assert!(checkpoints.iter().all(|e| e.detail.contains(" strategy=")));

        // Slides sum over groups, not over the two sharing queries.
        let slides: u64 = from_memory
            .iter()
            .filter(|(k, _)| *k == EventKind::SlideBoundary)
            .map(|(_, d)| field(d, "expiry_runs+="))
            .sum();
        assert_eq!(slides, expiry_runs(memory.engine()));
        for name in ["reach", "twin"] {
            let compactions: u64 = from_memory
                .iter()
                .filter(|(_, d)| d.starts_with(&format!("query={name} ")))
                .map(|(_, d)| field(d, "compactions+="))
                .sum();
            assert!(compactions > 0, "{name} never compacted");
        }
        match &reference {
            None => reference = Some(from_memory),
            Some(r) => assert_eq!(&from_memory, r, "the schedule changed the journal"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn recovered_host_journals_recovery_once_then_deltas() {
    let tuples = stream(1200);
    let cut = 640;
    let dir = tmpdir("recover");
    let cfg = DurabilityConfig {
        checkpoint_every: 4,
        ..DurabilityConfig::default()
    };
    let mut first = Host::from(Durable::create(engine(&mut labels()), &dir, cfg).unwrap());
    drive(&mut first, &tuples[..cut], 0, &Journal::default());
    drop(first); // crash

    let (durable, report) = Durable::recover(&dir, &mut labels(), cfg).unwrap();
    let mut host = Host::from(durable);
    let star = host.engine().query_id("star").unwrap();
    let compactions = |host: &Host| host.engine().stats(star).unwrap().compactions;
    let (before, star_before) = (expiry_runs(host.engine()), compactions(&host));
    assert!(
        before > 0 && star_before > 0,
        "the lifetime counters survived recovery"
    );
    let obs = Obs::new();
    host.set_obs(obs.clone());
    host.observe(obs.journal(), format_args!("pos={cut}"));
    let events = obs.journal().since(0);
    assert_eq!(events.len(), 1, "{events:?}");
    assert_eq!(events[0].kind, EventKind::Recovery);
    assert_eq!(
        events[0].detail,
        format!(
            "dir={} checkpoint_seq={} replayed={} resume_seq={cut} elapsed_ms={}",
            dir.display(),
            report.checkpoint_seq,
            report.replayed_tuples,
            report.elapsed_ms
        )
    );

    // Once the counters move, the host journals deltas, not totals.
    drive(&mut host, &tuples[cut..], cut, obs.journal());
    let events = diff_events(&obs.journal().since(0));
    let slides: u64 = events
        .iter()
        .filter(|(k, _)| *k == EventKind::SlideBoundary)
        .map(|(_, d)| field(d, "expiry_runs+="))
        .sum();
    assert!(slides > 0);
    assert_eq!(slides, expiry_runs(host.engine()) - before);
    let star_journaled: u64 = events
        .iter()
        .filter(|(_, d)| d.starts_with("query=star "))
        .map(|(_, d)| field(d, "compactions+="))
        .sum();
    assert!(star_journaled > 0);
    assert_eq!(star_journaled, compactions(&host) - star_before);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn reregistered_name_journals_compactions_from_zero() {
    let tuples = stream(1600);
    let mut labels = labels();
    let mut host = Host::from(engine(&mut labels));
    let journal = Journal::default();
    drive(&mut host, &tuples[..800], 0, &journal);
    let old = host.engine().query_id("reach").unwrap();
    assert!(host.engine().stats(old).unwrap().compactions > 0);

    // Between two batches: the name leaves and comes back as a fresh,
    // private group (its twin keeps the old one alive).
    host.deregister(old).unwrap();
    let new = host
        .engine_mut()
        .register(
            "reach",
            compile("(a b)+", &mut labels),
            PathSemantics::Arbitrary,
        )
        .unwrap();
    let cursor = journal.since(0).last().map_or(0, |e| e.seq);
    drive(&mut host, &tuples[800..], 800, &journal);

    let journaled: u64 = diff_events(&journal.since(cursor))
        .iter()
        .filter(|(_, d)| d.starts_with("query=reach "))
        .map(|(_, d)| field(d, "compactions+="))
        .sum();
    let compactions = host.engine().stats(new).unwrap().compactions;
    assert!(compactions > 0, "the new group never compacted");
    assert_eq!(journaled, compactions);
}
