//! The serving layer's acceptance contract: a multi-client server
//! session — two ingest connections, a subscriber attached from the
//! start, a named subscriber waiting for a query that does not exist
//! yet, a query added *backfilled* mid-stream, and another query
//! deregistered mid-stream — produces exactly the result streams of an
//! offline [`MultiQueryEngine`] performing the same operations at the
//! same stream positions.
//!
//! Order matters: the comparison is on exact event sequences (emissions
//! *and* invalidations, with timestamps), which subsumes the ts-sorted
//! equality the issue asks for.

use srpq_client::{Client, ResultEntry};
use srpq_common::{LabelInterner, StreamTuple, Timestamp, VertexId};
use srpq_core::engine::PathSemantics;
use srpq_core::{EngineConfig, QueryId};
use srpq_graph::WindowPolicy;
use srpq_harness::{Run, Scenario, Schedule, Step, REST};
use srpq_server::protocol::SubPolicy;

const PHASE: usize = 200;
const TOTAL: usize = 600;

fn window() -> WindowPolicy {
    WindowPolicy::new(150, 25)
}

/// A deterministic insert/delete stream over labels a, b, c.
fn stream(labels: &LabelInterner) -> Vec<StreamTuple> {
    let ids = [
        labels.get("a").unwrap(),
        labels.get("b").unwrap(),
        labels.get("c").unwrap(),
    ];
    let v = VertexId;
    let mut out: Vec<StreamTuple> = Vec::with_capacity(TOTAL);
    for i in 0..TOTAL as i64 {
        if i % 37 == 36 {
            // Delete a recent edge: exercises invalidation fan-out.
            let prev = out[out.len() - 7];
            out.push(StreamTuple::delete(
                Timestamp(i),
                prev.edge.src,
                prev.edge.dst,
                prev.label,
            ));
        } else {
            out.push(StreamTuple::insert(
                Timestamp(i),
                v((i % 11) as u32),
                v(((i * 5 + 2) % 11) as u32),
                ids[(i % 3) as usize],
            ));
        }
    }
    out
}

/// One query's event: `(invalidated, src, dst, ts)`.
type Event = (bool, u32, u32, i64);

/// Query `id`'s events of `run` from its `from`th to its `to`th step
/// (`(emitted, invalidated)` counts), sorted.
fn offline_events(run: &Run, id: QueryId, from: usize, to: usize) -> Vec<Event> {
    let at = |step: usize| run.marks[step];
    let ((e0, i0), (e1, i1)) = (at(from), at(to));
    let emitted = run.emitted()[e0..e1].iter().map(|&e| (false, e));
    let invalidated = run.invalidated()[i0..i1].iter().map(|&e| (true, e));
    let mut events: Vec<Event> = emitted
        .chain(invalidated)
        .filter(|&(_, (qid, ..))| qid == id)
        .map(|(inv, (_, p, ts))| (inv, p.src.0, p.dst.0, ts.0))
        .collect();
    events.sort_unstable();
    events
}

fn server_events(entries: &[ResultEntry], id: u32) -> Vec<Event> {
    let mut events: Vec<Event> = entries
        .iter()
        .filter(|e| e.query == id)
        .map(|e| (e.invalidated, e.src, e.dst, e.ts))
        .collect();
    events.sort_unstable();
    events
}

#[test]
fn multi_client_server_matches_offline_multi_engine() {
    let labels = srpq_harness::labels(3);
    let tuples = stream(&labels);
    let config = EngineConfig::with_window(window());

    // ---- Offline reference: same operations, same positions -------
    // Three phases, each fed as one batch, so mid-stream attachment
    // points can be compared exactly.
    let sem = PathSemantics::Arbitrary;
    let steps = vec![
        Step::register("alpha", "a b*", sem),
        Step::register("cover", "(a | b | c) c*", sem),
        Step::Ingest(PHASE),
        Step::backfill("late", "b c", sem),
        Step::Ingest(PHASE),
        Step::Deregister("alpha".into()),
        REST,
    ];
    let offline = Scenario {
        config,
        labels,
        stream: tuples.clone(),
        steps,
    };
    let offline = offline.run(&Schedule::batches(PHASE));
    // Slot ids follow registration order.
    let (alpha, cover, late) = (QueryId(0), QueryId(1), QueryId(2));
    let (start, phase1, phase2, end) = (0, 2, 5, 6);

    // ---- The server performing the same script --------------------
    let server =
        srpq_server::start(srpq_server::ServerConfig::in_memory(config)).expect("server starts");
    let addr = server.addr();

    let mut control = Client::connect(addr).unwrap();
    assert_eq!(
        control.add_query("alpha", "a b*", false, false).unwrap(),
        alpha.0
    );
    assert_eq!(
        control
            .add_query("cover", "(a | b | c) c*", false, false)
            .unwrap(),
        cover.0
    );

    // Subscriber attached before any data, following everything.
    let sub_all = Client::connect(addr)
        .unwrap()
        .subscribe(&[], SubPolicy::Block, 0)
        .unwrap();
    let all_thread = std::thread::spawn(move || sub_all.collect_to_end().unwrap().0);
    // Named subscriber for a query that does not exist yet: must catch
    // the backfill results when `late` arrives.
    let sub_late = Client::connect(addr)
        .unwrap()
        .subscribe(&["late".to_string()], SubPolicy::Block, 0)
        .unwrap();
    assert_eq!(sub_late.matched(), 0);
    let late_thread = std::thread::spawn(move || sub_late.collect_to_end().unwrap().0);

    // Ingest client 1: phase 1, remapped through the server's table.
    let mut ingest1 = Client::connect(addr).unwrap();
    let ids = ingest1
        .map_labels(&["a".into(), "b".into(), "c".into()])
        .unwrap();
    let remap = |ts: &[StreamTuple]| -> Vec<StreamTuple> {
        ts.iter()
            .map(|t| {
                let mut t = *t;
                t.label = ids[t.label.0 as usize];
                t
            })
            .collect()
    };
    for chunk in remap(&tuples[..PHASE]).chunks(64) {
        ingest1.ingest(chunk).unwrap();
    }
    control.drain().unwrap();

    // Mid-stream subscriber for `alpha`: sees only phase-2 results.
    let sub_alpha = Client::connect(addr)
        .unwrap()
        .subscribe(&["alpha".to_string()], SubPolicy::Block, 0)
        .unwrap();
    assert_eq!(sub_alpha.matched(), 1);
    let alpha_thread = std::thread::spawn(move || sub_alpha.collect_to_end().unwrap().0);

    assert_eq!(
        control.add_query("late", "b c", false, true).unwrap(),
        late.0
    );

    // Ingest client 2 (a different connection): phase 2.
    let mut ingest2 = Client::connect(addr).unwrap();
    let ids2 = ingest2
        .map_labels(&["a".into(), "b".into(), "c".into()])
        .unwrap();
    assert_eq!(ids, ids2);
    for chunk in remap(&tuples[PHASE..2 * PHASE]).chunks(97) {
        ingest2.ingest(chunk).unwrap();
    }
    control.drain().unwrap();
    control.remove_query("alpha").unwrap();

    // Back to client 1 for phase 3.
    for chunk in remap(&tuples[2 * PHASE..]).chunks(64) {
        ingest1.ingest(chunk).unwrap();
    }
    let seq = control.drain().unwrap();
    assert_eq!(seq, TOTAL as u64);
    control.shutdown().unwrap();
    server.join();

    let from_all = all_thread.join().unwrap();
    let from_late = late_thread.join().unwrap();
    let from_alpha = alpha_thread.join().unwrap();

    // ---- Equivalence ----------------------------------------------
    // Per query, the server's full stream equals the offline phases
    // concatenated. (Events are compared as sorted multisets per query;
    // ts-sorted stream equality follows.)
    for (qid, name) in [(alpha, "alpha"), (cover, "cover"), (late, "late")] {
        let expect = offline_events(&offline, qid, start, end);
        let got = server_events(&from_all, qid.0);
        assert_eq!(got, expect, "query {name}: server != offline");
        assert!(
            !expect.is_empty(),
            "query {name} produced nothing — weak test"
        );
    }
    // The named late-subscriber saw exactly the `late` stream,
    // backfill included.
    assert_eq!(
        server_events(&from_late, late.0),
        offline_events(&offline, late, start, end),
    );
    assert!(from_late.iter().all(|e| e.query == late.0));
    // The mid-stream alpha subscriber saw exactly the phase-2 alpha
    // events (alpha was deregistered before phase 3).
    assert_eq!(
        server_events(&from_alpha, alpha.0),
        offline_events(&offline, alpha, phase1, phase2),
    );
    // Deregistration really ended the stream: nothing tagged alpha
    // after phase 2 anywhere.
    assert!(offline_events(&offline, alpha, phase2, end).is_empty());
}
