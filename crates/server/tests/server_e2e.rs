//! End-to-end serving-layer lifecycle over real sockets: handshake,
//! label mapping, acked ingest, runtime query add/remove, subscription
//! pushes, drain fences, duplicate-name errors, graceful shutdown, and
//! kill/recover continuity over a WAL directory.

use srpq_client::{Client, SubEvent};
use srpq_common::{StreamTuple, Timestamp, VertexId};
use srpq_core::EngineConfig;
use srpq_graph::WindowPolicy;
use srpq_server::protocol::{Msg, SubPolicy, MAX_SUB_CAPACITY, PROTO_VERSION};
use srpq_server::{ServerConfig, ServerHandle};
use std::path::PathBuf;

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("srpq-server-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn start_in_memory() -> ServerHandle {
    let config = ServerConfig::in_memory(EngineConfig::with_window(WindowPolicy::new(1000, 100)));
    srpq_server::start(config).expect("server starts")
}

fn chain(labels: &[srpq_common::Label], n: usize) -> Vec<StreamTuple> {
    (0..n)
        .map(|i| {
            StreamTuple::insert(
                Timestamp(i as i64),
                VertexId(i as u32),
                VertexId(i as u32 + 1),
                labels[i % labels.len()],
            )
        })
        .collect()
}

#[test]
fn ingest_query_subscribe_roundtrip() {
    let server = start_in_memory();
    let addr = server.addr();

    let mut control = Client::connect(addr).unwrap();
    assert!(!control.server_info().durable);
    assert_eq!(control.server_info().seq, 0);
    let id = control.add_query("ab", "a b", false, false).unwrap();
    assert_eq!(id, 0);

    // Subscriber attached before any data: sees everything.
    let sub = Client::connect(addr)
        .unwrap()
        .subscribe(&[], SubPolicy::Block, 0)
        .unwrap();
    assert_eq!(sub.matched(), 1);
    let collector = std::thread::spawn(move || sub.collect_to_end().unwrap());

    let mut ingest = Client::connect(addr).unwrap();
    let ids = ingest
        .map_labels(&["a".to_string(), "b".to_string()])
        .unwrap();
    let tuples = chain(&ids, 10);
    let ack = ingest.ingest(&tuples[..4]).unwrap();
    assert_eq!(ack.seq, 4);
    assert!(!ack.durable);
    let ack = ingest.ingest(&tuples[4..]).unwrap();
    assert_eq!(ack.seq, 10);

    // A fresh client sees the advanced sequence in its handshake.
    let late = Client::connect(addr).unwrap();
    assert_eq!(late.server_info().seq, 10);

    // Queries are listable; duplicates refused; unknown removals error.
    let list = control.list_queries().unwrap();
    assert_eq!(list.len(), 1);
    assert_eq!(list[0].name, "ab");
    assert_eq!(list[0].regex.replace(' ', ""), "ab".replace(' ', ""));
    assert!(control.add_query("ab", "b a", false, false).is_err());
    assert!(control.remove_query("nope").is_err());

    // Stats reflect the session topology.
    control.drain().unwrap();
    let stats = control.stats().unwrap();
    assert_eq!(stats.seq, 10);
    assert_eq!(stats.live_queries, 1);
    assert_eq!(stats.subscribers, 1);
    assert!(stats.results_pushed > 0);
    assert_eq!(stats.results_dropped, 0);

    // Graceful shutdown ends the subscription stream.
    control.shutdown().unwrap();
    server.join();
    let (entries, dropped) = collector.join().unwrap();
    assert_eq!(dropped, 0);
    // The a/b chain 0→1→2 … yields one "a b" result per odd prefix.
    assert!(!entries.is_empty());
    assert!(entries.iter().all(|e| e.query == 0 && !e.invalidated));
    assert!(entries.iter().any(|e| e.src == 0 && e.dst == 2));
}

#[test]
fn backfilled_add_reaches_prior_named_subscriber() {
    // A subscriber that named a query before it existed receives its
    // results, whether the mid-stream registration is backfilled or
    // plain (the plain one only sees tuples after it).
    for backfill in [true, false] {
        let server = start_in_memory();
        let addr = server.addr();
        let mut control = Client::connect(addr).unwrap();
        // The shared window only materializes labels some live query
        // speaks, so the first query must cover `a` and `b` for the later
        // backfill to see both (see `register_backfilled`'s docs).
        control.add_query("first", "a | b", false, false).unwrap();

        // Subscribe *by name* to a query that does not exist yet.
        let sub = Client::connect(addr)
            .unwrap()
            .subscribe(&["late".to_string()], SubPolicy::Block, 0)
            .unwrap();
        assert_eq!(sub.matched(), 0);
        let collector = std::thread::spawn(move || sub.collect_to_end().unwrap());

        let mut ingest = Client::connect(addr).unwrap();
        let ids = ingest
            .map_labels(&["a".to_string(), "b".to_string()])
            .unwrap();
        let tuples = chain(&ids, 12);
        ingest.ingest(&tuples[..6]).unwrap();

        // A backfilled registration replays the live window; the named
        // subscriber must receive those backfill results, and both kinds
        // stream what arrives after.
        let id = control.add_query("late", "a b", false, backfill).unwrap();
        assert_eq!(id, 1);
        control.drain().unwrap();
        ingest.ingest(&tuples[6..]).unwrap();
        control.drain().unwrap();
        control.shutdown().unwrap();
        server.join();
        let (entries, _) = collector.join().unwrap();
        assert!(
            entries.iter().any(|e| e.src >= 6),
            "backfill={backfill}: no result of the post-registration tuples"
        );
        if backfill {
            assert!(
                entries.iter().any(|e| e.src < 6),
                "backfill results missing"
            );
        }
        assert!(entries.iter().all(|e| e.query == 1));
    }
}

#[test]
fn failed_backfilled_add_does_not_pollute_name_filters() {
    // Regression: a refused backfilled AddQuery (duplicate name) used
    // to leave its *predicted* slot id in the name-matching
    // subscribers' filters, so the next unrelated query taking that
    // slot leaked its results to them.
    let server = start_in_memory();
    let addr = server.addr();
    let mut control = Client::connect(addr).unwrap();
    control.add_query("dup", "a", false, false).unwrap();

    let sub = Client::connect(addr)
        .unwrap()
        .subscribe(&["dup".to_string()], SubPolicy::Block, 0)
        .unwrap();
    let collector = std::thread::spawn(move || sub.collect_to_end().unwrap().0);

    // Refused: "dup" is live. The predicted slot id (1) must not stick.
    assert!(control.add_query("dup", "a a", false, true).is_err());
    // "other" takes slot 1; its results must not reach the subscriber.
    assert_eq!(control.add_query("other", "b", false, false).unwrap(), 1);

    let mut ingest = Client::connect(addr).unwrap();
    let ids = ingest
        .map_labels(&["a".to_string(), "b".to_string()])
        .unwrap();
    ingest.ingest(&chain(&ids, 8)).unwrap();
    control.drain().unwrap();
    control.shutdown().unwrap();
    server.join();
    let entries = collector.join().unwrap();
    assert!(!entries.is_empty(), "the dup query itself still streams");
    assert!(
        entries.iter().all(|e| e.query == 0),
        "results of another query leaked into the name filter: {entries:?}"
    );
}

#[test]
fn ingest_validation_errors_do_not_advance_seq() {
    let server = start_in_memory();
    let addr = server.addr();
    let mut ingest = Client::connect(addr).unwrap();
    let ids = ingest.map_labels(&["a".to_string()]).unwrap();

    // Unmapped label id.
    let bad_label = StreamTuple::insert(
        Timestamp(1),
        VertexId(0),
        VertexId(1),
        srpq_common::Label(77),
    );
    let err = ingest.ingest(&[bad_label]).unwrap_err();
    assert!(err.to_string().contains("unmapped label"), "{err}");

    // Negative timestamp.
    let bad_ts = StreamTuple::insert(Timestamp(-4), VertexId(0), VertexId(1), ids[0]);
    let err = ingest.ingest(&[bad_ts]).unwrap_err();
    assert!(err.to_string().contains("negative timestamp"), "{err}");

    // The session survives errors, and nothing was accepted.
    let ack = ingest.ingest(&[]).unwrap();
    assert_eq!(ack.seq, 0);
    let good = StreamTuple::insert(Timestamp(1), VertexId(0), VertexId(1), ids[0]);
    assert_eq!(ingest.ingest(&[good]).unwrap().seq, 1);
    server.shutdown();
}

#[test]
fn remove_query_stops_its_stream() {
    let server = start_in_memory();
    let addr = server.addr();
    let mut control = Client::connect(addr).unwrap();
    control.add_query("q", "a+", false, false).unwrap();

    let mut sub = Client::connect(addr)
        .unwrap()
        .subscribe(&[], SubPolicy::Block, 0)
        .unwrap();

    let mut ingest = Client::connect(addr).unwrap();
    let ids = ingest.map_labels(&["a".to_string()]).unwrap();
    ingest.ingest(&chain(&ids, 3)).unwrap();
    control.drain().unwrap();
    let Some(SubEvent::Results(first)) = sub.next_event().unwrap() else {
        panic!("expected results before removal");
    };
    assert!(!first.is_empty());

    let removed = control.remove_query("q").unwrap();
    assert_eq!(removed, 0);
    ingest.ingest(&chain(&ids, 3)).unwrap();
    control.drain().unwrap();
    control.shutdown().unwrap();
    server.join();
    // Everything after the removal fence must be silence.
    let (rest, _) = sub.collect_to_end().unwrap();
    assert!(
        rest.is_empty(),
        "results pushed after deregistration: {rest:?}"
    );
}

#[test]
fn durable_server_recovers_queries_labels_and_sequence() {
    let dir = tmpdir("recover");
    let window = EngineConfig::with_window(WindowPolicy::new(100_000, 1000));
    let mut config = ServerConfig::in_memory(window);
    config.wal_dir = Some(dir.clone());

    // First life: labels, a query, some tuples — then a hard stop
    // (drop without shutdown handshake is fine; acked batches are
    // WAL-durable under the default Batch sync policy).
    let server = srpq_server::start(config.clone()).unwrap();
    let addr = server.addr();
    let mut control = Client::connect(addr).unwrap();
    assert!(control.server_info().durable);
    control.add_query("chain", "a b", false, false).unwrap();
    let mut ingest = Client::connect(addr).unwrap();
    let ids = ingest
        .map_labels(&["a".to_string(), "b".to_string()])
        .unwrap();
    let tuples = chain(&ids, 8);
    let ack = ingest.ingest(&tuples[..5]).unwrap();
    assert!(ack.durable);
    assert_eq!(ack.seq, 5);
    // Make registration + tuples durable, then kill without ceremony.
    control.checkpoint().unwrap();
    drop(control);
    drop(ingest);
    server.shutdown();

    // Second life over the same directory: recovery restores the
    // query, the label table, and the accepted sequence.
    let server = srpq_server::start(config).unwrap();
    assert!(server.recovery.is_some());
    let addr = server.addr();
    let mut control = Client::connect(addr).unwrap();
    assert_eq!(control.server_info().seq, 5);
    let list = control.list_queries().unwrap();
    assert_eq!(list.len(), 1);
    assert_eq!(list[0].name, "chain");

    // The label table survived: mapping the same names yields the same
    // ids, so a resuming client can continue its remapped stream.
    let mut ingest = Client::connect(addr).unwrap();
    let ids2 = ingest
        .map_labels(&["a".to_string(), "b".to_string()])
        .unwrap();
    assert_eq!(ids, ids2);

    let sub = Client::connect(addr)
        .unwrap()
        .subscribe(&[], SubPolicy::Block, 0)
        .unwrap();
    let collector = std::thread::spawn(move || sub.collect_to_end().unwrap());
    let resume = control.server_info().seq as usize;
    ingest.ingest(&tuples[resume..]).unwrap();
    control.drain().unwrap();
    control.shutdown().unwrap();
    server.join();
    // The post-recovery suffix still produces chain results (the Δ
    // index was rebuilt from the checkpointed window).
    let (entries, _) = collector.join().unwrap();
    assert!(entries.iter().any(|e| e.src == 4 && e.dst == 6));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn drop_policy_subscriber_reports_losses() {
    let server = start_in_memory();
    let addr = server.addr();
    let mut control = Client::connect(addr).unwrap();
    // A dense alternation query over a chain produces plenty of
    // results per batch.
    control.add_query("q", "(a | b)+", false, false).unwrap();

    // Capacity 1 frame and a subscriber that reads nothing while a
    // dense result stream floods in: once the kernel socket buffers
    // fill, the pump stalls, the queue stays full, and frames drop.
    let sub = Client::connect(addr)
        .unwrap()
        .subscribe(&[], SubPolicy::DropNewest, 1)
        .unwrap();

    let mut ingest = Client::connect(addr).unwrap();
    let ids = ingest
        .map_labels(&["a".to_string(), "b".to_string()])
        .unwrap();
    let tuples = chain(&ids, 1500);
    for batch in tuples.chunks(100) {
        ingest.ingest(batch).unwrap();
    }
    control.drain().unwrap();
    let stats = control.stats().unwrap();
    control.shutdown().unwrap();
    server.join();
    let (received, dropped) = sub.collect_to_end().unwrap();
    assert!(
        stats.results_dropped > 0,
        "expected drops under a stalled capacity-1 subscriber \
         (pushed {}, received {})",
        stats.results_pushed,
        received.len()
    );
    // Nothing is lost silently: every entry staged for this subscriber
    // was either delivered (counted in results_pushed) or tallied as
    // dropped — never both, never neither. The tally rides the queue
    // when a slot frees up; whatever never fit is swept by the session
    // thread into a final `Dropped` ahead of `ShuttingDown`, so the
    // client's ledger matches the server's exactly even when the queue
    // was wedged full to the very end.
    assert_eq!(received.len() as u64, stats.results_pushed);
    assert_eq!(dropped, stats.results_dropped);
}

#[test]
fn parallel_workers_server_matches_sequential_server() {
    // The same session driven against a host without workers and a
    // `workers: 3` host must push identical result streams — the
    // serving-layer face of the worker-count equivalence guarantee.
    // Stats must also report the worker count and per-query routing
    // counters.
    fn run(workers: usize) -> Vec<(u32, u32, u32, i64, bool)> {
        let mut config =
            ServerConfig::in_memory(EngineConfig::with_window(WindowPolicy::new(1000, 100)));
        config.workers = workers;
        let server = srpq_server::start(config).expect("server starts");
        let addr = server.addr();

        let mut control = Client::connect(addr).unwrap();
        control.add_query("ab", "a b", false, false).unwrap();
        control.add_query("bplus", "b+", false, false).unwrap();

        let sub = Client::connect(addr)
            .unwrap()
            .subscribe(&[], SubPolicy::Block, 0)
            .unwrap();
        let collector = std::thread::spawn(move || sub.collect_to_end().unwrap());

        let mut ingest = Client::connect(addr).unwrap();
        let ids = ingest
            .map_labels(&["a".to_string(), "b".to_string()])
            .unwrap();
        let tuples = chain(&ids, 64);
        for chunk in tuples.chunks(16) {
            ingest.ingest(chunk).unwrap();
        }
        // Mid-stream registration changes, backfill included.
        control.add_query("late", "a b a", false, true).unwrap();
        control.remove_query("bplus").unwrap();
        ingest.ingest(&chain(&ids, 80)[64..]).unwrap();
        control.drain().unwrap();

        let stats = control.stats().unwrap();
        assert_eq!(stats.workers as usize, workers.max(1));
        let list = control.list_queries().unwrap();
        assert!(list.iter().all(|q| q.tuples_routed > 0 || q.name == "late"));

        control.shutdown().unwrap();
        server.join();
        let (entries, dropped) = collector.join().unwrap();
        assert_eq!(dropped, 0);
        entries
            .into_iter()
            .map(|e| (e.query, e.src, e.dst, e.ts, e.invalidated))
            .collect()
    }

    let sequential = run(0);
    assert!(!sequential.is_empty());
    for workers in [1, 3] {
        assert_eq!(run(workers), sequential, "{workers} workers diverged");
    }
}

#[test]
fn oversized_subscriber_capacity_is_refused() {
    // A bounded queue allocates every slot up front, so a capacity
    // taken from the wire unchecked could exhaust memory. The server
    // refuses a bound above `MAX_SUB_CAPACITY` before allocating, and
    // the session carries on.
    let server = start_in_memory();
    let stream = std::net::TcpStream::connect(server.addr()).unwrap();
    let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    let mut call = |msg: Msg| {
        msg.write_to(&mut writer).unwrap();
        Msg::read_from(&mut reader).unwrap().expect("a reply")
    };
    let subscribe = |capacity| Msg::Subscribe {
        queries: Vec::new(),
        policy: SubPolicy::Block,
        capacity,
    };
    let hello = call(Msg::Hello {
        proto: PROTO_VERSION,
    });
    assert!(matches!(hello, Msg::HelloAck { .. }), "{hello:?}");
    for capacity in [MAX_SUB_CAPACITY + 1, u32::MAX] {
        let reply = call(subscribe(capacity));
        assert!(
            matches!(&reply, Msg::Error { msg } if msg.contains("capacity")),
            "capacity {capacity}: {reply:?}"
        );
        let list = call(Msg::ListQueries);
        assert!(matches!(list, Msg::QueryList { .. }), "{list:?}");
    }
    let ack = call(subscribe(MAX_SUB_CAPACITY));
    assert!(matches!(ack, Msg::SubAck { matched: 0 }), "{ack:?}");
    Client::connect(server.addr()).unwrap().shutdown().unwrap();
    server.join();
}

#[test]
fn accepted_session_sockets_disable_nagle() {
    // Replies and pushes are whole frames flushed through a
    // `BufWriter`; with Nagle on, an 18-byte ack waits out the peer's
    // delayed ACK of the previous frame. `accept_session` is the
    // server's accept path (the accept loop calls nothing else).
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let _client = std::net::TcpStream::connect(listener.local_addr().unwrap()).unwrap();
    let session = srpq_server::accept_session(&listener).unwrap();
    assert!(session.nodelay().unwrap());
}

/// Reads the `NAME_count` line of a Prometheus histogram out of an
/// exposition document.
fn prom_hist_count(text: &str, name: &str) -> u64 {
    let needle = format!("{name}_count");
    text.lines()
        .find(|l| l.starts_with(&needle))
        .and_then(|l| l.split_whitespace().last())
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("series {needle} missing from:\n{text}"))
}

#[test]
fn metrics_events_and_exact_e2e_histogram() {
    // Every ingest frame is stamped, so every delivered result is
    // stamped at ingest decode and observed at the flush that makes it
    // client-visible — the e2e histogram count must equal the
    // delivered-results count exactly.
    let mut config =
        ServerConfig::in_memory(EngineConfig::with_window(WindowPolicy::new(1000, 100)));
    config.metrics_addr = Some("127.0.0.1:0".to_string());
    let server = srpq_server::start(config).expect("server starts");
    let addr = server.addr();
    let http_addr = server.metrics_addr().expect("metrics listener up");
    let obs = server.obs().clone();

    let mut control = Client::connect(addr).unwrap();
    control.add_query("ab", "a b", false, false).unwrap();
    let sub = Client::connect(addr)
        .unwrap()
        .subscribe(&[], SubPolicy::Block, 0)
        .unwrap();
    let collector = std::thread::spawn(move || sub.collect_to_end().unwrap());

    let mut ingest = Client::connect(addr).unwrap();
    let ids = ingest
        .map_labels(&["a".to_string(), "b".to_string()])
        .unwrap();
    // 256 tuples at ts 0..256 cross the slide boundary (β = 100), so
    // the journal sees window slides, not just topology events.
    for chunk in chain(&ids, 256).chunks(32) {
        ingest.ingest(chunk).unwrap();
    }
    control.drain().unwrap();

    // `ctl metrics` surface: the full pipeline shows up as series.
    let text = control.metrics().unwrap();
    assert!(prom_hist_count(&text, "srpq_stage_ingest_decode_ns") >= 4);
    assert!(prom_hist_count(&text, "srpq_stage_route_ns") > 0);
    assert!(prom_hist_count(&text, "srpq_stage_extend_ns") > 0);
    assert!(prom_hist_count(&text, "srpq_stage_subscriber_write_ns") > 0);
    assert!(
        text.contains("srpq_query_delta_nodes{query=\"ab\"}"),
        "{text}"
    );
    assert!(
        text.contains("srpq_query_result_bytes{query=\"ab\"}"),
        "{text}"
    );
    assert!(
        text.contains("srpq_query_reverse_index_bytes{query=\"ab\"}"),
        "{text}"
    );
    let graph_bytes = text
        .lines()
        .find_map(|l| l.strip_prefix("srpq_graph_heap_bytes "))
        .and_then(|v| v.parse::<u64>().ok());
    assert!(graph_bytes.is_some_and(|b| b > 0), "{text}");
    assert!(text.contains("srpq_ingest_tuples_total 256"), "{text}");
    assert!(text.contains("srpq_subscribers 1"), "{text}");

    // HTTP surface: a raw HTTP/1.0 GET serves the same document shape.
    let body = {
        use std::io::{Read, Write};
        let mut s = std::net::TcpStream::connect(http_addr).unwrap();
        s.write_all(b"GET /metrics HTTP/1.0\r\n\r\n").unwrap();
        let mut resp = String::new();
        s.read_to_string(&mut resp).unwrap();
        assert!(resp.starts_with("HTTP/1.0 200"), "{resp}");
        resp
    };
    assert!(body.contains("srpq_live_queries 1"), "{body}");

    // Exact e2e accounting: every result delivered so far was stamped
    // (sample=1, no backfill) and observed before the drain fence acked.
    let stats = control.stats().unwrap();
    assert!(stats.results_pushed > 0);
    assert_eq!(
        prom_hist_count(&text, "srpq_e2e_latency_ns"),
        stats.results_pushed
    );

    // The journal replays the session's structured history.
    let (events, dropped_events) = control.events(0).unwrap();
    assert_eq!(dropped_events, 0);
    let kind = |k: srpq_obs::EventKind| events.iter().filter(|e| e.kind == k.as_u8()).count();
    assert!(kind(srpq_obs::EventKind::QueryAdd) == 1, "{events:?}");
    assert!(
        kind(srpq_obs::EventKind::SubscriberConnect) == 1,
        "{events:?}"
    );
    assert!(kind(srpq_obs::EventKind::SlideBoundary) > 0, "{events:?}");
    // `--since` cursors resume after the last seen sequence.
    let last = events.last().unwrap().seq;
    assert!(control.events(last).unwrap().0.is_empty());

    control.shutdown().unwrap();
    server.join();
    let (entries, dropped) = collector.join().unwrap();
    assert_eq!(dropped, 0);
    let final_count = obs
        .registry()
        .histogram("srpq_e2e_latency_ns", &[])
        .merged()
        .count();
    assert_eq!(
        final_count,
        entries.len() as u64,
        "e2e histogram count must equal delivered results"
    );
}

#[test]
fn trace_spans_form_complete_causal_tree() {
    // `trace_sample = 1`: every ingest frame carries a TraceId stamped
    // at decode. The retained spans must form a closed causal tree —
    // decode → route → per-query extend → emit → subscriber write, all
    // nested inside one "ingest" root — reconcilable against the e2e
    // histogram, and exportable as Chrome trace-event JSON.
    let mut config =
        ServerConfig::in_memory(EngineConfig::with_window(WindowPolicy::new(1000, 100)));
    config.trace_sample = 1;
    let server = srpq_server::start(config).expect("server starts");
    let addr = server.addr();
    let obs = server.obs().clone();

    let mut control = Client::connect(addr).unwrap();
    control.add_query("ab", "a b", false, false).unwrap();
    control.add_query("ba", "b a", false, false).unwrap();
    let sub = Client::connect(addr)
        .unwrap()
        .subscribe(&[], SubPolicy::Block, 0)
        .unwrap();
    let collector = std::thread::spawn(move || sub.collect_to_end().unwrap());

    let mut ingest = Client::connect(addr).unwrap();
    let ids = ingest
        .map_labels(&["a".to_string(), "b".to_string()])
        .unwrap();
    for chunk in chain(&ids, 128).chunks(16) {
        ingest.ingest(chunk).unwrap();
    }
    control.drain().unwrap();

    let spans = control.trace().unwrap();
    let mut roots = std::collections::HashMap::new();
    for s in spans.iter().filter(|s| s.parent == 0) {
        assert_eq!(s.name, "ingest", "non-ingest root: {s:?}");
        assert!(
            roots.insert(s.trace_id, s).is_none(),
            "two roots in trace {}",
            s.trace_id
        );
    }
    assert_eq!(roots.len(), 8, "8 ingest frames, each sampled: {spans:?}");

    let mut delivered = 0u64;
    for root in roots.values() {
        let children: Vec<_> = spans
            .iter()
            .filter(|s| s.trace_id == root.trace_id && s.parent == root.span_id)
            .collect();
        let names: Vec<&str> = children.iter().map(|s| s.name.as_str()).collect();
        for need in ["decode", "route", "emit"] {
            assert!(names.contains(&need), "missing {need} in {names:?}");
        }
        // Every batch alternates both labels, so both queries extend.
        assert!(names.contains(&"extend:ab"), "{names:?}");
        assert!(names.contains(&"extend:ba"), "{names:?}");
        assert!(
            !names.contains(&"wal"),
            "in-memory server must not report WAL spans"
        );
        // Causal nesting: every child closes within the root extent.
        let (lo, hi) = (root.start_us, root.start_us + root.dur_us);
        for c in &children {
            assert!(
                c.start_us >= lo && c.start_us + c.dur_us <= hi,
                "child escapes root extent: {c:?} vs {root:?}"
            );
        }
        if names.contains(&"write") {
            delivered += 1;
        }
    }
    assert!(delivered > 0, "no trace reached a subscriber socket");

    // Reconciliation: a delivered root was widened against the very
    // stamp the e2e histogram observed, and each delivery carried at
    // least one result — delivered traces can never outnumber samples.
    let e2e = obs
        .registry()
        .histogram("srpq_e2e_latency_ns", &[])
        .merged();
    assert!(e2e.count() >= delivered, "{} < {delivered}", e2e.count());

    // The `/trace` document is well-formed Chrome trace-event JSON.
    let json = obs.trace().to_chrome_json();
    assert!(json.starts_with("{\"traceEvents\":["), "{json}");
    assert!(json.ends_with("]}"), "{json}");
    assert!(json.contains("\"name\":\"ingest\""), "{json}");
    assert_eq!(json.matches('{').count(), json.matches('}').count());

    // `explain` reports the DFA shape, Δ-forest profile, routing
    // fan-in, and evaluation time share for a live query.
    let x = control.explain("ab").unwrap();
    assert_eq!(x.name, "ab");
    assert!(x.dfa_states >= 2, "{x:?}");
    assert!(!x.dfa_accepting.is_empty(), "{x:?}");
    assert_eq!(x.labels.len(), 2, "{x:?}");
    assert!(
        x.labels.iter().all(|l| l.sharing_queries == 2),
        "both queries speak both labels: {:?}",
        x.labels
    );
    assert!(x.delta_trees > 0 && x.delta_nodes > 0, "{x:?}");
    assert!(x.tuples_routed > 0, "{x:?}");
    assert!(x.eval_ns > 0 && x.total_eval_ns >= x.eval_ns, "{x:?}");
    assert!(x.depth_hist.iter().sum::<u64>() > 0, "{x:?}");
    assert!(control.explain("nope").is_err());

    control.shutdown().unwrap();
    server.join();
    collector.join().unwrap();
}
