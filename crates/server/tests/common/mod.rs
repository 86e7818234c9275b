//! One representative value of every message kind — all 33, every field
//! non-default, every vector non-empty — shared by the golden-bytes and
//! the bounded-allocation suites.

use srpq_common::{Label, StreamTuple, Timestamp, VertexId};
use srpq_server::protocol::{
    EventWire, ExplainWire, LabelRoute, Msg, QueryInfo, ResultEntry, SpanWire, StatsSnapshot,
    SubPolicy,
};

pub fn samples() -> Vec<Msg> {
    vec![
        Msg::Hello { proto: 6 },
        Msg::MapLabels {
            names: vec!["knows".into(), "likes".into(), "αβγ".into()],
        },
        Msg::Ingest {
            tuples: vec![
                StreamTuple::insert(Timestamp(4), VertexId(7), VertexId(1), Label(2)),
                StreamTuple::delete(Timestamp(9), VertexId(3), VertexId(8), Label(1)),
            ],
        },
        Msg::AddQuery {
            name: "reach".into(),
            regex: "(knows likes)+".into(),
            simple: true,
            backfill: true,
        },
        Msg::RemoveQuery {
            name: "reach".into(),
        },
        Msg::ListQueries,
        Msg::Subscribe {
            queries: vec!["reach".into(), "late".into()],
            policy: SubPolicy::DropNewest,
            capacity: 64,
        },
        Msg::Drain,
        Msg::Checkpoint,
        Msg::Shutdown,
        Msg::Stats,
        Msg::Metrics,
        Msg::Events { since: 42 },
        Msg::Trace,
        Msg::Explain {
            name: "reach".into(),
        },
        Msg::HelloAck {
            proto: 6,
            seq: 12_345,
            durable: true,
        },
        Msg::LabelIds { ids: vec![3, 1, 7] },
        Msg::IngestAck {
            seq: 99,
            durable: true,
        },
        Msg::QueryAdded { id: 2 },
        Msg::QueryRemoved { id: 5 },
        Msg::QueryList {
            queries: vec![
                QueryInfo {
                    id: 1,
                    name: "reach".into(),
                    regex: "knows+".into(),
                    simple: true,
                    tuples_routed: 41,
                    results_emitted: 6,
                    eval_ns: 12_345,
                    group: 3,
                },
                QueryInfo {
                    id: 2,
                    name: "late".into(),
                    regex: "likes*".into(),
                    simple: true,
                    tuples_routed: 1,
                    results_emitted: 2,
                    eval_ns: 3,
                    group: 4,
                },
            ],
        },
        Msg::SubAck { matched: 1 },
        Msg::Results {
            entries: vec![
                ResultEntry {
                    query: 1,
                    invalidated: true,
                    src: 5,
                    dst: 9,
                    ts: -1,
                },
                ResultEntry {
                    query: 2,
                    invalidated: true,
                    src: 6,
                    dst: 10,
                    ts: 77,
                },
            ],
        },
        Msg::Dropped { count: 17 },
        Msg::Drained { seq: 100 },
        Msg::CheckpointDone { seq: 101 },
        Msg::ShuttingDown,
        Msg::ServerStats(StatsSnapshot {
            seq: 1,
            live_queries: 2,
            slots: 3,
            subscribers: 4,
            labels: 5,
            results_pushed: 6,
            results_dropped: 7,
            workers: 8,
            eval_ns: 9,
            delta_nodes_live: 10,
            delta_capacity: 12,
            compactions: 13,
            worker_ns: vec![(100, 10), (200, 20), (7, 1)],
            groups_live: 14,
        }),
        Msg::Error { msg: "nope".into() },
        Msg::MetricsText {
            text: "# TYPE srpq_ingest_tuples_total counter\nsrpq_ingest_tuples_total 5\n".into(),
        },
        Msg::EventList {
            events: vec![
                EventWire {
                    seq: 1,
                    unix_ms: 1_700_000_000_000,
                    kind: 2,
                    detail: "seq=10 strategy=Full".into(),
                },
                EventWire {
                    seq: 2,
                    unix_ms: 1_700_000_000_500,
                    kind: 4,
                    detail: "peer=127.0.0.1:9".into(),
                },
            ],
            dropped: 3,
        },
        Msg::TraceList {
            spans: vec![
                SpanWire {
                    trace_id: 7,
                    span_id: 8,
                    parent: 1,
                    name: "ingest".into(),
                    start_us: 1_000,
                    dur_us: 900,
                    thread: "srpq-session".into(),
                    detail: "delivered".into(),
                },
                SpanWire {
                    trace_id: 7,
                    span_id: 9,
                    parent: 8,
                    name: "extend:reach".into(),
                    start_us: 1_100,
                    dur_us: 40,
                    thread: "srpq-engine".into(),
                    detail: "tuples=3".into(),
                },
            ],
        },
        Msg::ExplainReport(ExplainWire {
            id: 2,
            name: "reach".into(),
            regex: "(knows likes)+".into(),
            simple: true,
            dfa_states: 3,
            dfa_start: 1,
            dfa_accepting: vec![2],
            labels: vec![
                LabelRoute {
                    name: "knows".into(),
                    transitions: 1,
                    sharing_queries: 2,
                },
                LabelRoute {
                    name: "likes".into(),
                    transitions: 2,
                    sharing_queries: 1,
                },
            ],
            delta_trees: 4,
            delta_nodes: 17,
            delta_slots: 20,
            delta_arena_bytes: 640,
            compactions: 2,
            nodes_per_state: vec![(1, 4), (2, 9), (3, 4)],
            depth_hist: vec![4, 9, 4],
            tuples_routed: 55,
            eval_ns: 1_234,
            expiry_ns: 234,
            total_eval_ns: 5_000,
            results_emitted: 6,
            group: 1,
            signature_hash: 0xDEAD_BEEF_F00D_CAFE,
            co_subscribers: vec!["reach_twin".into()],
        }),
    ]
}
