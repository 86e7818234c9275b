//! The message vocabulary of the serving protocol.
//!
//! Every message travels as one [`srpq_common::frame`] frame: the frame
//! kind byte is the message discriminant and the payload is the message
//! body. Kinds and body layouts are section 2 of the format reference
//! in [`srpq_common::wire`]; this module states each of them once — a
//! record's struct declaration is its field order, and the table behind
//! [`Msg::encode`] / [`Msg::decode`] names every kind's fields in wire
//! order. Tuple batches reuse the 21-byte tuple codec verbatim — an
//! ingest payload is bit-identical to a WAL record payload carrying the
//! same batch. Frame-level CRC32 covers kind, length, and payload, so a
//! corrupt message is refused by the frame layer before this module
//! ever parses it (`frame_corruption` tests below pin that).
//!
//! Client-initiated kinds live below 0x80, server responses and pushes
//! at 0x80 and above. See the crate docs for the session-level
//! choreography (which requests are valid when, and what they elicit).

use srpq_common::frame;
use srpq_common::wire::{Reader, Stream, Wide, Wire, WireError, Writer};
use srpq_common::{wire_get, wire_put, wire_struct, wire_tags, StreamTuple};
use std::io::{self, Read, Write};

/// Protocol revision spoken by this build. [`Msg::Hello`] carries the
/// client's revision. Checked by exact equality; both binaries come
/// from this repository.
pub const PROTO_VERSION: u16 = 6;

/// Largest subscriber queue bound, in result frames, a
/// [`Msg::Subscribe`] may ask for. The server allocates every slot of
/// the queue up front, so it refuses a larger bound before allocating.
pub const MAX_SUB_CAPACITY: u32 = 4096;

/// What a subscriber wants done when its queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SubPolicy {
    /// Block the engine until the subscriber drains — lossless, at the
    /// price of backpressuring every ingest session behind this
    /// subscriber. Default (correctness first).
    #[default]
    Block,
    /// Drop the newest results and count them; the subscriber receives
    /// a [`Msg::Dropped`] tally when the queue next has room. Protects
    /// ingest throughput from slow subscribers.
    DropNewest,
}

impl SubPolicy {
    /// Parses the CLI spelling (`block` | `drop`).
    pub fn parse(s: &str) -> Option<SubPolicy> {
        match s {
            "block" => Some(SubPolicy::Block),
            "drop" => Some(SubPolicy::DropNewest),
            _ => None,
        }
    }
}

wire_tags!(PolicyTag for SubPolicy as "subscription policy" { Block = 0, DropNewest = 1 });

wire_struct! {
    /// One pushed result: query `query` (dis)covered `(src, dst)` at stream
    /// time `ts`.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct ResultEntry {
        /// Slot id of the emitting query.
        pub query: u32,
        /// `false` = newly discovered pair, `true` = invalidation (the pair
        /// lost its last witness path to an explicit deletion).
        pub invalidated: bool,
        /// Source vertex.
        pub src: u32,
        /// Destination vertex.
        pub dst: u32,
        /// Stream time of the (in)validation.
        pub ts: i64,
    }
}

wire_struct! {
    /// One row of a [`Msg::QueryList`] response.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct QueryInfo {
        /// Slot id.
        pub id: u32,
        /// Registration name.
        pub name: String,
        /// The query expression.
        pub regex: String,
        /// `true` = simple-path semantics, `false` = arbitrary.
        pub simple: bool,
        /// Tuples label-routed to this query since registration.
        pub tuples_routed: u64,
        /// Results this query has emitted (post-dedup).
        pub results_emitted: u64,
        /// Nanoseconds spent inside this query's evaluation calls — the
        /// hot-query indicator (`srpq query list`). Comparable within one
        /// server lifetime only.
        pub eval_ns: u64,
        /// The shared-evaluation group this query subscribes to. Queries
        /// with the same group id share one Δ forest; their routed/eval
        /// counters are the group's, not per-subscriber slices.
        pub group: u32,
    }
}

wire_struct! {
    /// One structured event from the server's bounded journal
    /// ([`Msg::EventList`]). `kind` is the journal's stable `u8`
    /// discriminant (`srpq_obs::EventKind`), carried raw so older clients
    /// can still display events newer servers journal.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct EventWire {
        /// Monotonic journal sequence number.
        pub seq: u64,
        /// Wall-clock milliseconds since the Unix epoch at record time.
        pub unix_ms: u64,
        /// Event-kind discriminant.
        pub kind: u8,
        /// Free-form detail.
        pub detail: String,
    }
}

wire_struct! {
    /// One causal-trace span ([`Msg::TraceList`]): a named interval on one
    /// pipeline stage, attributed to a sampled ingest batch. The field
    /// layout mirrors `srpq_obs::Span`; timestamps are microseconds since
    /// the server's trace epoch (its start), so spans from one response are
    /// mutually comparable but not wall-clock.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct SpanWire {
        /// The sampled batch this span belongs to.
        pub trace_id: u64,
        /// Unique id of this span within the trace buffer.
        pub span_id: u64,
        /// Parent span id (0 = root).
        pub parent: u64,
        /// Stage name (`ingest`, `decode`, `wal`, `route`, `extend:<q>`,
        /// `expiry`, `emit`, `write`).
        pub name: String,
        /// Start, microseconds since the trace epoch.
        pub start_us: u64,
        /// Duration in microseconds.
        pub dur_us: u64,
        /// Thread the stage ran on.
        pub thread: String,
        /// Free-form detail (tuple counts, subscriber, …).
        pub detail: String,
    }
}

wire_struct! {
    /// How one label of a query's alphabet is routed
    /// ([`Msg::ExplainReport`]).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct LabelRoute {
        /// The label name.
        pub name: String,
        /// DFA transitions consuming this label.
        pub transitions: u32,
        /// Live evaluation groups (this query's included) whose alphabet
        /// contains the label — the routing fan-in: a matching tuple is
        /// handed to this many shared Δ forests.
        pub sharing_queries: u32,
    }
}

wire_struct! {
    /// The introspection report behind `ctl explain <query>`
    /// ([`Msg::ExplainReport`]): minimized-DFA shape, Δ-forest profile, and
    /// time share since registration. Computing it walks the query's whole
    /// Δ forest — it never runs on the tuple path.
    #[derive(Debug, Clone, PartialEq, Eq, Default)]
    pub struct ExplainWire {
        /// Slot id of the query.
        pub id: u32,
        /// Registration name.
        pub name: String,
        /// The query expression.
        pub regex: String,
        /// `true` = simple-path semantics.
        pub simple: bool,
        /// States in the minimized DFA.
        pub dfa_states: u32,
        /// Start state.
        pub dfa_start: u32,
        /// Accepting states, ascending.
        pub dfa_accepting: Vec<u32>,
        /// Per-label DFA transition counts and routing fan-in, in alphabet
        /// order.
        pub labels: Vec<LabelRoute>,
        /// Spanning trees in Δ.
        pub delta_trees: u64,
        /// Live Δ nodes over all trees.
        pub delta_nodes: u64,
        /// Arena slots (live + free-listed); the gap to `delta_nodes` is
        /// fragmentation awaiting per-slide compaction.
        pub delta_slots: u64,
        /// Resident bytes of the node arenas.
        pub delta_arena_bytes: u64,
        /// Arena compactions performed for this query.
        pub compactions: u64,
        /// Live node count per DFA state, sorted by state id; empty states
        /// omitted.
        pub nodes_per_state: Vec<(u32, u64)>,
        /// Node count by depth (root = 0); the last bucket accumulates
        /// everything at or beyond it.
        pub depth_hist: Vec<u64>,
        /// Tuples label-routed to this query since registration.
        pub tuples_routed: u64,
        /// Nanoseconds inside this query's evaluation calls.
        pub eval_ns: u64,
        /// The expiry (window-management) slice of `eval_ns`.
        pub expiry_ns: u64,
        /// Evaluation nanoseconds summed over all evaluation groups — the
        /// denominator of this query's time share. Groups, not queries:
        /// a shared forest's time counts once however many subscribers
        /// ride it.
        pub total_eval_ns: u64,
        /// Results emitted (post-dedup).
        pub results_emitted: u64,
        /// The shared-evaluation group this query subscribes to.
        pub group: u32,
        /// Hash of the canonical (minimized, BFS-renumbered) DFA form —
        /// the key equal-language registrations collapse under.
        pub signature_hash: u64,
        /// Names of the *other* queries subscribed to the same group —
        /// empty means this query's Δ forest is private; non-empty means
        /// the Δ counts above are shared with these co-subscribers.
        pub co_subscribers: Vec<String>,
    }
}

wire_struct! {
    /// A snapshot of server-wide counters ([`Msg::ServerStats`]).
    #[derive(Debug, Clone, PartialEq, Eq, Default)]
    pub struct StatsSnapshot {
        /// Tuples accepted (and, when durable, WAL-logged) so far.
        pub seq: u64,
        /// Live registered queries.
        pub live_queries: u32,
        /// Registration slots ever allocated (vacated ones included).
        pub slots: u32,
        /// Attached subscriber sessions.
        pub subscribers: u32,
        /// Interned labels.
        pub labels: u32,
        /// Result entries pushed to subscribers (drops excluded).
        pub results_pushed: u64,
        /// Result entries dropped across all drop-policy subscribers.
        pub results_dropped: u64,
        /// Evaluation threads: the pool size, or 1 when the engine
        /// thread evaluates itself (`--workers 0`).
        pub workers: u32,
        /// Total nanoseconds spent in per-query evaluation across all live
        /// queries.
        pub eval_ns: u64,
        /// Live Δ nodes across all live queries (gauge).
        pub delta_nodes_live: u64,
        /// Total Δ arena slots across all live queries (gauge); the gap to
        /// `delta_nodes_live` is arena fragmentation awaiting compaction.
        pub delta_capacity: u64,
        /// Δ arena compactions performed across all live queries.
        pub compactions: u64,
        /// Per-worker `(eval_ns, expiry_ns)`: the wall-clock each
        /// evaluation worker thread spent inside per-query evaluation calls
        /// and the expiry slice thereof. Empty without workers; with a
        /// pool, the coordinator's own evaluation time (singleton stage
        /// A, backfill replay) rides as one final synthetic entry, so the
        /// entries sum to the per-query `eval_ns` total (while no query
        /// has been deregistered).
        pub worker_ns: Vec<(u64, u64)>,
        /// Live shared-evaluation groups (Δ forests). The gap to
        /// `live_queries` is the consolidation win: queries minus groups
        /// forests never built.
        pub groups_live: u32,
    }
}

/// A protocol message (client requests < 0x80 ≤ server responses).
#[derive(Debug, Clone, PartialEq)]
pub enum Msg {
    // ---- client → server ------------------------------------------
    /// Opening handshake; the server answers [`Msg::HelloAck`].
    Hello {
        /// The client's [`PROTO_VERSION`].
        proto: u16,
    },
    /// Intern `names`, answering the server-side label ids in order
    /// ([`Msg::LabelIds`]). Ingest clients remap their tuples through
    /// this table before sending.
    MapLabels {
        /// Label names in the client's id order.
        names: Vec<String>,
    },
    /// One batch of tuples (server label ids, non-negative timestamps).
    /// Acked at the WAL-durable sequence number ([`Msg::IngestAck`]).
    Ingest {
        /// The batch, in stream order.
        tuples: Vec<StreamTuple>,
    },
    /// Register a query at runtime ([`Msg::QueryAdded`] /
    /// [`Msg::Error`] on duplicate names or parse failure).
    AddQuery {
        /// Registration name (unique among live queries).
        name: String,
        /// The query expression (parsed server-side).
        regex: String,
        /// Simple-path semantics instead of arbitrary.
        simple: bool,
        /// Backfill from the live window so the query immediately
        /// reports over current content.
        backfill: bool,
    },
    /// Deregister the live query registered under `name`
    /// ([`Msg::QueryRemoved`]).
    RemoveQuery {
        /// The registration name.
        name: String,
    },
    /// List live queries ([`Msg::QueryList`]).
    ListQueries,
    /// Convert this session into a push stream ([`Msg::SubAck`], then
    /// [`Msg::Results`]/[`Msg::Dropped`] until the connection or the
    /// server goes away).
    Subscribe {
        /// Names of the queries to follow; empty = all queries,
        /// including ones registered later.
        queries: Vec<String>,
        /// Queue-full behavior.
        policy: SubPolicy,
        /// Queue bound in result frames (0 = server default; above
        /// [`MAX_SUB_CAPACITY`] the server answers [`Msg::Error`]).
        capacity: u32,
    },
    /// Block until every previously accepted batch is fully processed
    /// *and* every subscriber queue has been flushed to its socket
    /// ([`Msg::Drained`]) — the determinism fence the equivalence tests
    /// and the CI smoke lean on.
    Drain,
    /// Force a checkpoint now ([`Msg::CheckpointDone`]).
    Checkpoint,
    /// Graceful shutdown: drain the ingest pipeline (arrival order),
    /// checkpoint, close subscriber streams, exit
    /// ([`Msg::ShuttingDown`]).
    Shutdown,
    /// Server-wide counters ([`Msg::ServerStats`]).
    Stats,
    /// The full metrics registry rendered as Prometheus text
    /// ([`Msg::MetricsText`]) — the frame-protocol twin of
    /// `GET /metrics`.
    Metrics,
    /// Journal events with sequence numbers greater than `since`
    /// ([`Msg::EventList`]). `since = 0` returns everything retained.
    Events {
        /// Replay events after this journal sequence number.
        since: u64,
    },
    /// The causal-trace span buffer ([`Msg::TraceList`]): every span
    /// recorded for sampled ingest batches still retained in the
    /// bounded ring. Empty unless the server runs with
    /// `--trace-sample`.
    Trace,
    /// Introspect one live query ([`Msg::ExplainReport`] /
    /// [`Msg::Error`] on unknown names).
    Explain {
        /// The registration name.
        name: String,
    },

    // ---- server → client ------------------------------------------
    /// Handshake answer.
    HelloAck {
        /// The server's [`PROTO_VERSION`].
        proto: u16,
        /// Tuples accepted so far (a resuming ingest client skips its
        /// first `seq` tuples).
        seq: u64,
        /// Whether the server runs with a write-ahead log.
        durable: bool,
    },
    /// Server-side ids for a [`Msg::MapLabels`] request, in order.
    LabelIds {
        /// `ids[i]` is the server id of `names[i]`.
        ids: Vec<u32>,
    },
    /// A batch was accepted: `seq` tuples are now reflected in the
    /// engine — and WAL-logged (fsynced per the server's sync policy)
    /// when `durable`.
    IngestAck {
        /// Total tuples accepted after this batch.
        seq: u64,
        /// Whether the batch hit the write-ahead log before the ack.
        durable: bool,
    },
    /// The runtime registration succeeded.
    QueryAdded {
        /// The new query's slot id.
        id: u32,
    },
    /// The deregistration succeeded.
    QueryRemoved {
        /// The vacated slot id.
        id: u32,
    },
    /// The live queries.
    QueryList {
        /// One row per live query, ascending by id.
        queries: Vec<QueryInfo>,
    },
    /// Subscription accepted.
    SubAck {
        /// Live queries matched right now (an empty-filter subscriber
        /// also receives queries registered later).
        matched: u32,
    },
    /// Pushed results, in emission order.
    Results {
        /// The batched entries.
        entries: Vec<ResultEntry>,
    },
    /// `count` result entries were dropped since the last tally
    /// (drop-newest subscribers only).
    Dropped {
        /// Entries lost to the bounded queue.
        count: u64,
    },
    /// Everything accepted before the [`Msg::Drain`] is processed and
    /// flushed.
    Drained {
        /// Tuples accepted at the fence.
        seq: u64,
    },
    /// Checkpoint written.
    CheckpointDone {
        /// WAL sequence the checkpoint covers.
        seq: u64,
    },
    /// The server is exiting; subscriber streams end after this.
    ShuttingDown,
    /// Server-wide counters.
    ServerStats(StatsSnapshot),
    /// The request failed; the session stays usable.
    Error {
        /// Human-readable reason.
        msg: String,
    },
    /// The metrics registry in Prometheus exposition text.
    MetricsText {
        /// The rendered text (UTF-8).
        text: String,
    },
    /// Journal events, oldest first.
    EventList {
        /// Retained events after the requested sequence number.
        events: Vec<EventWire>,
        /// Events after `since` that the bounded journal has already
        /// overwritten — nonzero means the replay has a gap at its
        /// start.
        dropped: u64,
    },
    /// Retained trace spans, oldest first.
    TraceList {
        /// The spans, roots interleaved with children (group by
        /// `trace_id`, nest by `parent`).
        spans: Vec<SpanWire>,
    },
    /// The introspection report for one live query.
    ExplainReport(ExplainWire),
}

/// States every message body once: `kind Variant { fields in wire
/// order }` (or `Variant(inner)` / bare `Variant`). A field goes through
/// [`Wire`] unless it names an adapter (`field as Adapter`). The frame
/// kind, the encoder and the decoder all derive from this one table.
macro_rules! msg_table {
    ($($kind:literal $name:ident
        $({ $($field:ident $(as $via:ty)?),* })?
        $(( $inner:ident ))?,
    )*) => {
        impl Msg {
            /// The frame kind byte of this message.
            fn kind(&self) -> u8 {
                match self {
                    $(Msg::$name { .. } => $kind,)*
                }
            }

            /// Appends the message body.
            fn put_body(&self, w: &mut Writer) {
                match self {
                    $(Msg::$name $({ $($field),* })? $(( $inner ))? => {
                        $($(wire_put!(w, $field $(, $via)?);)*)?
                        $(Wire::put($inner, w);)?
                    })*
                }
            }

            /// Reads the body of a `kind` message.
            fn get_body(kind: u8, r: &mut Reader<'_>) -> Result<Msg, WireError> {
                Ok(match kind {
                    $($kind => Msg::$name
                        $({ $($field: wire_get!(r $(, $via)?)),* })?
                        $(({ let $inner = Wire::get(r)?; $inner }))?,
                    )*
                    other => {
                        return Err(WireError::Tag {
                            what: "message kind",
                            value: other.into(),
                        })
                    }
                })
            }
        }
    };
}

msg_table! {
    0x01 Hello { proto as Wide },
    0x02 MapLabels { names },
    0x03 Ingest { tuples as Stream },
    0x04 AddQuery { name, regex, simple, backfill },
    0x05 RemoveQuery { name },
    0x06 ListQueries,
    0x07 Subscribe { queries, policy as PolicyTag, capacity },
    0x08 Drain,
    0x09 Checkpoint,
    0x0A Shutdown,
    0x0B Stats,
    0x0C Metrics,
    0x0D Events { since },
    0x0E Trace,
    0x0F Explain { name },
    0x81 HelloAck { proto as Wide, seq, durable },
    0x82 LabelIds { ids },
    0x83 IngestAck { seq, durable },
    0x84 QueryAdded { id },
    0x85 QueryRemoved { id },
    0x86 QueryList { queries },
    0x87 SubAck { matched },
    0x88 Results { entries },
    0x89 Dropped { count },
    0x8A Drained { seq },
    0x8B CheckpointDone { seq },
    0x8C ShuttingDown,
    0x8D ServerStats(stats),
    0x8E Error { msg },
    0x8F MetricsText { text },
    0x90 EventList { dropped, events },
    0x91 TraceList { spans },
    0x92 ExplainReport(report),
}

impl Msg {
    /// Encodes this message as `(frame kind, payload)`.
    pub fn encode(&self) -> (u8, Vec<u8>) {
        let mut w = Writer::new();
        self.put_body(&mut w);
        (self.kind(), w.into_bytes())
    }

    /// Decodes a message from a frame `(kind, payload)`. Errors on
    /// unknown kinds, malformed bodies, and trailing bytes.
    pub fn decode(kind: u8, payload: &[u8]) -> Result<Msg, WireError> {
        let mut r = Reader::new(payload);
        let msg = Msg::get_body(kind, &mut r)?;
        r.finish()?;
        Ok(msg)
    }

    /// Writes this message as one frame (no flush): header, body and
    /// checksum are laid out in one buffer.
    pub fn write_to(&self, w: &mut impl Write) -> io::Result<()> {
        frame::write_frame(w, self.kind(), |body| self.put_body(body))
    }

    /// Reads one message; `Ok(None)` on clean EOF between frames.
    pub fn read_from(r: &mut impl Read) -> io::Result<Option<Msg>> {
        Self::read_from_timed(r).map(|opt| opt.map(|(msg, _)| msg))
    }

    /// Like [`Msg::read_from`], additionally reporting the nanoseconds
    /// spent decoding the frame payload into a message — the
    /// ingest-decode stage measurement. Socket reads (and the CRC check
    /// interleaved with them) are excluded: a session blocked waiting
    /// for the next frame is idle, not decoding.
    pub fn read_from_timed(r: &mut impl Read) -> io::Result<Option<(Msg, u64)>> {
        match frame::read_frame(r)? {
            None => Ok(None),
            Some((kind, payload)) => {
                let t0 = std::time::Instant::now();
                let msg = Msg::decode(kind, &payload)
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
                Ok(Some((msg, t0.elapsed().as_nanos() as u64)))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use srpq_common::{Label, Timestamp, VertexId};

    fn samples() -> Vec<Msg> {
        vec![
            Msg::Hello {
                proto: PROTO_VERSION,
            },
            Msg::MapLabels {
                names: vec!["knows".into(), "likes".into()],
            },
            Msg::Ingest {
                tuples: vec![
                    StreamTuple::insert(Timestamp(4), VertexId(0), VertexId(1), Label(0)),
                    StreamTuple::delete(Timestamp(9), VertexId(0), VertexId(1), Label(0)),
                ],
            },
            Msg::AddQuery {
                name: "q".into(),
                regex: "(a b)+".into(),
                simple: true,
                backfill: true,
            },
            Msg::RemoveQuery { name: "q".into() },
            Msg::ListQueries,
            Msg::Subscribe {
                queries: vec!["q".into()],
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
            Msg::Explain { name: "q".into() },
            Msg::HelloAck {
                proto: PROTO_VERSION,
                seq: 12345,
                durable: true,
            },
            Msg::LabelIds { ids: vec![3, 0, 7] },
            Msg::IngestAck {
                seq: 99,
                durable: false,
            },
            Msg::QueryAdded { id: 2 },
            Msg::QueryRemoved { id: 2 },
            Msg::QueryList {
                queries: vec![QueryInfo {
                    id: 0,
                    name: "q".into(),
                    regex: "a+".into(),
                    simple: false,
                    tuples_routed: 41,
                    results_emitted: 6,
                    eval_ns: 12_345,
                    group: 0,
                }],
            },
            Msg::SubAck { matched: 1 },
            Msg::Results {
                entries: vec![ResultEntry {
                    query: 1,
                    invalidated: false,
                    src: 5,
                    dst: 9,
                    ts: -1,
                }],
            },
            Msg::Dropped { count: 17 },
            Msg::Drained { seq: 100 },
            Msg::CheckpointDone { seq: 100 },
            Msg::ShuttingDown,
            Msg::ServerStats(StatsSnapshot {
                seq: 1,
                live_queries: 2,
                slots: 3,
                subscribers: 4,
                labels: 5,
                results_pushed: 6,
                results_dropped: 7,
                workers: 4,
                eval_ns: 8,
                delta_nodes_live: 9,
                delta_capacity: 12,
                compactions: 1,
                worker_ns: vec![(100, 10), (200, 20), (7, 0)],
                groups_live: 2,
            }),
            Msg::Error { msg: "nope".into() },
            Msg::MetricsText {
                text: "# TYPE srpq_ingest_tuples_total counter\nsrpq_ingest_tuples_total 5\n"
                    .into(),
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
                        detail: String::new(),
                    },
                ],
                dropped: 3,
            },
            Msg::TraceList {
                spans: vec![
                    SpanWire {
                        trace_id: 7,
                        span_id: 8,
                        parent: 0,
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
                        name: "extend:q".into(),
                        start_us: 1_100,
                        dur_us: 40,
                        thread: "srpq-engine".into(),
                        detail: String::new(),
                    },
                ],
            },
            Msg::ExplainReport(ExplainWire {
                id: 2,
                name: "q".into(),
                regex: "(a b)+".into(),
                simple: true,
                dfa_states: 3,
                dfa_start: 0,
                dfa_accepting: vec![2],
                labels: vec![
                    LabelRoute {
                        name: "a".into(),
                        transitions: 1,
                        sharing_queries: 2,
                    },
                    LabelRoute {
                        name: "b".into(),
                        transitions: 1,
                        sharing_queries: 1,
                    },
                ],
                delta_trees: 4,
                delta_nodes: 17,
                delta_slots: 20,
                delta_arena_bytes: 640,
                compactions: 2,
                nodes_per_state: vec![(0, 4), (1, 9), (2, 4)],
                depth_hist: vec![4, 9, 4],
                tuples_routed: 55,
                eval_ns: 1_234,
                expiry_ns: 234,
                total_eval_ns: 5_000,
                results_emitted: 6,
                group: 1,
                signature_hash: 0xDEAD_BEEF_F00D_CAFE,
                co_subscribers: vec!["q_twin".into()],
            }),
        ]
    }

    #[test]
    fn every_message_round_trips() {
        for msg in samples() {
            let (kind, payload) = msg.encode();
            let back = Msg::decode(kind, &payload).unwrap_or_else(|e| panic!("{msg:?}: {e}"));
            assert_eq!(back, msg);
        }
    }

    #[test]
    fn stream_io_round_trips() {
        let msgs = samples();
        let mut buf = Vec::new();
        for m in &msgs {
            m.write_to(&mut buf).unwrap();
        }
        let mut cursor = std::io::Cursor::new(buf);
        for expect in &msgs {
            let got = Msg::read_from(&mut cursor).unwrap().unwrap();
            assert_eq!(&got, expect);
        }
        assert!(Msg::read_from(&mut cursor).unwrap().is_none());
    }

    #[test]
    fn frame_corruption_bit_flip_sweep_is_detected() {
        // Mirror the PR 3 wire tests at the protocol boundary: flip
        // every bit of every framed sample message; the frame CRC (or,
        // for flips that stretch the declared length past the buffer,
        // the torn-frame detector) must refuse each one — no mutation
        // may decode as a (different) valid message.
        for msg in samples() {
            let mut framed = Vec::new();
            msg.write_to(&mut framed).unwrap();
            for byte in 0..framed.len() {
                for bit in 0..8 {
                    let mut mutated = framed.clone();
                    mutated[byte] ^= 1 << bit;
                    let mut cursor = std::io::Cursor::new(mutated);
                    match Msg::read_from(&mut cursor) {
                        Err(_) => {}
                        Ok(got) => {
                            panic!("{msg:?}: flip at byte {byte} bit {bit} decoded as {got:?}")
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn frame_corruption_truncation_sweep_is_detected() {
        for msg in samples() {
            let mut framed = Vec::new();
            msg.write_to(&mut framed).unwrap();
            for len in 1..framed.len() {
                let mut cursor = std::io::Cursor::new(framed[..len].to_vec());
                match Msg::read_from(&mut cursor) {
                    Err(e) => assert_eq!(e.kind(), io::ErrorKind::InvalidData),
                    Ok(got) => panic!("{msg:?}: prefix of {len} bytes decoded as {got:?}"),
                }
            }
        }
    }

    #[test]
    fn garbage_payloads_never_panic() {
        // Arbitrary bytes behind a *valid* frame must decode to a clean
        // error (or a structurally valid message), never panic or
        // over-allocate.
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(0xF00D);
        for _ in 0..2000 {
            let kind = rng.gen_range(0..=255u8);
            let len = rng.gen_range(0..64usize);
            let payload: Vec<u8> = (0..len).map(|_| rng.gen_range(0..=255u8)).collect();
            let _ = Msg::decode(kind, &payload);
        }
    }

    #[test]
    fn trailing_bytes_are_refused() {
        let (kind, mut payload) = Msg::Drained { seq: 1 }.encode();
        payload.push(0);
        assert!(Msg::decode(kind, &payload)
            .unwrap_err()
            .to_string()
            .contains("trailing"));
    }
}
