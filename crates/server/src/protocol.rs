//! The message vocabulary of the serving protocol.
//!
//! Every message travels as one [`srpq_common::frame`] frame: the frame
//! kind byte is the message discriminant, the payload is the message
//! body in the same little-endian conventions as the WAL and checkpoint
//! formats ([`srpq_persist::codec`]), and tuple batches reuse the
//! 21-byte stream codec ([`srpq_common::wire`]) verbatim — an ingest
//! payload is bit-identical to a WAL record payload carrying the same
//! batch. Frame-level CRC32 covers kind, length, and payload, so a
//! corrupt message is refused by the frame layer before this module
//! ever parses it (`frame_corruption` tests below pin that).
//!
//! Client-initiated kinds live below 0x80, server responses and pushes
//! at 0x80 and above. See the crate docs for the session-level
//! choreography (which requests are valid when, and what they elicit).

use srpq_common::frame;
use srpq_common::wire;
use srpq_common::StreamTuple;
use srpq_persist::codec::{ByteReader, ByteWriter};
use std::io::{self, Read, Write};

/// Protocol revision spoken by this build. [`Msg::Hello`] carries the
/// client's revision; the server refuses mismatches outright (no
/// negotiation — both binaries come from this repository).
pub const PROTO_VERSION: u16 = 6;

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

    fn to_u8(self) -> u8 {
        match self {
            SubPolicy::Block => 0,
            SubPolicy::DropNewest => 1,
        }
    }

    fn from_u8(v: u8) -> Result<SubPolicy, String> {
        match v {
            0 => Ok(SubPolicy::Block),
            1 => Ok(SubPolicy::DropNewest),
            other => Err(format!("unknown subscription policy {other}")),
        }
    }
}

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
    /// Evaluation threads (1 = the inline schedule on the engine
    /// thread, otherwise the pool size).
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
    /// and the expiry slice thereof. Empty under the inline schedule;
    /// with a pool, the coordinator's inline time rides as one final
    /// synthetic entry, so the entries sum to the per-query `eval_ns`
    /// total (while no query has been deregistered).
    pub worker_ns: Vec<(u64, u64)>,
    /// Live shared-evaluation groups (Δ forests). The gap to
    /// `live_queries` is the consolidation win: queries minus groups
    /// forests never built.
    pub groups_live: u32,
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
        /// Queue bound in result frames (0 = server default).
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

// Frame kinds (one per message).
const K_HELLO: u8 = 0x01;
const K_MAP_LABELS: u8 = 0x02;
const K_INGEST: u8 = 0x03;
const K_ADD_QUERY: u8 = 0x04;
const K_REMOVE_QUERY: u8 = 0x05;
const K_LIST_QUERIES: u8 = 0x06;
const K_SUBSCRIBE: u8 = 0x07;
const K_DRAIN: u8 = 0x08;
const K_CHECKPOINT: u8 = 0x09;
const K_SHUTDOWN: u8 = 0x0A;
const K_STATS: u8 = 0x0B;
const K_METRICS: u8 = 0x0C;
const K_EVENTS: u8 = 0x0D;
const K_TRACE: u8 = 0x0E;
const K_EXPLAIN: u8 = 0x0F;
const K_HELLO_ACK: u8 = 0x81;
const K_LABEL_IDS: u8 = 0x82;
const K_INGEST_ACK: u8 = 0x83;
const K_QUERY_ADDED: u8 = 0x84;
const K_QUERY_REMOVED: u8 = 0x85;
const K_QUERY_LIST: u8 = 0x86;
const K_SUB_ACK: u8 = 0x87;
const K_RESULTS: u8 = 0x88;
const K_DROPPED: u8 = 0x89;
const K_DRAINED: u8 = 0x8A;
const K_CHECKPOINT_DONE: u8 = 0x8B;
const K_SHUTTING_DOWN: u8 = 0x8C;
const K_SERVER_STATS: u8 = 0x8D;
const K_ERROR: u8 = 0x8E;
const K_METRICS_TEXT: u8 = 0x8F;
const K_EVENT_LIST: u8 = 0x90;
const K_TRACE_LIST: u8 = 0x91;
const K_EXPLAIN_REPORT: u8 = 0x92;

fn strings(w: &mut ByteWriter, items: &[String]) {
    w.u32(items.len() as u32);
    for s in items {
        w.str(s);
    }
}

fn read_strings(r: &mut ByteReader) -> Result<Vec<String>, String> {
    let n = r.count(4).map_err(|e| e.to_string())?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(r.str().map_err(|e| e.to_string())?);
    }
    Ok(out)
}

impl Msg {
    /// Encodes this message as `(frame kind, payload)`.
    pub fn encode(&self) -> (u8, Vec<u8>) {
        let mut w = ByteWriter::new();
        let kind = match self {
            Msg::Hello { proto } => {
                w.u32(*proto as u32);
                K_HELLO
            }
            Msg::MapLabels { names } => {
                strings(&mut w, names);
                K_MAP_LABELS
            }
            Msg::Ingest { tuples } => {
                w.bytes(&wire::encode_stream(tuples));
                K_INGEST
            }
            Msg::AddQuery {
                name,
                regex,
                simple,
                backfill,
            } => {
                w.str(name);
                w.str(regex);
                w.u8(*simple as u8);
                w.u8(*backfill as u8);
                K_ADD_QUERY
            }
            Msg::RemoveQuery { name } => {
                w.str(name);
                K_REMOVE_QUERY
            }
            Msg::ListQueries => K_LIST_QUERIES,
            Msg::Subscribe {
                queries,
                policy,
                capacity,
            } => {
                strings(&mut w, queries);
                w.u8(policy.to_u8());
                w.u32(*capacity);
                K_SUBSCRIBE
            }
            Msg::Drain => K_DRAIN,
            Msg::Checkpoint => K_CHECKPOINT,
            Msg::Shutdown => K_SHUTDOWN,
            Msg::Stats => K_STATS,
            Msg::Metrics => K_METRICS,
            Msg::Events { since } => {
                w.u64(*since);
                K_EVENTS
            }
            Msg::Trace => K_TRACE,
            Msg::Explain { name } => {
                w.str(name);
                K_EXPLAIN
            }
            Msg::HelloAck {
                proto,
                seq,
                durable,
            } => {
                w.u32(*proto as u32);
                w.u64(*seq);
                w.u8(*durable as u8);
                K_HELLO_ACK
            }
            Msg::LabelIds { ids } => {
                w.u32(ids.len() as u32);
                for id in ids {
                    w.u32(*id);
                }
                K_LABEL_IDS
            }
            Msg::IngestAck { seq, durable } => {
                w.u64(*seq);
                w.u8(*durable as u8);
                K_INGEST_ACK
            }
            Msg::QueryAdded { id } => {
                w.u32(*id);
                K_QUERY_ADDED
            }
            Msg::QueryRemoved { id } => {
                w.u32(*id);
                K_QUERY_REMOVED
            }
            Msg::QueryList { queries } => {
                w.u32(queries.len() as u32);
                for q in queries {
                    w.u32(q.id);
                    w.str(&q.name);
                    w.str(&q.regex);
                    w.u8(q.simple as u8);
                    w.u64(q.tuples_routed);
                    w.u64(q.results_emitted);
                    w.u64(q.eval_ns);
                    w.u32(q.group);
                }
                K_QUERY_LIST
            }
            Msg::SubAck { matched } => {
                w.u32(*matched);
                K_SUB_ACK
            }
            Msg::Results { entries } => {
                w.u32(entries.len() as u32);
                for e in entries {
                    w.u32(e.query);
                    w.u8(e.invalidated as u8);
                    w.u32(e.src);
                    w.u32(e.dst);
                    w.i64(e.ts);
                }
                K_RESULTS
            }
            Msg::Dropped { count } => {
                w.u64(*count);
                K_DROPPED
            }
            Msg::Drained { seq } => {
                w.u64(*seq);
                K_DRAINED
            }
            Msg::CheckpointDone { seq } => {
                w.u64(*seq);
                K_CHECKPOINT_DONE
            }
            Msg::ShuttingDown => K_SHUTTING_DOWN,
            Msg::ServerStats(s) => {
                w.u64(s.seq);
                w.u32(s.live_queries);
                w.u32(s.slots);
                w.u32(s.subscribers);
                w.u32(s.labels);
                w.u64(s.results_pushed);
                w.u64(s.results_dropped);
                w.u32(s.workers);
                w.u64(s.eval_ns);
                w.u64(s.delta_nodes_live);
                w.u64(s.delta_capacity);
                w.u64(s.compactions);
                w.u32(s.worker_ns.len() as u32);
                for &(eval, expiry) in &s.worker_ns {
                    w.u64(eval);
                    w.u64(expiry);
                }
                w.u32(s.groups_live);
                K_SERVER_STATS
            }
            Msg::Error { msg } => {
                w.str(msg);
                K_ERROR
            }
            Msg::MetricsText { text } => {
                w.str(text);
                K_METRICS_TEXT
            }
            Msg::EventList { events, dropped } => {
                w.u64(*dropped);
                w.u32(events.len() as u32);
                for ev in events {
                    w.u64(ev.seq);
                    w.u64(ev.unix_ms);
                    w.u8(ev.kind);
                    w.str(&ev.detail);
                }
                K_EVENT_LIST
            }
            Msg::TraceList { spans } => {
                w.u32(spans.len() as u32);
                for s in spans {
                    w.u64(s.trace_id);
                    w.u64(s.span_id);
                    w.u64(s.parent);
                    w.str(&s.name);
                    w.u64(s.start_us);
                    w.u64(s.dur_us);
                    w.str(&s.thread);
                    w.str(&s.detail);
                }
                K_TRACE_LIST
            }
            Msg::ExplainReport(x) => {
                w.u32(x.id);
                w.str(&x.name);
                w.str(&x.regex);
                w.u8(x.simple as u8);
                w.u32(x.dfa_states);
                w.u32(x.dfa_start);
                w.u32(x.dfa_accepting.len() as u32);
                for s in &x.dfa_accepting {
                    w.u32(*s);
                }
                w.u32(x.labels.len() as u32);
                for l in &x.labels {
                    w.str(&l.name);
                    w.u32(l.transitions);
                    w.u32(l.sharing_queries);
                }
                w.u64(x.delta_trees);
                w.u64(x.delta_nodes);
                w.u64(x.delta_slots);
                w.u64(x.delta_arena_bytes);
                w.u64(x.compactions);
                w.u32(x.nodes_per_state.len() as u32);
                for &(state, n) in &x.nodes_per_state {
                    w.u32(state);
                    w.u64(n);
                }
                w.u32(x.depth_hist.len() as u32);
                for d in &x.depth_hist {
                    w.u64(*d);
                }
                w.u64(x.tuples_routed);
                w.u64(x.eval_ns);
                w.u64(x.expiry_ns);
                w.u64(x.total_eval_ns);
                w.u64(x.results_emitted);
                w.u32(x.group);
                w.u64(x.signature_hash);
                strings(&mut w, &x.co_subscribers);
                K_EXPLAIN_REPORT
            }
        };
        (kind, w.into_bytes())
    }

    /// Decodes a message from a frame `(kind, payload)`. Errors on
    /// unknown kinds, malformed bodies, and trailing bytes.
    pub fn decode(kind: u8, payload: &[u8]) -> Result<Msg, String> {
        let mut r = ByteReader::new(payload);
        let e = |x: srpq_persist::PersistError| x.to_string();
        let msg = match kind {
            K_HELLO => Msg::Hello {
                proto: r.u32().map_err(e)? as u16,
            },
            K_MAP_LABELS => Msg::MapLabels {
                names: read_strings(&mut r)?,
            },
            K_INGEST => {
                let tuples = wire::decode_stream(payload)
                    .ok_or_else(|| "malformed tuple batch".to_string())?;
                return Ok(Msg::Ingest { tuples });
            }
            K_ADD_QUERY => Msg::AddQuery {
                name: r.str().map_err(e)?,
                regex: r.str().map_err(e)?,
                simple: r.u8().map_err(e)? != 0,
                backfill: r.u8().map_err(e)? != 0,
            },
            K_REMOVE_QUERY => Msg::RemoveQuery {
                name: r.str().map_err(e)?,
            },
            K_LIST_QUERIES => Msg::ListQueries,
            K_SUBSCRIBE => Msg::Subscribe {
                queries: read_strings(&mut r)?,
                policy: SubPolicy::from_u8(r.u8().map_err(e)?)?,
                capacity: r.u32().map_err(e)?,
            },
            K_DRAIN => Msg::Drain,
            K_CHECKPOINT => Msg::Checkpoint,
            K_SHUTDOWN => Msg::Shutdown,
            K_STATS => Msg::Stats,
            K_METRICS => Msg::Metrics,
            K_EVENTS => Msg::Events {
                since: r.u64().map_err(e)?,
            },
            K_TRACE => Msg::Trace,
            K_EXPLAIN => Msg::Explain {
                name: r.str().map_err(e)?,
            },
            K_HELLO_ACK => Msg::HelloAck {
                proto: r.u32().map_err(e)? as u16,
                seq: r.u64().map_err(e)?,
                durable: r.u8().map_err(e)? != 0,
            },
            K_LABEL_IDS => {
                let n = r.count(4).map_err(e)?;
                let mut ids = Vec::with_capacity(n);
                for _ in 0..n {
                    ids.push(r.u32().map_err(e)?);
                }
                Msg::LabelIds { ids }
            }
            K_INGEST_ACK => Msg::IngestAck {
                seq: r.u64().map_err(e)?,
                durable: r.u8().map_err(e)? != 0,
            },
            K_QUERY_ADDED => Msg::QueryAdded {
                id: r.u32().map_err(e)?,
            },
            K_QUERY_REMOVED => Msg::QueryRemoved {
                id: r.u32().map_err(e)?,
            },
            K_QUERY_LIST => {
                let n = r.count(10).map_err(e)?;
                let mut queries = Vec::with_capacity(n);
                for _ in 0..n {
                    queries.push(QueryInfo {
                        id: r.u32().map_err(e)?,
                        name: r.str().map_err(e)?,
                        regex: r.str().map_err(e)?,
                        simple: r.u8().map_err(e)? != 0,
                        tuples_routed: r.u64().map_err(e)?,
                        results_emitted: r.u64().map_err(e)?,
                        eval_ns: r.u64().map_err(e)?,
                        group: r.u32().map_err(e)?,
                    });
                }
                Msg::QueryList { queries }
            }
            K_SUB_ACK => Msg::SubAck {
                matched: r.u32().map_err(e)?,
            },
            K_RESULTS => {
                let n = r.count(21).map_err(e)?;
                let mut entries = Vec::with_capacity(n);
                for _ in 0..n {
                    entries.push(ResultEntry {
                        query: r.u32().map_err(e)?,
                        invalidated: r.u8().map_err(e)? != 0,
                        src: r.u32().map_err(e)?,
                        dst: r.u32().map_err(e)?,
                        ts: r.i64().map_err(e)?,
                    });
                }
                Msg::Results { entries }
            }
            K_DROPPED => Msg::Dropped {
                count: r.u64().map_err(e)?,
            },
            K_DRAINED => Msg::Drained {
                seq: r.u64().map_err(e)?,
            },
            K_CHECKPOINT_DONE => Msg::CheckpointDone {
                seq: r.u64().map_err(e)?,
            },
            K_SHUTTING_DOWN => Msg::ShuttingDown,
            K_SERVER_STATS => {
                let mut s = StatsSnapshot {
                    seq: r.u64().map_err(e)?,
                    live_queries: r.u32().map_err(e)?,
                    slots: r.u32().map_err(e)?,
                    subscribers: r.u32().map_err(e)?,
                    labels: r.u32().map_err(e)?,
                    results_pushed: r.u64().map_err(e)?,
                    results_dropped: r.u64().map_err(e)?,
                    workers: r.u32().map_err(e)?,
                    eval_ns: r.u64().map_err(e)?,
                    delta_nodes_live: r.u64().map_err(e)?,
                    delta_capacity: r.u64().map_err(e)?,
                    compactions: r.u64().map_err(e)?,
                    worker_ns: Vec::new(),
                    groups_live: 0,
                };
                let n = r.count(16).map_err(e)?;
                s.worker_ns.reserve(n);
                for _ in 0..n {
                    s.worker_ns.push((r.u64().map_err(e)?, r.u64().map_err(e)?));
                }
                s.groups_live = r.u32().map_err(e)?;
                Msg::ServerStats(s)
            }
            K_ERROR => Msg::Error {
                msg: r.str().map_err(e)?,
            },
            K_METRICS_TEXT => Msg::MetricsText {
                text: r.str().map_err(e)?,
            },
            K_EVENT_LIST => {
                let dropped = r.u64().map_err(e)?;
                let n = r.count(21).map_err(e)?;
                let mut events = Vec::with_capacity(n);
                for _ in 0..n {
                    events.push(EventWire {
                        seq: r.u64().map_err(e)?,
                        unix_ms: r.u64().map_err(e)?,
                        kind: r.u8().map_err(e)?,
                        detail: r.str().map_err(e)?,
                    });
                }
                Msg::EventList { events, dropped }
            }
            K_TRACE_LIST => {
                let n = r.count(48).map_err(e)?;
                let mut spans = Vec::with_capacity(n);
                for _ in 0..n {
                    spans.push(SpanWire {
                        trace_id: r.u64().map_err(e)?,
                        span_id: r.u64().map_err(e)?,
                        parent: r.u64().map_err(e)?,
                        name: r.str().map_err(e)?,
                        start_us: r.u64().map_err(e)?,
                        dur_us: r.u64().map_err(e)?,
                        thread: r.str().map_err(e)?,
                        detail: r.str().map_err(e)?,
                    });
                }
                Msg::TraceList { spans }
            }
            K_EXPLAIN_REPORT => {
                let mut x = ExplainWire {
                    id: r.u32().map_err(e)?,
                    name: r.str().map_err(e)?,
                    regex: r.str().map_err(e)?,
                    simple: r.u8().map_err(e)? != 0,
                    dfa_states: r.u32().map_err(e)?,
                    dfa_start: r.u32().map_err(e)?,
                    ..ExplainWire::default()
                };
                let n = r.count(4).map_err(e)?;
                x.dfa_accepting.reserve(n);
                for _ in 0..n {
                    x.dfa_accepting.push(r.u32().map_err(e)?);
                }
                let n = r.count(12).map_err(e)?;
                x.labels.reserve(n);
                for _ in 0..n {
                    x.labels.push(LabelRoute {
                        name: r.str().map_err(e)?,
                        transitions: r.u32().map_err(e)?,
                        sharing_queries: r.u32().map_err(e)?,
                    });
                }
                x.delta_trees = r.u64().map_err(e)?;
                x.delta_nodes = r.u64().map_err(e)?;
                x.delta_slots = r.u64().map_err(e)?;
                x.delta_arena_bytes = r.u64().map_err(e)?;
                x.compactions = r.u64().map_err(e)?;
                let n = r.count(12).map_err(e)?;
                x.nodes_per_state.reserve(n);
                for _ in 0..n {
                    x.nodes_per_state
                        .push((r.u32().map_err(e)?, r.u64().map_err(e)?));
                }
                let n = r.count(8).map_err(e)?;
                x.depth_hist.reserve(n);
                for _ in 0..n {
                    x.depth_hist.push(r.u64().map_err(e)?);
                }
                x.tuples_routed = r.u64().map_err(e)?;
                x.eval_ns = r.u64().map_err(e)?;
                x.expiry_ns = r.u64().map_err(e)?;
                x.total_eval_ns = r.u64().map_err(e)?;
                x.results_emitted = r.u64().map_err(e)?;
                x.group = r.u32().map_err(e)?;
                x.signature_hash = r.u64().map_err(e)?;
                x.co_subscribers = read_strings(&mut r)?;
                Msg::ExplainReport(x)
            }
            other => return Err(format!("unknown message kind 0x{other:02x}")),
        };
        if !r.is_exhausted() {
            return Err(format!(
                "message kind 0x{kind:02x} has {} trailing bytes",
                r.remaining()
            ));
        }
        Ok(msg)
    }

    /// Writes this message as one frame (no flush).
    pub fn write_to(&self, w: &mut impl Write) -> io::Result<()> {
        let (kind, payload) = self.encode();
        frame::write_frame(w, kind, &payload)
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
            .contains("trailing"));
    }
}
