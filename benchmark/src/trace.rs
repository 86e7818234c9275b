//! The per-layer trace, taken from outside the program: the generated
//! input is replayed in-process through each layer's public functions
//! with a span around every call. Spans inside the server are a later
//! change.
//!
//! The replay follows the server's pipeline for one ingest frame —
//! frame decode, message decode, (WAL append + sync), one
//! `MultiQueryEngine::process` per tuple, `Results` frames of 256
//! entries encoded to memory, (checkpoint) — under one root span per
//! batch. Two pieces of work happen *inside* a call of another layer
//! and cannot be spanned there: the wire decode inside `Msg::decode`
//! and the window-graph update inside `process`. Each is repeated on
//! its own after the root span closed (`wire::decode_stream` on the
//! payload, a shadow `WindowGraph` fed the same tuples) and recorded
//! as a child of the span that contains it, so self times subtract it
//! from the enclosing layer and give it to its own.

use crate::reference::{apply_churn, entry, new_engine};
use crate::report::Values;
use crate::stats::median;
use crate::workloads::{Frames, Op, Plan};
use srpq_automata::CompiledQuery;
use srpq_common::{frame, wire, Op as TupleOp, ResultPair, StreamTuple, Timestamp};
use srpq_core::multi::{MultiQueryEngine, MultiSink, QueryId};
use srpq_graph::{WindowGraph, WindowPolicy};
use srpq_persist::{checkpoint, DurabilityConfig, Durable, Wal};
use srpq_server::protocol::{Msg, ResultEntry};
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// Result entries per `Results` frame, as the server's fan-out cuts
/// them.
const RESULTS_PER_FRAME: usize = 256;

/// Span names; a span stores the index. The part before the dot is the
/// layer (crate) the span's self time counts for.
pub const NAMES: [&str; 13] = [
    "bench.batch",
    "common.frame_decode",
    "server.msg_decode",
    "common.wire_decode",
    "persist.wal_append",
    "core.route",
    "core.extend",
    "core.slide",
    "graph.insert",
    "graph.purge",
    "server.results_encode",
    "persist.checkpoint",
    "automata.compile",
];

fn name_id(name: &str) -> u8 {
    NAMES
        .iter()
        .position(|&n| n == name)
        .expect("known span name") as u8
}

const NO_PARENT: u32 = u32::MAX;

/// One recorded call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: u8,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one, or [`NO_PARENT`].
    pub parent: u32,
    /// Batch index — the identifier the spans of one request share.
    pub batch: u32,
}

impl Span {
    fn dur(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Keeps spans in memory. Disabled, it reads no clock and records
/// nothing, which is what the overhead figure compares against.
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        if self.enabled {
            self.epoch.elapsed().as_nanos() as u64
        } else {
            0
        }
    }

    /// Opens a span; [`Tracer::close`] ends it.
    fn open(&mut self, name: u8, parent: u32, batch: u32) -> u32 {
        if !self.enabled {
            return NO_PARENT;
        }
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            batch,
        });
        self.spans.len() as u32 - 1
    }

    fn close(&mut self, span: u32) {
        if self.enabled {
            self.spans[span as usize].end_ns = self.now();
        }
    }

    /// Records a finished call that began at `start_ns`.
    fn leaf(&mut self, name: u8, start_ns: u64, parent: u32, batch: u32) -> u32 {
        if !self.enabled {
            return NO_PARENT;
        }
        let end_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            batch,
        });
        self.spans.len() as u32 - 1
    }

    /// Records work of `dur_ns` that `parent` contains but that was
    /// measured on its own: placed at the parent's start and cut to its
    /// length.
    fn contained(&mut self, name: u8, parent: u32, dur_ns: u64) {
        if !self.enabled {
            return;
        }
        let p = self.spans[parent as usize];
        self.spans.push(Span {
            name,
            start_ns: p.start_ns,
            end_ns: p.start_ns + dur_ns.min(p.dur()),
            parent,
            batch: p.batch,
        });
    }
}

/// A span's self time: its duration minus the part its child spans
/// cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur).collect();
    for s in spans {
        if s.parent != NO_PARENT {
            let p = &mut own[s.parent as usize];
            *p = p.saturating_sub(s.dur());
        }
    }
    own
}

/// Collects one batch's events the way the server's fan-out buffers
/// them.
#[derive(Default)]
struct EntrySink(Vec<ResultEntry>);

impl MultiSink for EntrySink {
    fn emit(&mut self, id: QueryId, pair: ResultPair, ts: Timestamp) {
        self.0.push(entry(id, pair, ts, false));
    }

    fn invalidate(&mut self, id: QueryId, pair: ResultPair, ts: Timestamp) {
        self.0.push(entry(id, pair, ts, true));
    }
}

/// The engine, alone or under the durability wrapper whose
/// `checkpoint` the durable workload spans.
enum Host {
    Plain(Box<MultiQueryEngine>),
    Durable(Box<Durable<MultiQueryEngine>>),
}

impl Host {
    fn engine(&mut self) -> &mut MultiQueryEngine {
        match self {
            Host::Plain(e) => e,
            Host::Durable(d) => d.inner_mut(),
        }
    }
}

/// What one replay measured besides its spans.
pub struct Replay {
    pub spans: Vec<Span>,
    /// Wall time of the whole replay loop.
    pub wall_s: f64,
    pub tuples: u64,
    pub routed: u64,
    pub results: u64,
    pub discoveries: u64,
    pub slides: u64,
    pub compiles: u64,
    pub dfa_states: u64,
    pub edges_live: u64,
    pub delta_nodes_live: u64,
    pub delta_capacity: u64,
    pub compactions: u64,
    pub groups_live: u64,
    pub wal_bytes: u64,
    pub fsyncs: u64,
    pub checkpoint_bytes: u64,
}

fn persist_err(e: srpq_persist::PersistError) -> io::Error {
    io::Error::other(e.to_string())
}

/// Replays the warm-up and the first quarter of the measured stream.
/// `scratch` holds the WAL and checkpoints of a durable workload.
pub fn replay(plan: &Plan, frames: &Frames, traced: bool, scratch: &Path) -> io::Result<Replay> {
    let window = WindowPolicy::new(plan.spec.window, plan.spec.slide);
    let names = NAMES.map(name_id);
    let [n_batch, n_frame, n_msg, n_wire, n_wal, n_route, n_extend, n_slide, n_insert, n_purge, n_encode, n_ckpt, n_compile] =
        names;
    let mut tr = Tracer::new(traced);
    let started = Instant::now();

    // Registration: the server compiles each query and takes its
    // signature to find a group.
    let mut labels = plan.labels.clone();
    let (mut compiles, mut dfa_states) = (0, 0);
    let mut routed_label = vec![false; labels.len()];
    let mut compile = |tr: &mut Tracer, regex: &str, labels: &mut srpq_common::LabelInterner| {
        let t = tr.now();
        let q = CompiledQuery::compile(regex, labels).expect("workload regex parses");
        std::hint::black_box(q.signature());
        tr.leaf(n_compile, t, NO_PARENT, 0);
        compiles += 1;
        dfa_states += q.k() as u64;
        q
    };
    for q in &plan.queries {
        let compiled = compile(&mut tr, &q.regex, &mut labels);
        for l in compiled.dfa().alphabet() {
            routed_label[l.index()] = true;
        }
    }
    let (engine, mut labels) = new_engine(plan);
    let (mut host, mut wal) = if plan.spec.durable {
        let cfg = DurabilityConfig::default();
        let durable =
            Durable::create(engine, &scratch.join("trace-ckpt"), cfg).map_err(persist_err)?;
        let (wal, _) =
            Wal::open(&scratch.join("trace-wal"), cfg.segment_bytes).map_err(persist_err)?;
        (Host::Durable(Box::new(durable)), Some(wal))
    } else {
        (Host::Plain(Box::new(engine)), None)
    };
    let checkpoint_every = DurabilityConfig::default().checkpoint_every as i64;

    let measured = plan.batches.len() - plan.warm_end;
    let last_batch = plan.warm_end + measured / 4;
    let ops = (0..plan.warm_end)
        .map(Op::Ingest)
        .chain(plan.ops.iter().copied())
        .take_while(|&op| op != Op::Ingest(last_batch));

    let mut shadow = WindowGraph::new();
    let mut now = Timestamp::NEG_INFINITY;
    let mut last_ckpt_end: Option<Timestamp> = None;
    let mut sink = EntrySink::default();
    let mut out = Vec::new();
    let mut per_tuple: Vec<(u32, StreamTuple, Option<Timestamp>)> = Vec::new();
    let (mut tuples, mut routed, mut results, mut slides) = (0u64, 0u64, 0u64, 0u64);
    for op in ops {
        let b = match op {
            Op::Ingest(b) => b,
            churn => {
                // The server answers a backfilled registration from the
                // engine thread and checkpoints it when durable.
                if matches!(churn, Op::Add(_)) {
                    compile(&mut tr, crate::workloads::CHURN_REGEX, &mut labels);
                }
                apply_churn(host.engine(), &mut labels, churn, &mut sink);
                sink.0.clear();
                if let Host::Durable(d) = &mut host {
                    let t = tr.now();
                    d.checkpoint().map_err(persist_err)?;
                    tr.leaf(n_ckpt, t, NO_PARENT, 0);
                }
                continue;
            }
        };
        let bytes = &frames.bytes[frames.ranges[b].clone()];
        let root = tr.open(n_batch, NO_PARENT, b as u32);

        let t = tr.now();
        let (kind, payload, _) = frame::decode_frame(bytes).expect("own frame decodes");
        tr.leaf(n_frame, t, root, b as u32);

        let t = tr.now();
        let msg = Msg::decode(kind, payload).expect("own message decodes");
        let msg_span = tr.leaf(n_msg, t, root, b as u32);
        let Msg::Ingest { tuples: batch } = msg else {
            unreachable!("frames hold ingest batches")
        };

        if let Some(wal) = &mut wal {
            let t = tr.now();
            wal.append(&batch).map_err(persist_err)?;
            wal.sync().map_err(persist_err)?;
            tr.leaf(n_wal, t, root, b as u32);
        }

        per_tuple.clear();
        for &tuple in &batch {
            let prev = now;
            now = now.max(tuple.ts);
            let crossed = prev != Timestamp::NEG_INFINITY && window.crosses_slide(prev, now);
            // A call that crosses a slide pays expiry and compaction
            // first; one for a label no query speaks only looks the
            // label up in the routing bitmap.
            let is_routed = routed_label[tuple.label.index()];
            let name = match (crossed, is_routed) {
                (true, _) => n_slide,
                (false, true) => n_extend,
                (false, false) => n_route,
            };
            let t = tr.now();
            host.engine().process(tuple, &mut sink);
            let span = tr.leaf(name, t, root, b as u32);
            slides += u64::from(crossed);
            if is_routed {
                routed += 1;
                if traced {
                    per_tuple.push((span, tuple, crossed.then(|| window.lazy_watermark(now))));
                }
            }
        }
        tuples += batch.len() as u64;

        results += sink.0.len() as u64;
        for chunk in sink.0.chunks(RESULTS_PER_FRAME) {
            out.clear();
            let t = tr.now();
            Msg::Results {
                entries: chunk.to_vec(),
            }
            .write_to(&mut out)?;
            tr.leaf(n_encode, t, root, b as u32);
            std::hint::black_box(&out);
        }
        sink.0.clear();

        if let Host::Durable(d) = &mut host {
            // `Durable::after_batch`'s cadence: every N slides.
            let end = window.window_end(now);
            match last_ckpt_end {
                None => last_ckpt_end = Some(end),
                Some(prev) if end >= prev.saturating_add(window.slide * checkpoint_every) => {
                    let t = tr.now();
                    d.checkpoint().map_err(persist_err)?;
                    tr.leaf(n_ckpt, t, root, b as u32);
                    last_ckpt_end = Some(end);
                }
                Some(_) => {}
            }
        }
        tr.close(root);

        if traced {
            let t = Instant::now();
            std::hint::black_box(wire::decode_stream(payload));
            tr.contained(n_wire, msg_span, t.elapsed().as_nanos() as u64);
            for &(span, tuple, purge_to) in &per_tuple {
                if let Some(watermark) = purge_to {
                    let t = Instant::now();
                    shadow.purge_expired(watermark);
                    tr.contained(n_purge, span, t.elapsed().as_nanos() as u64);
                }
                let t = Instant::now();
                match tuple.op {
                    TupleOp::Insert => {
                        shadow.insert(tuple.edge.src, tuple.edge.dst, tuple.label, tuple.ts);
                    }
                    TupleOp::Delete => {
                        shadow.remove(tuple.edge.src, tuple.edge.dst, tuple.label);
                    }
                }
                tr.contained(n_insert, span, t.elapsed().as_nanos() as u64);
            }
        }
    }
    let wall_s = started.elapsed().as_secs_f64();

    let checkpoint_bytes = match &host {
        Host::Durable(d) => checkpoint::load_latest(d.dir())
            .map_err(persist_err)?
            .map_or(0, |(_, payload)| payload.len() as u64),
        Host::Plain(_) => 0,
    };
    let engine = host.engine();
    let (mut discoveries, mut delta_capacity, mut compactions) = (0, 0, 0);
    for g in engine.group_ids() {
        let s = engine.group_engine(g).expect("live group").stats();
        discoveries += s.results_emitted + s.results_invalidated;
        delta_capacity += s.delta_capacity;
        compactions += s.compactions;
    }
    Ok(Replay {
        spans: tr.spans,
        wall_s,
        tuples,
        routed,
        results,
        discoveries,
        slides,
        compiles,
        dfa_states,
        edges_live: shadow.n_edges() as u64,
        delta_nodes_live: engine.total_index_size().nodes as u64,
        delta_capacity,
        compactions,
        groups_live: engine.groups_live() as u64,
        wal_bytes: wal.as_ref().map_or(0, Wal::appended_bytes),
        fsyncs: wal.as_ref().map_or(0, Wal::fsyncs),
        checkpoint_bytes,
    })
}

/// The `trace` per-layer rows: a traced replay gives the numbers, an
/// untraced one the overhead.
pub fn layer_rows(traced: &Replay, plain_wall_s: f64) -> Values {
    let own = self_times(&traced.spans);
    let mut dur_by_name = [0u64; NAMES.len()];
    let mut own_by_name = [0u64; NAMES.len()];
    let mut calls_by_name = [0u64; NAMES.len()];
    let mut root_ns = 0u64;
    for (s, &o) in traced.spans.iter().zip(&own) {
        calls_by_name[s.name as usize] += 1;
        dur_by_name[s.name as usize] += s.dur();
        own_by_name[s.name as usize] += o;
        if s.parent == NO_PARENT {
            root_ns += s.dur();
        }
    }
    let dur = |name: &str| dur_by_name[name_id(name) as usize] as f64;
    let calls = |name: &str| calls_by_name[name_id(name) as usize];
    // A layer's self time over the traced wall (the root spans).
    let share = |layer: &str| {
        let ns: u64 = NAMES
            .iter()
            .zip(own_by_name)
            .filter(|(n, _)| n.split('.').next() == Some(layer))
            .map(|(_, o)| o)
            .sum();
        ns as f64 / root_ns.max(1) as f64
    };
    let own_share = |name: &str| own_by_name[name_id(name) as usize] as f64 / root_ns.max(1) as f64;
    let per = |x: f64, n: u64| x / n.max(1) as f64;
    let checkpoints: Vec<f64> = traced
        .spans
        .iter()
        .filter(|s| s.name == name_id("persist.checkpoint"))
        .map(|s| s.dur() as f64 / 1e9)
        .collect();

    let mut rows = Values::new();
    rows.insert(
        "common.frame_decode_ns_per_tuple",
        per(dur("common.frame_decode"), traced.tuples),
    );
    rows.insert(
        "common.wire_decode_ns_per_tuple",
        per(dur("common.wire_decode"), traced.tuples),
    );
    rows.insert("common.busy_share", share("common"));
    rows.insert(
        "server.msg_decode_ns_per_tuple",
        per(dur("server.msg_decode"), traced.tuples),
    );
    rows.insert(
        "server.results_encode_ns_per_result",
        per(dur("server.results_encode"), traced.results),
    );
    rows.insert("server.busy_share", share("server"));
    rows.insert(
        "automata.compile_us_per_query",
        per(dur("automata.compile") / 1e3, traced.compiles),
    );
    rows.insert(
        "automata.dfa_states",
        per(traced.dfa_states as f64, traced.compiles),
    );
    rows.insert(
        "graph.insert_ns_per_tuple",
        per(dur("graph.insert"), traced.routed),
    );
    rows.insert(
        "graph.purge_ns_per_slide",
        per(dur("graph.purge"), traced.slides),
    );
    rows.insert("graph.edges_live", traced.edges_live as f64);
    rows.insert("graph.busy_share", share("graph"));
    rows.insert(
        "core.route_ns_per_tuple",
        per(dur("core.route"), calls("core.route")),
    );
    rows.insert("core.route_busy_share", own_share("core.route"));
    rows.insert(
        "core.extend_ns_per_tuple",
        per(dur("core.extend"), calls("core.extend")),
    );
    rows.insert("core.extend_busy_share", own_share("core.extend"));
    rows.insert(
        "core.slide_ns_per_slide",
        per(dur("core.slide"), traced.slides),
    );
    rows.insert("core.slide_busy_share", own_share("core.slide"));
    rows.insert("core.slides", traced.slides as f64);
    rows.insert("core.delta_nodes_live", traced.delta_nodes_live as f64);
    rows.insert("core.delta_capacity", traced.delta_capacity as f64);
    rows.insert("core.compactions", traced.compactions as f64);
    rows.insert(
        "core.results_per_tuple",
        per(traced.results as f64, traced.tuples),
    );
    rows.insert(
        "core.routed_share",
        per(traced.routed as f64, traced.tuples),
    );
    rows.insert("core.groups_live", traced.groups_live as f64);
    rows.insert(
        "core.tags_per_result",
        per(traced.results as f64, traced.discoveries),
    );
    rows.insert(
        "persist.wal_append_ns_per_tuple",
        per(dur("persist.wal_append"), traced.tuples),
    );
    rows.insert(
        "persist.wal_bytes_per_tuple",
        per(traced.wal_bytes as f64, traced.tuples),
    );
    rows.insert("persist.fsyncs", traced.fsyncs as f64);
    rows.insert("persist.busy_share", share("persist"));
    rows.insert("persist.checkpoint_s", median(&checkpoints));
    rows.insert("persist.checkpoint_bytes", traced.checkpoint_bytes as f64);
    rows.insert(
        "trace.overhead_pct",
        (root_ns as f64 / 1e9 / plain_wall_s - 1.0) * 100.0,
    );
    rows
}

/// Writes the spans as JSON: the name table, then one
/// `[name, start_ns, end_ns, parent, batch]` row per span (`parent` −1
/// for a root).
pub fn write_spans(path: &Path, workload: &str, seed: u64, spans: &[Span]) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = BufWriter::new(std::fs::File::create(path)?);
    let names: Vec<String> = NAMES.iter().map(|n| format!("\"{n}\"")).collect();
    writeln!(
        w,
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"names\": [{}], \"spans\": [",
        names.join(", ")
    )?;
    for (i, s) in spans.iter().enumerate() {
        let parent = if s.parent == NO_PARENT {
            -1
        } else {
            i64::from(s.parent)
        };
        let comma = if i + 1 == spans.len() { "" } else { "," };
        writeln!(
            w,
            "[{},{},{},{parent},{}]{comma}",
            s.name, s.start_ns, s.end_ns, s.batch
        )?;
    }
    writeln!(w, "]}}")?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name: 0,
            start_ns,
            end_ns,
            parent,
            batch: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children_only() {
        let spans = [
            span(0, 100, NO_PARENT), // root: 100 − (30 + 50) = 20
            span(10, 40, 0),         // 30 − 10 = 20
            span(15, 25, 1),         // grandchild: 10, not taken from the root
            span(40, 90, 0),         // 50
            span(200, 260, NO_PARENT),
        ];
        assert_eq!(self_times(&spans), vec![20, 20, 10, 50, 60]);
    }

    #[test]
    fn self_time_never_goes_negative() {
        // A contained span is cut to its parent, but clocks can still
        // make children sum past it.
        let spans = [span(0, 10, NO_PARENT), span(0, 8, 0), span(0, 8, 0)];
        assert_eq!(self_times(&spans)[0], 0);
    }

    #[test]
    fn contained_span_is_cut_to_its_parent() {
        let mut tr = Tracer::new(true);
        tr.spans.push(span(100, 150, NO_PARENT));
        tr.contained(3, 0, 70);
        tr.contained(3, 0, 20);
        assert_eq!((tr.spans[1].start_ns, tr.spans[1].end_ns), (100, 150));
        assert_eq!((tr.spans[2].start_ns, tr.spans[2].end_ns), (100, 120));
        assert_eq!(tr.spans[2].parent, 0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        let root = tr.open(0, NO_PARENT, 1);
        tr.leaf(1, tr.now(), root, 1);
        tr.close(root);
        assert!(tr.spans.is_empty());
    }

    #[test]
    fn span_names_have_a_layer_prefix() {
        for n in NAMES {
            let (layer, call) = n.split_once('.').expect("layer.call");
            assert!(!layer.is_empty() && !call.is_empty());
        }
    }
}
