//! The engine thread: sole owner of the evaluation state.
//!
//! All sessions funnel their work through one bounded command channel
//! into this thread — the serialization point that defines the global
//! stream order (command arrival order) and makes the server's output
//! reproducible by an offline run performing the same operations in the
//! same order. The channel bound is the ingest pipeline depth: decode
//! happens in session threads (sharded per connection), evaluation
//! here; when evaluation falls behind, session threads block on the
//! full channel, which backpressures their clients through TCP.

use crate::labels;
use crate::protocol::{EventWire, ExplainWire, LabelRoute, Msg, QueryInfo, StatsSnapshot};
use crate::subscriber::{BatchStamp, FanoutSink, Push, Subscriber};
use srpq_automata::CompiledQuery;
use srpq_common::beacon::stage;
use srpq_common::{FxHashSet, LabelInterner, StageBeacon, StreamTuple, Timestamp};
use srpq_core::engine::PathSemantics;
use srpq_core::multi::{MultiQueryEngine, QueryId};
use srpq_core::StageTotals;
use srpq_obs::{Counter, EventKind, Gauge, Histogram, Obs};
use srpq_persist::Host;
use std::collections::HashMap;
use std::sync::atomic::AtomicU64;
use std::sync::mpsc::{Receiver, Sender, SyncSender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long a `Drain` waits for each subscriber's flush ack before
/// giving up on it (a subscriber stuck on a dead socket must not wedge
/// the control plane forever).
const DRAIN_ACK_TIMEOUT: Duration = Duration::from_secs(3);

/// Per-worker `(eval_ns, expiry_ns)` ledgers with the coordinator's
/// own evaluation time as one final synthetic entry; empty without
/// workers (the whole ledger is then `stage_totals`).
fn worker_ledger(engine: &MultiQueryEngine) -> impl Iterator<Item = (u64, u64)> + '_ {
    let pooled = engine.n_workers() > 0;
    let workers = if pooled { engine.worker_totals() } else { &[] };
    workers
        .iter()
        .copied()
        .chain(pooled.then(|| engine.coord_totals()))
}

/// One request to the engine thread: the client's own [`Msg`] plus what
/// the session adds to it. The engine always answers with exactly one
/// [`Msg`] on `reply`.
pub(crate) struct Cmd {
    pub(crate) msg: Msg,
    pub(crate) reply: Sender<Msg>,
    /// An ingest batch's marks (e2e latency timestamp, causal trace when
    /// sampled); they ride every result frame it produces.
    pub(crate) stamp: Option<BatchStamp>,
    /// A `Subscribe`'s push channel, and the drop-tally counter shared
    /// with the session thread, which sweeps it into a final `Dropped`
    /// when the queue closes.
    pub(crate) push: Option<(SyncSender<Push>, Arc<AtomicU64>)>,
}

/// Handles into the always-hot metric families, registered once at
/// construction so the per-batch path never takes the registry lock.
struct CoreMetrics {
    hist_route: Histogram,
    hist_extend: Histogram,
    hist_expiry: Histogram,
    hist_emit: Histogram,
    ingest_tuples: Counter,
    ingest_batches: Counter,
    results_delivered: Counter,
    results_dropped: Counter,
    gauge_subscribers: Gauge,
    gauge_live_queries: Gauge,
    gauge_live_groups: Gauge,
    gauge_graph_bytes: Gauge,
}

impl CoreMetrics {
    fn new(obs: &Obs) -> CoreMetrics {
        let r = obs.registry();
        CoreMetrics {
            hist_route: r.histogram("srpq_stage_route_ns", &[]),
            hist_extend: r.histogram("srpq_stage_extend_ns", &[]),
            hist_expiry: r.histogram("srpq_stage_expiry_ns", &[]),
            hist_emit: r.histogram("srpq_stage_emit_ns", &[]),
            ingest_tuples: r.counter("srpq_ingest_tuples_total", &[]),
            ingest_batches: r.counter("srpq_ingest_batches_total", &[]),
            results_delivered: r.counter("srpq_results_delivered_total", &[]),
            results_dropped: r.counter("srpq_results_dropped_total", &[]),
            gauge_subscribers: r.gauge("srpq_subscribers", &[]),
            gauge_live_queries: r.gauge("srpq_live_queries", &[]),
            gauge_live_groups: r.gauge("srpq_live_groups", &[]),
            gauge_graph_bytes: r.gauge("srpq_graph_heap_bytes", &[]),
        }
    }
}

/// Cached per-query gauge handles.
struct QueryGauges {
    delta_nodes: Gauge,
    result_bytes: Gauge,
    reverse_index_bytes: Gauge,
    delta_capacity: Gauge,
    compactions: Gauge,
    routed: Gauge,
    eval_ns: Gauge,
    results: Gauge,
}

impl QueryGauges {
    fn new(obs: &Obs, name: &str) -> QueryGauges {
        let r = obs.registry();
        let l: &[(&str, &str)] = &[("query", name)];
        QueryGauges {
            delta_nodes: r.gauge("srpq_query_delta_nodes", l),
            result_bytes: r.gauge("srpq_query_result_bytes", l),
            reverse_index_bytes: r.gauge("srpq_query_reverse_index_bytes", l),
            delta_capacity: r.gauge("srpq_query_delta_capacity", l),
            compactions: r.gauge("srpq_query_compactions_total", l),
            routed: r.gauge("srpq_query_routed_total", l),
            eval_ns: r.gauge("srpq_query_eval_ns_total", l),
            results: r.gauge("srpq_query_results_total", l),
        }
    }
}

pub(crate) struct EngineCore {
    host: Host,
    labels: LabelInterner,
    subscribers: Vec<Subscriber>,
    /// Tuples accepted (equals the WAL sequence for durable hosts).
    seq: u64,
    obs: Obs,
    metrics: CoreMetrics,
    /// Per-query gauge handles, keyed by slot id.
    query_gauges: HashMap<u32, QueryGauges>,
    /// Worker-ledger gauges, grown lazily to the ledger length.
    worker_gauges: Vec<(Gauge, Gauge)>,
    /// Stage counters at the last batch (per-batch delta source).
    last_stage: StageTotals,
    /// The coordinator's stage beacon, shared with the engine's batch
    /// path and sampled by the profiler as thread `srpq-engine`.
    beacon: Arc<StageBeacon>,
}

impl EngineCore {
    pub(crate) fn new(host: Host, labels: LabelInterner, seq: u64, obs: Obs) -> EngineCore {
        let metrics = CoreMetrics::new(&obs);
        let mut core = EngineCore {
            host,
            labels,
            subscribers: Vec::new(),
            seq,
            obs,
            metrics,
            query_gauges: HashMap::new(),
            worker_gauges: Vec::new(),
            last_stage: StageTotals::default(),
            beacon: Arc::new(StageBeacon::new()),
        };
        // Recovered hosts come up with live queries and non-zero stage
        // ledgers; seed the gauges so the first batch reports deltas,
        // not lifetime totals (the host seeds its journal watermarks).
        core.last_stage = core.host.engine().stage_totals();
        core.refresh_gauges();
        // Hand the batch path its beacon and register every evaluation
        // thread with the profiler (the coordinator, plus one beacon
        // per pool worker).
        core.host.engine_mut().set_beacon(core.beacon.clone());
        core.obs
            .profiler()
            .register("srpq-engine", core.beacon.clone());
        for (i, b) in core.host.engine().worker_beacons().iter().enumerate() {
            core.obs
                .profiler()
                .register(format!("srpq-multi-worker-{i}"), b.clone());
        }
        core
    }

    /// Publishes the pull-model gauges: per-query Δ/occupancy/time,
    /// worker ledgers, subscriber and query counts. Runs after every
    /// ingest batch and on query add/remove — `/metrics` scrapes read
    /// the last published state without touching the engine thread.
    fn refresh_gauges(&mut self) {
        let host = &self.host;
        let engine = host.engine();
        for (id, name) in engine.queries() {
            let Some(group) = engine.engine(id) else {
                continue;
            };
            let stats = *group.stats();
            let g = self
                .query_gauges
                .entry(id.0)
                .or_insert_with(|| QueryGauges::new(&self.obs, name));
            g.delta_nodes.set(stats.delta_nodes_live);
            g.result_bytes.set(group.result_bytes() as u64);
            g.reverse_index_bytes
                .set(group.reverse_index_bytes() as u64);
            g.delta_capacity.set(stats.delta_capacity);
            g.compactions.set(stats.compactions);
            g.routed.set(stats.tuples_routed);
            g.eval_ns.set(stats.eval_ns);
            g.results.set(stats.results_emitted);
        }
        let entries = worker_ledger(engine).count();
        for (i, (eval, expiry)) in worker_ledger(engine).enumerate() {
            if self.worker_gauges.len() <= i {
                // The final ledger entry is the coordinator's own time.
                let label = if i + 1 == entries {
                    "coord".to_string()
                } else {
                    i.to_string()
                };
                let l: &[(&str, &str)] = &[("worker", &label)];
                self.worker_gauges.push((
                    self.obs.registry().gauge("srpq_worker_eval_ns_total", l),
                    self.obs.registry().gauge("srpq_worker_expiry_ns_total", l),
                ));
            }
            self.worker_gauges[i].0.set(eval);
            self.worker_gauges[i].1.set(expiry);
        }
        self.metrics
            .gauge_live_queries
            .set(engine.n_queries() as u64);
        self.metrics
            .gauge_live_groups
            .set(engine.groups_live() as u64);
        self.metrics
            .gauge_graph_bytes
            .set(engine.graph().heap_bytes() as u64);
        self.metrics
            .gauge_subscribers
            .set(self.subscribers.len() as u64);
    }

    /// Journals slide boundaries and compactions detected since the
    /// last batch, and records the per-batch stage histograms.
    fn observe_batch(&mut self, emit_ns: u64) {
        let stage = self.host.engine().stage_totals();
        if stage.batches > self.last_stage.batches {
            let route = stage.route_ns.saturating_sub(self.last_stage.route_ns);
            let eval = stage.eval_ns.saturating_sub(self.last_stage.eval_ns);
            let expiry = stage.expiry_ns.saturating_sub(self.last_stage.expiry_ns);
            self.metrics.hist_route.record(route);
            self.metrics.hist_extend.record(eval.saturating_sub(expiry));
            self.metrics.hist_expiry.record(expiry);
            self.metrics.hist_emit.record(emit_ns);
        }
        self.last_stage = stage;
        self.host
            .observe(self.obs.journal(), format_args!("seq={}", self.seq));
    }

    /// Serves commands until `Shutdown` (graceful: earlier commands in
    /// the channel have already been handled — the pipeline is drained
    /// by construction — then durable state is checkpointed and the
    /// subscriber queues are closed) or until every sender is gone.
    pub(crate) fn run(mut self, rx: Receiver<Cmd>) {
        while let Ok(cmd) = rx.recv() {
            if matches!(cmd.msg, Msg::Shutdown) {
                if let Some(Err(e)) = self.host.checkpoint() {
                    eprintln!("srpq-server: shutdown checkpoint failed: {e}");
                }
                // Closing the queues ends every subscriber session; the
                // sessions drain what's buffered, sweep the shared
                // drop-tally counters into one final `Dropped`, and
                // write `ShuttingDown` to their clients — the
                // accounting guarantee ("delivered or tallied, never
                // silently lost") holds through shutdown.
                self.subscribers.clear();
                let _ = cmd.reply.send(Msg::ShuttingDown);
                return;
            }
            let reply = self.handle(cmd.msg, cmd.stamp, cmd.push);
            let _ = cmd.reply.send(reply);
        }
    }

    /// Answers one request. `Shutdown` ends [`Self::run`] before it gets
    /// here, `Trace` and mismatched `Hello`s are answered by the session
    /// without a trip through this thread; server-to-client kinds are
    /// not requests.
    fn handle(
        &mut self,
        msg: Msg,
        stamp: Option<BatchStamp>,
        push: Option<(SyncSender<Push>, Arc<AtomicU64>)>,
    ) -> Msg {
        match msg {
            Msg::Hello { .. } => Msg::HelloAck {
                proto: crate::protocol::PROTO_VERSION,
                seq: self.seq,
                durable: self.host.durable().is_some(),
            },
            Msg::MapLabels { names } => {
                let before = self.labels.len();
                let ids: Vec<u32> = names.iter().map(|n| self.labels.intern(n).0).collect();
                match self.persist_labels_if_grown(before) {
                    Ok(()) => Msg::LabelIds { ids },
                    Err(e) => Msg::Error { msg: e },
                }
            }
            Msg::Ingest { tuples } => self.ingest(tuples, stamp),
            Msg::AddQuery {
                name,
                regex,
                simple,
                backfill,
            } => self.add_query(name, regex, simple, backfill),
            Msg::RemoveQuery { name } => self.remove_query(name),
            Msg::ListQueries => {
                let engine = self.host.engine();
                let queries = engine
                    .query_ids()
                    .into_iter()
                    .map(|id| {
                        let e = engine.engine(id).expect("live id");
                        let stats = e.stats();
                        QueryInfo {
                            id: id.0,
                            name: engine.name(id).unwrap_or("").to_string(),
                            regex: e.query().regex().to_string(),
                            simple: e.semantics() == PathSemantics::Simple,
                            tuples_routed: stats.tuples_routed,
                            results_emitted: stats.results_emitted,
                            eval_ns: stats.eval_ns,
                            group: engine.group_of(id).expect("live id"),
                        }
                    })
                    .collect();
                Msg::QueryList { queries }
            }
            Msg::Subscribe {
                queries, policy, ..
            } => {
                let Some((tx, pending)) = push else {
                    return Msg::Error {
                        msg: "subscribe request arrived without its push channel".into(),
                    };
                };
                let engine = self.host.engine();
                let all = queries.is_empty();
                let mut resolved = FxHashSet::default();
                for name in &queries {
                    if let Some(id) = engine.query_id(name) {
                        resolved.insert(id.0);
                    }
                }
                let matched = if all {
                    engine.n_queries() as u32
                } else {
                    resolved.len() as u32
                };
                self.obs.journal().record(
                    EventKind::SubscriberConnect,
                    format!(
                        "queries={} matched={matched}",
                        if all { "*".into() } else { queries.join(",") }
                    ),
                );
                self.subscribers
                    .push(Subscriber::new(queries, resolved, tx, policy, pending));
                self.metrics
                    .gauge_subscribers
                    .set(self.subscribers.len() as u64);
                Msg::SubAck { matched }
            }
            Msg::Drain => {
                self.drain();
                Msg::Drained { seq: self.seq }
            }
            Msg::Checkpoint => match self.host.checkpoint() {
                None => Msg::Error {
                    msg: "server runs without --wal-dir; nothing to checkpoint".into(),
                },
                Some(Ok(seq)) => Msg::CheckpointDone { seq },
                Some(Err(e)) => Msg::Error { msg: e.to_string() },
            },
            Msg::Stats => {
                let engine = self.host.engine();
                let (mut eval_ns, mut delta_nodes_live, mut delta_capacity, mut compactions) =
                    (0u64, 0u64, 0u64, 0u64);
                // Sum over groups, not query ids: a shared Δ forest
                // counts once however many subscribers ride it.
                for s in engine.group_engines().map(|e| e.stats()) {
                    eval_ns += s.eval_ns;
                    delta_nodes_live += s.delta_nodes_live;
                    delta_capacity += s.delta_capacity;
                    compactions += s.compactions;
                }
                Msg::ServerStats(StatsSnapshot {
                    seq: self.seq,
                    live_queries: engine.n_queries() as u32,
                    slots: engine.n_slots() as u32,
                    subscribers: self.subscribers.len() as u32,
                    labels: self.labels.len() as u32,
                    results_pushed: self.metrics.results_delivered.get(),
                    results_dropped: self.metrics.results_dropped.get(),
                    // Without workers this thread evaluates: one worker.
                    workers: engine.n_workers().max(1) as u32,
                    eval_ns,
                    delta_nodes_live,
                    delta_capacity,
                    compactions,
                    worker_ns: worker_ledger(engine).collect(),
                    groups_live: engine.groups_live() as u32,
                })
            }
            Msg::Metrics => {
                self.refresh_gauges();
                Msg::MetricsText {
                    text: self.obs.render_prometheus(),
                }
            }
            Msg::Events { since } => {
                let (events, dropped) = self.obs.journal().since_with_dropped(since);
                let events = events
                    .into_iter()
                    .map(|e| EventWire {
                        seq: e.seq,
                        unix_ms: e.unix_ms,
                        kind: e.kind.as_u8(),
                        detail: e.detail,
                    })
                    .collect();
                Msg::EventList { events, dropped }
            }
            Msg::Explain { name } => self.explain(&name),
            other => Msg::Error {
                msg: format!("unexpected message {other:?} on a request session"),
            },
        }
    }

    fn ingest(&mut self, tuples: Vec<StreamTuple>, stamp: Option<BatchStamp>) -> Msg {
        if tuples.is_empty() {
            return Msg::IngestAck {
                seq: self.seq,
                durable: self.host.durable().is_some(),
            };
        }
        // Validate before anything touches the WAL or the engine: a
        // refused batch leaves no trace and no sequence numbers behind.
        let n_labels = self.labels.len() as u32;
        for (i, t) in tuples.iter().enumerate() {
            if t.ts < Timestamp::ZERO {
                return Msg::Error {
                    msg: format!("tuple {i} carries negative timestamp {}", t.ts),
                };
            }
            if t.label.0 >= n_labels {
                return Msg::Error {
                    msg: format!(
                        "tuple {i} carries unmapped label id {} (server knows {n_labels}); \
                         map labels before ingesting",
                        t.label.0
                    ),
                };
            }
        }
        let dropped_before = self.metrics.results_dropped.get();
        // Pre-batch snapshot for sampled batches: stage totals and
        // per-group counters, diffed after the batch to attribute its
        // evaluation time to causal-trace spans. Groups, not query
        // ids — a shared forest evaluates once per tuple, so its span
        // must appear once, labeled by its first subscriber (plus a
        // `+N` tally when others ride the same forest).
        let trace = stamp.and_then(|s| s.trace);
        let pre = trace.map(|_| {
            let engine = self.host.engine();
            let groups: Vec<(u32, String, u64, u64, u64)> = engine
                .group_ids()
                .into_iter()
                .filter_map(|g| {
                    let s = engine.group_engine(g)?.stats();
                    let subs = engine.group_subscribers(g)?;
                    let mut label = subs
                        .first()
                        .and_then(|&slot| engine.name(QueryId(slot)))
                        .unwrap_or("?")
                        .to_string();
                    if subs.len() > 1 {
                        label.push_str(&format!("+{}", subs.len() - 1));
                    }
                    Some((g, label, s.tuples_routed, s.eval_ns, s.expiry_nanos))
                })
                .collect();
            (engine.stage_totals(), groups)
        });
        if self.host.durable().is_some() {
            // The WAL append runs on this thread before the engine's
            // batch path takes over the beacon.
            self.beacon.set(stage::WAL);
        }
        let t_b0 = Instant::now();
        let mut sink = FanoutSink {
            subscribers: &mut self.subscribers,
            pushed: &self.metrics.results_delivered,
            dropped: &self.metrics.results_dropped,
            stamp,
        };
        if let Err(e) = self.host.process_batch(&tuples, &mut sink) {
            self.beacon.set(stage::IDLE);
            // The WAL refused (e.g. disk trouble): the engine saw
            // nothing, so the session can report and carry on.
            return Msg::Error { msg: e.to_string() };
        }
        let t_b1 = Instant::now();
        // The emit stage is the end-of-batch hand-off of staged frames
        // to the subscriber queues — where the Block policy can stall
        // and the Drop policy sheds. (Per-entry staging during
        // evaluation is attributed to the extend stage.)
        let t_emit = Instant::now();
        self.beacon.set(stage::EMIT);
        sink.finish();
        self.beacon.set(stage::IDLE);
        self.beacon.advance();
        let emit_ns = t_emit.elapsed().as_nanos() as u64;
        if let (Some((trace_id, root)), Some((stage_pre, groups_pre))) = (trace, pre) {
            self.record_batch_spans(
                trace_id,
                root,
                (t_b0, t_b1, t_emit, emit_ns),
                stage_pre,
                &groups_pre,
            );
        }
        self.seq += tuples.len() as u64;
        self.metrics.ingest_tuples.add(tuples.len() as u64);
        self.metrics.ingest_batches.inc();
        let dropped = self.metrics.results_dropped.get() - dropped_before;
        if dropped > 0 {
            self.obs.journal().record(
                EventKind::BackpressureDrop,
                format!("seq={} dropped+={dropped}", self.seq),
            );
        }
        self.observe_batch(emit_ns);
        self.refresh_gauges();
        Msg::IngestAck {
            seq: self.seq,
            durable: self.host.durable().is_some(),
        }
    }

    fn add_query(&mut self, name: String, regex: String, simple: bool, backfill: bool) -> Msg {
        let before = self.labels.len();
        let query = match CompiledQuery::compile(&regex, &mut self.labels) {
            Ok(q) => q,
            Err(e) => {
                return Msg::Error {
                    msg: format!("query {regex:?}: {e}"),
                }
            }
        };
        // The label table must be durable before the registration that
        // references it can be checkpointed.
        if let Err(e) = self.persist_labels_if_grown(before) {
            return Msg::Error { msg: e };
        }
        let semantics = if simple {
            PathSemantics::Simple
        } else {
            PathSemantics::Arbitrary
        };
        let engine = self.host.engine_mut();
        // A subscriber that declared this name must see every result,
        // backfill included, so resolve name filters *before*
        // registering. The id is the next slot index by construction.
        let id_next = engine.n_slots() as u32;
        for sub in self.subscribers.iter_mut() {
            if sub.names.iter().any(|n| n == &name) {
                sub.queries.insert(id_next);
            }
        }
        let registered = if backfill {
            let mut sink = FanoutSink {
                subscribers: &mut self.subscribers,
                pushed: &self.metrics.results_delivered,
                dropped: &self.metrics.results_dropped,
                stamp: None,
            };
            let r = engine.register_backfilled(&name, query, semantics, &mut sink);
            sink.finish();
            r
        } else {
            engine.register(&name, query, semantics)
        };
        let id = match registered {
            Ok(id) => id,
            Err(e) => {
                // Nothing was registered (duplicate name), so the
                // predicted slot id must not linger in any filter — a
                // later unrelated query would take that id and leak its
                // results to these subscribers.
                for sub in self.subscribers.iter_mut() {
                    sub.queries.remove(&id_next);
                }
                return Msg::Error { msg: e.to_string() };
            }
        };
        // Registration becomes durable with the state it applies to.
        if let Some(Err(e)) = self.host.checkpoint() {
            return Msg::Error {
                msg: format!("query registered but checkpoint failed: {e}"),
            };
        }
        self.obs.journal().record(
            EventKind::QueryAdd,
            format!("name={name} id={} regex={regex} backfill={backfill}", id.0),
        );
        self.refresh_gauges();
        Msg::QueryAdded { id: id.0 }
    }

    fn remove_query(&mut self, name: String) -> Msg {
        let Some(id) = self.host.engine().query_id(&name) else {
            return Msg::Error {
                msg: format!("no live query named {name:?}"),
            };
        };
        if let Err(e) = self.host.deregister(id) {
            return Msg::Error { msg: e.to_string() };
        }
        for sub in &mut self.subscribers {
            sub.queries.remove(&id.0);
        }
        if let Some(Err(e)) = self.host.checkpoint() {
            return Msg::Error {
                msg: format!("query removed but checkpoint failed: {e}"),
            };
        }
        self.obs
            .journal()
            .record(EventKind::QueryRemove, format!("name={name} id={}", id.0));
        // Stop exporting the removed query's series; a re-registration
        // under the same name starts fresh.
        self.query_gauges.remove(&id.0);
        self.obs.registry().remove_labeled("query", &name);
        self.refresh_gauges();
        Msg::QueryRemoved { id: id.0 }
    }

    /// The `Drain` fence: every subscriber flushes its queue and socket
    /// before this returns (subscribers that cannot ack within the
    /// timeout are skipped — they are stalled or gone, and the fence
    /// must not wedge the control plane).
    fn drain(&mut self) {
        let mut acks = Vec::new();
        for sub in &mut self.subscribers {
            if let Some(rx) = sub.send_fence(DRAIN_ACK_TIMEOUT) {
                acks.push(rx);
            }
        }
        for rx in acks {
            let _ = rx.recv_timeout(DRAIN_ACK_TIMEOUT);
        }
        self.subscribers.retain(|s| !s.dead);
    }

    /// Synthesizes the engine-side child spans of a sampled batch from
    /// the same monotone counters the stage histograms diff: WAL (batch
    /// wall time not accounted to routing or evaluation; durable hosts
    /// only), routing, one `extend:<group>` span per routed evaluation
    /// group (labeled by its first subscriber, `+N` when shared), the
    /// pooled expiry slice, and the emit hand-off. Stage slices are
    /// laid out sequentially from the batch start — exact without
    /// workers; for the worker pool they are CPU-time
    /// attribution and may overrun the batch's wall clock.
    fn record_batch_spans(
        &self,
        trace_id: u64,
        root: u64,
        timing: (Instant, Instant, Instant, u64),
        stage_pre: StageTotals,
        groups_pre: &[(u32, String, u64, u64, u64)],
    ) {
        const THREAD: &str = "srpq-engine";
        let (t_b0, t_b1, t_emit, emit_ns) = timing;
        let tb = self.obs.trace();
        let engine = self.host.engine();
        let stage_now = engine.stage_totals();
        let route_ns = stage_now.route_ns.saturating_sub(stage_pre.route_ns);
        let eval_ns = stage_now.eval_ns.saturating_sub(stage_pre.eval_ns);
        let batch_ns = t_b1.duration_since(t_b0).as_nanos() as u64;
        let mut cur = t_b0;
        if self.host.durable().is_some() {
            let wal_ns = batch_ns.saturating_sub(route_ns + eval_ns);
            let end = cur + Duration::from_nanos(wal_ns);
            tb.record(trace_id, root, "wal", cur, end, THREAD, "");
            cur = end;
        }
        let end = cur + Duration::from_nanos(route_ns);
        tb.record(trace_id, root, "route", cur, end, THREAD, "");
        cur = end;
        let mut expiry_total = 0u64;
        for (g, label, routed0, eval0, expiry0) in groups_pre {
            let Some(s) = engine.group_engine(*g).map(|e| e.stats()) else {
                continue;
            };
            let expiry_g = s.expiry_nanos.saturating_sub(*expiry0);
            expiry_total += expiry_g;
            let routed = s.tuples_routed.saturating_sub(*routed0);
            if routed == 0 {
                continue;
            }
            let extend_ns = s.eval_ns.saturating_sub(*eval0).saturating_sub(expiry_g);
            let end = cur + Duration::from_nanos(extend_ns);
            tb.record(
                trace_id,
                root,
                format!("extend:{label}"),
                cur,
                end,
                THREAD,
                format!("tuples={routed}"),
            );
            cur = end;
        }
        if expiry_total > 0 {
            let end = cur + Duration::from_nanos(expiry_total);
            tb.record(trace_id, root, "expiry", cur, end, THREAD, "");
        }
        let emit_end = t_emit + Duration::from_nanos(emit_ns);
        tb.record(trace_id, root, "emit", t_emit, emit_end, THREAD, "");
        // Keep the root open at least through the engine's hand-off;
        // a covering subscriber flush widens it to actual delivery.
        tb.root_candidate(trace_id, root, t_b0, emit_end, THREAD, "handed-off");
    }

    /// The `ctl explain` report: minimized-DFA shape, Δ-forest profile
    /// (an O(|Δ|) walk — never on the tuple path), routing fan-in,
    /// this query's shared-evaluation group (signature hash and
    /// co-subscribers riding the same Δ forest), and the group's share
    /// of evaluation time.
    fn explain(&self, name: &str) -> Msg {
        let engine = self.host.engine();
        let Some(id) = engine.query_id(name) else {
            return Msg::Error {
                msg: format!("no live query named {name:?}"),
            };
        };
        let e = engine.engine(id).expect("live id");
        let stats = *e.stats();
        let dfa = e.query().dfa();
        let profile = e.delta_profile();
        let gids = engine.group_ids();
        let labels = dfa
            .alphabet()
            .iter()
            .map(|&label| {
                // Fan-in counts evaluation *groups*: that is how many
                // shared forests a matching tuple is handed to.
                let sharing = gids
                    .iter()
                    .filter(|&&og| {
                        engine
                            .group_engine(og)
                            .is_some_and(|oe| oe.query().dfa().knows_label(label))
                    })
                    .count() as u32;
                LabelRoute {
                    name: self.labels.resolve(label).unwrap_or("?").to_string(),
                    transitions: dfa.transitions_for(label).len() as u32,
                    sharing_queries: sharing,
                }
            })
            .collect();
        let total_eval_ns = gids
            .iter()
            .filter_map(|&g| engine.group_engine(g))
            .map(|oe| oe.stats().eval_ns)
            .sum();
        let group = engine.group_of(id).expect("live id");
        let co_subscribers = engine
            .group_subscribers(group)
            .unwrap_or(&[])
            .iter()
            .filter(|&&slot| slot != id.0)
            .filter_map(|&slot| engine.name(QueryId(slot)).map(str::to_string))
            .collect();
        Msg::ExplainReport(ExplainWire {
            id: id.0,
            name: name.to_string(),
            regex: e.query().regex().to_string(),
            simple: e.semantics() == PathSemantics::Simple,
            dfa_states: dfa.n_states() as u32,
            dfa_start: dfa.start().0,
            dfa_accepting: dfa.accepting_states().map(|s| s.0).collect(),
            labels,
            delta_trees: profile.trees as u64,
            delta_nodes: profile.nodes as u64,
            delta_slots: profile.slots as u64,
            delta_arena_bytes: profile.arena_bytes as u64,
            compactions: stats.compactions,
            nodes_per_state: profile.nodes_per_state.clone(),
            depth_hist: profile.depth_histogram.clone(),
            tuples_routed: stats.tuples_routed,
            eval_ns: stats.eval_ns,
            expiry_ns: stats.expiry_nanos,
            total_eval_ns,
            results_emitted: stats.results_emitted,
            group,
            signature_hash: engine.group_signature(group).map_or(0, |s| s.hash64()),
            co_subscribers,
        })
    }

    fn persist_labels_if_grown(&mut self, before: usize) -> Result<(), String> {
        if self.labels.len() == before {
            return Ok(());
        }
        if let Some(durable) = self.host.durable() {
            labels::save(&self.labels, durable.dir())
                .map_err(|e| format!("persisting the label table failed: {e}"))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use srpq_common::VertexId;
    use srpq_core::CountSink;
    use srpq_graph::WindowPolicy;
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    thread_local! {
        static COUNTING: Cell<bool> = const { Cell::new(false) };
        static ALLOCS: Cell<u64> = const { Cell::new(0) };
    }

    /// Counts the calling thread's allocations while armed; other test
    /// threads are not counted.
    struct CountingAlloc;

    fn count() {
        let _ = COUNTING.try_with(|on| {
            if on.get() {
                let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
            }
        });
    }

    // SAFETY: every call is forwarded unchanged to `System`; the
    // bookkeeping touches only const-initialized thread-locals and never
    // allocates.
    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            count();
            System.alloc(layout)
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout)
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            count();
            System.realloc(ptr, layout, new_size)
        }
    }

    #[global_allocator]
    static ALLOCATOR: CountingAlloc = CountingAlloc;

    /// Allocations `f` makes on this thread.
    fn allocs_of(f: impl FnOnce()) -> u64 {
        ALLOCS.with(|n| n.set(0));
        COUNTING.with(|on| on.set(true));
        f();
        COUNTING.with(|on| on.set(false));
        ALLOCS.with(Cell::get)
    }

    #[test]
    fn observing_a_warm_batch_allocates_nothing() {
        // Four registrations over two templates, no slide inside the
        // measured batches, with and without a worker ledger: once
        // every gauge exists, the per-batch journal diff and gauge
        // refresh build no name, cursor, id list or ledger copy.
        for workers in [0, 2] {
            let mut labels = LabelInterner::new();
            let mut engine = MultiQueryEngine::new(WindowPolicy::new(1_000, 1_000));
            for (name, expr) in [("r1", "a+"), ("r2", "a+"), ("s1", "a b"), ("s2", "a b")] {
                let query = CompiledQuery::compile(expr, &mut labels).unwrap();
                engine
                    .register(name, query, PathSemantics::Arbitrary)
                    .unwrap();
            }
            engine.set_workers(workers);
            let a = labels.get("a").unwrap();
            let mut core = EngineCore::new(Host::from(engine), labels, 0, Obs::new());
            let mut sink = CountSink::default();
            let mut batch = |core: &mut EngineCore, i: u32| {
                let (u, v) = (VertexId(i), VertexId(i + 1));
                let t = StreamTuple::insert(Timestamp(i64::from(i)), u, v, a);
                core.host.process_batch(&[t], &mut sink).unwrap();
                core.seq += 1;
            };
            for i in 0..4 {
                batch(&mut core, i);
                core.observe_batch(0);
                core.refresh_gauges();
            }
            batch(&mut core, 4);
            let n = allocs_of(|| {
                core.observe_batch(0);
                core.refresh_gauges();
            });
            assert_eq!(n, 0, "{workers} workers: the observation path allocated");
        }
    }
}
