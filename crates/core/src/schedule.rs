//! The one batch schedule of [`MultiQueryEngine`]: the micro-batch
//! planner, the per-position evaluation, the slot-ordered fan-out, and
//! the worker pool that may run the evaluation off the calling thread.
//! What the schedule computes, why its event stream equals per-tuple
//! processing at any worker count, and the panic contract are
//! documented once, in [`crate::multi`]; this module is the machinery
//! behind `MultiQueryEngine::{process_batch, expire_now}`.

use crate::engine::Engine;
use crate::multi::{Group, MultiQueryEngine, MultiSink, QueryId};
use srpq_common::beacon::stage;
use srpq_common::{Op, ResultPair, StreamTuple, Timestamp};
use srpq_graph::{Visibility, WindowGraph};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

/// `(eval_ns, expiry_ns)`: wall-clock spent inside group engines, and
/// the expiry slice thereof.
pub(crate) type Ledger = (u64, u64);

/// Runs `pass` on a group engine, adding its wall-clock to the engine's
/// `eval_ns` and to `ledger`, and the expiry time it spent to
/// `ledger.1` — so the ledgers of the threads that ran the passes sum
/// to the per-group totals.
pub(crate) fn metered(engine: &mut Engine, ledger: &mut Ledger, pass: impl FnOnce(&mut Engine)) {
    let expiry0 = engine.stats().expiry_nanos;
    let t0 = std::time::Instant::now();
    pass(engine);
    let elapsed = t0.elapsed().as_nanos() as u64;
    let stats = engine.stats_mut();
    stats.eval_ns += elapsed;
    ledger.0 += elapsed;
    ledger.1 += stats.expiry_nanos - expiry0;
}

/// One untagged result event, keyed for the deterministic merge.
/// Fan-out to subscriber tags happens on the calling thread.
pub(crate) struct Ev {
    /// Arrival position within the micro-batch (`u32::MAX` groups the
    /// events of an explicit expiry pass, which has no driving tuple).
    pos: u32,
    group: u32,
    invalidated: bool,
    pair: ResultPair,
    ts: Timestamp,
}

impl Ev {
    /// Hands the event to `sink` under subscriber tag `id`.
    pub(crate) fn deliver<S: MultiSink>(&self, id: QueryId, sink: &mut S) {
        if self.invalidated {
            sink.invalidate(id, self.pair, self.ts);
        } else {
            sink.emit(id, self.pair, self.ts);
        }
    }
}

/// The one place a group engine writes results: its events are
/// buffered under a fixed `(pos, group)` key.
pub(crate) struct EvSink<'a> {
    pub(crate) events: &'a mut Vec<Ev>,
    pub(crate) pos: u32,
    pub(crate) group: u32,
}

impl EvSink<'_> {
    fn push(&mut self, invalidated: bool, pair: ResultPair, ts: Timestamp) {
        self.events.push(Ev {
            pos: self.pos,
            group: self.group,
            invalidated,
            pair,
            ts,
        });
    }

    /// A new result pair `(x, y)` discovered at stream time `ts`.
    #[inline]
    pub(crate) fn emit(&mut self, pair: ResultPair, ts: Timestamp) {
        self.push(false, pair, ts);
    }

    /// A previously reported pair lost its last witness path at `ts`
    /// (explicit deletions only).
    #[inline]
    pub(crate) fn invalidate(&mut self, pair: ResultPair, ts: Timestamp) {
        self.push(true, pair, ts);
    }

    /// The same buffer and key under a shorter borrow.
    pub(crate) fn reborrow(&mut self) -> EvSink<'_> {
        EvSink {
            events: self.events,
            pos: self.pos,
            group: self.group,
        }
    }
}

/// Group `g`'s share of micro-batch position `pos`, metered: what a
/// worker runs for each of its groups that speaks the tuple's label, and
/// the calling thread for each routed group when there are no workers.
/// `extend` advances at `upto(pos).before()` — slide-expiry against the
/// graph as it stood before the tuple's own edge — then dispatches at
/// `upto(pos)`, which admits that edge.
fn extend_group(
    g: u32,
    grp: &mut Group,
    graph: &WindowGraph,
    pos: usize,
    t: StreamTuple,
    events: &mut Vec<Ev>,
    ledger: &mut Ledger,
) {
    let mut sink = EvSink {
        events,
        pos: pos as u32,
        group: g,
    };
    metered(&mut grp.engine, ledger, |e| {
        e.extend(graph, Visibility::upto(pos), t, &mut sink)
    });
    grp.engine.stats_mut().tuples_routed += 1;
}

/// Group `g`'s explicit eager expiry pass (`expire_now`), metered.
fn expire_group(
    g: u32,
    grp: &mut Group,
    graph: &WindowGraph,
    events: &mut Vec<Ev>,
    ledger: &mut Ledger,
) {
    let mut sink = EvSink {
        events,
        pos: u32::MAX,
        group: g,
    };
    metered(&mut grp.engine, ledger, |e| {
        e.expire_delta(graph, &mut sink)
    });
}

/// Work shipped to a worker thread for one micro-batch.
enum Job {
    /// Extend the shipped groups over the micro-batch.
    Batch {
        graph: Arc<WindowGraph>,
        tuples: Arc<Vec<StreamTuple>>,
        groups: Vec<(u32, Group)>,
    },
    /// Run an explicit eager expiry pass over the shipped groups.
    Expire {
        graph: Arc<WindowGraph>,
        groups: Vec<(u32, Group)>,
    },
}

/// A worker's reply: the groups (with their Δ forests mutated), the
/// events they produced in `(pos, own-groups-ascending)` order, and the
/// job's ledger.
struct JobOut {
    groups: Vec<(u32, Group)>,
    events: Vec<Ev>,
    ledger: Ledger,
}

struct Worker {
    jobs: Option<Sender<Job>>,
    results: Receiver<JobOut>,
    handle: Option<JoinHandle<()>>,
    /// Stage beacon published by the worker thread (sampling profiler).
    beacon: Arc<srpq_common::StageBeacon>,
}

fn worker_loop(
    jobs: Receiver<Job>,
    results: Sender<JobOut>,
    beacon: Arc<srpq_common::StageBeacon>,
) {
    while let Ok(job) = jobs.recv() {
        let mut events = Vec::new();
        let mut ledger = (0, 0);
        // Each arm drops its graph handle before the reply: the
        // coordinator takes the graph back out of the `Arc` once every
        // worker has answered.
        let groups = match job {
            Job::Batch {
                graph,
                tuples,
                mut groups,
            } => {
                beacon.set(stage::EXTEND);
                for (pos, &t) in tuples.iter().enumerate() {
                    for (g, grp) in groups.iter_mut() {
                        // Label routing, per group: alphabet membership
                        // is exactly the routing-table criterion.
                        if grp.engine.query().dfa().knows_label(t.label) {
                            extend_group(*g, grp, &graph, pos, t, &mut events, &mut ledger);
                        }
                    }
                }
                groups
            }
            Job::Expire { graph, mut groups } => {
                beacon.set(stage::EXPIRY);
                for (g, grp) in groups.iter_mut() {
                    expire_group(*g, grp, &graph, &mut events, &mut ledger);
                }
                groups
            }
        };
        beacon.set(stage::HANDOFF);
        let sent = results.send(JobOut {
            groups,
            events,
            ledger,
        });
        beacon.set(stage::IDLE);
        beacon.advance();
        if sent.is_err() {
            return; // coordinator gone
        }
    }
    beacon.set(stage::IDLE);
}

/// The worker threads (with none, the calling thread evaluates every
/// micro-batch) plus the schedule's retained scratch. Workers hold no
/// query state between micro-batches.
#[derive(Default)]
pub(crate) struct Pool {
    workers: Vec<Worker>,
    /// Per-worker ledgers, index-aligned with `workers`.
    ledger: Vec<Ledger>,
    /// Retained event buffer (one position's, a merged micro-batch's,
    /// or one backfill-replayed edge's).
    pub(crate) events_scratch: Vec<Ev>,
    /// Reusable `(slot, run start, run end)` fan-out schedule of one
    /// position.
    fan_scratch: Vec<(u32, usize, usize)>,
    /// Cumulative time the coordinator spent blocked on worker replies
    /// (the worker ledgers own that time; `route_ns` excludes it).
    pub(crate) wait_ns: u64,
}

impl Pool {
    pub(crate) fn len(&self) -> usize {
        self.workers.len()
    }

    pub(crate) fn beacons(&self) -> Vec<Arc<srpq_common::StageBeacon>> {
        self.workers.iter().map(|w| Arc::clone(&w.beacon)).collect()
    }

    pub(crate) fn ledger(&self) -> &[Ledger] {
        &self.ledger
    }

    /// Joins the current workers and starts `n_workers` fresh ones;
    /// returns the retired workers' summed ledger for the caller to
    /// keep.
    pub(crate) fn respawn(&mut self, n_workers: usize) -> Ledger {
        self.shutdown();
        let retired = self
            .ledger
            .iter()
            .fold((0, 0), |acc, w| (acc.0 + w.0, acc.1 + w.1));
        self.workers = (0..n_workers)
            .map(|i| {
                let (job_tx, job_rx) = channel::<Job>();
                let (res_tx, res_rx) = channel::<JobOut>();
                let beacon = Arc::new(srpq_common::StageBeacon::new());
                let worker_beacon = Arc::clone(&beacon);
                let handle = std::thread::Builder::new()
                    .name(format!("srpq-multi-worker-{i}"))
                    .spawn(move || worker_loop(job_rx, res_tx, worker_beacon))
                    .expect("spawn worker thread");
                Worker {
                    jobs: Some(job_tx),
                    results: res_rx,
                    handle: Some(handle),
                    beacon,
                }
            })
            .collect();
        self.ledger = vec![(0, 0); n_workers];
        retired
    }

    fn shutdown(&mut self) {
        for w in self.workers.iter_mut() {
            w.jobs.take(); // closing the channel ends the worker loop
        }
        for w in self.workers.iter_mut() {
            if let Some(h) = w.handle.take() {
                let _ = h.join();
            }
        }
        self.workers.clear();
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl MultiQueryEngine {
    /// One slide group of `process_batch` (the caller already purged the
    /// graph at its boundary), run as a sequence of micro-batches.
    pub(crate) fn run_slide<S: MultiSink>(&mut self, slide: &[StreamTuple], sink: &mut S) {
        let mut i = 0;
        while i < slide.len() {
            i += self.run_micro_batch(&slide[i..], sink);
        }
    }

    /// Whether applying routed tuple `t` up front would change what
    /// earlier positions of its micro-batch observe: an explicit
    /// deletion, or a refresh that changes an existing edge's timestamp.
    fn mutates(&self, t: &StreamTuple) -> bool {
        t.op == Op::Delete
            || matches!(
                self.graph.edge_ts(t.edge.src, t.edge.dst, t.label),
                Some(ts0) if ts0 != t.ts
            )
    }

    /// Plans, applies and evaluates the leading micro-batch of `rest`, a
    /// slide group's remainder; returns its length. Phase 1 applies the
    /// routed inserts once, stamping every *new* edge with its position
    /// ([`WindowGraph::insert_visible_from`]), and stops before the first
    /// routed tuple that [`Self::mutates`] the graph; leading the
    /// micro-batch, that tuple runs alone ([`Self::run_singleton`]).
    /// Phase 2 is [`Self::evaluate`].
    fn run_micro_batch<S: MultiSink>(&mut self, rest: &[StreamTuple], sink: &mut S) -> usize {
        let mut len = rest.len();
        for (pos, t) in rest.iter().enumerate() {
            // An unrouted tuple touches neither graph nor engines.
            if let Some(set) = self.routing.get(&t.label) {
                if self.mutates(t) {
                    if pos == 0 {
                        self.run_singleton(*t, sink);
                        return 1;
                    }
                    len = pos;
                    break;
                }
                for g in set.iter_ones() {
                    self.tuples_routed += self.groups[g as usize]
                        .as_ref()
                        .expect("routed groups are live")
                        .subscribers
                        .len() as u64;
                }
                self.graph
                    .insert_visible_from(t.edge.src, t.edge.dst, t.label, t.ts, pos);
            }
            self.tuples_seen += 1;
            if t.ts > self.now {
                self.now = t.ts;
            }
        }
        let events = std::mem::take(&mut self.pool.events_scratch);
        self.evaluate(&rest[..len], events, sink);
        len
    }

    /// Runs one mutating tuple alone, in two stages that reproduce the
    /// per-tuple order: (A) every routed group advances its clock —
    /// running any due slide-expiry against the graph *before* the
    /// mutation — on the calling thread, and the mutation is applied,
    /// unstamped; (B) the tuple is evaluated as a micro-batch of one.
    /// The routed groups' clocks already moved, so stage B's advance is
    /// a no-op and only the dispatch runs, against the mutated graph.
    fn run_singleton<S: MultiSink>(&mut self, t: StreamTuple, sink: &mut S) {
        self.tuples_seen += 1;
        self.set_stage(stage::EXTEND);
        let mut events = std::mem::take(&mut self.pool.events_scratch);
        let set = self.routing.get(&t.label).expect("planned as routed");
        for g in set.iter_ones() {
            let grp = self.groups[g as usize]
                .as_mut()
                .expect("routed groups are live");
            self.tuples_routed += grp.subscribers.len() as u64;
            // Stage-A events carry position 0 and precede the group's
            // stage-B events (see `emit`).
            let mut ev = EvSink {
                events: &mut events,
                pos: 0,
                group: g,
            };
            metered(&mut grp.engine, &mut self.coord_ns, |e| {
                e.advance(&self.graph, Visibility::ALL, t.ts, &mut ev)
            });
        }
        self.set_stage(stage::ROUTE);
        match t.op {
            Op::Insert => {
                self.graph.insert(t.edge.src, t.edge.dst, t.label, t.ts);
            }
            Op::Delete => {
                self.graph.remove(t.edge.src, t.edge.dst, t.label);
            }
        }
        if t.ts > self.now {
            self.now = t.ts;
        }
        self.evaluate(std::slice::from_ref(&t), events, sink);
    }

    /// Phase 2 of a micro-batch whose graph mutations are applied: each
    /// position's routed groups extend at that position's visibility,
    /// and the events fan out in slot order. `events` may hold a
    /// singleton's stage-A events.
    ///
    /// Without workers, the calling thread runs the positions in order,
    /// routed through the label bitmap, and fans each position's events
    /// out before the next, so results stream mid-batch; the graph stays
    /// in place and nothing is allocated. With workers, each takes its
    /// partition of the groups and a shared handle on the graph, and
    /// [`Self::collect`] merges their outboxes.
    fn evaluate<S: MultiSink>(
        &mut self,
        tuples: &[StreamTuple],
        mut events: Vec<Ev>,
        sink: &mut S,
    ) {
        if self.pool.len() > 0 {
            let tuples = Arc::new(tuples.to_vec());
            let (pending, graph) = self.ship(|graph, groups| Job::Batch {
                graph,
                tuples: tuples.clone(),
                groups,
            });
            return self.collect(pending, graph, events, sink);
        }
        for (pos, &t) in tuples.iter().enumerate() {
            if let Some(set) = self.routing.get(&t.label) {
                self.set_stage(stage::EXTEND);
                for g in set.iter_ones() {
                    let grp = self.groups[g as usize]
                        .as_mut()
                        .expect("routed groups are live");
                    extend_group(g, grp, &self.graph, pos, t, &mut events, &mut self.coord_ns);
                }
                self.set_stage(stage::ROUTE);
            }
            self.emit(&mut events, sink);
        }
        self.graph.clear_stamps();
        self.pool.events_scratch = events;
    }

    /// The eager expiry pass of `expire_now` (the caller already purged
    /// the graph): every live group expires, on the calling thread or
    /// across the workers, and the events fan out in slot order.
    pub(crate) fn expire_groups<S: MultiSink>(&mut self, sink: &mut S) {
        let mut events = std::mem::take(&mut self.pool.events_scratch);
        if self.pool.len() > 0 {
            let (pending, graph) = self.ship(|graph, groups| Job::Expire { graph, groups });
            return self.collect(pending, graph, events, sink);
        }
        for (g, entry) in self.groups.iter_mut().enumerate() {
            if let Some(grp) = entry {
                expire_group(g as u32, grp, &self.graph, &mut events, &mut self.coord_ns);
            }
        }
        self.emit(&mut events, sink);
        self.pool.events_scratch = events;
    }

    /// Moves the shared graph into an `Arc` — read-only for the
    /// duration of the micro-batch — and sends every worker with a
    /// non-empty partition the job `make` builds for it. Returns the
    /// workers owed a reply and the coordinator's graph handle, which
    /// [`Self::collect`] turns back into the plain graph.
    fn ship(
        &mut self,
        make: impl Fn(Arc<WindowGraph>, Vec<(u32, Group)>) -> Job,
    ) -> (Vec<usize>, Arc<WindowGraph>) {
        let graph = Arc::new(std::mem::take(&mut self.graph));
        let n = self.pool.workers.len();
        let mut pending = Vec::new();
        for w in 0..n {
            let groups = self.take_partition(w, n);
            if groups.is_empty() {
                continue;
            }
            self.pool.workers[w]
                .jobs
                .as_ref()
                .expect("pool is live")
                .send(make(graph.clone(), groups))
                .expect("worker thread alive");
            pending.push(w);
        }
        (pending, graph)
    }

    /// Takes worker `w`'s partition (`group id % n == w`, ascending)
    /// out of the registry for shipment — a shared Δ forest is owned by
    /// exactly one worker per batch.
    fn take_partition(&mut self, w: usize, n: usize) -> Vec<(u32, Group)> {
        let mut out = Vec::new();
        let mut g = w;
        while g < self.groups.len() {
            if let Some(grp) = self.groups[g].take() {
                out.push((g as u32, grp));
            }
            g += n;
        }
        out
    }

    /// Receives every pending worker's reply, restores the groups and
    /// the plain graph, merges the outboxes behind `events` in
    /// `(arrival, group)` order, clears the batch's visibility stamps,
    /// and fans the events out.
    fn collect<S: MultiSink>(
        &mut self,
        pending: Vec<usize>,
        graph: Arc<WindowGraph>,
        mut events: Vec<Ev>,
        sink: &mut S,
    ) {
        for w in pending {
            let t_wait = std::time::Instant::now();
            let Ok(out) = self.pool.workers[w].results.recv() else {
                // The worker unwound mid-batch; its groups are gone and
                // `poisoned` stays set — surface it loudly.
                panic!("MultiQueryEngine worker {w} panicked; engine is poisoned");
            };
            self.pool.wait_ns += t_wait.elapsed().as_nanos() as u64;
            self.pool.ledger[w].0 += out.ledger.0;
            self.pool.ledger[w].1 += out.ledger.1;
            for (g, grp) in out.groups {
                self.groups[g as usize] = Some(grp);
            }
            events.extend(out.events);
        }
        // Each worker's outbox is already (pos asc, own groups asc);
        // the stable sort is a k-way merge that preserves per-(pos,
        // group) generation order.
        events.sort_by_key(|e| (e.pos, e.group));
        self.graph = Arc::into_inner(graph).expect("workers release the graph before replying");
        self.graph.clear_stamps();
        self.emit(&mut events, sink);
        self.pool.events_scratch = events;
    }

    /// Fans `events`, ordered by position, out to the subscribers and
    /// clears them. Within a position every subscriber receives its
    /// group's event runs under its own tag, in ascending slot order and,
    /// per slot, in generation order (a singleton's stage-A run before
    /// its stage-B run): the order of per-tuple processing, where each
    /// routed group's events for one tuple go to its subscribers slot by
    /// slot.
    fn emit<S: MultiSink>(&mut self, events: &mut Vec<Ev>, sink: &mut S) {
        let fan = &mut self.pool.fan_scratch;
        let mut i = 0;
        while i < events.len() {
            let pos = events[i].pos;
            let seg_end = i + events[i..].iter().take_while(|e| e.pos == pos).count();
            fan.clear();
            let mut j = i;
            while j < seg_end {
                let g = events[j].group;
                let run_end = j + events[j..seg_end]
                    .iter()
                    .take_while(|e| e.group == g)
                    .count();
                let subs = &self.groups[g as usize]
                    .as_ref()
                    .expect("groups restored before emit")
                    .subscribers;
                fan.extend(subs.iter().map(|&slot| (slot, j, run_end)));
                j = run_end;
            }
            fan.sort_unstable();
            for &(slot, s, e) in fan.iter() {
                for ev in &events[s..e] {
                    ev.deliver(QueryId(slot), sink);
                }
            }
            i = seg_end;
        }
        events.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::PathSemantics;
    use crate::multi::MultiCollectSink;
    use srpq_automata::CompiledQuery;
    use srpq_common::{LabelInterner, VertexId};
    use srpq_graph::WindowPolicy;

    fn pooled(window: WindowPolicy, n_workers: usize) -> MultiQueryEngine {
        let mut multi = MultiQueryEngine::new(window);
        multi.set_workers(n_workers);
        multi
    }

    fn setup(n_workers: usize) -> (MultiQueryEngine, LabelInterner, QueryId, QueryId) {
        let mut labels = LabelInterner::new();
        let q1 = CompiledQuery::compile("a b", &mut labels).unwrap();
        let q2 = CompiledQuery::compile("b+", &mut labels).unwrap();
        let mut multi = pooled(WindowPolicy::new(100, 10), n_workers);
        let id1 = multi.register("ab", q1, PathSemantics::Arbitrary).unwrap();
        let id2 = multi
            .register("bplus", q2, PathSemantics::Arbitrary)
            .unwrap();
        (multi, labels, id1, id2)
    }

    #[test]
    fn shared_groups_fan_out_across_workers() {
        // Language-equivalent registrations share one group; the
        // fan-out must still deliver per-subscriber streams identical
        // to the calling thread's, at any worker count.
        let mut labels = LabelInterner::new();
        let window = WindowPolicy::new(20, 4);
        let exprs = ["(a | b)+", "(b | a)+", "(a | b) (a | b)*", "a b"];
        let a = labels.intern("a");
        let b = labels.intern("b");
        let v = VertexId;
        let stream: Vec<StreamTuple> = (0..80)
            .map(|i| {
                let label = if i % 2 == 0 { a } else { b };
                StreamTuple::insert(Timestamp(i as i64 / 2), v(i % 5), v((i * 3 + 1) % 5), label)
            })
            .collect();

        let mut seq = MultiQueryEngine::new(window);
        for (i, e) in exprs.iter().enumerate() {
            let q = CompiledQuery::compile(e, &mut labels).unwrap();
            seq.register(format!("q{i}"), q, PathSemantics::Arbitrary)
                .unwrap();
        }
        assert_eq!(seq.groups_live(), 2); // three rewrites + one distinct
        let mut seq_sink = MultiCollectSink::default();
        for chunk in stream.chunks(16) {
            seq.process_batch(chunk, &mut seq_sink);
        }
        seq.expire_now(&mut seq_sink);

        for n_workers in [1, 2, 4] {
            let mut par = pooled(window, n_workers);
            for (i, e) in exprs.iter().enumerate() {
                let q = CompiledQuery::compile(e, &mut labels).unwrap();
                par.register(format!("q{i}"), q, PathSemantics::Arbitrary)
                    .unwrap();
            }
            assert_eq!(par.groups_live(), 2);
            assert_eq!(par.n_queries(), 4);
            let mut par_sink = MultiCollectSink::default();
            for chunk in stream.chunks(16) {
                par.process_batch(chunk, &mut par_sink);
            }
            par.expire_now(&mut par_sink);
            assert_eq!(
                seq_sink.emitted, par_sink.emitted,
                "{n_workers} workers: shared-group stream diverged"
            );
            assert_eq!(seq_sink.invalidated, par_sink.invalidated);
        }
    }

    #[test]
    fn deletions_and_refresh_cut_batches() {
        let (mut multi, labels, id1, id2) = setup(2);
        let a = labels.get("a").unwrap();
        let b = labels.get("b").unwrap();
        let v = VertexId;
        let mut sink = MultiCollectSink::default();
        // Insert, refresh (same edge, later ts), and delete all in one
        // caller batch: the planner must cut so the stream still equals
        // the calling thread's.
        let batch = [
            StreamTuple::insert(Timestamp(1), v(0), v(1), a),
            StreamTuple::insert(Timestamp(2), v(1), v(2), b),
            StreamTuple::insert(Timestamp(3), v(1), v(2), b), // refresh
            StreamTuple::delete(Timestamp(4), v(1), v(2), b),
            StreamTuple::insert(Timestamp(5), v(1), v(2), b),
        ];
        multi.process_batch(&batch, &mut sink);
        assert!(multi.has_result(id1, ResultPair::new(v(0), v(2))));
        assert!(multi.has_result(id2, ResultPair::new(v(1), v(2))));

        let mut seq = MultiQueryEngine::new(WindowPolicy::new(100, 10));
        let mut labels2 = LabelInterner::new();
        let q1 = CompiledQuery::compile("a b", &mut labels2).unwrap();
        let q2 = CompiledQuery::compile("b+", &mut labels2).unwrap();
        seq.register("ab", q1, PathSemantics::Arbitrary).unwrap();
        seq.register("bplus", q2, PathSemantics::Arbitrary).unwrap();
        let mut seq_sink = MultiCollectSink::default();
        seq.process_batch(&batch, &mut seq_sink);
        assert_eq!(sink.emitted, seq_sink.emitted);
        assert_eq!(sink.invalidated, seq_sink.invalidated);
    }

    #[test]
    fn mid_stream_registration_and_deregistration() {
        let mut labels = LabelInterner::new();
        let q1 = CompiledQuery::compile("a", &mut labels).unwrap();
        let a = labels.get("a").unwrap();
        let v = VertexId;
        let mut multi = pooled(WindowPolicy::new(100, 10), 3);
        let id1 = multi
            .register("first", q1, PathSemantics::Arbitrary)
            .unwrap();
        let mut sink = MultiCollectSink::default();
        multi.process(StreamTuple::insert(Timestamp(1), v(0), v(1), a), &mut sink);

        let q2 = CompiledQuery::compile("a a", &mut labels).unwrap();
        let id2 = multi
            .register_backfilled("second", q2, PathSemantics::Arbitrary, &mut sink)
            .unwrap();
        multi.process(StreamTuple::insert(Timestamp(2), v(1), v(2), a), &mut sink);
        assert!(multi.has_result(id2, ResultPair::new(v(0), v(2))));
        assert!(multi.index_size(id2).unwrap().nodes > 0);

        multi.deregister(id1).unwrap();
        sink.emitted.clear();
        multi.process(StreamTuple::insert(Timestamp(3), v(2), v(3), a), &mut sink);
        assert!(sink.emitted.iter().all(|&(id, ..)| id != id1));
        assert_eq!(multi.query_ids(), vec![id2]);
        assert_eq!(multi.n_slots(), 2);
        // The vacated name is reusable; the id is not.
        let q3 = CompiledQuery::compile("a", &mut labels).unwrap();
        let id3 = multi
            .register("first", q3, PathSemantics::Arbitrary)
            .unwrap();
        assert_eq!(id3, QueryId(2));
    }

    #[test]
    fn resize_workers_keeps_state() {
        let (mut multi, labels, id1, _) = setup(1);
        let a = labels.get("a").unwrap();
        let b = labels.get("b").unwrap();
        let v = VertexId;
        let mut sink = MultiCollectSink::default();
        multi.process_batch(
            &[
                StreamTuple::insert(Timestamp(1), v(0), v(1), a),
                StreamTuple::insert(Timestamp(2), v(1), v(2), b),
            ],
            &mut sink,
        );
        assert!(multi.has_result(id1, ResultPair::new(v(0), v(2))));
        multi.set_workers(4);
        assert_eq!(multi.n_workers(), 4);
        multi.process_batch(
            &[StreamTuple::insert(Timestamp(3), v(2), v(3), b)],
            &mut sink,
        );
        assert!(multi.has_result(id1, ResultPair::new(v(0), v(2))));
        assert_eq!(multi.n_queries(), 2);

        // Switching worker counts mid-stream, 0 → 3 → 0, with a
        // deletion and a ts-changing refresh after each switch (and a
        // slide crossing in between): the event stream stays
        // byte-identical to an engine that never had workers.
        let phases = [
            vec![
                StreamTuple::insert(Timestamp(1), v(0), v(1), a),
                StreamTuple::insert(Timestamp(2), v(1), v(2), b),
                StreamTuple::insert(Timestamp(3), v(2), v(3), b),
            ],
            vec![
                StreamTuple::delete(Timestamp(11), v(1), v(2), b),
                StreamTuple::insert(Timestamp(12), v(2), v(3), b), // refresh
                StreamTuple::insert(Timestamp(13), v(1), v(2), b),
                StreamTuple::insert(Timestamp(14), v(3), v(4), b),
            ],
            vec![
                StreamTuple::delete(Timestamp(21), v(2), v(3), b),
                StreamTuple::insert(Timestamp(22), v(1), v(2), b), // refresh
                StreamTuple::insert(Timestamp(23), v(2), v(3), b),
            ],
        ];
        let (mut switching, ..) = setup(0);
        let (mut unpooled, ..) = setup(0);
        let mut got = MultiCollectSink::default();
        let mut want = MultiCollectSink::default();
        for (phase, n_workers) in phases.iter().zip([0, 3, 0]) {
            switching.set_workers(n_workers);
            assert_eq!(switching.n_workers(), n_workers);
            switching.process_batch(phase, &mut got);
            unpooled.process_batch(phase, &mut want);
        }
        switching.expire_now(&mut got);
        unpooled.expire_now(&mut want);
        assert!(!want.invalidated.is_empty(), "vacuous fixture");
        assert_eq!(got.emitted, want.emitted);
        assert_eq!(got.invalidated, want.invalidated);
        assert_eq!(switching.graph().n_edges(), unpooled.graph().n_edges());
        assert_eq!(switching.routing_stats(), unpooled.routing_stats());
    }

    #[test]
    fn eval_time_ledger_is_conserved_across_workers() {
        // Per-group `eval_ns` must sum to exactly what the per-worker
        // and coordinator ledgers recorded: every increment applied to
        // a group's stats is mirrored into whichever thread spent it
        // (worker batch/expire jobs, the calling thread's evaluation
        // without workers, singleton stage A and backfill replay) — at
        // any worker count.
        for n_workers in [0, 1, 2, 3] {
            let mut labels = LabelInterner::new();
            let qa = CompiledQuery::compile("a b*", &mut labels).unwrap();
            let qb = CompiledQuery::compile("(a | b)+", &mut labels).unwrap();
            let a = labels.get("a").unwrap();
            let b = labels.get("b").unwrap();
            let v = VertexId;
            let mut multi = pooled(WindowPolicy::new(20, 4), n_workers);
            multi.register("qa", qa, PathSemantics::Arbitrary).unwrap();
            multi.register("qb", qb, PathSemantics::Arbitrary).unwrap();
            let mut sink = MultiCollectSink::default();
            let stream: Vec<StreamTuple> = (0..100)
                .map(|i| {
                    let label = if i % 2 == 0 { a } else { b };
                    StreamTuple::insert(
                        Timestamp(i as i64 / 2),
                        v(i % 6),
                        v((i * 5 + 1) % 6),
                        label,
                    )
                })
                .collect();
            for chunk in stream.chunks(16) {
                multi.process_batch(chunk, &mut sink);
            }
            // Exercise every eval site: deletion singleton, explicit
            // expiry, and a backfilled registration.
            multi.process_batch(
                &[StreamTuple::delete(Timestamp(49), v(0), v(1), a)],
                &mut sink,
            );
            multi.expire_now(&mut sink);
            let qc = CompiledQuery::compile("b a", &mut labels).unwrap();
            multi
                .register_backfilled("qc", qc, PathSemantics::Arbitrary, &mut sink)
                .unwrap();

            let per_group_eval: u64 = multi
                .group_ids()
                .iter()
                .map(|&g| multi.group_engine(g).unwrap().stats().eval_ns)
                .sum();
            let per_group_expiry: u64 = multi
                .group_ids()
                .iter()
                .map(|&g| multi.group_engine(g).unwrap().stats().expiry_nanos)
                .sum();
            let ledger_eval: u64 =
                multi.coord_totals().0 + multi.worker_totals().iter().map(|w| w.0).sum::<u64>();
            let ledger_expiry: u64 =
                multi.coord_totals().1 + multi.worker_totals().iter().map(|w| w.1).sum::<u64>();
            assert_eq!(
                per_group_eval, ledger_eval,
                "{n_workers} workers: eval ledger diverged"
            );
            assert_eq!(
                per_group_expiry, ledger_expiry,
                "{n_workers} workers: expiry ledger diverged"
            );
            assert!(per_group_eval > 0, "work happened, so time was spent");
            let stage = multi.stage_totals();
            assert_eq!(stage.eval_ns, ledger_eval);
            assert_eq!(stage.expiry_ns, ledger_expiry);
            assert!(stage.batches > 0);

            // Replacing the pool folds worker ledgers into the
            // coordinator's — the total is conserved, also on the way
            // back to no workers.
            for next in [2, 0] {
                multi.set_workers(next);
                assert_eq!(multi.worker_totals(), vec![(0, 0); next]);
                assert_eq!(multi.coord_totals(), (ledger_eval, ledger_expiry));
                assert_eq!(multi.stage_totals().eval_ns, ledger_eval);
            }
        }
    }

    #[test]
    fn route_and_engine_time_fit_in_the_batch_wall_time() {
        // `route_ns` is the calling thread's time outside group engines
        // and `coord_totals` its time inside them, so the two never add
        // up to more than the wall time around the batches — also on a
        // stream whose deletions run as singletons, whose stage A the
        // calling thread meters, across slide crossings.
        for n_workers in [0, 2] {
            let (mut multi, labels, ..) = setup(n_workers);
            let a = labels.get("a").unwrap();
            let b = labels.get("b").unwrap();
            let v = VertexId;
            let mut stream = Vec::new();
            for i in 0..3_000u32 {
                let ts = Timestamp(i64::from(i / 3));
                // Every tenth tuple deletes an earlier edge; every third
                // deletion opens a new slide, so its stage A expires.
                if i % 10 == 0 && i > 0 {
                    let victim: StreamTuple = stream[stream.len() - 4];
                    stream.push(StreamTuple::delete(
                        ts,
                        victim.edge.src,
                        victim.edge.dst,
                        victim.label,
                    ));
                } else {
                    let label = if i % 3 == 0 { a } else { b };
                    let (src, dst) = (i * 7 % 61, (i * 11 + i / 61) % 61);
                    stream.push(StreamTuple::insert(ts, v(src), v(dst), label));
                }
            }
            let mut sink = MultiCollectSink::default();
            let mut wall = 0u64;
            for chunk in stream.chunks(64) {
                let t0 = std::time::Instant::now();
                multi.process_batch(chunk, &mut sink);
                wall += t0.elapsed().as_nanos() as u64;
            }
            assert!(!sink.invalidated.is_empty(), "vacuous fixture");
            let route = multi.stage_totals().route_ns;
            let engine = multi.coord_totals().0;
            assert!(engine > 0, "{n_workers} workers: stage A was metered");
            assert!(
                route + engine <= wall,
                "{n_workers} workers: route {route} + engine {engine} ns > wall {wall} ns"
            );
        }
    }

    #[test]
    fn poisoned_engine_refuses_reuse() {
        struct PanicSink;
        impl MultiSink for PanicSink {
            fn emit(&mut self, _: QueryId, _: ResultPair, _: Timestamp) {
                panic!("sink exploded");
            }
        }
        let (mut multi, labels, ..) = setup(2);
        let b = labels.get("b").unwrap();
        let v = VertexId;
        let batch = [StreamTuple::insert(Timestamp(1), v(0), v(1), b)];
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            multi.process_batch(&batch, &mut PanicSink);
        }));
        assert!(err.is_err(), "the sink panic must propagate");
        // The contract: a poisoned engine refuses reuse loudly rather
        // than silently corrupting downstream state.
        let reuse = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            multi.process_batch(&batch, &mut MultiCollectSink::default());
        }));
        let payload = reuse.expect_err("poisoned engine must refuse");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
            .unwrap_or("<non-string panic payload>");
        assert!(msg.contains("poisoned"), "unexpected message: {msg}");
    }
}
